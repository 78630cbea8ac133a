"""CPDG hyper-parameter configuration.

Defaults follow the paper's main-result setup (§V-D): η = ε = 10, k = 2,
L = 10 checkpoints, β balancing temporal vs structural contrast, triplet
margin α, temperature τ.  Experiments on the scaled-down synthetic graphs
override the width/epochs for speed; sweeps (Figures 6–8) vary β, η/ε, k
and L exactly as the paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["CPDGConfig", "check_finite_positive"]


def check_finite_positive(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a finite
    number above zero (nan, inf, zero, negatives and non-numbers fail)."""
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive number, "
                         f"got {value!r}")


@dataclass
class CPDGConfig:
    """All knobs of CPDG pre-training (paper §IV, Algorithm 1)."""

    # Sampler (paper §IV-A)
    eta: int = 10
    epsilon: int = 10
    depth: int = 2
    tau: float = 0.2
    # The §IV-A subgraph cache (PrecomputedSampler) on the deterministic
    # ε-DFS arm.  Off by default: measured, it makes production slower,
    # never faster, and ε-DFS batches are bit-identical without it.
    precompute_samplers: bool = False
    # LRU bound of that cache when it is on; None = unbounded.
    sampler_cache_capacity: int | None = 65536

    # Contrastive objectives (paper §IV-B)
    beta: float = 0.5
    margin: float = 1.0
    use_temporal_contrast: bool = True
    use_structural_contrast: bool = True
    readout: str = "mean"          # "mean" (paper) | "max" | "sum"
    objective: str = "triplet"     # "triplet" (paper) | "infonce"

    # EIE checkpointing (paper §IV-C)
    num_checkpoints: int = 10

    # Optimisation
    epochs: int = 3
    batch_size: int = 200
    learning_rate: float = 1e-3
    grad_clip: float = 5.0

    # Encoder dims
    memory_dim: int = 32
    embed_dim: int = 32
    time_dim: int = 8
    edge_dim: int = 4
    n_neighbors: int = 10
    n_layers: int = 1

    # Compiled training step (repro.nn.compile).  When True the per-batch
    # forward+backward is traced once per batch signature and replayed as
    # a straight-line program with pre-allocated buffers — bit-identical
    # to eager, with transparent eager fallback on shape changes.
    # ``--set nn.compile=false`` (or this flag) restores pure eager
    # autograd.
    compile_step: bool = True

    # Training/storage precision (float32 default halves memory traffic;
    # float64 for strict checks).
    dtype: str = "float32"

    # Streaming batch pipeline (repro.stream).  ``num_workers=N`` produces
    # batches in N forked children (0 = one) while the trainer steps;
    # they inherit the graph copy-on-write and open no socket.  With one
    # usable core production runs in process, serially.  Per-batch
    # seeding makes every path bit-identical.  ``prefetch_batches``
    # bounds the batches the children produce ahead of the trainer
    # (backpressure).
    num_workers: int = 0
    prefetch_batches: int = 4

    seed: int = 0

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def with_overrides(self, **kwargs) -> "CPDGConfig":
        """Functional update, used heavily by the sweep experiments."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        # A negative tau swaps the Eq. 7/8 views, zero divides by zero,
        # and nan / inf make every weight nan or uniform.
        check_finite_positive("tau", self.tau)
        # A nan rate trains to nan parameters, a zero clip zeroes every
        # gradient and a nan clip switches clipping off — all silently.
        check_finite_positive("learning_rate", self.learning_rate)
        check_finite_positive("grad_clip", self.grad_clip)
        if self.readout not in ("mean", "max", "sum"):
            raise ValueError(f"unknown readout {self.readout!r}")
        if self.objective not in ("triplet", "infonce"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.eta < 1 or self.epsilon < 1 or self.depth < 1:
            raise ValueError("eta, epsilon and depth must be positive")
        if self.sampler_cache_capacity is not None \
                and self.sampler_cache_capacity < 1:
            raise ValueError("sampler_cache_capacity must be positive or None")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}; "
                             "expected 'float32' or 'float64'")
        if self.num_checkpoints < 1:
            raise ValueError("need at least one checkpoint")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0 (N forked producer "
                             "children, 0 = one; in process only without "
                             "a spare core)")
        if self.prefetch_batches < 1:
            raise ValueError("prefetch_batches must be positive")
