"""Weight initialisation schemes.

The paper (§V-C) initialises all weight matrices with Xavier initialisation
(the uniform variant here), plus zeros/orthogonal used by recurrent cells.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros", "orthogonal", "uniform"]


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def uniform(shape: tuple, rng: np.random.Generator, low: float = -0.1, high: float = 0.1) -> np.ndarray:
    return rng.uniform(low, high, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def orthogonal(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation (Saxe et al., 2014) for recurrent kernels."""
    rows, cols = shape[0], int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    q = q.T if rows < cols else q
    return gain * q[:rows, :cols].reshape(shape)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
