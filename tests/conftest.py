"""Shared fixtures: seeded RNGs, small streams, finite-difference helper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import (InteractionConfig, BipartiteInteractionGenerator,
                            LabeledConfig, LabeledInteractionGenerator)

# Tier-1 is deterministic: every property test draws the same examples on
# every run (no example database, no wall-clock deadline), so a failure
# reproduces and the suite's run time does not depend on the draw.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_stream():
    """A ~200-event bipartite stream for fast integration tests."""
    config = InteractionConfig(num_users=20, num_items=15, num_events=200,
                               time_span=50.0, candidate_size=10)
    return BipartiteInteractionGenerator(config, seed=7).generate(name="tiny")


@pytest.fixture
def tiny_labeled_stream():
    """A small labelled stream with both classes present."""
    base = InteractionConfig(num_users=25, num_items=12, num_events=300,
                             time_span=30.0, candidate_size=10)
    config = LabeledConfig(base=base, deviant_fraction=0.3,
                           threshold_mean=2.0, susceptible_fraction=0.6)
    return LabeledInteractionGenerator(config, seed=11).generate(name="tiny-labeled")


@pytest.fixture
def spare_cores(monkeypatch):
    """``make_producer`` goes serial without a spare core; tests that
    drive local fabric workers take that path whatever box they run on."""
    monkeypatch.setattr("repro.stream.producer._usable_cores", lambda: 8)


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. ``array``."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def assert_grad_close(fn, tensor, atol: float = 1e-6, rtol: float = 1e-5):
    """Check ``tensor.grad`` (already populated) against finite differences."""
    numeric = numeric_gradient(lambda: fn().item(), tensor.data)
    analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)
