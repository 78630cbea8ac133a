"""Shared fixtures: seeded RNGs, small streams, finite-difference helper,
and the replay-mismatch policy every test runs under."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import (InteractionConfig, BipartiteInteractionGenerator,
                            LabeledConfig, LabeledInteractionGenerator)
from repro.nn import CompiledStep

# Tier-1 is deterministic: every property test draws the same examples on
# every run (no example database, no wall-clock deadline), so a failure
# reproduces and the suite's run time does not depend on the draw.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "replay_fallback: the test drives a CompiledStep key "
        "into a replay mismatch on purpose")


@pytest.fixture(autouse=True)
def replay_mismatch_policy(request, monkeypatch):
    """Fail a test in which a ``CompiledStep`` key that had already
    replayed successfully later mismatches.

    In production that falls back to eager silently (counted by
    ``repro_compile_mismatches_total``); in tier-1 it means a step is not
    shape-stable under its key, which is a bug to fix, not to absorb.
    Tests that exercise the fallback on purpose carry
    ``@pytest.mark.replay_fallback``.
    """
    if request.node.get_closest_marker("replay_fallback"):
        yield
        return
    late = watch_late_mismatches(monkeypatch)
    yield
    if late:
        pytest.fail("replay mismatch on a key that had replayed before: "
                    + "; ".join(late))


def watch_late_mismatches(monkeypatch) -> list[str]:
    """Wrap ``CompiledStep.__call__`` for the test; returns the list each
    mismatch on an already-replayed key is appended to."""
    replayed = weakref.WeakKeyDictionary()   # step -> keys that replayed
    late: list[str] = []
    call = CompiledStep.__call__

    def checked(self, *args, key=None, **kwargs):
        replays = int(self.counters["replays"])
        mismatches = int(self.counters["mismatches"])
        try:
            return call(self, *args, key=key, **kwargs)
        finally:
            keys = replayed.setdefault(self, set())
            if int(self.counters["replays"]) > replays:
                keys.add(key)
            elif (int(self.counters["mismatches"]) > mismatches
                  and key in keys):
                late.append(f"key {key!r}: {self.last_failure}")

    monkeypatch.setattr(CompiledStep, "__call__", checked)
    return late


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
    drive forked producer children take that path whatever box they run
    on."""
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
