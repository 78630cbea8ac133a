"""Benchmark configuration.

Experiment benches regenerate paper tables/figures, so they run exactly
once per session (``benchmark.pedantic(rounds=1)``) and print the
regenerated rows into the bench log.  The scale is controlled with::

    REPRO_BENCH_SCALE=tiny|default|full pytest benchmarks/ --benchmark-only

Default is ``tiny`` so the whole suite completes in a couple of minutes;
``default`` runs the shapes of ``repro.experiments.common.SCALES["default"]``.
"""

from __future__ import annotations

import os

import pytest


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


@pytest.fixture
def scale() -> str:
    return bench_scale()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
