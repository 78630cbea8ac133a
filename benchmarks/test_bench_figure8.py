"""Bench: regenerate Figure 8 (checkpoint length L sweep)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_figure8_checkpoint_length_sweep(benchmark, scale):
    kwargs = dict(scale=scale, verbose=False)
    if scale == "tiny":
        kwargs["lengths"] = (1, 3, 5)
    result = run_once(benchmark, run_experiment, "figure8", **kwargs)
    print("\n" + result.format_table())
    assert len({row["L"] for row in result.rows}) >= 3
    assert DELTA in result.columns
