"""Bench: regenerate Figure 7 (eta/epsilon x k sweep)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_figure7_width_depth_sweep(benchmark, scale):
    kwargs = dict(scale=scale, verbose=False)
    if scale == "tiny":
        kwargs["widths"] = (2, 5)
        kwargs["depths"] = (1, 2)
    result = run_once(benchmark, run_experiment, "figure7", **kwargs)
    print("\n" + result.format_table())
    assert len(result.rows) >= 4
    assert DELTA in result.columns
