"""Bench: regenerate Figure 6 (beta sweep)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_figure6_beta_sweep(benchmark, scale):
    kwargs = dict(scale=scale, verbose=False)
    if scale == "tiny":
        kwargs["betas"] = (0.1, 0.5, 0.9)
    result = run_once(benchmark, run_experiment, "figure6", **kwargs)
    print("\n" + result.format_table())
    assert len({row["beta"] for row in result.rows}) >= 3
    assert DELTA in result.columns
