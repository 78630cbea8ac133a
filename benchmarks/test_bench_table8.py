"""Bench: regenerate Table VIII (Meituan industrial dataset)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_table8_meituan(benchmark, scale):
    result = run_once(benchmark, run_experiment, "table8", scale=scale,
                      verbose=False)
    print("\n" + result.format_table())
    methods = [row["method"] for row in result.rows]
    assert "tgn" in methods and "cpdg(tgn)" in methods
    assert DELTA in result.columns
