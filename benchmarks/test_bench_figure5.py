"""Bench: regenerate Figure 5 (ablation: w/o TC / SC / EIE)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_figure5_ablation(benchmark, scale):
    result = run_once(benchmark, run_experiment, "figure5", scale=scale,
                      verbose=False)
    print("\n" + result.format_table())
    variants = {row["variant"] for row in result.rows}
    assert variants == {"none", "CPDG", "w/o TC", "w/o SC", "w/o EIE"}
    assert DELTA in result.columns
