"""Bench: regenerate Table X (inductive link prediction)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_table10_inductive(benchmark, scale):
    kwargs = dict(scale=scale, verbose=False)
    if scale == "tiny":
        kwargs["targets"] = (("amazon", "beauty", "arts"),
                             ("gowalla", "entertainment", "food"))
    result = run_once(benchmark, run_experiment, "table10", **kwargs)
    print("\n" + result.format_table())
    methods = {row["method"] for row in result.rows}
    assert {"No Pre-train", "CPDG (T)", "CPDG (F)", "CPDG (T+F)"} == methods
    assert DELTA in result.columns
