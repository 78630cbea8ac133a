"""Bench: regenerate Table IX (dynamic node classification)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once

_SLICE_METHODS = ("jodie", "tgn", "cpdg(jodie)", "cpdg(tgn)")


def test_table9_node_classification(benchmark, scale):
    kwargs = dict(scale=scale, verbose=False)
    if scale == "tiny":
        kwargs["methods"] = _SLICE_METHODS
    result = run_once(benchmark, run_experiment, "table9", **kwargs)
    print("\n" + result.format_table())
    datasets = {row["dataset"] for row in result.rows}
    assert datasets == {"wikipedia", "mooc", "reddit"}
    assert DELTA in result.columns
