"""Bench: regenerate Table VII (link prediction, three transfer settings).

The full 13-method × 4-field × 3-setting grid is the most expensive
artifact; at ``tiny`` scale a representative method slice runs per
setting, at ``default``/``full`` the complete grid runs.
"""

import os

from repro.experiments import DELTA, run_experiment

from .conftest import run_once

_SLICE_METHODS = ("graphsage", "dgi", "tgn", "jodie", "ddgcl",
                  "cpdg(tgn)", "cpdg(jodie)")


def test_table7_link_prediction_transfer(benchmark, scale):
    methods = None
    if scale == "tiny":
        methods = _SLICE_METHODS
    kwargs = dict(scale=scale, verbose=False)
    if methods is not None:
        kwargs["methods"] = methods
    result = run_once(benchmark, run_experiment, "table7", **kwargs)
    print("\n" + result.format_table())
    settings = {row["setting"] for row in result.rows}
    assert settings == {"time", "field", "time+field"}
    assert DELTA in result.columns
