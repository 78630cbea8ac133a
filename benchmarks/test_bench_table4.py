"""Bench: regenerate Table IV (fine-tuning complexity, measured)."""

from repro.experiments import run_experiment

from .conftest import run_once


def test_table4_finetune_complexity(benchmark, scale):
    result = run_once(benchmark, run_experiment, "table4", scale=scale,
                      verbose=False)
    print("\n" + result.format_table())
    ops = {row["strategy"]: row["graph ops"] for row in result.rows}
    # Paper Table IV shape: EIE-GRU carries the largest overhead.
    assert ops["eie-gru"] > ops["full"]
