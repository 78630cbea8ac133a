"""Bench: regenerate Table XI (fine-tuning strategy comparison)."""

from repro.experiments import DELTA, run_experiment

from .conftest import run_once


def test_table11_finetune_strategies(benchmark, scale):
    result = run_once(benchmark, run_experiment, "table11", scale=scale,
                      verbose=False)
    print("\n" + result.format_table())
    strategies = {row["strategy"] for row in result.rows}
    assert strategies == {"none", "Full", "EIE-mean", "EIE-attn", "EIE-GRU"}
    assert DELTA in result.columns
