"""Table VIII — the Meituan industrial dataset (time transfer).

DyRep / JODIE / TGN with vanilla task-supervised pre-training against the
same backbones pre-trained with CPDG, on the Meituan analogue with the
paper's 6:4 chronological pre-train/downstream split; one transfer trial
per seed, with the paired ``ΔAUC vs none`` against a randomly
initialised JODIE.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, ExperimentResult, PretrainCache,
                     method_arm, paired_rows)

__all__ = ["run", "BACKBONES"]

BACKBONES = ("dyrep", "jodie", "tgn")


def run(scale: str = "default", backbones=BACKBONES, verbose: bool = True
        ) -> ExperimentResult:
    """Regenerate Table VIII."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Table VIII: Meituan industrial dataset",
        columns=["method", "AUC", "AP", DELTA])
    arms = [method_arm(method)
            for b in backbones for method in (b, f"cpdg({b})")]
    # Paper: first 60% for pre-training, the rest downstream.
    rows = paired_rows(exp, exp.resolve("meituan"), arms,
                       cache=PretrainCache())
    result.add_arms(rows, "method", verbose)
    return result
