"""Figure 5 — ablation study: CPDG vs w/o TC, w/o SC, w/o EIE.

Link prediction on Amazon Beauty / Luxury (time+field transfer) and node
classification on Wikipedia / Reddit, AUC and the paired ``ΔAUC vs none``
per variant, one transfer trial per dataset and seed:

* ``w/o TC``  — temporal contrast removed (Eq. 17 without L_η);
* ``w/o SC``  — structural contrast removed (Eq. 17 without L_ε);
* ``w/o EIE`` — full fine-tuning instead of EIE-GRU.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, Arm, ExperimentResult, PretrainCache,
                     paired_rows)

__all__ = ["run", "VARIANTS"]

# Per variant: pre-training config overrides, fine-tuning strategy.
VARIANTS = {"CPDG": ({}, "eie-gru"),
            "w/o TC": ({"use_temporal_contrast": False}, "eie-gru"),
            "w/o SC": ({"use_structural_contrast": False}, "eie-gru"),
            "w/o EIE": ({}, "full")}


def run(scale: str = "default", backbone: str = "jodie", verbose: bool = True
        ) -> ExperimentResult:
    """Regenerate Figure 5 (as a table of AUC bars)."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Figure 5: ablation (AUC)",
        columns=["dataset", "variant", "AUC", DELTA])
    cache = PretrainCache()
    arms = [Arm(variant, cpdg=exp.cpdg.with_overrides(**overrides),
                strategy=strategy)
            for variant, (overrides, strategy) in VARIANTS.items()]

    # Link prediction on Beauty and Luxury under time+field transfer,
    # node classification on Wikipedia and Reddit.
    for dataset, task in (("beauty", "link"), ("luxury", "link"),
                          ("wikipedia", "node"), ("reddit", "node")):
        data = (exp.resolve(f"amazon:{dataset}", "time+field", "arts")
                if task == "link" else exp.resolve(dataset))
        rows = paired_rows(exp, data, arms, task=task, cache=cache,
                           backbone=backbone)
        result.add_arms(rows, "variant", verbose, dataset=dataset)
    return result
