"""Design-choice ablations beyond the paper's own (DESIGN.md §5).

Three controlled comparisons, all arms of one transfer trial per seed on
the Amazon-Beauty time transfer with the JODIE backbone, each with the
paired ``ΔAUC vs none``:

* **readout** — mean (paper) vs max vs sum subgraph pooling (Eq. 9);
* **objective** — triplet margin (paper Eq. 11/14) vs in-batch InfoNCE;
* **sampler** — temporal-aware η-BFS probabilities (Eq. 6-8) vs the
  uniform sampling of prior work, emulated by τ → ∞ (the softmax over
  temporal scores becomes uniform).
"""

from __future__ import annotations

from .common import (DELTA, SCALES, Arm, ExperimentResult, PretrainCache,
                     paired_rows)

__all__ = ["run"]


def run(scale: str = "default", backbone: str = "jodie", verbose: bool = True
        ) -> ExperimentResult:
    """Run the ablation grid; returns one row per arm."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Ablations: readout / objective / sampler",
        columns=["arm", "variant", "AUC", "AP", DELTA])
    data = exp.resolve("amazon:beauty", "time", "arts")
    variants = ([("readout", r, {"readout": r}) for r in ("mean", "max", "sum")]
                + [("objective", o, {"objective": o})
                   for o in ("triplet", "infonce")]
                + [("sampler", "temporal", {}),
                   ("sampler", "uniform", {"tau": 1e6})])
    arms = [Arm((arm, variant), cpdg=exp.cpdg.with_overrides(**overrides))
            for arm, variant, overrides in variants]
    rows = paired_rows(exp, data, arms, cache=PretrainCache(),
                       backbone=backbone)
    result.add_arms(rows, ("arm", "variant"), verbose)
    return result
