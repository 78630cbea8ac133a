"""Table IX — dynamic node classification (time transfer).

Wikipedia / MOOC / Reddit analogues, 6:2:1:1 chronological split, AUC of
predicting the dynamic source-node label.  Methods: the dynamic baselines
(DyRep, JODIE, TGN, DDGCL, SelfRGNN) and CPDG on the three backbones; one
transfer trial per dataset and seed, with the paired ``ΔAUC vs none``
against a randomly initialised JODIE.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, ExperimentResult, PretrainCache,
                     method_arm, paired_rows)

__all__ = ["run", "DATASETS", "METHODS"]

DATASETS = ("wikipedia", "mooc", "reddit")
BASELINE_METHODS = ("dyrep", "jodie", "tgn", "ddgcl", "selfrgnn")
METHODS = BASELINE_METHODS + tuple(f"cpdg({b})" for b in ("dyrep", "jodie", "tgn"))


def run(scale: str = "default", datasets=DATASETS, methods=METHODS,
        verbose: bool = True) -> ExperimentResult:
    """Regenerate Table IX."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Table IX: dynamic node classification AUC",
        columns=["dataset", "method", "AUC", DELTA])
    arms = [method_arm(method) for method in methods]
    cache = PretrainCache()

    for dataset in datasets:
        rows = paired_rows(exp, exp.resolve(dataset), arms, task="node",
                           cache=cache)
        result.add_arms(rows, "method", verbose, dataset=dataset)
    return result
