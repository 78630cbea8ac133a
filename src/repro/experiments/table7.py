"""Table VII — dynamic link prediction under three transfer settings.

Regenerates the paper's main comparison: every method of §V-B plus
CPDG(DyRep/JODIE/TGN), on the Amazon (Beauty, Luxury) and Gowalla
(Entertainment, Outdoors) analogues, under time / field / time+field
transfer, reporting AUC, AP and the paired ``ΔAUC vs none`` against a
randomly initialised JODIE — one transfer trial per split and seed.

The paper's CPDG rows use the EIE-GRU fine-tuning strategy (their Table XI
Beauty EIE-GRU value equals the Table VII CPDG(JODIE) value).
"""

from __future__ import annotations

from .common import (DELTA, SCALES, ExperimentResult, PretrainCache,
                     method_arm, paired_rows)

__all__ = ["run", "TRANSFER_SETTINGS", "TARGETS", "METHODS"]

TRANSFER_SETTINGS = ("time", "field", "time+field")
# (universe builder, target field, source field)
TARGETS = (
    ("amazon", "beauty", "arts"),
    ("amazon", "luxury", "arts"),
    ("gowalla", "entertainment", "food"),
    ("gowalla", "outdoors", "food"),
)
BASELINE_METHODS = ("graphsage", "gin", "gat", "dgi", "gpt-gnn",
                    "dyrep", "jodie", "tgn", "ddgcl", "selfrgnn")
CPDG_BACKBONES = ("dyrep", "jodie", "tgn")
METHODS = BASELINE_METHODS + tuple(f"cpdg({b})" for b in CPDG_BACKBONES)


def run(scale: str = "default", settings=TRANSFER_SETTINGS,
        methods=METHODS, targets=TARGETS, verbose: bool = True
        ) -> ExperimentResult:
    """Regenerate Table VII (or a slice of it)."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Table VII: dynamic link prediction, three transfer settings",
        columns=["setting", "dataset", "field", "method", "AUC", "AP", DELTA])
    arms = [method_arm(method) for method in methods]
    cache = PretrainCache()

    for setting in settings:
        for universe, target, source in targets:
            data = exp.resolve(f"{universe}:{target}", setting, source)
            rows = paired_rows(exp, data, arms, cache=cache)
            result.add_arms(rows, "method", verbose, setting=setting,
                            dataset=universe, field=target)
    return result
