"""Table X — inductive link prediction study.

No-pre-train versus CPDG pre-trained under each transfer setting (T / F /
T+F), JODIE backbone (the paper's §V-E setup), evaluated only on test
events that touch nodes unseen during fine-tuning training.  All four
share one downstream split, so one transfer trial per target and seed
runs them paired.  Reports AUC, AP, the relative gain over no-pre-train
and the paired ``ΔAUC vs none``.
"""

from __future__ import annotations

import numpy as np

from .common import (DELTA, SCALES, Arm, ExperimentResult,
                     PretrainCache, paired_rows)
from .table7 import TARGETS

__all__ = ["run", "TARGETS"]

SETTING_LABELS = {"time": "CPDG (T)", "field": "CPDG (F)",
                  "time+field": "CPDG (T+F)"}


def _gain(value: float, base: float) -> str:
    if not (np.isfinite(value) and np.isfinite(base)) or base == 0:
        return "n/a"
    return f"{(value - base) / base:+.2%}"


def run(scale: str = "default", targets=TARGETS, backbone: str = "jodie",
        verbose: bool = True) -> ExperimentResult:
    """Regenerate Table X."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Table X: inductive link prediction",
        columns=["field", "method", "AUC", "AP", "AUC gain", "AP gain",
                 DELTA, "n events"])
    cache = PretrainCache()

    for universe, target, source in targets:
        # The three settings share the target's downstream split.
        data = {setting: exp.resolve(f"{universe}:{target}", setting, source)
                for setting in SETTING_LABELS}
        arms = [Arm(label, pretrain=data[setting].pretrain)
                for setting, label in SETTING_LABELS.items()]
        rows = paired_rows(exp, data["time"], arms, inductive=True,
                           cache=cache, backbone=backbone)
        base = rows[0]
        base.update({"arm": "No Pre-train", "AUC gain": "-", "AP gain": "-"})
        for row in rows[1:]:
            for metric in ("AUC", "AP"):
                row[f"{metric} gain"] = _gain(row[metric].mean,
                                              base[metric].mean)
        result.add_arms(rows, "method", verbose, field=target)
    return result
