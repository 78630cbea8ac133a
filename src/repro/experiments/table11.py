"""Table XI — fine-tuning strategy comparison (paper §V-G).

Full fine-tuning versus the three EIE variants (mean / attn / GRU) on the
Amazon Beauty and Luxury analogues under the time+field transfer setting,
JODIE backbone; one transfer trial per field and seed, with the paired
``ΔAUC vs none``.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, Arm, ExperimentResult, PretrainCache,
                     paired_rows)

__all__ = ["run", "STRATEGY_LABELS"]

STRATEGY_LABELS = {"full": "Full", "eie-mean": "EIE-mean",
                   "eie-attn": "EIE-attn", "eie-gru": "EIE-GRU"}


def run(scale: str = "default", fields=("beauty", "luxury"),
        backbone: str = "jodie", verbose: bool = True) -> ExperimentResult:
    """Regenerate Table XI."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Table XI: fine-tuning strategies (time+field transfer)",
        columns=["field", "strategy", "AUC", "AP", DELTA])
    arms = [Arm(label, strategy=strategy)
            for strategy, label in STRATEGY_LABELS.items()]
    cache = PretrainCache()

    for field in fields:
        data = exp.resolve(f"amazon:{field}", "time+field", "arts")
        rows = paired_rows(exp, data, arms, cache=cache, backbone=backbone)
        result.add_arms(rows, "strategy", verbose, field=field)
    return result
