"""Figure 6 — sensitivity to the balance parameter β (paper §V-H).

AUC/AP on Amazon Beauty and Luxury (time+field transfer, JODIE backbone)
as β sweeps {0.1, 0.3, 0.5, 0.7, 0.9}; β weights the structural contrast,
1-β the temporal contrast (Eq. 17).  One transfer trial per field and
seed, with the paired ``ΔAUC vs none``.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, Arm, ExperimentResult, PretrainCache,
                     paired_rows)

__all__ = ["run", "BETAS"]

BETAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run(scale: str = "default", fields=("beauty", "luxury"), betas=BETAS,
        backbone: str = "jodie", verbose: bool = True) -> ExperimentResult:
    """Regenerate Figure 6 (as a table of series points)."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Figure 6: beta sweep (time+field transfer)",
        columns=["field", "beta", "AUC", "AP", DELTA])
    arms = [Arm(beta, cpdg=exp.cpdg.with_overrides(beta=beta)) for beta in betas]
    cache = PretrainCache()

    for field in fields:
        data = exp.resolve(f"amazon:{field}", "time+field", "arts")
        rows = paired_rows(exp, data, arms, cache=cache, backbone=backbone)
        result.add_arms(rows, "beta", verbose, field=field)
    return result
