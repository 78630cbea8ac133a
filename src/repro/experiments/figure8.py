"""Figure 8 — sensitivity to the EIE checkpoint length L (paper §V-H).

Node-classification AUC on the Wikipedia and Reddit analogues as the
number of fused memory checkpoints varies over {1, 3, 5, 7, 9}, one
transfer trial per dataset and seed with the paired ``ΔAUC vs none``.
The paper finds intermediate L (≈5) works best.

Pre-training runs once per seed with the maximum L (every arm shares the
cached artifact); shorter settings fuse a suffix of the checkpoint
sequence (the most recent snapshots), matching uniform storage over a
shorter horizon.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, Arm, ExperimentResult, PretrainCache,
                     paired_rows)

__all__ = ["run", "LENGTHS"]

LENGTHS = (1, 3, 5, 7, 9)


def run(scale: str = "default", datasets=("wikipedia", "reddit"),
        lengths=LENGTHS, backbone: str = "jodie", verbose: bool = True
        ) -> ExperimentResult:
    """Regenerate Figure 8 (as a table of series points)."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Figure 8: checkpoint length L sweep",
        columns=["dataset", "L", "AUC", DELTA])
    cfg = exp.cpdg.with_overrides(num_checkpoints=max(lengths))
    arms = [Arm(length, cpdg=cfg, checkpoints=length)
            for length in lengths]
    cache = PretrainCache()

    for dataset in datasets:
        rows = paired_rows(exp, exp.resolve(dataset), arms, task="node",
                           cache=cache, backbone=backbone)
        result.add_arms(rows, "L", verbose, dataset=dataset)
    return result
