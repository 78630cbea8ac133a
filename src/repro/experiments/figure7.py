"""Figure 7 — sensitivity to subgraph width η/ε and depth k (paper §V-H).

AUC heat-map over combinations of sampling width (η = ε) and depth k on
Amazon Beauty (time+field transfer, JODIE backbone), one transfer trial
per seed with the paired ``ΔAUC vs none``.  The paper finds that wider
subgraphs generally help while deeper ones need not.
"""

from __future__ import annotations

from .common import (DELTA, SCALES, Arm, ExperimentResult, PretrainCache,
                     paired_rows)

__all__ = ["run", "WIDTHS", "DEPTHS"]

WIDTHS = (2, 5, 10)
DEPTHS = (1, 2, 3)


def run(scale: str = "default", field: str = "beauty", widths=WIDTHS,
        depths=DEPTHS, backbone: str = "jodie", verbose: bool = True
        ) -> ExperimentResult:
    """Regenerate Figure 7 (as a width × depth grid)."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Figure 7: eta/epsilon x k sweep",
        columns=["width", "depth", "AUC", "AP", DELTA])
    data = exp.resolve(f"amazon:{field}", "time+field", "arts")
    arms = [Arm((width, depth), cpdg=exp.cpdg.with_overrides(
                eta=width, epsilon=width, depth=depth))
            for width in widths for depth in depths]
    rows = paired_rows(exp, data, arms, cache=PretrainCache(),
                       backbone=backbone)
    result.add_arms(rows, ("width", "depth"), verbose)
    return result
