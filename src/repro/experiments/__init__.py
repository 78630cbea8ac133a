"""Experiment runners regenerating every table and figure of the paper's
evaluation section (Tables IV–XI, Figures 5–8)."""

from .common import (DELTA, NONE, SCALES, Arm, Cell, ExperimentResult,
                     ExperimentScale, PairedDelta, PretrainCache, aggregate,
                     paired_delta, paired_rows, transfer_trial)
from .registry import EXPERIMENTS, run_experiment

__all__ = [
    "SCALES", "ExperimentScale", "Cell", "ExperimentResult", "PretrainCache",
    "aggregate", "Arm", "transfer_trial", "paired_rows", "PairedDelta",
    "paired_delta", "NONE", "DELTA", "EXPERIMENTS", "run_experiment",
]
