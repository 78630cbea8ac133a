"""Golden record of the experiment tables at ``tiny`` scale.

The table and figure runners were folded onto one paired transfer trial
(:func:`repro.experiments.common.transfer_trial`); the fold may add rows
and columns but may not move a cell.  ``tests/fixtures/golden_experiments.npz``
records, for every runner slice ``tests/test_experiments.py`` runs, each
``Cell`` as ``[mean, std, n_seeds]`` keyed ``<experiment>/<row key>/<column>``,
plus how many CPDG and baseline pre-trainings the slice ran
(``<experiment>/pretrain_calls``) — so a lost ``PretrainCache`` hit shows
up as well as a moved number.  ``tests/test_experiments.py`` compares bit
for bit.

It was written by running this module against the parent's sources::

    PYTHONPATH=<parent checkout>/src python -m tests.golden_experiments

and re-recorded when link-prediction scoring moved to negatives keyed by
``(fine-tune seed, segment)``.  Everything here uses only API that exists
at both commits.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from repro.baselines import pretrain as baseline_pretrain
from repro.core.pretrainer import CPDGPreTrainer
from repro.experiments import Cell, ExperimentResult, run_experiment

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_experiments.npz")

SLICES = {
    "table7": dict(settings=("time",), methods=("tgn", "cpdg(tgn)"),
                   targets=(("amazon", "beauty", "arts"),)),
    "table8": dict(backbones=("jodie",)),
    "table9": dict(datasets=("mooc",), methods=("jodie", "cpdg(jodie)")),
    "table10": dict(targets=(("amazon", "beauty", "arts"),)),
    "table11": dict(fields=("beauty",)),
    "figure5": dict(),
    "figure6": dict(fields=("beauty",), betas=(0.1, 0.9)),
    "figure7": dict(widths=(2,), depths=(1, 2)),
    "figure8": dict(datasets=("mooc",), lengths=(1, 3)),
}


@contextlib.contextmanager
def _count_pretrainings(counter: list):
    """Count CPDG and baseline pre-training runs inside the block."""
    cpdg, baseline = CPDGPreTrainer.pretrain, baseline_pretrain._pretrain

    def counted(fn):
        def wrapper(*args, **kwargs):
            counter.append(1)
            return fn(*args, **kwargs)
        return wrapper

    CPDGPreTrainer.pretrain = counted(cpdg)
    baseline_pretrain._pretrain = counted(baseline)
    try:
        yield
    finally:
        CPDGPreTrainer.pretrain = cpdg
        baseline_pretrain._pretrain = baseline


def run_slice(name: str) -> tuple[ExperimentResult, int]:
    """The tiny-scale slice of one runner and its pre-training count."""
    counter: list = []
    with _count_pretrainings(counter):
        result = run_experiment(name, scale="tiny", verbose=False,
                                **SLICES[name])
    return result, len(counter)


def cells(name: str, result: ExperimentResult,
          pretrain_calls: int) -> dict[str, np.ndarray]:
    """``{key: float64 array}`` for every ``Cell`` of ``result``."""
    keys = result.columns[:result.columns.index("AUC")]
    out = {f"{name}/pretrain_calls": np.array([pretrain_calls], np.float64)}
    for row in result.rows:
        prefix = "/".join([name, *(str(row[k]) for k in keys)])
        for column in result.columns:
            value = row.get(column)
            if isinstance(value, Cell):
                out[f"{prefix}/{column}"] = np.array(
                    [value.mean, value.std, value.n_seeds], np.float64)
    return out


def recorded(name: str) -> dict[str, np.ndarray]:
    """The fixture's entries for one runner."""
    with np.load(GOLDEN_PATH) as golden:
        return {key: golden[key] for key in golden.files
                if key.split("/", 1)[0] == name}


def build_golden() -> dict[str, np.ndarray]:
    out = {}
    for name in SLICES:
        out.update(cells(name, *run_slice(name)))
    return out


if __name__ == "__main__":
    golden = build_golden()
    np.savez(GOLDEN_PATH, **golden)
    for key, values in golden.items():
        print(f"{key}: {values.tolist()}")
