"""Shared experiment machinery: scales, the paired transfer trial, tables.

Every transfer table/figure runner in this package picks an
:class:`ExperimentScale` ("tiny" for tests, "default" for the benchmark
harness), lists its :class:`Arm` s — CPDG backbones, fine-tuning
strategies, config variants, baselines — and hands them to
:func:`paired_rows`.  That runs one :func:`transfer_trial` per seed (the
``none`` control and every arm on one split, one fine-tune seed and so
one set of scored negatives) and gives each arm a row: AUC (and AP) as
mean ± std over seeds (:func:`aggregate`) and ``ΔAUC vs none``, the
paired per-seed difference with a bootstrap interval
(:func:`paired_delta`).  :class:`ExperimentResult` prints the rows as
the paper's table.

CPDG arms drive :class:`repro.api.Pipeline` — the facade behind the CLI;
only baseline arms wire their encoders by hand.  :class:`PretrainCache`
keys pre-training by method, stream fingerprint, config and seed, so
settings that share a source field, and arms that differ only
downstream, pre-train once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..api import (ArtifactError, DataConfig, Pipeline, PretrainArtifact,
                   ResolvedData, RunConfig, normalize_task, resolve_data,
                   stream_fingerprint)
from ..baselines.pretrain import BaselinePretrainConfig
from ..baselines.registry import BASELINES
from ..core.config import CPDGConfig
from ..datasets.registry import (LABELED_DATASETS, MEDIUM, SMALL,
                                 DatasetScale, labeled_stream)
from ..datasets.splits import DownstreamSplit, node_classification_split
from ..graph.events import EventStream
from ..tasks.finetune import FineTuneConfig, FineTuneStrategy
from ..tasks.link_prediction import LinkPredictionTask
from ..tasks.node_classification import NodeClassificationTask

__all__ = ["ExperimentScale", "SCALES", "Cell", "ExperimentResult",
           "PretrainCache", "aggregate", "PairedDelta", "paired_delta",
           "Arm", "method_arm", "transfer_trial", "paired_rows", "NONE",
           "DELTA"]

NONE = "none"
DELTA = "ΔAUC vs none"
# The percentile bootstrap behind every ΔAUC interval.  Fixed, so a
# table is a pure function of its runs.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


@dataclass(frozen=True)
class ExperimentScale:
    """One coherent compute budget for a whole experiment."""

    name: str
    data: DatasetScale
    cpdg: CPDGConfig
    finetune: FineTuneConfig
    baseline: BaselinePretrainConfig
    seeds: tuple[int, ...] = (0,)

    def resolve(self, dataset: str, transfer: str = "time",
                source: str | None = None) -> ResolvedData:
        """``dataset`` at this scale's size: labelled streams split 6:2:1:1,
        the rest as the pipeline CLI resolves them
        (:func:`repro.api.resolve_data`)."""
        if dataset in LABELED_DATASETS:
            stream = labeled_stream(dataset, self.data)
            return ResolvedData(dataset, *node_classification_split(stream),
                                stream.num_nodes)
        return resolve_data(DataConfig(
            dataset=dataset, transfer=transfer, source_field=source,
            **dataclasses.asdict(self.data)))


_TINY_CPDG = CPDGConfig(eta=4, epsilon=4, depth=2, epochs=1, batch_size=100,
                        memory_dim=16, embed_dim=16, time_dim=4,
                        n_neighbors=5, num_checkpoints=4)
_DEFAULT_CPDG = CPDGConfig(eta=10, epsilon=10, depth=2, epochs=3,
                           batch_size=200, memory_dim=32, embed_dim=32,
                           time_dim=8, n_neighbors=10, num_checkpoints=10)

SCALES: dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny",
        data=SMALL,
        cpdg=_TINY_CPDG,
        finetune=FineTuneConfig(epochs=2, batch_size=100, patience=2,
                                eie_out_dim=8),
        baseline=BaselinePretrainConfig(epochs=1, batch_size=100),
        seeds=(0,),
    ),
    "default": ExperimentScale(
        name="default",
        data=DatasetScale(num_users=80, num_items=48, events_main=1800,
                          events_source=2200, events_labeled=2000),
        cpdg=_DEFAULT_CPDG,
        finetune=FineTuneConfig(epochs=4, batch_size=200, patience=2,
                                eie_out_dim=16),
        baseline=BaselinePretrainConfig(epochs=3, batch_size=200),
        seeds=(0, 1),
    ),
    "full": ExperimentScale(
        name="full",
        data=MEDIUM,
        cpdg=_DEFAULT_CPDG.with_overrides(epochs=4),
        finetune=FineTuneConfig(epochs=5, batch_size=200, patience=2,
                                eie_out_dim=16),
        baseline=BaselinePretrainConfig(epochs=4, batch_size=200),
        seeds=(0, 1, 2),
    ),
}


@dataclass
class Cell:
    """Mean ± std over seeds for one (method, dataset, metric) cell."""

    mean: float
    std: float
    n_seeds: int

    def __str__(self) -> str:
        if np.isnan(self.mean):
            return "NaN"
        return f"{self.mean:.4f}±{self.std:.4f}"


def aggregate(values: list[float]) -> Cell:
    arr = np.asarray(values, dtype=np.float64)
    return Cell(mean=float(np.nanmean(arr)) if len(arr) else float("nan"),
                std=float(np.nanstd(arr)) if len(arr) else float("nan"),
                n_seeds=len(arr))


@dataclass
class PairedDelta:
    """One arm's AUC minus its trial's ``none`` AUC, paired by seed."""

    per_seed: tuple[float, ...]
    mean: float
    low: float
    high: float

    def __str__(self) -> str:
        if np.isnan(self.mean):
            return "NaN"
        return f"{self.mean:+.4f} [{self.low:+.4f}, {self.high:+.4f}]"


def paired_delta(values: list[float], control: list[float]) -> PairedDelta:
    """Mean over seeds of ``value − control`` and its 95 % percentile-
    bootstrap interval (seeds whose AUC is undefined drop out).  One seed
    gives a point: the interval collapses onto the mean."""
    diffs = np.asarray(values, np.float64) - np.asarray(control, np.float64)
    finite = diffs[np.isfinite(diffs)]
    if not len(finite):
        return PairedDelta(tuple(diffs.tolist()), *[float("nan")] * 3)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    draws = rng.integers(0, len(finite), (BOOTSTRAP_RESAMPLES, len(finite)))
    low, high = np.percentile(finite[draws].mean(axis=1), [2.5, 97.5])
    return PairedDelta(tuple(diffs.tolist()), float(finite.mean()),
                       float(low), float(high))


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    experiment: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def add_arms(self, rows: list[dict], key="method", verbose: bool = False,
                 **context) -> None:
        """Add :func:`paired_rows` output under the ``context`` columns.

        Each arm's label fills column ``key``; a tuple label spreads over
        a tuple of columns, and ``none`` fills all of them.
        """
        keys = (key,) if isinstance(key, str) else key
        for row in rows:
            label = row.pop("arm")
            labels = label if isinstance(label, tuple) else (label,) * len(keys)
            self.add_row(**context, **dict(zip(keys, labels)), **row)
            if verbose:
                print(f"[{self.experiment.split(':')[0]}] " + "  ".join(
                    f"{c}={self.rows[-1].get(c, '')}" for c in self.columns))

    def format_table(self) -> str:
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in self.rows))
                  if self.rows else len(c) for c in self.columns}
        header = " | ".join(c.ljust(widths[c]) for c in self.columns)
        rule = "-+-".join("-" * widths[c] for c in self.columns)
        lines = [f"== {self.experiment} ==", header, rule]
        for row in self.rows:
            lines.append(" | ".join(str(row.get(c, "")).ljust(widths[c])
                                    for c in self.columns))
        return "\n".join(lines)

    def by(self, **filters) -> list[dict]:
        """Rows matching all the given column values."""
        return [r for r in self.rows
                if all(r.get(k) == v for k, v in filters.items())]

    def cell(self, metric: str, **filters) -> Cell:
        matches = self.by(**filters)
        if len(matches) != 1:
            raise KeyError(f"expected 1 row for {filters}, found {len(matches)}")
        return matches[0][metric]


class PretrainCache:
    """Memoise pre-training results — in memory, and on disk as artifacts.

    Two tiers:

    * :meth:`get` — in-memory memoisation within one runner process
      (baseline arms cache live encoder objects that have no file format).
    * :meth:`get_artifact` — the memory tier over fingerprint-keyed
      :class:`~repro.api.PretrainArtifact` files under ``cache_dir``, so
      CPDG arms reuse pre-training *across process restarts*.  Keys must
      be process-stable (stream fingerprints, not ``id()``); each key
      hashes to one ``.npz`` file.

    ``cache_dir`` defaults to the ``REPRO_PRETRAIN_CACHE`` environment
    variable; unset (the default for tests) keeps the cache memory-only.
    """

    def __init__(self, cache_dir: str | None = None):
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_PRETRAIN_CACHE") or None
        self.cache_dir = cache_dir
        self._cache: dict[tuple, object] = {}

    def get(self, key: tuple, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _artifact_path(self, key: tuple) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        return os.path.join(self.cache_dir, f"pretrain-{digest}.npz")

    def get_artifact(self, key: tuple, compute) -> PretrainArtifact:
        """Memory → disk → compute (writing back to both tiers)."""
        if key in self._cache:
            return self._cache[key]
        path = self._artifact_path(key) if self.cache_dir else None
        if path is not None and os.path.exists(path):
            try:
                artifact = PretrainArtifact.load(path)
                self._cache[key] = artifact
                return artifact
            except ArtifactError:
                # Stale/corrupt file (e.g. format bump): recompute over it.
                pass
        artifact = compute()
        if path is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
            artifact.save(path)
        self._cache[key] = artifact
        return artifact


# ----------------------------------------------------------------------
# The paired transfer trial
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Arm:
    """One arm of a transfer trial: how its downstream encoder starts.

    ``method`` is ``"cpdg"`` — pre-train ``backbone`` (default: the
    trial's) with ``cpdg`` (default: the scale's config) on ``pretrain``
    (default: the trial's stream), then fine-tune with ``strategy``, where
    ``"none"`` is the randomly initialised control — or a
    :data:`~repro.baselines.BASELINES` name.  ``checkpoints`` fuses only
    the last L EIE checkpoints (Figure 8).  ``label`` names the arm's row.
    """

    label: object
    method: str = "cpdg"
    backbone: str | None = None
    strategy: str = "eie-gru"
    cpdg: CPDGConfig | None = None
    checkpoints: int | None = None
    pretrain: EventStream | None = None


def method_arm(method: str) -> Arm:
    """The arm behind a Table VII–IX method name: ``cpdg(<backbone>)``
    (EIE-GRU fine-tuning, as the paper's CPDG rows) or a baseline."""
    if method.startswith("cpdg("):
        return Arm(method, backbone=method[len("cpdg("):-1])
    return Arm(method, method=method)


def _run_arm(exp: ExperimentScale, seed: int, arm: Arm,
             pretrain_stream: EventStream, split: DownstreamSplit, task: str,
             inductive: bool, cache: PretrainCache):
    """Pre-train (cached), fine-tune with seed ``seed`` and score one arm."""
    # The pre-training stream carries the node space every downstream id
    # lives in (one universe per trial).
    num_nodes = pretrain_stream.num_nodes
    finetune = replace(exp.finetune, seed=seed)
    if arm.method in BASELINES:
        # The pre-trained encoder itself is cached; fine-tuning always
        # starts from its saved parameters (and memory, for dynamic ones).
        spec, d = BASELINES[arm.method], exp.cpdg
        delta_scale = max(pretrain_stream.timespan /
                          max(pretrain_stream.num_events, 1), 1e-6)

        def compute():
            encoder = spec.build(num_nodes, d.embed_dim,
                                 np.random.default_rng(seed),
                                 n_neighbors=d.n_neighbors,
                                 memory_dim=d.memory_dim,
                                 time_dim=d.time_dim, edge_dim=d.edge_dim,
                                 delta_scale=delta_scale)
            spec.pretrain(encoder, pretrain_stream,
                          replace(exp.baseline, seed=seed))
            return encoder, encoder.state_dict(), encoder.memory_snapshot()

        key = ("baseline", arm.method, stream_fingerprint(pretrain_stream),
               seed)
        encoder, state, memory = cache.get(key, compute)
        encoder.load_state_dict(state)
        if memory[0].size:
            encoder.load_memory(*memory)
        strategy = FineTuneStrategy(name=arm.method, encoder=encoder, eie=None)
        if normalize_task(task) == "link_prediction":
            return LinkPredictionTask(strategy, split, finetune).run(
                inductive=inductive)
        return NodeClassificationTask(strategy, split, finetune).run()

    cfg = (arm.cpdg or exp.cpdg).with_overrides(seed=seed)
    config = RunConfig(backbone=arm.backbone, task=task,
                       strategy=arm.strategy, inductive=inductive,
                       pretrain=cfg, finetune=finetune)
    artifact = None
    if arm.strategy != NONE:
        # Keyed by the stream's *content* fingerprint plus every
        # hyper-parameter that shapes the artifact, so on-disk hits
        # survive process restarts without colliding across scales and
        # configs.  Execution knobs that are bit-identical by design
        # (workers, prefetch — tests/test_stream_pipeline.py) are left out
        # so deployment settings share one artifact.
        cfg_items = {k: v for k, v in sorted(dataclasses.asdict(cfg).items())
                     if k not in ("num_workers", "prefetch_batches")}
        key = ("cpdg", arm.backbone, stream_fingerprint(pretrain_stream),
               tuple(cfg_items.items()))
        artifact = cache.get_artifact(
            key, lambda: Pipeline(config).pretrain(pretrain_stream).artifact)
        if arm.checkpoints is not None:
            result = artifact.result
            artifact = replace(artifact, result=replace(
                result, checkpoints=result.checkpoints.truncate(
                    arm.checkpoints)))
    pipeline = Pipeline(config, artifact=artifact)
    return pipeline.finetune(split=split, num_nodes=num_nodes).evaluate()


def transfer_trial(exp: ExperimentScale, seed: int,
                   pretrain_stream: EventStream, split: DownstreamSplit,
                   arms: list[Arm], *, task: str = "link",
                   inductive: bool = False,
                   cache: PretrainCache | None = None,
                   backbone: str = "jodie") -> dict:
    """Every arm of one ``(split, seed)``, paired: the ``none`` control (a
    randomly initialised ``backbone``), then each of ``arms``, all on
    ``split`` with fine-tune seed ``seed`` — so on the same scored
    negatives, which link prediction keys by ``(seed, segment)``.
    Returns ``{label: metrics}``, ``none`` first."""
    cache = cache if cache is not None else PretrainCache()
    return {arm.label: _run_arm(exp, seed,
                                replace(arm, backbone=arm.backbone or backbone),
                                pretrain_stream if arm.pretrain is None
                                else arm.pretrain,
                                split, task, inductive, cache)
            for arm in (Arm(NONE, strategy=NONE), *arms)}


def paired_rows(exp: ExperimentScale, data: ResolvedData, arms: list[Arm],
                **trial) -> list[dict]:
    """One :func:`transfer_trial` per seed of ``exp`` on ``data``; one row
    per arm: ``arm`` (the label), ``AUC`` (and ``AP`` for link
    prediction) over seeds, :data:`DELTA` against the same seeds'
    ``none`` and ``n events`` (scored events, last seed)."""
    trials = [transfer_trial(exp, seed, data.pretrain, data.downstream, arms,
                             **trial) for seed in exp.seeds]
    control = [t[NONE].auc for t in trials]
    rows = []
    for label in trials[0]:
        runs = [t[label] for t in trials]
        auc = [m.auc for m in runs]
        row = {"arm": label, "AUC": aggregate(auc),
               DELTA: paired_delta(auc, control),
               "n events": runs[-1].num_events}
        if hasattr(runs[0], "ap"):
            row["AP"] = aggregate([m.ap for m in runs])
        rows.append(row)
    return rows
