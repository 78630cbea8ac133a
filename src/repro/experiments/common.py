"""Shared experiment machinery: scales, runners, result tables.

Every table/figure runner in this package works the same way:

* pick an :class:`ExperimentScale` ("tiny" for tests, "default" for the
  benchmark harness) that fixes dataset sizes, model dims and epochs;
* call :func:`run_cpdg` / :func:`run_baseline` / :func:`run_no_pretrain`
  per cell, averaging over ``seeds``;
* collect :class:`Cell` values into an :class:`ExperimentResult` whose
  ``format_table()`` prints the same rows the paper reports.

The CPDG cells drive :class:`repro.api.Pipeline` — the same facade behind
the CLI — with explicit streams/splits; only the baseline cells wire their
method-specific encoders by hand.  Pre-training is cached per ``(method,
stream identity, seed)`` within a runner (as in-memory
:class:`~repro.api.PretrainArtifact` objects) so that field / time+field
settings — where the paper pre-trains once on the source field and
fine-tunes on two targets — pay for each pre-training only once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..api import (ArtifactError, Pipeline, PretrainArtifact, RunConfig,
                   stream_fingerprint)
from ..baselines.pretrain import BaselinePretrainConfig
from ..baselines.registry import BASELINES
from ..core.config import CPDGConfig
from ..datasets.registry import MEDIUM, SMALL, DatasetScale
from ..datasets.splits import DownstreamSplit
from ..graph.events import EventStream
from ..tasks.finetune import FineTuneConfig, FineTuneStrategy
from ..tasks.link_prediction import LinkPredictionMetrics, LinkPredictionTask
from ..tasks.node_classification import (NodeClassificationMetrics,
                                         NodeClassificationTask)

__all__ = ["ExperimentScale", "SCALES", "Cell", "ExperimentResult",
           "run_cpdg", "run_baseline", "run_no_pretrain", "PretrainCache",
           "aggregate"]


@dataclass(frozen=True)
class ExperimentScale:
    """One coherent compute budget for a whole experiment."""

    name: str
    data: DatasetScale
    cpdg: CPDGConfig
    finetune: FineTuneConfig
    baseline: BaselinePretrainConfig
    seeds: tuple[int, ...] = (0,)

    def cpdg_with(self, **kwargs) -> CPDGConfig:
        return self.cpdg.with_overrides(**kwargs)


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
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    experiment: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(values)

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

    * :meth:`get` — in-memory memoisation within one runner process (the
      historical behaviour; baseline cells cache live encoder objects
      that have no file format).
    * :meth:`get_artifact` — fingerprint-keyed
      :class:`~repro.api.PretrainArtifact` files under ``cache_dir``, so
      sweep cells (figures 6–8) reuse pre-training *across process
      restarts*.  Keys must be process-stable (stream fingerprints, not
      ``id()``); each key hashes to one ``.npz`` file.

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
# Per-cell runners
# ----------------------------------------------------------------------

def _metrics_for(strategy: FineTuneStrategy, split: DownstreamSplit,
                 finetune: FineTuneConfig, task: str, inductive: bool):
    if task == "link":
        runner = LinkPredictionTask(strategy, split, finetune)
        return runner.run(inductive=inductive)
    if task == "node":
        runner = NodeClassificationTask(strategy, split, finetune)
        return runner.run()
    raise ValueError(f"unknown task {task!r}")


def run_cpdg(backbone: str, num_nodes: int, pretrain_stream: EventStream,
             split: DownstreamSplit, scale: ExperimentScale, seed: int,
             strategy: str = "eie-gru", task: str = "link",
             inductive: bool = False, cpdg_config: CPDGConfig | None = None,
             cache: PretrainCache | None = None,
             cache_key_extra: tuple = ()):
    """One CPDG cell: pre-train (cached) then fine-tune with ``strategy``."""
    cfg = (cpdg_config if cpdg_config is not None else scale.cpdg)
    cfg = cfg.with_overrides(seed=seed)
    config = RunConfig(backbone=backbone, task=task, strategy=strategy,
                       inductive=inductive, pretrain=cfg,
                       finetune=replace(scale.finetune, seed=seed))

    def compute() -> PretrainArtifact:
        return Pipeline(config).pretrain(pretrain_stream).artifact

    # Keyed by the stream's *content* fingerprint (not object identity)
    # plus every hyper-parameter that shapes the artifact, so on-disk
    # cache hits survive process restarts without colliding across
    # scales/configs.  Execution knobs that are bit-identical by design
    # (worker count, prefetch, mmap — see tests/test_stream_pipeline.py)
    # are excluded so deployment settings still share one artifact.
    cfg_items = {k: v for k, v in sorted(dataclasses.asdict(cfg).items())
                 if k not in ("num_workers", "prefetch_batches",
                              "mmap_graph", "fabric", "shard_dir",
                              "fabric_lease_timeout")}
    key = ("cpdg", backbone, stream_fingerprint(pretrain_stream),
           tuple(cfg_items.items()), *cache_key_extra)
    artifact = (cache.get_artifact(key, compute) if cache is not None
                else compute())

    pipeline = Pipeline(config, artifact=artifact)
    return pipeline.finetune(split=split, num_nodes=num_nodes).evaluate()


def run_no_pretrain(backbone: str, num_nodes: int, split: DownstreamSplit,
                    scale: ExperimentScale, seed: int, task: str = "link",
                    inductive: bool = False):
    """Randomly initialised backbone, downstream fine-tuning only."""
    config = RunConfig(backbone=backbone, task=task, strategy="none",
                       inductive=inductive,
                       pretrain=scale.cpdg.with_overrides(seed=seed),
                       finetune=replace(scale.finetune, seed=seed))
    pipeline = Pipeline(config)
    return pipeline.finetune(split=split, num_nodes=num_nodes).evaluate()


def run_baseline(name: str, num_nodes: int, pretrain_stream: EventStream,
                 split: DownstreamSplit, scale: ExperimentScale, seed: int,
                 task: str = "link", inductive: bool = False,
                 cache: PretrainCache | None = None):
    """One baseline cell: method-specific pre-training + full fine-tune.

    The pre-trained encoder itself is cached; fine-tuning always starts
    from a deep copy of its parameters (and memory, for dynamic methods).
    """
    spec = BASELINES[name]
    cfg = replace(scale.baseline, seed=seed)
    delta_scale = max(pretrain_stream.timespan /
                      max(pretrain_stream.num_events, 1), 1e-6)

    def compute():
        rng = np.random.default_rng(seed)
        encoder = spec.build(num_nodes, scale.cpdg.embed_dim, rng,
                             n_neighbors=scale.cpdg.n_neighbors,
                             memory_dim=scale.cpdg.memory_dim,
                             time_dim=scale.cpdg.time_dim,
                             edge_dim=scale.cpdg.edge_dim,
                             delta_scale=delta_scale)
        spec.pretrain(encoder, pretrain_stream, cfg)
        state = encoder.state_dict()
        memory = encoder.memory_snapshot()
        return encoder, state, memory

    key = ("baseline", name, stream_fingerprint(pretrain_stream), seed)
    encoder, state, memory = (cache.get(key, compute) if cache is not None
                              else compute())
    encoder.load_state_dict(state)
    if memory[0].size:
        encoder.load_memory(*memory)
    finetune = replace(scale.finetune, seed=seed)
    strategy = FineTuneStrategy(name=name, encoder=encoder, eie=None)
    return _metrics_for(strategy, split, finetune, task, inductive)
