"""The fluent pretrain → fine-tune → evaluate facade.

`Pipeline` is the one front door to CPDG's *pre-train once, transfer
everywhere* workflow (paper §IV-C).  Each stage is resumable from a saved
:class:`~repro.api.artifact.PretrainArtifact`, so the expensive
pre-training stage decouples cleanly from cheap downstream fine-tuning —
in one process or across several::

    from repro.api import Pipeline, RunConfig

    config = RunConfig.from_json("run.json")
    metrics = (Pipeline(config)
               .pretrain()                       # streams resolved from config
               .finetune(task="link_prediction", strategy="eie-attn")
               .evaluate())

    Pipeline(config).pretrain().save("artifact.npz")          # process 1
    Pipeline.from_artifact("artifact.npz").run()              # process 2

Explicit streams/splits are accepted everywhere a config-resolved one
would be used, which is how the experiment runners drive the facade.
"""

from __future__ import annotations

import time

from .. import obs as _obs
from ..core.pretrainer import CPDGPreTrainer
from ..datasets.splits import DownstreamSplit
from ..graph.events import EventStream
from ..tasks.finetune import build_finetuned_encoder
from ..tasks.link_prediction import LinkPredictionTask
from ..tasks.node_classification import NodeClassificationTask
from .artifact import FineTunedBundle, PretrainArtifact, stream_fingerprint
from .config import ConfigError, RunConfig, normalize_task
from .data import ResolvedData, resolve_data

__all__ = ["Pipeline"]


class Pipeline:
    """Config-driven pretrain → fine-tune → evaluate runner.

    Parameters
    ----------
    config:
        The :class:`RunConfig` driving every stage.  Defaults to the
        artifact's embedded config when resuming, else to ``RunConfig()``.
    artifact:
        An in-memory :class:`PretrainArtifact` to resume from (use
        :meth:`from_artifact` for on-disk ones).
    """

    def __init__(self, config: RunConfig | None = None,
                 artifact: PretrainArtifact | None = None):
        if config is None:
            config = (artifact.run_config if artifact is not None
                      else RunConfig())
        config.validate()
        self.config = config
        self.artifact = artifact
        self.history: list[dict] = []
        self.train_seconds = 0.0
        self._resolved: ResolvedData | None = None
        self._runner: LinkPredictionTask | NodeClassificationTask | None = None

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, artifact: PretrainArtifact | str,
                      config: RunConfig | None = None) -> "Pipeline":
        """Resume from a saved (or in-memory) pre-training artifact.

        Without an explicit ``config`` the artifact's embedded run config
        is used, so a bare artifact file is a complete recipe for the
        downstream stages.
        """
        if isinstance(artifact, str):
            artifact = PretrainArtifact.load(artifact)
        return cls(config=config, artifact=artifact)

    def save(self, path: str) -> "Pipeline":
        """Persist the pre-training artifact produced by :meth:`pretrain`."""
        if self.artifact is None:
            raise ConfigError("nothing to save: run pretrain() first")
        self.artifact.save(path)
        return self

    def export_for_serving(self, path: str) -> "Pipeline":
        """Persist everything :class:`repro.serve.EmbeddingService` needs.

        The artifact written here carries the pre-trained encoder +
        memory + EIE checkpoints and — when :meth:`finetune` has run —
        the fine-tuned task head bundle (format v2), making
        ``pretrain() → finetune() → export_for_serving()`` one fluent
        chain from raw stream to a servable file.  Pre-trains first if no
        artifact exists yet.
        """
        if self.artifact is None:
            self.pretrain()
        self.artifact.save(path)
        return self

    def _configure_obs(self) -> None:
        """Apply the run config's obs section to the process-wide
        tracer (idempotent; each stage entry re-applies it so the knobs
        win over whatever an earlier run configured)."""
        o = self.config.obs
        _obs.configure(enabled=o.enabled, trace_path=o.trace_path)

    # ------------------------------------------------------------------
    # stage 1: pre-training
    # ------------------------------------------------------------------
    def pretrain(self, stream: EventStream | None = None,
                 verbose: bool = False) -> "Pipeline":
        """Run CPDG pre-training (Algorithm 1) and keep the artifact.

        ``stream`` defaults to the pre-training stream resolved from
        ``config.data``; pass one explicitly to pre-train on custom data.
        """
        config = self.config
        self._configure_obs()
        if stream is None:
            resolved = self._data()
            stream, num_nodes = resolved.pretrain, resolved.num_nodes
            dataset_name = resolved.name
        else:
            num_nodes = stream.num_nodes
            dataset_name = stream.name
        delta_scale = max(stream.timespan / max(stream.num_events, 1), 1e-6)
        trainer = CPDGPreTrainer.from_backbone(
            config.backbone, num_nodes, config.pretrain,
            delta_scale=delta_scale)
        result = trainer.pretrain(stream, verbose=verbose)
        self.artifact = PretrainArtifact(
            result=result,
            run_config=config,
            num_nodes=num_nodes,
            delta_scale=delta_scale,
            dataset_fingerprint=stream_fingerprint(stream),
            dataset_name=dataset_name,
        )
        self._runner = None
        _obs.record_peak_rss()
        return self

    # ------------------------------------------------------------------
    # stage 2: fine-tuning
    # ------------------------------------------------------------------
    def finetune(self, split: DownstreamSplit | None = None,
                 task: str | None = None, strategy: str | None = None,
                 num_nodes: int | None = None,
                 verbose: bool = False) -> "Pipeline":
        """Fine-tune on the downstream split with one strategy.

        ``task`` / ``strategy`` default to the run config; ``split`` to the
        downstream split resolved from ``config.data``.  ``strategy="none"``
        trains the randomly-initialised control arm and needs no artifact.
        """
        self._configure_obs()
        task = normalize_task(task if task is not None else self.config.task)
        strategy = strategy if strategy is not None else self.config.strategy

        if split is None:
            resolved = self._data()
            split = resolved.downstream
            if num_nodes is None:
                num_nodes = resolved.num_nodes
        if num_nodes is None:
            num_nodes = max(s.num_nodes
                            for s in (split.train, split.val, split.test))

        built, runner = self._build_runner(task, strategy, split, num_nodes)
        start = time.perf_counter()
        self.history = runner.train(verbose=verbose)
        self.train_seconds = time.perf_counter() - start
        self._runner = runner
        if self.artifact is not None:
            # Ride the fine-tuned model along in the artifact (format v2)
            # so a later evaluate() — or the serving layer — can reuse it
            # without re-training.
            self.artifact.finetuned = FineTunedBundle(
                task=task, strategy=strategy,
                encoder_state=built.encoder.state_dict(),
                head_state=runner.head.state_dict(),
                eie_state=(built.eie.state_dict()
                           if built.eie is not None else None),
                history=list(self.history))
        _obs.record_peak_rss()
        return self

    # ------------------------------------------------------------------
    # stage 3: evaluation
    # ------------------------------------------------------------------
    def evaluate(self, inductive: bool | None = None, refit: bool = False,
                 verbose: bool = False):
        """Score the fine-tuned model on the test segment.

        Returns :class:`~repro.tasks.link_prediction.LinkPredictionMetrics`
        or :class:`~repro.tasks.node_classification.NodeClassificationMetrics`
        depending on the task.  When the artifact carries a saved
        fine-tuned bundle for this task/strategy (format v2) it is loaded
        instead of silently re-running fine-tuning; pass ``refit=True``
        (or call :meth:`finetune` yourself) to force re-training.
        ``verbose`` applies to any fallback fine-tuning run.
        """
        self._configure_obs()
        if self._runner is None:
            if refit or not self._load_saved_finetuned():
                self.finetune(verbose=verbose)
        if inductive is None:
            inductive = self.config.inductive
        if isinstance(self._runner, LinkPredictionTask):
            metrics = self._runner.evaluate(inductive=inductive)
        elif inductive:
            raise ConfigError("inductive evaluation only applies to "
                              "link prediction")
        else:
            metrics = self._runner.evaluate()
        _obs.record_peak_rss()
        return metrics

    def evaluate_ranking(self, num_candidates: int = 20):
        """Ranked-retrieval metrics (MRR / Hits@K) for link prediction."""
        if self._runner is None:
            if not self._load_saved_finetuned():
                self.finetune()
        if not isinstance(self._runner, LinkPredictionTask):
            raise ConfigError("ranking evaluation only applies to "
                              "link prediction")
        return self._runner.evaluate_ranking(num_candidates=num_candidates)

    # ------------------------------------------------------------------
    # one-call convenience
    # ------------------------------------------------------------------
    def run(self, verbose: bool = False):
        """Pre-train (if needed), fine-tune and evaluate in one call."""
        if self.artifact is None and self.config.strategy != "none":
            self.pretrain(verbose=verbose)
        self.finetune(verbose=verbose)
        return self.evaluate()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _load_saved_finetuned(self) -> bool:
        """Reconstruct the runner from the artifact's fine-tuned bundle.

        Returns False (caller falls back to :meth:`finetune`) when there
        is no bundle or it was trained for a different task/strategy.
        """
        artifact = self.artifact
        if artifact is None or artifact.finetuned is None:
            return False
        bundle = artifact.finetuned
        task = normalize_task(self.config.task)
        if bundle.task != task or bundle.strategy != self.config.strategy:
            return False
        resolved = self._data()
        built, runner = self._build_runner(task, bundle.strategy,
                                           resolved.downstream,
                                           resolved.num_nodes)
        built.encoder.load_state_dict(bundle.encoder_state)
        runner.head.load_state_dict(bundle.head_state)
        if built.eie is not None and bundle.eie_state is not None:
            built.eie.load_state_dict(bundle.eie_state)
        self.history = list(bundle.history)
        self._runner = runner
        return True

    def _build_runner(self, task: str, strategy: str,
                      split: DownstreamSplit, num_nodes: int):
        """``(built encoder, task runner)`` for ``strategy`` on ``split``,
        untrained: the control arm (``none``) starts from scratch on
        ``num_nodes``, every other strategy from the artifact's encoder
        and node space."""
        if strategy == "none":
            pretrained, delta_scale = None, 1.0
        else:
            if self.artifact is None:
                raise ConfigError(
                    f"strategy {strategy!r} needs a pre-training artifact; "
                    "call pretrain(), load one with Pipeline.from_artifact(), "
                    "or use strategy='none'")
            self._check_artifact_compatible()
            if num_nodes > self.artifact.num_nodes:
                raise ConfigError(
                    f"artifact was pre-trained for {self.artifact.num_nodes} "
                    f"nodes but the downstream split uses {num_nodes}; "
                    "pre-train on a node space covering the downstream graph")
            pretrained = self.artifact.result
            delta_scale = self.artifact.delta_scale
            num_nodes = self.artifact.num_nodes
        built = build_finetuned_encoder(
            self.config.backbone, num_nodes, self.config.pretrain,
            pretrained, strategy, self.config.finetune,
            delta_scale=delta_scale)
        task_cls = (LinkPredictionTask if task == "link_prediction"
                    else NodeClassificationTask)
        return built, task_cls(built, split, self.config.finetune)

    def _data(self) -> ResolvedData:
        if self._resolved is None:
            self._resolved = resolve_data(self.config.data)
        return self._resolved

    def _check_artifact_compatible(self) -> None:
        """The artifact's encoder must load into this config's encoder."""
        artifact = self.artifact
        if self.config.backbone != artifact.backbone:
            raise ConfigError(
                f"artifact was pre-trained with backbone "
                f"{artifact.backbone!r} but this run uses "
                f"{self.config.backbone!r}; pre-train again or drop the "
                "backbone override")
        mismatched = [
            f"pretrain.{name}={getattr(self.config.pretrain, name)} vs "
            f"artifact {getattr(artifact.pretrain_config, name)}"
            for name in ("memory_dim", "embed_dim", "time_dim", "edge_dim",
                         "n_neighbors", "n_layers")
            if getattr(self.config.pretrain, name)
            != getattr(artifact.pretrain_config, name)
        ]
        if mismatched:
            raise ConfigError(
                "encoder shape differs from the artifact's: "
                + "; ".join(mismatched))
