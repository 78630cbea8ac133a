"""The two training workloads: ``pretrain-hub`` and ``transfer-e2e``.

Both are verified against eager autograd: the timed region runs with the
compiled step on (the library default) and the oracle reruns the same
stages with ``compile_step=False``; every loss must agree within
``LOSS_TOLERANCE``.  The oracle reruns *all* steps, not the first 25 the
issue sized: a prefix of the stream has a different pool of corrupted
destinations, so its losses are not comparable.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from repro.api import Pipeline, PretrainArtifact, RunConfig
from repro.api.data import resolve_data
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.graph.events import EventStream

from .. import layers
from ..harness import Rep, Verdict, Workload

LOSS_TOLERANCE = 1e-5


def _loss_last50(history: np.ndarray) -> float:
    """Mean of L_eta + L_eps + L_tlp over the last 50 steps."""
    return float(history[-50:].sum(axis=1).mean())


def _mismatches(timed: np.ndarray, eager: np.ndarray) -> int:
    """Rows that are non-finite or differ from the eager rerun."""
    if timed.shape != eager.shape:
        return max(len(timed), len(eager))
    bad = ~np.isfinite(timed).all(axis=1)
    bad |= np.abs(timed - eager).max(axis=1) > LOSS_TOLERANCE
    return int(bad.sum())


class PretrainHub(Workload):
    """``CPDGPreTrainer.pretrain`` on a bipartite stream with viral hubs."""

    name = "pretrain-hub"
    SIZES = dict(num_nodes=100_000, active_users=4_000, events=8_000,
                 zipf_a=1.5, batch_size=200, dim=64)
    SMOKE = dict(num_nodes=2_000, active_users=200, events=600,
                 zipf_a=1.5, batch_size=100, dim=8)

    def setup(self, seed: int) -> EventStream:
        """Uniform active users, Zipf item popularity: the top item draws
        over a third of all events, so eta-BFS scores thousands of
        candidates for every root that reaches it."""
        p = self.sizes
        rng = np.random.default_rng(seed)
        half = p["num_nodes"] // 2
        ranks = rng.zipf(p["zipf_a"], size=p["events"])
        return EventStream(
            src=rng.integers(0, p["active_users"], p["events"]),
            dst=half + (ranks - 1) % half,
            timestamps=np.sort(rng.uniform(0.0, 1000.0, p["events"])),
            num_nodes=p["num_nodes"], name=f"hub-{seed}")

    def _trainer(self, compile_step: bool) -> CPDGPreTrainer:
        p = self.sizes
        config = CPDGConfig(
            epochs=1, batch_size=p["batch_size"], memory_dim=p["dim"],
            embed_dim=p["dim"], edge_dim=0, num_checkpoints=2,
            precompute_samplers=False, compile_step=compile_step, seed=0)
        return CPDGPreTrainer.from_backbone("tgn", p["num_nodes"], config)

    def run(self, stream: EventStream, region) -> Rep:
        trainer = self._trainer(compile_step=True)
        with region:
            result = trainer.pretrain(stream)
        return Rep(region.wall_s, [np.asarray(result.loss_history)])

    def verify(self, stream: EventStream, reps: list) -> Verdict:
        history = reps[0].outputs[0]
        eager = np.asarray(
            self._trainer(compile_step=False).pretrain(stream).loss_history)
        failed = _mismatches(history, eager)
        loss = _loss_last50(history)
        return Verdict(
            ops=len(history), attempted=len(history), failed=failed,
            good_share=1.0 - failed / len(history),
            quality=float(np.exp(-loss)),
            detail={"pretrainer.loss_last50": loss})

    def layer_table(self, totals, tracer, rep, stream) -> dict:
        return layers.training_table(totals, tracer, rep.wall_s)


class TransferE2E(Workload):
    """``Pipeline`` pretrain -> finetune -> evaluate on ``amazon:beauty``
    under the paper's time+field transfer, plus the no-pre-training
    control arm (outside ``wall_s``)."""

    name = "transfer-e2e"
    SIZES = dict(num_users=300, num_items=180, events_main=5_000,
                 events_source=6_000, pretrain_epochs=2, finetune_epochs=4)
    SMOKE = dict(num_users=40, num_items=30, events_main=500,
                 events_source=600, pretrain_epochs=1, finetune_epochs=2)

    def setup(self, seed: int):
        p = self.sizes
        config = RunConfig().with_overrides({
            "strategy": "eie-gru",
            "data.dataset": "amazon:beauty", "data.transfer": "time+field",
            "data.num_users": p["num_users"],
            "data.num_items": p["num_items"],
            "data.events_main": p["events_main"],
            "data.events_source": p["events_source"], "data.seed": seed,
            "pretrain.epochs": p["pretrain_epochs"],
            "finetune.epochs": p["finetune_epochs"]})
        start = time.perf_counter()
        data = resolve_data(config.data)
        return config, data, time.perf_counter() - start

    @staticmethod
    def _arm(config: RunConfig, data, region=None):
        """One pretrain -> finetune -> evaluate pass; its outputs."""
        pipe = Pipeline(config)
        with region if region is not None else contextlib.nullcontext():
            pipe.pretrain(stream=data.pretrain)
            pipe.finetune(split=data.downstream, num_nodes=data.num_nodes)
            metrics = pipe.evaluate()
        history = np.asarray(pipe.artifact.result.loss_history)
        epochs = np.asarray([[h["loss"], h["val_auc"], h["val_ap"]]
                             for h in pipe.history])
        return pipe, [history, epochs, np.asarray([metrics.auc, metrics.ap])]

    def run(self, inputs, region) -> Rep:
        config, data, _ = inputs
        pipe, outputs = self._arm(config, data, region)
        return Rep(region.wall_s, outputs, stats={"artifact": pipe.artifact})

    def verify(self, inputs, reps: list) -> Verdict:
        config, data, _ = inputs
        history, epochs, (auc, _) = reps[0].outputs
        eager_config = config.with_overrides({"nn.compile": False})
        _, (eager_history, eager_epochs, eager_scores) = self._arm(
            eager_config, data)
        failed = _mismatches(history, eager_history)
        failed += _mismatches(epochs, eager_epochs)
        failed += _mismatches(reps[0].outputs[2][None], eager_scores[None])

        start = time.perf_counter()
        control = Pipeline(config)
        control.finetune(split=data.downstream, num_nodes=data.num_nodes,
                         strategy="none")
        control_auc = control.evaluate().auc
        control_s = time.perf_counter() - start

        batch = config.finetune.batch_size
        per_epoch = -(-data.downstream.train.num_events // batch)
        steps = len(history) + len(epochs) * per_epoch
        attempted = len(history) + len(epochs) + 1
        return Verdict(
            ops=steps, attempted=attempted, failed=failed,
            good_share=1.0 - failed / attempted, quality=float(auc),
            detail={"pretrainer.loss_last50": _loss_last50(history),
                    "tasks.auc_pretrained": float(auc),
                    "tasks.auc_gain": float(auc - control_auc),
                    "tasks.control_arm_s": control_s,
                    "tasks.finetune_epochs_run": len(epochs)})

    def layer_table(self, totals, tracer, rep, inputs) -> dict:
        table = layers.training_table(totals, tracer, rep.wall_s)
        table["api.resolve_data_s"] = inputs[2]
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "artifact-roundtrip.npz")
        start = time.perf_counter()
        rep.stats["artifact"].save(path)
        PretrainArtifact.load(path)
        table["api.artifact_roundtrip_s"] = time.perf_counter() - start
        os.remove(path)
        return table
