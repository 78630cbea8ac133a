"""Compiled autograd (repro.nn.compile): trace/replay correctness.

The contract under test is *bit-identity*: a replayed step must produce
exactly the floats eager execution produces — same loss history, same
parameters, same memory — across backbones, with transparent eager
fallback when the op stream diverges from the recorded program.
"""

from __future__ import annotations

import gc
import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.config import CPDGConfig
from repro.core.pretrainer import CPDGPreTrainer
from repro.datasets import (BipartiteInteractionGenerator, InteractionConfig,
                            split_downstream)
from repro import obs
from repro.nn import MLP, Adam, CompiledStep, Tensor, functional as F
from repro.nn.autograd import default_dtype, no_grad
from repro.nn.compile import _Program
from repro.tasks import (FineTuneConfig, LinkPredictionTask,
                         build_finetuned_encoder)

from .conftest import numeric_gradient, watch_late_mismatches


def small_stream(num_events: int = 120):
    config = InteractionConfig(num_users=16, num_items=12,
                               num_events=num_events, time_span=40.0,
                               candidate_size=8)
    return BipartiteInteractionGenerator(config, seed=7).generate()


def pretrain_config(compile_step: bool) -> CPDGConfig:
    return CPDGConfig(epochs=1, batch_size=40, num_checkpoints=2,
                      eta=3, epsilon=3, memory_dim=12, embed_dim=12,
                      time_dim=6, n_neighbors=6, seed=3,
                      compile_step=compile_step)


def run_pretrain(stream, backbone: str, compile_step: bool):
    config = pretrain_config(compile_step)
    trainer = CPDGPreTrainer.from_backbone(backbone, stream.num_nodes, config)
    return trainer.pretrain(stream)


class TestPretrainBitIdentity:
    """Replayed pre-training is bit-identical to eager, per backbone."""

    # ids: the names these cases carry in the tier-1 floor list.
    @pytest.mark.parametrize("backbone", ["tgn", "jodie", "dyrep"],
                             ids="sparse-{}".format)
    def test_backbone_engine(self, backbone):
        stream = small_stream()
        eager = run_pretrain(stream, backbone, False)
        compiled = run_pretrain(stream, backbone, True)
        assert eager.loss_history == compiled.loss_history
        for key, value in eager.encoder_state.items():
            assert np.array_equal(value, compiled.encoder_state[key]), key
        assert np.array_equal(eager.memory_state, compiled.memory_state)
        assert np.array_equal(eager.last_update, compiled.last_update)


class TestCompiledStepTraining:
    """Unit-level trace/replay semantics on a small supervised problem."""

    def _problem(self):
        rng = np.random.default_rng(0)
        net = MLP([4, 8, 1], rng)
        xs = rng.normal(size=(6, 5, 4))
        ys = rng.normal(size=(6, 5, 1))
        return net, xs, ys

    def _step_fn(self, net):
        def step(x, y):
            net.zero_grad()
            pred = net(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            return loss.item()
        return step

    def test_replay_matches_eager_losses_and_grads(self):
        net, xs, ys = self._problem()
        step = self._step_fn(net)
        eager_losses = [step(x, y) for x, y in zip(xs, ys)]
        eager_grads = [p.grad.copy() for p in net.parameters()]

        net2, _, _ = self._problem()
        compiled = CompiledStep(self._step_fn(net2))
        compiled_losses = [compiled(x, y, key=x.shape)
                           for x, y in zip(xs, ys)]
        assert compiled_losses == eager_losses
        for p, g in zip(net2.parameters(), eager_grads):
            assert np.array_equal(p.grad, g)
        assert int(compiled.counters["traces"]) == 1
        assert int(compiled.counters["replays"]) == len(xs) - 1
        # Two fused linears, relu, and the five loss ops; the registry
        # gauge reports the program just built.
        assert compiled.program_size(xs[0].shape) == 8
        assert obs.gauge("repro_compile_program_ops").value == 8

    def test_replayed_gradients_pass_gradcheck(self):
        net, xs, ys = self._problem()
        compiled = CompiledStep(self._step_fn(net))
        compiled(xs[0], ys[0], key="k")
        compiled(xs[1], ys[1], key="k")       # replayed call
        assert int(compiled.counters["replays"]) == 1
        x, y = xs[1], ys[1]
        for param in net.parameters():
            def loss_value():
                with no_grad():
                    pred = net(Tensor(x))
                    return (((pred - Tensor(y)) ** 2).mean()).item()
            numeric = numeric_gradient(loss_value, param.data, eps=1e-6)
            assert np.allclose(param.grad, numeric, atol=1e-5)

    def test_batch_size_change_replays_bit_identically(self):
        # A pure shape change keeps the op stream identical, so replay
        # proceeds (buffers grow on demand) and must still match eager.
        net, xs, ys = self._problem()
        step = self._step_fn(net)
        rng = np.random.default_rng(5)
        x2, y2 = rng.normal(size=(9, 4)), rng.normal(size=(9, 1))
        eager_a = step(xs[0], ys[0])
        eager_b = step(x2, y2)
        eager_grads = [p.grad.copy() for p in net.parameters()]

        net2, _, _ = self._problem()
        compiled = CompiledStep(self._step_fn(net2))
        assert compiled(xs[0], ys[0], key="same") == eager_a
        assert compiled(x2, y2, key="same") == eager_b
        assert int(compiled.counters["mismatches"]) == 0
        assert int(compiled.counters["replays"]) == 1
        for p, g in zip(net2.parameters(), eager_grads):
            assert np.array_equal(p.grad, g)

    @pytest.mark.replay_fallback
    def test_op_stream_change_falls_back_and_stays_correct(self):
        # A data-dependent branch changes the op count: replay must
        # detect the divergence, re-run eagerly and produce eager bits.
        def build():
            rng = np.random.default_rng(1)
            net = MLP([4, 4, 1], rng)

            def step(x):
                net.zero_grad()
                loss = net(Tensor(x)).sum()
                if x.shape[0] > 5:
                    loss = loss * 2.0
                loss.backward()
                return loss.item()
            return net, step

        net_ref, ref_step = build()
        x_small = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
        x_big = np.linspace(-1.0, 1.0, 32).reshape(8, 4)
        ref_a = ref_step(x_small)
        ref_b = ref_step(x_big)
        ref_grads = [p.grad.copy() for p in net_ref.parameters()]

        net2, step2 = build()
        compiled = CompiledStep(step2)
        assert compiled(x_small, key="k") == ref_a
        assert compiled(x_big, key="k") == ref_b          # diverges -> eager
        assert int(compiled.counters["mismatches"]) == 1
        for p, g in zip(net2.parameters(), ref_grads):
            assert np.array_equal(p.grad, g)

    @pytest.mark.replay_fallback
    def test_dead_key_after_retrace_budget(self):
        rng = np.random.default_rng(1)
        net = MLP([4, 4, 1], rng)
        calls = itertools.count()

        def unstable(_marker):
            net.zero_grad()
            loss = net(Tensor(np.ones((4, 4)))).sum()
            if next(calls) % 2:               # op count flips every run
                loss = loss * 2.0
            loss.backward()
            return loss.item()

        compiled = CompiledStep(unstable, max_retraces=2)
        for _ in range(8):
            compiled(None, key="k")
        assert "k" in compiled._dead
        assert int(compiled.counters["eager"]) >= 1

    @pytest.mark.replay_fallback
    def test_intermediate_fed_back_as_leaf_falls_back(self):
        """A step that carries one call's no-grad intermediate into the
        next call's first op: on replay that tensor is the program's own
        persistent intermediate (its data is rebound later in the same
        program), so it is refused as a leaf and the batch re-runs
        eagerly with eager's bits."""
        def build():
            net, xs, ys = self._problem()
            carry = {"prev": Tensor(np.zeros(xs.shape[1:]))}

            def step(x, y):
                net.zero_grad()
                pred = net(Tensor(x) + carry["prev"])
                following = F.tanh(Tensor(x))
                loss = ((pred - Tensor(y)) ** 2).mean()
                loss.backward()
                carry["prev"] = following
                return loss.item()
            return net, xs, ys, step

        net, xs, ys, step = build()
        eager = [step(x, y) for x, y in zip(xs, ys)]
        eager_grads = [p.grad.copy() for p in net.parameters()]

        net2, _, _, step2 = build()
        compiled = CompiledStep(step2)
        assert [compiled(x, y, key="k") for x, y in zip(xs, ys)] == eager
        assert compiled.last_failure == "intermediate used as leaf"
        stats = {k: int(c) for k, c in compiled.counters.items()}
        assert (stats["replays"], stats["mismatches"]) == (0, len(xs) - 1)
        for p, g in zip(net2.parameters(), eager_grads):
            assert np.array_equal(p.grad, g)

    @pytest.mark.replay_fallback
    def test_mismatch_policy_flags_only_keys_that_replayed(self,
                                                           monkeypatch):
        """The tier-1 policy of ``tests/conftest.py``: a mismatch on a key
        that never replayed is a re-trace; one on a key that already
        replayed is reported."""
        late = watch_late_mismatches(monkeypatch)
        net = MLP([4, 4, 1], np.random.default_rng(1))
        runs = itertools.count()
        # Runs of step (re-runs after a mismatch included): trace, diverge,
        # re-trace, replay, diverge, re-trace.
        diverging = {1, 4}

        def step():
            net.zero_grad()
            loss = net(Tensor(np.ones((4, 4)))).sum()
            if next(runs) in diverging:
                loss = loss * 2.0
            loss.backward()
            return loss.item()

        compiled = CompiledStep(step)
        for _ in range(3):
            compiled(key="k")
        assert late == []
        assert int(compiled.counters["replays"]) == 1
        compiled(key="k")
        assert late == ["key 'k': step ran more ops than recorded"]

    def test_no_grad_inside_compiled_step(self):
        rng = np.random.default_rng(2)
        net = MLP([4, 6, 1], rng)
        xs = rng.normal(size=(4, 5, 4))

        def step(x):
            net.zero_grad()
            with no_grad():
                scale = float(np.abs(x).mean())
            loss = (net(Tensor(x / scale)) ** 2).mean()
            loss.backward()
            return loss.item()

        eager = [step(x) for x in xs]
        eager_grads = [p.grad.copy() for p in net.parameters()]
        compiled = CompiledStep(step)
        replayed = [compiled(x, key="k") for x in xs]
        assert replayed == eager
        for p, g in zip(net.parameters(), eager_grads):
            assert np.array_equal(p.grad, g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elementwise_runs_replay_bit_identically(self, dtype):
        """Loss-side runs of single-consumer elementwise VJPs — softplus
        ``log(exp(-|h|) + 1)``, ``-sqrt(d + eps)``, a hinge
        ``relu(h + m)``, ``h * a * b`` — replay as one VJP call per op,
        exactly as eager runs them, also when the gradient entering the
        run is a transposed (non-C-contiguous) view."""
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(4, 6, 5)).astype(dtype)
        gate = rng.uniform(0.5, 1.5, size=(1, 5)).astype(dtype)
        mix = rng.normal(size=(6, 3)).astype(dtype)

        def make(w):
            def step(x):
                w.zero_grad()
                h = Tensor(x) * w
                softplus = F.log(F.exp(-F.abs_(h)) + 1.0)
                dist = -F.sqrt(h * h + 1e-3)
                hinge = F.relu(h + 0.25)
                scaled = h * Tensor(gate) * 0.5
                # transpose's VJP hands the hinge run ``grad.T``, a view.
                loss = (softplus.mean() + dist.mean() + scaled.sum()
                        + ((hinge.T @ Tensor(mix)) ** 2).sum())
                loss.backward()
                return loss.item()
            return step

        def weight():
            return Tensor(np.linspace(-1.0, 1.0, 30, dtype=dtype)
                          .reshape(6, 5), requires_grad=True)

        with default_dtype(dtype):
            w_eager = weight()
            eager_step = make(w_eager)
            eager = [(eager_step(x), w_eager.grad.copy()) for x in xs]
            w = weight()
            compiled = CompiledStep(make(w))
            for x, (loss, grad) in zip(xs, eager):
                assert compiled(x, key="k") == loss
                assert w.grad.dtype == dtype
                assert np.array_equal(w.grad, grad)
        stats = {k: int(c) for k, c in compiled.counters.items()}
        assert (stats["replays"], stats["mismatches"]) == (len(xs) - 1, 0)

    @pytest.mark.replay_fallback
    def test_replay_paused_on_one_thread_leaves_another_eager(self):
        """A replay installs its engine for its own thread only: while
        one is paused mid-program, an op applied on another thread runs
        eagerly (and differentiates), and the replay then finishes with
        no mismatch and eager's bits."""
        net, xs, ys = self._problem()
        step = self._step_fn(net)
        eager_losses = [step(x, y) for x, y in zip(xs[:2], ys[:2])]
        eager_grads = [p.grad.copy() for p in net.parameters()]

        net2, _, _ = self._problem()
        paused, resume = threading.Event(), threading.Event()
        pause = False

        def step2(x, y):
            net2.zero_grad()
            pred = net2(Tensor(x))
            if pause:
                paused.set()
                resume.wait(10.0)
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            return loss.item()

        compiled = CompiledStep(step2)
        assert compiled(xs[0], ys[0], key="k") == eager_losses[0]   # trace
        pause = True
        replayed = []
        worker = threading.Thread(
            target=lambda: replayed.append(compiled(xs[1], ys[1], key="k")))
        worker.start()
        try:
            assert paused.wait(10.0)
            w = Tensor(np.ones(3), requires_grad=True)
            out = (w * 2.0).sum()
            assert out._node is not None          # a real eager graph node
            out.backward()
            assert np.array_equal(w.grad, np.full(3, 2.0))
        finally:
            resume.set()
            worker.join(10.0)
        assert not worker.is_alive()
        assert replayed == [eager_losses[1]]
        assert int(compiled.counters["mismatches"]) == 0
        assert int(compiled.counters["replays"]) == 1
        for p, g in zip(net2.parameters(), eager_grads):
            assert np.array_equal(p.grad, g)

    def test_disabled_passes_through(self):
        net, xs, ys = self._problem()
        compiled = CompiledStep(self._step_fn(net), enabled=False)
        for x, y in zip(xs, ys):
            compiled(x, y, key="k")
        assert {k: int(c) for k, c in compiled.counters.items()} == {
            "traces": 0, "replays": 0, "mismatches": 0, "eager": len(xs)}
        assert compiled.program_size("k") is None


class TestProgramLifetime:
    """A stage's programs are freed by reference counting when the stage
    returns: only its ``CompiledStep`` owns them, so with the cycle
    collector off they must still be gone — not left to stack up under
    the next stage's programs until a collection happens to run."""

    @staticmethod
    def _programs_left_by(stage):
        gc.collect()
        before = [o for o in gc.get_objects() if isinstance(o, _Program)]
        gc.disable()
        try:
            result = stage()
            left = [o for o in gc.get_objects() if isinstance(o, _Program)
                    and not any(o is b for b in before)]
        finally:
            gc.enable()
        # The stage did build and replay programs.
        assert int(obs.counter("repro_compile_traces_total")) >= 1
        assert int(obs.counter("repro_compile_replays_total")) >= 1
        return result, left

    def test_pretrain_and_finetune_free_their_programs(self):
        stream = small_stream(240)
        config = pretrain_config(True)
        result, left = self._programs_left_by(
            lambda: CPDGPreTrainer.from_backbone(
                "tgn", stream.num_nodes, config).pretrain(stream))
        assert left == []

        ft = FineTuneConfig(epochs=2, batch_size=40, patience=2,
                            eie_out_dim=4, seed=0)
        strategy = build_finetuned_encoder("tgn", stream.num_nodes, config,
                                           result, "eie-gru", ft)
        task = LinkPredictionTask(strategy, split_downstream(stream), ft)
        history, left = self._programs_left_by(task.train)
        assert len(history) >= 1
        assert left == []


class TestReplayMemory:
    """A program holds only what its next replay reads: no gradient left
    over from the trace step, no gradient cell filled between steps, and
    pooled buffers for the most recent key alone."""

    _problem = TestCompiledStepTraining._problem
    _step_fn = TestCompiledStepTraining._step_fn

    @staticmethod
    def _holds_buffers(program) -> bool:
        return any(rec.out_buf is not None and rec.out_buf.arr is not None
                   for rec in program.records)

    def test_build_drops_the_trace_steps_gradients(self):
        net, xs, ys = self._problem()
        compiled = CompiledStep(self._step_fn(net))
        compiled(xs[0], ys[0], key="k")
        program = compiled._programs["k"]
        held = [t for t in program.slot_tensor if t is not None]
        assert len(held) == len(program.records)
        assert [t for t in held if t._grad is not None] == []

    def test_replayed_backward_empties_every_cell(self):
        net, xs, ys = self._problem()
        compiled = CompiledStep(self._step_fn(net))
        for x, y in zip(xs[:3], ys[:3]):
            compiled(x, y, key="k")
        assert int(compiled.counters["replays"]) == 2
        program = compiled._programs["k"]
        assert len(program.cells_used) > 1
        assert [c for c in program.cells_used if c.value is not None] == []

    def test_one_program_resident_across_key_switches(self):
        """Keys switch ``a a b b a b``; after every call only the called
        key's program may hold pooled buffers, saved contexts or
        intermediate data, and every loss and gradient equals eager's."""
        net, xs, ys = self._problem()
        rng = np.random.default_rng(5)
        wide = [(rng.normal(size=(9, 4)), rng.normal(size=(9, 1)))
                for _ in range(3)]
        schedule = [("a", xs[0], ys[0]), ("a", xs[1], ys[1]),
                    ("b", *wide[0]), ("b", *wide[1]),
                    ("a", xs[2], ys[2]), ("b", *wide[2])]
        step = self._step_fn(net)
        eager = []
        for _, x, y in schedule:
            eager.append((step(x, y),
                          [p.grad.copy() for p in net.parameters()]))

        net2, _, _ = self._problem()
        compiled = CompiledStep(self._step_fn(net2))
        for (key, x, y), (loss, grads) in zip(schedule, eager):
            assert compiled(x, y, key=key) == loss
            for p, g in zip(net2.parameters(), grads):
                assert np.array_equal(p.grad, g)
            for other, program in compiled._programs.items():
                if other == key:
                    continue
                assert not self._holds_buffers(program), other
                assert all(rec.ctx is None and rec.out_tensor.data.size == 0
                           for rec in program.records), other
        assert self._holds_buffers(compiled._programs["b"])
        stats = {k: int(c) for k, c in compiled.counters.items()}
        assert stats == {"traces": 2, "replays": 4, "mismatches": 0,
                         "eager": 0}

    def test_compiled_pretraining_heap_peak_is_at_most_eagers(self):
        """``tracemalloc`` peak of one TGN pre-training run.  (JODIE and
        DyRep replay still peak above their eager runs, whose graphs are
        small: no bound is written for them.)"""
        stream = small_stream(240)
        run_pretrain(stream, "tgn", False)     # warm module-level state

        def peak(compile_step: bool) -> int:
            tracemalloc.start()
            try:
                run_pretrain(stream, "tgn", compile_step)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(True) <= peak(False)


class TestTensorItem:
    def test_scalar_ok(self):
        assert Tensor(2.0).item() == 2.0
        assert Tensor(np.float32(1.5)).item() == 1.5

    def test_non_scalar_raises_value_error(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).item()
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 2))).item()
