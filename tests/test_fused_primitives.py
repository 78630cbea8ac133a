"""The fused ``linear`` / ``gru_cell`` / ``time_encode`` primitives.

``bench/``'s eager-autograd oracle replays the same hand-written VJPs
the compiled tape uses, so it cannot catch a wrong one.  The oracles
here are independent of them:

* finite differences (:func:`repro.nn.gradcheck.check_gradients`);
* the elementary-op compositions these kernels replaced — ``x @ W + b``,
  ``sigmoid(x @ W + h @ U + b)`` …, ``cos(Δt·ω + φ)`` — written out below
  from ops whose VJPs the fused kernels do not share;
* eager execution, for the compiled replay of an EIE-GRU unroll;
* the parent commit's frozen ``state_dict`` layout, seeded initial values
  and served embeddings (:mod:`tests.parent_fixtures`).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import PretrainArtifact
from repro.core.checkpoints import MemoryCheckpoints
from repro.core.eie import EIEModule
from repro.nn import (AdditiveAttention, CompiledStep, GRUCell, Linear,
                      RNNCell, Tensor, functional as F)
from repro.nn.autograd import default_dtype
from repro.nn.gradcheck import check_gradients

from . import parent_fixtures as parent

GRU_PARAMS = ("w_xz", "w_hz", "b_z", "w_xr", "w_hr", "b_r",
              "w_xn", "w_hn", "b_n")


# ----------------------------------------------------------------------
# the compositions the kernels replaced (the oracles)
# ----------------------------------------------------------------------
def linear_reference(x, weight, bias=None):
    out = x @ weight
    return out if bias is None else out + bias


def gru_cell_reference(x, h, w_xz, w_hz, b_z, w_xr, w_hr, b_r,
                       w_xn, w_hn, b_n):
    update = F.sigmoid(x @ w_xz + h @ w_hz + b_z)
    reset = F.sigmoid(x @ w_xr + h @ w_hr + b_r)
    candidate = F.tanh(x @ w_xn + (h * reset) @ w_hn + b_n)
    return update * h + (Tensor(1.0) - update) * candidate


def time_encode_reference(deltas, omega, phase):
    return F.cos(deltas.reshape(*deltas.shape, 1) * omega + phase)


def _leaf(rng, *shape, scale=1.0, requires_grad=True):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=requires_grad)


def _gru_weights(rng, in_dim, hidden):
    weights = []
    for _ in range(3):
        weights += [_leaf(rng, in_dim, hidden, scale=0.4),
                    _leaf(rng, hidden, hidden, scale=0.4),
                    _leaf(rng, hidden, scale=0.3)]
    return weights


def _weighted_sum(out: Tensor, seed: int = 99) -> Tensor:
    """A scalar that gives every output element its own weight."""
    weights = np.random.default_rng(seed).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


def assert_matches_reference(fused, reference, tensors):
    """Forward to 1e-12 and every input gradient to 1e-10."""
    for t in tensors:
        t.zero_grad()
    out = fused()
    _weighted_sum(out).backward()
    grads = [None if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.zero_grad()
    expected = reference()
    _weighted_sum(expected).backward()
    np.testing.assert_allclose(out.data, expected.data, rtol=0, atol=1e-12)
    for t, got in zip(tensors, grads):
        if not t.requires_grad:
            assert got is None and t.grad is None
            continue
        np.testing.assert_allclose(got, t.grad, rtol=0, atol=1e-10)


# ----------------------------------------------------------------------
# linear
# ----------------------------------------------------------------------
class TestLinear:
    @pytest.mark.parametrize("lead", [(5,), (3, 4), ()])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradcheck_and_reference(self, rng, lead, with_bias):
        x = _leaf(rng, *lead, 6)
        w = _leaf(rng, 6, 3)
        b = _leaf(rng, 3) if with_bias else None
        tensors = [t for t in (x, w, b) if t is not None]
        check_gradients(lambda: _weighted_sum(F.linear(x, w, b)), tensors)
        assert_matches_reference(lambda: F.linear(x, w, b),
                                 lambda: linear_reference(x, w, b), tensors)

    def test_constant_input_gets_no_gradient(self, rng):
        x = _leaf(rng, 5, 6, requires_grad=False)
        w, b = _leaf(rng, 6, 3), _leaf(rng, 3)
        assert_matches_reference(lambda: F.linear(x, w, b),
                                 lambda: linear_reference(x, w, b), [x, w, b])

    def test_is_one_tape_node(self, rng):
        out = Linear(6, 3, rng)(_leaf(rng, 5, 6))
        assert out._node.prim.name == "linear"
        assert all(t._node is None for t in out._node.inputs)

    def test_float32_stays_float32(self, rng):
        with default_dtype(np.float32):
            layer = Linear(6, 3, rng)
            out = layer(Tensor(rng.normal(size=(5, 6))))
            out.sum().backward()
        assert out.dtype == np.float32
        assert layer.weight.grad.dtype == np.float32
        assert layer.bias.grad.dtype == np.float32

    def test_rnn_cell_folds_the_bias_into_linear(self, rng):
        cell = RNNCell(5, 4, rng)
        x, h = _leaf(rng, 3, 5), _leaf(rng, 3, 4)
        tensors = [x, h] + cell.parameters()
        check_gradients(lambda: _weighted_sum(cell(x, h)), tensors)
        assert_matches_reference(
            lambda: cell(x, h),
            lambda: F.tanh(x @ cell.w_x + h @ cell.w_h + cell.bias), tensors)

    def test_additive_attention_runs_on_linear(self, rng):
        attention = AdditiveAttention(4, 5, rng)
        sequence = [_leaf(rng, 3, 4) for _ in range(3)]
        check_gradients(lambda: _weighted_sum(attention(sequence)),
                        sequence + attention.parameters())


# ----------------------------------------------------------------------
# gru_cell
# ----------------------------------------------------------------------
class TestGRUCell:
    @pytest.mark.parametrize("case", ["x-constant", "x-differentiable",
                                      "h-zero-constant", "batch-of-one"])
    def test_gradcheck_and_reference(self, rng, case):
        batch = 1 if case == "batch-of-one" else 4
        x = _leaf(rng, batch, 5, requires_grad=case != "x-constant")
        if case == "h-zero-constant":
            h = Tensor(np.zeros((batch, 3)))
        else:
            h = _leaf(rng, batch, 3)
        weights = _gru_weights(rng, 5, 3)
        tensors = [x, h] + weights
        checked = [t for t in tensors if t.requires_grad]
        check_gradients(lambda: _weighted_sum(F.gru_cell(x, h, *weights)),
                        checked)
        assert_matches_reference(lambda: F.gru_cell(x, h, *weights),
                                 lambda: gru_cell_reference(x, h, *weights),
                                 tensors)

    def test_rejects_unbatched_inputs(self, rng):
        with pytest.raises(ValueError, match="batch, features"):
            F.gru_cell(_leaf(rng, 5), _leaf(rng, 3), *_gru_weights(rng, 5, 3))

    def test_frozen_weights_get_no_gradient(self, rng):
        x, h = _leaf(rng, 4, 5), _leaf(rng, 4, 3)
        weights = [Tensor(w.data) for w in _gru_weights(rng, 5, 3)]
        assert_matches_reference(lambda: F.gru_cell(x, h, *weights),
                                 lambda: gru_cell_reference(x, h, *weights),
                                 [x, h] + weights)

    def test_unroll_matches_reference(self, rng):
        """Three chained steps from a constant zero state, as EIE-GRU."""
        cell = GRUCell(5, 3, rng)
        weights = [getattr(cell, name) for name in GRU_PARAMS]
        items = [Tensor(rng.normal(size=(6, 5))) for _ in range(3)]

        def unroll(step):
            hidden = Tensor(np.zeros((6, 3)))
            for item in items:
                hidden = step(item, hidden)
            return hidden

        assert_matches_reference(
            lambda: unroll(cell),
            lambda: unroll(lambda x, h: gru_cell_reference(x, h, *weights)),
            weights)

    def test_module_is_one_tape_node_per_step(self, rng):
        cell = GRUCell(5, 3, rng)
        out = cell(Tensor(rng.normal(size=(4, 5))), Tensor(np.zeros((4, 3))))
        assert out._node.prim.name == "gru_cell"
        assert list(out._node.inputs[2:]) == [getattr(cell, name)
                                              for name in GRU_PARAMS]
        assert list(cell.state_dict()) == list(GRU_PARAMS)

    def test_float32_stays_float32(self, rng):
        with default_dtype(np.float32):
            cell = GRUCell(5, 3, rng)
            out = cell(Tensor(rng.normal(size=(4, 5))),
                       Tensor(rng.normal(size=(4, 3))))
            out.sum().backward()
        assert out.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in cell.parameters())


# ----------------------------------------------------------------------
# time_encode
# ----------------------------------------------------------------------
class TestTimeEncode:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), ()])
    def test_gradcheck_and_reference(self, rng, shape):
        deltas = Tensor(rng.uniform(0.0, 5.0, size=shape), requires_grad=True)
        omega, phase = _leaf(rng, 6), _leaf(rng, 6)
        tensors = [deltas, omega, phase]
        check_gradients(
            lambda: _weighted_sum(F.time_encode(deltas, omega, phase)),
            tensors)
        assert_matches_reference(
            lambda: F.time_encode(deltas, omega, phase),
            lambda: time_encode_reference(deltas, omega, phase), tensors)

    def test_constant_deltas_from_plain_arrays(self, rng):
        omega, phase = _leaf(rng, 6), _leaf(rng, 6)
        deltas = rng.uniform(0.0, 5.0, size=(4, 2))
        out = F.time_encode(deltas, omega, phase)
        assert out.shape == (4, 2, 6)
        np.testing.assert_allclose(
            out.data, np.cos(deltas[..., None] * omega.data + phase.data),
            rtol=0, atol=1e-12)
        assert out._node.prim.name == "time_encode"


# ----------------------------------------------------------------------
# sigmoid: one stable evaluation
# ----------------------------------------------------------------------
class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_monotone_and_silent(self, dtype):
        with default_dtype(dtype), np.errstate(all="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            probes = F.sigmoid(Tensor([-800.0, -40.0, 0.0, 40.0, 800.0])).data
            grid = F.sigmoid(Tensor(np.linspace(-60.0, 60.0, 24_001))).data
        assert probes.dtype == dtype and grid.dtype == dtype
        assert probes[2] == 0.5
        assert probes[0] == 0.0 and probes[-1] == 1.0
        assert (np.diff(grid) >= 0).all()
        assert ((grid >= 0) & (grid <= 1)).all()
        reference = 1.0 / (1.0 + np.exp(-np.linspace(-60.0, 60.0, 24_001)))
        np.testing.assert_allclose(grid, reference, rtol=0,
                                   atol=2 * np.finfo(dtype).eps)

    def test_gradcheck(self, rng):
        x = _leaf(rng, 4, 5, scale=3.0)
        check_gradients(lambda: _weighted_sum(F.sigmoid(x)), [x])


# ----------------------------------------------------------------------
# compiled replay of an EIE-GRU unroll
# ----------------------------------------------------------------------
def _eie_module(seed: int = 0) -> EIEModule:
    checkpoints = MemoryCheckpoints()
    for k in range(3):
        checkpoints.add(np.random.default_rng(k).normal(size=(40, 8)))
    return EIEModule(checkpoints, "gru", 6, np.random.default_rng(seed))


def _eie_step(module: EIEModule):
    def step(embeddings, nodes):
        module.zero_grad()
        out = module(Tensor(embeddings), nodes)
        loss = (out * out).mean()
        loss.backward()
        return loss.item()
    return step


def test_compiled_eie_gru_unroll_is_bit_identical_to_eager():
    rng = np.random.default_rng(4)
    batches = [(rng.normal(size=(12, 5)), rng.integers(0, 40, 12))
               for _ in range(4)]

    eager = _eie_module()
    eager_step = _eie_step(eager)
    eager_runs = [(eager_step(z, nodes),
                   [p.grad.copy() for p in eager.parameters()])
                  for z, nodes in batches]

    module = _eie_module()
    compiled = CompiledStep(_eie_step(module))
    for (z, nodes), (loss, grads) in zip(batches, eager_runs):
        assert compiled(z, nodes, key="eie") == loss
        for p, g in zip(module.parameters(), grads):
            assert np.array_equal(p.grad, g)
    stats = {k: int(c) for k, c in compiled.counters.items()}
    assert (stats["traces"], stats["replays"], stats["mismatches"],
            stats["eager"]) == (1, len(batches) - 1, 0, 0)
    assert compiled.last_failure is None
    # 3 GRU steps + the two-layer MLP + concatenate + the loss ops.
    program = compiled._programs["eie"]
    names = [rec.prim.name for rec in program.records]
    assert names.count("gru_cell") == 3 and names.count("linear") == 2
    assert "sigmoid" not in names and "matmul" not in names


# ----------------------------------------------------------------------
# state compatibility with the parent commit
# ----------------------------------------------------------------------
TGN_STATE_KEYS = [
    "time_encoder.omega", "time_encoder.phase",
    "updater.cell.w_xz", "updater.cell.w_hz", "updater.cell.b_z",
    "updater.cell.w_xr", "updater.cell.w_hr", "updater.cell.b_r",
    "updater.cell.w_xn", "updater.cell.w_hn", "updater.cell.b_n",
    "embedding_module.attentions.0.q_proj.weight",
    "embedding_module.attentions.0.k_proj.weight",
    "embedding_module.attentions.0.v_proj.weight",
    "embedding_module.attentions.0.out_proj.weight",
    "embedding_module.attentions.0.out_proj.bias",
    "embedding_module.merges.0.weight", "embedding_module.merges.0.bias",
]
EIE_GRU_STATE_KEYS = [f"gru.{name}" for name in GRU_PARAMS] + [
    "transform.layers.0.weight", "transform.layers.0.bias",
    "transform.layers.1.weight", "transform.layers.1.bias",
]


class TestParentCompatibility:
    def test_state_dict_keys_are_pinned(self):
        modules = parent.build_modules()
        assert list(modules["tgn"].state_dict()) == TGN_STATE_KEYS
        assert list(modules["eie_gru"].state_dict()) == EIE_GRU_STATE_KEYS

    def test_seeded_initial_state_equals_the_parents(self):
        """Same names, same order, same shapes, same seeded values: the
        RNG draw order of every constructor is untouched.  The fixture
        also pins ``lstm_updater/*``, the LSTM memory updater that no
        backbone used and that has since been deleted; those keys are
        the only ones skipped."""
        with np.load(parent.MODULES_PATH) as frozen:
            skipped = [key for key in frozen.files
                       if key.startswith("lstm_updater/")]
            expected = {key: frozen[key] for key in frozen.files
                        if key not in skipped}
        assert skipped
        states = parent.module_states()
        assert list(states) == list(expected)
        for key, value in states.items():
            assert value.shape == expected[key].shape, key
            assert value.dtype == expected[key].dtype, key
            assert np.array_equal(value, expected[key]), key

    def test_parent_artifact_loads_and_embeds(self):
        artifact = PretrainArtifact.load(parent.ARTIFACT_PATH)
        assert list(artifact.result.encoder_state) == TGN_STATE_KEYS
        with np.load(parent.EXPECTED_PATH) as frozen:
            expected = frozen["embeddings"]
        served = parent.serve_embeddings(artifact)
        np.testing.assert_allclose(served, expected, rtol=0, atol=1e-6)
