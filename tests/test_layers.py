"""Unit tests for layers, recurrent cells, attention and the module system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (MLP, AdditiveAttention, Embedding, GRUCell, Linear,
                      Module, RNNCell, TemporalAttention, Tensor)


class TestLinearAndMLP:
    def test_linear_shapes(self, rng):
        layer = Linear(4, 7, rng)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 7)

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 2, rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, np.zeros((2, 2)))

    def test_mlp_depth(self, rng):
        mlp = MLP([4, 8, 8, 2], rng)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(rng.normal(size=(5, 4)))).shape == (5, 2)

    def test_mlp_requires_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_mlp_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            MLP([4, 2], rng, activation="swish")

    def test_mlp_gradients_flow_to_all_layers(self, rng):
        mlp = MLP([3, 5, 2], rng)
        loss = (mlp(Tensor(rng.normal(size=(4, 3)))) ** 2.0).sum()
        loss.backward()
        assert all(p.grad is not None for p in mlp.parameters())


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 6, rng)
        assert emb(np.array([0, 3, 3])).shape == (3, 6)

    def test_gradient_only_on_used_rows(self, rng):
        emb = Embedding(5, 3, rng)
        emb(np.array([1, 2])).sum().backward()
        assert emb.weight.grad[0].sum() == 0.0
        assert emb.weight.grad[1].sum() != 0.0


class TestRecurrentCells:
    @pytest.mark.parametrize("cell_cls", [RNNCell, GRUCell])
    def test_state_shape_preserved(self, cell_cls, rng):
        cell = cell_cls(3, 5, rng)
        h = cell(Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros((2, 5))))
        assert h.shape == (2, 5)

    def test_gru_interpolates_between_state_and_candidate(self, rng):
        cell = GRUCell(2, 3, rng)
        h = Tensor(rng.normal(size=(1, 3)))
        out = cell(Tensor(rng.normal(size=(1, 2))), h)
        assert (np.abs(out.data) <= 1.0 + np.abs(h.data)).all()

    def test_bptt_through_steps(self, rng):
        cell = RNNCell(2, 3, rng)
        x = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        h = Tensor(np.zeros((1, 3)))
        for _ in range(3):
            h = cell(x, h)
        (h ** 2.0).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0


class TestAttention:
    def test_temporal_attention_shapes(self, rng):
        att = TemporalAttention(6, 5, 8, 2, rng)
        out = att(Tensor(rng.normal(size=(3, 6))),
                  Tensor(rng.normal(size=(7, 5))), np.array([0, 4, 5]))
        assert out.shape == (3, 8)

    def test_out_dim_divisible_by_heads(self, rng):
        with pytest.raises(ValueError):
            TemporalAttention(4, 4, 7, 2, rng)

    def test_row_attends_over_its_own_run_only(self, rng):
        att = TemporalAttention(4, 4, 4, 1, rng)
        query = Tensor(rng.normal(size=(2, 4)))
        keys_data = rng.normal(size=(4, 4))
        starts = np.array([0, 1])           # row 0: slot 0; row 1: slots 1-3
        out = att(query, Tensor(keys_data), starts).data
        # Changing row 1's slots must not change row 0's output.
        keys_data2 = keys_data.copy()
        keys_data2[1:] = 100.0
        out2 = att(query, Tensor(keys_data2), starts).data
        np.testing.assert_allclose(out[0], out2[0], atol=1e-12)
        assert not np.allclose(out[1], out2[1])

    def test_additive_attention_weights_sum_to_one(self, rng):
        att = AdditiveAttention(4, 6, rng)
        seq = [Tensor(rng.normal(size=(2, 4))) for _ in range(5)]
        out = att(seq)
        assert out.shape == (2, 4)
        # Output is a convex combination: lies within min/max envelope.
        stacked = np.stack([t.data for t in seq])
        assert (out.data <= stacked.max(axis=0) + 1e-9).all()
        assert (out.data >= stacked.min(axis=0) - 1e-9).all()


class TestModuleSystem:
    def test_named_parameters_nested(self, rng):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.inner = Linear(2, 2, rng)
                self.items = [Linear(2, 2, rng)]
                self.table = {"a": Linear(2, 2, rng)}

        names = dict(Wrapper().named_parameters())
        assert "inner.weight" in names
        assert "items.0.weight" in names
        assert "table.a.weight" in names

    def test_state_dict_roundtrip(self, rng):
        a = MLP([3, 4, 2], rng)
        b = MLP([3, 4, 2], np.random.default_rng(999))
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_state_dict_rejects_mismatch(self, rng):
        a = MLP([3, 4, 2], rng)
        state = a.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_zero_grad_clears(self, rng):
        m = Linear(2, 2, rng)
        (m(Tensor(np.ones((1, 2)))) ** 2.0).sum().backward()
        assert m.weight.grad is not None
        m.zero_grad()
        assert m.weight.grad is None

    def test_train_eval_propagates(self, rng):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.head = Linear(2, 2, rng)
                self.body = MLP([2, 3, 2], rng)

        model = Wrapper()
        assert len(list(model.modules())) == 5
        model.eval()
        assert all(not mod.training for mod in model.modules())
        model.train()
        assert all(mod.training for mod in model.modules())
