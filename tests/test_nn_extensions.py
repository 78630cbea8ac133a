"""Tests for serialization and gradcheck."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (MLP, GradCheckError, Linear, Tensor, check_gradients,
                      load_arrays, numeric_gradient, save_arrays)
from repro.nn import functional as F
from repro.nn.autograd import Primitive, apply_op, defvjp


class TestSerialization:
    def test_module_roundtrip(self, rng, tmp_path):
        a = MLP([4, 8, 2], rng)
        b = MLP([4, 8, 2], np.random.default_rng(777))
        path = str(tmp_path / "model.npz")
        save_arrays(path, a.state_dict())
        b.load_state_dict(load_arrays(path))
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_rejects_wrong_architecture(self, rng, tmp_path):
        a = MLP([4, 8, 2], rng)
        wrong = MLP([4, 6, 2], rng)
        path = str(tmp_path / "model.npz")
        save_arrays(path, a.state_dict())
        with pytest.raises((KeyError, ValueError)):
            wrong.load_state_dict(load_arrays(path))

    def test_array_dict_roundtrip(self, rng, tmp_path):
        arrays = {"memory": rng.normal(size=(5, 3)),
                  "last_update": rng.random(5)}
        path = str(tmp_path / "state.npz")
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == set(arrays)
        np.testing.assert_allclose(loaded["memory"], arrays["memory"])

    def test_save_creates_parent_dirs(self, rng, tmp_path):
        path = str(tmp_path / "nested" / "deep" / "model.npz")
        save_arrays(path, Linear(2, 2, rng).state_dict())
        import os
        assert os.path.exists(path)


class TestGradcheck:
    def test_passes_on_correct_gradients(self, rng):
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = rng.normal(size=(4, 3))
        check_gradients(lambda: (F.tanh(Tensor(x) @ w) ** 2.0).sum(), [w])

    def test_accepts_module(self, rng):
        mlp = MLP([3, 4, 1], rng)
        x = Tensor(rng.normal(size=(5, 3)))
        check_gradients(lambda: (mlp(x) ** 2.0).sum(), mlp)

    def test_detects_wrong_gradient(self, rng):
        """A backward that lies about its gradient must be caught."""
        w = Tensor(rng.normal(size=4), requires_grad=True)

        def forward(args, params, need_ctx, out):
            return 3.0 * args[0], None

        def lying_vjp(ctx, grad, needs, params):
            return (2.0 * grad,)           # should be 3.0 * grad

        # Built directly, not through primitive(): the registry stays clean.
        triple = defvjp(Primitive("buggy_triple", forward), lying_vjp)

        def buggy_loss():
            return apply_op(triple, (w,)).sum()

        with pytest.raises(GradCheckError):
            check_gradients(buggy_loss, [w])

    def test_numeric_gradient_linear_function(self):
        x = np.array([1.0, 2.0])
        grad = numeric_gradient(lambda: float(3.0 * x[0] - 2.0 * x[1]), x)
        np.testing.assert_allclose(grad, [3.0, -2.0], atol=1e-6)
