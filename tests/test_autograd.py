"""Unit tests for the reverse-mode autograd engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import (Tensor, as_tensor, default_dtype, get_default_dtype,
                      is_grad_enabled, no_grad)
from repro.nn import functional as F

from .conftest import numeric_gradient


class TestTensorBasics:
    def test_creation_defaults_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert not t.requires_grad

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b.data[0] == 2.0

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0]), Tensor)

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_with_explicit_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3.0).backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(t.grad, [3.0, 3.0])


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad[0] == 5.0
        assert b.grad[0] == 2.0

    def test_sub_and_neg(self):
        a = Tensor([4.0], requires_grad=True)
        (1.0 - a).sum().backward()
        assert a.grad[0] == -1.0

    def test_div(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-0.25])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_broadcast_mul_keepdims_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [[3.0], [3.0]])

    def test_gradient_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        c = a * 4.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data.sum(axis=1).reshape(1, 3).repeat(2, 0))
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0).reshape(3, 1).repeat(4, 1))

    def test_matmul_vector_matrix(self):
        v = Tensor(np.ones(3), requires_grad=True)
        m = Tensor(np.ones((3, 2)), requires_grad=True)
        (v @ m).sum().backward()
        np.testing.assert_allclose(v.grad, [2.0, 2.0, 2.0])

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        b = a.reshape(2, 3).reshape(-1)
        b.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_backward(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        (a.T * Tensor(np.arange(6, dtype=float).reshape(3, 2))).sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_scatter_backward(self):
        a = Tensor(np.zeros(5), requires_grad=True)
        idx = np.array([0, 0, 3])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_scales_gradient(self):
        a = Tensor(np.ones(4), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_along_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 0.25))

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([1.0, 1.0, 0.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [1.0, 0.0]])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_scopes_are_per_thread(self):
        """A ``no_grad`` / ``default_dtype`` scope held open on one thread
        is invisible to another, and exits interleaved across threads
        (A enters, B enters, A exits, B exits) leave every thread — and
        the process — at the defaults."""
        a_inside, b_inside, a_left = (threading.Event() for _ in range(3))
        seen = {}

        def state():
            return is_grad_enabled(), get_default_dtype()

        def thread_a():
            with no_grad(), default_dtype(np.float32):
                a_inside.set()
                b_inside.wait(10.0)
            seen["a_after"] = state()
            a_left.set()

        def thread_b():
            a_inside.wait(10.0)
            seen["b_before"] = state()
            with no_grad(), default_dtype(np.float32):
                b_inside.set()
                a_left.wait(10.0)
                seen["b_inside"] = state()
            seen["b_after"] = state()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        a_inside.wait(10.0)
        seen["main_during"] = state()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        seen["main_after"] = state()
        defaults = (True, np.dtype(np.float64))
        assert seen == {"b_before": defaults, "main_during": defaults,
                        "b_inside": (False, np.dtype(np.float32)),
                        "a_after": defaults, "b_after": defaults,
                        "main_after": defaults}


class TestNumericalGradients:
    """Finite-difference checks over composite expressions."""

    def test_composite_expression(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def build():
            return (F.tanh(x @ w) * F.sigmoid(x @ w)).sum()

        loss = build()
        loss.backward()
        for t in (x, w):
            numeric = numeric_gradient(lambda: build().item(), t.data)
            np.testing.assert_allclose(t.grad, numeric, atol=1e-6, rtol=1e-5)

    def test_softmax_jacobian(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        weights = rng.normal(size=(3, 5))

        def build():
            return (F.softmax(x) * Tensor(weights)).sum()

        build().backward()
        numeric = numeric_gradient(lambda: build().item(), x.data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6, rtol=1e-5)

    def test_division_chain(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=6), requires_grad=True)

        def build():
            return ((x / (x + 1.0)) ** 3.0).sum()

        build().backward()
        numeric = numeric_gradient(lambda: build().item(), x.data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6, rtol=1e-5)
