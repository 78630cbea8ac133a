"""Unit tests for differentiable functional ops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from .conftest import numeric_gradient


def check_against_numeric(build, tensors, atol=1e-6, rtol=1e-5):
    loss = build()
    loss.backward()
    for t in tensors:
        numeric = numeric_gradient(lambda: build().item(), t.data)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


class TestElementwise:
    def test_exp_forward_backward(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        check_against_numeric(lambda: F.exp(x).sum(), [x])

    def test_log_floors_at_eps(self):
        x = Tensor([-1.0, 0.0, 1.0])
        out = F.log(x)
        assert np.isfinite(out.data).all()

    def test_log_gradient(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=5), requires_grad=True)
        check_against_numeric(lambda: F.log(x).sum(), [x])

    def test_sqrt_gradient(self, rng):
        x = Tensor(rng.uniform(0.5, 4.0, size=5), requires_grad=True)
        check_against_numeric(lambda: F.sqrt(x).sum(), [x])

    def test_abs_gradient(self, rng):
        x = Tensor(rng.normal(size=5) + 0.5, requires_grad=True)
        check_against_numeric(lambda: F.abs_(x).sum(), [x])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-1000.0, 0.0, 1000.0])
        out = F.sigmoid(x)
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu_kills_negative_gradient(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        F.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu_slope(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_tanh_range(self, rng):
        out = F.tanh(Tensor(rng.normal(size=100) * 10))
        assert (np.abs(out.data) <= 1.0).all()

    def test_clip_gradient_mask(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        F.clip(x, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(F.softmax(x).data), atol=1e-10)

    def test_log_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        weights = rng.normal(size=(2, 6))
        check_against_numeric(lambda: (F.log_softmax(x) * Tensor(weights)).sum(), [x])


class TestStructuralOps:
    def test_concatenate_splits_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        weights = rng.normal(size=(2, 5))
        check_against_numeric(
            lambda: (F.concatenate([a, b], axis=1) * Tensor(weights)).sum(), [a, b])

    def test_stack_axis0(self, rng):
        tensors = [Tensor(rng.normal(size=3), requires_grad=True) for _ in range(4)]
        check_against_numeric(lambda: (F.stack(tensors, axis=0) ** 2.0).sum(), tensors)

    def test_embedding_lookup_repeated_indices(self, rng):
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([1, 1, 1, 5])
        F.embedding_lookup(table, idx).sum().backward()
        assert table.grad[1].sum() == pytest.approx(12.0)
        assert table.grad[5].sum() == pytest.approx(4.0)
        assert table.grad[0].sum() == 0.0

    def test_scatter_rows_replaces_and_routes_grads(self, rng):
        base = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        rows = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        idx = np.array([1, 3])
        out = F.scatter_rows(base, idx, rows)
        np.testing.assert_allclose(out.data[idx], rows.data)
        out.sum().backward()
        np.testing.assert_allclose(base.grad[idx], np.zeros((2, 3)))
        np.testing.assert_allclose(base.grad[0], np.ones(3))
        np.testing.assert_allclose(rows.grad, np.ones((2, 3)))

    def test_scatter_rows_rejects_duplicate_indices(self, rng):
        base = Tensor(rng.normal(size=(4, 2)))
        rows = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            F.scatter_rows(base, np.array([1, 1]), rows)

    @pytest.mark.parametrize("idx", [[0, 2, 2], [2, 0, 2], [3, 1, 3]])
    def test_scatter_rows_rejects_duplicates_sorted_or_not(self, rng, idx):
        base = Tensor(rng.normal(size=(4, 2)))
        rows = Tensor(rng.normal(size=(3, 2)))
        with pytest.raises(ValueError, match="unique"):
            F.scatter_rows(base, np.array(idx), rows)

    def test_scatter_rows_accepts_unsorted_unique_indices(self, rng):
        base = Tensor(rng.normal(size=(5, 2)))
        rows = Tensor(rng.normal(size=(3, 2)))
        idx = np.array([4, 0, 2])
        out = F.scatter_rows(base, idx, rows)
        np.testing.assert_array_equal(out.data[idx], rows.data)
        np.testing.assert_array_equal(out.data[[1, 3]], base.data[[1, 3]])

    def test_scatter_mean_groups(self, rng):
        values = Tensor(np.array([[2.0], [4.0], [6.0]]), requires_grad=True)
        groups = np.array([0, 0, 2])
        out = F.scatter_mean(values, groups, 3)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [6.0]])
        check_against_numeric(
            lambda: (F.scatter_mean(values, groups, 3) ** 2.0).sum(), [values])


class TestDistances:
    def test_euclidean_distance_matches_numpy(self, rng):
        a = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(5, 3)))
        expected = np.linalg.norm(a.data - b.data, axis=1)
        np.testing.assert_allclose(F.euclidean_distance(a, b).data, expected,
                                   rtol=1e-6)

    def test_l2_normalize_unit_norm(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        out = F.l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(4),
                                   rtol=1e-6)
