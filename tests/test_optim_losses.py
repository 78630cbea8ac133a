"""Unit tests for optimizers and loss functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (Adam, MLP, Parameter, Tensor, bce_with_logits,
                      binary_cross_entropy, clip_grad_norm, info_nce_loss,
                      jsd_mutual_information_loss, mse_loss, softplus,
                      triplet_margin_loss)
from repro.nn import functional as F


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (p ** 2.0).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, np.zeros(2), atol=1e-3)

    def test_bias_correction_first_step(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.5)
        opt.zero_grad()
        (p * 2.0).sum().backward()
        opt.step()
        # With bias correction, the first step has magnitude ~lr.
        assert abs(p.data[0] - 0.5) < 1e-6

    def test_trains_mlp_to_fit_xor(self, rng):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0], dtype=float)
        mlp = MLP([2, 8, 1], rng, activation="tanh")
        opt = Adam(mlp.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            logits = mlp(Tensor(x)).reshape(-1)
            loss = bce_with_logits(logits, y)
            loss.backward()
            opt.step()
        probs = F.sigmoid(mlp(Tensor(x)).reshape(-1)).data
        assert ((probs > 0.5).astype(float) == y).all()

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 1.0

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3])
    def test_rejects_non_finite_or_negative_lr(self, lr):
        """``lr <= 0`` let nan through: training ran to nan parameters."""
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Parameter(np.zeros(1))], lr=lr)

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad accumulated — must not crash
        assert p.data[0] == 1.0


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], 1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], 5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])


class TestLosses:
    def test_triplet_zero_when_margin_satisfied(self, rng):
        anchor = Tensor(np.zeros((2, 3)))
        positive = Tensor(np.zeros((2, 3)))
        negative = Tensor(np.full((2, 3), 10.0))
        loss = triplet_margin_loss(anchor, positive, negative, margin=1.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_triplet_equals_margin_when_views_collide(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        loss = triplet_margin_loss(x, x, x, margin=0.7)
        assert loss.item() == pytest.approx(0.7, abs=1e-5)

    def test_triplet_pulls_positive_closer(self, rng):
        anchor = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        positive = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        negative = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = triplet_margin_loss(anchor, positive, negative, margin=5.0)
        loss.backward()
        # Moving positives along -grad must reduce d(a, p).
        before = np.linalg.norm(anchor.data - positive.data)
        after = np.linalg.norm(anchor.data - (positive.data - 0.01 * positive.grad))
        assert after < before

    def test_bce_with_logits_matches_probability_form(self, rng):
        logits = Tensor(rng.normal(size=10))
        labels = rng.integers(0, 2, size=10)
        a = bce_with_logits(logits, labels).item()
        b = binary_cross_entropy(F.sigmoid(logits), labels).item()
        assert a == pytest.approx(b, rel=1e-6)

    def test_bce_with_logits_extreme_stable(self):
        logits = Tensor([1000.0, -1000.0])
        labels = np.array([1.0, 0.0])
        assert bce_with_logits(logits, labels).item() == pytest.approx(0.0, abs=1e-6)

    def test_bce_perfect_prediction_near_zero(self):
        logits = Tensor([20.0, -20.0])
        assert bce_with_logits(logits, np.array([1, 0])).item() < 1e-6

    def test_softplus_positive_and_asymptotic(self):
        x = Tensor([-100.0, 0.0, 100.0])
        out = softplus(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-9)
        assert out[1] == pytest.approx(np.log(2.0), rel=1e-6)
        assert out[2] == pytest.approx(100.0, rel=1e-6)

    def test_jsd_loss_decreases_with_separation(self, rng):
        good = jsd_mutual_information_loss(Tensor([5.0, 5.0]), Tensor([-5.0, -5.0]))
        bad = jsd_mutual_information_loss(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]))
        assert good.item() < bad.item()

    def test_info_nce_prefers_aligned_positive(self, rng):
        anchor = Tensor(rng.normal(size=(4, 8)))
        negatives = Tensor(rng.normal(size=(4, 5, 8)))
        aligned = info_nce_loss(anchor, anchor, negatives)
        random = info_nce_loss(anchor, Tensor(rng.normal(size=(4, 8))), negatives)
        assert aligned.item() < random.item()

    def test_mse_loss_zero_on_match(self, rng):
        x = Tensor(rng.normal(size=(3, 2)))
        assert mse_loss(x, x.copy()).item() == pytest.approx(0.0, abs=1e-12)
