"""Row-scatter kernels (repro.nn.scatter) and replayed elementwise chains.

Two contracts:

* ``scatter_add_rows`` / ``sum_duplicate_rows`` / ``scatter_max_rows``
  agree with ``np.add.at`` / ``np.maximum.at`` (to ``n_dup * eps`` for the
  sums, exactly for the max) for every index layout, negative ids included;
* runs of elementwise ops replay bit for bit what eager autograd computes,
  at float32 and float64, and the replayed gradient passes a
  finite-difference check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import CompiledStep, Tensor, functional as F
from repro.nn.scatter import (scatter_add_rows, scatter_max_rows,
                              sum_duplicate_rows)

from .conftest import numeric_gradient


def assert_scatter_close(out, base, idx, values):
    """``out == base`` with ``base[idx] += values`` to ``n_dup * eps``.

    The reference is ``np.add.at`` in float64.  A cell that receives
    ``n`` rows is a sum of ``n + 1`` terms, and any summation order
    rounds it within ``n * eps * (|base| + sum of |rows|)`` — the bound
    ``scatter_add_rows`` is held to (it does not promise ``np.add.at``'s
    bits: it sums each run of duplicates first).
    """
    idx = np.asarray(idx).reshape(-1)
    rows = np.asarray(values, dtype=np.float64).reshape((idx.size,)
                                                        + base.shape[1:])
    expected = base.astype(np.float64)
    np.add.at(expected, idx, rows)
    scale = np.abs(base).astype(np.float64)
    np.add.at(scale, idx, np.abs(rows))
    n_dup = np.bincount(idx % len(base), minlength=1).max() if idx.size else 0
    bound = (n_dup + 1) * np.finfo(out.dtype).eps * scale
    assert (np.abs(out - expected) <= bound).all(), \
        np.abs(out - expected).max()


def _row_scatter_case(rng, n, num_rows, tail, dtype, index_dtype=np.int64):
    idx = rng.integers(0, num_rows, size=n).astype(index_dtype)
    values = rng.normal(size=(n,) + tail).astype(dtype)
    base = rng.normal(size=(num_rows,) + tail).astype(dtype)
    return base, idx, values


class TestScatterDispatch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", [
        "random", "empty", "single", "all-duplicate", "sorted", "int32",
        "1-d", "negative", "long-runs"])
    def test_numpy_scatter_matches_ufunc_at(self, dtype, case):
        rng = np.random.default_rng(0)
        base, idx, values = _row_scatter_case(rng, 40, 5, (4,), dtype)
        if case == "empty":
            idx, values = idx[:0], values[:0]
        elif case == "single":
            idx, values = idx[:1], values[:1]
        elif case == "all-duplicate":
            idx = np.full_like(idx, 3)
        elif case == "sorted":
            idx = np.sort(idx)
        elif case == "int32":
            idx = idx.astype(np.int32)
        elif case == "1-d":
            base, idx, values = _row_scatter_case(rng, 40, 5, (), dtype)
        elif case == "negative":
            idx = idx - 5 * (np.arange(len(idx)) % 2)   # -5..-1 wrap to 0..4
        elif case == "long-runs":
            # Enough bytes for several reduction blocks, runs longer than one.
            base, idx, values = _row_scatter_case(rng, 60_000, 3, (16,), dtype)
        out = base.copy()
        scatter_add_rows(out, idx, values)
        assert out.dtype == dtype
        assert_scatter_close(out, base, idx, values)
        if case == "empty":
            assert np.array_equal(out, base)

    @given(st.integers(0, 120), st.integers(1, 9), st.integers(0, 5),
           st.sampled_from([np.float32, np.float64]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_numpy_scatter_property(self, n, num_rows, cols, dtype, seed):
        """Within the bound for any input, in any order of its rows."""
        rng = np.random.default_rng(seed)
        base, idx, values = _row_scatter_case(rng, n, num_rows,
                                          (cols,) if cols else (), dtype)
        out = base.copy()
        scatter_add_rows(out, idx, values)
        assert_scatter_close(out, base, idx, values)
        perm = rng.permutation(n)
        again = base.copy()
        scatter_add_rows(again, idx[perm], values[perm])
        assert_scatter_close(again, base, idx, values)

    def test_sum_duplicate_rows_sorted_unique(self):
        idx = np.array([[4, 1], [4, 0]])
        values = np.arange(8.0).reshape(2, 2, 2)
        rows, sums = sum_duplicate_rows(idx, values)
        np.testing.assert_array_equal(rows, [0, 1, 4])
        np.testing.assert_array_equal(sums, [[6, 7], [2, 3], [4, 6]])

    def test_numpy_scatter_max_matches_ufunc_at(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 4)).astype(np.float32)
        idx = rng.integers(0, 5, size=12)
        expected_max = np.full((5, 4), -np.inf, np.float32)
        np.maximum.at(expected_max, idx, values)
        out_max = np.full((5, 4), -np.inf, np.float32)
        scatter_max_rows(out_max, idx, values)
        assert np.array_equal(out_max, expected_max)


# ----------------------------------------------------------------------
# elementwise chains under replay
# ----------------------------------------------------------------------
# Inputs are pre-squashed by sigmoid so log/sqrt stay in-domain and exp
# stays small.
CHAIN_OPS = {
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "exp": F.exp,
    "log": F.log,
    "sqrt": F.sqrt,
    "abs": F.abs_,
    "relu": F.relu,
    "leaky_relu": F.leaky_relu,
    "cos": F.cos,
    "clip": lambda t: F.clip(t, -0.9, 0.9),
    "neg": lambda t: -t,
    "mul_s": lambda t: t * 1.7,
    "pow": lambda t: t ** 2.0,
}


def _chain_step(op_names, weight):
    """A step whose tape ends in the run of elementwise ``op_names``."""
    def step(x):
        weight.zero_grad()
        h = F.sigmoid(Tensor(x) * weight)
        for name in op_names:
            h = CHAIN_OPS[name](h)
        loss = h.sum()
        loss.backward()
        return float(loss.item())
    return step


def _weight(dtype):
    return Tensor(np.linspace(-1.0, 1.0, 24, dtype=dtype).reshape(6, 4),
                  requires_grad=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(6))
def test_random_chain_matches_eager(dtype, seed):
    rng = np.random.default_rng(seed)
    names = list(rng.choice(sorted(CHAIN_OPS), size=rng.integers(1, 6)))
    xs = rng.normal(size=(3, 6, 4)).astype(dtype)

    w_eager = _weight(dtype)
    eager_step = _chain_step(names, w_eager)
    eager_losses = [eager_step(x) for x in xs]
    eager_grad = w_eager.grad.copy()

    w_comp = _weight(dtype)
    compiled = CompiledStep(_chain_step(names, w_comp))
    losses = [compiled(x, key="k") for x in xs]
    assert int(compiled.counters["replays"]) == len(xs) - 1
    assert losses == eager_losses
    assert np.array_equal(w_comp.grad, eager_grad)


@pytest.mark.parametrize("length", range(1, 6))
def test_chain_of_length_n(length):
    # Deterministic ladder: the chain grows one smooth op per case.
    names = ["tanh", "mul_s", "sigmoid", "neg", "exp"][:length]
    x = np.linspace(-2.0, 2.0, 24, dtype=np.float64).reshape(6, 4)

    w_eager = _weight(np.float64)
    step = _chain_step(names, w_eager)
    step(x)
    eager_loss = step(x)

    w_comp = _weight(np.float64)
    compiled = CompiledStep(_chain_step(names, w_comp))
    compiled(x, key="k")
    replayed_loss = compiled(x, key="k")
    assert int(compiled.counters["replays"]) == 1
    assert replayed_loss == eager_loss
    assert np.array_equal(w_comp.grad, w_eager.grad)


def test_replayed_chain_passes_gradcheck():
    names = ["tanh", "mul_s", "sigmoid"]
    x = np.linspace(-1.5, 1.5, 24, dtype=np.float64).reshape(6, 4)
    w = _weight(np.float64)
    compiled = CompiledStep(_chain_step(names, w))
    compiled(x, key="k")
    compiled(x, key="k")                       # replayed call
    assert int(compiled.counters["replays"]) == 1

    from repro.nn.autograd import no_grad

    def loss_value():
        with no_grad():
            h = F.sigmoid(Tensor(x) * w)
            for name in names:
                h = CHAIN_OPS[name](h)
            return float(h.sum().item())

    numeric = numeric_gradient(loss_value, w.data, eps=1e-6)
    np.testing.assert_allclose(w.grad, numeric, atol=1e-6, rtol=1e-5)


def test_broadcast_mul_chain_matches_eager():
    # A mul against a constant row vector broadcasts.
    row = Tensor(np.linspace(0.5, 1.5, 4).reshape(1, 4), requires_grad=False)

    def make(weight):
        def step(x):
            weight.zero_grad()
            h = F.sigmoid(Tensor(x) * weight) * row
            loss = F.tanh(h).sum()
            loss.backward()
            return float(loss.item())
        return step

    x = np.linspace(-1.0, 1.0, 24, dtype=np.float64).reshape(6, 4)
    w_eager = _weight(np.float64)
    eager = [make(w_eager)(x) for _ in range(2)]
    w_comp = _weight(np.float64)
    compiled = CompiledStep(make(w_comp))
    assert [compiled(x, key="k") for _ in range(2)] == eager
    assert np.array_equal(w_comp.grad, w_eager.grad)
