"""Kernel backends (repro.nn.backends): registry, codegen, equivalence.

Three contracts:

* the registry resolves names safely — unknown names raise, an
  unavailable backend falls back to numpy with one warning, and the
  active-backend scatter dispatch restores cleanly;
* the fused-chain code generator is correct — random chains of every
  chain-compilable op, executed through the ``pyloop`` backend (the
  same generated source numba jits), reproduce eager gradients at both
  float32 and float64, including a finite-difference gradcheck;
* the jitted numba kernels are drop-in twins of the numpy primitives —
  forward data and VJP grads match under dtype-scaled tolerances, and
  with numba absent everything stays bit-identical to the baseline.

The numba-only tests are skipped when the optional dependency is
missing (the default CI job); the dedicated numba job runs them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import CompiledStep, Tensor, backends, functional as F
from repro.nn.backends import chaingen, numba_backend
from repro.nn.compile import _FusedChain

from .conftest import numeric_gradient

needs_numba = pytest.mark.skipif(not backends.numba_available(),
                                 reason="numba not installed")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_backend_is_singleton(self):
        assert backends.get_backend("numpy") is backends.get_backend("numpy")
        assert backends.get_backend("numpy").name == "numpy"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backends.get_backend("cuda")
        with pytest.raises(ValueError):
            backends.resolve_backend("cuda")

    def test_available_backends_shape(self):
        avail = backends.available_backends()
        assert set(avail) == set(backends.BACKEND_NAMES)
        assert avail["numpy"] is True and avail["pyloop"] is True
        assert avail["numba"] == backends.numba_available()

    def test_resolve_none_is_active_backend(self):
        assert backends.resolve_backend(None) is backends.active_backend()
        with backends.use_backend("pyloop"):
            assert backends.resolve_backend(None).name == "pyloop"
        assert backends.resolve_backend(None).name == "numpy"

    def test_resolve_instance_passthrough(self):
        instance = backends.get_backend("pyloop")
        assert backends.resolve_backend(instance) is instance

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with backends.use_backend("pyloop"):
                raise RuntimeError("boom")
        assert backends.active_backend().name == "numpy"


def assert_scatter_close(out, base, idx, values):
    """``out == base`` with ``base[idx] += values`` to ``n_dup * eps``.

    The reference is ``np.add.at`` in float64.  A cell that receives
    ``n`` rows is a sum of ``n + 1`` terms, and any summation order
    rounds it within ``n * eps * (|base| + sum of |rows|)`` — the bound
    every backend's ``scatter_add_rows`` is held to (none promises
    ``np.add.at``'s bits: numpy sums each run of duplicates first, the
    numba kernel adds row by row).
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
        backends.scatter_add_rows(out, idx, values)
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
        backends.scatter_add_rows(out, idx, values)
        assert_scatter_close(out, base, idx, values)
        perm = rng.permutation(n)
        again = base.copy()
        backends.scatter_add_rows(again, idx[perm], values[perm])
        assert_scatter_close(again, base, idx, values)

    def test_sum_duplicate_rows_sorted_unique(self):
        idx = np.array([[4, 1], [4, 0]])
        values = np.arange(8.0).reshape(2, 2, 2)
        rows, sums = backends.sum_duplicate_rows(idx, values)
        np.testing.assert_array_equal(rows, [0, 1, 4])
        np.testing.assert_array_equal(sums, [[6, 7], [2, 3], [4, 6]])

    def test_numpy_scatter_max_matches_ufunc_at(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 4)).astype(np.float32)
        idx = rng.integers(0, 5, size=12)
        expected_max = np.full((5, 4), -np.inf, np.float32)
        np.maximum.at(expected_max, idx, values)
        out_max = np.full((5, 4), -np.inf, np.float32)
        backends.scatter_max_rows(out_max, idx, values)
        assert np.array_equal(out_max, expected_max)


# ----------------------------------------------------------------------
# fused-chain codegen, exercised through the pyloop backend
# ----------------------------------------------------------------------
# Every op here lowers through CHAIN_BUILDERS; inputs are pre-squashed
# by sigmoid so log/sqrt stay in-domain and exp stays small.
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
    """A step whose backward fuses ``op_names`` into one chain."""
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


def _fused_kernels(compiled, key):
    return [item.kernel for item in compiled._programs[key].items
            if isinstance(item, _FusedChain)]


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
    compiled = CompiledStep(_chain_step(names, w_comp), backend="pyloop")
    losses = [compiled(x, key="k") for x in xs]
    assert compiled.stats()["replays"] == len(xs) - 1

    kernels = [k for k in _fused_kernels(compiled, "k") if k is not None]
    assert kernels, f"no compiled chain for {names}"
    tol = 1e-5 if dtype is np.float32 else 1e-12
    np.testing.assert_allclose(losses, eager_losses, rtol=tol)
    np.testing.assert_allclose(w_comp.grad, eager_grad, rtol=tol, atol=tol)


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
    compiled = CompiledStep(_chain_step(names, w_comp), backend="pyloop")
    compiled(x, key="k")
    replayed_loss = compiled(x, key="k")
    assert compiled.stats()["replays"] == 1
    assert any(k is not None for k in _fused_kernels(compiled, "k"))
    assert replayed_loss == pytest.approx(eager_loss, rel=1e-12)
    np.testing.assert_allclose(w_comp.grad, w_eager.grad, rtol=1e-12)


def test_replayed_chain_passes_gradcheck():
    names = ["tanh", "mul_s", "sigmoid"]
    x = np.linspace(-1.5, 1.5, 24, dtype=np.float64).reshape(6, 4)
    w = _weight(np.float64)
    compiled = CompiledStep(_chain_step(names, w), backend="pyloop")
    compiled(x, key="k")
    compiled(x, key="k")                       # replayed call
    assert compiled.stats()["replays"] == 1

    from repro.nn.autograd import no_grad

    def loss_value():
        with no_grad():
            h = F.sigmoid(Tensor(x) * w)
            for name in names:
                h = CHAIN_OPS[name](h)
            return float(h.sum().item())

    numeric = numeric_gradient(loss_value, w.data, eps=1e-6)
    np.testing.assert_allclose(w.grad, numeric, atol=1e-6, rtol=1e-5)


def test_numpy_backend_stays_bit_identical():
    names = ["sigmoid", "tanh", "mul_s"]
    x = np.linspace(-1.0, 1.0, 24, dtype=np.float32).reshape(6, 4)
    w_eager = _weight(np.float32)
    step = _chain_step(names, w_eager)
    losses = [step(x) for _ in range(3)]
    w_comp = _weight(np.float32)
    compiled = CompiledStep(_chain_step(names, w_comp), backend="numpy")
    assert [compiled(x, key="k") for _ in range(3)] == losses
    assert np.array_equal(w_comp.grad, w_eager.grad)


def test_broadcast_mul_falls_back_to_ew_path():
    # A mul against a row vector broadcasts: plan_chain returns None and
    # the chain stays on the numpy ew path, still matching eager.
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
    compiled = CompiledStep(make(w_comp), backend="pyloop")
    assert [compiled(x, key="k") for _ in range(2)] == eager
    assert np.array_equal(w_comp.grad, w_eager.grad)


def test_chain_source_shared_across_constants():
    # Two chains that differ only in the mul constant share one variant
    # signature (the scalar is a runtime argument, not baked in).
    members_a = [("mul", ((6, 4), (1, 1)), 0, (6, 4)), ("tanh", ((6, 4),), 0, (6, 4))]
    plans_a = chaingen.plan_chain(members_a)
    plans_b = chaingen.plan_chain(members_a)
    assert (chaingen.chain_signature(plans_a, np.float32)
            == chaingen.chain_signature(plans_b, np.float32))
    assert (chaingen.chain_signature(plans_a, np.float32)
            != chaingen.chain_signature(plans_a, np.float64))
    source = chaingen.render_source(plans_a)
    assert "def _chain_kernel(src, dst, s0_0, a1, s1_0):" in source


# ----------------------------------------------------------------------
# kernel profiling
# ----------------------------------------------------------------------
def test_profile_collects_per_kernel_seconds():
    x = np.linspace(-1.0, 1.0, 24, dtype=np.float32).reshape(6, 4)
    w = _weight(np.float32)
    compiled = CompiledStep(_chain_step(["tanh"], w), profile=True)
    compiled(x, key="k")
    compiled(x, key="k")
    kernels = compiled.stats()["kernels"]
    assert kernels is not None
    labels = set(kernels)
    assert any(label.startswith("fwd:") for label in labels)
    assert any(label.startswith("chain:") or label.startswith("bwd:")
               for label in labels)
    for entry in kernels.values():
        assert entry["calls"] >= 1 and entry["seconds"] >= 0.0


def test_profile_off_by_default():
    w = _weight(np.float32)
    compiled = CompiledStep(_chain_step([], w))
    compiled(np.ones((6, 4), np.float32), key="k")
    assert compiled.stats()["kernels"] is None


# ----------------------------------------------------------------------
# fallback when numba is absent
# ----------------------------------------------------------------------
class TestNumbaFallback:
    @pytest.fixture
    def no_numba(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "numba", None)
        monkeypatch.setattr(backends, "_INSTANCES",
                            {"numpy": backends.get_backend("numpy")})
        monkeypatch.setattr(backends, "_WARNED", set())

    def test_get_backend_raises(self, no_numba):
        with pytest.raises(backends.BackendUnavailable):
            backends.get_backend("numba")

    def test_resolve_warns_once_and_falls_back(self, no_numba):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert backends.resolve_backend("numba").name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backends.resolve_backend("numba").name == "numpy"

    def test_compiled_step_with_numba_config_is_numpy_identical(
            self, no_numba):
        x = np.linspace(-1.0, 1.0, 24, dtype=np.float32).reshape(6, 4)
        w_ref = _weight(np.float32)
        reference = CompiledStep(_chain_step(["tanh", "sigmoid"], w_ref),
                                 backend="numpy")
        ref_losses = [reference(x, key="k") for _ in range(3)]

        w = _weight(np.float32)
        with pytest.warns(RuntimeWarning):
            compiled = CompiledStep(_chain_step(["tanh", "sigmoid"], w),
                                    backend="numba")
        assert compiled.backend.name == "numpy"
        assert compiled.stats()["backend"] == {"requested": "numba",
                                               "active": "numpy"}
        assert [compiled(x, key="k") for _ in range(3)] == ref_losses
        assert np.array_equal(w.grad, w_ref.grad)


# ----------------------------------------------------------------------
# numba kernel equivalence (runs only on the numba CI job)
# ----------------------------------------------------------------------
def _scatter_case(dtype, rows=40, cols=8, groups=7, seed=3):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)).astype(dtype)
    # Include an empty group and duplicate hits.
    group_ids = rng.integers(0, groups - 1, size=rows)
    params = {"groups": group_ids, "num_groups": groups}
    return values, params


@needs_numba
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("prim_name", ["scatter_sum", "scatter_mean",
                                       "scatter_max"])
def test_numba_scatter_kernels_match_numpy(prim_name, dtype):
    prim = {"scatter_sum": F._SCATTER_SUM, "scatter_mean": F._SCATTER_MEAN,
            "scatter_max": F._SCATTER_MAX}[prim_name]
    backend = backends.get_backend("numba")
    fwd = backend.fwd_kernel(prim)
    vjp = backend.vjp_kernel(prim)
    assert fwd is not None and vjp is not None

    values, params = _scatter_case(dtype)
    ref_data, ref_ctx = prim.fwd((values,), params, True, None)
    nb_data, nb_ctx = fwd((values,), params, True, None)
    tol = 1e-5 if dtype is np.float32 else 1e-12
    np.testing.assert_allclose(nb_data, ref_data, rtol=tol, atol=tol)

    grad = np.random.default_rng(9).normal(
        size=ref_data.shape).astype(dtype)
    (ref_grad,) = prim.vjp(ref_ctx, grad, (True,), params)
    (nb_grad,) = vjp(nb_ctx, grad, (True,), params)
    np.testing.assert_allclose(nb_grad, ref_grad, rtol=tol, atol=tol)


@needs_numba
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numba_sigmoid_matches_numpy(dtype):
    backend = backends.get_backend("numba")
    fwd = backend.fwd_kernel(F._SIGMOID)
    x = np.linspace(-600.0, 600.0, 101, dtype=dtype).reshape(1, -1)
    ref_data, _ = F._SIGMOID.fwd((x,), {}, False, None)
    nb_data, _ = fwd((x,), {}, False, None)
    tol = 1e-6 if dtype is np.float32 else 1e-14
    np.testing.assert_allclose(nb_data, ref_data, rtol=tol, atol=tol)


@needs_numba
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numba_scatter_rows_override_matches_add_at(dtype):
    """The sequential jitted kernel is held to the same ``n_dup * eps``
    tolerance as the numpy backend's sorted reduction, not to bits."""
    backend = backends.get_backend("numba")
    base, idx, values = _row_scatter_case(np.random.default_rng(1), 30, 9,
                                          (5,), dtype)
    out = base.copy()
    backend.scatter_add_rows(out, idx, values)
    assert_scatter_close(out, base, idx, values)
    # Layouts the kernel declines (here N-d indices) take the numpy path.
    out = base.copy()
    backend.scatter_add_rows(out, idx.reshape(5, 6), values.reshape(5, 6, 5))
    assert_scatter_close(out, base, idx, values)


@needs_numba
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(4))
def test_numba_chain_matches_eager(dtype, seed):
    rng = np.random.default_rng(seed)
    names = list(rng.choice(sorted(CHAIN_OPS), size=rng.integers(1, 6)))
    xs = rng.normal(size=(3, 6, 4)).astype(dtype)

    w_eager = _weight(dtype)
    step = _chain_step(names, w_eager)
    eager_losses = [step(x) for x in xs]
    eager_grad = w_eager.grad.copy()

    w_comp = _weight(dtype)
    compiled = CompiledStep(_chain_step(names, w_comp), backend="numba")
    losses = [compiled(x, key="k") for x in xs]
    assert any(k is not None for k in _fused_kernels(compiled, "k"))
    tol = 1e-5 if dtype is np.float32 else 1e-12
    np.testing.assert_allclose(losses, eager_losses, rtol=tol)
    np.testing.assert_allclose(w_comp.grad, eager_grad, rtol=tol, atol=tol)


@needs_numba
def test_numba_warmup_compiles_table():
    backends.get_backend("numba").warmup()
