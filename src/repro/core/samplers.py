"""The structural-temporal subgraph sampler (paper §IV-A), batch-first.

* :class:`EtaBFSSampler` — breadth-first expansion where each hop draws up
  to η distinct neighbours with a temporal-aware probability (Eq. 6–8).
  Run with the chronological probability it yields the temporal *positive*
  subgraph ``TP_i^t``; with the reverse chronological probability the
  *negative* subgraph ``TN_i^t``.
* :class:`EpsilonDFSSampler` — depth-first-style expansion that keeps the
  ε most recently interacted neighbours at every step (Eq. 5), yielding
  the structural subgraphs ``SP_i^t`` / ``SN_{i'}^t``.

Both samplers expand whole frontiers per hop: ``sample_batch(roots, ts)``
queries the :class:`~repro.graph.neighbor_finder.NeighborFinder` CSR
arrays for every frontier node at once and returns an offset-indexed
:class:`SubgraphBatch`.  Per-root ``sample`` is row 0 of a one-row batch;
the per-root Python walks the batch kernels are checked against live in
``tests/test_batch_sampling.py``.

The η-BFS draw — η neighbours *without replacement* with probability
∝ ``w = softmax(recency / τ)`` per frontier occurrence — is distributed
exactly as a per-root ``choice(replace=False, p=probs)`` and picks
one of three regimes from the occurrence's candidate count ``deg``
alone (no option selects between them):

* ``deg <= η`` — keep the whole non-zero support; nothing to draw.
* ``η < deg <= RACE_MAX_WIDTH`` — exponential race (Efraimidis–Spirakis):
  score every candidate, keep the η smallest ``Exp(1) / w_u``.
  ``O(deg)``, but as a few dense numpy passes it wins on short rows.
* ``deg > RACE_MAX_WIDTH`` — *successive sampling*: draw i.i.d. ∝ ``w``,
  discard repeats, stop at η distinct.  The first time each entry shows
  up in an i.i.d. stream is the arrival order of an exponential race
  with rates ``w`` (a Poisson process thinned by entry), so the first η
  distinct entries are the race's η winners — the same law, without
  touching the losers.  ``times`` is sorted inside a CSR slice, so
  Eq. 7/8 weights are monotone in position; the newest (chronological)
  or oldest (reverse) entry of an ``ENVELOPE_BLOCK``-wide block bounds
  the block, one i.i.d. draw is "pick a block from the per-occurrence
  block CDF, an entry inside it, accept with ``w_u / w_block_max``"
  (≈ 0.9 at τ = 0.2 from 8 blocks up), and an occurrence costs
  ``deg / B`` weight evaluations plus ``O(η)`` proposals instead of
  ``deg``.  A hub item of degree 3 000 reached by 300 rows of a batch is
  no longer scored 300 × 3 000 times.

``RACE_MAX_WIDTH`` (R) and ``ENVELOPE_BLOCK`` (B) are constants because
the crossover is a property of numpy pass overhead, not of the data.
Producer-only η-BFS time (η = 10, depth 2, 2 cores, median of 9
interleaved runs) on the bench's hub stream / ``amazon:beauty``:
R = 32 / 64 / 128 / 256 / 512 → 162 / 142 / 135 / 139 / 171 ms and
354 / 275 / 288 / 458 / 585 ms (flat over 64…128, slower either side);
B = 16 / 32 / 64 / 128 / 256 at R = 128 → 154 / 135 / 135 / 139 / 150 ms
on the hub stream (flat over 32…128).

Both samplers are parameter-free, so :class:`PrecomputedSampler` can cache
subgraphs keyed by ``(root, t)`` (paper §IV-A last paragraph).  Measured,
the cache makes production slower, never faster, so
``CPDGConfig.precompute_samplers`` leaves it off by default.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import obs as _obs
from ..graph.neighbor_finder import NeighborFinder
from .probability import PROBABILITY_FUNCTIONS, segment_log_weights

__all__ = ["SubgraphBatch", "EtaBFSSampler", "EpsilonDFSSampler",
           "PrecomputedSampler"]

# R: widest candidate segment that still runs the dense exponential race.
# B: entries per block of the successive-sampling envelope.  Both sit in
# the middle of a measured plateau (module docstring: R flat over 64…128,
# B over 32…128), so neither is an option.
RACE_MAX_WIDTH = 128
ENVELOPE_BLOCK = 64
# Proposal rounds (2η proposals each) before a wide occurrence falls back
# to an explicit draw over its unpicked entries.  At τ = 0.2 two rounds
# finish > 99 % of occurrences; only weights so skewed that repeats
# dominate (a few entries holding all but e^-50 of the mass) get here.
_MAX_ROUNDS = 8

_OCCURRENCES = {
    path: _obs.counter(
        "repro_sampler_eta_bfs_occurrences_total", labels={"path": path},
        help="frontier occurrences expanded by the eta-BFS draw, by regime")
    for path in ("whole", "race", "wide")}


@dataclass
class SubgraphBatch:
    """Offset-indexed batch of sampled subgraphs.

    Row ``i``'s node ids are the flat slice
    ``nodes[indptr[i]:indptr[i + 1]]`` — the same CSR layout the
    :class:`~repro.graph.neighbor_finder.NeighborFinder` uses, so readouts
    can scatter over ``(nodes, groups())`` without materialising per-row
    lists.  Iterating yields one id array per row, which keeps the batch a
    drop-in replacement for ``list[np.ndarray]`` callers.
    """

    nodes: np.ndarray
    indptr: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        return (self.row(i) for i in range(len(self)))

    def row(self, i: int) -> np.ndarray:
        return self.nodes[self.indptr[i]:self.indptr[i + 1]]

    def counts(self) -> np.ndarray:
        """Subgraph size per row."""
        return np.diff(self.indptr)

    def groups(self) -> np.ndarray:
        """Row index of every flat node — the scatter key for readouts."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.counts())

    @classmethod
    def from_list(cls, subgraphs: list[np.ndarray]) -> "SubgraphBatch":
        indptr = np.zeros(len(subgraphs) + 1, dtype=np.int64)
        np.cumsum([len(sub) for sub in subgraphs], out=indptr[1:])
        nodes = (np.concatenate(subgraphs) if len(subgraphs)
                 else np.empty(0, dtype=np.int64))
        return cls(np.asarray(nodes, dtype=np.int64), indptr)


def _assemble(picks_rows: list[np.ndarray], picks_nodes: list[np.ndarray],
              roots: np.ndarray, num_nodes: int) -> SubgraphBatch:
    """Collapse per-hop picks into first-occurrence-unique rows sans roots.

    Replicates the per-root ``seen`` bookkeeping: within each row, keep the
    first occurrence of every node in global pick order and drop the root.
    """
    batch = len(roots)
    if not picks_rows:
        return SubgraphBatch(np.empty(0, dtype=np.int64),
                             np.zeros(batch + 1, dtype=np.int64))
    rows = np.concatenate(picks_rows)
    nodes = np.concatenate(picks_nodes)
    not_root = nodes != roots[rows]
    rows, nodes = rows[not_root], nodes[not_root]
    _, first = np.unique(rows * num_nodes + nodes, return_index=True)
    keep = np.sort(first)
    rows, nodes = rows[keep], nodes[keep]
    order = np.argsort(rows, kind="stable")
    rows, nodes = rows[order], nodes[order]
    indptr = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=batch), out=indptr[1:])
    return SubgraphBatch(nodes, indptr)


class EtaBFSSampler:
    """η-BFS sampling with a temporal-aware probability.

    Parameters
    ----------
    eta:
        Neighbours drawn per expanded node (sampling width).
    depth:
        Hops ``k`` (sampling depth).
    probability:
        One of ``"chronological"``, ``"reverse"`` or ``"uniform"``
        (:data:`~repro.core.probability.PROBABILITY_FUNCTIONS`).
    tau:
        Softmax temperature of Eq. 7/8.
    """

    def __init__(self, finder: NeighborFinder, eta: int, depth: int,
                 probability: str = "chronological", tau: float = 0.2,
                 seed: int = 0):
        if eta < 1 or depth < 1:
            raise ValueError("eta and depth must be positive")
        if not isinstance(probability, str) \
                or probability not in PROBABILITY_FUNCTIONS:
            raise ValueError(f"unknown probability mode {probability!r}; "
                             f"expected one of {tuple(PROBABILITY_FUNCTIONS)}")
        self.finder = finder
        self.eta = eta
        self.depth = depth
        self.tau = tau
        self.mode = probability
        self.probability = PROBABILITY_FUNCTIONS[probability]
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # batched kernel
    # ------------------------------------------------------------------
    def sample_batch(self, roots: np.ndarray, ts: np.ndarray,
                     rng: np.random.Generator | None = None) -> SubgraphBatch:
        """Draw one η-BFS subgraph per ``(root, t)`` row, whole-frontier.

        Rows are expanded hop-by-hop together; each hop is a batched CSR
        cut query plus one :meth:`_expand_hop` draw over all neighbour
        segments — a handful of numpy passes, no per-segment sort.  Rows
        with no history before ``t`` come back empty.

        ``rng`` overrides the sampler's own (shared, order-dependent)
        generator; batch producers pass one derived from
        ``(seed, epoch, batch_idx)`` so a batch's draw is independent of
        every other batch.
        """
        rng = rng if rng is not None else self._rng
        roots = np.asarray(roots, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        f_nodes, f_rows = roots, np.arange(len(roots), dtype=np.int64)
        picks_rows: list[np.ndarray] = []
        picks_nodes: list[np.ndarray] = []
        for _ in range(self.depth):
            if len(f_nodes) == 0:
                break
            starts, ends = self.finder.batch_before(f_nodes, ts[f_rows])
            nz = ends > starts
            if not nz.any():
                break
            picked_nodes, picked_rows = self._expand_hop(
                starts[nz], ends[nz], f_rows[nz], ts, rng)
            if len(picked_nodes) == 0:
                break
            picks_rows.append(picked_rows)
            picks_nodes.append(picked_nodes)
            f_nodes, f_rows = picked_nodes, picked_rows
        return _assemble(picks_rows, picks_nodes, roots, self.finder.num_nodes)

    def _expand_hop(self, starts: np.ndarray, ends: np.ndarray,
                    rows: np.ndarray, ts: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw up to η neighbours for every frontier occurrence at once.

        Three regimes, selected by each occurrence's candidate count
        ``deg`` alone (module docstring): ``deg <= η`` keeps its whole
        non-zero support, ``η < deg <= RACE_MAX_WIDTH`` runs the dense
        exponential race, anything wider draws by successive sampling
        under a block envelope.  Segments wider than a race row are first
        cut down to their non-zero support, so for them ``deg`` *is* the
        support size and the clamp ``min(η, support)`` falls out of the
        regime choice.
        """
        qts = ts[rows]
        t_min = self.finder.times[starts]  # min T_i^t: slices are sorted
        broad = ends - starts > RACE_MAX_WIDTH
        if broad.any():
            starts, ends = starts.copy(), ends.copy()
            starts[broad], ends[broad] = self._support(
                starts[broad], ends[broad], qts[broad], t_min[broad])
        deg = ends - starts
        whole = deg <= self.eta  # wins over "wide" when η >= RACE_MAX_WIDTH
        wide = ~whole & (deg > RACE_MAX_WIDTH)
        flat: list[np.ndarray] = []
        occ: list[np.ndarray] = []
        for path, sel, draw in (("whole", whole, self._take_whole),
                                ("race", ~(whole | wide), self._race),
                                ("wide", wide, self._successive)):
            idx = np.nonzero(sel)[0]
            _OCCURRENCES[path].inc(len(idx))
            if len(idx):
                picked, owner = draw(starts[idx], deg[idx], qts[idx],
                                     t_min[idx], rng)
                flat.append(picked)
                occ.append(idx[owner])
        return (self.finder.neighbors[np.concatenate(flat)],
                rows[np.concatenate(occ)])

    def _log_weights(self, flat: np.ndarray, qts: np.ndarray,
                     t_min: np.ndarray) -> np.ndarray:
        """Eq. 6–8 log-weights of the CSR entries ``flat``."""
        return segment_log_weights(self.finder.times[flat], qts, t_min,
                                   self.tau, self.mode)

    def _support(self, starts: np.ndarray, ends: np.ndarray, qts: np.ndarray,
                 t_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cut segments down to where the max-shifted softmax is non-zero.

        Weights are monotone in position, so the support is a run that
        touches the heavy end (newest for chronological, oldest for
        reverse) and its other edge is one bisection on the same
        ``exp(logw - max) > 0`` test the narrow regimes apply per entry.
        """
        head = self._log_weights(starts, qts, t_min)
        tail = self._log_weights(ends - 1, qts, t_min)
        clipped = np.nonzero(np.exp(-np.abs(tail - head)) == 0.0)[0]
        if len(clipped) == 0:
            return starts, ends
        starts, ends = starts.copy(), ends.copy()
        reverse = self.mode == "reverse"
        top = np.maximum(head, tail)[clipped]
        c_t, c_min, last = qts[clipped], t_min[clipped], ends[clipped] - 1
        # First live entry (chronological) / first dead one (reverse).
        lo, hi = starts[clipped], ends[clipped]
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            live = np.exp(self._log_weights(np.minimum(mid, last), c_t, c_min)
                          - top) > 0.0
            go_right = (live == reverse) & (lo < hi)
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(go_right, hi, mid)
        (ends if reverse else starts)[clipped] = lo
        return starts, ends

    def _padded_weights(self, starts: np.ndarray, deg: np.ndarray,
                        qts: np.ndarray, t_min: np.ndarray,
                        width: int) -> np.ndarray:
        """Sampling weights of each occurrence's candidates, one row each.

        Row ``k`` holds the max-shifted softmax numerators of the CSR
        entries ``starts[k] + [0, deg[k])`` — exact up to a per-row
        positive constant, which both the race draw and the support test
        are invariant to — and ``0`` in the padding up to ``width``.
        Entries that underflow to zero mark the outside of the non-zero
        support (the draw-size clamp the per-root path applies via
        ``count_nonzero``).  ``t_min`` is each occurrence's ``min T_i^t``
        (passed in: a support-clamped segment no longer starts at it).
        """
        col = np.arange(width, dtype=np.int64)
        last = deg[:, None] - 1
        logw = self._log_weights(starts[:, None] + np.minimum(col, last),
                                 qts[:, None], t_min[:, None])
        logw[col > last] = -np.inf
        with np.errstate(invalid="ignore"):
            return np.exp(logw - logw.max(axis=1, keepdims=True))

    def _take_whole(self, starts: np.ndarray, deg: np.ndarray,
                    qts: np.ndarray, t_min: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``deg <= η``: no randomness, keep every non-zero-weight entry.

        Zero-weight entries (softmax underflow at sharp τ) are never
        drawn by ``choice(p=...)``, so the reference draw size is
        ``min(η, support) = support`` here.
        """
        weights = self._padded_weights(starts, deg, qts, t_min,
                                       int(deg.max()))
        owner, col = np.nonzero(weights > 0.0)
        return starts[owner] + col, owner

    def _race(self, starts: np.ndarray, deg: np.ndarray, qts: np.ndarray,
              t_min: np.ndarray, rng: np.random.Generator
              ) -> tuple[np.ndarray, np.ndarray]:
        """``η < deg <= RACE_MAX_WIDTH``: dense exponential race.

        The η smallest ``Exp(1) / w_u`` are exactly a without-replacement
        sample ∝ ``w`` (Efraimidis–Spirakis).  Occurrences race in padded
        ``(occurrences, width)`` weight matrices, one per ceil-pow2
        degree class so padding never exceeds 2x, and one row-wise
        ``argpartition`` keeps the winners; padding and zero-weight
        entries race at ``inf`` and are dropped, which is the support
        clamp.
        """
        exps = np.ceil(np.log2(deg)).astype(np.int64)
        flat: list[np.ndarray] = []
        occ: list[np.ndarray] = []
        for exp in np.unique(exps):
            members = np.nonzero(exps == exp)[0]
            weights = self._padded_weights(starts[members], deg[members],
                                           qts[members], t_min[members],
                                           1 << int(exp))
            race = rng.exponential(size=weights.shape)
            with np.errstate(divide="ignore", over="ignore"):
                race /= weights
            part = np.argpartition(race, self.eta - 1, axis=1)[:, :self.eta]
            ok = np.isfinite(np.take_along_axis(race, part, axis=1))
            flat.append((starts[members][:, None] + part)[ok])
            occ.append(members[np.nonzero(ok)[0]])
        return np.concatenate(flat), np.concatenate(occ)

    def _successive(self, starts: np.ndarray, deg: np.ndarray,
                    qts: np.ndarray, t_min: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``deg > RACE_MAX_WIDTH``: successive sampling, O(η + deg/B).

        I.i.d. draws ∝ ``w`` with repeats discarded, kept in draw order
        until η are distinct, are distributed exactly as sequential
        without-replacement sampling.  One i.i.d. draw is one rejection
        step: pick a ``ENVELOPE_BLOCK``-wide block ∝ ``size * w_max`` from
        a per-occurrence block CDF, an entry uniformly inside it, and
        accept with ``w_u / w_max`` — ``w_max`` being the block's newest
        (chronological) or oldest (reverse) entry because weights are
        monotone in position.  Every occurrence gets 2η proposals per
        round; the rare ones still short after ``_MAX_ROUNDS`` rounds
        (weights so skewed that repeats dominate) finish by an explicit
        without-replacement draw over what they have not picked yet.
        """
        count, eta = len(starts), self.eta
        ends = starts + deg
        blocks = -(-deg // ENVELOPE_BLOCK)
        b_off = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(blocks, out=b_off[1:])
        b_occ = np.repeat(np.arange(count, dtype=np.int64), blocks)
        b_first = starts[b_occ] + ENVELOPE_BLOCK * (
            np.arange(b_off[-1], dtype=np.int64) - b_off[b_occ])
        b_size = np.minimum(ENVELOPE_BLOCK, ends[b_occ] - b_first)
        heavy = b_first if self.mode == "reverse" \
            else b_first + b_size - 1
        envelope = self._log_weights(heavy, qts[b_occ], t_min[b_occ])
        top = np.maximum.reduceat(envelope, b_off[:-1])
        mass = b_size * np.exp(envelope - top[b_occ])
        # One global CDF; each occurrence owns the stretch (base, base+span].
        cdf = np.cumsum(mass / np.add.reduceat(mass, b_off[:-1])[b_occ])
        base = np.concatenate(([0.0], cdf[b_off[1:-1] - 1]))
        span = cdf[b_off[1:] - 1] - base

        # picked[k] holds occurrence k's distinct draws in draw order.
        picked = np.full((count, eta), -1, dtype=np.int64)
        active = np.arange(count, dtype=np.int64)
        for _ in range(_MAX_ROUNDS):
            u_block, u_entry, u_accept = rng.random((3, len(active), 2 * eta))
            block = np.searchsorted(
                cdf, base[active, None] + u_block * span[active, None],
                side="right")
            block = np.minimum(block, b_off[active + 1][:, None] - 1)
            entry = b_first[block] + (u_entry * b_size[block]).astype(np.int64)
            logw = self._log_weights(entry, qts[active, None],
                                     t_min[active, None])
            accepted = u_accept < np.exp(logw - envelope[block])
            # Earlier picks, then this round's accepted draws; keep the
            # first η distinct values of each row in that order.
            cand = np.concatenate(
                [picked[active], np.where(accepted, entry, -1)], axis=1)
            order = np.argsort(cand, axis=1, kind="stable")
            ranked = np.take_along_axis(cand, order, axis=1)
            fresh = ranked >= 0
            fresh[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
            keep = np.empty_like(fresh)
            np.put_along_axis(keep, order, fresh, axis=1)
            rank = np.cumsum(keep, axis=1)
            keep &= rank <= eta
            at_row, at_col = np.nonzero(keep)
            picked[active[at_row], rank[at_row, at_col] - 1] = \
                cand[at_row, at_col]
            active = active[rank[:, -1] < eta]
            if len(active) == 0:
                break
        for k in active:
            have = picked[k][picked[k] >= 0]
            logw = self._log_weights(np.arange(starts[k], ends[k]),
                                     qts[k], t_min[k])
            logw[have - starts[k]] = -np.inf
            w = np.exp(logw - logw.max())
            probs = w / w.sum()
            size = min(eta - len(have), int(np.count_nonzero(probs)))
            picked[k, len(have):len(have) + size] = starts[k] + rng.choice(
                len(probs), size=size, replace=False, p=probs)
        drawn = picked >= 0
        return picked[drawn], np.nonzero(drawn)[0]

    # ------------------------------------------------------------------
    # per-root paths
    # ------------------------------------------------------------------
    def sample(self, root: int, t: float) -> np.ndarray:
        """Return the sampled subgraph's node ids (root excluded).

        Nodes are unique; the array is empty when the root has no history
        before ``t``.  Thin wrapper over :meth:`sample_batch`.
        """
        return self.sample_batch(np.array([root], dtype=np.int64),
                                 np.array([t], dtype=np.float64)).row(0)


class EpsilonDFSSampler:
    """ε-DFS sampling: expand through the ε most recent neighbours (Eq. 5)."""

    def __init__(self, finder: NeighborFinder, epsilon: int, depth: int):
        if epsilon < 1 or depth < 1:
            raise ValueError("epsilon and depth must be positive")
        self.finder = finder
        self.epsilon = epsilon
        self.depth = depth

    def sample_batch(self, roots: np.ndarray, ts: np.ndarray,
                     rng: np.random.Generator | None = None) -> SubgraphBatch:
        """Draw one ε-DFS subgraph per ``(root, t)`` row, whole-frontier.

        Deterministic: agrees element-for-element (ids *and* order) with
        a per-root walk over ``finder.most_recent``.  ``rng`` is accepted
        (and ignored) so both samplers share one batch interface.
        """
        roots = np.asarray(roots, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        f_nodes, f_rows = roots, np.arange(len(roots), dtype=np.int64)
        picks_rows: list[np.ndarray] = []
        picks_nodes: list[np.ndarray] = []
        for _ in range(self.depth):
            if len(f_nodes) == 0:
                break
            slots = self.finder.batch_most_recent(f_nodes, ts[f_rows],
                                                  self.epsilon)
            real = ~slots.dummy
            # Slots run in frontier order, then chronologically within
            # each frontier node — the reference pick order.
            picked_nodes = slots.neighbors[real]
            if len(picked_nodes) == 0:
                break
            picked_rows = f_rows[slots.rows[real]]
            picks_rows.append(picked_rows)
            picks_nodes.append(picked_nodes)
            f_nodes, f_rows = picked_nodes, picked_rows
        return _assemble(picks_rows, picks_nodes, roots, self.finder.num_nodes)

    def sample(self, root: int, t: float) -> np.ndarray:
        """Return the sampled subgraph's node ids (root excluded)."""
        return self.sample_batch(np.array([root], dtype=np.int64),
                                 np.array([t], dtype=np.float64)).row(0)


class PrecomputedSampler:
    """Memoising LRU wrapper over either sampler.

    Subgraphs depend only on the stream (not on model parameters), so they
    can be computed once per ``(root, t)`` — the preprocessing optimisation
    the paper notes at the end of §IV-A.  The key is the exact float64
    query time: two times however close are two subgraphs, since an event
    between them changes the answer.

    Parameters
    ----------
    capacity:
        Maximum number of cached subgraphs; ``None`` keeps the cache
        unbounded.  Eviction is least-recently-used.

    ``hits`` / ``misses`` counters feed the cache-vs-online ablation
    benches; :meth:`cache_info` bundles them.
    """

    def __init__(self, sampler, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.sampler = sampler
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._cache: OrderedDict[tuple[int, float], np.ndarray] = OrderedDict()

    @staticmethod
    def _key(root: int, t: float) -> tuple[int, float]:
        return (int(root), float(t))

    def _insert(self, key: tuple[int, float], value: np.ndarray) -> None:
        self._cache[key] = value
        if self.capacity is not None and len(self._cache) > self.capacity:
            self._cache.popitem(last=False)

    def sample(self, root: int, t: float) -> np.ndarray:
        key = self._key(root, t)
        hit = self._cache.get(key)
        if hit is None:
            self.misses += 1
            hit = self.sampler.sample(root, t)
            self._insert(key, hit)
        else:
            self.hits += 1
            self._cache.move_to_end(key)
        return hit

    def sample_batch(self, roots: np.ndarray, ts: np.ndarray,
                     rng: np.random.Generator | None = None) -> SubgraphBatch:
        """Batched lookup; only cache misses hit the underlying sampler.

        Result rows are pinned outside the cache for the duration of the
        call, so a capacity smaller than the batch's distinct keys only
        costs extra evictions — never a lost row.  ``rng`` is forwarded to
        the wrapped sampler on misses (only the deterministic ε-DFS
        sampler should be cached, so it normally has no effect).
        """
        roots = np.asarray(roots, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        keys = [self._key(r, t) for r, t in zip(roots, ts)]
        values: dict[tuple[int, float], np.ndarray] = {}
        miss_idx: list[int] = []
        for i, key in enumerate(keys):
            # Duplicate keys inside one batch behave like the sequential
            # path: the first occurrence misses, the rest hit.
            if key in values:
                continue
            hit = self._cache.get(key)
            if hit is None:
                miss_idx.append(i)
                values[key] = np.empty(0, dtype=np.int64)  # reserved
            else:
                values[key] = hit
                self._cache.move_to_end(key)
        if miss_idx:
            fresh = self.sampler.sample_batch(roots[miss_idx], ts[miss_idx],
                                              rng=rng)
            for row, i in enumerate(miss_idx):
                sub = fresh.row(row).copy()
                values[keys[i]] = sub
                self._insert(keys[i], sub)
        self.misses += len(miss_idx)
        self.hits += len(keys) - len(miss_idx)
        return SubgraphBatch.from_list([values[key] for key in keys])

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def cache_info(self) -> dict[str, int | None]:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._cache), "capacity": self.capacity}
