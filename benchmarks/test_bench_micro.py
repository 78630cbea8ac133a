"""Micro-benchmarks of the substrate (multi-round, genuine timings).

These are classic pytest-benchmark measurements (not one-shot experiment
drivers): autograd forward/backward, sampler throughput, encoder batch
cost, and the ablation comparisons called out in DESIGN.md §5
(precomputed vs online sampling, triplet vs InfoNCE).
"""

import numpy as np
import pytest

from repro.core import (EpsilonDFSSampler, EtaBFSSampler, PrecomputedSampler)
from repro.datasets import SMALL, meituan_stream
from repro.dgnn import make_encoder
from repro.graph import NeighborFinder, chronological_batches
from repro.nn import (MLP, Adam, GRUCell, Tensor, info_nce_loss,
                      triplet_margin_loss)
from repro.nn import functional as F


@pytest.fixture(scope="module")
def stream():
    return meituan_stream(SMALL)


@pytest.fixture(scope="module")
def finder(stream):
    return NeighborFinder(stream)


class TestAutogradMicro:
    def test_mlp_forward_backward(self, benchmark):
        rng = np.random.default_rng(0)
        mlp = MLP([64, 128, 64, 1], rng)
        x = Tensor(rng.normal(size=(256, 64)))

        def step():
            loss = (mlp(x) ** 2.0).mean()
            mlp.zero_grad()
            loss.backward()
            return loss.item()

        benchmark(step)

    def test_gru_cell_step(self, benchmark):
        rng = np.random.default_rng(0)
        cell = GRUCell(64, 64, rng)
        x = Tensor(rng.normal(size=(256, 64)))
        h = Tensor(rng.normal(size=(256, 64)))
        benchmark(lambda: cell(x, h).data.sum())

    def test_softmax_large(self, benchmark):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1024, 256)))
        benchmark(lambda: F.softmax(x).data.sum())

    def test_adam_step(self, benchmark):
        rng = np.random.default_rng(0)
        mlp = MLP([64, 128, 1], rng)
        opt = Adam(mlp.parameters(), lr=1e-3)
        x = Tensor(rng.normal(size=(128, 64)))

        def step():
            opt.zero_grad()
            (mlp(x) ** 2.0).mean().backward()
            opt.step()

        benchmark(step)


class TestSamplerMicro:
    def test_eta_bfs_batch_throughput(self, benchmark, stream, finder):
        """Whole-frontier η-BFS from 50 roots."""
        sampler = EtaBFSSampler(finder, eta=10, depth=2, seed=0)
        nodes = stream.src[:50]
        ts = np.full(len(nodes), stream.t_max)

        benchmark(lambda: sampler.sample_batch(nodes, ts))

    def test_epsilon_dfs_batch_throughput(self, benchmark, stream, finder):
        sampler = EpsilonDFSSampler(finder, epsilon=10, depth=2)
        nodes = stream.src[:50]
        ts = np.full(len(nodes), stream.t_max)

        benchmark(lambda: sampler.sample_batch(nodes, ts))

    def test_precomputed_vs_online_sampling(self, benchmark, stream, finder):
        """DESIGN.md ablation: the §IV-A preprocessing optimisation."""
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 10, 2))
        nodes = stream.src[:50]
        t = stream.t_max
        for n in nodes:            # warm the cache
            cached.sample(int(n), t)

        benchmark(lambda: [cached.sample(int(n), t) for n in nodes])

    def test_neighbor_finder_batch_query_reference(self, benchmark, stream, finder):
        """Row-by-row most_recent — the pre-CSR batch_most_recent shape."""
        nodes = stream.src[:200]
        ts = stream.timestamps[:200] + 1.0

        def per_row():
            return [finder.most_recent(int(n), float(t), 10)
                    for n, t in zip(nodes, ts)]

        benchmark(per_row)

    def test_neighbor_finder_batch_query(self, benchmark, stream, finder):
        nodes = stream.src[:200]
        ts = stream.timestamps[:200] + 1.0
        benchmark(lambda: finder.batch_most_recent(nodes, ts, 10))

    def test_csr_construction(self, benchmark, stream):
        from repro.graph import NeighborFinder as NF
        benchmark(lambda: NF(stream))


class TestEncoderMicro:
    @pytest.mark.parametrize("backbone", ["tgn", "jodie", "dyrep"])
    def test_embedding_batch(self, benchmark, backbone, stream):
        rng = np.random.default_rng(0)
        enc = make_encoder(backbone, stream.num_nodes, rng, memory_dim=32,
                           embed_dim=32, time_dim=8, edge_dim=4,
                           n_neighbors=10)
        enc.attach(stream)
        # Warm the memory with one pass.
        for batch in chronological_batches(stream, 200, rng):
            enc.flush_messages()
            enc.register_batch(batch)
            enc.end_batch()
        nodes = stream.src[:200]
        ts = np.full(200, stream.t_max + 1.0)

        def embed():
            enc.end_batch()
            return enc.compute_embedding(nodes, ts).data.sum()

        benchmark(embed)

    def test_attention_embedding_two_layer(self, benchmark, stream):
        """Recursive attention — two batch_most_recent sweeps per call."""
        rng = np.random.default_rng(0)
        enc = make_encoder("tgn", stream.num_nodes, rng, memory_dim=32,
                           embed_dim=32, time_dim=8, edge_dim=4,
                           n_neighbors=10, n_layers=2)
        enc.attach(stream)
        for batch in chronological_batches(stream, 200, rng):
            enc.flush_messages()
            enc.register_batch(batch)
            enc.end_batch()
        nodes = stream.src[:200]
        ts = np.full(200, stream.t_max + 1.0)

        def embed():
            enc.end_batch()
            return enc.compute_embedding(nodes, ts).data.sum()

        benchmark(embed)


class TestReadoutMicro:
    """Scatter-based subgraph pooling (paper Eq. 9/10/12/13)."""

    @pytest.mark.parametrize("mode", ["mean", "max", "sum"])
    def test_subgraph_readout_scatter(self, benchmark, mode, stream, finder):
        from repro.core import subgraph_readout
        rng = np.random.default_rng(0)
        memory = Tensor(rng.normal(size=(stream.num_nodes, 32)))
        sampler = EpsilonDFSSampler(finder, epsilon=10, depth=2)
        nodes = stream.src[:200]
        ts = np.full(200, stream.t_max)
        subgraphs = sampler.sample_batch(nodes, ts)

        benchmark(lambda: subgraph_readout(memory, subgraphs, mode).data.sum())


class TestContrastObjectiveAblation:
    """DESIGN.md ablation: triplet margin (paper) vs InfoNCE (extension)."""

    def test_triplet_margin_loss(self, benchmark):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(256, 32)), requires_grad=True)
        p = Tensor(rng.normal(size=(256, 32)))
        n = Tensor(rng.normal(size=(256, 32)))

        def step():
            a.zero_grad()
            triplet_margin_loss(a, p, n).backward()

        benchmark(step)

    def test_info_nce_loss(self, benchmark):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(256, 32)), requires_grad=True)
        p = Tensor(rng.normal(size=(256, 32)))
        negs = Tensor(rng.normal(size=(256, 5, 32)))

        def step():
            a.zero_grad()
            info_nce_loss(a, p, negs).backward()

        benchmark(step)
