"""Where the traced pass puts its spans, and the per-layer table they give.

Layers are named after the program's modules: ``graph``, ``samplers``
(``core.samplers``), ``stream``, ``dgnn``, ``contrast`` (``core.contrast``
+ ``core.pretext``), ``nn`` (autograd / compile / optim), ``pretrainer``,
``tasks``, ``api``, ``serve``.  A span name is ``<layer>.<stage>``; a
layer's time is the *self* time of its spans.
"""

from __future__ import annotations

from .trace import Totals, Tracer

__all__ = ["install", "training_table", "serve_table"]


def _nodes(args, result) -> int:
    return len(result.nodes)


def _rows(args, result) -> int:
    return len(args[1])


# (module, class or None, attribute, span name, wrapper options)
POINTS = [
    ("repro.graph.neighbor_finder", "NeighborFinder", "__init__",
     "graph.finder_build", {}),
    ("repro.graph.neighbor_finder", "NeighborFinder", "batch_most_recent",
     "graph.neighbor_query", {}),
    ("repro.graph.neighbor_finder", "NeighborFinder", "batch_before",
     "graph.neighbor_query", {}),
    ("repro.graph.neighbor_finder", "NeighborFinder", "batch_last_update",
     "graph.last_update", {}),
    ("repro.core.samplers", "EtaBFSSampler", "sample_batch",
     "samplers.eta_bfs", {"count": _nodes}),
    ("repro.core.samplers", "EpsilonDFSSampler", "sample_batch",
     "samplers.eps_dfs", {"count": _nodes}),
    ("repro.core.samplers", "PrecomputedSampler", "sample_batch",
     "samplers.precomputed", {"count": _nodes, "keep": True}),
    ("repro.graph.batching", "RandomDestinationSampler", "sample",
     "stream.negatives", {}),
    ("repro.graph.batching", None, "slice_event_batch", "stream.slice", {}),
    # One gradient step starts where its batch starts being produced.
    ("repro.stream.producer", None, "produce_batch", "stream.produce",
     {"root": True}),
    ("repro.nn.compile", "CompiledStep", "__call__", "nn.compiled_step",
     {"count": _rows, "keep": True}),
    ("repro.dgnn.encoder", "DGNNEncoder", "flush_staged", "dgnn.flush", {}),
    ("repro.dgnn.encoder", "DGNNEncoder", "flush_messages", "dgnn.flush", {}),
    ("repro.dgnn.encoder", "DGNNEncoder", "compute_embedding",
     "dgnn.embed", {}),
    ("repro.dgnn.encoder", "DGNNEncoder", "register_batch",
     "dgnn.register", {}),
    ("repro.dgnn.encoder", "DGNNEncoder", "end_batch", "dgnn.register", {}),
    ("repro.core.contrast", None, "contrast_loss_from_pairs",
     "contrast.loss", {}),
    ("repro.core.pretext", "LinkPredictionHead", "loss", "contrast.loss", {}),
    ("repro.nn.autograd", "Tensor", "backward", "nn.backward", {}),
    ("repro.nn.optim", None, "clip_grad_norm", "nn.optim", {}),
    ("repro.nn.optim", "Adam", "step", "nn.optim", {}),
    ("repro.core.pretrainer", "CPDGPreTrainer", "pretrain",
     "pretrainer.pretrain", {}),
    ("repro.core.checkpoints", "MemoryCheckpoints", "add",
     "pretrainer.checkpoint", {}),
    ("repro.dgnn.encoder", "DGNNEncoder", "memory_checkpoint",
     "pretrainer.checkpoint", {}),
    ("repro.tasks.link_prediction", "LinkPredictionTask", "train",
     "tasks.finetune", {}),
    ("repro.tasks.link_prediction", "LinkPredictionTask", "evaluate",
     "tasks.evaluate", {}),
    ("repro.api.pipeline", "Pipeline", "pretrain", "api.pretrain", {}),
    ("repro.api.pipeline", "Pipeline", "finetune", "api.finetune", {}),
    ("repro.api.pipeline", "Pipeline", "evaluate", "api.evaluate", {}),
    ("repro.serve.service", "EmbeddingService", "embed", "serve.embed",
     {"root": True}),
    ("repro.serve.service", "EmbeddingService", "score_links",
     "serve.score_links", {"root": True}),
    ("repro.serve.service", "EmbeddingService", "top_k", "serve.top_k",
     {"root": True}),
    ("repro.serve.service", "EmbeddingService", "ingest", "serve.ingest",
     {"root": True}),
    ("repro.serve.service", "EmbeddingService", "snapshot",
     "serve.snapshot", {"root": True}),
    ("repro.serve.planner", "MicroBatchPlanner", "embed", "serve.planner",
     {}),
    ("repro.serve.dynamic_finder", "DynamicNeighborFinder", "append",
     "serve.append", {}),
    ("repro.serve.dynamic_finder", "DynamicNeighborFinder",
     "batch_most_recent", "serve.neighbors", {}),
    ("repro.serve.dynamic_finder", "DynamicNeighborFinder",
     "build_compaction", "serve.compaction_build", {}),
    ("repro.serve.dynamic_finder", "DynamicNeighborFinder",
     "commit_compaction", "serve.compaction_commit", {}),
    ("repro.serve.ingest", "LiveIngestor", "ingest", "serve.live_ingest",
     {}),
    ("repro.serve.index", "CoarseQuantIndex", "build", "serve.index_build",
     {}),
    ("repro.serve.index", "CoarseQuantIndex", "add", "serve.index_build",
     {}),
    ("repro.serve.index", "CoarseQuantIndex", "replace",
     "serve.index_build", {}),
    ("repro.serve.index", "CoarseQuantIndex", "search", "serve.index_probe",
     {}),
]


def install(tracer: Tracer) -> None:
    for module, owner, attr, name, options in POINTS:
        tracer.wrap(module, owner, attr, name, **options)


def _per(total_s: float, count: int) -> float:
    """Milliseconds per unit; 0 when the layer never ran."""
    return 1e3 * total_s / count if count else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def training_table(totals: Totals, tracer: Tracer, wall_s: float) -> dict:
    """Per-layer rows of a training region (pretrain and/or fine-tune).

    ``per_step`` rows divide by every gradient step of the region; the
    ``pretrainer`` rows by the steps taken inside
    ``CPDGPreTrainer.pretrain``.
    """
    own = totals.self_time
    steps = totals.count["nn.compiled_step"]
    pretrain_steps = totals.edge_count[("stream.produce",
                                        "pretrainer.pretrain")]
    compiled = tracer.receivers["nn.compiled_step"]
    calls = sum(int(v) for c in compiled for v in c.counters.values())
    replays = sum(int(c.counters["replays"]) for c in compiled)
    caches = tracer.receivers["samplers.precomputed"]
    hits = sum(c.hits for c in caches)
    lookups = hits + sum(c.misses for c in caches)
    produce = totals.total["stream.produce"]
    finetune_s = totals.total["tasks.finetune"]
    return {
        "graph.finder_build_ms": 1e3 * own["graph.finder_build"],
        "graph.last_update_ms_per_step": _per(own["graph.last_update"],
                                              steps),
        "graph.neighbor_query_ms_per_step": _per(own["graph.neighbor_query"],
                                                 steps),
        "graph.neighbor_query_calls": totals.count["graph.neighbor_query"],
        "samplers.eta_bfs_ms_per_step": _per(own["samplers.eta_bfs"], steps),
        "samplers.eps_dfs_ms_per_step": _per(
            own["samplers.eps_dfs"] + own["samplers.precomputed"], steps),
        "samplers.eta_bfs_nodes_per_step": _share(
            totals.work["samplers.eta_bfs"], steps),
        # With the precomputed cache on, its rows are what a step gets.
        "samplers.eps_dfs_nodes_per_step": _share(
            totals.work["samplers.precomputed"]
            or totals.work["samplers.eps_dfs"], steps),
        "samplers.dfs_cache_hit_rate": _share(hits, lookups),
        "stream.produce_ms_per_step": _per(produce, steps),
        "stream.slice_negatives_ms_per_step": _per(
            own["stream.slice"] + own["stream.negatives"], steps),
        "stream.produce_share": _share(produce, wall_s),
        "dgnn.flush_ms_per_step": _per(own["dgnn.flush"], steps),
        "dgnn.embed_ms_per_step": _per(own["dgnn.embed"], steps),
        "dgnn.register_ms_per_step": _per(own["dgnn.register"], steps),
        "contrast.loss_ms_per_step": _per(own["contrast.loss"], steps),
        "nn.backward_ms_per_step": _per(own["nn.backward"], steps),
        "nn.optim_ms_per_step": _per(own["nn.optim"], steps),
        "nn.step_self_ms_per_step": _per(own["nn.compiled_step"], steps),
        "nn.compile_replay_share": _share(replays, calls),
        "pretrainer.steps_per_s": _share(
            pretrain_steps, totals.total["pretrainer.pretrain"]),
        "pretrainer.self_ms_per_step": _per(own["pretrainer.pretrain"],
                                            pretrain_steps),
        "pretrainer.checkpoint_ms_total": 1e3 * own["pretrainer.checkpoint"],
        "tasks.finetune_s": finetune_s,
        "tasks.finetune_steps_per_s": _share(steps - pretrain_steps,
                                             finetune_s),
        "tasks.evaluate_s": totals.total["tasks.evaluate"],
    }


def serve_table(totals: Totals, ops: list) -> dict:
    """Time-split rows of a serve region, per read request, per
    ``top_k`` and per ingested block of the schedule ``ops``."""
    kinds = [op[0] for op in ops]
    reads = len(kinds) - kinds.count("ingest")
    topk = kinds.count("topk")
    blocks = kinds.count("ingest")
    neighbors = totals.total["serve.neighbors"]
    append = totals.total["serve.append"]
    return {
        "graph.neighbor_query_calls": totals.count["graph.neighbor_query"],
        "serve.planner_self_ms_per_request": _per(
            totals.self_time["serve.planner"], reads),
        "serve.neighbors_ms_per_request": _per(neighbors, reads),
        # Neighbour queries happen inside the compiled encoder pass.
        "serve.compute_ms_per_request": _per(
            totals.total["nn.compiled_step"] - neighbors, reads),
        "serve.compute_rows_per_request": _share(
            totals.work["nn.compiled_step"], reads),
        "serve.index_probe_ms_per_topk": _per(
            totals.total["serve.index_probe"], topk),
        # Index upkeep is build/add/replace plus the catalog embedding
        # that top_k asks the planner for.
        "serve.index_maintain_ms_per_topk": _per(
            totals.total["serve.index_build"]
            + totals.edge_total[("serve.planner", "serve.top_k")], topk),
        "serve.rescore_ms_per_topk": _per(
            totals.edge_total[("serve.score_links", "serve.top_k")], topk),
        "serve.ingest_append_ms_per_block": _per(append, blocks),
        "serve.ingest_memory_ms_per_block": _per(
            totals.total["serve.live_ingest"] - append, blocks),
        "serve.compaction_build_ms":
            1e3 * totals.total["serve.compaction_build"],
    }
