"""The unified memory-based DGNN encoder (paper §III-B, Table III).

One class implements the whole framework: message function → message
aggregator → memory updater → embedding module, with raw-message deferral
as in the reference TGN implementation (messages produced by batch *k*
update the memory inside batch *k+1*'s autograd graph, giving the message
and updater parameters gradients under one-batch truncated BPTT).

The memory hot path is sparse: :meth:`flush_messages` writes the updated
rows into the :class:`~repro.dgnn.memory.Memory`'s per-batch delta, and
every later gather or write touches only the rows the batch touches.

Typical batch loop::

    encoder.attach(stream)          # bind temporal adjacency + edge feats
    for batch in chronological_batches(stream, B, rng):
        z_src, z_dst = embed_together(encoder.compute_embedding,
                                      batch.timestamps, batch.src, batch.dst)
        ... loss, backward, step ...
        encoder.register_batch(batch)
        encoder.end_batch()

:func:`make_encoder` builds the JODIE / DyRep / TGN variants per Table III.
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder
from ..nn import functional as F
from ..nn.autograd import Tensor, get_default_dtype
from ..nn.module import Module
from .embedding import (EmbeddingContext, IdentityEmbedding,
                        TemporalAttentionEmbedding, TimeProjectionEmbedding)
from .memory import Memory
from .messages import AttentionMessage, IdentityMessage
from .time_encoding import TimeEncoder
from .updaters import make_updater

__all__ = ["DGNNEncoder", "ZeroEdgeFeatures", "make_encoder", "BACKBONES",
           "embed_together"]

BACKBONES = ("tgn", "jodie", "dyrep")


def embed_together(embed, ts: np.ndarray, *node_blocks: np.ndarray
                   ) -> list[Tensor]:
    """Embed several node blocks that share ``ts`` in ONE ``embed`` pass.

    ``embed`` is any ``(nodes, ts) -> (len(nodes), D)`` callable — an
    encoder's ``compute_embedding`` or a task's encoder-plus-EIE wrapper.
    The sources, destinations and corrupted destinations of an event
    batch then cost one neighbour query, one attention and one EIE
    fusion instead of three; the blocks come back as row views of the
    joint result (:func:`~repro.nn.functional.split_rows`).
    """
    z = embed(np.concatenate(node_blocks), np.tile(ts, len(node_blocks)))
    return F.split_rows(z, [len(block) for block in node_blocks])


class ZeroEdgeFeatures:
    """Lazy all-zero edge feature table for streams without edge features.

    Row reads materialise only the requested slice instead of a dense
    ``(num_events, edge_dim)`` zero matrix at :meth:`DGNNEncoder.attach`
    time.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def __getitem__(self, index) -> np.ndarray:
        index = np.asarray(index)
        dtype = get_default_dtype()
        if index.ndim == 0:
            return np.zeros(self.dim, dtype=dtype)
        return np.zeros(index.shape + (self.dim,), dtype=dtype)

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return 0


class DGNNEncoder(Module):
    """Generic memory-based dynamic graph encoder.

    Parameters mirror paper Table III; see :func:`make_encoder` for the
    three named configurations.  ``dtype`` is the memory storage
    precision.
    """

    def __init__(self, num_nodes: int, memory_dim: int, embed_dim: int,
                 time_dim: int, edge_dim: int, rng: np.random.Generator,
                 message: str = "identity", updater: str = "gru",
                 embedding: str = "attention", n_neighbors: int = 10,
                 n_layers: int = 1, num_heads: int = 2,
                 delta_scale: float = 1.0, dtype=np.float64):
        super().__init__()
        self.num_nodes = num_nodes
        self.memory_dim = memory_dim
        self.embed_dim = embed_dim
        self.time_dim = time_dim
        self.edge_dim = edge_dim
        self.n_neighbors = n_neighbors

        self.time_encoder = TimeEncoder(time_dim)
        self.message_fn = self._build_message(message, rng)
        self.updater = make_updater(updater, self.message_fn.output_dim,
                                    memory_dim, rng)
        self.embedding_module = self._build_embedding(embedding, num_heads,
                                                      n_layers, delta_scale, rng)

        # Non-learnable state (underscored so Module traversal skips it).
        self._memory = Memory(num_nodes, memory_dim, dtype=dtype)
        self._finder: NeighborFinder | None = None
        self._edge_feats: np.ndarray | ZeroEdgeFeatures | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_message(self, name: str, rng: np.random.Generator) -> Module:
        if name == "identity":
            return IdentityMessage(self.memory_dim, self.time_dim, self.edge_dim)
        if name == "attention":
            return AttentionMessage(self.memory_dim, self.time_dim,
                                    self.edge_dim, rng)
        raise ValueError(f"unknown message function {name!r}")

    def _build_embedding(self, name: str, num_heads: int, n_layers: int,
                         delta_scale: float, rng: np.random.Generator) -> Module:
        if name == "identity":
            return IdentityEmbedding(self.memory_dim, self.embed_dim, rng)
        if name == "time":
            return TimeProjectionEmbedding(self.memory_dim, self.embed_dim, rng,
                                           delta_scale=delta_scale)
        if name == "attention":
            return TemporalAttentionEmbedding(
                self.memory_dim, self.embed_dim, self.time_dim, self.edge_dim,
                num_heads=num_heads, n_neighbors=self.n_neighbors,
                n_layers=n_layers, rng=rng)
        raise ValueError(f"unknown embedding module {name!r}")

    # ------------------------------------------------------------------
    # stream binding and memory control
    # ------------------------------------------------------------------
    def attach(self, stream: EventStream, finder: NeighborFinder | None = None) -> None:
        """Bind the encoder to a stream's temporal adjacency and features."""
        self._finder = finder if finder is not None else NeighborFinder(stream)
        if stream.edge_feats is not None and self.edge_dim:
            self._edge_feats = stream.edge_feats
        elif self.edge_dim:
            # No real features: serve zero rows lazily instead of a dense
            # (num_events, edge_dim) zero matrix.
            self._edge_feats = ZeroEdgeFeatures(self.edge_dim)
        else:
            self._edge_feats = None

    def reset_memory(self) -> None:
        self._memory.reset()

    @property
    def memory(self) -> Memory:
        return self._memory

    @property
    def dtype(self) -> np.dtype:
        """The precision this encoder's memory (and training) runs at."""
        return self._memory.dtype

    def memory_checkpoint(self) -> np.ndarray:
        """Raw memory snapshot for EIE checkpointing (paper Eq. 18)."""
        return self._memory.checkpoint()

    def load_memory(self, state: np.ndarray, last_update: np.ndarray | None = None) -> None:
        """Overwrite memory (used when carrying pre-trained memory into
        fine-tuning).  Pending raw messages and the batch's delta are
        discarded so the loaded state is authoritative."""
        self._memory.load(state, last_update)

    def memory_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """``(state, last_update)`` copies for later :meth:`load_memory`."""
        return self._memory.checkpoint(), self._memory.last_update.copy()

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    def flush_messages(self) -> Memory:
        """Apply pending raw messages to memory inside the current graph.

        Returns the :class:`~repro.dgnn.memory.Memory`, whose gathers now
        overlay the rows the flush wrote.  The flush consumes the pending
        messages, so repeated :meth:`compute_embedding` calls in one batch
        find none and share it.
        """
        staged = self._memory.pending(pop=True)
        return self._memory if staged is None else self.flush_staged(staged)

    def take_staged(self):
        """Pop pending raw messages without applying them.

        Splitting the pop (stateful, once) from the flush (pure given the
        staged rows) lets a compiled step re-run :meth:`flush_staged`
        after an aborted replay without losing messages: call this
        *outside* the compiled function and pass the result in.
        """
        return self._memory.pending(pop=True)

    def flush_staged(self, staged) -> Memory:
        """Apply ``staged`` messages (from :meth:`take_staged`) to memory.

        The aggregator ``Agg(·)`` of paper Eq. 3 is ``last`` for every
        backbone of Table III: when a node received several messages
        since the previous flush, only its most recent one (in staging
        order, which is event order) is computed and fed to the updater.

        Pure given ``staged`` and the persisted memory, hence safely
        re-runnable within one batch: it discards any delta an earlier
        run wrote and replaces it.
        """
        memory = self._memory
        memory.discard()
        if staged is not None:
            nodes, rows = staged.per_node()
            memory.write(nodes, self.updater(self._raw_messages(staged, rows),
                                             memory.gather(nodes)))
        return memory

    def _raw_messages(self, staged, rows) -> Tensor:
        """Vectorised message computation from selected staged rows.

        Edge features come from the rows captured at staging time; staged
        ``edge_feat=None`` (featureless stream) expands to zero rows for
        exactly the selected messages.
        """
        self_state = Tensor(staged.self_state[rows])
        other_state = Tensor(staged.other_state[rows])
        time_enc = self.time_encoder(Tensor(staged.delta_t[rows]))
        edge_feat = None
        if self.edge_dim:
            if staged.edge_feat is not None:
                edge_feat = Tensor(staged.edge_feat[rows])
            else:
                edge_feat = Tensor(np.zeros((self_state.shape[0], self.edge_dim),
                                            dtype=get_default_dtype()))
        return self.message_fn(self_state, other_state, time_enc, edge_feat)

    def compute_embedding(self, nodes: np.ndarray, ts: np.ndarray,
                          reads: list | None = None) -> Tensor:
        """Temporal embeddings ``z_i^t`` (paper Eq. 1) for a node batch.

        ``reads``, when a list, receives what the embedding module read
        beyond each row's own node (see :class:`EmbeddingContext`);
        :meth:`receptive_field` turns it into a padded id matrix.
        """
        if self._finder is None:
            raise RuntimeError("encoder not attached to a stream; call attach()")
        memory = self.flush_messages()
        ctx = EmbeddingContext(
            memory=memory,
            last_update=self._memory.last_update,
            finder=self._finder,
            edge_feats=self._edge_feats,
            time_encoder=self.time_encoder,
            reads=reads,
        )
        return self.embedding_module(ctx, np.asarray(nodes, dtype=np.int64),
                                     np.asarray(ts, dtype=np.float64))

    @property
    def field_width(self) -> int:
        """Columns of :meth:`receptive_field`: the most ids one row reads."""
        return self.embedding_module.field_width

    def receptive_field(self, nodes: np.ndarray, reads: list) -> np.ndarray:
        """``(len(nodes), field_width)`` node ids each row was computed from.

        ``reads`` is what one ``compute_embedding(nodes, ts, reads=reads)``
        pass collected.  Column 0 is the row's own node, then the ids the
        embedding module read for it (the sampled neighbour set ``N_i^t``
        of Eq. 1, every hop); unused columns hold ``num_nodes``, an id no
        event ever touches.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        field = np.full((len(nodes), self.field_width), self.num_nodes,
                        dtype=np.int64)
        field[:, 0] = nodes
        if reads:
            rows = np.concatenate([rows for rows, _ in reads])
            ids = np.concatenate([ids for _, ids in reads])
            order = np.argsort(rows, kind="stable")
            rows, ids = rows[order], ids[order]
            first = np.searchsorted(rows, np.arange(len(nodes)))
            field[rows, 1 + np.arange(len(rows)) - first[rows]] = ids
        return field

    def register_batch(self, batch: EventBatch) -> None:
        """Queue raw messages for this batch's events (paper Eq. 2 inputs).

        Stages detached endpoint states as flat arrays (one gather for the
        whole batch) so the flush in the *next* batch recomputes messages
        inside that batch's graph.
        """
        size = len(batch)
        if size == 0:
            return
        src = np.asarray(batch.src, dtype=np.int64)
        dst = np.asarray(batch.dst, dtype=np.int64)
        states = self._memory.rows(np.concatenate([src, dst]))
        # Stage rows interleaved in event order (src then dst per event)
        # so "last message per node" means the chronologically last event
        # touching the node, whichever endpoint role it played.
        nodes = np.empty(2 * size, dtype=np.int64)
        nodes[0::2] = src
        nodes[1::2] = dst
        times = np.repeat(np.asarray(batch.timestamps, dtype=np.float64), 2)
        deltas = times - self._memory.last_update[nodes]
        event_ids = np.repeat(np.asarray(batch.event_ids, dtype=np.int64), 2)
        self_state = np.empty((2 * size,) + states.shape[1:], dtype=states.dtype)
        self_state[0::2] = states[:size]
        self_state[1::2] = states[size:]
        other_state = np.empty_like(self_state)
        other_state[0::2] = states[size:]
        other_state[1::2] = states[:size]
        # Capture feature rows now (zero tables stay lazy): a later
        # attach() to another stream must not change pending messages.
        edge_feat = None
        if self.edge_dim and isinstance(self._edge_feats, np.ndarray):
            edge_feat = self._edge_feats[event_ids]
        self._memory.stage(nodes, self_state, other_state, deltas, times,
                           event_ids, edge_feat)
        self._memory.touch(nodes, times)

    def end_batch(self) -> None:
        """Persist the flushed rows (detached) and close the batch."""
        self._memory.persist()


def make_encoder(backbone: str, num_nodes: int, rng: np.random.Generator,
                 memory_dim: int = 32, embed_dim: int = 32, time_dim: int = 8,
                 edge_dim: int = 4, n_neighbors: int = 10, n_layers: int = 1,
                 delta_scale: float = 1.0, dtype=np.float64) -> DGNNEncoder:
    """Build a named DGNN backbone per paper Table III.

    ========  ==========  =======  =======  =========
    backbone  f(·)        Msg(·)   Agg(·)   Mem(·)
    ========  ==========  =======  =======  =========
    jodie     time proj.  identity last     RNN
    dyrep     identity    attention last    RNN
    tgn       attention   identity last     GRU
    ========  ==========  =======  =======  =========
    """
    backbone = backbone.lower()
    common = dict(num_nodes=num_nodes, memory_dim=memory_dim,
                  embed_dim=embed_dim, time_dim=time_dim, edge_dim=edge_dim,
                  rng=rng, n_neighbors=n_neighbors, n_layers=n_layers,
                  delta_scale=delta_scale, dtype=dtype)
    if backbone == "jodie":
        return DGNNEncoder(message="identity", updater="rnn",
                           embedding="time", **common)
    if backbone == "dyrep":
        return DGNNEncoder(message="attention", updater="rnn",
                           embedding="identity", **common)
    if backbone == "tgn":
        return DGNNEncoder(message="identity", updater="gru",
                           embedding="attention", **common)
    raise ValueError(f"unknown backbone {backbone!r}; expected one of {BACKBONES}")
