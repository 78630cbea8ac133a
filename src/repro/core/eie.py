"""Evolution Information Enhanced fine-tuning (EIE, paper §IV-C).

Fuses the ``L`` pre-training memory checkpoints into per-node evolution
information ``EI = f_EI([S^1, …, S^L])`` (Eq. 18) with one of three fusers
(Table XI):

* ``mean`` — mean pooling over checkpoints,
* ``attn`` — additive attention over the checkpoint sequence,
* ``gru``  — a GRU unrolled over the checkpoint sequence (best in paper).

At fine-tuning time the fused vector is passed through a two-layer MLP and
concatenated onto the downstream embedding (Eq. 19):
``Z_EIE = [Z_down ∥ MLP(EI)]``.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.attention import AdditiveAttention
from ..nn.autograd import Tensor
from ..nn.layers import MLP
from ..nn.module import Module
from ..nn.recurrent import GRUCell
from .checkpoints import MemoryCheckpoints

__all__ = ["EIEModule", "EIE_FUSERS"]

EIE_FUSERS = ("mean", "attn", "gru")


class EIEModule(Module):
    """Checkpoint fusion + projection producing the EIE side-vector.

    Parameters
    ----------
    checkpoints:
        The ``L`` pre-training memory snapshots, each ``(num_nodes, D)``.
    fuser:
        One of :data:`EIE_FUSERS`.
    out_dim:
        Width of the projected evolution vector appended to downstream
        embeddings.
    """

    def __init__(self, checkpoints: MemoryCheckpoints, fuser: str,
                 out_dim: int, rng: np.random.Generator):
        super().__init__()
        if fuser not in EIE_FUSERS:
            raise ValueError(f"unknown EIE fuser {fuser!r}; expected {EIE_FUSERS}")
        if len(checkpoints) == 0:
            raise ValueError("EIE requires at least one memory checkpoint")
        self.fuser_name = fuser
        self.out_dim = out_dim
        self._snapshots = checkpoints.as_list()
        memory_dim = self._snapshots[0].shape[1]
        self.memory_dim = memory_dim

        if fuser == "attn":
            self.attention = AdditiveAttention(memory_dim, memory_dim, rng)
        elif fuser == "gru":
            self.gru = GRUCell(memory_dim, memory_dim, rng)
        # Eq. 19's two-layer MLP adapting EI to the downstream data.
        self.transform = MLP([memory_dim, memory_dim, out_dim], rng)

    @property
    def num_checkpoints(self) -> int:
        return len(self._snapshots)

    def fuse(self, nodes: np.ndarray) -> Tensor:
        """Eq. 18 restricted to a node batch: fuse ``[S^1_i … S^L_i]``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sequence = [Tensor(snap[nodes]) for snap in self._snapshots]
        if self.fuser_name == "mean":
            return F.stack(sequence, axis=0).mean(axis=0)
        if self.fuser_name == "attn":
            return self.attention(sequence)
        hidden = Tensor(np.zeros((len(nodes), self.memory_dim)))
        for item in sequence:
            hidden = self.gru(item, hidden)
        return hidden

    def forward(self, downstream_embeddings: Tensor, nodes: np.ndarray) -> Tensor:
        """Eq. 19: ``[Z_down ∥ MLP(EI)]`` for a node batch."""
        evolution = self.transform(self.fuse(nodes))
        return F.concatenate([downstream_embeddings, evolution], axis=-1)
