"""Memory updaters ``Mem(·)`` (paper Eq. 4, Table III).

Wrap a recurrent cell so the new state is ``cell(message, previous_state)``:
GRU for TGN, vanilla RNN for JODIE/DyRep.
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import Tensor
from ..nn.module import Module
from ..nn.recurrent import GRUCell, RNNCell

__all__ = ["GRUUpdater", "RNNUpdater", "make_updater"]


class GRUUpdater(Module):
    """TGN's memory updater."""

    def __init__(self, message_dim: int, memory_dim: int, rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(message_dim, memory_dim, rng)

    def forward(self, message: Tensor, previous: Tensor) -> Tensor:
        return self.cell(message, previous)


class RNNUpdater(Module):
    """JODIE / DyRep memory updater."""

    def __init__(self, message_dim: int, memory_dim: int, rng: np.random.Generator):
        super().__init__()
        self.cell = RNNCell(message_dim, memory_dim, rng)

    def forward(self, message: Tensor, previous: Tensor) -> Tensor:
        return self.cell(message, previous)


def make_updater(name: str, message_dim: int, memory_dim: int,
                 rng: np.random.Generator) -> Module:
    table = {"gru": GRUUpdater, "rnn": RNNUpdater}
    if name not in table:
        raise ValueError(f"unknown updater {name!r} (expected one of {sorted(table)})")
    return table[name](message_dim, memory_dim, rng)
