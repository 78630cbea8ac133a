"""Recurrent cells: RNN, GRU.

These implement the ``Mem(.)`` memory updaters of paper Table III (RNN for
JODIE/DyRep, GRU for TGN) and the EIE-GRU fusion of paper §IV-C.  All cells
process a single step: ``(input, state) -> new_state``; sequence processing
is a plain Python loop at call sites, which is adequate for the short
sequences (memory checkpoints) used in CPDG.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .autograd import Tensor
from .module import Module, Parameter

__all__ = ["RNNCell", "GRUCell"]


class RNNCell(Module):
    """Vanilla tanh RNN cell: ``h' = tanh(x W_x + h W_h + b)``."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.w_h = Parameter(init.orthogonal((hidden_dim, hidden_dim), rng))
        self.bias = Parameter(init.zeros((hidden_dim,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return F.tanh(F.linear(x, self.w_x, self.bias) + h @ self.w_h)


class GRUCell(Module):
    """Gated recurrent unit (Cho et al., 2014).

    Used as the TGN memory updater and as the EIE-GRU checkpoint fuser.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_xz = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.w_hz = Parameter(init.orthogonal((hidden_dim, hidden_dim), rng))
        self.b_z = Parameter(init.zeros((hidden_dim,)))
        self.w_xr = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.w_hr = Parameter(init.orthogonal((hidden_dim, hidden_dim), rng))
        self.b_r = Parameter(init.zeros((hidden_dim,)))
        self.w_xn = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.w_hn = Parameter(init.orthogonal((hidden_dim, hidden_dim), rng))
        self.b_n = Parameter(init.zeros((hidden_dim,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return F.gru_cell(x, h, self.w_xz, self.w_hz, self.b_z,
                          self.w_xr, self.w_hr, self.b_r,
                          self.w_xn, self.w_hn, self.b_n)
