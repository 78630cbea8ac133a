"""Recurrent cells: RNN, GRU, LSTM.

These implement the ``Mem(.)`` memory updaters of paper Table III (RNN for
JODIE/DyRep, GRU for TGN) and the EIE-GRU fusion of paper §IV-C.  All cells
process a single step: ``(input, state) -> new_state``; sequence processing
is a plain Python loop at call sites, which is adequate for the short
sequences (memory checkpoints, message batches) used in CPDG.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .autograd import Tensor
from .module import Module, Parameter

__all__ = ["RNNCell", "GRUCell", "LSTMCell", "run_rnn"]


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


class LSTMCell(Module):
    """Long short-term memory cell (Hochreiter & Schmidhuber, 1997).

    Offered as an alternative ``Mem(.)`` per paper Eq. 4 ("RNN, LSTM and
    GRU").  State is the ``(h, c)`` pair.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(init.xavier_uniform((input_dim, 4 * hidden_dim), rng))
        self.w_h = Parameter(init.orthogonal((hidden_dim, 4 * hidden_dim), rng))
        # Forget-gate bias starts at 1 — standard trick for gradient flow.
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = F.linear(x, self.w_x, self.bias) + h @ self.w_h
        d = self.hidden_dim
        i = F.sigmoid(gates[:, 0 * d:1 * d])
        f = F.sigmoid(gates[:, 1 * d:2 * d])
        g = F.tanh(gates[:, 2 * d:3 * d])
        o = F.sigmoid(gates[:, 3 * d:4 * d])
        c_new = f * c + i * g
        h_new = o * F.tanh(c_new)
        return h_new, c_new


def run_rnn(cell: Module, sequence: list[Tensor], h0: Tensor) -> Tensor:
    """Unroll a (RNN/GRU) cell over ``sequence`` and return the final state.

    ``sequence`` is a list of ``(batch, input_dim)`` tensors ordered in time.
    """
    h = h0
    for x in sequence:
        h = cell(x, h)
    return h
