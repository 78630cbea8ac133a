"""Generic time encoding φ(Δt) (paper Eq. 2, following TGAT/TGN).

Maps a scalar time delta to a ``dim``-vector ``cos(Δt · ω + b)`` with
learnable frequencies ``ω`` initialised log-spaced, so both second-scale
and span-scale deltas are resolvable.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.autograd import Tensor
from ..nn.module import Module, Parameter

__all__ = ["TimeEncoder"]


class TimeEncoder(Module):
    """Learnable cosine time encoding.

    ``forward`` accepts deltas of shape ``(...,)`` and returns
    ``(..., dim)``.
    """

    def __init__(self, dim: int, max_period: float = 1000.0):
        super().__init__()
        self.dim = dim
        # Log-spaced frequencies from 1/max_period to ~10, as in TGAT.
        freqs = 1.0 / np.logspace(0, np.log10(max_period), dim)
        self.omega = Parameter(freqs)
        self.phase = Parameter(np.zeros(dim))

    def forward(self, deltas) -> Tensor:
        return F.time_encode(deltas, self.omega, self.phase)
