"""Feed-forward layers: Linear, MLP, Embedding."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .autograd import Tensor
from .module import Module, Parameter

__all__ = ["Linear", "MLP", "Embedding"]

_ACTIVATIONS = {
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "leaky_relu": F.leaky_relu,
    "identity": lambda x: x,
}


class Linear(Module):
    """Affine transform ``y = x W + b`` with Xavier-initialised weights."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    ``dims`` lists layer widths including input and output, e.g.
    ``MLP([64, 128, 1], rng)`` is a two-layer network.  The activation is
    applied between layers but not after the last one.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator,
                 activation: str = "relu", bias: bool = True):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.layers = [Linear(d_in, d_out, rng, bias=bias)
                       for d_in, d_out in zip(dims[:-1], dims[1:])]

    def forward(self, x: Tensor) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = act(x)
        return x


class Embedding(Module):
    """Lookup table of learnable row vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.xavier_uniform((num_embeddings, embedding_dim), rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)
