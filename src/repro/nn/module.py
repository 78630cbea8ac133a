"""Minimal module system: parameter registration, train/eval mode, state dict.

Mirrors the parts of ``torch.nn.Module`` that this reproduction relies on.
Submodules and parameters are discovered by attribute scanning, so plain
attribute assignment is all that is needed to register them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .autograd import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor flagged as a learnable parameter."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network components.

    Provides :meth:`parameters`, :meth:`named_parameters`,
    :meth:`zero_grad`, :meth:`train` / :meth:`eval` mode switching and a
    numpy-based :meth:`state_dict` / :meth:`load_state_dict` pair used by the
    pre-training checkpointing machinery.
    """

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{name}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameter arrays keyed by dotted names."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays; shapes must match exactly."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, array in state.items():
            target = params[name]
            if target.shape != array.shape:
                raise ValueError(f"shape mismatch for {name}: {target.shape} vs {array.shape}")
            # Preserve each parameter's dtype so float32 encoders can load
            # float64 artifacts (and vice versa) without silently widening.
            target.data = np.array(array, dtype=target.data.dtype, copy=True)

    # Subclasses implement forward and may be called directly.
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
