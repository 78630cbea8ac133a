"""The Adam optimizer and global gradient-norm clipping.

The paper tunes only the learning rate (§V-C grid); Adam is the de-facto
optimizer of the TGN/JODIE/DyRep reference implementations, so it is the
default throughout the reproduction.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimizer: holds parameters and clears their gradients."""

    def __init__(self, params: list[Parameter], lr: float):
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be a finite positive "
                             f"number, got {lr!r}")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    The update is fused: two pre-allocated scratch buffers per parameter
    and in-place ufuncs replace the ~8 temporaries the textbook
    formulation allocates per parameter per step.  Every scalar operation
    happens in the same order with the same rounding, so trajectories are
    bit-identical to the allocating formulation.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._s1 = [np.empty_like(p.data) for p in self.params]
        self._s2 = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        lr, b1, b2 = self.lr, self.beta1, self.beta2
        for param, m, v, s1, s2 in zip(self.params, self._m, self._v,
                                       self._s1, self._s2):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=s1)
                np.add(grad, s1, out=s1)
                grad = s1
            # m = b1*m + (1-b1)*g ;  v = b2*v + (1-b2)*g*g
            np.multiply(grad, 1.0 - b1, out=s2)
            m *= b1
            m += s2
            np.multiply(grad, 1.0 - b2, out=s2)
            np.multiply(s2, grad, out=s2)
            v *= b2
            v += s2
            # p -= lr * (m/bias1) / (sqrt(v/bias2) + eps), via the scratch
            # buffers (s1 may hold the decayed grad; it is dead by now).
            np.divide(m, bias1, out=s1)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            np.multiply(s1, lr, out=s1)
            np.divide(s1, s2, out=s1)
            np.subtract(param.data, s1, out=param.data)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, matching torch's utility.  The norm is
    one flat dot product over all gradients rather than a per-parameter
    reduction loop; scaling happens in place (gradient arrays are owned by
    their tensors).
    """
    grads = [g for g in (p.grad for p in params) if g is not None]
    if not grads:
        return 0.0
    flat = np.concatenate([g.reshape(-1) for g in grads])
    norm = float(np.sqrt(flat @ flat))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm
