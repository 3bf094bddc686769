"""Gradient-step rules for one flat parameter vector.

Each optimizer steps one float64 vector in place, whole, with the gradient
vector of the same layout; the named arrays a model reads are views of it
(``util.flat_views``), so one update moves every parameter. The state is
one vector per moment, so the same instance must always be stepped with
the same vector. The rules are element-wise, so stepping the vector gives
bitwise what stepping each of its views on its own would give.

MomentumSGD:  v <- momentum * v + grad;  p <- p - lr * v
Adam (bias-corrected, b1 = 0.9, b2 = 0.999, eps = 1e-8):
    m <- b1 * m + (1 - b1) * grad
    v <- b2 * v + (1 - b2) * grad^2
    p <- p - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

A gradient entry past ~1.3e154 overflows grad^2, and an infinite v would
freeze its parameter for good (its step is m / inf = 0). So Adam raises
``NonFiniteError`` instead, before it changes its state or the vector.
"""

from __future__ import annotations

import numpy as np

from .autodiff import NonFiniteError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MomentumSGD:
    def __init__(self, lr: float, momentum: float = 0.9):
        if lr < 0:
            raise ValueError("lr must be >= 0")
        self.lr = lr
        self.momentum = momentum
        self._velocity: np.ndarray | None = None

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self._velocity is None:
            self._velocity = np.zeros_like(flat)
        self._velocity = self.momentum * self._velocity + grad
        flat -= self.lr * self._velocity


class Adam:
    def __init__(self, lr: float):
        if lr < 0:
            raise ValueError("lr must be >= 0")
        self.lr = lr
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self._m is None:
            self._m = np.zeros_like(flat)
            self._v = np.zeros_like(flat)
        v = ADAM_BETA2 * self._v + (1.0 - ADAM_BETA2) * (grad * grad)
        if not np.isfinite(v).all():
            raise NonFiniteError("adam: non-finite second moment")
        self._t += 1
        b1t = 1.0 - ADAM_BETA1 ** self._t
        b2t = 1.0 - ADAM_BETA2 ** self._t
        self._m = ADAM_BETA1 * self._m + (1.0 - ADAM_BETA1) * grad
        self._v = v
        flat -= self.lr * (self._m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
