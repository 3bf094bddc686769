"""Gradient-step rules for one flat parameter vector.

Each optimizer steps one float64 vector in place, whole, with the gradient
vector of the same layout; the named arrays a model reads are views of it
(``util.flat_views``), so one update moves every parameter. The state is
one vector per moment, so the same instance must always be stepped with
the same vector. The rules are element-wise, so stepping the vector gives
bitwise what stepping each of its views on its own would give.

MomentumSGD:  v <- momentum * v + grad;  p <- p - lr * v
Adam (bias-corrected, eps = 1e-8):
    m <- b1 * m + (1 - b1) * grad
    v <- b2 * v + (1 - b2) * grad^2
    p <- p - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
"""

from __future__ import annotations

import numpy as np


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
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ValueError("lr must be >= 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self._m is None:
            self._m = np.zeros_like(flat)
            self._v = np.zeros_like(flat)
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * (grad * grad)
        flat -= self.lr * (self._m / b1t) / (np.sqrt(self._v / b2t) + self.eps)
