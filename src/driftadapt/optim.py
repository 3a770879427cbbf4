"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .gradcore import Tensor


class AdamW:
    """Standard Adam update plus decoupled weight decay.

    Only the parameters handed to the constructor are ever touched; anything
    else in the model stays frozen by construction.
    """

    def __init__(self, params: dict, lr=1e-3, weight_decay=5e-4,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        """One update using each parameter's accumulated .grad (None = zero)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"grad shape {g.shape} vs param {p.data.shape} for {name}"
                )
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1**self.t)
            vhat = self.v[name] / (1 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
