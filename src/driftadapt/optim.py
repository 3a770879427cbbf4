"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .errors import ContractError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # moment decays and denominator floor


class AdamW:
    """Standard Adam update plus decoupled weight decay.

    Only the parameters handed to the constructor are ever touched; anything
    else in the model stays frozen by construction. The constructor moves
    their values into one flat buffer and makes each ``.data`` a view into
    it, so a step is a few whole-buffer in-place ufuncs over the flat
    parameters, moments and gradients, elementwise the same float operations
    as a per-tensor update. Each parameter's ``grad_buffer`` is its view of
    the flat gradient buffer, so backward accumulates its gradient there and
    a step gathers nothing.
    """

    def __init__(self, params: dict, lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.params = tuple(params.values())   # what a step's gc.tracking marks
        ends = np.cumsum([p.data.size for p in params.values()], dtype=np.intp)
        n = int(ends[-1]) if ends.size else 0
        self.flat = np.empty(n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._grad = np.empty(n)
        self._scratch = (np.empty(n), np.empty(n))
        self._views = []   # (name, parameter, its view, its gradient's view)
        for (name, p), end in zip(params.items(), ends):
            sl = slice(end - p.data.size, end)
            view = self.flat[sl].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p.grad_buffer = self._grad[sl].reshape(view.shape)
            self._views.append((name, p, view, p.grad_buffer))

    def step(self):
        """One update using each parameter's accumulated .grad (None = zero).
        A gradient that backward accumulated is already in the flat buffer;
        one assigned to ``.grad`` by hand is copied in."""
        for name, p, view, gview in self._views:
            if p.data is not view:
                raise ContractError(f"{name}.data was replaced after the optimizer was built")
            if p.grad is None:
                gview.fill(0.0)
            elif p.grad is not gview:
                if p.grad.shape != view.shape:
                    raise ContractError(
                        f"grad shape {p.grad.shape} vs param {view.shape} for {name}")
                gview[...] = p.grad
        self.t += 1
        b1, b2, lr = BETA1, BETA2, self.lr
        m, v, g, (s, s2) = self.m, self.v, self._grad, self._scratch
        m *= b1
        m += np.multiply(g, 1 - b1, out=s)
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(m, 1 - b1**self.t, out=s)            # mhat
        s *= lr
        np.divide(v, 1 - b2**self.t, out=s2)           # vhat
        np.sqrt(s2, out=s2)
        s2 += EPS
        s /= s2
        self.flat -= s
        if self.weight_decay:
            self.flat -= np.multiply(self.flat, lr * self.weight_decay, out=s)
