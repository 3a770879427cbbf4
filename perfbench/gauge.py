"""How fast the machine runs at the moment, so that timings can be scaled to
one reference speed.

On a shared host, other tenants slow fixed work by up to 50%, in stretches
of seconds to minutes. A stretch that lasts a whole run moves every timing
of that run, and no median or minimum within the run takes it out. So the
benchmark runs a fixed calibration kernel, written here in plain numpy and
Python (no driftadapt code, so no change to the program moves it), every
``INTERVAL_S`` seconds between and inside the timed work, and scales the
timings of each phase of a run (the set-ups, the repeated commands) by
``KERNEL_REF_S`` over the mean kernel time during that phase. A timing so
scaled reads what it would on the machine running at its reference speed. A
change to the program moves it as it moves the wall time, since the kernel
stays the same; the kernel's own time is left out of every timing.

The kernel resembles the program's work: the forward and backward pass of a
small network on 128-row blocks (matrix products, row normalisation, GELU,
softmax), through graph nodes built and walked in Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the machine the bounds were set on (2 shared vCPUs,
# Python 3.11, numpy 2.4, OpenBLAS with one thread) while running near its
# fastest; a scaled timing reads what that machine would take at that speed.
KERNEL_REF_S = 0.007
# Seconds between two kernel runs during timed work.
INTERVAL_S = 0.25
# Kernel runs within this many seconds of a timed stretch also count for it.
NEAR_S = 0.5

_rng = np.random.default_rng(20260)
# 128-row blocks are taken in turn from 2 MiB of inputs, so the kernel, like
# the program, works on data that does not stay in the fastest caches.
_X = _rng.standard_normal((8192, 32))
_W = [_rng.standard_normal((32, 32)) / np.sqrt(32.0) for _ in range(4)]
KERNEL_BLOCKS = 10


class _Node:
    """A graph node, as an autodiff core builds one per operation."""
    __slots__ = ("value", "grad", "parents", "backward")

    def __init__(self, value, parents=(), backward=None):
        self.value, self.grad, self.parents, self.backward = value, None, parents, backward


def _matmul(a, w):
    def back(g):
        a.grad = g @ w.value.T if a.grad is None else a.grad + g @ w.value.T
    return _Node(a.value @ w.value, (a,), back)


def _normalize_gelu(a):
    z = a.value - a.value.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((z * z).mean(axis=1, keepdims=True) + 1e-5)
    z = z * inv
    t = np.tanh(0.7978845608 * (z + 0.044715 * z * z * z))

    def back(g):
        d = g * (0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * 0.7978845608 * (1.0 + 0.134145 * z * z))
        d = inv * (d - d.mean(axis=1, keepdims=True) - z * (d * z).mean(axis=1, keepdims=True))
        a.grad = d if a.grad is None else a.grad + d
    return _Node(0.5 * z * (1.0 + t), (a,), back)


def _softmax(a):
    e = np.exp(a.value - a.value.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def back(g):
        d = p * (g - (g * p).sum(axis=1, keepdims=True))
        a.grad = d if a.grad is None else a.grad + d
    return _Node(p, (a,), back)


def _backward(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    root.grad = np.ones_like(root.value) / root.value.size
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)


def kernel(row: int) -> float:
    """The fixed calibration work: forward and backward of a small network on
    ``KERNEL_BLOCKS`` 128-row blocks of inputs from ``row`` on. Returns a
    value so that none of it is skipped."""
    total = 0.0
    weights = [_Node(w) for w in _W]
    for b in range(KERNEL_BLOCKS):
        i = (row + 128 * b) % len(_X)
        h = _Node(_X[i:i + 128])
        for w in weights[:3]:
            h = _normalize_gelu(_matmul(h, w))
        out = _softmax(_matmul(h, weights[3]))
        _backward(out)
        total += float(out.value[0, 0]) + float(h.grad[0, 0])
    return total


class SpeedGauge:
    """Kernel times taken during a run, and the scale they give a timing.

    ``spent`` is the total time the kernel has taken; a timed interval that
    contains kernel runs subtracts the ones inside it.
    """

    def __init__(self):
        self.readings = []      # (clock time at the kernel's middle, seconds)
        self.spent = 0.0
        self._last = -float("inf")
        self._row = 0           # where the next kernel run's inputs start

    def read(self):
        start = time.perf_counter()
        kernel(self._row)
        end = time.perf_counter()
        self._row = (self._row + 128 * KERNEL_BLOCKS) % len(_X)
        self.readings.append((0.5 * (start + end), end - start))
        self.spent += end - start
        self._last = end

    def tick(self):
        """Runs the kernel if ``INTERVAL_S`` has passed since it last ran."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.read()

    def scale(self, start: float, end: float) -> float:
        """``KERNEL_REF_S`` over the mean kernel time during [start, end]:
        the runs within ``NEAR_S`` of it, and the nearest on either side.

        A mean, not a median: a stretch of slow running adds to every timing
        in proportion to its length, and so it does to the mean.
        """
        times = [t for t, _ in self.readings]
        before = [i for i, t in enumerate(times) if t < start]
        after = [i for i, t in enumerate(times) if t > end]
        near = {i for i, t in enumerate(times) if start - NEAR_S <= t <= end + NEAR_S}
        near.update(before[-1:] + after[:1])
        if not near:
            raise RuntimeError("no calibration kernel ran during the run")
        return KERNEL_REF_S / statistics.fmean(self.readings[i][1] for i in near)
