"""Per-modality centroid banks: k-means++ initialization, Lloyd iterations,
momentum tracking across online batches, and max-cosine scoring.

Clustering runs in Euclidean geometry on L2-normalized feature rows so that
nearest-centroid structure is consistent with the cosine scores used during
adaptation. Centroids are alignment targets: they never receive gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gradcore as gc
from .errors import ConfigError, ContractError, DegenerateDataError

_NORM_FLOOR = 1e-12


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms < _NORM_FLOOR):
        raise DegenerateDataError("zero-norm feature row cannot be normalized")
    return x / norms


@dataclass
class CentroidBank:
    modality: str
    centroids: np.ndarray  # k x d_h
    momentum: float = 0.9
    tau: int = 0
    # clusters whose batch mean was carried forward on the last update
    carried_forward: list = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass
class Assignment:
    indices: np.ndarray  # per-sample cluster index
    similarities: np.ndarray  # per-sample max cosine similarity


def _sse(features: np.ndarray, centroids: np.ndarray) -> tuple:
    d2 = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return labels, float(d2[np.arange(len(features)), labels].sum())


def init_kmeanspp(features: np.ndarray, k: int, seed=0,
                  momentum: float = 0.9, modality: str = "",
                  max_iter: int = 100) -> CentroidBank:
    """k-means++ seeding followed by Lloyd iterations on normalized rows."""
    if not (0.0 <= momentum < 1.0):
        raise ConfigError(f"momentum {momentum} outside [0, 1)")
    b = features.shape[0]
    if b < k:
        raise ConfigError(f"need at least k={k} points, got {b}")
    x = l2_normalize_rows(np.asarray(features, dtype=np.float64))
    if k > 1 and np.allclose(x, x[0], atol=1e-12):
        raise DegenerateDataError("all points identical; cannot seed k>1 clusters")

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(b)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total < _NORM_FLOOR:
            # remaining points coincide with chosen seeds; spread over distinct rows
            centroids[j] = x[rng.integers(b)]
        else:
            centroids[j] = x[rng.choice(b, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    # each centroid set is assigned once: Lloyd updates from these labels,
    # and the labels of the converged centroids seed the swap refinement
    labels = _sse(x, centroids)[0]
    for _ in range(max_iter):
        centroids = _lloyd_step(x, centroids, labels)
        labels, previous = _sse(x, centroids)[0], labels
        if np.array_equal(labels, previous):
            break
    centroids = _hartigan_refine(x, centroids, labels, max_sweeps=max_iter)
    return CentroidBank(modality=modality, centroids=centroids, momentum=momentum)


def _hartigan_refine(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                     max_sweeps: int = 100):
    """Single-point swap refinement of a Lloyd fixed point.

    Lloyd only moves whole assignment boundaries, so it can get stuck when
    reassigning one point would shrink the total SSE (classic with
    near-duplicate pairs). Hartigan's criterion evaluates each point's exact
    SSE delta under cluster-size-corrected means and moves it when that
    delta is negative; fixed points of this sweep are a strict subset of
    Lloyd's.

    A sweep visits the points in order and moves each one whose best gain
    exceeds 1e-12, to the lowest-indexed cluster of that best gain. Up to the
    next move the sums and counts do not change, so one batched pass over
    the remaining points finds that move: the first point with a positive
    gain. ``labels`` is the assignment of ``x`` to ``centroids``.
    """
    n, k = x.shape[0], centroids.shape[0]
    labels = labels.copy()
    sums, counts = gc.cluster_sums(x, labels, k)
    for _ in range(max_sweeps):
        moved = False
        start = 0
        while start < n:
            rest = labels[start:]
            means = sums / np.maximum(counts, 1)[:, None]
            d2 = ((x[start:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
            own = counts[rest]
            rows = np.arange(n - start)
            # singleton owners never move; the floor only keeps them finite
            removal = own / np.maximum(own - 1.0, 1.0) * d2[rows, rest]
            # an empty cluster's term is 0.0 * d2, so its gain is the removal gain
            gains = removal[:, None] - counts / (counts + 1.0) * d2
            gains[rows, rest] = -np.inf
            gains[own <= 1] = -np.inf
            best = gains.argmax(axis=1)
            moves = gains[rows, best] > 1e-12
            r = moves.argmax()
            if not moves[r]:
                break
            i, a, b = start + r, rest[r], best[r]
            sums[a] -= x[i]
            counts[a] -= 1
            sums[b] += x[i]
            counts[b] += 1
            labels[i] = b
            moved = True
            start = i + 1
        if not moved:
            break
    return _means_or(centroids, sums, counts)


def _means_or(fallback: np.ndarray, sums: np.ndarray, counts: np.ndarray):
    """Per-cluster means ``sums / counts``; an empty cluster keeps its
    ``fallback`` row."""
    out = fallback.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out


def lloyd_iterate(bank: CentroidBank, features: np.ndarray, _normalized=False):
    """One assign + mean-update step; returns (bank, SSE before the update)."""
    x = features if _normalized else l2_normalize_rows(np.asarray(features, dtype=np.float64))
    labels, sse = _sse(x, bank.centroids)
    bank.centroids = _lloyd_step(x, bank.centroids, labels)
    return bank, sse


def _lloyd_step(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray):
    """Means of the clusters that ``labels`` assigns; every empty cluster is
    reseeded to the point farthest from its own centroid."""
    sums, counts = gc.cluster_sums(x, labels, len(centroids))
    out = _means_or(centroids, sums, counts)
    if not counts.all():
        out[counts == 0] = x[np.linalg.norm(x - centroids[labels], axis=1).argmax()]
    return out


def batch_means(features: np.ndarray, assignment: Assignment, bank: CentroidBank):
    """Per-cluster means of the given rows; empty clusters carry the previous
    centroid forward and are flagged on the bank."""
    if assignment.indices.shape[0] != features.shape[0]:
        raise ContractError("assignment length does not match batch size")
    sums, counts = gc.cluster_sums(features, assignment.indices, bank.k)
    bank.carried_forward = np.flatnonzero(counts == 0).tolist()
    return _means_or(bank.centroids, sums, counts)


def momentum_update(bank: CentroidBank, means: np.ndarray) -> CentroidBank:
    """c_tau = momentum * c_(tau-1) + (1 - momentum) * batch mean."""
    if not (0.0 <= bank.momentum < 1.0):
        raise ConfigError(f"momentum {bank.momentum} outside [0, 1)")
    if means.shape != bank.centroids.shape:
        raise ContractError(f"means shape {means.shape} != {bank.centroids.shape}")
    bank.centroids = bank.momentum * bank.centroids + (1.0 - bank.momentum) * means
    bank.tau += 1
    return bank


def max_similarity(bank: CentroidBank, features):
    """Max cosine similarity of each feature row to the bank's centroids.

    Accepts a Tensor (gradient flows into the features, never the centroids)
    or a plain array. Returns (similarity Tensor, argmax indices); ties go to
    the lowest index.
    """
    return gc.max_axis1(gc.cosine_matrix(features, bank.centroids))


def assign(bank: CentroidBank, features: np.ndarray) -> Assignment:
    s, idx = max_similarity(bank, features)
    return Assignment(indices=idx, similarities=s.data)
