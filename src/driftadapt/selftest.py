"""Fast in-process invariant checks, runnable without pytest."""

from __future__ import annotations

import numpy as np

from . import centroids as cb, gradcore as gc, objectives as obj
from .driftgen import accuracy, macro_f1
from .gradcore import Tensor


def _check_softmax(rng):
    for _ in range(50):
        x = Tensor(rng.normal(0, 3, rng.integers(1, 20)))
        p = gc.softmax(x).data
        assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12
    return "softmax positive and normalized"


def _check_cosine_bounds(rng):
    for _ in range(50):   # a 3 x B x d modality stack, as the banks score it
        b, k, d = rng.integers(1, 10, 3)
        s, idx = gc.max_cosine(Tensor(rng.normal(0, 1, (3, b, d)) + 0.1),
                               rng.normal(0, 1, (3, k, d)) + 0.1)
        assert s.data.shape == idx.shape == (3, b)
        assert np.all(np.abs(s.data) <= 1 + 1e-12) and np.all((idx >= 0) & (idx < k))
    return "max cosine similarity within [-1, 1]"


def _check_scan_dominance(rng):
    for _ in range(200):
        s = Tensor(rng.uniform(-1, 1, (rng.integers(1, 4), rng.integers(2, 30))))
        _, can = obj.can_loss(s)
        _, scan = obj.scan_loss(s, beta=rng.uniform(0, 20))
        assert all(scan[m] <= can[m] + 1e-9 for m in can)
    return "adaptive alignment never exceeds plain alignment"


def _check_momentum(rng):
    bank = cb.CentroidBank("v", rng.normal(0, 1, (2, 4)), momentum=0.9)
    target = rng.normal(0, 1, (2, 4))
    gap0 = np.linalg.norm(bank.centroids - target)
    for t in range(1, 6):
        cb.momentum_update(bank, target)
        assert abs(np.linalg.norm(bank.centroids - target) - 0.9**t * gap0) < 1e-9
    return "momentum update contracts geometrically"


def _check_metrics(rng):
    for _ in range(100):
        n = rng.integers(1, 50)
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        assert 0.0 <= accuracy(preds, labels) <= 1.0
        assert 0.0 <= macro_f1(preds, labels) <= 1.0
    return "metrics bounded"


def _partition_sse(x, labels):
    return sum(((x[labels == j] - x[labels == j].mean(axis=0)) ** 2).sum() for j in set(labels))


def _check_clustering(rng):
    # on every set, each centroid is the mean of the points nearest to it and
    # no single point move lowers the SSE by more than 1e-12; Lloyd alone
    # stops short of that on 40-60% of such sets
    for _ in range(40):
        n, k = rng.integers(6, 13), rng.integers(2, 4)
        x = cb.l2_normalize_rows(rng.normal(0, 1, (n, 3)))
        c = cb.init_kmeanspp(x, k=k, seed=rng.integers(1000)).centroids
        labels = cb._sse(x, c, False)[0]
        means = np.stack([x[labels == j].mean(axis=0) for j in range(k)])
        assert np.allclose(c, means, rtol=0.0, atol=1e-12), "a centroid is not its cluster's mean"
        sse = _partition_sse(x, labels)
        for i, j in np.argwhere(np.arange(k) != labels[:, None]):
            moved = np.where(np.arange(n) == i, j, labels)
            assert _partition_sse(x, moved) >= sse - 1e-12, f"moving point {i} lowers the SSE"
    # on fixed 6-point sets, the best of ten seedings (k=2) reaches the least
    # SSE of all 31 bipartitions
    for data_seed in range(10):
        x = cb.l2_normalize_rows(np.random.default_rng(data_seed).normal(0, 1, (6, 3)))
        best = min(_partition_sse(x, (bits >> np.arange(6)) & 1) for bits in range(1, 32))
        found = min(cb._sse(x, cb.init_kmeanspp(x, k=2, seed=s).centroids)[1] for s in range(10))
        assert found <= best + 1e-9, (found, best)
    return "k-means seeding ends at a single-move optimum, the brute-force one on fixed sets"


def _check_loss_gradients(rng):
    sims = Tensor(rng.uniform(-1, 1, (2, 5)), requires_grad=True)
    logits = Tensor(rng.normal(0, 2, (7, 3)), requires_grad=True)
    labels = np.array([2, 0, 2, 2, 0, 3, 0])   # cluster 1 empty, cluster 3 a singleton
    stacked = Tensor(rng.normal(0, 2, (2, 7, 3)), requires_grad=True)
    # row 0: cluster 1 empty, cluster 2 a singleton; row 1: one cluster
    stacked_labels = np.array([[0, 2, 0, 3, 3, 0, 3], [1, 1, 1, 1, 1, 1, 1]])
    features = Tensor(rng.normal(0, 1, (6, 4)), requires_grad=True)
    centroids = rng.normal(0, 1, (3, 4))
    x = Tensor(rng.normal(0, 1, (5, 4)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (4, 3)), requires_grad=True)
    b = Tensor(rng.normal(0, 0.5, 3), requires_grad=True)
    classes = rng.integers(0, 3, 5)
    tokens = Tensor(rng.normal(0, 1, (3, 3, 4)), requires_grad=True)
    ws = [Tensor(rng.normal(0, 0.5, (4, 4)), requires_grad=True) for _ in range(3)]
    inputs = Tensor(rng.normal(0, 1, (2, 5, 3)), requires_grad=True)
    enc = [Tensor(rng.normal(0, s, shape), requires_grad=True)
           for s, shape in ((1.0, (2, 3, 4)), (0.5, (2, 4)), (1.0, (2, 4)), (0.5, (2, 4)))]
    losses = {
        "em_loss": (lambda: obj.em_loss(logits), [logits]),
        "can_loss": (lambda: obj.can_loss(sims)[0], [sims]),
        "scan_loss beta=0": (lambda: obj.scan_loss(sims, 0.0)[0], [sims]),
        "scan_loss beta=10": (lambda: obj.scan_loss(sims, 10.0)[0], [sims]),
        "div_loss": (lambda: obj.div_loss(
            obj.cluster_avg_probs(logits, labels, 4), 4, [3])[0], [logits]),
        "stacked div_loss": (lambda: obj.div_loss(
            obj.cluster_avg_probs(stacked, stacked_labels, 4), 4, [3, 1])[0], [stacked]),
        # each fused op reduces through mean_entropy, a loss node the program runs
        "max_cosine": (lambda: gc.mean_entropy(
            gc.max_cosine(features, centroids)[0]), [features]),
        "pretraining cross_entropy": (
            lambda: gc.cross_entropy(gc.linear(x, w, b), classes), [x, w, b]),
        "attention_pool": (lambda: gc.mean_entropy(
            gc.attention_pool(tokens, *ws)), [tokens, *ws]),
        "linear_layernorm_gelu": (lambda: gc.mean_entropy(
            gc.linear_layernorm_gelu(inputs, *enc)), [inputs, *enc]),
    }
    for name, (loss, params) in losses.items():
        err = gc.finite_diff_params(loss, params)
        assert err < 1e-4, f"{name}: {err}"
    return "every loss, fused op and max-cosine gradient matches finite differences"


def run_selftest() -> list:
    """Returns (name, passed, detail) triples for each invariant suite.

    A check that raises fails its own row; the remaining checks still run.
    Each check draws from its own generator, so a check's data does not
    depend on what the checks before it draw.
    """
    checks = (_check_softmax, _check_cosine_bounds, _check_scan_dominance,
              _check_momentum, _check_metrics, _check_clustering,
              _check_loss_gradients)
    results = []
    for check, rng in zip(checks, np.random.default_rng(0).spawn(len(checks))):
        name = check.__name__.lstrip("_")
        try:
            results.append((name, True, check(rng)))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:   # any error fails this check alone
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
