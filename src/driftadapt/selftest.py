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
    for _ in range(50):
        b, k, d = rng.integers(1, 10, 3)
        s = gc.cosine_matrix(Tensor(rng.normal(0, 1, (b, d)) + 0.1),
                             rng.normal(0, 1, (k, d)) + 0.1).data
        assert s.shape == (b, k) and np.all(np.abs(s) <= 1 + 1e-12)
    return "cosine similarity within [-1, 1]"


def _check_gradients(rng):
    x = Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)

    def f(t):
        return gc.tsum(gc.mul(gc.softmax(t, axis=1), gc.log_clamped(gc.softmax(t, axis=1))))

    err = gc.finite_diff_params(lambda: f(x), [x])
    assert err < 1e-4, err
    return "composite gradient matches finite differences"


def _check_attention_gradients(rng):
    tokens = [Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True) for _ in range(3)]
    ws = [Tensor(rng.normal(0, 0.5, (4, 4)), requires_grad=True) for _ in range(3)]
    weights = Tensor(rng.normal(0, 1, (3, 4)))

    def loss():
        return gc.tsum(gc.mul(gc.attention_pool(tokens, *ws), weights))

    err = gc.finite_diff_params(loss, tokens + ws)
    assert err < 1e-4, err
    return "fused attention gradient matches finite differences"


def _check_scan_dominance(rng):
    for _ in range(200):
        s = Tensor(rng.uniform(-1, 1, rng.integers(2, 30)))
        can, _ = obj.can_loss({"v": s})
        scan, _ = obj.scan_loss({"v": s}, beta=rng.uniform(0, 20))
        assert scan.data.item() <= can.data.item() + 1e-9
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


def _check_clustering(rng):
    # 6 points, k=2: the best of ten seedings reaches the SSE of the best of
    # all 31 bipartitions. Lloyd alone misses it on a few percent of such
    # sets, so 40 of them also exercise the swap refinement.
    for _ in range(40):
        x = cb.l2_normalize_rows(rng.normal(0, 1, (6, 3)))
        best = np.inf
        for bits in range(1, 2**5):
            mask = np.array([(bits >> i) & 1 for i in range(6)], dtype=bool)
            c = np.stack([x[mask].mean(axis=0), x[~mask].mean(axis=0)])
            best = min(best, cb._sse(x, c)[1])
        found = min(cb._sse(x, cb.init_kmeanspp(x, k=2, seed=s).centroids)[1]
                    for s in range(10))
        assert found <= best + 1e-9, (found, best)
    return "k-means seeding reaches the brute-force optimal SSE"


def _check_cluster_gradients(rng):
    logits = Tensor(rng.normal(0, 2, (7, 3)), requires_grad=True)
    labels = np.array([0, 2, 0, 3, 3, 0, 3])   # cluster 1 empty, cluster 2 a singleton
    err = gc.finite_diff_params(
        lambda: obj.div_loss({"v": obj.cluster_avg_probs(logits, labels, 4)}, 4)[0], [logits])
    assert err < 1e-4, err
    return "per-cluster mean and diversity gradients match finite differences"


def run_selftest() -> list:
    """Returns (name, passed, detail) triples for each invariant suite."""
    rng = np.random.default_rng(0)
    results = []
    for check in (_check_softmax, _check_cosine_bounds, _check_gradients,
                  _check_attention_gradients, _check_scan_dominance,
                  _check_momentum, _check_metrics, _check_clustering,
                  _check_cluster_gradients):
        try:
            detail = check(rng)
            results.append((check.__name__.lstrip("_"), True, detail))
        except AssertionError as exc:
            results.append((check.__name__.lstrip("_"), False, str(exc)))
    return results
