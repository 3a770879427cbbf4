"""Centroid bank tests: seeding, Lloyd steps, momentum tracking, scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftadapt import centroids as cb
from driftadapt.errors import ConfigError, ContractError, DegenerateDataError
from driftadapt.gradcore import Tensor


def _blob_data(rng, centers, n_per=20, spread=0.05):
    rows = []
    for c in centers:
        rows.append(np.asarray(c) + spread * rng.normal(0, 1, (n_per, len(c))))
    return np.vstack(rows)


def test_momentum_update_hand_value():
    bank = cb.CentroidBank("v", centroids=np.array([[1.0, 0.0]]), momentum=0.9)
    cb.momentum_update(bank, np.array([[0.0, 1.0]]))
    np.testing.assert_allclose(bank.centroids, [[0.9, 0.1]])
    assert bank.tau == 1


def test_momentum_update_contracts_toward_fixed_mean():
    bank = cb.CentroidBank("v", centroids=np.array([[4.0, -2.0]]), momentum=0.8)
    target = np.array([[1.0, 1.0]])
    gaps = []
    for _ in range(6):
        cb.momentum_update(bank, target)
        gaps.append(np.linalg.norm(bank.centroids - target))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # geometric decay at exactly the momentum rate
    assert gaps[1] / gaps[0] == pytest.approx(0.8, abs=1e-12)


def test_momentum_shape_mismatch():
    bank = cb.CentroidBank("v", centroids=np.zeros((2, 3)))
    with pytest.raises(ContractError):
        cb.momentum_update(bank, np.zeros((3, 3)))


def test_bad_momentum_rejected():
    with pytest.raises(ConfigError):
        cb.init_kmeanspp(np.eye(3), k=2, momentum=1.0)


def test_lloyd_sse_monotone():
    rng = np.random.default_rng(0)
    x = cb.l2_normalize_rows(rng.normal(0, 1, (60, 5)))
    bank = cb.CentroidBank("v", centroids=x[:4].copy())
    sses = []
    for _ in range(10):
        bank, sse = cb.lloyd_iterate(bank, x, _normalized=True)
        sses.append(sse)
    assert all(b <= a + 1e-12 for a, b in zip(sses, sses[1:]))


def test_init_finds_separated_blobs():
    rng = np.random.default_rng(1)
    centers = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    x = _blob_data(rng, centers)
    bank = cb.init_kmeanspp(x, k=3, seed=5)
    # each true blob should own exactly one centroid
    a = cb.assign(bank, x)
    owners = {tuple(np.unique(a.indices[i * 20 : (i + 1) * 20])) for i in range(3)}
    assert all(len(o) == 1 for o in owners)
    assert len({o[0] for o in owners}) == 3


def test_init_matches_brute_force_small():
    # 6 points, k=2: enumerate every bipartition for the optimal SSE
    rng = np.random.default_rng(3)
    x = cb.l2_normalize_rows(rng.normal(0, 1, (6, 3)))
    best = np.inf
    for mask_bits in range(1, 2**6 - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(6)], dtype=bool)
        c = np.stack([x[mask].mean(axis=0), x[~mask].mean(axis=0)])
        _, sse = cb._sse(x, c)
        best = min(best, sse)
    found = min(
        cb._sse(x, cb.init_kmeanspp(x, k=2, seed=s).centroids)[1] for s in range(10)
    )
    assert found <= best + 1e-9


def _reference_hartigan(x, centroids, max_sweeps=100):
    """Hartigan swap refinement as a plain loop over points and clusters: the
    oracle of the batched ``cb._hartigan_refine``."""
    labels, _ = cb._sse(x, centroids)
    k = centroids.shape[0]
    sums = np.zeros_like(centroids)
    counts = np.zeros(k, dtype=np.int64)
    for j in range(k):
        members = x[labels == j]
        counts[j] = len(members)
        if len(members):
            sums[j] = members.sum(axis=0)
    for _ in range(max_sweeps):
        moved = False
        for i in range(x.shape[0]):
            a = labels[i]
            if counts[a] <= 1:
                continue
            ca = sums[a] / counts[a]
            removal_gain = counts[a] / (counts[a] - 1.0) * ((x[i] - ca) ** 2).sum()
            best_gain, best_b = 1e-12, -1
            for b in range(k):
                if b == a:
                    continue
                if counts[b] == 0:
                    gain = removal_gain
                else:
                    cb_mean = sums[b] / counts[b]
                    gain = removal_gain - counts[b] / (counts[b] + 1.0) * (
                        (x[i] - cb_mean) ** 2
                    ).sum()
                if gain > best_gain:
                    best_gain, best_b = gain, b
            if best_b >= 0:
                sums[a] -= x[i]
                counts[a] -= 1
                sums[best_b] += x[i]
                counts[best_b] += 1
                labels[i] = best_b
                moved = True
        if not moved:
            break
    out = centroids.copy()
    for j in range(k):
        if counts[j]:
            out[j] = sums[j] / counts[j]
    return out


def _refine(x, centroids):
    return cb._hartigan_refine(x, centroids, cb._sse(x, centroids)[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.sampled_from([2, 3, 8, 32]),
       st.integers(1, 7), st.sampled_from(["normal", "rounded", "near_duplicates"]),
       st.booleans())
def test_hartigan_matches_loop_bitwise(seed, n, d, k, kind, far_centroid):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    x = rng.normal(0, 1, (n, d))
    if kind == "rounded":
        # a coarse grid makes exact distance and gain ties common
        x = np.round(x) + 0.5
    elif kind == "near_duplicates":
        half = x[: (n + 1) // 2]
        x = np.vstack([half, half + 1e-7 * rng.normal(0, 1, half.shape)])[:n]
    x = cb.l2_normalize_rows(x)
    centroids = x[rng.choice(n, k, replace=False)] + 0.2 * rng.normal(0, 1, (k, d))
    if far_centroid:
        # a centroid that no point is nearest to: the refinement starts with
        # an empty cluster, which takes every positive removal gain
        centroids[-1] = 100.0
    assert np.array_equal(_refine(x, centroids), _reference_hartigan(x, centroids))


def test_hartigan_single_cluster_is_the_mean():
    x = cb.l2_normalize_rows(np.random.default_rng(2).normal(0, 1, (9, 4)))
    c = x[:1].copy()
    assert np.array_equal(_refine(x, c), _reference_hartigan(x, c))
    np.testing.assert_allclose(_refine(x, c)[0], x.mean(axis=0), atol=1e-15)


def test_hartigan_never_moves_a_singleton():
    # the nearest-centroid start puts (5, 5) alone in cluster 1
    x = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
    c = np.array([[0.1, 0.0], [5.0, 5.0]])
    out = _refine(x, c)
    assert np.array_equal(out, _reference_hartigan(x, c))
    np.testing.assert_array_equal(out[1], [5.0, 5.0])


def test_hartigan_fills_an_empty_start_cluster():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([[0.5, 0.5], [10.0, 10.0]])
    assert np.bincount(cb._sse(x, c)[0], minlength=2)[1] == 0
    out = _refine(x, c)
    assert np.array_equal(out, _reference_hartigan(x, c))
    # (0, 0) takes the empty cluster on its positive removal gain and
    # (1, 0) follows it: the square splits into a bottom and a top pair
    np.testing.assert_array_equal(out, [[0.5, 1.0], [0.5, 0.0]])


def test_hartigan_move_that_leaves_one_member():
    # (3.4, 0) starts nearest centroid 0, but moving it to the far pair
    # lowers the SSE; that leaves (0, 0) alone, and a singleton never moves
    x = np.array([[0.0, 0.0], [3.4, 0.0], [6.0, 0.0], [6.2, 0.0]])
    c = np.array([[2.0, 0.0], [5.0, 0.0]])
    np.testing.assert_array_equal(cb._sse(x, c)[0], [0, 0, 1, 1])
    out = _refine(x, c)
    assert np.array_equal(out, _reference_hartigan(x, c))
    np.testing.assert_array_equal(out[0], [0.0, 0.0])
    np.testing.assert_allclose(out[1], [(3.4 + 6.0 + 6.2) / 3, 0.0])


def test_init_assigns_once_per_lloyd_iteration(monkeypatch):
    calls = {"sse": 0, "lloyd": 0}
    sse, lloyd = cb._sse, cb._lloyd_step

    def counting_sse(*args):
        calls["sse"] += 1
        return sse(*args)

    def counting_lloyd(*args, **kwargs):
        calls["lloyd"] += 1
        return lloyd(*args, **kwargs)

    monkeypatch.setattr(cb, "_sse", counting_sse)
    monkeypatch.setattr(cb, "_lloyd_step", counting_lloyd)
    x = cb.l2_normalize_rows(np.random.default_rng(8).normal(0, 1, (60, 4)))
    cb.init_kmeanspp(x, k=4, seed=1)
    assert calls["lloyd"] >= 2
    # one assignment per Lloyd iteration, plus the check of the last centroids
    assert calls["sse"] == calls["lloyd"] + 1


def test_init_requires_enough_points():
    with pytest.raises(ConfigError):
        cb.init_kmeanspp(np.eye(2), k=3)


def test_init_rejects_identical_points():
    with pytest.raises(DegenerateDataError):
        cb.init_kmeanspp(np.ones((5, 3)), k=2)


def test_normalize_rejects_zero_row():
    with pytest.raises(DegenerateDataError):
        cb.l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_batch_means_and_empty_carry():
    bank = cb.CentroidBank("v", centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))
    feats = np.array([[2.0, 0.0], [4.0, 0.0]])
    a = cb.Assignment(indices=np.array([0, 0]), similarities=np.ones(2))
    means = cb.batch_means(feats, a, bank)
    np.testing.assert_allclose(means[0], [3.0, 0.0])
    # cluster 1 saw no members: previous centroid carried forward and flagged
    np.testing.assert_allclose(means[1], [0.0, 1.0])
    assert bank.carried_forward == [1]


def test_batch_means_length_mismatch():
    bank = cb.CentroidBank("v", centroids=np.eye(2))
    a = cb.Assignment(indices=np.zeros(3, dtype=int), similarities=np.ones(3))
    with pytest.raises(ContractError):
        cb.batch_means(np.eye(2), a, bank)


def test_max_similarity_array_and_tensor_agree():
    rng = np.random.default_rng(4)
    bank = cb.CentroidBank("v", centroids=cb.l2_normalize_rows(rng.normal(0, 1, (3, 4))))
    feats = rng.normal(0, 1, (7, 4))
    s_arr, idx_arr = cb.max_similarity(bank, feats)
    s_t, idx_t = cb.max_similarity(bank, Tensor(feats, requires_grad=True))
    np.testing.assert_allclose(s_arr.data, s_t.data, atol=1e-12)
    np.testing.assert_array_equal(idx_arr, idx_t)


def test_assignment_tie_goes_to_lowest_index():
    bank = cb.CentroidBank("v", centroids=np.array([[1.0, 0.0], [1.0, 0.0]]))
    a = cb.assign(bank, np.array([[2.0, 0.0]]))
    assert a.indices[0] == 0


def test_assignment_similarity_bounds():
    rng = np.random.default_rng(6)
    bank = cb.init_kmeanspp(rng.normal(0, 1, (30, 4)), k=3, seed=0)
    a = cb.assign(bank, rng.normal(0, 1, (50, 4)))
    assert np.all(a.similarities <= 1.0 + 1e-12)
    assert np.all(a.similarities >= -1.0 - 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_lloyd_never_increases_sse(seed, k):
    rng = np.random.default_rng(seed)
    x = cb.l2_normalize_rows(rng.normal(0, 1, (25, 3)))
    bank = cb.init_kmeanspp(x, k=k, seed=seed)
    _, sse0 = cb.lloyd_iterate(bank, x, _normalized=True)
    _, sse1 = cb.lloyd_iterate(bank, x, _normalized=True)
    assert sse1 <= sse0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_momentum_keeps_convex_hull(seed):
    # each update is a convex combination, so coordinates stay inside the
    # min/max envelope of the old centroid and the batch mean
    rng = np.random.default_rng(seed)
    c0 = rng.normal(0, 1, (2, 3))
    means = rng.normal(0, 1, (2, 3))
    bank = cb.CentroidBank("v", centroids=c0.copy(), momentum=rng.uniform(0, 0.99))
    cb.momentum_update(bank, means)
    lo = np.minimum(c0, means) - 1e-12
    hi = np.maximum(c0, means) + 1e-12
    assert np.all(bank.centroids >= lo) and np.all(bank.centroids <= hi)
