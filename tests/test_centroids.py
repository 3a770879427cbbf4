"""Centroid bank tests: seeding, Lloyd steps, momentum tracking, scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_hartigan

from driftadapt import centroids as cb, gradcore as gc
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
    # momentum 0 is in range: the bank becomes the batch means
    bank = cb.CentroidBank("v", centroids=np.array([[1.0, 0.0]]), momentum=0.0)
    cb.momentum_update(bank, np.array([[0.25, -0.5]]))
    assert bank.centroids.tolist() == [[0.25, -0.5]]


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
    for momentum in (1.0, -0.1):
        bank = cb.CentroidBank("v", centroids=np.eye(2), momentum=momentum)
        with pytest.raises(ConfigError):
            cb.momentum_update(bank, np.zeros((2, 2)))
        np.testing.assert_array_equal(bank.centroids, np.eye(2))


def test_lloyd_sse_monotone(rng):
    x = cb.l2_normalize_rows(rng.normal(0, 1, (60, 5)))
    bank = cb.CentroidBank("v", centroids=x[:4].copy())
    sses = []
    for _ in range(10):
        bank, sse = cb.lloyd_iterate(bank, x, _normalized=True)
        sses.append(sse)
    assert all(b <= a + 1e-12 for a, b in zip(sses, sses[1:]))


def test_lloyd_reseeds_an_empty_cluster_at_the_farthest_row():
    x = cb.l2_normalize_rows(np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]))
    bank = cb.CentroidBank("v", centroids=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    bank, sse = cb.lloyd_iterate(bank, x, _normalized=True)
    # the last centroid is nearest to no row; rows 0 and 1 share the first,
    # and row 1 lies farthest from its own centroid
    np.testing.assert_allclose(bank.centroids, [[0.9, 0.3], [0.0, 1.0], [0.8, 0.6]])
    assert sse == pytest.approx(0.4)


def test_init_seeds_more_clusters_than_distinct_rows():
    # once a and b are seeds every row coincides with one, so the third seed
    # is a uniform draw of a row; Lloyd then reseeds whichever duplicate owns
    # no row at the first row, whatever the draw
    a, b = [1.0, 0.0], [0.0, 1.0]
    x = np.array([a, a, b, b])
    for seed in range(5):
        centroids = cb.init_kmeanspp(x, k=3, seed=seed).centroids
        assert sorted(map(tuple, centroids)) == [tuple(b), tuple(a), tuple(a)]


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
    assert np.array_equal(_refine(x, centroids), reference_hartigan(x, centroids))


def test_hartigan_single_cluster_is_the_mean():
    x = cb.l2_normalize_rows(np.random.default_rng(2).normal(0, 1, (9, 4)))
    c = x[:1].copy()
    assert np.array_equal(_refine(x, c), reference_hartigan(x, c))
    np.testing.assert_allclose(_refine(x, c)[0], x.mean(axis=0), atol=1e-15)


def test_hartigan_never_moves_a_singleton():
    # the nearest-centroid start puts (5, 5) alone in cluster 1
    x = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
    c = np.array([[0.1, 0.0], [5.0, 5.0]])
    out = _refine(x, c)
    assert np.array_equal(out, reference_hartigan(x, c))
    np.testing.assert_array_equal(out[1], [5.0, 5.0])


def test_hartigan_fills_an_empty_start_cluster():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([[0.5, 0.5], [10.0, 10.0]])
    assert np.bincount(cb._sse(x, c)[0], minlength=2)[1] == 0
    out = _refine(x, c)
    assert np.array_equal(out, reference_hartigan(x, c))
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
    assert np.array_equal(out, reference_hartigan(x, c))
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


@pytest.mark.parametrize("seed", [0, 2, 4, 5, 7, 8, 9, 10])
def test_kmeanspp_draws_a_uniform_row_once_the_remaining_distances_vanish(seed):
    # one far row and eight rows 1e-8 apart in orthogonal directions, too
    # close for _NORM_FLOOR but not all identical: once the far row and a
    # near row are seeds, the remaining d2 sum is 1.4e-15, so the third seed
    # is x[rng.integers(b)]. At these seeds that draw is a near row not yet a
    # seed; the ties send every other near row to the earlier seed, and no
    # swap gains more than 1e-12, so the drawn row stays a centroid as it is
    x = np.zeros((9, 10))
    x[0, 9] = 1.0
    x[1:, 0] = 1.0
    x[np.arange(1, 9), np.arange(1, 9)] = 1e-8
    rng = np.random.default_rng(seed)
    first = rng.integers(9)
    d2 = ((x - x[first]) ** 2).sum(axis=1)
    second = rng.choice(9, p=d2 / d2.sum())
    d2 = np.minimum(d2, ((x - x[second]) ** 2).sum(axis=1))
    assert d2.sum() < cb._NORM_FLOOR
    drawn = rng.integers(9)
    assert drawn not in (first, second)
    centroids = cb.init_kmeanspp(x, k=3, seed=seed).centroids
    assert any(c.tobytes() == x[drawn].tobytes() for c in centroids)


def test_init_rejects_identical_points():
    with pytest.raises(DegenerateDataError):
        cb.init_kmeanspp(np.ones((5, 3)), k=2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-14, 1e-12, 1e-6, 1e-5, 1e-4, 1e-2]))
def test_identical_points_check_is_allclose(seed, scale):
    # the written-out check rejects exactly the batches np.allclose(x, x[0],
    # atol=1e-12) finds identical, also at its relative tolerance of 1e-5
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, 4) + scale * rng.normal(0.0, 1.0, (6, 4))
    x = cb.l2_normalize_rows(features)
    try:
        cb.init_kmeanspp(features, k=2, seed=0)
        rejected = False
    except DegenerateDataError:
        rejected = True
    assert rejected == np.allclose(x, x[0], atol=1e-12)


def test_normalize_rejects_zero_row():
    with pytest.raises(DegenerateDataError):
        cb.l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_batch_means_and_empty_carry():
    bank = cb.CentroidBank("v", centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))
    feats = np.array([[2.0, 0.0], [4.0, 0.0]])
    means = cb.batch_means(feats, np.array([0, 0]), bank)
    np.testing.assert_allclose(means[0], [3.0, 0.0])
    # cluster 1 saw no members: previous centroid carried forward and flagged
    np.testing.assert_allclose(means[1], [0.0, 1.0])
    assert bank.carried_forward == [1]


def test_batch_means_length_mismatch():
    bank = cb.CentroidBank("v", centroids=np.eye(2))
    with pytest.raises(ContractError):
        cb.batch_means(np.eye(2), np.zeros(3, dtype=int), bank)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 60), st.integers(1, 7),
       st.lists(st.sampled_from(["random", "empty", "singleton"]), min_size=3, max_size=3),
       st.integers(1, 3))
def test_stacked_bank_tracking_equals_its_slices_bitwise(seed, n, b, k, patterns, steps):
    # batch_means + momentum_update on an n x k x d bank with n x B indices
    # against each slice's own k x d bank; "empty" leaves cluster k-1 empty
    # and "singleton" gives it one row, so carried_forward is tested too
    rng = np.random.default_rng(seed)
    stacked = cb.CentroidBank("", centroids=rng.normal(0, 1, (n, k, 4)), momentum=0.9)
    own = [cb.CentroidBank(m, centroids=c.copy(), momentum=0.9)
           for m, c in zip("vta", stacked.centroids)]
    for _ in range(steps):
        x = rng.normal(0, 1, (n, b, 4))
        idx = rng.integers(0, k, (n, b))
        for row, pattern in zip(idx, patterns):
            if pattern != "random" and k >= 2:
                row[row == k - 1] = 0
                if pattern == "singleton":
                    row[rng.integers(b)] = k - 1
        counts = gc.cluster_counts(idx, k)
        cb.momentum_update(stacked, cb.batch_means(x, idx, stacked, counts))
        for bank, xi, i in zip(own, x, idx):
            cb.momentum_update(bank, cb.batch_means(xi, i, bank))
        assert stacked.carried_forward == [bank.carried_forward for bank in own]
        assert [c.tobytes() for c in stacked.centroids] == [bank.centroids.tobytes()
                                                            for bank in own]
    # the counts are taken as given, and a stack computes its own the same way
    again = cb.CentroidBank("", centroids=stacked.centroids.copy())
    assert (cb.batch_means(x, idx, again).tobytes()
            == cb.batch_means(x, idx, stacked, counts).tobytes())


def test_batch_means_on_a_stack_checks_the_whole_index_shape():
    # axis 0 is 3 on both sides: only the full shape tells them apart
    bank = cb.CentroidBank("", centroids=np.ones((3, 2, 4)))
    with pytest.raises(ContractError):
        cb.batch_means(np.ones((3, 5, 4)), np.zeros((3, 4), dtype=int), bank)
    with pytest.raises(ContractError):
        cb.batch_means(np.ones((3, 5, 4)), np.zeros((3,), dtype=int), bank)
    # a feature stack of another slice count or width does not fit either
    with pytest.raises(ContractError):
        cb.batch_means(np.ones((2, 5, 4)), np.zeros((2, 5), dtype=int), bank)
    with pytest.raises(ContractError):
        cb.batch_means(np.ones((3, 5, 3)), np.zeros((3, 5), dtype=int), bank)


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
