"""Benchmark generator and metric tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (entropy_rows_inline, f1_oracle, outlier_mask_loop,
                     reference_generate_domain)

from driftadapt import driftgen as dg, gradcore as gc, objectives as obj
from driftadapt.config import BenchmarkConfig, preset_benchmark
from driftadapt.errors import ConfigError, ContractError
from driftadapt.model import MODALITIES


def _bench(**kw):
    base = dict(preset="custom", n_cores=2, d_z=4, d_in=4, p_hate=[1.0, 0.0],
                n_source=64, n_target=64)
    base.update(kw)
    return BenchmarkConfig(**base)


# -- metrics ---------------------------------------------------------------


def test_accuracy_hand_values():
    assert dg.accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
    assert dg.accuracy([0, 0], [0, 0]) == 1.0


def test_accuracy_length_mismatch():
    with pytest.raises(ContractError):
        dg.accuracy([1, 0], [1])
    with pytest.raises(ContractError):
        dg.accuracy([], [])


def test_macro_f1_hand_value():
    # preds [1,1,0,0] vs labels [1,0,0,0]: class0 F1=0.8, class1 F1=2/3
    assert dg.macro_f1([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(
        (0.8 + 2 / 3) / 2
    )


def test_macro_f1_degenerate_single_class():
    # all predictions and labels are class 0: class 1 contributes F1 = 0
    assert dg.macro_f1([0, 0, 0], [0, 0, 0]) == pytest.approx(0.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_macro_f1_matches_confusion_oracle(seed, n):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, n)
    labels = rng.integers(0, 2, n)
    assert dg.macro_f1(preds, labels) == pytest.approx(
        f1_oracle(preds, labels), abs=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_accuracy_matches_mean_oracle(seed, n):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, n)
    labels = rng.integers(0, 2, n)
    assert dg.accuracy(preds, labels) == pytest.approx(
        sum(int(p == y) for p, y in zip(preds, labels)) / n
    )


# -- generator -------------------------------------------------------------


def test_core_spec_separation_and_shapes():
    bench = _bench(n_cores=4, p_hate=[1, 0, 1, 0])
    cores = dg.make_core_spec(bench, seed=0)
    assert cores.embeddings.shape == (4, 4)
    d = np.linalg.norm(cores.embeddings[:, None] - cores.embeddings[None], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0


@pytest.mark.parametrize("n_cores, d_z", [(4, 1), (12, 3), (40, 8)])
def test_core_spec_rejects_cores_that_never_separate(n_cores, d_z):
    # one dimension holds two cores 2 apart at most; the others leave their
    # least distance below 2 in every one of the 100 draws
    bench = _bench(n_cores=n_cores, d_z=d_z, p_hate=[0.5] * n_cores)
    bench.validate()
    with pytest.raises(ConfigError, match=f"{n_cores} cores in d_z={d_z}"):
        dg.make_core_spec(bench, seed=0)


def test_severity_zero_maps_identical():
    bench = _bench(severity=0.0)
    src, tgt = dg.make_domain_pair(bench, seed=0)
    for m in MODALITIES:
        np.testing.assert_array_equal(src.maps[m][0], tgt.maps[m][0])
        np.testing.assert_array_equal(src.maps[m][1], tgt.maps[m][1])


def test_severity_widens_map_gap():
    gaps = []
    for sev in (0.2, 0.8):
        src, tgt = dg.make_domain_pair(_bench(severity=sev), seed=0)
        gaps.append(sum(np.linalg.norm(src.maps[m][0] - tgt.maps[m][0])
                        for m in MODALITIES))
    assert gaps[1] > gaps[0]


def test_generate_deterministic():
    bench = _bench()
    cores = dg.make_core_spec(bench, seed=1)
    src, _ = dg.make_domain_pair(bench, seed=1)
    a = dg.generate_domain(cores, src, 50, seed=3)
    b = dg.generate_domain(cores, src, 50, seed=3)
    for m in MODALITIES:
        np.testing.assert_array_equal(a.features[m], b.features[m])
    np.testing.assert_array_equal(a.labels, b.labels)


def test_labels_follow_core_probabilities():
    bench = _bench(label_noise=0.0, n_cores=2, p_hate=[1.0, 0.0])
    cores = dg.make_core_spec(bench, seed=0)
    src, _ = dg.make_domain_pair(bench, seed=0)
    ds = dg.generate_domain(cores, src, 400, seed=5)
    assert np.all(ds.labels[ds.cores == 0] == 1)
    assert np.all(ds.labels[ds.cores == 1] == 0)


def test_label_noise_flips_expected_fraction():
    bench = _bench(label_noise=0.25, p_hate=[1.0, 1.0])
    cores = dg.make_core_spec(bench, seed=0)
    src, _ = dg.make_domain_pair(bench, seed=0)
    ds = dg.generate_domain(cores, src, 2000, seed=7)
    assert np.mean(ds.labels == 0) == pytest.approx(0.25, abs=0.04)


def test_generate_rejects_empty():
    bench = _bench()
    cores = dg.make_core_spec(bench, seed=0)
    src, _ = dg.make_domain_pair(bench, seed=0)
    with pytest.raises(ContractError):
        dg.generate_domain(cores, src, 0, seed=0)


def _outlier_rows(ds, style_noise):
    # clean rows are tanh-bounded plus small style noise; outliers sit at
    # scale 3, so a row-norm threshold separates them cleanly
    norms = np.linalg.norm(ds.features["v"], axis=1)
    d_in = ds.features["v"].shape[1]
    return norms > np.sqrt(d_in) * (1.0 + 3.0 * style_noise) + 0.5


def test_outlier_fraction_applied():
    bench = _bench(outlier_frac=0.2, n_target=1000, style_noise=0.1)
    cores = dg.make_core_spec(bench, seed=0)
    _, tgt = dg.make_domain_pair(bench, seed=0)
    ds = dg.generate_domain(cores, tgt, 1000, seed=9)
    assert np.mean(_outlier_rows(ds, tgt.style_noise)) == pytest.approx(0.2, abs=0.03)
    # zero fraction produces no such rows
    clean_tgt = dg.DomainSpec(maps=tgt.maps, style_noise=tgt.style_noise)
    clean = dg.generate_domain(cores, clean_tgt, 1000, seed=9)
    assert np.mean(_outlier_rows(clean, tgt.style_noise)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 1.0]),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_outlier_mask_equals_one_draw_at_a_time(n, frac, other_frac, seed):
    # the same mask and the same generator state afterwards, so every later
    # draw of generate_domain is unchanged; frac 1.0 marks every position
    for f in (frac, other_frac):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        mask = dg._outlier_mask(a, n, f)
        assert np.array_equal(mask, outlier_mask_loop(b, n, f))
        assert mask.sum() == int(round(f * n))
        assert a.bit_generator.state == b.bit_generator.state


def test_clump_outliers_share_direction():
    bench = _bench(outlier_frac=0.3, outlier_mode="clump", outlier_spread=0.1,
                   n_target=600, style_noise=0.1)
    cores = dg.make_core_spec(bench, seed=0)
    _, tgt = dg.make_domain_pair(bench, seed=0)
    ds = dg.generate_domain(cores, tgt, 600, seed=11)
    rows = ds.features["v"][_outlier_rows(ds, tgt.style_noise)]
    assert len(rows) > 100
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    # near-duplicates: high cosine to their shared junk direction
    mean_dir = rows.mean(axis=0)
    mean_dir /= np.linalg.norm(mean_dir)
    assert np.mean(rows @ mean_dir) > 0.9


def _same_domain(ds, reference):
    features, labels, cores = reference
    assert ds.stack.shape == (len(MODALITIES),) + features[MODALITIES[0]].shape
    for m in MODALITIES:
        assert ds.features[m].tobytes() == features[m].tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.cores.tobytes() == cores.tobytes()


# the severe target is the only preset domain with outliers, and they clump
SCATTER = BenchmarkConfig(preset="custom", outlier_frac=0.3, outlier_mode="scatter")


@pytest.mark.parametrize("bench", [preset_benchmark(p) for p in ("mild", "severe", "collapse")]
                         + [SCATTER], ids=["mild", "severe", "collapse", "scatter"])
def test_generate_domain_equals_the_per_modality_reference_bytes(bench):
    # the stacked, in-place rendering draws the same numbers in the same
    # order and does the same arithmetic as three whole-array renderings
    for seed in range(3):
        cores = dg.make_core_spec(bench, 1000 + seed)
        for i, domain in enumerate(dg.make_domain_pair(bench, 2000 + seed)):
            no_outliers = dataclasses.replace(domain, outlier_frac=0.0)
            for n in (1, 37, 500):
                data_seed = 3000 + 1000 * i + seed
                for spec in (domain, no_outliers):
                    _same_domain(dg.generate_domain(cores, spec, n, data_seed),
                                 reference_generate_domain(cores, spec, n, data_seed))


def test_features_are_views_of_the_stack():
    bench = _bench(outlier_frac=0.2)
    ds = dg.generate_domain(dg.make_core_spec(bench, 0), dg.make_domain_pair(bench, 0)[1],
                            50, seed=1)
    assert ds.stack.shape == (len(MODALITIES), 50, bench.d_in)
    for i, m in enumerate(MODALITIES):
        assert np.shares_memory(ds.features[m], ds.stack)
        assert ds.features[m].base is ds.stack
        assert np.array_equal(ds.features[m], ds.stack[i])


@pytest.mark.parametrize("role", [0, 1], ids=["source", "target"])
def test_generate_domain_peak_is_the_stack_plus_under_three_modality_arrays(role):
    # each modality is rendered in its slice of the stack, and no two
    # full-size noise draws are held at once; three separate modality
    # arrays, each an np.where over whole-array temporaries, took the peak
    # past the stack plus 3.5 such arrays on the severe target (clumped
    # outliers) and source
    bench = preset_benchmark("severe")
    cores = dg.make_core_spec(bench, 0)
    domain = dg.make_domain_pair(bench, 0)[role]
    n = bench.n_target
    dg.generate_domain(cores, domain, 8, seed=1)   # one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dg.generate_domain(cores, domain, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    one = n * bench.d_in * np.dtype(np.float64).itemsize
    assert peak < len(MODALITIES) * one + 2.5 * one


def test_style_drift_override_scales_target_noise():
    plain = dg.make_domain_pair(_bench(severity=1.0, style_noise=0.2), seed=0)[1]
    overridden = dg.make_domain_pair(
        _bench(severity=1.0, style_noise=0.2, style_drift=0.5), seed=0
    )[1]
    assert plain.style_noise == pytest.approx(0.4)
    assert overridden.style_noise == pytest.approx(0.1)


def test_presets_validate():
    for name in ("mild", "severe", "collapse"):
        preset_benchmark(name).validate()


# -- diagnostics -----------------------------------------------------------


def test_cluster_ratio_diag_hand_case():
    indices = np.array([0, 0, 1, 1, 1])
    preds = np.array([1, 0, 1, 1, 0])
    labels = np.array([1, 1, 0, 0, 0])
    out = dg.cluster_ratio_diag(indices, preds, labels, k=3)
    assert set(out) == {0, 1}
    assert out[0] == (0.5, 1.0)
    assert out[1] == (pytest.approx(2 / 3), 0.0)


def test_cluster_ratio_diag_alignment_check():
    with pytest.raises(ContractError):
        dg.cluster_ratio_diag(np.zeros(3, dtype=int), np.zeros(2), np.zeros(3), k=1)


def test_entropy_rows_uniform_logits_give_log_classes():
    for c in (2, 3, 7):
        logits = np.full((4, c), 1.7)
        np.testing.assert_allclose(dg.entropy_rows(logits), np.log(c), rtol=0, atol=1e-12)


def test_entropy_rows_margin_50_is_near_zero():
    for logits in ([[50.0, 0.0]], [[0.0, 50.0, 0.0]], [[-3.0, 47.0, -3.0, -3.0]]):
        ent = dg.entropy_rows(np.array(logits))
        assert 0.0 <= ent[0] < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_entropy_rows_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 3, (5, 4))
    shift = rng.normal(0, 100, (5, 1))
    np.testing.assert_allclose(dg.entropy_rows(logits + shift), dg.entropy_rows(logits),
                               rtol=0, atol=1e-9)


def test_entropy_rows_mean_is_the_em_loss_on_saturated_rows():
    # a margin of 40 puts the other class below the 1e-12 floor, where a
    # floored probability would scale the log by 1e-12 instead of 4e-18
    logits = np.zeros((8, 2))
    logits[:, 0] = 40.0
    em = obj.em_loss(gc.Tensor(logits)).item()
    assert 0.0 < em < 1e-15
    assert dg.entropy_rows(logits).sum() * (1 / 8) == em


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 7),
       st.sampled_from([0.0, 20.0, 40.0, 800.0]), st.sampled_from([0.1, 3.0, 1e3]))
def test_entropy_rows_equal_inline_arithmetic_bitwise(seed, n, c, margin, scale):
    # at a logit spread of 0.1, margins of 40 and more put the other classes'
    # probabilities below the 1e-12 floor (800 underflows them to zero),
    # where only the log's argument is floored, not the probability it scales
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, scale, (n, c))
    logits[:, 0] += margin
    got = dg.entropy_rows(logits)
    assert got.tobytes() == entropy_rows_inline(logits).tobytes()
    if margin >= 40.0 and scale == 0.1 and c > 1:
        assert (gc.softmax_array(logits)[:, 1:] < 1e-12).all()
