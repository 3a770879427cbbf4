"""Model architecture, persistence, and pretraining tests."""

import numpy as np
import pytest

from conftest import tiny_batch, tiny_model

from driftadapt import gradcore as gc
from driftadapt.errors import CompatibilityError, ContractError
from driftadapt.model import (
    MODALITIES,
    FusionBlock,
    ModelDims,
    SourceModel,
    predict,
    pretrain_source,
)

# fused logits for tiny_model(seed=0) on the default_rng(42) batch, frozen
# from the initial implementation to catch silent forward-pass changes
GOLDEN_FUSED = np.array([
    [0.532044685685278, 0.24918087491323185],
    [0.17386283595767646, -0.4334282070188756],
    [0.31436982023037147, 0.22491582879242614],
])


def test_forward_shapes():
    model = tiny_model()
    batch = tiny_batch(np.random.default_rng(1), n=5)
    features, modality_logits, fused_logits = model.forward_full(batch)
    for m in MODALITIES:
        assert features[m].data.shape == (5, 6)
        assert modality_logits[m].data.shape == (5, 2)
    assert fused_logits.data.shape == (5, 2)


def test_forward_golden_values():
    model = tiny_model(seed=0)
    batch = tiny_batch(np.random.default_rng(42))
    _, _, fused_logits = model.forward_full(batch)
    np.testing.assert_allclose(fused_logits.data, GOLDEN_FUSED, atol=1e-12)


def test_forward_deterministic():
    batch = tiny_batch(np.random.default_rng(7))
    out1 = tiny_model(seed=3).forward_full(batch)[2].data
    out2 = tiny_model(seed=3).forward_full(batch)[2].data
    np.testing.assert_array_equal(out1, out2)


def _fusion_op_by_op(fusion, features):
    """The fusion block composed from per-row ops: one node per row op."""
    toks = [features[m] for m in MODALITIES]
    q = [gc.matmul(t, fusion.wq) for t in toks]
    k = [gc.matmul(t, fusion.wk) for t in toks]
    v = [gc.matmul(t, fusion.wv) for t in toks]
    inv_sqrt = 1.0 / np.sqrt(fusion.d_h)
    pooled = None
    for qi in q:
        scores = gc.stack_cols([gc.mul(gc.rowdot(qi, kj), inv_sqrt) for kj in k])
        attn = gc.softmax(scores)
        tok_out = None
        for j, vj in enumerate(v):
            term = gc.rowscale(gc.col(attn, j), vj)
            tok_out = term if tok_out is None else gc.add(tok_out, term)
        pooled = tok_out if pooled is None else gc.add(pooled, tok_out)
    return gc.mul(pooled, 1.0 / len(toks))


def test_fusion_matches_op_by_op_composition():
    rng = np.random.default_rng(21)
    fusion = FusionBlock(6, rng)
    features = {m: gc.Tensor(rng.normal(0, 1, (7, 6)), requires_grad=True)
                for m in MODALITIES}
    leaves = [*features.values(), fusion.wq, fusion.wk, fusion.wv]
    weights = gc.Tensor(rng.normal(0, 1, (7, 6)))
    results = []
    for forward in (fusion.forward, lambda f: _fusion_op_by_op(fusion, f)):
        for t in leaves:
            t.grad = None
        out = forward(features)
        gc.backward(gc.tsum(gc.mul(out, weights)))
        results.append((out.data, [t.grad.copy() for t in leaves]))
    (fused, fused_grads), (oracle, oracle_grads) = results
    np.testing.assert_allclose(fused, oracle, rtol=0.0, atol=1e-12)
    for got, want in zip(fused_grads, oracle_grads):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_fused_logits_graph_size():
    # one node per encoder, one attention node and one classifier node; the
    # op-by-op encoders and classifier built 15, a per-row fusion 50 more
    model = tiny_model()
    _, _, fused_logits = model.forward_full(tiny_batch(np.random.default_rng(6)))
    seen, stack = set(), [fused_logits]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) <= 5


def test_forward_is_the_fused_logits_of_forward_full():
    model = tiny_model(seed=5)
    batch = tiny_batch(np.random.default_rng(12), n=9)
    assert np.array_equal(model.forward(batch).data, model.forward_full(batch)[2].data)


def test_pretrain_step_graph_budget(monkeypatch):
    # 3 encoders, attention, classifier and the loss; forward_full's unread
    # modality logits and the op-by-op blocks made it 22
    made = []
    make = gc._make
    monkeypatch.setattr(gc, "_make", lambda *args: made.append(1) or make(*args))
    features, labels = _separable_data(np.random.default_rng(1), n=128)
    pretrain_source(tiny_model(), features, labels, epochs=2, batch_size=64, holdout_frac=0.0)
    assert len(made) <= 4 * 6


def test_whole_model_grad_through_fusion():
    rng = np.random.default_rng(4)
    model = SourceModel(ModelDims(d_in=3, d_h=5, n_classes=2), seed=4)
    batch = {m: rng.normal(0, 1, (6, 3)) for m in MODALITIES}
    labels = [0, 1, 1, 0, 1, 0]
    err = gc.finite_diff_params(
        lambda: gc.cross_entropy(model.forward_full(batch)[2], labels),
        model.named_parameters().values())
    assert err < 1e-5


def test_trainable_frozen_split():
    model = tiny_model()
    trainable = set(model.trainable_parameters())
    frozen = set(model.frozen_parameters())
    assert trainable.isdisjoint(frozen)
    assert trainable | frozen == set(model.named_parameters())
    assert all(name.startswith("enc.") for name in trainable)
    assert {"fusion.wq", "fusion.wk", "fusion.wv", "clf.weight", "clf.bias"} == frozen


def test_standardization_applied():
    model = tiny_model()
    rng = np.random.default_rng(5)
    batch = tiny_batch(rng, n=64)
    model.set_input_stats(batch)
    base = model.forward_full(batch)[2].data.copy()
    model.set_input_stats({m: batch[m] + 10.0 for m in MODALITIES})
    shifted = model.forward_full({m: batch[m] + 10.0 for m in MODALITIES})[2].data
    # shifting inputs and stats together leaves standardized inputs unchanged
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_encode_batch_size_mismatch():
    model = tiny_model()
    rng = np.random.default_rng(2)
    batch = tiny_batch(rng)
    batch["a"] = batch["a"][:2]
    with pytest.raises(ContractError):
        model.encode(batch)


def test_save_load_round_trip(tmp_path):
    model = tiny_model(seed=9)
    rng = np.random.default_rng(11)
    model.set_input_stats(tiny_batch(rng, n=32))
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded = SourceModel.load(path)
    batch = tiny_batch(rng)
    np.testing.assert_array_equal(
        model.forward_full(batch)[2].data, loaded.forward_full(batch)[2].data
    )
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(p.data, loaded.named_parameters()[name].data)


def test_load_rejects_foreign_file(tmp_path):
    from driftadapt import checkpoint

    path = tmp_path / "bad.ckpt"
    checkpoint.save(path, {"something": np.zeros(3)})
    with pytest.raises(CompatibilityError):
        SourceModel.load(path)


def test_load_rejects_missing_param(tmp_path):
    model = tiny_model()
    arrays = model.state_arrays()
    del arrays["clf.weight"]
    from driftadapt import checkpoint

    path = tmp_path / "partial.ckpt"
    checkpoint.save(path, arrays)
    with pytest.raises(CompatibilityError):
        SourceModel.load(path)


def _separable_data(rng, n=256, d_in=4):
    labels = rng.integers(0, 2, n)
    centers = {0: -1.5, 1: 1.5}
    features = {}
    for m in MODALITIES:
        x = rng.normal(0.0, 0.4, (n, d_in))
        x += np.array([centers[y] for y in labels])[:, None]
        features[m] = x
    return features, labels


def test_pretrain_learns_separable_data():
    rng = np.random.default_rng(0)
    features, labels = _separable_data(rng)
    model = SourceModel(ModelDims(d_in=4, d_h=6, n_classes=2), seed=0)
    result = pretrain_source(model, features, labels, epochs=15, batch_size=64)
    assert result.holdout_accuracy >= 0.9
    assert result.losses[-1] < result.losses[0]


def test_predict_returns_class_indices():
    model = tiny_model()
    preds = predict(model, tiny_batch(np.random.default_rng(4), n=10))
    assert preds.shape == (10,)
    assert set(np.unique(preds)) <= {0, 1}


def test_parameter_gradients_reach_all_trainables():
    model = tiny_model()
    batch = tiny_batch(np.random.default_rng(8), n=6)
    model.zero_grad()
    _, _, fused_logits = model.forward_full(batch)
    gc.backward(gc.cross_entropy(fused_logits, [0, 1, 0, 1, 0, 1]))
    for name, p in model.named_parameters().items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0) or "bias" in name, name
