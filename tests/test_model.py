"""Model architecture, persistence, and pretraining tests."""

import numpy as np
import pytest

from conftest import TINY_DIMS, tiny_batch, tiny_model
from oracles import fusion_op_by_op

from driftadapt import checkpoint, gradcore as gc, model as model_module
from driftadapt.errors import CompatibilityError, ContractError, DivergenceError, NumericError
from driftadapt.model import (
    MODALITIES,
    FusionBlock,
    ModalityEncoder,
    ModelDims,
    SourceModel,
    batch_stats,
    predict,
    pretrain_source,
    stack_modalities,
)
from driftadapt.optim import AdamW

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


def test_fusion_matches_op_by_op_composition():
    rng = np.random.default_rng(21)
    fusion = FusionBlock(6, rng)
    features = gc.Tensor(rng.normal(0, 1, (3, 7, 6)), requires_grad=True)
    leaves = [features, fusion.wq, fusion.wk, fusion.wv]
    weights = gc.Tensor(rng.normal(0, 1, (7, 6)))
    results = []
    for forward in (fusion.forward, lambda f: fusion_op_by_op(fusion, f)):
        # the block's weights are created frozen; each pass is a training step
        with gc.tracking(leaves):
            out = forward(features)
            gc.backward(gc.tsum(gc.mul(out, weights)))
        results.append((out.data, [t.grad.copy() for t in leaves]))
    (fused, fused_grads), (oracle, oracle_grads) = results
    np.testing.assert_allclose(fused, oracle, rtol=0.0, atol=1e-12)
    for got, want in zip(fused_grads, oracle_grads):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_fused_logits_graph_size():
    # one encoder node over the modality stack, one attention node and one
    # classifier node; one encoder node per modality made it 5, the op-by-op
    # encoders and classifier 15, a per-row fusion 50 more
    model = tiny_model()
    with gc.tracking(model.named_parameters().values()):
        _, _, fused_logits = model.forward_full(tiny_batch(np.random.default_rng(6)))
    seen, stack = set(), [fused_logits]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) == 3


def test_forward_is_the_fused_logits_of_forward_full():
    model = tiny_model(seed=5)
    batch = tiny_batch(np.random.default_rng(12), n=9)
    fused = model.forward_full(batch)[2].data
    assert np.array_equal(model.head(model.embed(batch)).data, fused)
    assert np.array_equal(predict(model, batch), fused.argmax(axis=1))


def test_pretrain_step_graph_budget(made):
    # the stacked encoder, attention, classifier and the loss; one encoder
    # per modality made it 6, and forward_full's unread modality logits and
    # the op-by-op blocks 22
    features, labels = _separable_data(np.random.default_rng(1), n=128)
    pretrain_source([tiny_model()], [(features, labels)], epochs=2, batch_size=64, seeds=[0])
    # two steps per epoch on the 102 training rows, then one prediction of
    # the held-out rows (encoder, attention, classifier)
    assert len(made) == 2 * 2 * 4 + 3


def test_pretrain_step_graph_budget_is_the_same_for_three_seeds(made):
    # the three models train as one stack: still 4 nodes a step, and one
    # prediction of each model's held-out rows
    rng = np.random.default_rng(1)
    data = [_separable_data(rng, n=128) for _ in range(3)]
    pretrain_source([tiny_model(s) for s in range(3)], data, epochs=2, batch_size=64,
                    seeds=[0, 1, 2])
    assert len(made) == 2 * 2 * 4 + 3 * 3


def test_pretrained_models_predict_without_a_graph(monkeypatch, made):
    # parameters are created frozen and each stacked step tracks its own, so
    # no model leaves pretraining requiring a gradient, and neither the
    # held-out predictions nor a later one build a node with parents
    spans, predict_rows = [], model_module.predict

    def spanned(model, features):
        start = len(made)
        preds = predict_rows(model, features)
        spans.append(slice(start, len(made)))
        return preds

    monkeypatch.setattr(model_module, "predict", spanned)
    rng = np.random.default_rng(1)
    models = [tiny_model(s) for s in range(2)]
    pretrain_source(models, [_separable_data(rng, n=128) for _ in models], epochs=1,
                    batch_size=64, seeds=[0, 1])
    assert not any(p.requires_grad for m in models for p in m.named_parameters().values())
    spanned(models[0], _separable_data(rng, n=8)[0])
    assert len(spans) == 3 and all(len(made[s]) == 3 for s in spans)
    assert not any(t._parents for s in spans for t in made[s])
    # the steps between them did build graphs
    assert any(t._parents for t in made)


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


def test_batch_stats_equal_numpy_mean_and_var_bitwise():
    # the (3, B, d) views of a (3, n, d) stack that run_stream hands the norm
    # update, B from 1 to 140 at several row offsets, and a whole stack as
    # set_input_stats reads it; magnitudes far from zero make the deviations
    # lose bits, so a different order of operations shows
    stack = np.random.default_rng(7).normal(1e3, 2.0, (3, 400, 5))
    for b in range(1, 141):
        for start in (0, 3, 400 - b):
            x = stack[:, start:start + b]
            mean, var = batch_stats(x)
            assert mean.tobytes() == x.mean(axis=1).tobytes()
            assert var.tobytes() == x.var(axis=1).tobytes()
    model = tiny_model()
    model.set_input_stats(stack)
    assert model.input_mean.tobytes() == stack.mean(axis=1).tobytes()
    assert model.input_var.tobytes() == stack.var(axis=1).tobytes()


def test_encode_batch_size_mismatch():
    model = tiny_model()
    rng = np.random.default_rng(2)
    batch = tiny_batch(rng)
    batch["a"] = batch["a"][:2]
    with pytest.raises(ContractError):
        model.encode(batch)


def test_stack_modalities_takes_a_stack_as_it_is():
    stack = np.random.default_rng(3).normal(0.0, 1.0, (len(MODALITIES), 10, 4))
    view = stack[:, 2:7]
    assert stack_modalities(view) is view
    batch = dict(zip(MODALITIES, view))
    assert stack_modalities(batch).tobytes() == view.tobytes()
    model = tiny_model()
    assert model.embed(view).data.tobytes() == model.embed(batch).data.tobytes()


@pytest.mark.parametrize("shape", [(2, 5, 4), (4, 5, 4), (5, 4), (3, 1, 5, 4), (3,)])
def test_stack_modalities_rejects_a_wrong_leading_axis_or_rank(shape):
    with pytest.raises(ContractError, match="stacked batch"):
        stack_modalities(np.zeros(shape))


def test_save_load_round_trip(tmp_path):
    model = tiny_model(seed=9)
    rng = np.random.default_rng(11)
    model.set_input_stats(tiny_batch(rng, n=32))
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded = SourceModel.load(path, TINY_DIMS)
    batch = tiny_batch(rng)
    np.testing.assert_array_equal(
        model.forward_full(batch)[2].data, loaded.forward_full(batch)[2].data
    )
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(p.data, loaded.named_parameters()[name].data)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    checkpoint.save(path, {"something": np.zeros(3)})
    with pytest.raises(CompatibilityError):
        SourceModel.load(path, TINY_DIMS)


def test_load_rejects_missing_param(tmp_path):
    model = tiny_model()
    arrays = model.state_arrays()
    del arrays["clf.weight"]
    path = tmp_path / "partial.ckpt"
    checkpoint.save(path, arrays)
    with pytest.raises(CompatibilityError):
        SourceModel.load(path, TINY_DIMS)


def _separable_data(rng, n=256, d_in=4):
    labels = rng.integers(0, 2, n)
    centers = {0: -1.5, 1: 1.5}
    features = {}
    for m in MODALITIES:
        x = rng.normal(0.0, 0.4, (n, d_in))
        x += np.array([centers[y] for y in labels])[:, None]
        features[m] = x
    return features, labels


def test_pretrain_learns_separable_data(rng):
    features, labels = _separable_data(rng)
    model = SourceModel(ModelDims(d_in=4, d_h=6, n_classes=2), seed=0)
    [result] = pretrain_source([model], [(features, labels)], epochs=15, batch_size=64,
                               seeds=[0])
    assert result.holdout_accuracy >= 0.9
    assert result.losses[-1] < result.losses[0]


def test_nan_pretraining_loss_raises_divergence(monkeypatch):
    # finite fused logits whose loss is not finite stop the pretraining
    monkeypatch.setattr(gc, "cross_entropy",
                        lambda logits, y, means: gc.Tensor(np.asarray(np.nan)))
    features, labels = _separable_data(np.random.default_rng(1), n=64)
    with pytest.raises(DivergenceError, match="non-finite pretraining loss at epoch 0"):
        pretrain_source([tiny_model()], [(features, labels)], epochs=1, batch_size=32,
                        seeds=[0])


@pytest.mark.parametrize("n_labels", [90, 110])
def test_pretrain_rejects_labels_of_another_row_count_before_any_step(monkeypatch, n_labels):
    steps = []
    monkeypatch.setattr(AdamW, "step", lambda opt: steps.append(1))
    features, _ = _separable_data(np.random.default_rng(2), n=100)
    labels = np.random.default_rng(3).integers(0, 2, n_labels)
    message = f"100 feature rows and labels of shape \\({n_labels},\\)"
    with pytest.raises(ContractError, match=message):
        pretrain_source([tiny_model()], [(features, labels)], epochs=1, batch_size=32,
                        seeds=[0])
    assert steps == []


def test_pretrain_rejects_seeds_of_different_row_counts_before_any_step(monkeypatch):
    # the second seed's features and labels agree with each other, but not
    # with the first seed's row count
    steps = []
    monkeypatch.setattr(AdamW, "step", lambda opt: steps.append(1))
    rng = np.random.default_rng(4)
    data = [_separable_data(rng, n=100), _separable_data(rng, n=110)]
    with pytest.raises(ContractError, match="have \\[100, 110\\] rows"):
        pretrain_source([tiny_model(0), tiny_model(1)], data, epochs=1, batch_size=32,
                        seeds=[0, 1])
    assert steps == []


def test_pretrain_rejects_a_count_of_data_sets_other_than_the_models():
    rng = np.random.default_rng(5)
    pairs = [_separable_data(rng, n=40) for _ in range(3)]
    for models, data, seeds, match in (([tiny_model()], pairs[:2], [0], "pairs"),
                                       ([tiny_model(), tiny_model()], pairs[:1], [0, 1], "pairs"),
                                       ([tiny_model()], pairs[:1], [0, 1], "1 models but 2 seeds")):
        with pytest.raises(ContractError, match=match):
            pretrain_source(models, data, epochs=1, batch_size=16, seeds=seeds)
    assert pretrain_source([], [], epochs=1, batch_size=16, seeds=[]) == []


def test_pretraining_together_equals_pretraining_alone_bitwise():
    # each model ends with the parameters, input statistics, losses and
    # holdout accuracy of its own run, and its parameters are its slices of
    # the stacked storage
    rng = np.random.default_rng(6)
    data = [_separable_data(rng, n=90) for _ in range(3)]
    together = [tiny_model(s) for s in (4, 5, 6)]
    results = pretrain_source(together, data, epochs=3, batch_size=32, seeds=[7, 8, 9])
    for model, pair, seed, result in zip(together, data, (7, 8, 9), results):
        alone = tiny_model(seed - 3)
        [want] = pretrain_source([alone], [pair], epochs=3, batch_size=32, seeds=[seed])
        assert result == want
        got_state, want_state = model.state_arrays(), alone.state_arrays()
        assert got_state.keys() == want_state.keys()
        for name in got_state:
            assert got_state[name].tobytes() == want_state[name].tobytes(), name
    storage = together[0].encoder.weight.data.base
    assert all(np.shares_memory(p.data, storage)
               for m in together for p in m.named_parameters().values())


def test_head_rejects_non_finite_fused_logits():
    # finite weights whose attention scores overflow give NaN fused logits,
    # which argmax would score as class 0
    model = tiny_model()
    model.fusion.wq.data *= 1e160
    model.fusion.wk.data *= 1e160
    features = model.embed(tiny_batch(np.random.default_rng(5)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="fused logits are not finite"):
        model.head(features)


def test_predict_returns_class_indices():
    model = tiny_model()
    preds = predict(model, tiny_batch(np.random.default_rng(4), n=10))
    assert preds.shape == (10,)
    assert set(np.unique(preds)) <= {0, 1}


def test_parameter_gradients_reach_all_trainables():
    model = tiny_model()
    batch = tiny_batch(np.random.default_rng(8), n=6)
    with gc.tracking(model.named_parameters().values()):
        _, _, fused_logits = model.forward_full(batch)
        gc.backward(gc.cross_entropy(fused_logits, [0, 1, 0, 1, 0, 1]))
    for name, p in model.named_parameters().items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0) or "bias" in name, name


# -- the modality stack and its per-modality checkpoint entries ------------


def test_encoder_init_draws_the_modalities_in_order():
    # one draw of the 3 x d_in x d_h stack equals one d_in x d_h draw per
    # modality in turn, followed by the fusion weights
    model = tiny_model(seed=3)
    rng = np.random.default_rng(3)
    state = model.state_arrays()
    for m in MODALITIES:
        assert state[f"enc.{m}.weight"].tobytes() == rng.normal(0.0, 0.5, (4, 6)).tobytes()
    assert state["fusion.wq"].tobytes() == rng.normal(0.0, 1 / np.sqrt(6), (6, 6)).tobytes()


def _hand_built_arrays(rng, d_in=4, d_h=6, n_cls=2) -> dict:
    """Checkpoint entries built one modality at a time, in checkpoint order."""
    arrays = {}
    for m in MODALITIES:
        arrays[f"enc.{m}.weight"] = rng.normal(0, 1, (d_in, d_h))
        for name in ("bias", "norm_gain", "norm_bias"):
            arrays[f"enc.{m}.{name}"] = rng.normal(0, 1, d_h)
    for name in ("wq", "wk", "wv"):
        arrays[f"fusion.{name}"] = rng.normal(0, 1, (d_h, d_h))
    arrays["clf.weight"] = rng.normal(0, 1, (d_h, n_cls))
    arrays["clf.bias"] = rng.normal(0, 1, n_cls)
    for m in MODALITIES:
        arrays[f"stats.{m}.mean"] = rng.normal(0, 1, d_in)
        arrays[f"stats.{m}.var"] = rng.uniform(0.5, 2.0, d_in)
    arrays["dims"] = np.array([d_in, d_h, n_cls], dtype=np.float64)
    return arrays


def test_hand_built_checkpoint_round_trips(tmp_path):
    arrays = _hand_built_arrays(np.random.default_rng(0))
    path = tmp_path / "hand.ckpt"
    checkpoint.save(path, arrays)
    model = SourceModel.load(path, TINY_DIMS)
    state = model.state_arrays()
    assert list(state) == list(arrays)
    assert all(state[k].tobytes() == arrays[k].tobytes() for k in arrays)
    model.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_load_writes_into_the_stacked_storage(tmp_path):
    arrays = _hand_built_arrays(np.random.default_rng(1))
    path = tmp_path / "hand.ckpt"
    checkpoint.save(path, arrays)
    model = SourceModel.load(path, TINY_DIMS)
    for i, m in enumerate(MODALITIES):
        for name in ModalityEncoder.NAMES:
            stack = getattr(model.encoder, name).data
            assert stack[i].tobytes() == arrays[f"enc.{m}.{name}"].tobytes()
        assert model.input_mean[i].tobytes() == arrays[f"stats.{m}.mean"].tobytes()
        assert model.input_var[i].tobytes() == arrays[f"stats.{m}.var"].tobytes()
    # the forward reads what was loaded: modality t's own entries move its slice
    batch = tiny_batch(np.random.default_rng(2))
    before = model.encode(batch)
    arrays["enc.t.norm_bias"] = arrays["enc.t.norm_bias"] + 1.0
    checkpoint.save(path, arrays)
    after = SourceModel.load(path, TINY_DIMS).encode(batch)
    assert np.array_equal(after["v"].data, before["v"].data)
    assert np.array_equal(after["a"].data, before["a"].data)
    assert not np.array_equal(after["t"].data, before["t"].data)


@pytest.mark.parametrize("name,shape", [("enc.t.bias", (5,)), ("stats.a.var", (4, 1))])
def test_load_rejects_a_wrong_per_modality_shape(tmp_path, name, shape):
    arrays = _hand_built_arrays(np.random.default_rng(3))
    arrays[name] = np.ones(shape)
    path = tmp_path / "bad.ckpt"
    checkpoint.save(path, arrays)
    with pytest.raises(CompatibilityError):
        SourceModel.load(path, TINY_DIMS)


def test_optimizer_step_shows_in_state_arrays_and_saved_bytes(tmp_path):
    model = tiny_model(seed=2)
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    model.save(tmp_path / "before.ckpt")
    opt = AdamW(model.trainable_parameters(), lr=0.1, weight_decay=5e-4)
    # the optimizer now owns the stacks: their storage is its flat buffer
    assert all(np.shares_memory(p.data, opt.flat) for p in model.trainable_parameters().values())
    for p in model.trainable_parameters().values():
        p.grad = np.ones_like(p.data)
    opt.step()
    state = model.state_arrays()
    for i, m in enumerate(MODALITIES):
        for name in ModalityEncoder.NAMES:
            key = f"enc.{m}.{name}"
            assert state[key].tobytes() == getattr(model.encoder, name).data[i].tobytes()
            assert not np.array_equal(state[key], before[key]), key
    for key in ("fusion.wq", "clf.weight", "stats.v.mean", "dims"):
        assert state[key].tobytes() == before[key].tobytes()
    model.save(tmp_path / "after.ckpt")
    saved = checkpoint.load(tmp_path / "after.ckpt")
    assert all(saved[k].tobytes() == state[k].tobytes() for k in state)
    assert (tmp_path / "after.ckpt").read_bytes() != (tmp_path / "before.ckpt").read_bytes()
