"""AdamW tests against an independent reference implementation."""

import numpy as np
import pytest

from conftest import tiny_batch, tiny_model
from oracles import PerTensorAdamW, reference_adamw

from driftadapt import ttaloop as tt
from driftadapt.config import AdaptConfig
from driftadapt.errors import ContractError
from driftadapt.gradcore import Tensor
from driftadapt.model import ModelDims, SourceModel, pretrain_source
from driftadapt.optim import AdamW


def test_single_step_hand_value():
    # theta=1, g=0.5, lr=0.1, wd=0.1:
    #   m_hat = 0.5, v_hat = 0.25
    #   theta <- 1 - 0.1 * 0.5 / (0.5 + 1e-8)       = 0.90000000199...
    #   theta <- theta - 0.1 * 0.1 * theta          = 0.89100000198
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.5])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.1)
    opt.step()
    assert p.data[0] == pytest.approx(0.89100000198, abs=1e-11)


def test_multi_step_matches_reference():
    rng = np.random.default_rng(3)
    theta0 = rng.normal(0, 1, 5)
    grads = [rng.normal(0, 1, 5) for _ in range(7)]
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.05)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    ref = reference_adamw(theta0, grads, 0.01, 0.05, 0.9, 0.999, 1e-8)
    np.testing.assert_allclose(p.data, ref, atol=1e-12)


def test_decay_is_decoupled():
    # with zero gradient the update is exactly theta * (1 - lr * wd) per step
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    for _ in range(3):
        p.grad = np.zeros(2)
        opt.step()
    np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.05) ** 3,
                               atol=1e-12)


def test_none_grad_treated_as_zero():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert p.data[0] == 1.0


def test_only_registered_params_touched():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([5.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.1)
    p.grad = np.array([1.0])
    q.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 5.0


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_flat_step_matches_per_tensor_bitwise(weight_decay):
    rng = np.random.default_rng(17)
    shapes = {"w": (5, 3), "b": (3,), "g": (1,), "frozen": (4, 2), "m": (2, 2, 2)}
    init = {k: rng.normal(0, 1, s) for k, s in shapes.items()}
    runs = []
    for cls in (AdamW, PerTensorAdamW):
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        opt = cls(params, lr=3e-3, weight_decay=weight_decay)
        grad_rng = np.random.default_rng(5)
        for step in range(25):
            for k, p in params.items():
                g = grad_rng.normal(0, 10.0 ** grad_rng.integers(-4, 2), shapes[k])
                # one tensor never has a gradient, another loses it every third step
                p.grad = None if k == "frozen" or (k == "g" and step % 3 == 0) else g
            opt.step()
        runs.append({k: p.data.copy() for k, p in params.items()})
    flat, reference = runs
    for k in shapes:
        assert np.array_equal(flat[k], reference[k]), k


def test_subset_optimizer_leaves_other_tensors_untouched():
    model = SourceModel(ModelDims(d_in=4, d_h=6, n_classes=2), seed=2)
    frozen = {k: p.data for k, p in model.frozen_parameters().items()}
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    opt = AdamW(model.trainable_parameters(), lr=0.1, weight_decay=0.1)
    for p in model.named_parameters().values():
        p.grad = np.ones_like(p.data)
    for _ in range(3):
        opt.step()
    for k, p in model.frozen_parameters().items():
        assert p.data is frozen[k]
        assert np.array_equal(p.data, before[k])
    assert all(not np.array_equal(p.data, before[k])
               for k, p in model.trainable_parameters().items())


def test_grad_shape_mismatch_raises_before_any_update():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    opt = AdamW({"p": p, "q": q}, lr=0.1, weight_decay=5e-4)
    p.grad = np.array([1.0, 1.0])
    q.grad = np.array([1.0, 1.0])
    with pytest.raises(ContractError):
        opt.step()
    assert p.data.tolist() == [1.0, 2.0] and opt.t == 0


def test_replaced_param_data_is_rejected():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=5e-4)
    p.data = np.array([2.0])
    with pytest.raises(ContractError):
        opt.step()


def test_second_optimizer_takes_over_storage():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    first = AdamW({"p": p}, lr=0.1, weight_decay=5e-4)
    old = p.data
    second = AdamW({"p": p}, lr=0.1, weight_decay=5e-4)
    assert p.data is not old and np.array_equal(p.data, old)
    p.grad = np.array([1.0, 1.0])
    second.step()
    assert not np.array_equal(p.data, old)
    with pytest.raises(ContractError):
        first.step()


def test_backward_accumulates_into_the_flat_buffer(monkeypatch, rng):
    # after one pretraining step and one scanner batch, each optimized
    # parameter's .grad is its view of the flat gradient buffer, and the
    # step only reads it: the views are read-only while it runs
    step, seen = AdamW.step, []

    def checked(opt):
        grads = [p.grad for _, p, _, _ in opt._views]
        seen.append(all(np.shares_memory(g, opt._grad) for g in grads))
        for g in grads:
            g.flags.writeable = False
        try:
            step(opt)
        finally:
            for g in grads:
                g.flags.writeable = True

    monkeypatch.setattr(AdamW, "step", checked)
    model = tiny_model()
    pretrain_source([model], [(tiny_batch(rng, n=20), rng.integers(0, 2, 20))], epochs=1,
                    batch_size=16, seeds=[0])
    assert seen == [True]
    state = tt.init_adapt_state(model, AdaptConfig(k=3, batch_size=24), "scanner")
    tt.adapt_batch(state, tiny_batch(rng, n=24))
    assert seen == [True, True]
    assert all(p.grad is p.grad_buffer for p in model.trainable_parameters().values())
