"""Online test-time adaptation loop and comparison baselines.

A run streams the target set once, in order, in fixed-size batches.
Within each batch the convention is predict-then-adapt: logged predictions
come from the forward pass before the parameter update. Labels are never
visible to any adaptation operation; they enter only in run_stream's metric
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import centroids as cb, gradcore as gc, objectives as obj
from .config import AdaptConfig
from .driftgen import (
    SyntheticDataset, accuracy, cluster_ratio_diag, entropy_diag, entropy_rows, macro_f1,
)
from .errors import ContractError, DivergenceError
from .model import MODALITIES, SourceModel
from .objectives import MethodVariant
from .optim import AdamW

GRAD_VARIANTS = (MethodVariant.ST, MethodVariant.TENT_EM, MethodVariant.CAN,
                 MethodVariant.SCAN, MethodVariant.SCANNER)
BANK_VARIANTS = (MethodVariant.CAN, MethodVariant.SCAN, MethodVariant.SCANNER)


@dataclass
class BatchResult:
    tau: int
    predictions: np.ndarray
    entropies: np.ndarray
    loss_row: dict
    grad_norm: float
    skipped: bool = False
    assignments: dict = field(default_factory=dict)  # modality -> cluster indices


@dataclass
class AdaptState:
    model: SourceModel
    cfg: AdaptConfig
    variant: MethodVariant
    seed: int = 0
    banks: dict = None          # modality -> CentroidBank, lazily initialized
    optimizer: AdamW = None
    tau: int = 0


def init_adapt_state(model: SourceModel, cfg: AdaptConfig,
                     variant: MethodVariant, seed: int = 0) -> AdaptState:
    cfg.validate()
    variant = MethodVariant(variant)
    # freeze fusion + classifier so grad buffers exist only on the
    # test-time-trainable subset
    for p in model.frozen_parameters().values():
        p.requires_grad = False
    opt = None
    if variant in GRAD_VARIANTS:
        opt = AdamW(model.trainable_parameters(), lr=cfg.lr,
                    weight_decay=cfg.weight_decay, beta1=cfg.adam_beta1,
                    beta2=cfg.adam_beta2, eps=cfg.adam_eps)
    return AdaptState(model=model, cfg=cfg, variant=variant, seed=seed, optimizer=opt)


def _grad_norm(params: dict) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad**2).sum())
    return float(np.sqrt(total))


def _init_banks(state: AdaptState, features: dict):
    state.banks = {}
    for i, m in enumerate(MODALITIES):
        state.banks[m] = cb.init_kmeanspp(
            features[m], state.cfg.k, seed=state.seed * 101 + i,
            momentum=state.cfg.gamma, modality=m,
        )


def adapt_batch(state: AdaptState, batch: dict) -> BatchResult:
    """Process one unlabeled target batch; updates state in place."""
    model, cfg = state.model, state.cfg
    model.zero_grad()
    features, modality_logits, fused_logits = model.forward_full(batch)
    result = BatchResult(
        tau=state.tau,
        predictions=fused_logits.data.argmax(axis=1),
        entropies=entropy_rows(fused_logits.data),
        loss_row={},
        grad_norm=0.0,
    )

    if state.variant == MethodVariant.SOURCE:
        pass
    elif state.variant == MethodVariant.NORM:
        _norm_update(model, batch, cfg.norm_momentum)
    elif state.variant == MethodVariant.TENT_EM:
        loss = obj.em_loss(fused_logits)
        result.loss_row = {"em": loss.item(), "total": loss.item()}
        _apply_step(state, loss, result)
    elif state.variant == MethodVariant.ST:
        _st_step(state, fused_logits, result)
    else:
        _cluster_step(state, features, modality_logits, fused_logits, result)

    state.tau += 1
    return result


def _apply_step(state: AdaptState, loss, result: BatchResult):
    if not np.isfinite(loss.data):
        raise DivergenceError(
            f"non-finite loss at tau={state.tau}: {result.loss_row}"
        )
    gc.backward(loss)
    result.grad_norm = _grad_norm(state.optimizer.params)
    if not np.isfinite(result.grad_norm):
        # skip and flag rather than clip, so the gradient-norm trace keeps
        # its diagnostic meaning
        result.skipped = True
        state.optimizer.zero_grad()
        return
    state.optimizer.step()
    state.optimizer.zero_grad()


def _norm_update(model: SourceModel, batch: dict, momentum: float):
    for m in MODALITIES:
        x = np.asarray(batch[m], dtype=np.float64)
        model.input_mean[m] = (1 - momentum) * model.input_mean[m] + momentum * x.mean(axis=0)
        model.input_var[m] = (1 - momentum) * model.input_var[m] + momentum * x.var(axis=0)


def _st_step(state: AdaptState, fused_logits, result: BatchResult):
    probs = gc.softmax(fused_logits, axis=1)
    conf = probs.data.max(axis=1)
    pseudo = probs.data.argmax(axis=1)
    keep = np.flatnonzero(conf >= state.cfg.st_confidence)
    if keep.size == 0:
        result.loss_row = {"st": 0.0, "total": 0.0, "n_confident": 0.0}
        return
    loss = gc.cross_entropy(gc.take_rows(fused_logits, keep), pseudo[keep])
    result.loss_row = {"st": loss.item(), "total": loss.item(),
                       "n_confident": float(keep.size)}
    _apply_step(state, loss, result)


def _cluster_step(state: AdaptState, features, modality_logits, fused_logits,
                  result: BatchResult):
    cfg = state.cfg
    detached = {m: features[m].detach() for m in MODALITIES}
    if state.banks is None:
        _init_banks(state, detached)

    similarities, assignments = {}, {}
    for m in MODALITIES:
        s, idx = cb.max_similarity(state.banks[m], features[m])
        similarities[m] = s
        assignments[m] = cb.Assignment(indices=idx, similarities=s.data.copy())
    result.assignments = {m: a.indices for m, a in assignments.items()}

    bd = obj.total_loss(
        similarities, modality_logits, fused_logits, assignments,
        k=cfg.k, variant=state.variant, eps_w=cfg.eps_w, lam=cfg.lam,
        alpha=cfg.alpha, beta=cfg.beta,
    )
    result.loss_row = bd.as_row()
    _apply_step(state, bd.total, result)

    # track centroids with features from the pre-update forward, detached
    for m in MODALITIES:
        normalized = cb.l2_normalize_rows(detached[m])
        means = cb.batch_means(normalized, assignments[m], state.banks[m])
        cb.momentum_update(state.banks[m], means)


# -- full-stream runner ----------------------------------------------------


@dataclass
class RunReport:
    variant: str
    seed: int
    online_accuracy: float = 0.0
    online_macro_f1: float = 0.0
    final_accuracy: float = 0.0
    final_macro_f1: float = 0.0
    loss_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    mean_entropy_trace: list = field(default_factory=list)
    skipped_steps: int = 0
    cluster_ratios: dict = field(default_factory=dict)   # modality -> {j: (pred, true)}
    entropy_table: dict = field(default_factory=dict)    # modality -> {j: (cent, member)}
    collapse_gap: float = None   # mean |pred ratio - true ratio| over clusters

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "online_accuracy": self.online_accuracy,
            "online_macro_f1": self.online_macro_f1,
            "final_accuracy": self.final_accuracy,
            "final_macro_f1": self.final_macro_f1,
            "skipped_steps": self.skipped_steps,
            "collapse_gap": self.collapse_gap,
            "loss_trace": self.loss_trace,
            "grad_norm_trace": self.grad_norm_trace,
            "mean_entropy_trace": self.mean_entropy_trace,
            "cluster_ratios": {m: {str(j): list(v) for j, v in t.items()}
                               for m, t in self.cluster_ratios.items()},
            "entropy_table": {m: {str(j): list(v) for j, v in t.items()}
                              for m, t in self.entropy_table.items()},
        }


def iter_batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def run_stream(model: SourceModel, target: SyntheticDataset, cfg: AdaptConfig,
               variant, seed: int = 0, n_classes: int = 2) -> RunReport:
    """Single online epoch over the target stream, then a final full pass.

    Target labels are read only here, for metrics and diagnostics; the
    adaptation path receives feature batches alone.
    """
    variant = MethodVariant(variant)
    n = len(target)
    if n == 0:
        raise ContractError("empty target stream")
    state = init_adapt_state(model, cfg, variant, seed=seed)
    report = RunReport(variant=variant.value, seed=seed)

    online_preds = np.empty(n, dtype=np.int64)
    for start, end in iter_batches(n, cfg.batch_size):
        batch = {m: target.features[m][start:end] for m in MODALITIES}
        res = adapt_batch(state, batch)
        online_preds[start:end] = res.predictions
        report.loss_trace.append({"tau": res.tau, **res.loss_row})
        report.grad_norm_trace.append(res.grad_norm)
        report.mean_entropy_trace.append(float(res.entropies.mean()))
        report.skipped_steps += int(res.skipped)

    labels = target.labels
    report.online_accuracy = accuracy(online_preds, labels)
    report.online_macro_f1 = macro_f1(online_preds, labels, n_classes)

    # second, post-adaptation inference pass over the full target set
    features, _, fused_logits = model.forward_full(target.features)
    final_preds = fused_logits.data.argmax(axis=1)
    report.final_accuracy = accuracy(final_preds, labels)
    report.final_macro_f1 = macro_f1(final_preds, labels, n_classes)

    if state.banks is not None:
        gaps = []
        for m in MODALITIES:
            normalized = cb.l2_normalize_rows(features[m].detach())
            assignment = cb.assign(state.banks[m], normalized)
            ratios = cluster_ratio_diag(assignment.indices, final_preds, labels, cfg.k)
            report.cluster_ratios[m] = ratios
            report.entropy_table[m] = entropy_diag(
                state.banks[m], model, normalized, assignment.indices
            )
            gaps.extend(abs(p - t) for p, t in ratios.values())
        report.collapse_gap = float(np.mean(gaps)) if gaps else None
    return report
