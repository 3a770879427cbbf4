"""Adaptation losses: centroid alignment, its sample-adaptive variant,
intra-cluster diversity regularization, entropy minimization, and their
weighted combination.

All functions build autograd graphs over Tensors; centroid banks enter only
through precomputed similarity tensors, so gradient never reaches the
centroids themselves. Each loss is one graph node over all modalities
(``gradcore.mean_entropy``, ``one_minus_means``, ``one_minus_weighted_means``
and ``plogp_sums``), whose forward and backward replay the op-by-op
composition bit for bit; its per-modality terms are leaf Tensors that carry
the logged values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import gradcore as gc
from .errors import ConfigError, ContractError
from .gradcore import Tensor


class MethodVariant(str, Enum):
    SOURCE = "source"
    NORM = "norm"
    ST = "st"
    TENT_EM = "tent_em"
    CAN = "can"
    SCAN = "scan"
    SCANNER = "scanner"


# the variants that align features to per-modality centroid banks
BANK_VARIANTS = (MethodVariant.CAN, MethodVariant.SCAN, MethodVariant.SCANNER)


@dataclass
class LossBreakdown:
    total: Tensor   # differentiable combined loss
    row: dict       # logged values: em, total and every term per modality


def _terms(modalities: dict, values) -> dict:
    """Per-modality leaf Tensors that carry the logged term values."""
    return {m: Tensor(v) for m, v in zip(modalities, values)}


def can_loss(similarities: dict):
    """Sum over modalities of 1 - mean batch similarity."""
    if any(s.data.size == 0 for s in similarities.values()):
        raise ContractError("empty similarity batch")
    total, values = gc.one_minus_means(similarities.values())
    return total, _terms(similarities, values)


def _check_weight_inputs(s: Tensor, beta: float):
    if beta < 0:
        raise ConfigError(f"adaptive weight temperature beta={beta} must be >= 0")
    if s.data.size == 0:
        raise ContractError("empty similarity batch")


def adaptive_weights(s: Tensor, beta: float) -> Tensor:
    """Batch softmax of beta * similarity; emphasizes centroid-close samples."""
    _check_weight_inputs(s, beta)
    return gc.softmax(s, beta=beta)


def scan_loss(similarities: dict, beta: float):
    """Sum over modalities of 1 - softmax-weighted batch similarity, with the
    weights of ``adaptive_weights``."""
    for s in similarities.values():
        _check_weight_inputs(s, beta)
    total, values = gc.one_minus_weighted_means(similarities.values(), beta)
    return total, _terms(similarities, values)


def cluster_avg_probs(logits: Tensor, indices: np.ndarray, k: int) -> Tensor:
    """Mean softmax probability per nonempty cluster: a k' x C matrix whose
    rows follow the cluster order."""
    return gc.cluster_means(gc.softmax(logits), indices, k)


def div_loss(avg_probs: dict, k: int):
    """Per modality: (1/k) * sum over clusters of sum_c p log p.

    This is negative entropy, so minimizing it pushes each cluster-average
    distribution toward uniform. Each modality maps to the k' x C matrix of
    ``cluster_avg_probs``, or to a {cluster: Tensor[C]} dict that one node
    stacks into that matrix. Empty clusters have no row and contribute zero.
    """
    mats = []
    for p in avg_probs.values():
        if isinstance(p, dict):
            p = gc.stack_rows(list(p.values())) if p else Tensor(np.zeros((0, 1)))
        mats.append(p)
    total, values = gc.plogp_sums(mats, 1.0 / k)
    return total, _terms(avg_probs, values)


def em_loss(fused_logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the fused prediction distribution."""
    if fused_logits.data.shape[0] < 1:
        raise ContractError("empty batch")
    return gc.mean_entropy(fused_logits)


def total_loss(similarities: dict, modality_logits: dict, fused_logits: Tensor,
               assignments: dict, k: int, variant: MethodVariant,
               eps_w: float, lam: float, alpha: float, beta: float) -> LossBreakdown:
    """Weighted combined objective: eps_w * EM + lam * alignment + alpha * DIV.

    Variant CAN uses the plain alignment loss with alpha forced to 0; SCAN
    uses the adaptive alignment with alpha forced to 0; SCANNER uses all
    three terms.
    """
    for w in (eps_w, lam, alpha, beta):
        if not np.isfinite(w) or w < 0:
            raise ConfigError(f"loss weight {w} must be finite and >= 0")
    if variant not in BANK_VARIANTS:
        raise ConfigError(f"variant {variant} has no combined clustering objective")
    terms = {}
    can_total, terms["can"] = can_loss(similarities)
    em = em_loss(fused_logits)
    total = gc.mul(em, eps_w)

    if variant == MethodVariant.CAN:
        align_total = can_total
    else:
        align_total, terms["scan"] = scan_loss(similarities, beta)
    total = gc.add(total, gc.mul(align_total, lam))
    if variant == MethodVariant.SCANNER and alpha > 0.0:
        avg = {m: cluster_avg_probs(logits, assignments[m].indices, k)
               for m, logits in modality_logits.items()}
        div_total, terms["div"] = div_loss(avg, k)
        total = gc.add(total, gc.mul(div_total, alpha))

    row = {"em": em.item(), "total": total.item()}
    row.update({f"{name}_{m}": t.item() for name, ts in terms.items() for m, t in ts.items()})
    return LossBreakdown(total=total, row=row)
