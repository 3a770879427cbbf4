"""Adaptation losses: centroid alignment, its sample-adaptive variant,
intra-cluster diversity regularization, entropy minimization, and their
weighted combination.

All functions build autograd graphs over Tensors; centroid banks enter only
through precomputed similarity tensors, so gradient never reaches the
centroids themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce

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


def can_loss(similarities: dict):
    """Sum over modalities of 1 - mean batch similarity."""
    if any(s.data.size == 0 for s in similarities.values()):
        raise ContractError("empty similarity batch")
    terms = {m: 1.0 - gc.tmean(s) for m, s in similarities.items()}
    return reduce(gc.add, terms.values()), terms


def adaptive_weights(s: Tensor, beta: float) -> Tensor:
    """Batch softmax of beta * similarity; emphasizes centroid-close samples."""
    if beta < 0:
        raise ConfigError(f"adaptive weight temperature beta={beta} must be >= 0")
    if s.data.size == 0:
        raise ContractError("empty similarity batch")
    return gc.softmax(s, beta=beta)


def scan_loss(similarities: dict, beta: float):
    """Sum over modalities of 1 - softmax-weighted batch similarity."""
    terms = {m: 1.0 - gc.tsum(gc.mul(adaptive_weights(s, beta), s))
             for m, s in similarities.items()}
    return reduce(gc.add, terms.values()), terms


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
    terms = {}
    for m, p in avg_probs.items():
        if isinstance(p, dict):
            p = gc.stack_rows(list(p.values())) if p else Tensor(np.zeros((0, 1)))
        neg_ent = gc.tsum(gc.mul(p, gc.log_clamped(p)), axis=1)
        terms[m] = gc.mul(gc.tsum(neg_ent), 1.0 / k)
    return reduce(gc.add, terms.values()), terms


def em_loss(fused_logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the fused prediction distribution."""
    if fused_logits.data.shape[0] < 1:
        raise ContractError("empty batch")
    p = gc.softmax(fused_logits)
    per_sample = gc.mul(gc.tsum(gc.mul(p, gc.log_clamped(p)), axis=1), -1.0)
    return gc.tmean(per_sample)


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
