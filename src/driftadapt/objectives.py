"""Adaptation losses: centroid alignment, its sample-adaptive variant,
intra-cluster diversity regularization, entropy minimization, and their
weighted combination.

All functions build autograd graphs over Tensors; centroid banks enter only
through precomputed similarity tensors, so gradient never reaches the
centroids themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import gradcore as gc
from .errors import ConfigError, ContractError
from .gradcore import Tensor

LOG_FLOOR = 1e-12


class MethodVariant(str, Enum):
    SOURCE = "source"
    NORM = "norm"
    ST = "st"
    TENT_EM = "tent_em"
    CAN = "can"
    SCAN = "scan"
    SCANNER = "scanner"


@dataclass
class LossBreakdown:
    can_terms: dict = field(default_factory=dict)
    scan_terms: dict = field(default_factory=dict)
    div_terms: dict = field(default_factory=dict)
    em_term: float = 0.0
    total_value: float = 0.0
    total: Tensor = None  # differentiable combined loss

    def as_row(self) -> dict:
        row = {"em": self.em_term, "total": self.total_value}
        for name, terms in (("can", self.can_terms), ("scan", self.scan_terms),
                            ("div", self.div_terms)):
            for m, v in terms.items():
                row[f"{name}_{m}"] = v
        return row


def can_loss(similarities: dict):
    """Sum over modalities of 1 - mean batch similarity."""
    terms = {}
    total = None
    for m, s in similarities.items():
        if s.data.size == 0:
            raise ContractError("empty similarity batch")
        term = 1.0 - gc.tmean(s)
        terms[m] = term
        total = term if total is None else gc.add(total, term)
    return total, terms


def adaptive_weights(s: Tensor, beta: float) -> Tensor:
    """Batch softmax of beta * similarity; emphasizes centroid-close samples."""
    if beta < 0:
        raise ConfigError(f"adaptive weight temperature beta={beta} must be >= 0")
    if s.data.size == 0:
        raise ContractError("empty similarity batch")
    return gc.softmax(s, beta=beta, axis=-1)


def scan_loss(similarities: dict, beta: float):
    """Sum over modalities of 1 - softmax-weighted batch similarity."""
    terms = {}
    total = None
    for m, s in similarities.items():
        w = adaptive_weights(s, beta)
        term = 1.0 - gc.tsum(gc.mul(w, s))
        terms[m] = term
        total = term if total is None else gc.add(total, term)
    return total, terms


def cluster_avg_probs(logits: Tensor, indices: np.ndarray, k: int):
    """Mean softmax probability per nonempty cluster; returns {j: Tensor[C]}."""
    probs = gc.softmax(logits, axis=1)
    out = {}
    for j in range(k):
        members = np.flatnonzero(indices == j)
        if members.size:
            out[j] = gc.tmean(gc.take_rows(probs, members), axis=0)
    return out


def div_loss(avg_probs: dict, k: int):
    """Per modality: (1/k) * sum over clusters of sum_c p log p.

    This is negative entropy, so minimizing it pushes each cluster-average
    distribution toward uniform. Empty clusters contribute zero.
    """
    terms = {}
    total = None
    for m, clusters in avg_probs.items():
        term = None
        for p in clusters.values():
            neg_ent = gc.tsum(gc.mul(p, gc.log_clamped(p, LOG_FLOOR)))
            term = neg_ent if term is None else gc.add(term, neg_ent)
        term = gc.mul(term, 1.0 / k) if term is not None else Tensor(0.0)
        terms[m] = term
        total = term if total is None else gc.add(total, term)
    return total, terms


def em_loss(fused_logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the fused prediction distribution."""
    if fused_logits.data.shape[0] < 1:
        raise ContractError("empty batch")
    p = gc.softmax(fused_logits, axis=1)
    per_sample = gc.mul(gc.tsum(gc.mul(p, gc.log_clamped(p, LOG_FLOOR)), axis=1), -1.0)
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
    bd = LossBreakdown()
    can_total, bd.can_terms = can_loss(similarities)
    em = em_loss(fused_logits)
    bd.em_term = em.item()
    total = gc.mul(em, eps_w)

    if variant == MethodVariant.CAN:
        align_total = can_total
        alpha = 0.0
    elif variant in (MethodVariant.SCAN, MethodVariant.SCANNER):
        align_total, bd.scan_terms = scan_loss(similarities, beta)
        if variant == MethodVariant.SCAN:
            alpha = 0.0
    else:
        raise ConfigError(f"variant {variant} has no combined clustering objective")

    total = gc.add(total, gc.mul(align_total, lam))
    if alpha > 0.0:
        avg = {
            m: cluster_avg_probs(modality_logits[m], assignments[m].indices, k)
            for m in modality_logits
        }
        div_total, bd.div_terms = div_loss(avg, k)
        total = gc.add(total, gc.mul(div_total, alpha))

    bd.can_terms = {m: t.item() for m, t in bd.can_terms.items()}
    bd.scan_terms = {m: t.item() for m, t in bd.scan_terms.items()}
    bd.div_terms = {m: t.item() for m, t in bd.div_terms.items()}
    bd.total = total
    bd.total_value = total.item()
    return bd
