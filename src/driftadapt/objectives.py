"""Adaptation losses: centroid alignment, its sample-adaptive variant,
intra-cluster diversity regularization, entropy minimization, and their
weighted combination.

All functions build autograd graphs over Tensors; centroid banks enter only
through precomputed similarity tensors, so gradient never reaches the
centroids themselves. The modalities are one stacked axis, as in the model:
the alignment losses read the n x B max-cosine scores, DIV the n x B x C
modality logits, and row i belongs to ``MODALITIES[i]``. Each loss is one
graph node over all modalities (``gradcore.mean_entropy``,
``one_minus_means``, ``one_minus_weighted_means`` and ``plogp_sums``), and
``weighted_sum`` combines them, each replaying the per-modality op-by-op
composition bit for bit and returning its per-modality terms as the logged
floats. A caller that holds one tensor per modality may pass a
{modality: Tensor} dict instead of a stack; one extra node stacks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import gradcore as gc
from .errors import ConfigError, ContractError
from .gradcore import Tensor
from .model import MODALITIES


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


def _terms(modalities, values) -> dict:
    """The logged term values, one float per modality."""
    return {m: float(v) for m, v in zip(modalities, values)}


def _stacked(per_modality):
    """(modality names, stack) of an n x ... stack or a {modality: Tensor}
    dict of equal-shape tensors."""
    if isinstance(per_modality, dict):
        return tuple(per_modality), gc.stack_rows(list(per_modality.values()))
    if per_modality.data.shape[0] > len(MODALITIES):
        raise ContractError(f"{per_modality.data.shape[0]} rows for {len(MODALITIES)} modalities")
    return MODALITIES[:per_modality.data.shape[0]], per_modality


def _check_similarities(similarities):
    names, s = _stacked(similarities)
    if s.data.size == 0:
        raise ContractError("empty similarity batch")
    return names, s


def _can_terms(similarities) -> dict:
    """The per-modality terms of ``can_loss`` from the score values alone;
    builds no graph node for the scores."""
    names, s = _check_similarities(similarities)
    return _terms(names, gc.one_minus_means_array(s.data)[0])


def can_loss(similarities):
    """Sum over modalities of 1 - mean batch similarity."""
    names, s = _check_similarities(similarities)
    total, values = gc.one_minus_means(s)
    return total, _terms(names, values)


def _check_beta(beta: float):
    if beta < 0:
        raise ConfigError(f"adaptive weight temperature beta={beta} must be >= 0")


def adaptive_weights(s: Tensor, beta: float) -> Tensor:
    """Batch softmax of beta * similarity; emphasizes centroid-close samples."""
    _check_beta(beta)
    if s.data.size == 0:
        raise ContractError("empty similarity batch")
    return gc.softmax(s, beta=beta)


def scan_loss(similarities, beta: float):
    """Sum over modalities of 1 - softmax-weighted batch similarity, with the
    weights of ``adaptive_weights`` over each modality's row."""
    _check_beta(beta)
    names, s = _check_similarities(similarities)
    total, values = gc.one_minus_weighted_means(s, beta)
    return total, _terms(names, values)


def cluster_avg_probs(logits: Tensor, indices, k: int, counts=None) -> Tensor:
    """Mean softmax probability per nonempty cluster: a k' x C matrix whose
    rows follow the cluster order. For n x B x C modality logits and n x B
    cluster indices, the rows of every modality's nonempty clusters follow
    those of the modality before: cluster j of modality i is cluster
    j + i*k of one ``cluster_means`` over the nB rows (``gc.cluster_ids``).
    ``counts`` is ``gc.cluster_counts(indices, k)`` when the caller has it."""
    ids, n_ids = gc.cluster_ids(indices, k)
    return gc.cluster_means(gc.softmax(logits), ids, n_ids, counts)


def _filled_clusters(counts, k: int) -> list:
    """The number of nonempty clusters of each modality, from the
    ``gc.cluster_counts`` of their n x B cluster indices: the row groups of
    ``cluster_avg_probs``."""
    return np.count_nonzero(counts.reshape(-1, k), axis=1).tolist()


def div_loss(avg_probs, k: int, sizes=None):
    """Per modality: (1/k) * sum over clusters of sum_c p log p.

    This is negative entropy, so minimizing it pushes each cluster-average
    distribution toward uniform. ``avg_probs`` is the matrix of a stacked
    ``cluster_avg_probs``, whose modalities own ``sizes`` consecutive rows
    each, or a dict that maps each modality to its own k' x C matrix or to a
    {cluster: Tensor[C]} dict; one node stacks the dict's rows. Empty
    clusters have no row and contribute zero.
    """
    if isinstance(avg_probs, dict):
        names, rows, sizes = tuple(avg_probs), [], []
        for p in avg_probs.values():
            part = list(p.values()) if isinstance(p, dict) else list(gc.unstack(p))
            rows += part
            sizes.append(len(part))
        avg_probs = gc.stack_rows(rows) if rows else Tensor(np.zeros((0, 1)))
    else:
        names = MODALITIES[:len(sizes)]
    total, values = gc.plogp_sums(avg_probs, 1.0 / k, sizes)
    return total, _terms(names, values)


def runs_div(variant: MethodVariant, alpha: float) -> bool:
    """Whether the combined objective has a DIV term: SCANNER with alpha > 0."""
    return variant == MethodVariant.SCANNER and alpha > 0.0


def em_loss(fused_logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the fused prediction distribution."""
    if fused_logits.data.shape[0] < 1:
        raise ContractError("empty batch")
    return gc.mean_entropy(fused_logits)


def total_loss(similarities, modality_logits, fused_logits: Tensor,
               assignments, k: int, variant: MethodVariant,
               eps_w: float, lam: float, alpha: float, beta: float,
               counts=None) -> LossBreakdown:
    """Weighted combined objective: eps_w * EM + lam * alignment + alpha * DIV.

    Variant CAN uses the plain alignment loss with alpha forced to 0; SCAN
    uses the adaptive alignment with alpha forced to 0; SCANNER uses all
    three terms. ``similarities`` are the n x B scores, ``modality_logits``
    the n x B x C logits (read by SCANNER alone) and ``assignments`` the
    n x B cluster indices; dicts of per-modality Tensors and
    ``Assignment``s are stacked first. SCAN and SCANNER log the CAN terms
    from the score values, without a CAN node. DIV reads ``counts``, the
    ``gc.cluster_counts`` of the assignments, when the caller has them.
    """
    for w in (eps_w, lam, alpha, beta):
        if not np.isfinite(w) or w < 0:
            raise ConfigError(f"loss weight {w} must be finite and >= 0")
    if variant not in BANK_VARIANTS:
        raise ConfigError(f"variant {variant} has no combined clustering objective")
    terms = {}
    em = em_loss(fused_logits)
    if variant == MethodVariant.CAN:
        align, terms["can"] = can_loss(similarities)
    else:
        terms["can"] = _can_terms(similarities)
        align, terms["scan"] = scan_loss(similarities, beta)
    losses, weights = [em, align], [eps_w, lam]
    if runs_div(variant, alpha):
        if isinstance(assignments, dict):
            assignments = np.stack([a.indices for a in assignments.values()])
        if isinstance(modality_logits, dict):
            modality_logits = _stacked(modality_logits)[1]
        if counts is None:
            counts = gc.cluster_counts(assignments, k)
        avg = cluster_avg_probs(modality_logits, assignments, k, counts)
        div, terms["div"] = div_loss(avg, k, _filled_clusters(counts, k))
        losses.append(div)
        weights.append(alpha)
    total = gc.weighted_sum(losses, weights)

    row = {"em": em.item(), "total": total.item()}
    row.update({f"{name}_{m}": t for name, ts in terms.items() for m, t in ts.items()})
    return LossBreakdown(total=total, row=row)
