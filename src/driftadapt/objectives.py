"""Adaptation losses: centroid alignment, its sample-adaptive variant,
intra-cluster diversity regularization, entropy minimization, and their
weighted combination.

All functions build autograd graphs over Tensors; centroid banks enter only
through precomputed similarity tensors, so gradient never reaches the
centroids themselves. The modalities are one stacked axis, as in the model:
the alignment losses read the n x B max-cosine scores, DIV the n x B x C
modality logits, and row i belongs to ``MODALITIES[i]``. A caller that
holds one tensor per modality may pass a {modality: Tensor} dict instead of
a stack; one extra node stacks it.

Each loss builds one graph node over all modalities with ``gc._make`` and
``gc._accum``, and ``total_loss`` one more that combines them; the alignment
and DIV losses return their per-modality terms as the logged floats. Each
forward and backward runs the float operations of the per-modality op-by-op
composition it replaces, in the same order, so values and gradients are bit
for bit those of the composition. A term of the form 1 - t was the graph
``add(1.0, mul(t, -1.0))``, and a sum over tensors the chain
``add(add(t_0, t_1), t_2)``, which passes the upstream gradient to every
term unchanged.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce

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
    if s.data.ndim != 2:
        raise ContractError(f"similarities must be an n x B stack, got {s.data.shape}")
    return names, s


def _plogp_backward(c, p: np.ndarray, logp: np.ndarray, clamped: np.ndarray):
    """Gradient of ``p * log_clamped(p)`` for the upstream scalar c, summed
    in the order of the ``mul`` and then the ``log_clamped`` backward."""
    return c * logp + gc._log_clamped_backward(c * p, p, clamped)


def _one_minus_means(x: np.ndarray):
    """1 - mean of each row of an n x B array, with the arithmetic of
    ``1.0 - tmean(row)``: (term values, 1/B)."""
    inv_n = 1.0 / x.shape[-1]
    return 1.0 + x.sum(axis=-1) * inv_n * -1.0, inv_n


def _can_terms(similarities) -> dict:
    """The per-modality terms of ``can_loss`` from the score values alone;
    builds no graph node for the scores."""
    names, s = _check_similarities(similarities)
    return _terms(names, _one_minus_means(s.data)[0])


def can_loss(similarities):
    """Sum over modalities of 1 - mean batch similarity: per modality the
    composition ``1.0 - tmean(row)``, then an ``add`` chain."""
    names, s = _check_similarities(similarities)
    values, inv_n = _one_minus_means(s.data)

    def bwd(g):
        gc._accum(s, np.broadcast_to(g * -1.0 * inv_n, s.data.shape))

    return gc._make(reduce(operator.add, values), (s,), bwd), _terms(names, values)


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
    weights of ``adaptive_weights`` over each modality's row: per modality
    the composition ``1.0 - tsum(mul(softmax(row, beta), row))``, then an
    ``add`` chain."""
    _check_beta(beta)
    names, s = _check_similarities(similarities)
    w = gc.softmax_array(s.data, beta)
    values = 1.0 + (w * s.data).sum(axis=-1) * -1.0

    def bwd(g):
        c = g * -1.0
        gc._accum(s, c * w + gc._softmax_backward(c * s.data, w, beta))

    return gc._make(reduce(operator.add, values), (s,), bwd), _terms(names, values)


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
    clusters have no row and contribute zero. Each modality's term is the
    composition ``mul(tsum(tsum(mul(q, log_clamped(q)), axis=1)), 1/k)`` of
    its own rows q, and the terms are added in an ``add`` chain.
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
    p, scale = avg_probs.data, 1.0 / k
    logp, clamped = gc.log_clamped_array(p)
    per_row = gc.sum_last(p * logp)
    ends = np.cumsum(sizes)
    if ends[-1] != per_row.size:
        raise ContractError(f"groups of {list(sizes)} rows do not fit {per_row.size} rows")
    values = [per_row[end - n:end].sum() * scale for n, end in zip(sizes, ends)]

    def bwd(g):
        gc._accum(avg_probs, _plogp_backward(g * scale, p, logp, clamped))

    return gc._make(reduce(operator.add, values), (avg_probs,), bwd), _terms(names, values)


def runs_div(variant: MethodVariant, alpha: float) -> bool:
    """Whether the combined objective has a DIV term: SCANNER with alpha > 0."""
    return variant == MethodVariant.SCANNER and alpha > 0.0


def em_loss(fused_logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the fused prediction distribution: the mean
    over rows of the ``gc.entropy_array`` of p = softmax(logits), with the
    arithmetic of the composition ``softmax``, ``log_clamped``, ``mul``,
    ``tsum(axis=1)``, ``mul(-1)``, ``tmean``. It reads the arrays that
    ``gc.softmax_entropy`` kept on the node, if any."""
    if fused_logits.data.shape[0] < 1:
        raise ContractError("empty batch")
    if fused_logits.softmax_parts is None:
        p = gc.softmax_array(fused_logits.data)
        per_row, logp, clamped = gc.entropy_array(p)
    else:
        p, per_row, logp, clamped = fused_logits.softmax_parts
    inv_n = 1.0 / per_row.size

    def bwd(g):
        gp = _plogp_backward(g * inv_n * -1.0, p, logp, clamped)
        gc._accum(fused_logits, gc._softmax_backward(gp, p, 1.0))

    return gc._make(per_row.sum() * inv_n, (fused_logits,), bwd)


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

    def bwd(g):
        for x, w in zip(losses, weights):
            gc._accum(x, g * w)

    # the chain of ``mul`` and ``add`` nodes over the terms, left to right
    weighted = [x.data * w for x, w in zip(losses, weights)]
    total = gc._make(reduce(operator.add, weighted), tuple(losses), bwd)

    row = {"em": em.item(), "total": total.item()}
    row.update({f"{name}_{m}": t for name, ts in terms.items() for m, t in ts.items()})
    return LossBreakdown(total=total, row=row)
