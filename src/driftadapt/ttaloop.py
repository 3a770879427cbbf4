"""Online test-time adaptation loop and comparison baselines.

A run streams the target set once, in order, in fixed-size batches.
Within each batch the convention is predict-then-adapt: logged predictions
come from the forward pass before the parameter update. Labels are never
visible to any adaptation operation; they enter only in run_stream's metric
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import centroids as cb, gradcore as gc, objectives as obj
from .config import AdaptConfig
from .driftgen import (SyntheticDataset, accuracy, cluster_ratio_diag, entropy_diag,
                       entropy_rows, macro_f1)
from .errors import ContractError, DivergenceError, NumericError
from .model import MODALITIES, SourceModel, batch_stats, stack_modalities
from .objectives import BANK_VARIANTS, MethodVariant
from .optim import AdamW

GRAD_VARIANTS = (MethodVariant.ST, MethodVariant.TENT_EM) + BANK_VARIANTS
# the scores of a run that report.json aggregates and metrics.csv lists
METRICS = ("online_accuracy", "online_macro_f1", "final_accuracy", "final_macro_f1")


@dataclass
class BatchResult:
    tau: int
    predictions: np.ndarray
    entropies: np.ndarray
    loss_row: dict = field(default_factory=dict)
    grad_norm: float = 0.0
    skipped: bool = False


@dataclass
class AdaptState:
    model: SourceModel
    cfg: AdaptConfig
    variant: MethodVariant
    seed: int = 0
    bank: cb.CentroidBank = None   # one bank over the modality stack, lazily initialized
    optimizer: AdamW = None
    tau: int = 0
    # the seeded centroids, one array per modality, shared by the runs that
    # pass the same list; see _init_banks
    seeded: list = field(default_factory=list)


def init_adapt_state(model: SourceModel, cfg: AdaptConfig,
                     variant: MethodVariant, seed: int = 0,
                     seeded: list = None) -> AdaptState:
    cfg.validate()
    variant = MethodVariant(variant)
    # only the encoders of a gradient variant train, so no other variant
    # builds a graph; every flag is set, so a reused model adapts again
    model.freeze()
    opt = None
    if variant in GRAD_VARIANTS:
        for p in model.trainable_parameters().values():
            p.requires_grad = True
        opt = AdamW(model.trainable_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    return AdaptState(model=model, cfg=cfg, variant=variant, seed=seed, optimizer=opt,
                      seeded=[] if seeded is None else seeded)


def _grad_norm(model: SourceModel) -> float:
    """Norm of the encoder gradients. One squared sum per parameter over its
    (3, -1) view gives each modality slice's sum, bit for bit the sum of the
    slice alone; the slice sums are added in checkpoint order, modality by
    modality. A parameter with no gradient adds nothing."""
    enc = model.encoder
    sums = [(g.reshape(len(MODALITIES), -1) ** 2).sum(axis=1)
            for g in (getattr(enc, name).grad for name in enc.NAMES) if g is not None]
    total = 0.0
    for per_modality in zip(*sums):
        for s in per_modality:
            total += float(s)
    return float(np.sqrt(total))


def _init_banks(state: AdaptState, features: np.ndarray):
    """Seed each modality's bank from the tau=0 features, unless
    ``state.seeded`` already holds the centroids, and give the run one bank
    over their stack: slice i is ``MODALITIES[i]``'s.

    The runs that share a ``seeded`` list must seed from the same ``k``,
    features and run seed, as the runs of one ``harness.run_seed`` job do.
    All three modalities are stored at once, so a seeding that fails leaves
    the list empty. The stack is a fresh array, so a run's momentum updates
    never reach the stored centroids.
    """
    if not state.seeded:
        state.seeded[:] = [cb.init_kmeanspp(x, state.cfg.k, seed=state.seed * 101 + i).centroids
                           for i, x in enumerate(features)]
    state.bank = cb.CentroidBank(modality="", centroids=np.stack(state.seeded),
                                 momentum=state.cfg.gamma)


def adapt_batch(state: AdaptState, batch) -> BatchResult:
    """Process one unlabeled target batch, a 3 x B x d_in stack or a
    {modality: B x d_in} dict; updates state in place. A NumericError raised
    on the way carries the batch's ``tau``."""
    model, cfg = state.model, state.cfg
    # the one gradient reset; _apply_step leaves its gradients in place,
    # whether it steps or skips
    model.zero_grad()
    try:
        features = model.embed(batch)
        fused_logits = model.head(features)
        # the batch's one softmax, kept on the node: the logged entropies,
        # ST's pseudo-labels and the EM loss all read it
        result = BatchResult(tau=state.tau, predictions=fused_logits.data.argmax(axis=1),
                             entropies=gc.softmax_entropy(fused_logits)[1])

        # SOURCE only predicts
        if state.variant == MethodVariant.NORM:
            _norm_update(model, batch, cfg.norm_momentum)
        elif state.variant == MethodVariant.TENT_EM:
            loss = obj.em_loss(fused_logits)
            result.loss_row = {"em": loss.item(), "total": loss.item()}
            _apply_step(state, loss, result)
        elif state.variant == MethodVariant.ST:
            _st_step(state, fused_logits, result)
        elif state.variant in BANK_VARIANTS:
            _cluster_step(state, features, fused_logits, result)
    except NumericError as exc:
        exc.tau = state.tau
        raise

    state.tau += 1
    return result


def _apply_step(state: AdaptState, loss, result: BatchResult):
    if not np.isfinite(loss.data):
        raise DivergenceError(f"non-finite loss at tau={state.tau}: {result.loss_row}",
                              tau=state.tau)
    gc.backward(loss)
    result.grad_norm = _grad_norm(state.model)
    # skip and flag a non-finite gradient rather than clip it, so the
    # gradient-norm trace keeps its diagnostic meaning
    result.skipped = not np.isfinite(result.grad_norm)
    if not result.skipped:
        state.optimizer.step()


def _norm_update(model: SourceModel, batch, momentum: float):
    mean, var = batch_stats(stack_modalities(batch))
    model.input_mean = (1 - momentum) * model.input_mean + momentum * mean
    model.input_var = (1 - momentum) * model.input_var + momentum * var


def _st_step(state: AdaptState, fused_logits, result: BatchResult):
    probs = gc.softmax_entropy(fused_logits)[0]
    conf = gc.max_last(probs)
    pseudo = probs.argmax(axis=1)
    keep = np.flatnonzero(conf >= state.cfg.st_confidence)
    if keep.size == 0:
        result.loss_row = {"st": 0.0, "total": 0.0, "n_confident": 0.0}
        return
    loss = gc.cross_entropy(gc.take_rows(fused_logits, keep), pseudo[keep])
    result.loss_row = {"st": loss.item(), "total": loss.item(),
                       "n_confident": float(keep.size)}
    _apply_step(state, loss, result)


def _cluster_step(state: AdaptState, features, fused_logits, result: BatchResult):
    """One bank-variant step on the 3 x B x d_h features: one max-cosine node
    and, when DIV runs (see ``objectives.runs_div``), one classifier node over
    the stack, which every loss reads as it is.

    The batch is scored by ``_score``; its cluster counts are computed once,
    for tracking and DIV, and the run's one stacked bank is scored and
    tracked as it is."""
    cfg = state.cfg
    if state.bank is None:
        _init_banks(state, features.data)

    s, idx, unit = _score(state.bank, features)
    counts = gc.cluster_counts(idx, cfg.k)
    # only DIV reads the modality logits
    logits = (state.model.classifier.forward(features)
              if obj.runs_div(state.variant, cfg.alpha) else None)

    bd = obj.total_loss(
        s, logits, fused_logits, idx,
        k=cfg.k, variant=state.variant, eps_w=cfg.eps_w, lam=cfg.lam,
        alpha=cfg.alpha, beta=cfg.beta, counts=counts,
    )
    result.loss_row = bd.row
    _apply_step(state, bd.total, result)
    cb.momentum_update(state.bank, cb.batch_means(unit, idx, state.bank, counts))


def _score(bank: cb.CentroidBank, features):
    """(max-cosine node, cluster indices, unit rows) of a 3 x B x d_h feature
    Tensor against the bank, in an adaptation step and in the final pass.
    The row norms are taken once, for the scores and for the unit rows, the
    values of ``cb.l2_normalize_rows`` (a zero-norm row raises in scoring)."""
    norms = np.linalg.norm(features.data, axis=-1)
    s, idx = cb.max_similarity(bank, features, norms)
    return s, idx, features.data / norms[..., None]


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
        """The JSON document of the run; it shares the traces with the report."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        # JSON keys are strings; converting here keeps sort_keys ordering
        # them as text ("10" before "2"), as the files always have
        for name in ("cluster_ratios", "entropy_table"):
            doc[name] = {m: {str(j): v for j, v in t.items()} for m, t in doc[name].items()}
        return doc


def run_stream(model: SourceModel, target: SyntheticDataset, cfg: AdaptConfig,
               variant, seed: int = 0, seeded: list = None) -> RunReport:
    """Single online epoch over the target stream, then a final full pass.

    ``source`` changes neither parameters nor input statistics, so its final
    pass is its online pass: its final predictions are the online ones, bit
    for bit, and it makes no second pass. Target labels are read only here,
    for metrics and diagnostics; the adaptation path receives feature
    batches alone, each a 3 x B x d_in view of ``target.stack``, never a
    copy. Runs that pass one ``seeded`` list seed the centroid banks once
    between them (see ``_init_banks``).

    A bank run builds its diagnostics chunk by chunk inside the final pass:
    each chunk is scored against the final banks as an online step is
    (``_score``), its unit rows go through the classifier, and only the
    per-row cluster indices and member entropies, two 3 x n arrays, are
    kept, never the 3 x n x d_h feature stack. The per-cluster means are then taken over those
    full-length arrays, one modality and one k x d_h bank slice at a time.
    """
    n = len(target)
    if n == 0:
        raise ContractError("empty target stream")
    state = init_adapt_state(model, cfg, variant, seed=seed, seeded=seeded)
    report = RunReport(variant=state.variant.value, seed=seed)

    online_preds = np.empty(n, dtype=np.int64)
    for start in range(0, n, cfg.batch_size):
        rows = slice(start, start + cfg.batch_size)
        res = adapt_batch(state, target.stack[:, rows])
        online_preds[rows] = res.predictions
        report.loss_trace.append({"tau": res.tau, **res.loss_row})
        report.grad_norm_trace.append(res.grad_norm)
        report.mean_entropy_trace.append(float(res.entropies.mean()))
        report.skipped_steps += int(res.skipped)

    labels = target.labels
    report.online_accuracy = accuracy(online_preds, labels)
    report.online_macro_f1 = macro_f1(online_preds, labels)

    if state.variant == MethodVariant.SOURCE:
        # the same head(embed(batch)) on the same rows of an unchanged model
        final_preds = online_preds
    else:
        # second, post-adaptation inference pass over the full target set, in
        # stream-sized chunks with every parameter frozen, so no graph is kept
        model.freeze()
        final_preds = np.empty(n, dtype=np.int64)
        if state.bank is not None:
            indices = np.empty((len(MODALITIES), n), dtype=np.int64)
            member_entropies = np.empty((len(MODALITIES), n))
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            encoded = model.embed(target.stack[:, rows])
            final_preds[rows] = model.head(encoded).data.argmax(axis=1)
            if state.bank is not None:
                _, indices[:, rows], unit = _score(state.bank, encoded)
                member_entropies[:, rows] = entropy_rows(
                    model.classifier.forward(gc.Tensor(unit)).data)
    report.final_accuracy = accuracy(final_preds, labels)
    report.final_macro_f1 = macro_f1(final_preds, labels)

    if state.bank is not None:
        gaps = []
        for m, centroids, idx, ent in zip(MODALITIES, state.bank.centroids, indices,
                                          member_entropies):
            ratios = cluster_ratio_diag(idx, final_preds, labels, cfg.k)
            report.cluster_ratios[m] = ratios
            report.entropy_table[m] = entropy_diag(centroids, model, ent, idx)
            gaps.extend(abs(p - t) for p, t in ratios.values())
        report.collapse_gap = float(np.mean(gaps)) if gaps else None
    return report
