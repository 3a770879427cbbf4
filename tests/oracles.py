"""Reference implementations that the tests compare the program against.

Not a test module (pytest collects ``test_*.py`` alone). Each reference is
the plain composition or loop that a fused op, a batched step or a shared
helper replaced, kept so a test can require the same values bit for bit
(by ``tobytes()`` or ``np.array_equal``), or an independent implementation
of a metric or an update.
"""

from functools import reduce

import numpy as np

from driftadapt import centroids as cb, driftgen as dg, gradcore as gc, objectives as obj
from driftadapt.gradcore import Tensor
from driftadapt.model import MODALITIES
from driftadapt.objectives import MethodVariant


# -- the op-by-op compositions that each fused loss node replays -----------


def reference_can_loss(similarities: dict):
    terms = {m: gc.add(1.0, gc.mul(gc.tmean(s), -1.0)) for m, s in similarities.items()}
    return reduce(gc.add, terms.values()), terms


def reference_scan_loss(similarities: dict, beta: float):
    terms = {m: gc.add(1.0, gc.mul(gc.tsum(gc.mul(obj.adaptive_weights(s, beta), s)), -1.0))
             for m, s in similarities.items()}
    return reduce(gc.add, terms.values()), terms


def reference_div_loss(avg_probs: dict, k: int):
    terms = {}
    for m, p in avg_probs.items():
        if isinstance(p, dict):
            p = gc.stack_rows(list(p.values())) if p else Tensor(np.zeros((0, 1)))
        neg_ent = gc.tsum(gc.mul(p, gc.log_clamped(p)), axis=1)
        terms[m] = gc.mul(gc.tsum(neg_ent), 1.0 / k)
    return reduce(gc.add, terms.values()), terms


def reference_em_loss(fused_logits: Tensor) -> Tensor:
    p = gc.softmax(fused_logits)
    per_sample = gc.mul(gc.tsum(gc.mul(p, gc.log_clamped(p)), axis=1), -1.0)
    return gc.tmean(per_sample)


def reference_max_cosine(features, centroids):
    """Per slice ``max_axis1(cosine_matrix(...))`` of an n x B x d stack
    against an n x k x d centroid stack, stacked again."""
    parts = [gc.max_axis1(gc.cosine_matrix(f, c))
             for f, c in zip(gc.unstack(features), centroids)]
    return gc.stack_rows([s for s, _ in parts]), np.stack([idx for _, idx in parts])


def reference_total_loss(similarities: dict, modality_logits: dict, fused_logits, indices,
                         k, variant, eps_w, lam, alpha, beta):
    """The per-modality graph of the combined objective: a CAN node in every
    variant, one cluster mean per modality and a chain of mul and add nodes.
    Returns (total, {"<term>_<modality>": Tensor})."""
    can_total, terms = reference_can_loss(similarities)
    terms = {"can": terms}
    em = reference_em_loss(fused_logits)
    total = gc.mul(em, eps_w)
    if variant == MethodVariant.CAN:
        align = can_total
    else:
        align, terms["scan"] = reference_scan_loss(similarities, beta)
    total = gc.add(total, gc.mul(align, lam))
    if variant == MethodVariant.SCANNER and alpha > 0.0:
        avg = {m: gc.cluster_means(gc.softmax(logits), idx, k)
               for (m, logits), idx in zip(modality_logits.items(), indices)}
        div_total, terms["div"] = reference_div_loss(avg, k)
        total = gc.add(total, gc.mul(div_total, alpha))
    return total, {f"{name}_{m}": t for name, ts in terms.items() for m, t in ts.items()}


# -- model blocks ----------------------------------------------------------


def fusion_op_by_op(fusion, features):
    """The fusion block composed from per-row ops: one node per row op."""
    toks = gc.unstack(features)
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


def linear_layernorm_gelu_inline(x: Tensor, w: Tensor, b: Tensor, gain: Tensor,
                                 bias: Tensor) -> Tensor:
    """``gc.linear_layernorm_gelu``'s arithmetic written out inline: the
    layer norm's mean removed through the weights centred over d_h, and
    the tanh GELU as ``y / (1 + exp(y (k1 + k3 y^2)))``, with the constants
    read at call time. The backward centres the weight and bias gradients
    over d_h and takes the input gradient through the centred weights."""
    d = w.data.shape[-1]
    wc = w.data - np.einsum("...d->...", w.data)[..., None] / d
    bc = b.data - np.einsum("...d->...", b.data)[..., None] / d
    dev = x.data @ wc + bc[:, None, :]
    inv = 1.0 / np.sqrt(np.einsum("...d,...d->...", dev, dev)[..., None] / d + gc._LN_EPS)
    xhat = dev * inv
    y = gain.data[:, None, :] * xhat + bias.data[:, None, :]
    k1 = -2.0 * gc._GELU_C
    y2 = y * y
    with np.errstate(over="ignore"):
        den = 1.0 + np.exp(y * (k1 + (k1 * gc._GELU_A) * y2))
    out_data = y / den

    def bwd(g):
        s = 1.0 / den
        gs = g * (s + out_data * (s - 1.0) * (k1 + (3.0 * k1 * gc._GELU_A) * y2))
        gc._accum(gain, np.einsum("...bd,...bd->...d", gs, xhat))
        gc._accum(bias, np.einsum("...bd->...d", gs))
        gy = gs * gain.data[:, None, :]
        m2 = np.einsum("...d,...d->...", gy, xhat)[..., None] / d
        u = (gy - xhat * m2) * inv
        db = np.einsum("...bd->...d", u)
        gc._accum(b, db - np.einsum("...d->...", db)[..., None] / d)
        dw = x.data.transpose(0, 2, 1) @ u
        gc._accum(w, dw - np.einsum("...d->...", dw)[..., None] / d)
        gc._accum(x, u @ wc.transpose(0, 2, 1))

    return gc._make(out_data, (x, w, b, gain, bias), bwd)


def attention_pool_inline_softmax(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """``gc.attention_pool``'s closed form with its softmax written out
    inline and numpy's own sums over the query axis: the arithmetic that
    ``softmax_array`` and ``sum_last`` must give bit for bit."""
    n, b, d = x.data.shape
    rows = x.data.transpose(1, 0, 2).reshape(b * n, d)
    toks = rows.reshape(b, n, d)
    m = wq.data @ wk.data.T
    p = (rows @ m).reshape(b, n, d)
    scale = 1.0 / np.sqrt(wq.data.shape[1])
    s = (p @ toks.transpose(0, 2, 1)) * scale
    e = np.exp(s - s.max(axis=2, keepdims=True))
    attn = e / e.sum(axis=2, keepdims=True)
    c = attn.sum(axis=1)
    u = np.einsum("bj,bjd->bd", c, toks)
    out_data = (u @ wv.data) * (1.0 / n)

    def bwd(g):
        g = g * (1.0 / n)
        if wv.requires_grad:
            gc._accum(wv, u.T @ g)
        du = g @ wv.data.T
        dc = np.einsum("bjd,bd->bj", toks, du)[:, None, :]
        ds = attn * (dc - (attn * dc).sum(axis=2, keepdims=True)) * scale
        dp = (ds @ toks).reshape(b * n, d)
        dm = rows.T @ dp
        if wq.requires_grad:
            gc._accum(wq, dm @ wk.data)
        if wk.requires_grad:
            gc._accum(wk, dm.T @ wq.data)
        if x.requires_grad:
            dx = ((dp @ m.T).reshape(b, n, d) + ds.transpose(0, 2, 1) @ p
                  + c[:, :, None] * du[:, None, :])
            gc._accum(x, dx.transpose(1, 0, 2))

    return gc._make(out_data, (x, wq, wk, wv), bwd)


# -- optimizer -------------------------------------------------------------


def reference_adamw(theta, grads, lr, wd, b1, b2, eps):
    """Scalar-loop AdamW, independent of the vectorized implementation."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        for i in range(theta.size):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            mh = m[i] / (1 - b1**t)
            vh = v[i] / (1 - b2**t)
            theta[i] -= lr * mh / (np.sqrt(vh) + eps)
            theta[i] -= lr * wd * theta[i]
    return theta


class PerTensorAdamW:
    """The per-tensor update the flat optimizer replaced."""

    def __init__(self, params: dict, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1**self.t)
            vhat = self.v[name] / (1 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data


# -- clustering ------------------------------------------------------------


def reference_hartigan(x, centroids, max_sweeps=100):
    """Hartigan swap refinement as a plain loop over points and clusters: the
    oracle of the batched ``cb._hartigan_refine``."""
    labels, _ = cb._sse(x, centroids)
    k = centroids.shape[0]
    sums = np.zeros_like(centroids)
    counts = np.zeros(k, dtype=np.int64)
    for j in range(k):
        members = x[labels == j]
        counts[j] = len(members)
        if len(members):
            sums[j] = members.sum(axis=0)
    for _ in range(max_sweeps):
        moved = False
        for i in range(x.shape[0]):
            a = labels[i]
            if counts[a] <= 1:
                continue
            ca = sums[a] / counts[a]
            removal_gain = counts[a] / (counts[a] - 1.0) * ((x[i] - ca) ** 2).sum()
            best_gain, best_b = 1e-12, -1
            for b in range(k):
                if b == a:
                    continue
                if counts[b] == 0:
                    gain = removal_gain
                else:
                    cb_mean = sums[b] / counts[b]
                    gain = removal_gain - counts[b] / (counts[b] + 1.0) * (
                        (x[i] - cb_mean) ** 2
                    ).sum()
                if gain > best_gain:
                    best_gain, best_b = gain, b
            if best_b >= 0:
                sums[a] -= x[i]
                counts[a] -= 1
                sums[best_b] += x[i]
                counts[best_b] += 1
                labels[i] = best_b
                moved = True
        if not moved:
            break
    out = centroids.copy()
    for j in range(k):
        if counts[j]:
            out[j] = sums[j] / counts[j]
    return out


# -- benchmark generator and metrics ----------------------------------------


def outlier_mask_loop(rng, n, frac):
    """One draw per iteration until round(frac * n) positions are marked."""
    mask = np.zeros(n, dtype=bool)
    if frac <= 0.0:
        return mask
    target, marked = int(round(frac * n)), 0
    while marked < target:
        i = rng.integers(0, n)
        if not mask[i]:
            mask[i] = True
            marked += 1
    return mask


# outliers are noise of this scale; the reference states it rather than
# reading the program's own constant
OUTLIER_SCALE = 3.0


def reference_generate_domain(cores, domain, n, seed):
    """``driftgen.generate_domain`` as three separate modality arrays, each
    built from whole-array temporaries and an ``np.where`` over the outlier
    mask: (features by modality, labels, cores)."""
    rng = np.random.default_rng(seed)
    g = rng.integers(0, cores.n_cores, n)
    labels = (rng.random(n) < cores.p_hate[g]).astype(np.int64)
    flip = rng.random(n) < cores.label_noise
    labels = np.where(flip, 1 - labels, labels)

    z = cores.embeddings[g] + cores.jitter[g][:, None] * rng.normal(
        0.0, 1.0, (n, cores.embeddings.shape[1])
    )
    features = {}
    outlier = dg._outlier_mask(rng, n, domain.outlier_frac)
    for m in MODALITIES:
        a, b = domain.maps[m]
        x = np.tanh(z @ a + b)
        x = x + domain.style_noise * rng.normal(0.0, 1.0, x.shape)
        noise = OUTLIER_SCALE * rng.normal(0.0, 1.0, x.shape)
        if domain.outlier_mode == "clump":
            d_in = x.shape[1]
            u = rng.normal(0.0, 1.0, d_in)
            u *= np.sqrt(d_in) / np.linalg.norm(u)
            noise = OUTLIER_SCALE * (
                u[None, :] + domain.outlier_spread * rng.normal(0.0, 1.0, x.shape)
            )
        features[m] = np.where(outlier[:, None], noise, x)
    return features, labels, g


def f1_oracle(preds, labels, n_classes=2):
    """Confusion-matrix macro F1, written independently of the implementation."""
    cm = np.zeros((n_classes, n_classes), dtype=int)
    for p, y in zip(preds, labels):
        cm[y, p] += 1
    f1s = []
    for c in range(n_classes):
        tp = cm[c, c]
        denom_p = cm[:, c].sum()
        denom_r = cm[c, :].sum()
        prec = tp / denom_p if denom_p else 0.0
        rec = tp / denom_r if denom_r else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def entropy_rows_inline(logits: np.ndarray) -> np.ndarray:
    """``driftgen.entropy_rows`` with its softmax and floored log written out
    inline: the unfloored probabilities times the log of the floored ones,
    summed per row, times -1.0."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return (p * np.log(np.maximum(p, 1e-12))).sum(axis=1) * -1.0
