"""Synthetic multimodal semantic-drift benchmark plus evaluation metrics.

Each sample carries an invariant latent "core" that alone determines its
label; the three modality features are domain-specific surface renderings
of that core. Drift severity controls how far the target domain's rendering
maps deviate from the source maps, so the class-relevant structure persists
while its manifestation shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import BenchmarkConfig
from .errors import ContractError
from .gradcore import Tensor, cluster_sums
from .model import MODALITIES


@dataclass
class CoreSpec:
    embeddings: np.ndarray          # G x d_z, pairwise separated
    p_hate: np.ndarray              # per-core label probability
    label_noise: float
    jitter: np.ndarray              # per-core spread in latent space

    @property
    def n_cores(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class DomainSpec:
    maps: dict                      # modality -> (A: d_z x d_in, b: d_in)
    style_noise: float
    outlier_frac: float = 0.0
    outlier_scale: float = 3.0      # outliers are off-manifold noise
    outlier_mode: str = "scatter"   # "scatter": iid noise; "clump": near-duplicate junk
    outlier_spread: float = 0.6     # clump mode: dispersion around the junk direction


@dataclass
class SyntheticDataset:
    features: dict                  # modality -> n x d_in
    labels: np.ndarray              # n, ints in {0, 1}
    cores: np.ndarray               # n, latent core index (diagnostics only)

    def __len__(self):
        return self.labels.shape[0]


def make_core_spec(bench: BenchmarkConfig, seed: int, min_margin: float = 2.0) -> CoreSpec:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        emb = rng.normal(0.0, 1.0, (bench.n_cores, bench.d_z))
        emb *= 2.0 / np.linalg.norm(emb, axis=1, keepdims=True) * np.sqrt(bench.d_z) / 2
        d = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_margin:
            break
    return CoreSpec(
        embeddings=emb,
        p_hate=np.asarray(bench.p_hate, dtype=np.float64),
        label_noise=bench.label_noise,
        jitter=np.broadcast_to(
            np.asarray(bench.core_jitter, dtype=np.float64), (bench.n_cores,)
        ).copy(),
    )


def make_domain_pair(bench: BenchmarkConfig, seed: int):
    """Source and target rendering maps; severity 0 makes them identical."""
    rng = np.random.default_rng(seed + 1)
    src_maps, tgt_maps = {}, {}
    scale = 1.0 / np.sqrt(bench.d_z)
    for m in MODALITIES:
        a = rng.normal(0.0, scale, (bench.d_z, bench.d_in))
        b = rng.normal(0.0, 0.3, bench.d_in)
        da = rng.normal(0.0, scale, (bench.d_z, bench.d_in))
        db = rng.normal(0.0, 0.3, bench.d_in)
        src_maps[m] = (a, b)
        tgt_maps[m] = (a + bench.severity * da, b + bench.severity * db)
    drift = bench.style_drift if bench.style_drift is not None else 1.0 + bench.severity
    source = DomainSpec(maps=src_maps, style_noise=bench.style_noise)
    target = DomainSpec(
        maps=tgt_maps,
        style_noise=bench.style_noise * drift,
        outlier_frac=bench.outlier_frac,
        outlier_mode=bench.outlier_mode,
        outlier_spread=bench.outlier_spread,
    )
    return source, target


def _outlier_mask(rng: np.random.Generator, n: int, frac: float) -> np.ndarray:
    """Mark ~frac of the n stream positions as outliers, drawn with replacement."""
    mask = np.zeros(n, dtype=bool)
    if frac <= 0.0:
        return mask
    target = int(round(frac * n))
    while mask.sum() < target:
        mask[rng.integers(0, n)] = True
    return mask


def generate_domain(cores: CoreSpec, domain: DomainSpec, n: int, seed: int) -> SyntheticDataset:
    """Draw n samples: core -> label (noise-flipped) and per-modality features.

    The label path touches only the core index and the label-noise RNG; the
    rendering maps never see the label.
    """
    if n < 1:
        raise ContractError("need at least one sample")
    rng = np.random.default_rng(seed)
    g = rng.integers(0, cores.n_cores, n)
    labels = (rng.random(n) < cores.p_hate[g]).astype(np.int64)
    flip = rng.random(n) < cores.label_noise
    labels = np.where(flip, 1 - labels, labels)

    z = cores.embeddings[g] + cores.jitter[g][:, None] * rng.normal(
        0.0, 1.0, (n, cores.embeddings.shape[1])
    )
    features = {}
    outlier = _outlier_mask(rng, n, domain.outlier_frac)
    for m in MODALITIES:
        a, b = domain.maps[m]
        x = np.tanh(z @ a + b)
        x = x + domain.style_noise * rng.normal(0.0, 1.0, x.shape)
        noise = domain.outlier_scale * rng.normal(0.0, 1.0, x.shape)
        if domain.outlier_mode == "clump":
            # near-duplicate junk (templated spam): one off-manifold direction
            # shared by the clumped outliers, with moderate dispersion around it
            d_in = x.shape[1]
            u = rng.normal(0.0, 1.0, d_in)
            u *= np.sqrt(d_in) / np.linalg.norm(u)
            noise = domain.outlier_scale * (
                u[None, :] + domain.outlier_spread * rng.normal(0.0, 1.0, x.shape)
            )
        features[m] = np.where(outlier[:, None], noise, x)
    return SyntheticDataset(features=features, labels=labels, cores=g)


# -- metrics --------------------------------------------------------------


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ContractError(f"length mismatch: {preds.shape} vs {labels.shape}")
    return float(np.mean(preds == labels))


def macro_f1(preds, labels, n_classes: int = 2) -> float:
    """Unweighted mean of per-class F1; 0/0 ratios count as 0.

    A class absent from both predictions and labels contributes F1 = 0.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ContractError(f"length mismatch: {preds.shape} vs {labels.shape}")
    f1s = []
    for c in range(n_classes):
        tp = np.sum((preds == c) & (labels == c))
        fp = np.sum((preds == c) & (labels != c))
        fn = np.sum((preds != c) & (labels == c))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


# -- diagnostics ----------------------------------------------------------


def cluster_ratio_diag(indices, preds, labels, k: int) -> dict:
    """Per nonempty cluster: (predicted positive ratio, true positive ratio)."""
    indices = np.asarray(indices)
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if not (indices.shape == preds.shape == labels.shape):
        raise ContractError("diagnostic inputs must be aligned")
    positives = np.stack([preds == 1, labels == 1], axis=1).astype(np.float64)
    sums, counts = cluster_sums(positives, indices, k)
    return {j: tuple(float(r) for r in sums[j] / counts[j])
            for j in np.flatnonzero(counts).tolist()}


def entropy_rows(logits: np.ndarray) -> np.ndarray:
    """Entropy (nats) of each row's softmax, probabilities floored at 1e-12."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p = np.maximum(p, 1e-12)
    return -(p * np.log(p)).sum(axis=1)


def entropy_diag(bank, model, features: np.ndarray, indices: np.ndarray) -> dict:
    """Per nonempty cluster: (centroid prediction entropy, mean member entropy).

    The centroid is scored by feeding it through the shared classifier as if
    it were a feature vector.
    """
    cent_logits = model.classifier.forward(Tensor(bank.centroids)).data
    member_logits = model.classifier.forward(Tensor(features)).data
    member_ent = entropy_rows(member_logits)
    cent_ent = entropy_rows(cent_logits)
    out = {}
    for j in range(bank.k):
        members = indices == j
        if members.any():
            out[j] = (float(cent_ent[j]), float(member_ent[members].mean()))
    return out
