"""Synthetic multimodal semantic-drift benchmark plus evaluation metrics.

Each sample carries an invariant latent "core" that alone determines its
label; the three modality features are domain-specific surface renderings
of that core. Drift severity controls how far the target domain's rendering
maps deviate from the source maps, so the class-relevant structure persists
while its manifestation shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BenchmarkConfig, ExperimentConfig
from .errors import ConfigError, ContractError
from .gradcore import Tensor, cluster_sums, entropy_array, softmax_array
from .model import MODALITIES

_CORE_MARGIN = 2.0     # least pairwise distance of the core embeddings
_OUTLIER_SCALE = 3.0   # outliers are off-manifold noise of this scale


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
    outlier_mode: str = "scatter"   # "scatter": iid noise; "clump": near-duplicate junk
    outlier_spread: float = 0.6     # clump mode: dispersion around the junk direction


@dataclass
class SyntheticDataset:
    stack: np.ndarray               # 3 x n x d_in; slice i renders MODALITIES[i]
    labels: np.ndarray              # n, ints in {0, 1}
    cores: np.ndarray               # n, latent core index (diagnostics only)

    @property
    def features(self) -> dict:
        """modality -> n x d_in, each a view of its slice of ``stack``."""
        return dict(zip(MODALITIES, self.stack))

    def __len__(self):
        return self.labels.shape[0]


def make_core_spec(bench: BenchmarkConfig, seed: int) -> CoreSpec:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        emb = rng.normal(0.0, 1.0, (bench.n_cores, bench.d_z))
        emb *= 2.0 / np.linalg.norm(emb, axis=1, keepdims=True) * np.sqrt(bench.d_z) / 2
        d = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() >= _CORE_MARGIN:
            break
    else:
        raise ConfigError(
            f"{bench.n_cores} cores in d_z={bench.d_z} dimensions: no draw of 100 keeps "
            f"them {_CORE_MARGIN} apart; use fewer n_cores or a larger d_z"
        )
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
    marked = 0
    # Drawn one position at a time until target are marked, at least as many
    # draws follow as positions are missing, and all of them if each marks a
    # new one. So each round draws that many at once: the same draws, and
    # the generator state of the one-at-a-time loop.
    while marked < target:
        mask[rng.integers(0, n, size=target - marked)] = True
        marked = int(np.count_nonzero(mask))
    return mask


def generate_domain(cores: CoreSpec, domain: DomainSpec, n: int, seed: int) -> SyntheticDataset:
    """Draw n samples: core -> label (noise-flipped) and per-modality features.

    The label path touches only the core index and the label-noise RNG; the
    rendering maps never see the label. Each modality is rendered in place
    in its slice of one 3 x n x d_in stack: tanh(z @ a + b) plus style noise,
    with the outlier rows then overwritten by their off-manifold noise.
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
    outlier = np.flatnonzero(_outlier_mask(rng, n, domain.outlier_frac))
    d_in = domain.maps[MODALITIES[0]][0].shape[1]
    stack = np.empty((len(MODALITIES), n, d_in))
    for m, x in zip(MODALITIES, stack):
        a, b = domain.maps[m]
        np.matmul(z, a, out=x)
        x += b
        np.tanh(x, out=x)
        style = rng.normal(0.0, 1.0, x.shape)
        style *= domain.style_noise
        x += style
        del style   # so that no two full-size draws are ever held at once
        # each noise draw is of the whole array, so the generator's order
        # never depends on the outlier rows; only those rows are kept
        noise = rng.normal(0.0, 1.0, x.shape)[outlier]
        if domain.outlier_mode == "clump":
            # near-duplicate junk (templated spam): one off-manifold direction
            # shared by the clumped outliers, with moderate dispersion around
            # it; the scatter draw above is not used
            u = rng.normal(0.0, 1.0, d_in)
            u *= np.sqrt(d_in) / np.linalg.norm(u)
            noise = u[None, :] + domain.outlier_spread * rng.normal(0.0, 1.0, x.shape)[outlier]
        x[outlier] = _OUTLIER_SCALE * noise
    return SyntheticDataset(stack=stack, labels=labels, cores=g)


# -- metrics --------------------------------------------------------------


def _aligned(preds, labels):
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ContractError(f"length mismatch: {preds.shape} vs {labels.shape}")
    return preds, labels


def accuracy(preds, labels) -> float:
    preds, labels = _aligned(preds, labels)
    return float(np.mean(preds == labels))


def macro_f1(preds, labels) -> float:
    """Unweighted mean of per-class F1 over the benchmark's classes; 0/0
    ratios count as 0.

    A class absent from both predictions and labels contributes F1 = 0.
    """
    preds, labels = _aligned(preds, labels)
    f1s = []
    for c in range(ExperimentConfig.n_classes):
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
    """Entropy (nats) of each row's softmax, as the ``em`` loss computes it."""
    return entropy_array(softmax_array(logits))[0]


def entropy_diag(centroids: np.ndarray, model, member_entropies: np.ndarray,
                 indices: np.ndarray) -> dict:
    """Per nonempty cluster: (centroid prediction entropy, mean member entropy).

    ``centroids`` are one modality's k x d_h bank. ``member_entropies`` holds
    the ``entropy_rows`` of each member's logits. The centroid is scored by
    feeding it through the shared classifier as if it were a feature vector.
    """
    cent_ent = entropy_rows(model.classifier.forward(Tensor(centroids)).data)
    return {j: (float(cent_ent[j]), float(member_entropies[indices == j].mean()))
            for j in np.unique(indices).tolist()}
