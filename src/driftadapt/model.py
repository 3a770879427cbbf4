"""Multimodal source model: three modality encoders, self-attention fusion,
and a shared linear classifier.

The classifier scores both the fused representation and each modality
embedding (shared weights). At test time only the encoders' linear layers
and normalization affine parameters are trainable; the fusion block and
classifier stay frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint, gradcore as gc
from .errors import CompatibilityError, ContractError, DivergenceError
from .gradcore import Tensor
from .optim import AdamW

MODALITIES = ("v", "t", "a")

# floor for the input-standardization variance
STATS_EPS = 1e-6


class ModalityEncoder:
    def __init__(self, tag: str, d_in: int, d_h: int, rng: np.random.Generator):
        self.tag = tag
        self.d_in = d_in
        self.d_h = d_h
        scale = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(0.0, scale, (d_in, d_h)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_h), requires_grad=True)
        self.norm_gain = Tensor(np.ones(d_h), requires_grad=True)
        self.norm_bias = Tensor(np.zeros(d_h), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return gc.linear_layernorm_gelu(x, self.weight, self.bias,
                                        self.norm_gain, self.norm_bias)

    def parameters(self) -> dict:
        p = f"enc.{self.tag}"
        return {
            f"{p}.weight": self.weight,
            f"{p}.bias": self.bias,
            f"{p}.norm_gain": self.norm_gain,
            f"{p}.norm_bias": self.norm_bias,
        }


class FusionBlock:
    """One self-attention layer over the three modality embeddings, mean-pooled.

    No positional encoding: tokens interact only through learned projections.
    """

    def __init__(self, d_h: int, rng: np.random.Generator):
        self.d_h = d_h
        scale = 1.0 / np.sqrt(d_h)
        self.wq = Tensor(rng.normal(0.0, scale, (d_h, d_h)), requires_grad=True)
        self.wk = Tensor(rng.normal(0.0, scale, (d_h, d_h)), requires_grad=True)
        self.wv = Tensor(rng.normal(0.0, scale, (d_h, d_h)), requires_grad=True)

    def forward(self, features: dict) -> Tensor:
        return gc.attention_pool([features[m] for m in MODALITIES], self.wq, self.wk, self.wv)

    def parameters(self) -> dict:
        return {"fusion.wq": self.wq, "fusion.wk": self.wk, "fusion.wv": self.wv}


class Classifier:
    def __init__(self, d_h: int, n_classes: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(d_h)
        self.weight = Tensor(rng.normal(0.0, scale, (d_h, n_classes)), requires_grad=True)
        self.bias = Tensor(np.zeros(n_classes), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return gc.linear(x, self.weight, self.bias)

    def parameters(self) -> dict:
        return {"clf.weight": self.weight, "clf.bias": self.bias}


@dataclass
class ModelDims:
    d_in: int = 16
    d_h: int = 32
    n_classes: int = 2


class SourceModel:
    def __init__(self, dims: ModelDims, seed: int = 0):
        self.dims = dims
        rng = np.random.default_rng(seed)
        self.encoders = {m: ModalityEncoder(m, dims.d_in, dims.d_h, rng) for m in MODALITIES}
        self.fusion = FusionBlock(dims.d_h, rng)
        self.classifier = Classifier(dims.d_h, dims.n_classes, rng)
        # input standardization stats, estimated from source data; the Norm
        # baseline re-estimates these from test batches
        self.input_mean = {m: np.zeros(dims.d_in) for m in MODALITIES}
        self.input_var = {m: np.ones(dims.d_in) for m in MODALITIES}

    # -- parameter registry ------------------------------------------------

    def named_parameters(self) -> dict:
        out = {}
        for enc in self.encoders.values():
            out.update(enc.parameters())
        out.update(self.fusion.parameters())
        out.update(self.classifier.parameters())
        return out

    def trainable_parameters(self) -> dict:
        """Encoder linear + normalization affine parameters only."""
        out = {}
        for enc in self.encoders.values():
            out.update(enc.parameters())
        return out

    def frozen_parameters(self) -> dict:
        out = self.fusion.parameters()
        out.update(self.classifier.parameters())
        return out

    def zero_grad(self):
        for p in self.named_parameters().values():
            p.grad = None

    def set_input_stats(self, features: dict):
        for m in MODALITIES:
            self.input_mean[m] = features[m].mean(axis=0)
            self.input_var[m] = features[m].var(axis=0)

    # -- forward -----------------------------------------------------------

    def _standardize(self, m: str, x: np.ndarray) -> np.ndarray:
        return (x - self.input_mean[m]) / np.sqrt(self.input_var[m] + STATS_EPS)

    def encode(self, batch: dict) -> dict:
        sizes = {m: np.asarray(batch[m]).shape[0] for m in MODALITIES}
        if len(set(sizes.values())) != 1:
            raise ContractError(f"modality batch sizes differ: {sizes}")
        return {
            m: self.encoders[m].forward(Tensor(self._standardize(m, np.asarray(batch[m]))))
            for m in MODALITIES
        }

    def forward(self, batch: dict) -> Tensor:
        """The fused logits alone."""
        return self.classifier.forward(self.fusion.forward(self.encode(batch)))

    def forward_full(self, batch: dict):
        """Returns (features, per-modality logits, fused logits)."""
        features = self.encode(batch)
        modality_logits = {m: self.classifier.forward(features[m]) for m in MODALITIES}
        fused = self.fusion.forward(features)
        fused_logits = self.classifier.forward(fused)
        return features, modality_logits, fused_logits

    # -- persistence -------------------------------------------------------

    def state_arrays(self) -> dict:
        out = {k: p.data for k, p in self.named_parameters().items()}
        for m in MODALITIES:
            out[f"stats.{m}.mean"] = self.input_mean[m]
            out[f"stats.{m}.var"] = self.input_var[m]
        out["dims"] = np.asarray(
            [self.dims.d_in, self.dims.d_h, self.dims.n_classes], dtype=np.float64
        )
        return out

    def save(self, path):
        checkpoint.save(path, self.state_arrays())

    @classmethod
    def load(cls, path) -> "SourceModel":
        arrays = checkpoint.load(path)
        if "dims" not in arrays:
            raise CompatibilityError("checkpoint missing dims entry")
        d_in, d_h, n_cls = (int(v) for v in arrays["dims"])
        model = cls(ModelDims(d_in, d_h, n_cls), seed=0)
        missing = sorted(set(model.state_arrays()) - set(arrays))
        if missing:
            raise CompatibilityError(f"checkpoint missing entries {missing}")
        for name, p in model.named_parameters().items():
            if arrays[name].shape != p.data.shape:
                raise CompatibilityError(
                    f"checkpoint shape {arrays[name].shape} != {p.data.shape} for {name}"
                )
            p.data = arrays[name].copy()
        for m in MODALITIES:
            model.input_mean[m] = arrays[f"stats.{m}.mean"].copy()
            model.input_var[m] = arrays[f"stats.{m}.var"].copy()
        return model


@dataclass
class PretrainResult:
    losses: list = field(default_factory=list)
    holdout_accuracy: float = 0.0


def pretrain_source(model: SourceModel, features: dict, labels: np.ndarray,
                    epochs: int = 50, batch_size: int = 128,
                    lr: float = 1e-3, weight_decay: float = 5e-4,
                    holdout_frac: float = 0.2, seed: int = 0) -> PretrainResult:
    """Supervised pretraining with cross entropy on the fused logits.

    Standardization stats are estimated from the training split before the
    first step. The last ``holdout_frac`` of the data is held out for the
    reported accuracy.
    """
    n = labels.shape[0]
    n_hold = int(round(n * holdout_frac))
    n_train = n - n_hold
    train_feat = {m: features[m][:n_train] for m in MODALITIES}
    train_y = labels[:n_train]
    hold_feat = {m: features[m][n_train:] for m in MODALITIES}
    hold_y = labels[n_train:]

    model.set_input_stats(train_feat)
    opt = AdamW(model.named_parameters(), lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(seed)
    result = PretrainResult()
    for epoch in range(epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_train, batch_size):
            idx = order[start : start + batch_size]
            batch = {m: train_feat[m][idx] for m in MODALITIES}
            model.zero_grad()
            loss = gc.cross_entropy(model.forward(batch), train_y[idx])
            if not np.isfinite(loss.data):
                raise DivergenceError(f"non-finite pretraining loss at epoch {epoch}")
            gc.backward(loss)
            opt.step()
            epoch_loss += loss.item()
            n_batches += 1
        result.losses.append(epoch_loss / max(n_batches, 1))
    if n_hold:
        preds = predict(model, hold_feat)
        result.holdout_accuracy = float(np.mean(preds == hold_y))
    return result


def predict(model: SourceModel, features: dict) -> np.ndarray:
    return model.forward(features).data.argmax(axis=1)
