"""Multimodal source model: three modality encoders, self-attention fusion,
and a shared linear classifier.

The modalities are one stacked leading axis. The three encoders have the
same shape, so ``ModalityEncoder`` holds them as one stack of parameters
(a 3 x d_in x d_h weight, 3 x d_h bias, gain and norm bias) and encodes a
3 x B x d_in input in one graph node; the input statistics are 3 x d_in
arrays. Slice i of everything belongs to ``MODALITIES[i]``. Checkpoints and
``state_arrays`` keep one entry per modality (``enc.v.weight``,
``stats.v.mean``, ...): slices of the stack, taken when they are read,
because an optimizer may have moved the stack's storage since.

The classifier scores both the fused representation and each modality
embedding (shared weights). Every parameter is created frozen; only
``gc.tracking`` makes one require a gradient, for one training step. At test
time that is the encoder's linear and norm-affine parameters alone.

``pretrain_source`` trains the models of several seeds as one: a model
whose every parameter stacks theirs on a leading seed axis runs the same
block forward code on an S x 3 x B x d_in batch, one graph node per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint, gradcore as gc
from .errors import CompatibilityError, ContractError, DivergenceError, NumericError
from .gradcore import Tensor
from .optim import AdamW

MODALITIES = ("v", "t", "a")

# floor for the input-standardization variance
STATS_EPS = 1e-6
# the last share of the source data that pretraining holds out
HOLDOUT_FRAC = 0.2
# pretraining's AdamW settings, fixed so that no adaptation setting moves a
# checkpoint; adaptation reads its own from AdaptConfig
PRETRAIN_LR = 1e-3
PRETRAIN_WEIGHT_DECAY = 5e-4


class ModalityEncoder:
    """The encoders of all modalities: gelu(layernorm(x @ w + b)) per slice,
    as one ``gc.linear_layernorm_gelu`` node. That node removes the layer
    norm's row mean through ``w`` and ``b`` centred over d_h and computes
    the tanh GELU with one exp, so it equals the op-by-op composition up to
    rounding; the parameters and what a checkpoint stores are those of the
    composition."""

    # the per-modality checkpoint name of each stacked parameter
    NAMES = ("weight", "bias", "norm_gain", "norm_bias")

    def __init__(self, d_in: int, d_h: int, rng: np.random.Generator):
        n = len(MODALITIES)
        scale = 1.0 / np.sqrt(d_in)
        # one draw of n weights equals n draws of one, in modality order
        self.weight = Tensor(rng.normal(0.0, scale, (n, d_in, d_h)))
        self.bias = Tensor(np.zeros((n, d_h)))
        self.norm_gain = Tensor(np.ones((n, d_h)))
        self.norm_bias = Tensor(np.zeros((n, d_h)))

    def forward(self, x: Tensor) -> Tensor:
        """3 x B x d_h features of a standardized 3 x B x d_in input, or
        S x 3 x B x d_h of S x 3 x B x d_in through S x 3 weight stacks."""
        return gc.linear_layernorm_gelu(x, self.weight, self.bias,
                                        self.norm_gain, self.norm_bias)

    def parameters(self) -> dict:
        return {f"enc.{name}": getattr(self, name) for name in self.NAMES}

    def modality_slices(self):
        """(checkpoint name, slice) pairs of each parameter in checkpoint
        order: modality by modality, ``NAMES`` within one. The slices are
        taken from the current storage."""
        for i, m in enumerate(MODALITIES):
            for name in self.NAMES:
                yield f"enc.{m}.{name}", getattr(self, name).data[i]


class FusionBlock:
    """One self-attention layer over the three modality embeddings, mean-pooled.

    No positional encoding: tokens interact only through learned projections.
    """

    def __init__(self, d_h: int, rng: np.random.Generator):
        self.d_h = d_h
        scale = 1.0 / np.sqrt(d_h)
        self.wq = Tensor(rng.normal(0.0, scale, (d_h, d_h)))
        self.wk = Tensor(rng.normal(0.0, scale, (d_h, d_h)))
        self.wv = Tensor(rng.normal(0.0, scale, (d_h, d_h)))

    def forward(self, features: Tensor) -> Tensor:
        """B x d_h pooled representation of 3 x B x d_h features, or
        S x B x d_h of S x 3 x B x d_h features through S x d_h x d_h
        projections."""
        return gc.attention_pool(features, self.wq, self.wk, self.wv)

    def parameters(self) -> dict:
        return {"fusion.wq": self.wq, "fusion.wk": self.wk, "fusion.wv": self.wv}


class Classifier:
    def __init__(self, d_h: int, n_classes: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(d_h)
        self.weight = Tensor(rng.normal(0.0, scale, (d_h, n_classes)))
        self.bias = Tensor(np.zeros(n_classes))

    def forward(self, x: Tensor) -> Tensor:
        """Logits of B x d_h rows, or of each slice of a 3 x B x d_h stack;
        an S x d_h x C weight scores slice s of S x B x d_h rows."""
        return gc.linear(x, self.weight, self.bias)

    def parameters(self) -> dict:
        return {"clf.weight": self.weight, "clf.bias": self.bias}


@dataclass
class ModelDims:
    d_in: int
    d_h: int
    n_classes: int


def stack_modalities(batch) -> np.ndarray:
    """The 3 x B x d array of a batch. A 3 x B x d array, such as a slice of
    a dataset's stack, is used as it is, without a copy; a {modality: B x d}
    dict is stacked into a new one."""
    if not isinstance(batch, dict):
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] != len(MODALITIES):
            raise ContractError(f"a stacked batch is {len(MODALITIES)} x B x d, "
                                f"not {x.shape}")
        return x
    xs = [np.asarray(batch[m], dtype=np.float64) for m in MODALITIES]
    sizes = {m: x.shape[0] for m, x in zip(MODALITIES, xs)}
    if len(set(sizes.values())) != 1:
        raise ContractError(f"modality batch sizes differ: {sizes}")
    return np.stack(xs)


def batch_stats(x: np.ndarray) -> tuple:
    """(mean, variance) over the batch axis of a 3 x B x d stack, bit for bit
    ``x.mean(axis=1)`` and ``x.var(axis=1)``: ``np.var``'s arithmetic (a sum
    divided by B, then the mean of the squared deviations) written out from
    the one mean."""
    n = x.shape[1]
    mean = x.sum(axis=1, keepdims=True) / n
    dev = x - mean
    return mean[:, 0], (dev * dev).sum(axis=1) / n


class SourceModel:
    def __init__(self, dims: ModelDims, seed: int = 0):
        self.dims = dims
        rng = np.random.default_rng(seed)
        self.encoder = ModalityEncoder(dims.d_in, dims.d_h, rng)
        self.fusion = FusionBlock(dims.d_h, rng)
        self.classifier = Classifier(dims.d_h, dims.n_classes, rng)
        # input standardization stats, estimated from source data; the Norm
        # baseline re-estimates these from test batches
        self.input_mean = np.zeros((len(MODALITIES), dims.d_in))
        self.input_var = np.ones((len(MODALITIES), dims.d_in))

    # -- parameter registry ------------------------------------------------

    def named_parameters(self) -> dict:
        out = self.trainable_parameters()
        out.update(self.frozen_parameters())
        return out

    def trainable_parameters(self) -> dict:
        """Encoder linear + normalization affine parameters only."""
        return self.encoder.parameters()

    def frozen_parameters(self) -> dict:
        out = self.fusion.parameters()
        out.update(self.classifier.parameters())
        return out

    def set_input_stats(self, features):
        self.input_mean, self.input_var = batch_stats(stack_modalities(features))

    # -- forward -----------------------------------------------------------

    def standardize(self, batch) -> np.ndarray:
        """The standardized 3 x B x d_in input of a batch."""
        return ((stack_modalities(batch) - self.input_mean[:, None, :])
                / np.sqrt(self.input_var[:, None, :] + STATS_EPS))

    def embed(self, batch) -> Tensor:
        """3 x B x d_h features of a batch, stacked or by modality (see
        ``stack_modalities``): one encoder node."""
        return self.encoder.forward(Tensor(self.standardize(batch)))

    def head(self, features: Tensor) -> Tensor:
        """Fused logits of 3 x B x d_h features. Logits that are not finite (an
        overflow in the attention) raise NumericError; argmax would score NaN as 0."""
        logits = self.classifier.forward(self.fusion.forward(features))
        if not np.isfinite(logits.data).all():
            raise NumericError("fused logits are not finite")
        return logits

    def encode(self, batch: dict) -> dict:
        """Per-modality B x d_h features, slices of ``embed``."""
        return dict(zip(MODALITIES, gc.unstack(self.embed(batch))))

    def forward_full(self, batch: dict):
        """Returns (features, per-modality logits, fused logits); the first
        two map each modality to a slice of one stacked node."""
        features = self.embed(batch)
        modality_logits = gc.unstack(self.classifier.forward(features))
        fused_logits = self.head(features)
        return (dict(zip(MODALITIES, gc.unstack(features))),
                dict(zip(MODALITIES, modality_logits)), fused_logits)

    # -- persistence -------------------------------------------------------

    def state_arrays(self) -> dict:
        """Every checkpoint entry; the per-modality entries are views into
        the current stacked storage."""
        out = dict(self.encoder.modality_slices())
        out.update((k, p.data) for k, p in self.frozen_parameters().items())
        for i, m in enumerate(MODALITIES):
            out[f"stats.{m}.mean"] = self.input_mean[i]
            out[f"stats.{m}.var"] = self.input_var[i]
        out["dims"] = np.asarray(
            [self.dims.d_in, self.dims.d_h, self.dims.n_classes], dtype=np.float64
        )
        return out

    def save(self, path):
        checkpoint.save(path, self.state_arrays())

    @classmethod
    def load(cls, path, dims: ModelDims) -> "SourceModel":
        """The model saved at ``path``, whose stored dims must be ``dims``."""
        arrays = checkpoint.load(path)
        stored, expected = arrays.get("dims"), [dims.d_in, dims.d_h, dims.n_classes]
        if not np.array_equal(stored, expected):
            raise CompatibilityError(f"checkpoint dims {np.asarray(stored).tolist()} "
                                     f"do not match the config's dims {expected}")
        model = cls(dims, seed=0)
        views = model.state_arrays()
        del views["dims"]
        missing = sorted(set(views) - set(arrays))
        if missing:
            raise CompatibilityError(f"checkpoint missing entries {missing}")
        for name, view in views.items():
            if arrays[name].shape != view.shape:
                raise CompatibilityError(
                    f"checkpoint shape {arrays[name].shape} != {view.shape} for {name}"
                )
            if not np.isfinite(arrays[name]).all():
                raise CompatibilityError(f"checkpoint entry {name} holds NaN or inf")
            view[...] = arrays[name]
        return model


@dataclass
class PretrainResult:
    losses: list = field(default_factory=list)
    holdout_accuracy: float = 0.0


def _stacked(models) -> SourceModel:
    """A model whose every parameter stacks the models' own on a new leading
    axis, slice i being model i's; it runs their blocks' forward code on a
    stacked input, and its input statistics are unused."""
    stacked = SourceModel(models[0].dims)
    own = [m.named_parameters() for m in models]
    for name, p in stacked.named_parameters().items():
        p.data = np.stack([params[name].data for params in own])
    return stacked


def _split_rows(model: SourceModel, features, labels, seed: int):
    """(standardized 3 x n_train x d_in training rows, training labels, raw
    held-out features, held-out labels) of one model's data, whose input
    statistics are set from the training rows. Features and labels of
    different row counts are a ContractError."""
    x, labels = stack_modalities(features), np.asarray(labels)
    if labels.shape != x.shape[1:2]:
        raise ContractError(f"seed {seed} has {x.shape[1]} feature rows and labels of "
                            f"shape {labels.shape}")
    n_train = x.shape[1] - int(round(x.shape[1] * HOLDOUT_FRAC))
    model.set_input_stats(x[:, :n_train])
    return (model.standardize(x[:, :n_train]), labels[:n_train],
            x[:, n_train:].copy(), labels[n_train:])


def pretrain_source(models, data, epochs: int, batch_size: int, seeds) -> list:
    """Supervised pretraining of every model in lockstep, with cross entropy
    on the fused logits, by AdamW at ``PRETRAIN_LR`` and
    ``PRETRAIN_WEIGHT_DECAY``; one PretrainResult per model.

    ``data`` holds one (features, labels) pair per model, features stacked or
    by modality (see ``stack_modalities``), all of one row count and every
    model of the same dims, else a ContractError before any step. Pairs are
    read one at a time and none is kept once standardized, so a lazy caller
    never holds every raw data set at once. Each model's input statistics
    come from its training split; its last ``HOLDOUT_FRAC`` of rows is held
    out for its reported accuracy.

    Each step gathers every model's batch, by its own permutation from
    ``seeds[i]``, into one S x 3 x B x d_in array for a model whose
    parameters stack theirs (``_stacked``): one encoder, attention,
    classifier and ``cross_entropy`` node (the sum of the per-model means),
    one backward and one AdamW step. Every stacked op is bit for bit its
    per-slice op, so each model ends as if trained alone, its parameters its
    slices of the stacked storage.
    """
    models, seeds = list(models), list(seeds)
    if len(seeds) != len(models):
        raise ContractError(f"{len(models)} models but {len(seeds)} seeds")
    if any(m.dims != models[0].dims for m in models):
        raise ContractError("the models to pretrain together have different dims")
    data = iter(data)
    splits = [_split_rows(model, *pair, seed) for model, seed, pair in zip(models, seeds, data)]
    if len(splits) != len(models) or next(data, None) is not None:
        raise ContractError(f"{len(models)} models need as many (features, labels) pairs")
    if not models:
        return []
    rows = [len(y) + len(hold_y) for _, y, _, hold_y in splits]
    if len(set(rows)) > 1:
        raise ContractError(f"the seeds' data have {rows} rows; every seed's data has one "
                            "row count")
    train_x, train_y, holds, hold_ys = zip(*splits)
    del splits   # so that each model's training rows are freed once stacked
    train_x, train_y = np.stack(train_x), np.stack(train_y)
    n_seeds, n_train = train_y.shape
    # row offsets of every (model, modality) slice and every model's labels
    # in the flattened training arrays, so one take gathers a step's batch
    x_rows = train_x.reshape(-1, train_x.shape[-1])
    x_start = n_train * np.arange(n_seeds * len(MODALITIES)).reshape(n_seeds, -1, 1)
    y_start = n_train * np.arange(n_seeds)[:, None]
    y_rows = train_y.reshape(-1)

    stacked = _stacked(models)
    opt = AdamW(stacked.named_parameters(), PRETRAIN_LR, PRETRAIN_WEIGHT_DECAY)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    results = [PretrainResult() for _ in models]
    step_loss = np.empty(n_seeds)
    starts = range(0, n_train, batch_size)
    for epoch in range(epochs):
        order = np.stack([rng.permutation(n_train) for rng in rngs])
        epoch_loss = np.zeros(n_seeds)
        for start in starts:
            idx = order[:, start : start + batch_size]
            # the last step's graph lives until this step's loss is built.
            # Freed at the end of its own step, it left a free top of the heap
            # that glibc trimmed and faulted back in at every step: 236k
            # minor faults in a fresh process's 3-seed severe pretrain, not 15k
            with gc.tracking(opt.params):
                logits = stacked.head(stacked.encoder.forward(
                    Tensor(x_rows.take(x_start + idx[:, None, :], axis=0))))
                loss = gc.cross_entropy(logits, y_rows.take(y_start + idx), means=step_loss)
                if not np.isfinite(loss.data):
                    raise DivergenceError(f"non-finite pretraining loss at epoch {epoch}")
                gc.backward(loss)
                opt.step()
            epoch_loss += step_loss
        for result, mean_loss in zip(results, epoch_loss / max(len(starts), 1)):
            result.losses.append(float(mean_loss))

    stacked_params = stacked.named_parameters()
    for i, (model, result) in enumerate(zip(models, results)):
        for name, p in model.named_parameters().items():
            p.data = stacked_params[name].data[i]
        if len(hold_ys[i]):
            preds = predict(model, holds[i])
            result.holdout_accuracy = float(np.mean(preds == hold_ys[i]))
    return results


def predict(model: SourceModel, features) -> np.ndarray:
    return model.head(model.embed(features)).data.argmax(axis=1)
