"""Dataclass configs with JSON round-trip."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError
from .objectives import BANK_VARIANTS, MethodVariant

PRESETS = ("mild", "severe", "collapse")


@dataclass
class AdaptConfig:
    """All adaptation hyperparameters. ``batch_size`` is pretraining's batch
    size too, on purpose: it is the one batch size of both phases. No other
    field reaches pretraining, whose optimizer settings are fixed in
    ``model``."""

    k: int = 5                 # clusters per modality
    gamma: float = 0.9         # centroid momentum
    beta: float = 10.0         # adaptive-weight temperature
    eps_w: float = 0.1         # entropy-minimization weight
    lam: float = 5.0           # alignment-loss weight
    alpha: float = 0.3         # diversity-loss weight
    lr: float = 1e-3
    weight_decay: float = 5e-4
    batch_size: int = 128
    st_confidence: float = 0.9     # pseudo-label threshold for the ST baseline
    norm_momentum: float = 0.1     # EMA momentum for the Norm baseline

    def validate(self):
        _check_numbers(self, minimum={"k": 1, "batch_size": 1})
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must lie in [0, 1)")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if not (0.5 < self.st_confidence <= 1.0):
            raise ConfigError("st_confidence must lie in (0.5, 1]")
        for name in ("eps_w", "lam", "alpha", "lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 <= self.norm_momentum <= 1.0):
            raise ConfigError("norm_momentum must lie in [0, 1]")


@dataclass
class BenchmarkConfig:
    """Synthetic drift benchmark parameters."""

    preset: str = "mild"
    n_cores: int = 4
    d_z: int = 8
    d_in: int = 16
    severity: float = 0.3
    outlier_frac: float = 0.0
    outlier_mode: str = "scatter"   # "scatter" or "clump"
    outlier_spread: float = 0.6
    label_noise: float = 0.02
    style_noise: float = 0.15
    # target style multiplier; None derives it from severity as 1 + severity
    style_drift: object = None
    # scalar, or one spread per core (tight cores act as stable anchors)
    core_jitter: object = 0.35
    p_hate: list = field(default_factory=lambda: [1.0, 1.0, 0.0, 0.0])
    n_source: int = 2048
    n_target: int = 2048

    def validate(self):
        _check_numbers(self, minimum={"n_cores": 1, "d_z": 1, "d_in": 1,
                                      "n_source": 1, "n_target": 1})
        if self.preset not in PRESETS + ("custom",):
            raise ConfigError(f"unknown preset {self.preset!r}")
        if not isinstance(self.p_hate, list) or len(self.p_hate) != self.n_cores:
            raise ConfigError("p_hate must list one probability per core")
        if any(not (0.0 <= _finite("p_hate", p) <= 1.0) for p in self.p_hate):
            raise ConfigError("p_hate entries must lie in [0, 1]")
        jitter = self.core_jitter if isinstance(self.core_jitter, list) else [self.core_jitter]
        if len(jitter) not in (1, self.n_cores):
            raise ConfigError("core_jitter must be one spread or one per core")
        if any(_finite("core_jitter", j) < 0 for j in jitter):
            raise ConfigError("core_jitter must be >= 0")
        if self.style_drift is not None and _finite("style_drift", self.style_drift) < 0:
            raise ConfigError("style_drift must be >= 0")
        for name in ("severity", "outlier_spread", "style_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 <= self.label_noise <= 1.0):
            raise ConfigError("label_noise must lie in [0, 1]")
        if not (0.0 <= self.outlier_frac < 1.0):
            raise ConfigError("outlier_frac must lie in [0, 1)")
        if self.outlier_mode not in ("scatter", "clump"):
            raise ConfigError(f"unknown outlier_mode {self.outlier_mode!r}")


def preset_benchmark(name: str) -> BenchmarkConfig:
    """The named preset's benchmark block; ``"custom"`` is the defaults."""
    if name in ("mild", "custom"):
        return BenchmarkConfig(preset=name)
    if name == "severe":
        # heavy rendering drift with near-duplicate junk outliers; two tight
        # "anchor" cores (one per class) next to two diffuse negative cores
        return BenchmarkConfig(
            preset="severe", severity=1.2,
            style_noise=0.10, style_drift=0.6,
            core_jitter=[0.05, 0.05, 0.5, 0.5],
            p_hate=[1.0, 0.0, 0.0, 0.0],
            outlier_frac=0.2, outlier_mode="clump", outlier_spread=0.6,
            n_target=4096,
        )
    if name == "collapse":
        # tight, well-separated cores whose labels are genuinely mixed:
        # entropy minimization homogenizes each cluster's predictions
        return BenchmarkConfig(
            preset="collapse", severity=0.8,
            p_hate=[0.3, 0.7, 0.35, 0.65], style_noise=0.1,
            core_jitter=0.1, n_target=4096,
        )
    raise ConfigError(f"unknown preset {name!r}")


@dataclass
class ExperimentConfig:
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    variants: list = field(default_factory=lambda: ["source", "scanner"])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    d_h: int = 32
    pretrain_epochs: int = 50
    workers: int = 1
    # the benchmark's labels are binary (hateful or not); a class constant,
    # not a field, so no config can average an F1 over a class without labels
    n_classes = 2

    def validate(self):
        self.benchmark.validate()
        self.adapt.validate()
        _check_numbers(self, minimum={"d_h": 1, "pretrain_epochs": 1, "workers": 1})
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        for seed in self.seeds:
            _integer("seeds", seed, 0)
        if not isinstance(self.variants, list) or not self.variants:
            raise ConfigError("variants must be a non-empty list")
        for v in self.variants:
            if v not in [m.value for m in MethodVariant]:
                raise ConfigError(f"unknown variant {v!r}")
        for name in ("seeds", "variants"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ConfigError(f"{name} must not repeat an entry")
        first = min(self.adapt.batch_size, self.benchmark.n_target)
        if self.adapt.k > first and any(v in BANK_VARIANTS for v in self.variants):
            raise ConfigError(f"k={self.adapt.k} exceeds the {first} rows of the first "
                              "target batch, which seeds the centroid banks")

    def recorded(self) -> dict:
        """The config as output files record it: without ``workers``, an
        execution setting that changes no output, and without the benchmark's
        ``preset``, a label that the explicit numbers next to it may
        contradict."""
        doc = asdict(self)
        del doc["workers"]
        del doc["benchmark"]["preset"]
        return doc

    @staticmethod
    def parse_json(text: str):
        """The JSON value of a config document; malformed JSON is a ConfigError."""
        try:
            return json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kwargs = dict(_fields_of(cls, raw))
        if "benchmark" in kwargs:
            # the named preset is the base; the block's explicit fields override it
            block = _fields_of(BenchmarkConfig, kwargs["benchmark"])
            base = preset_benchmark(block.get("preset", BenchmarkConfig.preset))
            kwargs["benchmark"] = replace(base, **block)
        if "adapt" in kwargs:
            kwargs["adapt"] = AdaptConfig(**_fields_of(AdaptConfig, kwargs["adapt"]))
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _fields_of(klass, raw) -> dict:
    """``raw``, a JSON object that names only fields of ``klass``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{klass.__name__} must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(klass)}
    if unknown:
        raise ConfigError(f"unknown {klass.__name__} fields: {sorted(unknown)}")
    return raw


def _integer(name: str, value, minimum: int):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def _finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_numbers(config, minimum: dict):
    """Type-checks the ``int`` and ``float`` fields of a config dataclass;
    ``minimum`` gives the lower bound of every ``int`` field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            _integer(f.name, value, minimum[f.name])
        elif f.type == "float":
            _finite(f.name, value)
