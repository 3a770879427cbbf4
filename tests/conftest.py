from dataclasses import replace

import numpy as np
import pytest

from driftadapt import gradcore as gc
from driftadapt.config import AdaptConfig, BenchmarkConfig, ExperimentConfig
from driftadapt.model import MODALITIES, ModelDims, SourceModel


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def made(monkeypatch):
    """Every graph node that gradcore makes while the test runs, in order."""
    nodes, make = [], gc._make
    monkeypatch.setattr(gc, "_make", lambda *args: nodes.append(make(*args)) or nodes[-1])
    return nodes


TINY_DIMS = ModelDims(d_in=4, d_h=6, n_classes=2)


def tiny_model(seed: int = 0) -> SourceModel:
    return SourceModel(TINY_DIMS, seed=seed)


def tiny_batch(rng, n: int = 3, d_in: int = 4) -> dict:
    return {m: rng.normal(0.0, 1.0, (n, d_in)) for m in MODALITIES}


def tiny_experiment(tmp_path=None, **changes) -> ExperimentConfig:
    """A benchmark small enough for sub-second pretrain + adapt runs, with
    ``changes`` to its top-level fields (seeds, variants, workers, ...).

    ``tmp_path`` is ignored (output locations are arguments of the
    commands); callers in the acceptance gate still pass it.
    """
    return replace(ExperimentConfig(
        benchmark=BenchmarkConfig(
            preset="custom", n_cores=2, d_z=4, d_in=4, severity=0.5,
            p_hate=[1.0, 0.0], n_source=96, n_target=96, core_jitter=0.2,
        ),
        adapt=AdaptConfig(k=2, batch_size=32),
        variants=["source", "scanner"],
        seeds=[0],
        d_h=6,
        pretrain_epochs=3,
    ), **changes)
