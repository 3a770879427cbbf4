"""Span recording for the traced run, and the patching it relies on.

The recorder wraps the public functions of each driftadapt module from the
outside: one span per call, with name, start, end, parent span and run id,
kept in memory and written out when the benchmark ends. Only calls made in
this process are seen; spans inside worker processes are not recorded.
"""

from __future__ import annotations

import csv
import importlib
import os
import sys
import time
import types
from contextlib import contextmanager

# Traced functions per layer (module under src/driftadapt/). Each is reported
# as "<layer>.<name>.calls" and "<layer>.<name>.self_s".
TRACED = {
    "gradcore": (
        "matmul", "add", "mul", "gelu", "layernorm_affine", "softmax",
        "rowdot", "rowscale", "stack_cols", "col", "cosine_matrix",
        "max_axis1", "take_rows", "tsum", "tmean", "log_clamped",
        "cross_entropy", "backward",
    ),
    "model": (
        "SourceModel.forward_full", "ModalityEncoder.forward",
        "FusionBlock.forward", "Classifier.forward", "pretrain_source",
        "predict",
    ),
    "centroids": (
        "init_kmeanspp", "lloyd_iterate", "max_similarity", "batch_means",
        "momentum_update", "assign",
    ),
    "objectives": (
        "total_loss", "em_loss", "can_loss", "scan_loss", "div_loss",
        "cluster_avg_probs",
    ),
    "optim": ("AdamW.step",),
    "harness": (
        "cmd_pretrain", "cmd_adapt", "build_domains", "write_metrics_csv",
        "write_diagnostics_csv",
    ),
    "driftgen": (
        "generate_domain", "make_core_spec", "make_domain_pair", "accuracy",
        "macro_f1", "cluster_ratio_diag", "entropy_diag",
    ),
    "ttaloop": ("adapt_batch", "run_stream"),
    "checkpoint": ("save", "load"),
}


def traced_names():
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


def _resolve(layer: str, name: str):
    """(owner, attribute) of a traced function: its module or its class."""
    owner = importlib.import_module(f"driftadapt.{layer}")
    *classes, attr = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


@contextmanager
def patched(replacements):
    """Replace functions for the duration of the block.

    ``replacements`` maps (owner, attribute) to a factory that takes the
    original function and returns its replacement. A module-level function
    is also replaced wherever another driftadapt module imported it by name,
    so ``from .ttaloop import run_stream`` in harness sees the replacement.
    """
    undo = []
    try:
        for (owner, attr), factory in replacements.items():
            original = getattr(owner, attr)
            new = factory(original)
            sites = [(owner, attr)]
            if isinstance(owner, types.ModuleType):
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("driftadapt.") or mod is owner:
                        continue
                    sites += [(mod, a) for a, v in vars(mod).items() if v is original]
            for site_owner, site_attr in sites:
                undo.append((site_owner, site_attr, getattr(site_owner, site_attr)))
                setattr(site_owner, site_attr, new)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class SpanRecorder:
    """In-memory spans plus per-function calls, self time and graph nodes.

    Self time is a span's duration minus the time its child spans cover.
    ``nodes`` counts graph nodes built (calls of ``gradcore._make``), and each
    function's node count includes the nodes built inside its children.
    """

    def __init__(self, run_id: str):
        self.spans = []          # (name, start, end, parent index, run id)
        self.stats = {}          # name -> [calls, self seconds, nodes]
        self.nodes = 0
        self.run_id = run_id
        self.domain_seeds = []   # seed argument of every build_domains call
        self.bytes = {"checkpoint.save": 0, "checkpoint.load": 0}
        self._open = []          # [span index, child seconds, nodes at entry]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, self.nodes]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += self.nodes - frame[2]
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans[index] = (name, start, end, parent, self.run_id)
            self._after_call(name, args, kwargs)
            return result

        return traced

    def _after_call(self, name, args, kwargs):
        if name == "harness.build_domains":
            self.domain_seeds.append(kwargs.get("seed", args[1] if len(args) > 1 else None))
        elif name in self.bytes:
            self.bytes[name] += os.path.getsize(kwargs.get("path", args[0]))

    def _count_node(self, make):
        def counted(*args):
            self.nodes += 1
            return make(*args)

        return counted

    @contextmanager
    def instrument(self):
        """Trace every function in TRACED and count graph nodes."""
        gradcore = importlib.import_module("driftadapt.gradcore")
        replacements = {(gradcore, "_make"): self._count_node}
        for name in traced_names():
            layer, rest = name.split(".", 1)
            replacements[_resolve(layer, rest)] = (
                lambda fn, name=name: self.wrap(name, fn)
            )
        with patched(replacements):
            yield self

    def write(self, path):
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "run_id"])
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                w.writerow([i, name, repr(start - t0), repr(end - t0), parent, run_id])
