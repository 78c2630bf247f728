"""Per-layer spans for the traced benchmark run.

The tracer wraps the public function of each letcc layer at every place a
caller looks the name up (a module attribute, or a class attribute for
methods), records one span per call, and restores the originals when it is
uninstalled.  Nothing under ``src/`` is changed.

A span is ``[name, start, end, parent, trial]``: ``parent`` is the index of
the enclosing span (-1 for the benchmark's own root span) and ``trial`` is
the seed of the enclosing ``sim.run_trial`` call, or the benchmark's
operation index outside a trial.  Spans stay in memory until the run ends.
A layer's self time is its span durations minus the time covered by its
child spans; the root span's self time is the unattributed remainder.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "bench.op"

# (layer, targets): every (module, attribute path) where a caller looks the
# layer's entry point up.  ``baselines`` and ``cli`` import several names
# by value, so those bindings are wrapped as well as the defining ones.
LAYERS = (
    ("cli.main", [("letcc.cli", "main")]),
    ("experiments.sweep_n", [("letcc.experiments", "sweep_n"),
                             ("letcc.cli", "sweep_n")]),
    ("experiments.crossval_lambda", [("letcc.experiments", "crossval_lambda"),
                                     ("letcc.cli", "crossval_lambda")]),
    ("experiments.write_reports", [("letcc.cli", "write_csv"),
                                   ("letcc.cli", "write_json"),
                                   ("letcc.cli", "write_svg"),
                                   ("letcc.cli", "report_to_dict")]),
    ("sim.monte_carlo", [("letcc.sim", "monte_carlo"),
                         ("letcc.experiments", "monte_carlo")]),
    ("sim.run_trial", [("letcc.sim", "run_trial"),
                       ("letcc.experiments", "run_trial"),
                       ("letcc.cli", "run_trial")]),
    ("sim.apply_workers", [("letcc.sim", "apply_workers")]),
    ("coding.encode", [("letcc.coding", "encode")]),
    ("coding.decode", [("letcc.coding", "decode")]),
    ("coding.normalize_survivors", [("letcc.coding", "normalize_survivors"),
                                    ("letcc.baselines", "normalize_survivors")]),
    ("baselines.bacc_encode", [("letcc.baselines", "bacc_encode")]),
    ("baselines.bacc_decode", [("letcc.baselines", "bacc_decode")]),
    ("baselines.lcc_encode", [("letcc.baselines", "lcc_encode")]),
    ("baselines.lcc_decode", [("letcc.baselines", "lcc_decode")]),
    ("spline.fit", [("letcc.spline", "fit")]),
    ("spline.evaluate", [("letcc.spline", "SplineFit.evaluate")]),
)


def _encode_inputs(data, grid, lambda_e):
    return data.inputs, grid.alphas, grid.betas, float(lambda_e)


def _worker_inputs(func, batch, noise, survivors, rng):
    return (func.name, batch.coded, float(noise.sigma0), np.asarray(survivors),
            repr(rng.bit_generator.state))


# Layers whose distinct inputs are counted in the profiled operation.
INPUT_DIGESTS = {
    "coding.encode": _encode_inputs,
    "sim.apply_workers": _worker_inputs,
}


def _digest(values) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for v in values:
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
        h.update(b"|")
    return h.digest()


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module`` + dotted ``path``, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans of every wrapped layer while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.knots = 0
        self.rows = 0
        self.profiling = False
        self.digests: dict[str, set] = defaultdict(set)
        self.digest_calls: dict[str, int] = defaultdict(int)
        self.fit_peak_bytes = 0
        self.present = {layer for layer, targets in LAYERS
                        if any(_resolve(m, p) for m, p in targets)}

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        digest_args = INPUT_DIGESTS.get(layer)
        signature = inspect.signature(fn) if digest_args else None

        def wrapper(*args, **kwargs):
            if layer == "spline.fit":
                self.knots += len(args[0] if args else kwargs["t"])
            elif layer == "sim.apply_workers":
                self.rows += len(args[3] if len(args) > 3 else kwargs["survivors"])
            if self.profiling and digest_args is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.digests[layer].add(_digest(digest_args(**bound)))
                self.digest_calls[layer] += 1
            parent = stack[-1] if stack else -1
            trial = spans[parent][4] if stack else None
            if layer == "sim.run_trial":
                seed = args[1] if len(args) > 1 else kwargs["seed"]
                trial = tuple(int(s) for s in np.atleast_1d(seed))
            span = [layer, 0.0, 0.0, parent, trial]
            stack.append(len(spans))
            spans.append(span)
            memory = self.profiling and layer == "spline.fit"
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.fit_peak_bytes = max(self.fit_peak_bytes, peak)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every present layer for the duration of the block."""
        saved = []
        try:
            for layer, targets in LAYERS:
                for module, path in targets:
                    found = _resolve(module, path)
                    if found is None:
                        continue
                    owner, attr = found
                    original = owner.__dict__.get(attr, getattr(owner, attr))
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op(self, index: int, fn):
        """Run ``fn()`` under a root span for benchmark operation ``index``."""
        span = [ROOT, 0.0, 0.0, -1, index]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def profiled(self):
        """Count distinct inputs and trace allocations inside the block."""
        tracemalloc.start()
        self.profiling = True
        try:
            yield self
        finally:
            self.profiling = False
            tracemalloc.stop()

    def self_times(self):
        """Per-span self time and the largest violation of span nesting."""
        self_s = [s[2] - s[1] for s in self.spans]
        worst = 0.0
        for s in self.spans:
            if s[3] >= 0:
                parent = self.spans[s[3]]
                self_s[s[3]] -= s[2] - s[1]
                worst = max(worst, parent[1] - s[1], s[2] - parent[2])
        return self_s, worst

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(traced: Tracer, profile: Tracer) -> dict:
    """Per-layer metrics from the timed traced operations.

    ``traced`` holds the spans of the timed traced operations; ``profile``
    the one operation run with input hashing and allocation tracing, which
    supplies ``useful_frac`` and ``spline.fit.peak_mb``.  A layer whose
    entry points no longer exist reads ``"absent"``.
    """
    self_s, _ = traced.self_times()
    totals = defaultdict(float)
    calls = defaultdict(int)
    fit_by_parent = defaultdict(float)
    for span, own in zip(traced.spans, self_s):
        totals[span[0]] += own
        calls[span[0]] += 1
        if span[0] == "spline.fit" and span[3] >= 0:
            fit_by_parent[traced.spans[span[3]][0]] += span[2] - span[1]

    out = {}

    def put(name, layer, value, unit):
        out[name] = {"value": value if layer in traced.present else "absent",
                     "unit": unit}

    for layer, _ in LAYERS:
        put(f"{layer}.self_s", layer, totals[layer], "s")
        put(f"{layer}.calls", layer, calls[layer], "count")
    put("spline.fit.encode_s", "spline.fit", fit_by_parent["coding.encode"], "s")
    put("spline.fit.decode_s", "spline.fit", fit_by_parent["coding.decode"], "s")
    put("spline.fit.knots", "spline.fit", traced.knots, "count")
    put("spline.fit.peak_mb", "spline.fit", profile.fit_peak_bytes / 2**20, "MB")
    put("sim.apply_workers.rows", "sim.apply_workers", traced.rows, "count")
    for layer in INPUT_DIGESTS:
        n = profile.digest_calls[layer]
        put(f"{layer}.useful_frac", layer,
            len(profile.digests[layer]) / n if n else 0.0, "ratio")
    out["bench.unattributed_s"] = {"value": totals[ROOT], "unit": "s"}
    out["bench.traced_wall_s"] = {
        "value": sum(s[2] - s[1] for s in traced.spans if s[3] < 0), "unit": "s"}
    return out
