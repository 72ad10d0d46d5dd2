"""Outside-in layer tracing: spans recorded around the package's public functions.

The package is never edited. Each traced function is replaced, for the
duration of one traced operation, by a wrapper installed on its defining
module. Internal calls reach those functions through module attributes
(``sampler.inverse_warp``, ``geometry.*``, ``losses.total_loss``) or module
globals (``bilinear_sample``, ``build_pyramid``, ``adam_step``), so a replaced
attribute also catches calls made inside the package.

Spans are kept in memory as ``[name, start, end, parent]`` and written once,
when the run ends.
"""

from __future__ import annotations

import collections
import functools
import json
import time

import numpy as np

# (module, function) pairs whose calls become spans. Their metric names are
# "<module>.<function>.{calls,self_ms,incl_ms}".
LAYER_FUNCTIONS = (
    ("geometry", ("pose_to_transform", "rotation_jacobians", "scale_intrinsics",
                  "backproject", "transform_points", "project_points")),
    ("sampler", ("inverse_warp", "bilinear_sample")),
    ("losses", ("total_loss", "build_pyramid", "view_synthesis_loss",
                "smoothness_loss", "explainability_regularizer", "mask_probability")),
    ("model", ("fit_snippet", "adam_step", "activate_depth", "activate_depth_grad",
               "save_checkpoint")),
    ("gradcheck", ("check_instance",)),
    ("synth", ("render_scene", "save_sequence", "load_sequence")),
    ("fileio", ("save_wf01", "load_wf01")),
    ("evaluation", ("depth_metrics", "snippet_ate")),
)

# cli.main is one span per subcommand, named after its first argument.
CLI_SUBCOMMANDS = ("synth", "fit", "eval-depth", "eval-odom")

# Functions called once or more per objective evaluation; they also get a
# "calls_per_iter" metric (calls per total_loss call, i.e. per fit iteration).
PER_ITER_FUNCTIONS = (
    "geometry.pose_to_transform", "geometry.rotation_jacobians",
    "geometry.scale_intrinsics", "geometry.backproject",
    "geometry.transform_points", "geometry.project_points",
    "sampler.inverse_warp", "sampler.bilinear_sample",
    "losses.build_pyramid", "losses.view_synthesis_loss", "losses.smoothness_loss",
    "losses.explainability_regularizer", "losses.mask_probability",
    "model.adam_step", "model.activate_depth", "model.activate_depth_grad",
)

OP_SPAN = "bench.op"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS for fn in fns]
    return names + [f"cli.{c}" for c in CLI_SUBCOMMANDS]


def _want_grads(args, kwargs) -> bool:
    if "want_grads" in kwargs:
        return bool(kwargs["want_grads"])
    return bool(args[2]) if len(args) > 2 else True


def _count_total_loss(counts, args, kwargs, out):
    if not _want_grads(args, kwargs):
        counts["losses.total_loss.fwd_only_calls"] += 1


def _count_bilinear(counts, args, kwargs, out):
    counts["sampler.bilinear_sample.px"] += int(np.size(args[1]))


def _count_warp(counts, args, kwargs, out):
    counts["sampler.valid_px"] += int(out.valid.sum())
    counts["sampler.warp_px"] += int(out.valid.size)


def _count_save_wf01(counts, args, kwargs, out):
    # Payload bytes computed from the array size (float32), header excluded.
    counts["fileio.bytes_written"] += 4 * int(np.size(args[1]))


def _count_load_wf01(counts, args, kwargs, out):
    counts["fileio.bytes_read"] += 4 * int(out.size)


_COUNTERS = {
    "losses.total_loss": _count_total_loss,
    "sampler.bilinear_sample": _count_bilinear,
    "sampler.inverse_warp": _count_warp,
    "fileio.save_wf01": _count_save_wf01,
    "fileio.load_wf01": _count_load_wf01,
}


class Tracer:
    """Records spans and counts for the operations passed to ``run()``."""

    def __init__(self, package, run_id: str):
        self.package = package          # the imported viewsynth package
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: collections.Counter = collections.Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, owner, attr: str, name):
        orig = getattr(owner, attr)
        count = _COUNTERS.get(name) if isinstance(name, str) else None
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            label = name if isinstance(name, str) else name(args, kwargs)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid][1] = t0
                spans[sid][2] = t1
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def _install(self):
        for mod, fns in LAYER_FUNCTIONS:
            module = getattr(self.package, mod)
            for fn in fns:
                self._wrap(module, fn, f"{mod}.{fn}")
        self._wrap(self.package.cli, "main", lambda args, kwargs: f"cli.{args[0][0]}")

    def _uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def run(self, op):
        """Run ``op()`` once with every layer wrapped; returns its result."""
        self._install()
        sid = len(self.spans)
        self.spans.append([OP_SPAN, 0.0, 0.0, -1])
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return op()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid][1] = t0
            self.spans[sid][2] = t1
            self._uninstall()
            self.ops += 1

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed over ops.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - c
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                    "start": t0, "end": t1, "parent": parent}))
                f.write("\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-operation layer metrics from a tracer's spans and counts."""
    ops = max(tracer.ops, 1)
    times = tracer.layer_times()
    m: dict[str, float] = {}
    for name in span_names():
        calls, incl, self_s = times.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls / ops
        m[f"{name}.self_ms"] = 1e3 * self_s / ops
        m[f"{name}.incl_ms"] = 1e3 * incl / ops
    objective_evals = m["losses.total_loss.calls"]
    for name in PER_ITER_FUNCTIONS:
        m[f"{name}.calls_per_iter"] = (m[f"{name}.calls"] / objective_evals
                                       if objective_evals else 0.0)
    c = tracer.counts
    m["losses.total_loss.fwd_only_calls"] = c["losses.total_loss.fwd_only_calls"] / ops
    m["sampler.bilinear_sample.px"] = c["sampler.bilinear_sample.px"] / ops
    m["sampler.valid_frac"] = (c["sampler.valid_px"] / c["sampler.warp_px"]
                               if c["sampler.warp_px"] else 0.0)
    m["fileio.bytes_written"] = c["fileio.bytes_written"] / ops
    m["fileio.bytes_read"] = c["fileio.bytes_read"] / ops
    op_calls, op_incl, op_self = times.get(OP_SPAN, (0, 0.0, 0.0))
    # Share of the traced operations' wall time spent inside layer spans.
    m["trace.attributed_frac"] = 1.0 - op_self / op_incl if op_incl else 0.0
    return m
