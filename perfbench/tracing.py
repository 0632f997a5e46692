"""Spans recorded from outside the program, and the per-layer metrics they give.

``Instrumentation`` wraps the public calls of each hloblab module (and the
few private seams named in ``NOTES.md``) so that each call opens a span.
Spans live in memory as ``Span`` records (name, start, end, parent, run id)
and are written out only when the run ends. A span's self time is its
duration minus the time its child spans cover.

Engine ops are traced at the outermost op only: the nodes an op such as
``lstm`` or ``dense`` puts on the tape through nested primitives belong to
that op, and so do their backward closures.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    run_id: str


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def to_json(self) -> str:
        return json.dumps({
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
            "samples": dict(self.samples),
        })


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and total self time."""
    agg: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for s, own in zip(spans, self_times(spans)):
        a = agg[s.name]
        a["calls"] += 1
        a["total"] += s.end - s.start
        a["self"] += own
    return agg


def overlap(spans: list[Span], names: set[str],
            intervals: list[tuple[float, float]]) -> float:
    """Time that spans with one of ``names`` spend inside ``intervals``."""
    covered = 0.0
    for s in spans:
        if s.name in names:
            for lo, hi in intervals:
                covered += max(0.0, min(s.end, hi) - max(s.start, lo))
    return covered


# engine functions that are not tape ops
_ENGINE_SKIP = frozenset({"grad_check", "uniform_init", "softmax"})


class Instrumentation:
    """Installs span wrappers on the hloblab modules and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._engine_depth = 0
        self._created: list = []
        self._step_start = None
        self.step_intervals: list[tuple[float, float]] = []
        self.parsed_days: set[str] = set()

    # --- installation ---------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapper
        self._replace(owner, attr, make)

    def install(self) -> None:
        from hloblab import engine, infonet, lob, model, pipeline, preprocess
        from hloblab import train as train_mod
        count = self.tracer.counts

        for attr, name in [("run_ingest", "ingest"), ("run_mi", "mi"),
                           ("run_tmfg", "tmfg"), ("windows_for_day", "windows"),
                           ("run_train", "train"), ("run_eval", "eval")]:
            self._span(pipeline, attr, f"pipeline.{name}")

        def parsed(series, *args, day="", **kwargs):
            count["lob.rows_parsed"] += series.T
            self.parsed_days.add(series.day)

        def cleaned(series, raw, *args, **kwargs):
            count["lob.rows_in"] += raw.T
            count["lob.rows_kept"] += series.T

        self._span(lob, "parse_lobster_pair", "lob.parse", parsed)
        self._span(lob, "clean_session", "lob.clean", cleaned)
        self._span(lob, "serialize_lobster_pair", "lob.serialize")
        self._span(lob.LobSeries, "validate", "lob.validate")

        def built(windows, *args, **kwargs):
            count["preprocess.windows_built"] += len(windows)

        self._span(preprocess, "compute_norm_stats", "preprocess.norm_stats")
        self._span(preprocess, "normalize_day", "preprocess.normalize")
        self._span(preprocess, "label_series", "preprocess.label")
        self._span(preprocess, "build_windows", "preprocess.build_windows", built)
        for owner in (preprocess, train_mod):
            self._span(owner, "balanced_sample", "preprocess.balanced_sample")

        def replicates(result, binned, n_bootstrap=10, *args, **kwargs):
            count["infonet.mi_replicates"] += n_bootstrap

        self._span(infonet, "bin_volumes", "infonet.bin")
        self._span(infonet, "daily_mi_matrix", "infonet.mi", replicates)
        self._span(infonet, "build_tmfg", "infonet.tmfg")
        self._span(infonet, "extract_simplices", "infonet.simplices")
        # the batch gather: train's private helper today, the public
        # infonet function once the two gather paths are folded together
        self._span(train_mod, "_batch_inputs", "infonet.gather")
        self._span(infonet, "assemble_head_inputs", "infonet.gather")

        self._span(train_mod, "train", "train.train")
        self._span(train_mod, "validation_loss", "train.validation")
        self._span(train_mod, "evaluate", "train.evaluate")
        for owner in (pipeline, model):
            self._span(owner, "save_checkpoint", "model.ckpt_save")
            self._span(owner, "load_checkpoint", "model.ckpt_load")

        self._install_model(model)
        self._install_engine(engine)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _install_model(self, model) -> None:
        tracer = self.tracer

        def make(fn):
            def forward(mdl, inputs, train=False, rng=None):
                if train:
                    self._step_start = time.perf_counter()
                    self.tracer.counts["train.windows"] += len(inputs[0])
                    tracemalloc.start()
                index = tracer.open("model.forward")
                try:
                    return fn(mdl, inputs, train=train, rng=rng)
                finally:
                    tracer.close(index)
            return forward
        self._replace(model.HlobModel, "forward", make)

    def _install_engine(self, engine) -> None:
        tracer = self.tracer
        count = tracer.counts

        def make_init(fn):
            def init(tensor, *args, **kwargs):
                fn(tensor, *args, **kwargs)
                if self._engine_depth:
                    self._created.append(tensor)
            return init
        self._replace(engine.Tensor, "__init__", make_init)

        def make_backward_closure(fn, name):
            def closure(g):
                index = tracer.open(name)
                try:
                    fn(g)
                finally:
                    tracer.close(index)
            return closure

        def make_op(fn, op):
            def op_wrapper(*args, **kwargs):
                if self._engine_depth:
                    return fn(*args, **kwargs)
                self._engine_depth += 1
                mark = len(self._created)
                index = tracer.open(f"engine.{op}.fwd")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                    self._engine_depth -= 1
                created = self._created[mark:]
                del self._created[mark:]
                for node in created:
                    closure = getattr(node, "_backward", None)
                    if closure is not None:
                        node._backward = make_backward_closure(
                            closure, f"engine.{op}.bwd")
                if op == "conv2d":
                    count["engine.conv2d.gflop"] += conv2d_gflop(args[1].shape,
                                                                 out.shape)
                return out
            return op_wrapper

        for attr in sorted(vars(engine)):
            fn = getattr(engine, attr)
            if (attr.startswith("_") or attr in _ENGINE_SKIP
                    or not callable(fn) or isinstance(fn, type)
                    or getattr(fn, "__module__", "") != engine.__name__):
                continue
            self._replace(engine, attr, lambda f, op=attr: make_op(f, op))

        def make_tensor_backward(fn):
            def backward(tensor):
                tracer.samples["engine.tape_nodes"].append(tape_size(tensor))
                index = tracer.open("engine.backward")
                try:
                    fn(tensor)
                finally:
                    tracer.close(index)
            return backward
        self._replace(engine.Tensor, "backward", make_tensor_backward)

        def make_step(fn):
            def step(optimizer):
                index = tracer.open("engine.adamw")
                try:
                    fn(optimizer)
                finally:
                    tracer.close(index)
                if self._step_start is not None:
                    end = time.perf_counter()
                    self.step_intervals.append((self._step_start, end))
                    tracer.samples["train.step_ms"].append(
                        1e3 * (end - self._step_start))
                    if tracemalloc.is_tracing():
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        tracer.samples["train.step_peak_mb"].append(peak / 2**20)
                    self._step_start = None
            return step
        self._replace(engine.AdamW, "step", make_step)


def conv2d_gflop(weight_shape, out_shape) -> float:
    """Forward multiply-add work of one convolution, from its shapes."""
    o, c, kh, kw = weight_shape
    n, _, ho, wo = out_shape
    return 2.0 * n * o * ho * wo * c * kh * kw / 1e9


def tape_size(root) -> int:
    """Number of tape nodes reachable from ``root``."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in getattr(todo.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


# --- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer, instr: Instrumentation,
                  n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, as name -> (value, unit)."""
    agg = totals(tracer.spans)
    c = tracer.counts
    per = 1.0 / n_passes

    def tot(name):
        return agg[name]["total"] * per if name in agg else 0.0

    def own(*names):
        return sum(agg[n]["self"] for n in names if n in agg) * per

    def calls(name):
        return agg[name]["calls"] * per if name in agg else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def median(key):
        vals = tracer.samples.get(key)
        return float(statistics.median(vals)) if vals else 0.0

    named_ops = ("conv2d", "leaky_relu", "lstm", "softmax_cross_entropy")
    other_fwd = sum(v["total"] for k, v in agg.items()
                    if k.startswith("engine.") and k.endswith(".fwd")
                    and k.split(".")[1] not in named_ops) * per
    other_bwd = sum(v["total"] for k, v in agg.items()
                    if k.startswith("engine.") and k.endswith(".bwd")
                    and k.split(".")[1] not in named_ops) * per
    step_total = sum(hi - lo for lo, hi in instr.step_intervals)
    conv_in_steps = overlap(tracer.spans, {"engine.conv2d.fwd", "engine.conv2d.bwd"},
                            instr.step_intervals)
    pipeline_spans = [k for k in agg if k.startswith("pipeline.")]

    m = {
        "lob.parse_s": (tot("lob.parse"), "s"),
        "lob.parse_calls": (calls("lob.parse"), "count"),
        "lob.rows_parsed": (c["lob.rows_parsed"] * per, "count"),
        "lob.validate_s": (tot("lob.validate"), "s"),
        "lob.clean_s": (tot("lob.clean"), "s"),
        "lob.serialize_s": (tot("lob.serialize"), "s"),
        "lob.keep_ratio": (ratio(c["lob.rows_kept"], c["lob.rows_in"]), "ratio"),
        "preprocess.norm_stats_s": (tot("preprocess.norm_stats"), "s"),
        "preprocess.normalize_s": (tot("preprocess.normalize"), "s"),
        "preprocess.label_s": (tot("preprocess.label"), "s"),
        "preprocess.build_windows_s": (tot("preprocess.build_windows"), "s"),
        "preprocess.windows_built": (c["preprocess.windows_built"] * per, "count"),
        "preprocess.balanced_sample_s": (tot("preprocess.balanced_sample"), "s"),
        "preprocess.window_use_ratio": (
            ratio(c["train.windows"], c["preprocess.windows_built"]), "ratio"),
        "infonet.bin_s": (tot("infonet.bin"), "s"),
        "infonet.mi_s": (tot("infonet.mi"), "s"),
        "infonet.mi_replicates": (c["infonet.mi_replicates"] * per, "count"),
        "infonet.tmfg_s": (tot("infonet.tmfg"), "s"),
        "infonet.simplices_s": (tot("infonet.simplices"), "s"),
        "infonet.gather_s": (tot("infonet.gather"), "s"),
        "engine.conv2d.fwd_s": (tot("engine.conv2d.fwd"), "s"),
        "engine.conv2d.bwd_s": (tot("engine.conv2d.bwd"), "s"),
        "engine.conv2d.calls": (calls("engine.conv2d.fwd"), "count"),
        "engine.conv2d.gflop": (c["engine.conv2d.gflop"] * per, "GFLOP"),
        "engine.conv2d.step_share": (ratio(conv_in_steps, step_total), "ratio"),
        "engine.leaky_relu.fwd_s": (tot("engine.leaky_relu.fwd"), "s"),
        "engine.leaky_relu.bwd_s": (tot("engine.leaky_relu.bwd"), "s"),
        "engine.lstm.fwd_s": (tot("engine.lstm.fwd"), "s"),
        "engine.lstm.bwd_s": (tot("engine.lstm.bwd"), "s"),
        "engine.softmax_ce_s": (tot("engine.softmax_cross_entropy.fwd")
                                + tot("engine.softmax_cross_entropy.bwd"), "s"),
        "engine.other.fwd_s": (other_fwd, "s"),
        "engine.other.bwd_s": (other_bwd, "s"),
        "engine.backward.self_s": (own("engine.backward"), "s"),
        "engine.adamw_s": (tot("engine.adamw"), "s"),
        "engine.tape_nodes": (median("engine.tape_nodes"), "count"),
        "model.forward_s": (tot("model.forward"), "s"),
        "model.forward.self_s": (own("model.forward"), "s"),
        "model.ckpt_save_s": (tot("model.ckpt_save"), "s"),
        "model.ckpt_load_s": (tot("model.ckpt_load"), "s"),
        "train.step_ms": (median("train.step_ms"), "ms"),
        "train.steps": (len(instr.step_intervals) * per, "count"),
        "train.windows": (c["train.windows"] * per, "count"),
        "train.data_wait_s": (own("train.train"), "s"),
        "train.validation_s": (tot("train.validation"), "s"),
        "train.evaluate.self_s": (own("train.evaluate"), "s"),
        "train.step_peak_mb": (float(np.max(tracer.samples["train.step_peak_mb"]))
                               if tracer.samples.get("train.step_peak_mb") else 0.0,
                               "MB"),
        "pipeline.ingest_s": (tot("pipeline.ingest"), "s"),
        "pipeline.mi_s": (tot("pipeline.mi"), "s"),
        "pipeline.tmfg_s": (tot("pipeline.tmfg"), "s"),
        "pipeline.windows_s": (tot("pipeline.windows"), "s"),
        "pipeline.train_s": (tot("pipeline.train"), "s"),
        "pipeline.eval_s": (tot("pipeline.eval"), "s"),
        "pipeline.self_s": (own(*pipeline_spans), "s"),
        "pipeline.parses_per_day": (
            ratio(calls("lob.parse"), len(instr.parsed_days)), "count"),
        "trace.spans": (len(tracer.spans) * per, "count"),
    }
    return m
