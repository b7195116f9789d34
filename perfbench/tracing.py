"""Outside-in tracing of mialab's layers.

The tracer replaces the bindings that callers look up at call time (for
example ``mialab.training.param_gradient``, the name ``train_model`` calls)
with wrappers that record one span per call: name, start, end, parent span
and the id of the CLI command the call belongs to. Spans are kept in
memory in flat arrays and written out once the run ends; self time is
derived from them afterwards. Nothing under ``src/`` is changed, and the
wrappers are installed only around traced iterations, so untraced
iterations run the program as shipped.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute). Where one function serves two callers it
# is wrapped once per caller binding and named by caller; where one name
# appears twice, both bindings feed the same span name.
BINDINGS = (
    ("data.ingest", "mialab.config", "DatasetSpec.materialize"),
    ("data.fingerprint", "mialab.data", "fnv1a64"),
    ("farm.build_farm", "mialab.cli", "build_farm"),
    ("farm.save_farm", "mialab.cli", "save_farm"),
    ("farm.load_farm", "mialab.cli", "load_farm"),
    ("training.record_accuracy", "mialab.cli", "record_accuracy"),
    ("attacks.run_attack", "mialab.cli", "run_attack"),
    ("metrics.summarize", "mialab.cli", "summarize"),
    ("rng.substream", "mialab.cli", "substream"),
    ("training.make_even_splits", "mialab.farm", "make_even_splits"),
    ("training.train_model", "mialab.farm", "train_model"),
    ("farm.oracle_query", "mialab.farm", "TargetOracle.confidence"),
    ("nn.param_gradient", "mialab.training", "param_gradient"),
    ("nn.per_example_grad", "mialab.training", "per_example_grad_vectors"),
    ("training.dp_step", "mialab.training", "dp_step"),
    ("nn.adam_step.training", "mialab.training", "adam_step"),
    ("rng.substream", "mialab.training", "substream"),
    ("nn.params_repack", "mialab.nn", "Params.to_vector"),
    ("nn.params_repack", "mialab.nn", "Params.from_vector"),
    ("attacks.optimize_canary", "mialab.attacks", "optimize_canary"),
    ("attacks.project", "mialab.attacks", "_project"),
    ("nn.input_gradient", "mialab.attacks", "input_gradient"),
    ("nn.adam_step.canary", "mialab.attacks", "adam_step"),
    ("farm.model_confidence_batch", "mialab.attacks", "model_confidence_batch"),
    ("rng.substream", "mialab.attacks", "substream"),
)

# Spans whose first argument is a byte string; its length is summed so
# the fingerprint rate can be derived.
BYTE_COUNTED = {"data.fingerprint"}


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


class Tracer:
    """In-memory span recorder; one trace id per CLI command."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("q")
        self.end = array("q")
        self.commands: list[tuple[str, int]] = []  # trace id -> (label, targets scored)
        self.bytes: dict[str, int] = {}
        self.current_trace = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counted = name in BYTE_COUNTED
        stack, clock = self._stack, time.perf_counter_ns
        name_ids, parents, traces, starts, ends = (
            self.name_id, self.parent, self.trace, self.start, self.end
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            traces.append(tracer.current_trace)
            ends.append(0)
            stack.append(span)
            if counted:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + len(args[0])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding in BINDINGS for its traced wrapper, then restore."""
        for name, module, attr in BINDINGS:
            owner, leaf = _owner(module, attr)
            original = vars(owner)[leaf]
            if isinstance(original, staticmethod):
                replacement = staticmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, leaf, replacement)
            self._saved.append((owner, leaf, original))
        try:
            yield self
        finally:
            while self._saved:
                owner, leaf, original = self._saved.pop()
                setattr(owner, leaf, original)

    @contextmanager
    def command(self, label: str, subcommand: str, targets: int = 0):
        """Root span of one CLI command; everything inside shares its trace id."""
        self.current_trace = len(self.commands)
        self.commands.append((label, targets))
        span = len(self.start)
        self.name_id.append(self._id(f"cli.{subcommand}"))
        self.parent.append(-1)
        self.trace.append(self.current_trace)
        self.end.append(0)
        self._stack.append(span)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[span] = time.perf_counter_ns()
            self._stack.pop()
            self.current_trace = -1

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        trace = np.frombuffer(self.trace, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name_id, trace, dur, dur - child

    def table(self, trace_filter=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name_id, trace, dur, self_ns = self._arrays()
        keep = np.ones(dur.size, dtype=bool)
        if trace_filter is not None:
            wanted = [i for i, (label, _) in enumerate(self.commands) if trace_filter(label)]
            keep = np.isin(trace, wanted)
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (name_id == nid)
            calls = int(sel.sum())
            if calls:
                out[name] = {
                    "calls": calls,
                    "total_s": float(dur[sel].sum()) / 1e9,
                    "self_s": float(self_ns[sel].sum()) / 1e9,
                }
        return out

    def write_csv(self, path) -> None:
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "parent_id", "trace_id", "command", "name", "start_ns", "end_ns"])
            for i, (nid, parent, trace, start, end) in enumerate(
                zip(self.name_id, self.parent, self.trace, self.start, self.end)
            ):
                writer.writerow([i, parent, trace, self.commands[trace][0], self.names[nid], start, end])


def _per_call(table, name: str, scale: float) -> float:
    row = table.get(name)
    return row["total_s"] / row["calls"] * scale if row else 0.0


def _calls(table, name: str) -> int:
    row = table.get(name)
    return row["calls"] if row else 0


def _total(table, name: str) -> float:
    row = table.get(name)
    return row["total_s"] if row else 0.0


def layer_metrics(tracer: Tracer, n_iter: int, store_mb: float, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json as (value, unit); counts are per iteration."""
    t = tracer.table()
    canary = tracer.table(lambda label: label.startswith("attack:canary"))
    canary_targets = sum(n for label, n in tracer.commands if label.startswith("attack:canary"))
    fingerprint_s = _total(t, "data.fingerprint")
    run_attack = t.get("attacks.run_attack")
    cli_self = sum(row["self_s"] for name, row in t.items() if name.startswith("cli."))
    return {
        "nn.param_gradient_us": (_per_call(t, "nn.param_gradient", 1e6), "us"),
        "nn.adam_step.training_us": (_per_call(t, "nn.adam_step.training", 1e6), "us"),
        "nn.params_repack_us": (_per_call(t, "nn.params_repack", 1e6), "us"),
        "training.train_model_s": (_per_call(t, "training.train_model", 1.0), "s"),
        "nn.per_example_grad_us": (_per_call(t, "nn.per_example_grad", 1e6), "us"),
        "training.dp_step_us": (_per_call(t, "training.dp_step", 1e6), "us"),
        "training.dp_step_calls": (_calls(t, "training.dp_step") // n_iter, "count"),
        "nn.input_gradient_us": (_per_call(t, "nn.input_gradient", 1e6), "us"),
        "nn.input_gradient_calls": (_calls(t, "nn.input_gradient") // n_iter, "count"),
        "nn.adam_step.canary_us": (_per_call(t, "nn.adam_step.canary", 1e6), "us"),
        "attacks.optimize_canary_ms": (_per_call(t, "attacks.optimize_canary", 1e3), "ms"),
        "attacks.canary_ms_per_target": (
            _total(canary, "attacks.run_attack") * 1e3 / canary_targets if canary_targets else 0.0,
            "ms"),
        "farm.oracle_query_us": (_per_call(t, "farm.oracle_query", 1e6), "us"),
        "farm.oracle_queries": (_calls(t, "farm.oracle_query") // n_iter, "count"),
        "farm.model_confidence_batch_us": (_per_call(t, "farm.model_confidence_batch", 1e6), "us"),
        "attacks.run_attack_self_s": (
            run_attack["self_s"] / run_attack["calls"] if run_attack else 0.0, "s"),
        "data.fingerprint_mb_per_s": (
            tracer.bytes.get("data.fingerprint", 0) / fingerprint_s / 1e6 if fingerprint_s else 0.0,
            "MB/s"),
        "data.ingest_s": (_per_call(t, "data.ingest", 1.0), "s"),
        "farm.save_farm_s": (_per_call(t, "farm.save_farm", 1.0), "s"),
        "farm.load_farm_s": (_per_call(t, "farm.load_farm", 1.0), "s"),
        "farm.store_mb": (store_mb, "MB"),
        "cli.self_s": (cli_self / n_iter, "s"),
        "metrics.summarize_ms": (_per_call(t, "metrics.summarize", 1e3), "ms"),
        "training.make_even_splits_ms": (_per_call(t, "training.make_even_splits", 1e3), "ms"),
        "rng.substream_calls": (_calls(t, "rng.substream") // n_iter, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def baseline_figures(tracer: Tracer) -> dict:
    """Figures comparable to the hand-measured baseline table in ROADMAP.md."""
    t = tracer.table()
    out = {}
    steps = _calls(t, "nn.param_gradient") + _calls(t, "nn.per_example_grad")
    build = _total(t, "farm.build_farm")
    if steps and build:
        out["train_step_us"] = _total(t, "training.train_model") / steps * 1e6
        out["build_farm_share"] = {
            name: _total(t, name) / build
            for name in ("nn.param_gradient", "nn.adam_step.training", "nn.params_repack",
                         "nn.per_example_grad", "training.dp_step")
            if name in t
        }
    targets: dict[str, int] = {}
    for label, n in tracer.commands:
        targets[label] = targets.get(label, 0) + n
    for label, n in targets.items():
        if not label.startswith("attack:"):
            continue
        sub = tracer.table(lambda lab, want=label: lab == want)
        attack_s = _total(sub, "attacks.run_attack")
        entry = {"s_per_attack_seed": attack_s / _calls(sub, "attacks.run_attack"),
                 "ms_per_target": attack_s / n * 1e3}
        if label.startswith("attack:canary"):
            entry["optimize_canary_ms"] = _per_call(sub, "attacks.optimize_canary", 1e3)
            entry["share"] = {
                name: _total(sub, name) / attack_s
                for name in ("nn.input_gradient", "attacks.project", "nn.adam_step.canary")
            }
        out[label] = entry
    fingerprint_s = _total(t, "data.fingerprint")
    if fingerprint_s:
        out["fingerprint_mb_per_s"] = tracer.bytes["data.fingerprint"] / fingerprint_s / 1e6
    out["span_cost_ns"] = span_cost_ns()
    out["spans"] = len(tracer.start)
    return out


def span_cost_ns(calls: int = 20000) -> float:
    """Extra time one traced call costs, timed on a no-op function."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return (clock() - start - bare) / calls
