"""Spans and counters for the traced benchmark run, and the per-layer
metrics computed from them.

The traced run wraps koopctl functions where they are looked up, from
this file, without changing koopctl itself:

* stage-level public calls get a span each (name, start, end, parent,
  run id); a few also record their ``tracemalloc`` peak;
* hot per-step functions get call and row counters and accumulated
  time instead of a span per call, because evaluation alone makes about
  1e5 calls into them.

Everything is kept in memory and written as JSON lines when the run
ends.  ``Tracer.restore`` puts every wrapped attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import tracemalloc

MB = float(1 << 20)

# (module, attribute, layer, record tracemalloc peak).  Modules that import
# a name directly hold their own reference, so every lookup site is listed.
STAGE_SITES = (
    ("koopctl.babbling", "generate_dataset", "babbling", False),
    ("koopctl.babbling", "save_dataset", "babbling", False),
    ("koopctl.babbling", "load_dataset", "babbling", False),
    ("koopctl.cli", "generate_dataset", "babbling", False),
    ("koopctl.cli", "save_dataset", "babbling", False),
    ("koopctl.cli", "load_dataset", "babbling", False),
    ("koopctl.factorization", "fit_pair", "factorization", True),
    ("koopctl.cli", "fit_pair", "factorization", True),
    ("koopctl.edmd", "identify_model", "edmd", True),
    ("koopctl.cli", "identify_model", "edmd", True),
    ("koopctl.synthesis", "synthesize", "synthesis", True),
    ("koopctl.cli", "synthesize", "synthesis", True),
    ("koopctl.synthesis", "solve_fixed_p", "synthesis", False),
    ("koopctl.evaluation", "evaluate_closed_loop", "evaluation", False),
)

# (module, attribute, counter name).  ``lift`` is ObservableMap.__call__,
# wrapped on the class so every map instance is counted.
HOT_SITES = (
    ("koopctl.plants", "rk4_step", "rk4_step"),
    ("koopctl.plants", "rollout", "rollout"),
    ("koopctl.evaluation", "rollout", "rollout"),
    ("koopctl.plants", "rollout_batch", "rollout_batch"),
    ("koopctl.babbling", "rollout_batch", "rollout_batch"),
    ("koopctl.observables", "evaluate_batch", "evaluate_batch"),
    ("koopctl.factorization", "evaluate_batch", "evaluate_batch"),
    ("koopctl.edmd", "evaluate_batch", "evaluate_batch"),
    ("koopctl.observables.ObservableMap", "__call__", "lift"),
)

COUNTER_LAYER = {
    "rk4_step": "plants",
    "rollout": "plants",
    "rollout_batch": "plants",
    "lift": "observables",
    "evaluate_batch": "observables",
}


def _rows(x) -> int:
    """Number of states in a single state (d_x,) or a batch (..., d_x)."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= int(s)
    return n


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or ``a.b.Class`` as a class attribute."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self.skipped = []
        self._open = []        # stack of open span records
        self._hot = []         # stack of child-time accumulators of hot calls
        self._saved = []       # (owner, attribute, original) for restore

    # -- spans -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, layer: str, traced_memory: bool = False):
        rec = {"run": self.run_id, "id": len(self.spans), "name": name,
               "layer": layer,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": 0.0, "end": 0.0, "counter_s": 0.0,
               "peak_traced_mb": None}
        self.spans.append(rec)
        self._open.append(rec)
        own_trace = traced_memory and not tracemalloc.is_tracing()
        if own_trace:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if own_trace:
                rec["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            self._open.pop()

    # -- wrappers --------------------------------------------------------
    def _stage_wrapper(self, fn, name, layer, traced_memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer, traced_memory):
                return fn(*args, **kwargs)
        return wrapper

    def _hot_wrapper(self, fn, counter):
        entry = self.counters.setdefault(
            counter, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
        hot = self._hot
        open_spans = self._open

        # every hot function takes its state or state batch second:
        # rk4_step(plant, x, ...), rollout(plant, x0, ...),
        # rollout_batch(plant, x0s, ...), evaluate_batch(map, states),
        # ObservableMap.__call__(self, x)
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hot.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = hot.pop()
                entry["calls"] += 1
                entry["rows"] += _rows(args[1]) if len(args) > 1 else 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - child
                if hot:
                    hot[-1] += elapsed
                elif open_spans:
                    open_spans[-1]["counter_s"] += elapsed
        return wrapper

    def install(self) -> None:
        """Wrap every listed site that exists; record the ones that do not."""
        for path, attr, layer, traced_memory in STAGE_SITES:
            owner = _resolve(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.skipped.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr,
                    self._stage_wrapper(fn, f"{layer}.{attr}", layer,
                                        traced_memory))
        for path, attr, counter in HOT_SITES:
            owner = _resolve(path)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if fn is None:
                self.skipped.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._hot_wrapper(fn, counter))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path, header: dict) -> None:
        """Write the header, one line per span, then the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", "run": self.run_id,
                                 **header}, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps({"kind": "span", **rec},
                                    sort_keys=True) + "\n")
            fh.write(json.dumps({"kind": "counters", "run": self.run_id,
                                 "counters": self.counters,
                                 "skipped_sites": self.skipped},
                                sort_keys=True) + "\n")


def read_trace(path):
    """(header, spans, counters) from a JSON-lines trace file."""
    header, spans, counters = {}, [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("kind")
            if kind == "header":
                header = rec
            elif kind == "span":
                spans.append(rec)
            elif kind == "counters":
                counters = rec["counters"]
    return header, spans, counters


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its child spans and by
    hot-function counters that ran while it was the innermost open span.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered - s.get("counter_s", 0.0)
    return out


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("plants.rk4_calls", "count", "lower"),
    ("plants.rk4_rows", "count", "lower"),
    ("plants.self_s", "s", "lower"),
    ("observables.lift_calls", "count", "lower"),
    ("observables.lift_rows", "count", "lower"),
    ("observables.lift_rows_per_snapshot", "1", "lower"),
    ("observables.self_s", "s", "lower"),
    ("babbling.wall_s", "s", "lower"),
    ("babbling.self_s", "s", "lower"),
    ("babbling.snapshots", "count", "higher"),
    ("babbling.dropped", "count", "lower"),
    ("babbling.save_s", "s", "lower"),
    ("babbling.load_s", "s", "lower"),
    ("babbling.files_written", "count", "lower"),
    ("babbling.bytes_written", "B", "lower"),
    ("factorization.wall_s", "s", "lower"),
    ("factorization.self_s", "s", "lower"),
    ("factorization.peak_traced_mb", "MB", "lower"),
    ("factorization.kept_block_ratio", "1", "higher"),
    ("edmd.wall_s", "s", "lower"),
    ("edmd.self_s", "s", "lower"),
    ("edmd.peak_traced_mb", "MB", "lower"),
    ("synthesis.wall_s", "s", "lower"),
    ("synthesis.candidates", "count", "lower"),
    ("synthesis.feasible_ratio", "1", "higher"),
    ("synthesis.iterations", "count", "lower"),
    ("synthesis.peak_traced_mb", "MB", "lower"),
    ("evaluation.wall_s", "s", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("evaluation.trajectories", "count", "higher"),
    ("evaluation.rollout_calls", "count", "lower"),
    ("evaluation.diverged", "count", "lower"),
    ("evaluation.success_rate", "1", "higher"),
    ("cli.babble_s", "s", "lower"),
    ("cli.factorize_s", "s", "lower"),
    ("cli.identify_s", "s", "lower"),
    ("cli.synthesize_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(spans, counters, record) -> dict:
    """Per-layer numbers of one traced run.

    ``<layer>.wall_s`` sums the layer's outermost spans (a span nested in
    a span of the same layer is not counted again); ``<layer>.self_s``
    adds the self time of all its spans and of its hot functions.  Layers
    a workload does not reach report 0.  ``trace.overhead_s`` needs the
    untraced runs and is filled in by the caller.
    """
    selfs = self_times(spans)
    layer_of = {s["id"]: s["layer"] for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def wall(layer):
        return sum(dur(s) for s in spans if s["layer"] == layer
                   and layer_of.get(s["parent"]) != layer)

    def self_s(layer):
        return sum(selfs[s["id"]] for s in spans if s["layer"] == layer) \
            + sum(c["self_s"] for name, c in counters.items()
                  if COUNTER_LAYER[name] == layer)

    def named(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    def peak(layer):
        return max((s["peak_traced_mb"] for s in spans if s["layer"] == layer
                    and s["peak_traced_mb"] is not None), default=0.0)

    def count(name, key):
        return counters.get(name, {}).get(key, 0)

    sci = record["science"]
    shape = record["shape"]
    io = record["io"]
    snapshots = shape["snapshots"]
    candidates = sci.get("candidates", 0)
    m = {
        "plants.rk4_calls": count("rk4_step", "calls"),
        "plants.rk4_rows": count("rk4_step", "rows"),
        "plants.self_s": self_s("plants"),
        "observables.lift_calls": count("lift", "calls"),
        "observables.lift_rows": count("lift", "rows"),
        "observables.lift_rows_per_snapshot":
            count("lift", "rows") / snapshots if snapshots else 0.0,
        "observables.self_s": self_s("observables"),
        "babbling.wall_s": wall("babbling"),
        "babbling.self_s": self_s("babbling"),
        "babbling.snapshots": snapshots,
        "babbling.dropped": shape["dropped"],
        "babbling.save_s": named("babbling.save_dataset"),
        "babbling.load_s": named("babbling.load_dataset"),
        "babbling.files_written": io["files_written"],
        "babbling.bytes_written": io["dataset_bytes"],
        "factorization.wall_s": wall("factorization"),
        "factorization.self_s": self_s("factorization"),
        "factorization.peak_traced_mb": peak("factorization"),
        "factorization.kept_block_ratio":
            sci.get("kept_blocks", 0) / shape["d_psi"],
        "edmd.wall_s": wall("edmd"),
        "edmd.self_s": self_s("edmd"),
        "edmd.peak_traced_mb": peak("edmd"),
        "synthesis.wall_s": wall("synthesis"),
        "synthesis.candidates": candidates,
        "synthesis.feasible_ratio":
            sci.get("feasible", 0) / candidates if candidates else 0.0,
        "synthesis.iterations": sci.get("iterations", 0),
        "synthesis.peak_traced_mb": peak("synthesis"),
        "evaluation.wall_s": wall("evaluation"),
        "evaluation.self_s": self_s("evaluation"),
        "evaluation.trajectories": sci.get("trajectories", 0),
        "evaluation.rollout_calls": count("rollout", "calls"),
        "evaluation.diverged": sci.get("diverged", 0),
        "evaluation.success_rate": sci.get("success_rate", 0.0),
        "cli.babble_s": named("cli.babble"),
        "cli.factorize_s": named("cli.factorize"),
        "cli.identify_s": named("cli.identify"),
        "cli.synthesize_s": named("cli.synthesize"),
        "cli.bytes_written": io["bytes_written"],
        "trace.run_s": record["run_s"],
        "trace.overhead_s": 0.0,
    }
    return m
