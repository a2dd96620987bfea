"""Span tracing of helmfd's public functions, installed from outside the package.

helmfd modules import each other's functions by name (``from .elm import
hidden``), so wrapping ``elm.hidden`` alone would miss the calls that go
through ``helm.hidden`` or ``baselines.hidden``. ``Tracer.installed`` finds
every binding of a traced function object in every loaded helmfd module and
swaps in one shared wrapper, then puts the originals back.

Spans are kept in memory with their parent id. ``Tracer.fold`` turns the
spans of one finished operation into per-name totals (self time, calls and the
counts each wrapper reads from the call), so a long run holds only one
operation's spans at a time.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "helmfd"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _fista_counts(args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _rows_of_x(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs.get("X")
    return {"rows": len(x)}


def _rows_result(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _path_bytes(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(args[0] if args else kwargs.get("path"))}


# (module, function) -> span name. Every span name starts with its layer.
TARGETS = {
    ("fista", "fista_solve"): "fista.solve",
    ("elm", "hidden"): "elm.hidden",
    ("elm", "ridge_solve"): "elm.ridge_solve",
    ("elm", "random_layer"): "elm.random_layer",
    ("helm", "helm_train"): "helm.train",
    ("helm", "helm_run"): "helm.run",
    ("helm", "run_ensemble"): "helm.run_ensemble",
    ("helm", "save_ensemble"): "helm.save",
    ("helm", "load_ensemble"): "helm.load",
    ("data", "write_csv_matrix"): "data.write_csv",
    ("data", "read_csv_matrix"): "data.read_csv",
    ("data", "apply_normalization"): "data.apply_normalization",
    ("data", "fit_normalization"): "data.fit_normalization",
    ("detector", "decide"): "detector.decide",
    ("detector", "calibrate"): "detector.calibrate",
    ("detector", "write_detections_csv"): "detector.write_csv",
    ("synth", "generate"): "synth.generate",
    ("baselines", "one_class_train"): "baselines.one_class_train",
    ("baselines", "one_class_run"): "baselines.one_class_run",
    ("baselines", "pca_elm_train"): "baselines.pca_elm_train",
    ("baselines", "pca_elm_run"): "baselines.pca_elm_run",
    ("baselines", "pca_fit"): "baselines.pca_fit",
    ("metrics", "benchmark_rep"): "metrics.benchmark_rep",
    ("metrics", "score_rates"): "metrics.score_rates",
    ("cli", "cmd_generate"): "cli.generate",
    ("cli", "cmd_train"): "cli.train",
    ("cli", "cmd_calibrate"): "cli.calibrate",
    ("cli", "cmd_detect"): "cli.detect",
}

# Counts read from a call's arguments or result after it returns.
COUNTERS = {
    "fista.solve": _fista_counts,
    "helm.run_ensemble": _rows_of_x,
    "helm.save": _path_bytes,
    "data.read_csv": _path_bytes,
    "data.write_csv": _path_bytes,
    "detector.decide": _rows_result,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.totals: dict = {}   # span name -> {"self_s", "total_s", "calls", counts...}
        self._stack: list = []
        self._next_id = 0
        self._wrappers: dict | None = None   # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            returned, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = counter(args, kwargs, result) if counter and returned else {}
                self.spans.append(Span(sid, parent, name, start, end, counts))
        return traced

    def _build(self) -> dict:
        wrappers = {}
        for (module, attr), name in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise LookupError(f"{PACKAGE}.{module}.{attr} is gone: "
                                  f"span {name} cannot be traced")
            wrappers[id(fn)] = (fn, self._wrap(name, fn, COUNTERS.get(name)))
        return wrappers

    @contextmanager
    def installed(self):
        """Replace every binding of a traced function in the loaded package
        modules by its wrapper; restore the originals on exit."""
        if self._wrappers is None:
            self._wrappers = self._build()
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    hit = self._wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, val))
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        selfs = self_times(self.spans)
        for s in self.spans:
            tot = self.totals.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0,
                                                  "calls": 0})
            tot["self_s"] += selfs[s.id]
            tot["total_s"] += s.end - s.start
            tot["calls"] += 1
            for k, v in s.counts.items():
                tot[k] = tot.get(k, 0) + v
        self.spans = []

    def layers_seen(self) -> set:
        return {name.split(".", 1)[0] for name, t in self.totals.items()
                if t["calls"] > 0}


def layer_metrics(totals: dict, ops: int, overhead_s: float) -> dict:
    """The per-layer metrics, name -> (value, unit). Times and counts are per
    workload operation; ratios and rates are over the whole traced run."""
    def tot(span, key="self_s"):
        return totals.get(span, {}).get(key, 0)

    def per_op(span, key="self_s"):
        return tot(span, key) / ops

    def mb_per_s(span):
        secs = tot(span)
        return tot(span, "bytes") / 1e6 / secs if secs > 0 else 0.0

    solves = tot("fista.solve", "calls")
    extra = {
        "fista.solve": [
            ("fista.solve.calls", per_op("fista.solve", "calls"), "count"),
            ("fista.iterations", per_op("fista.solve", "iterations"), "count"),
            ("fista.converged_ratio",
             tot("fista.solve", "converged") / solves if solves else 0.0, "ratio")],
        "elm.hidden": [("elm.hidden.calls", per_op("elm.hidden", "calls"), "count")],
        "helm.run_ensemble": [
            ("helm.run_ensemble.rows", per_op("helm.run_ensemble", "rows"), "rows")],
        "helm.load": [("helm.model_bytes", per_op("helm.save", "bytes"), "bytes")],
        "data.write_csv": [
            ("data.write_csv.mb_per_s", mb_per_s("data.write_csv"), "MB/s")],
        "data.read_csv": [
            ("data.read_csv.mb_per_s", mb_per_s("data.read_csv"), "MB/s"),
            ("data.csv_bytes", per_op("data.write_csv", "bytes")
             + per_op("data.read_csv", "bytes"), "bytes")],
        "detector.decide": [
            ("detector.decide.rows", per_op("detector.decide", "rows"), "rows")],
        "metrics.score_rates": [
            ("metrics.score_rates.calls", per_op("metrics.score_rates", "calls"),
             "count")],
    }
    out = {}
    for span in TARGETS.values():
        out[f"{span}.self_s"] = (per_op(span), "s")
        for name, value, unit in extra.get(span, ()):
            out[name] = (value, unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
