"""The benchmark's three workloads.

Each workload is a closed loop with one caller. ``setup`` prepares the inputs
from the seed, ``unit(k)`` runs the k-th unit of work and returns one
``Sample`` per operation (the time of the program call only; the output
checks run after the clock stops). A sample whose output check fails is
counted as failed and is left out of every timing.

Each sample also holds the time of a reference kernel (reference.py) run
next to it. The gated timings are scaled by the kernel's nominal time over
its measured time, which cancels the host's changes of speed: ``paired``
for operations of a millisecond or less, ``pooled`` for those of seconds.

* ``sweep``: one operation is ``metrics.benchmark_rep`` for the next rep.
* ``pipeline``: one operation is a CLI cycle generate -> train -> calibrate
  -> detect through ``cli.main`` in a fresh directory.
* ``stream``: one operation is a scoring call ``decide(run_ensemble(...))``;
  a unit is 100 single-row calls followed by one 1000-row block.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from helmfd import cli, detector, helm, metrics, synth
from helmfd.data import RngStream
from reference import settled, timed

SEG = synth.SEGMENTS
TIMELINE_ROWS = SEG["fault5"][1]
GAMMA = 1.5          # the CLI's default calibration gamma, and the README's
P = 99.5

# Single-row scores come from a differently ordered sum than the full-matrix
# reference (a dot product instead of a matrix-vector kernel over the head's
# 100 terms, averaged over 5 members, with outputs near 1). 128 float64 ulps
# of 1.0 bounds that reordering with a wide margin; observed differences are
# at most 3 ulps, and healthy thresholds are about 1e-4.
SINGLE_ROW_TOL = 128 * np.finfo(np.float64).eps


@dataclass(slots=True)
class Sample:
    """One operation, with ``ref``: the mean time of the reference kernel
    runs next to it. A run keeps every sample until it reports, and stream
    makes tens of thousands of them, so a sample is slotted and holds no
    dict unless it has parts: the records then add about 0.1 kB per call to
    ``peak_rss_mb``."""
    kind: str
    seconds: float
    ok: bool
    ref: float
    parts: dict | None = None


def bitwise_equal(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def tail(values, q: float) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < 10:
        return None
    return float(np.percentile(values, q))


def paired(samples: list, kernel: str) -> float:
    """Median time at the reference speed, each sample scaled by the kernel
    run just before it. For calls of a millisecond or less, each of which
    runs at one host speed, as the kernel run next to it does."""
    nominal = reference.NOMINAL_S[kernel]
    return median([s.seconds * nominal / s.ref for s in samples])


def pooled(seconds: list, refs: list, kernel: str) -> float:
    """Median time at the reference speed, scaled by the mean kernel time over
    the run. For operations of seconds: they average over the host's speed
    switches, which come every few seconds at times, while a kernel run of
    0.1 s next to one catches a single speed."""
    return median(seconds) * reference.NOMINAL_S[kernel] / float(np.mean(refs))


def host_speed(samples: list, kernel: str) -> tuple:
    """The kernel's nominal time over its mean measured time: above 1 when
    the host ran faster than at the nominal speed."""
    refs = [s.ref for s in samples]
    return (reference.NOMINAL_S[kernel] / float(np.mean(refs)), "ratio", len(refs))


def gated(op_s: float, n_op: int, bulk_s: float, n_bulk: int, bulk_rows: int) -> dict:
    """The timings every workload reports under the same names, from times at
    the reference speed: the operation latency and the rows per second of
    the bulk operation."""
    return {
        "op_ms": (1e3 * op_s, "ms", n_op),
        "rows_per_s": (bulk_rows / bulk_s, "rows/s", n_bulk),
    }


def timeline(seed: int) -> np.ndarray:
    """The 14000-row timeline that ``helmfd generate --seed seed`` writes."""
    return synth.generate(synth.GeneratorSpec(seed=seed), RngStream(seed, (0, 0))).X


def reference_ensemble(X: np.ndarray, seed: int) -> list:
    """The ensemble ``helmfd train --seed seed`` builds on the training split."""
    return helm.train_ensemble(X[slice(*SEG["train"])], helm.HelmConfig(seed=seed),
                               RngStream(seed, (1, 0)))


def scores_labels(dets) -> tuple:
    return (np.array([d.score for d in dets], dtype=np.float64),
            detector.labels_of(dets))


class Workload:
    name = ""
    layers: tuple = ()     # layers that must record spans in a traced run
    min_units = 1
    ops_per_unit = 1
    setup_reps = 9

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.training = reference.Training()

    def train_ref(self) -> float:
        """Time of the training kernel, which scales set-ups and repetitions."""
        return timed(self.training)

    def setup(self) -> dict:
        raise NotImplementedError

    def unit(self, k: int) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Sweep(Workload):
    """The researcher's loop: repeated benchmark repetitions, training 15
    models per repetition and scoring each once on the whole timeline."""
    name = "sweep"
    layers = ("fista", "elm", "helm", "baselines", "synth", "metrics")
    ACC_REPS = 6           # accuracy covers the first reps, a fixed count
    min_units = ACC_REPS
    setup_reps = 4         # a set-up runs a whole repetition

    def setup(self) -> dict:
        # The plan, and the records of rep 0 that the first unit must repeat.
        self.plan = metrics.BenchmarkPlan(seed=self.seed)
        self.reference = metrics.benchmark_rep(self.plan, 0)
        self.records: dict = {}
        return {}

    def unit(self, k: int) -> list:
        before = self.train_ref()
        t0 = time.perf_counter()
        recs = metrics.benchmark_rep(self.plan, k)
        dt = time.perf_counter() - t0
        after = self.train_ref()
        ok = self.check(recs, k) and (k != 0 or self.same_records(recs, self.reference))
        self.records[k] = recs
        train = [r["train_seconds"] for r in recs if r.get("model") == "helm"]
        return [Sample("rep", dt, ok, (before + after) / 2,
                       {"train_s": train[0] if train else math.nan})]

    def check(self, recs, rep: int) -> bool:
        plan = self.plan
        want = len(plan.models) * len(plan.gammas) * len(synth.FAULT_NAMES)
        if len(recs) != want:
            return False
        for r in recs:
            if set(r) != set(metrics.RECORD_FIELDS) or r["rep"] != rep:
                return False
            rates = (r["point_tpr"], r["point_fpr"], r["point_precision"],
                     r["point_f1"], r["set_tp"], r["set_fp"])
            if not all(0.0 <= v <= 1.0 for v in rates):
                return False
        return True

    @staticmethod
    def same_records(a, b) -> bool:
        """Records equal apart from the wall-clock train_seconds."""
        def key(r):
            return tuple(("nan" if isinstance(v, float) and math.isnan(v) else v)
                         for k, v in sorted(r.items()) if k != "train_seconds")
        return len(a) == len(b) and all(key(x) == key(y) for x, y in zip(a, b))

    def summary(self, units: list, setups: list) -> dict:
        ok = [s for _, samples in units for s in samples if s.ok]
        rep_s = [s.seconds for s in ok]
        train_s = [s.parts["train_s"] for s in ok]
        at_ref = pooled(rep_s, [s.ref for s in ok], "training")
        out = gated(at_ref, len(ok), at_ref, len(ok), TIMELINE_ROWS)
        out["host_speed"] = host_speed(ok, "training")
        out["rep_s"] = (median(rep_s), "s", len(rep_s))
        out["train_s"] = (median(train_s), "s", len(train_s))
        # Mean segment accuracy at gamma 1.5 over the passing reps among the
        # first ACC_REPS, so it depends on the seed only.
        first = [k for k, (_, samples) in enumerate(units[:self.ACC_REPS])
                 if samples[0].ok]
        rows = metrics.ExperimentReport(
            [r for k in first for r in self.records[k]]).rows()
        for model in self.plan.models:
            acc = [r["set_accuracy"] for r in rows
                   if r["model"] == model and r["gamma"] == GAMMA]
            name = model.replace("-", "_") + "_set_accuracy_pct"
            out[name] = (100.0 * float(np.mean(acc)) if acc else math.nan,
                         "%", len(first))
        return out


class Pipeline(Workload):
    """The operator's path through the CLI, heavy on CSV and model-file I/O."""
    name = "pipeline"
    layers = ("fista", "helm", "data", "detector", "synth", "cli")
    min_units = 3
    setup_reps = 5

    def setup(self) -> dict:
        self.work = self.root / ".bench_work" / f"pipeline-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.csv_ref = reference.CsvRoundTrip()
        # The expected outputs, computed in-process on the CLI's seed streams.
        self.X = timeline(self.seed)
        members = reference_ensemble(self.X, self.seed)
        cfg = detector.calibrate(
            helm.run_ensemble(members, self.X[slice(*SEG["val"])]), GAMMA, P)
        self.ref_scores, self.ref_labels = scores_labels(
            detector.decide(helm.run_ensemble(members, self.X), cfg))
        return {}

    def unit(self, k: int) -> list:
        d = self.work / f"cycle{k}"
        model = str(d / "model.json")
        seed = str(self.seed)
        commands = (
            ("generate", ["generate", "--out", str(d), "--seed", seed]),
            ("train", ["train", "--data", str(d / "train.csv"), "--model", model,
                       "--seed", seed]),
            ("calibrate", ["calibrate", "--model", model,
                           "--data", str(d / "val.csv")]),
            ("detect", ["detect", "--model", model, "--data", str(d / "data.csv"),
                        "--out", str(d)]),
        )
        parts, ok = {}, True
        sink = io.StringIO()
        try:
            refs = [settled(self.csv_ref)]
            for name, argv in commands:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(argv)
                parts[f"{name}_s"] = time.perf_counter() - t0
                refs.append(settled(self.csv_ref))
                if rc != 0:
                    print(f"{name} exited {rc}:\n{sink.getvalue()}", file=sys.stderr)
                    ok = False
                    break
            ok = ok and self.check(d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return [Sample("cycle", sum(parts.values()), ok, float(np.mean(refs)), parts)]

    def check(self, d: Path) -> bool:
        try:
            data = np.loadtxt(d / "data.csv", delimiter=",", skiprows=1, ndmin=2)
            with open(d / "detections.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            index = [int(r[0]) for r in body]
            scores = np.array([float(r[1]) for r in body])
            labels = np.array([int(r[2]) for r in body])
        except (OSError, ValueError, IndexError):
            return False
        return (bitwise_equal(data, self.X)
                and header == ["index", "score", "label", "magnification"]
                and index == list(range(len(self.ref_labels)))
                and bitwise_equal(scores, self.ref_scores)
                and np.array_equal(labels, self.ref_labels))

    def close(self) -> None:
        work = getattr(self, "work", None)
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()

    def summary(self, units: list, setups: list) -> dict:
        ok = [s for _, samples in units for s in samples if s.ok]
        cycle_s = [s.seconds for s in ok]
        train_s = [s.parts["train_s"] for s in ok]
        at_ref = pooled(cycle_s, [s.ref for s in ok], "csv")
        out = gated(at_ref, len(ok), at_ref, len(ok), TIMELINE_ROWS)
        out["host_speed"] = host_speed(ok, "csv")
        out["cycle_s"] = (median(cycle_s), "s", len(cycle_s))
        out["train_s"] = (median(train_s), "s", len(train_s))
        return out


class Stream(Workload):
    """Online scoring with a trained, calibrated ensemble: single-row calls
    (per-call overhead) alternating with 1000-row blocks (GEMM and expit)."""
    name = "stream"
    layers = ("elm", "helm", "data", "detector")
    SINGLES = 100
    BLOCK = 1000
    min_units = 20
    setup_reps = 5
    ops_per_unit = SINGLES + 1

    def setup(self) -> dict:
        X = timeline(self.seed)
        t0 = time.perf_counter()
        self.members = reference_ensemble(X, self.seed)
        train_s = time.perf_counter() - t0
        self.cfg = detector.calibrate(
            helm.run_ensemble(self.members, X[slice(*SEG["val"])]), GAMMA, P)
        self.rows = X[SEG["fp"][0]:TIMELINE_ROWS]
        self.scorer = reference.Scorer(self.BLOCK)
        self.ref_scores, self.ref_labels = scores_labels(
            detector.decide(helm.run_ensemble(self.members, self.rows), self.cfg))
        return {"train_s": train_s}

    def score(self, rows):
        return detector.decide(helm.run_ensemble(self.members, rows), self.cfg)

    def unit(self, k: int) -> list:
        """Each call runs right after the reference scorer on as many rows."""
        n = len(self.rows)
        ref = self.scorer
        ref_rows = ref.rows
        out = []
        for i in range(self.SINGLES):
            r = (k * self.SINGLES + i) % n
            row = self.rows[r:r + 1]
            ref_s = timed(ref.score, ref_rows[i:i + 1])
            t0 = time.perf_counter()
            dets = self.score(row)
            dt = time.perf_counter() - t0
            out.append(Sample("single", dt, self.check_single(dets, r), ref_s))
        b = (k * self.BLOCK) % n
        block = self.rows[b:b + self.BLOCK]
        ref_s = timed(ref.score, ref_rows)
        t0 = time.perf_counter()
        dets = self.score(block)
        dt = time.perf_counter() - t0
        scores, labels = scores_labels(dets)
        ok = (bitwise_equal(scores, self.ref_scores[b:b + self.BLOCK])
              and np.array_equal(labels, self.ref_labels[b:b + self.BLOCK]))
        out.append(Sample("block", dt, ok, ref_s))
        return out

    def check_single(self, dets, r: int) -> bool:
        if len(dets) != 1:
            return False
        ref = self.ref_scores[r]
        tol = SINGLE_ROW_TOL * (1.0 + abs(ref))
        if not abs(dets[0].score - ref) <= tol:   # also catches NaN
            return False
        # a score within the tolerance of the threshold may fall either side
        return (dets[0].label == self.ref_labels[r]
                or abs(ref - self.cfg.threshold) <= tol)

    def summary(self, units: list, setups: list) -> dict:
        ok = [s for _, samples in units for s in samples if s.ok]
        singles = [s for s in ok if s.kind == "single"]
        blocks = [s for s in ok if s.kind == "block"]
        block_s = [s.seconds for s in blocks]
        train_s = [p["train_s"] for p in setups]
        single_ms = [1e3 * s.seconds for s in singles]
        out = gated(paired(singles, "single"), len(singles),
                    paired(blocks, "block"), len(blocks), self.BLOCK)
        out["host_speed"] = host_speed(singles, "single")
        out.update({
            "sample_ms.p50": (median(single_ms), "ms", len(single_ms)),
            "sample_ms.p99": (tail(single_ms, 99), "ms", len(single_ms)),
            "score_rows_per_s": (self.BLOCK / median(block_s), "rows/s", len(block_s)),
            "train_s": (median(train_s), "s", len(train_s)),
        })
        return out


WORKLOADS = {w.name: w for w in (Sweep, Pipeline, Stream)}
