"""Scoring, aggregation, and the repeated-experiment benchmark engine.

Rates are reported at two granularities:
  * point level: the fraction of individual rows flagged (TPR over a fault
    segment, FPR over a healthy segment);
  * segment level: a whole segment counts as detected when its flagged
    fraction exceeds the detector's design false-alarm rate 1 - p/100. A
    healthy segment is expected to ring at about that rate by construction,
    so only an excess above it is evidence of a fault. With p = 99.5 and
    1000-row segments that is "6 or more flagged rows".

Per-repetition rates are averaged across repetitions; points are never pooled
across repetitions, so every repetition carries equal weight.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, detector, helm, synth
from .data import RngStream


@dataclass(frozen=True)
class RateTuple:
    tpr: float
    fpr: float
    precision: float
    f1: float


def _flags(flags, name: str) -> np.ndarray:
    flags = np.asarray(flags).ravel()
    if flags.dtype != bool:
        raise ValueError(f"{name} flags must be boolean (True = flagged), "
                         f"not {flags.dtype}")
    if flags.size == 0:
        raise ValueError(f"empty {name}")
    return flags


def score_rates(flags_healthy, flags_fault) -> RateTuple:
    """Point-level rates from per-point boolean flags (True = flagged) over a
    healthy segment and a fault segment. f1 uses 2·TP / (N + FP + TP) with
    N the fault-segment size."""
    flagged_healthy = _flags(flags_healthy, "healthy segment")
    flagged_fault = _flags(flags_fault, "fault segment")
    tp = int(flagged_fault.sum())
    fp = int(flagged_healthy.sum())
    n_fault = flagged_fault.size
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    return RateTuple(tpr=tp / n_fault, fpr=fp / flagged_healthy.size,
                     precision=precision, f1=2.0 * tp / (n_fault + fp + tp))


def segment_flagged(flags, p: float) -> bool:
    """Segment-level alarm: flagged fraction strictly above the design
    false-alarm rate 1 - p/100."""
    flags = _flags(flags, "segment")
    return bool(flags.sum() > (1.0 - p / 100.0) * flags.size)


# --- experiment report -------------------------------------------------------

# One record per (model, parameter cell, gamma, fault, repetition).
RECORD_FIELDS = ("model", "params", "n", "reading", "gamma", "fault", "rep",
                 "point_tpr", "point_fpr", "point_precision", "point_f1",
                 "set_tp", "set_fp", "magnification", "train_seconds")

ROW_FIELDS = ("model", "params", "n", "reading", "gamma", "fault", "reps",
              "point_tpr", "point_fpr", "point_tnr", "point_fnr",
              "point_accuracy", "point_precision", "point_f1",
              "set_tpr", "set_fpr", "set_accuracy",
              "magnification", "train_seconds")

# Columns of the main report CSV. Wall-clock time is excluded: the file must
# be identical across same-seed runs, and timing is hardware noise. It ships
# separately via timings_csv.
CSV_FIELDS = tuple(f for f in ROW_FIELDS if f != "train_seconds")


def _params_str(params: dict) -> str:
    return ";".join(f"{k}={params[k]!r}" for k in sorted(params))


class ExperimentReport:
    """Per-repetition records (dicts with RECORD_FIELDS) plus aggregation
    that does not depend on their order, so records gathered in any order
    (parallel workers, an interrupted run) give the rows of one serial
    pass."""

    def __init__(self, records: list | None = None):
        self.records = list(records or [])

    def _sorted(self) -> list:
        return sorted(self.records,
                      key=lambda r: (r["model"], r["params"], r["n"],
                                     r["reading"], r["gamma"], r["fault"],
                                     r["rep"]))

    def rows(self) -> list:
        """Aggregate to one row per (model, cell, n, reading, gamma, fault):
        means of per-repetition rates, nan-mean of magnification."""
        groups: dict = {}
        for r in self._sorted():
            key = (r["model"], r["params"], r["n"], r["reading"],
                   r["gamma"], r["fault"])
            groups.setdefault(key, []).append(r)
        out = []
        for key, recs in sorted(groups.items()):
            mags = np.array([r["magnification"] for r in recs], dtype=float)
            mag = float(np.nanmean(mags)) if np.any(np.isfinite(mags)) else float("nan")
            ptpr = float(np.mean([r["point_tpr"] for r in recs]))
            pfpr = float(np.mean([r["point_fpr"] for r in recs]))
            stpr = float(np.mean([r["set_tp"] for r in recs]))
            sfpr = float(np.mean([r["set_fp"] for r in recs]))
            out.append({
                "model": key[0], "params": key[1], "n": key[2],
                "reading": key[3], "gamma": key[4], "fault": key[5],
                "reps": len(recs),
                "point_tpr": ptpr, "point_fpr": pfpr,
                "point_tnr": 1.0 - pfpr, "point_fnr": 1.0 - ptpr,
                "point_accuracy": (ptpr + 1.0 - pfpr) / 2.0,
                "point_precision": float(np.mean([r["point_precision"] for r in recs])),
                "point_f1": float(np.mean([r["point_f1"] for r in recs])),
                "set_tpr": stpr, "set_fpr": sfpr,
                "set_accuracy": (stpr + 1.0 - sfpr) / 2.0,
                "magnification": mag,
                "train_seconds": float(np.mean([r["train_seconds"] for r in recs])),
            })
        return out

    def _write_rows(self, path, cols) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in self.rows():
                w.writerow([row[k] if isinstance(row[k], str)
                            else repr(row[k]) for k in cols])

    def to_csv(self, path) -> None:
        self._write_rows(path, CSV_FIELDS)

    def timings_csv(self, path) -> None:
        """Mean wall-clock training seconds per model cell. Kept out of the
        main report so that file stays deterministic."""
        groups: dict = {}
        for r in self._sorted():
            groups.setdefault((r["model"], r["params"]), []).append(
                r["train_seconds"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("model", "params", "records", "mean_train_seconds"))
            for (model, params), vals in sorted(groups.items()):
                w.writerow((model, params, len(vals),
                            repr(float(np.mean(vals)))))

    def sweep_csv(self, path) -> None:
        """Gamma-sweep projection: per model x gamma x fault rates."""
        self._write_rows(path, ("model", "gamma", "fault", "point_tpr",
                                "point_fpr", "set_tpr", "set_fpr",
                                "set_accuracy"))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"records": self._sorted()}, fh)
            fh.write("\n")

    def table(self, gamma: float | None = None) -> str:
        """Accuracy (TPR/FPR) table at one gamma, segment level, in percent.
        Without a gamma, the report's gamma closest to the shipped one."""
        rows = self.rows()
        if gamma is None:
            shipped = detector.DetectorConfig.gamma
            gamma = min(sorted({r["gamma"] for r in rows}),
                        key=lambda g: abs(g - shipped), default=shipped)
        faults = sorted({r["fault"] for r in rows})
        lines = [f"Accuracy (TPR/FPR) per fault, segment level, gamma={gamma:g}"]
        header = f"{'model / cell':44s}" + "".join(f"{'fault ' + str(f):>14s}" for f in faults)
        lines.append(header)
        keys = sorted({(r["model"], r["params"]) for r in rows})
        multi = len({k[0] for k in keys}) < len(keys)
        for model, params in keys:
            cells = {r["fault"]: r for r in rows
                     if r["model"] == model and r["params"] == params
                     and r["gamma"] == gamma}
            name = f"{model} {params}" if multi else model
            line = f"{name:44.44s}"
            for f in faults:
                r = cells.get(f)
                if r is None:
                    line += f"{'-':>14s}"
                else:
                    line += "{:>14s}".format(
                        f"{100 * r['set_accuracy']:.0f} ({100 * r['set_tpr']:.0f}/{100 * r['set_fpr']:.0f})")
            lines.append(line)
        return "\n".join(lines)


def winning_cells(report: ExperimentReport, model: str) -> dict:
    """Two reporting modes over an aggregated report: the argmax-mean-accuracy
    (gamma, cell) across faults, and the per-fault argmaxes. Ties break
    lexicographically on (gamma, params) so selection is deterministic."""
    rows = [r for r in report.rows() if r["model"] == model]
    if not rows:
        raise ValueError(f"no rows for model {model!r}")
    cells: dict = {}
    for r in rows:
        cells.setdefault((r["gamma"], r["params"]), {})[r["fault"]] = r
    mean_best = None
    for key in sorted(cells):
        accs = [r["set_accuracy"] for r in cells[key].values()]
        mean_acc = float(np.mean(accs))
        if mean_best is None or mean_acc > mean_best[0]:
            mean_best = (mean_acc, key)
    per_fault = {}
    faults = sorted({r["fault"] for r in rows})
    for f in faults:
        best = None
        for key in sorted(cells):
            r = cells[key].get(f)
            if r is not None and (best is None or r["set_accuracy"] > best[0]):
                best = (r["set_accuracy"], key)
        per_fault[f] = {"gamma": best[1][0], "params": best[1][1],
                        "accuracy": best[0]}
    return {"mean": {"gamma": mean_best[1][0], "params": mean_best[1][1],
                     "accuracy": mean_best[0]},
            "per_fault": per_fault}


# --- benchmark engine ---------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkPlan:
    """One repeated experiment. The tuple fields are hyperparameter axes and
    each model family runs every cell of the product of its own axes: HELM
    over (L1, L2, lam, C), the one-class ELM over (width, C) and PCA-ELM over
    (l_pca, width, C). C applies to all three families, width to ELM and
    PCA-ELM. The defaults are the shipped configuration, one cell each; n
    and reading take theirs from GeneratorSpec, p from DetectorConfig, and
    the HELM axes and ensemble_size from HelmConfig."""
    n: int = synth.GeneratorSpec.n
    reading: str = synth.GeneratorSpec.reading
    seed: int = 42
    reps: int = 20
    gammas: tuple = (1.0, 1.1, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0)
    p: float = detector.DetectorConfig.p
    models: tuple = ("helm", "elm", "pca-elm")
    L1: tuple = helm.HelmConfig.layer_sizes[:1]
    L2: tuple = helm.HelmConfig.layer_sizes[-1:]
    lam: tuple = (helm.HelmConfig.lam,)
    C: tuple = (helm.HelmConfig.C,)
    width: tuple = (100,)
    l_pca: tuple = (10,)
    ensemble_size: int = helm.HelmConfig.ensemble_size

    def __post_init__(self):
        """Every axis is checked whatever `models` holds, so a bad value
        fails here rather than after repetitions have run."""
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        unknown = set(self.models) - {"helm", "elm", "pca-elm"}
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        for axis in ("models", "gammas", "L1", "L2", "lam", "C", "width",
                     "l_pca"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must hold at least one value")
        if min(self.width) < 1 or min(self.l_pca) < 1:
            raise ValueError("width and l_pca must be >= 1")
        synth.GeneratorSpec(n=self.n, reading=self.reading, seed=self.seed)
        for gamma in self.gammas:
            detector.DetectorConfig(gamma=gamma, p=self.p)
        # builds, and so checks, each HELM cell's HelmConfig, ensemble_size
        # included; the axes are non-empty, so there is at least one
        _cells(self, "helm")


# Substream ids per model family; repetition r of model m draws from
# (family, r, member) so adding or dropping a model never shifts any other
# model's draws.
_FAMILY = {"data": 0, "helm": 1, "elm": 2, "pca-elm": 3}


# The first timeline row any record reads: the records score the val, fp and
# fault segments, and nothing before val.
_SCORED_FROM = min(synth.SEGMENTS[s][0]
                   for s in ("val", "fp", *synth.FAULT_NAMES))


def _scored(segment: str) -> slice:
    """A segment's rows within the scored tail X[_SCORED_FROM:]."""
    a, b = synth.SEGMENTS[segment]
    return slice(a - _SCORED_FROM, b - _SCORED_FROM)


def _flag_records(model: str, params: dict, plan: "BenchmarkPlan", rep: int,
                  Y, train_seconds: float) -> list:
    """Records from Y, the ensemble's outputs on the scored tail
    X[_SCORED_FROM:]."""
    residual = detector.residuals(Y)
    fp_slice = _scored("fp")
    # q does not depend on gamma; gamma * q is the product calibrate forms
    q = detector.calibrate(Y[_scored("val")], 1.0, plan.p).threshold
    out = []
    for gamma in plan.gammas:
        thr = gamma * q
        flagged = residual > thr
        fp_flags = flagged[fp_slice]
        set_fp = segment_flagged(fp_flags, plan.p)
        for f in range(1, 6):
            seg = _scored(f"fault{f}")
            seg_flags = flagged[seg]
            rates = score_rates(fp_flags, seg_flags)
            if seg_flags.any() and thr > 0:
                mag = float(np.mean(residual[seg][seg_flags] / thr))
            else:
                mag = float("nan")
            out.append({
                "model": model, "params": _params_str(params),
                "n": plan.n, "reading": plan.reading,
                "gamma": float(gamma), "fault": f, "rep": rep,
                "point_tpr": rates.tpr, "point_fpr": rates.fpr,
                "point_precision": rates.precision, "point_f1": rates.f1,
                "set_tp": int(segment_flagged(seg_flags, plan.p)),
                "set_fp": int(set_fp),
                "magnification": mag,
                "train_seconds": train_seconds,
            })
    return out


def _cells(plan: BenchmarkPlan, model: str) -> list:
    """(record params, trainer) per parameter cell of one model family. A
    trainer takes (X_train, stream) and returns the cell's helm.Ensemble of
    plan.ensemble_size members, member m drawn from stream.child(m)."""
    size = plan.ensemble_size
    if model == "helm":
        return [({"L1": L1, "L2": L2, "lam": lam, "C": C},
                 functools.partial(helm.train_ensemble, config=helm.HelmConfig(
                     layer_sizes=(L1, L2), lam=lam, C=C,
                     ensemble_size=size, seed=plan.seed)))
                for L1, L2, lam, C in itertools.product(plan.L1, plan.L2,
                                                        plan.lam, plan.C)]
    if model == "elm":
        return [({"width": width, "C": C},
                 functools.partial(baselines.one_class_train_ensemble,
                                   width=width, C=C, size=size))
                for width, C in itertools.product(plan.width, plan.C)]
    return [({"l_pca": l_pca, "width": width, "C": C},
             functools.partial(baselines.pca_elm_train_ensemble, l_pca=l_pca,
                               width=width, C=C, size=size))
            for l_pca, width, C in itertools.product(plan.l_pca, plan.width,
                                                     plan.C)]


def benchmark_rep(plan: BenchmarkPlan, rep: int) -> list:
    """All records for one repetition: fresh dataset, every model family and
    parameter cell, every gamma. Each ensemble scores only the rows the
    records read, X[_SCORED_FROM:]; run_ensemble scores a row the same
    wherever it sits in a batch, so the records equal those of scoring the
    whole timeline."""
    spec = synth.GeneratorSpec(n=plan.n, reading=plan.reading, seed=plan.seed)
    ds = synth.generate(spec, RngStream(plan.seed, (_FAMILY["data"], rep)))
    X = ds.X
    tr = slice(*synth.SEGMENTS["train"])
    records = []
    for model in plan.models:
        stream = RngStream(plan.seed, (_FAMILY[model], rep))
        for params, train in _cells(plan, model):
            t0 = time.perf_counter()
            ensemble = train(X[tr], stream=stream)
            dt = time.perf_counter() - t0
            # run_ensemble, not an ad-hoc mean: the train/calibrate/detect
            # pipeline must reproduce these numbers bitwise
            Y = helm.run_ensemble(ensemble, X[_SCORED_FROM:])
            records += _flag_records(model, params, plan, rep, Y, dt)
    return records


def run_benchmark(plan: BenchmarkPlan, jobs: int = 1,
                  progress=None) -> ExperimentReport:
    """Run the repeated experiment. With jobs > 1 repetitions run in worker
    processes; results are identical to the serial run because every
    repetition draws from its own substreams and records carry their rep id.

    A KeyboardInterrupt mid-run re-raises with the partial report attached to
    the exception as `exc.partial_report`, so callers can flush it."""
    report = ExperimentReport()
    reps = range(plan.reps)
    try:
        if jobs <= 1:
            for rep in reps:
                report.records.extend(benchmark_rep(plan, rep))
                if progress:
                    progress(rep)
        else:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for rep, recs in zip(reps, pool.map(benchmark_rep,
                                                    [plan] * len(reps), reps)):
                    report.records.extend(recs)
                    if progress:
                        progress(rep)
    except KeyboardInterrupt as exc:
        exc.partial_report = report
        raise
    return report
