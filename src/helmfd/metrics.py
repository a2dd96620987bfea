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
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import baselines, detector, helm, synth
from .data import RngStream, fork_map


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

# A report row's key: one row per (model, parameter cell, n, reading, gamma,
# fault), and one record per key and repetition.
ROW_KEY = ("model", "params", "n", "reading", "gamma", "fault")

RECORD_FIELDS = (*ROW_KEY, "rep",
                 "point_tpr", "point_fpr", "point_precision", "point_f1",
                 "set_tp", "set_fp", "magnification", "train_seconds")

ROW_FIELDS = (*ROW_KEY, "reps",
              "point_tpr", "point_fpr", "point_tnr", "point_fnr",
              "point_accuracy", "point_precision", "point_f1",
              "set_tpr", "set_fpr", "set_accuracy", "magnification")

# row field <- the record field it averages over the row's repetitions
_MEANS = {"set_tpr": "set_tp", "set_fpr": "set_fp", **{f: f for f in (
    "point_tpr", "point_fpr", "point_precision", "point_f1")}}
_row_key = operator.itemgetter(*ROW_KEY)


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
        return sorted(self.records, key=operator.itemgetter(*ROW_KEY, "rep"))

    def rows(self) -> list:
        """Aggregate to one row per ROW_KEY: means of per-repetition rates,
        nan-mean of magnification."""
        groups: dict = {}
        for r in self._sorted():
            groups.setdefault(_row_key(r), []).append(r)
        out = []
        for key, recs in groups.items():
            row = dict(zip(ROW_KEY, key), reps=len(recs))
            row.update({k: float(np.mean([r[field] for r in recs]))
                        for k, field in _MEANS.items()})
            mags = np.array([r["magnification"] for r in recs], dtype=float)
            ptpr, pfpr = row["point_tpr"], row["point_fpr"]
            row.update(
                point_tnr=1.0 - pfpr, point_fnr=1.0 - ptpr,
                point_accuracy=(ptpr + 1.0 - pfpr) / 2.0,
                set_accuracy=(row["set_tpr"] + 1.0 - row["set_fpr"]) / 2.0,
                magnification=(float(np.nanmean(mags))
                               if np.any(np.isfinite(mags)) else float("nan")))
            out.append(row)
        return out

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
                w.writerow((model, params, len(vals), float(np.mean(vals))))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"records": self._sorted()}))
            fh.write("\n")


def _write_rows(path, rows: list, cols) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows([row[k] for k in cols] for row in rows)


def report_csv(path, rows: list) -> None:
    """report.csv: every field of the report rows."""
    _write_rows(path, rows, ROW_FIELDS)


def sweep_csv(path, rows: list) -> None:
    """Gamma-sweep projection of the report rows: per model cell x gamma x
    fault rates."""
    _write_rows(path, rows, ("model", "params", "gamma", "fault",
                             "point_tpr", "point_fpr", "set_tpr",
                             "set_fpr", "set_accuracy"))


def accuracy_table(rows: list) -> str:
    """Accuracy (TPR/FPR) table of report rows, segment level, in percent,
    at the rows' gamma closest to the shipped one."""
    shipped = detector.DetectorConfig.gamma
    gamma = min(sorted({r["gamma"] for r in rows}),
                key=lambda g: abs(g - shipped), default=shipped)
    faults = sorted({r["fault"] for r in rows})
    lines = [f"Accuracy (TPR/FPR) per fault, segment level, gamma={gamma:g}",
             f"{'model / cell':44s}"
             + "".join(f"{'fault ' + str(f):>14s}" for f in faults)]
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
            text = "-" if r is None else (
                f"{100 * r['set_accuracy']:.0f} "
                f"({100 * r['set_tpr']:.0f}/{100 * r['set_fpr']:.0f})")
            line += f"{text:>14s}"
        lines.append(line)
    return "\n".join(lines)


def winning_cells(rows: list, model: str) -> dict:
    """{"gamma", "params", "accuracy"} of the model's (gamma, params) cell
    in the report rows with the highest segment accuracy averaged over
    faults. Ties break lexicographically on (gamma, params), so selection
    is deterministic."""
    cells: dict = {}
    for r in rows:
        if r["model"] == model:
            cells.setdefault((r["gamma"], r["params"]), {})[r["fault"]] = (
                r["set_accuracy"])
    if not cells:
        raise ValueError(f"no rows for model {model!r}")
    accuracy = {k: float(np.mean(list(accs.values())))
                for k, accs in cells.items()}
    gamma, params = max(sorted(accuracy), key=accuracy.get)
    return {"gamma": gamma, "params": params,
            "accuracy": accuracy[gamma, params]}


# --- benchmark engine ---------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A model family: its substream id, its hyperparameter axes (plan
    fields) and trainer(plan, cell), which returns the cell's ensemble
    trainer of (X_train, stream); member m draws from stream.child(m)."""
    stream: int
    axes: tuple
    trainer: Callable


# Repetition r draws its dataset from (DATA_STREAM, r) and model m from
# (FAMILIES[m].stream, r, member), so adding or dropping a model never shifts
# any other model's draws.
DATA_STREAM = 0
FAMILIES = {
    "helm": Family(1, ("L1", "L2", "lam", "C"), lambda plan, cell: (
        functools.partial(helm.train_ensemble, config=helm.HelmConfig(
            layer_sizes=(cell["L1"], cell["L2"]), lam=cell["lam"],
            C=cell["C"], ensemble_size=plan.ensemble_size, seed=plan.seed)))),
    "elm": Family(2, ("width", "C"), lambda plan, cell: functools.partial(
        baselines.one_class_train_ensemble, **cell, size=plan.ensemble_size)),
    "pca-elm": Family(3, ("l_pca", "width", "C"), lambda plan, cell: (
        functools.partial(baselines.pca_elm_train_ensemble, **cell,
                          size=plan.ensemble_size))),
}
AXES = tuple(dict.fromkeys(a for f in FAMILIES.values() for a in f.axes))
# The help line of each axis's `helmfd benchmark` flag.
AXIS_HELP = {
    "L1": "first autoencoder widths (comma list sweeps a grid)",
    "L2": "second-layer widths (comma list)",
    "lam": "autoencoder L1 weights (comma list)",
    "C": "head ridge weights (comma list)",
    "width": "baseline hidden widths (comma list)",
    "l_pca": "principal-component counts (comma list)",
}


@dataclass(frozen=True)
class BenchmarkPlan:
    """One repeated experiment. The tuple fields are hyperparameter axes and
    each model family runs every cell of the product of its own axes, as
    FAMILIES names them. The defaults are the shipped configuration, one
    cell each; n and reading take theirs from GeneratorSpec, p from
    DetectorConfig, and the HELM axes and ensemble_size from HelmConfig."""
    n: int = synth.GeneratorSpec.n
    reading: str = synth.GeneratorSpec.reading
    seed: int = 42
    reps: int = 20
    gammas: tuple = (1.0, 1.1, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0)
    p: float = detector.DetectorConfig.p
    models: tuple = tuple(FAMILIES)
    L1: tuple = helm.HelmConfig.layer_sizes[:1]
    L2: tuple = helm.HelmConfig.layer_sizes[-1:]
    lam: tuple = (helm.HelmConfig.lam,)
    C: tuple = (helm.HelmConfig.C,)
    width: tuple = (100,)
    l_pca: tuple = (10,)
    ensemble_size: int = helm.HelmConfig.ensemble_size

    def __post_init__(self):
        """Every axis is checked whatever `models` holds, so a bad value
        fails here rather than after repetitions have run. A repeated value
        would make two cells with one report key, so it is rejected."""
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        unknown = set(self.models) - FAMILIES.keys()
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        for axis in ("models", "gammas", *AXES):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"{axis} must hold at least one value")
            if len(set(values)) < len(values):
                raise ValueError(f"{axis} repeats a value: {values}")
        if min(self.width) < 1 or min(self.l_pca) < 1:
            raise ValueError("width and l_pca must be >= 1")
        synth.GeneratorSpec(n=self.n, reading=self.reading, seed=self.seed)
        for gamma in self.gammas:
            detector.DetectorConfig(gamma=gamma, p=self.p)
        # builds, and so checks, each HELM cell's HelmConfig, ensemble_size
        # included; the axes are non-empty, so there is at least one
        _cells(self, "helm")


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
        for f, name in enumerate(synth.FAULT_NAMES, 1):
            seg = _scored(name)
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
    """(cell, trainer) per parameter cell of one model family, in
    itertools.product order of its axes."""
    family = FAMILIES[model]
    cells = [dict(zip(family.axes, values)) for values in
             itertools.product(*(getattr(plan, a) for a in family.axes))]
    return [(cell, family.trainer(plan, cell)) for cell in cells]


def benchmark_rep(plan: BenchmarkPlan, rep: int) -> list:
    """All records for one repetition: fresh dataset, every model family and
    parameter cell, every gamma. Each ensemble scores only the rows the
    records read, X[_SCORED_FROM:]. run_ensemble scores a row of any batch
    of two rows or more the same wherever the batch starts, so the records
    equal those of scoring the whole timeline."""
    spec = synth.GeneratorSpec(n=plan.n, reading=plan.reading, seed=plan.seed)
    X = synth.generate(spec, RngStream(plan.seed, (DATA_STREAM, rep))).X
    tr = slice(*synth.SEGMENTS["train"])
    records = []
    for model in plan.models:
        stream = RngStream(plan.seed, (FAMILIES[model].stream, rep))
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
    """Run the repeated experiment, the repetitions through fork_map with
    `jobs` workers. Results are identical to the serial run because every
    repetition draws from its own substreams and records carry their rep id.

    A KeyboardInterrupt mid-run drops the repetitions no worker has started
    and re-raises with the partial report attached to the exception as
    `exc.partial_report`, so callers can flush it. A worker process that
    dies raises OSError, with the partial report attached the same way."""
    report = ExperimentReport()
    try:
        with fork_map(benchmark_rep, plan, range(plan.reps),
                      "a benchmark worker process", workers=jobs) as results:
            for rep, recs in enumerate(results):
                report.records.extend(recs)
                if progress:
                    progress(rep)
    except KeyboardInterrupt as exc:
        exc.partial_report = report
        raise
    except OSError as exc:
        done = len({r["rep"] for r in report.records})
        err = OSError(f"{exc}; {done} of {plan.reps} repetitions finished")
        err.partial_report = report
        raise err from exc
    return report
