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
    tnr: float
    fnr: float
    accuracy: float
    precision: float
    f1: float


def _flags(labels, name: str) -> np.ndarray:
    labels = np.asarray(labels).ravel()
    if labels.size == 0:
        raise ValueError(f"empty {name} segment")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError(f"{name} labels must be +1 (healthy) or -1 (flagged)")
    return labels == -1


def score_rates(labels_healthy, labels_fault) -> RateTuple:
    """Point-level rates from per-point labels over a healthy segment and a
    fault segment (-1 = flagged). accuracy is the balanced (TPR + TNR) / 2;
    f1 uses 2·TP / (N + FP + TP) with N the fault-segment size."""
    flagged_healthy = _flags(labels_healthy, "healthy")
    flagged_fault = _flags(labels_fault, "fault")
    tp = int(flagged_fault.sum())
    fp = int(flagged_healthy.sum())
    n_fault = flagged_fault.size
    tpr = tp / n_fault
    fpr = fp / flagged_healthy.size
    tnr = 1.0 - fpr
    fnr = 1.0 - tpr
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    f1 = 2.0 * tp / (n_fault + fp + tp)
    return RateTuple(tpr=tpr, fpr=fpr, tnr=tnr, fnr=fnr,
                     accuracy=(tpr + tnr) / 2.0, precision=precision, f1=f1)


def segment_flagged(flags, p: float) -> bool:
    """Segment-level alarm: flagged fraction strictly above the design
    false-alarm rate 1 - p/100."""
    flags = np.asarray(flags, dtype=bool).ravel()
    if flags.size == 0:
        raise ValueError("empty segment")
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
    """Per-repetition records plus order-independent aggregation. Reports
    from disjoint repetition sets merge losslessly, so partial runs (parallel
    workers, interrupted sweeps) combine into the same result as one pass."""

    def __init__(self, records: list | None = None):
        self.records = list(records or [])

    def add(self, **rec) -> None:
        missing = set(RECORD_FIELDS) - set(rec)
        if missing:
            raise ValueError(f"record missing fields: {sorted(missing)}")
        self.records.append({k: rec[k] for k in RECORD_FIELDS})

    def merge(self, other: "ExperimentReport") -> None:
        self.records.extend(other.records)

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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_FIELDS)
            for row in self.rows():
                w.writerow([row[k] if isinstance(row[k], str)
                            else repr(row[k]) for k in CSV_FIELDS])

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
        cols = ("model", "gamma", "fault", "point_tpr", "point_fpr",
                "set_tpr", "set_fpr", "set_accuracy")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in self.rows():
                w.writerow([row[k] if isinstance(row[k], str)
                            else repr(row[k]) for k in cols])

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"records": self._sorted()}, fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "ExperimentReport":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(doc["records"])

    def table(self, gamma: float | None = None) -> str:
        """Accuracy (TPR/FPR) table at one gamma, segment level, in percent."""
        rows = self.rows()
        if gamma is None:
            gammas = sorted({r["gamma"] for r in rows})
            gamma = min(gammas, key=lambda g: abs(g - 1.5)) if gammas else 1.5
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
    n: int = 5
    reading: str = "identity"
    seed: int = 42
    reps: int = 20
    gammas: tuple = (1.0, 1.1, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0)
    p: float = 99.5
    models: tuple = ("helm", "elm", "pca-elm")
    # parameter cells; one entry each by default (the shipped configuration)
    helm_cells: tuple = ((20, 100, 1e-2, 1e-5),)   # (L1, L2, lam, C)
    elm_cells: tuple = ((100, 1e-5),)              # (width, C)
    pca_cells: tuple = ((10, 100, 1e-5),)          # (l_pca, width, C)
    ensemble_size: int = 5

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.gammas or any(g <= 0 for g in self.gammas):
            raise ValueError("gammas must be positive")
        unknown = set(self.models) - {"helm", "elm", "pca-elm"}
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")


# Substream ids per model family; repetition r of model m draws from
# (family, r, member) so adding or dropping a model never shifts any other
# model's draws.
_FAMILY = {"data": 0, "helm": 1, "elm": 2, "pca-elm": 3}


def _flag_records(model: str, params: dict, plan: "BenchmarkPlan", rep: int,
                  residual, train_seconds: float) -> list:
    base = float(np.percentile(residual[slice(*synth.SEGMENTS["val"])], plan.p))
    fp_slice = slice(*synth.SEGMENTS["fp"])
    out = []
    for gamma in plan.gammas:
        thr = gamma * base
        flagged = residual > thr
        fp_flags = flagged[fp_slice]
        set_fp = segment_flagged(fp_flags, plan.p)
        labels_healthy = np.where(fp_flags, -1, 1)
        for f in range(1, 6):
            seg = slice(*synth.SEGMENTS[f"fault{f}"])
            seg_flags = flagged[seg]
            rates = score_rates(labels_healthy, np.where(seg_flags, -1, 1))
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
    trainer takes (X_train, rng) and returns one helm.HelmModel member."""
    if model == "helm":
        return [({"L1": L1, "L2": L2, "lam": lam, "C": C},
                 functools.partial(helm.helm_train, config=helm.HelmConfig(
                     layer_sizes=(L1, L2), lam=lam, C=C,
                     ensemble_size=plan.ensemble_size, seed=plan.seed)))
                for L1, L2, lam, C in plan.helm_cells]
    if model == "elm":
        return [({"width": width, "C": C},
                 functools.partial(baselines.one_class_train, width=width,
                                   C=C))
                for width, C in plan.elm_cells]
    return [({"l_pca": l_pca, "width": width, "C": C},
             functools.partial(baselines.pca_elm_train, l_pca=l_pca,
                               width=width, C=C))
            for l_pca, width, C in plan.pca_cells]


def benchmark_rep(plan: BenchmarkPlan, rep: int) -> list:
    """All records for one repetition: fresh dataset, every model family and
    parameter cell, every gamma."""
    spec = synth.GeneratorSpec(n=plan.n, reading=plan.reading, seed=plan.seed)
    ds = synth.generate(spec, RngStream(plan.seed, (_FAMILY["data"], rep)))
    X = ds.X
    tr = slice(*synth.SEGMENTS["train"])
    records = []
    for model in plan.models:
        fam = _FAMILY[model]
        for params, train in _cells(plan, model):
            t0 = time.perf_counter()
            members = [train(X[tr], rng=RngStream(plan.seed, (fam, rep, m)))
                       for m in range(plan.ensemble_size)]
            dt = time.perf_counter() - t0
            # run_ensemble, not an ad-hoc mean: the train/calibrate/detect
            # pipeline must reproduce these numbers bitwise
            Y = helm.run_ensemble(members, X)
            records += _flag_records(model, params, plan, rep,
                                     detector.residuals(Y), dt)
    return records


def run_benchmark(plan: BenchmarkPlan, jobs: int = 1,
                  progress=None, report: ExperimentReport | None = None,
                  start_rep: int = 0) -> ExperimentReport:
    """Run the repeated experiment. With jobs > 1 repetitions run in worker
    processes; results are identical to the serial run because every
    repetition draws from its own substreams and records carry their rep id.

    A KeyboardInterrupt mid-run re-raises with the partial report attached to
    the exception as `exc.partial_report`, so callers can flush it."""
    report = report if report is not None else ExperimentReport()
    reps = range(start_rep, plan.reps)
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


def grid_plan(grid: dict, n: int = 5, reading: str = "identity",
              seed: int = 42, reps: int = 20) -> BenchmarkPlan:
    """The plan for a hyperparameter lattice. `grid` maps axis names to value
    lists: gammas, L1, L2, lam, C (hierarchical model), width (baseline
    hidden width), l_pca, models, and ensemble_size and p (first value used);
    missing axes use the shipped defaults. Cells are full cartesian products
    per model family."""
    d = BenchmarkPlan()
    g = {k: tuple(v) for k, v in grid.items()}
    unknown = set(g) - {"gammas", "L1", "L2", "lam", "C", "width", "l_pca",
                        "models", "ensemble_size", "p"}
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}")
    L1 = g.get("L1", (d.helm_cells[0][0],))
    L2 = g.get("L2", (d.helm_cells[0][1],))
    lam = g.get("lam", (d.helm_cells[0][2],))
    C = g.get("C", (d.helm_cells[0][3],))
    width = g.get("width", (d.elm_cells[0][0],))
    l_pca = g.get("l_pca", (d.pca_cells[0][0],))
    return BenchmarkPlan(
        n=n, reading=reading, seed=seed, reps=reps,
        gammas=g.get("gammas", d.gammas),
        p=g.get("p", (d.p,))[0],
        models=g.get("models", d.models),
        helm_cells=tuple(itertools.product(L1, L2, lam, C)),
        elm_cells=tuple(itertools.product(width, C)),
        pca_cells=tuple(itertools.product(l_pca, width, C)),
        ensemble_size=int(g.get("ensemble_size", (d.ensemble_size,))[0]))


def grid_sweep(grid: dict, n: int = 5, reading: str = "identity",
               seed: int = 42, reps: int = 20, jobs: int = 1,
               progress=None) -> ExperimentReport:
    """Run the repeated experiment over the lattice `grid_plan` builds from
    `grid`. Winning cells per the two reporting modes come from
    `winning_cells`."""
    return run_benchmark(grid_plan(grid, n, reading, seed, reps),
                         jobs=jobs, progress=progress)
