import csv
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helmfd import baselines, data, elm, fista, helm, metrics
from helmfd.metrics import (BenchmarkPlan, ExperimentReport, accuracy_table,
                            benchmark_rep, report_csv, run_benchmark,
                            score_rates, segment_flagged, sweep_csv,
                            winning_cells)


def count_calls(monkeypatch, fn):
    """Calls of fn through every helmfd module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    for mod in (data, elm, fista, helm, baselines, metrics):
        if vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def canon(record):
    """A record without its wall-clock train_seconds, which is the one
    field that may differ run to run (report rows have none); nan
    magnification maps to None so that it compares equal to itself."""
    return {k: None if isinstance(v, float) and np.isnan(v) else v
            for k, v in record.items() if k != "train_seconds"}


def _marked_rep(plan, rep):
    # stands in for metrics.benchmark_rep: leaves one marker file per
    # repetition, slowly enough that repetitions run after an interrupt show
    time.sleep(0.1)
    (Path(os.environ["TEST_REP_MARKS"]) / f"rep{rep}").touch()
    return [{"rep": rep}]


def flags(flag_count, size):
    out = np.zeros(size, dtype=bool)
    out[:flag_count] = True
    return out


def point_row(rates):
    """The report row of one record carrying these point rates: rows()
    derives TNR, FNR and the balanced accuracy from TPR and FPR."""
    rec = make_record(point_tpr=rates.tpr, point_fpr=rates.fpr)
    return ExperimentReport([rec]).rows()[0]


class TestScoreRates:
    def test_perfect_detector(self):
        r = score_rates(flags(0, 100), flags(50, 50))
        assert r.tpr == 1.0 and r.fpr == 0.0
        assert point_row(r)["point_accuracy"] == 1.0
        assert r.precision == 1.0
        assert r.f1 == 1.0

    def test_blind_detector(self):
        r = score_rates(flags(0, 100), flags(0, 50))
        assert r.tpr == 0.0 and r.fpr == 0.0
        assert point_row(r)["point_accuracy"] == 0.5
        assert r.precision == 0.0
        assert r.f1 == 0.0

    def test_reported_pair_rounds_to_its_accuracy(self):
        # a detector at TPR 0.891 / FPR 0 reports accuracy 0.95 after rounding
        r = score_rates(flags(0, 1000), flags(891, 1000))
        assert r.tpr == 0.891 and r.fpr == 0.0
        assert round(point_row(r)["point_accuracy"], 2) == 0.95

    def test_rates_recomputable_from_counts(self):
        rng = np.random.default_rng(0)
        healthy = rng.random(800) < 0.03
        fault = rng.random(500) < 0.4
        r = score_rates(healthy, fault)
        tp = int(fault.sum())
        fp = int(healthy.sum())
        assert r.tpr == tp / 500
        assert r.fpr == fp / 800
        row = point_row(r)
        assert r.tpr + row["point_fnr"] == 1.0
        assert r.fpr + row["point_tnr"] == 1.0
        assert row["point_accuracy"] == (r.tpr + 1.0 - r.fpr) / 2.0
        assert r.precision == tp / (tp + fp)
        assert r.f1 == 2 * tp / (500 + fp + tp)

    def test_rejects_empty_or_bad_labels(self):
        with pytest.raises(ValueError, match="empty"):
            score_rates(np.array([], dtype=bool), flags(1, 5))
        # +1/-1 labels would all read as flagged if cast to bool
        with pytest.raises(ValueError, match="boolean"):
            score_rates(flags(1, 5), np.array([1, -1, 1]))
        with pytest.raises(ValueError, match="boolean"):
            score_rates(np.array([1, 1, -1]), flags(1, 5))


class TestSegmentFlagged:
    def test_design_rate_boundary_is_strict(self):
        # p = 99.5 on 1000 points: the design false-alarm budget is 5 points;
        # 5 flags is expected noise, 6 is an alarm
        flags = np.zeros(1000, dtype=bool)
        flags[:5] = True
        assert not segment_flagged(flags, 99.5)
        flags[5] = True
        assert segment_flagged(flags, 99.5)

    def test_p100_alarms_on_any_flag(self):
        flags = np.zeros(100, dtype=bool)
        assert not segment_flagged(flags, 100.0)
        flags[7] = True
        assert segment_flagged(flags, 100.0)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            segment_flagged(np.array([], dtype=bool), 99.5)

    def test_labels_rejected(self):
        # +1/-1 labels would all read as flagged if cast to bool
        with pytest.raises(ValueError, match="boolean"):
            segment_flagged(np.ones(1000, dtype=int), 99.5)


def make_record(model="helm", rep=0, fault=1, gamma=1.5, **over):
    rec = {"model": model, "params": "C=1e-05", "n": 5, "reading": "identity",
           "gamma": gamma, "fault": fault, "rep": rep,
           "point_tpr": 0.5, "point_fpr": 0.01, "point_precision": 0.9,
           "point_f1": 0.6, "set_tp": 1, "set_fp": 0,
           "magnification": 2.0, "train_seconds": 0.1}
    rec.update(over)
    return rec


class TestExperimentReport:
    def test_aggregation_means_per_rep_rates(self):
        report = ExperimentReport([
            make_record(rep=0, point_tpr=0.4, set_tp=1),
            make_record(rep=1, point_tpr=0.8, set_tp=0)])
        row = report.rows()[0]
        assert row["reps"] == 2
        assert row["point_tpr"] == pytest.approx(0.6)
        assert row["set_tpr"] == pytest.approx(0.5)
        assert row["point_accuracy"] == pytest.approx((0.6 + 0.99) / 2)
        assert row["set_accuracy"] == pytest.approx(0.75)

    def test_magnification_skips_undetected_reps(self):
        report = ExperimentReport([
            make_record(rep=0, magnification=4.0),
            make_record(rep=1, magnification=float("nan"))])
        assert report.rows()[0]["magnification"] == pytest.approx(4.0)

    def test_rows_are_order_independent(self):
        recs = [make_record(rep=r, fault=f, point_tpr=0.1 * r)
                for r in range(4) for f in (1, 2)]
        shuffled = recs[:3] + recs[3:][::-1]
        assert (ExperimentReport(shuffled).rows()
                == ExperimentReport(recs).rows())

    def test_csv_deterministic(self, tmp_path):
        recs = [make_record(rep=r) for r in range(3)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report_csv(p1, ExperimentReport(recs).rows())
        report_csv(p2, ExperimentReport(recs[::-1]).rows())
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path):
        rows = ExperimentReport([make_record(rep=r) for r in range(3)]).rows()
        path = tmp_path / "report.csv"
        path.write_bytes(b"old bytes")
        # the good rows are written before the row with no keys raises
        with pytest.raises(KeyError):
            report_csv(path, [*rows * 1000, {}])
        assert path.read_bytes() == b"old bytes"
        assert list(tmp_path.iterdir()) == [path]

    def test_json_round_trip(self, tmp_path):
        recs = [make_record(rep=r, fault=f) for r in range(2) for f in (1, 3)]
        report = ExperimentReport(recs)
        path = tmp_path / "records.json"
        report.to_json(path)
        doc = json.loads(path.read_text())
        assert ExperimentReport(doc["records"]).rows() == report.rows()

    def test_table_mentions_accuracy_and_rates(self):
        # at the report's gamma closest to the shipped 1.5
        report = ExperimentReport([make_record(gamma=1.0, set_tp=0),
                                   make_record(gamma=1.7)])
        text = accuracy_table(report.rows())
        assert "gamma=1.7" in text
        assert "helm" in text
        assert "fault 1" in text
        assert "(100/0)" in text


class TestWinningCells:
    def test_single_cell_is_its_own_winner(self):
        report = ExperimentReport([make_record(rep=r, fault=f)
                                   for r in range(2) for f in (1, 2)])
        pick = winning_cells(report.rows(), "helm")
        assert pick == {"gamma": 1.5, "params": "C=1e-05", "accuracy": 1.0}

    def test_tie_breaks_to_lexicographically_first(self):
        recs = [make_record(gamma=g, fault=f) for g in (1.5, 2.0)
                for f in (1, 2)]
        pick = winning_cells(ExperimentReport(recs).rows(), "helm")
        assert pick["gamma"] == 1.5

    def test_argmax_prefers_higher_accuracy(self):
        recs = [make_record(gamma=1.5, fault=1, set_tp=0),
                make_record(gamma=2.0, fault=1, set_tp=1)]
        pick = winning_cells(ExperimentReport(recs).rows(), "helm")
        assert pick["gamma"] == 2.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            winning_cells(ExperimentReport([make_record()]).rows(), "svm")


class TestBenchmarkEngine:
    def test_single_rep_record_layout(self):
        plan = BenchmarkPlan(reps=1, gammas=(1.5,))
        recs = benchmark_rep(plan, 0)
        assert len(recs) == 3 * 5  # three models, five faults, one gamma
        models = {r["model"] for r in recs}
        assert models == {"helm", "elm", "pca-elm"}
        for r in recs:
            assert 0.0 <= r["point_tpr"] <= 1.0
            assert 0.0 <= r["point_fpr"] <= 1.0
            assert r["set_tp"] in (0, 1) and r["set_fp"] in (0, 1)
            assert r["train_seconds"] > 0.0
            assert r["n"] == 5 and r["reading"] == "identity"

    def test_degenerate_sweep_equals_direct_scoring(self, dataset0,
                                                    helm_ensemble0):
        # one cell per family, every gamma and fault; the reference scores
        # all 14000 rows and slices out the segments, where benchmark_rep
        # scores only the rows from val on
        from helmfd import synth
        from helmfd.data import RngStream
        from helmfd.detector import calibrate, decide, labels_of
        from helmfd.helm import run_ensemble

        plan = BenchmarkPlan(reps=1)
        X = dataset0.X
        tr = slice(*synth.SEGMENTS["train"])
        width, C, l_pca = plan.width[0], plan.C[0], plan.l_pca[0]
        families = {
            "helm": (helm_ensemble0, {"L1": plan.L1[0], "L2": plan.L2[0],
                                      "lam": plan.lam[0], "C": C}),
            "elm": (baselines.one_class_train_ensemble(
                X[tr], width, C, RngStream(plan.seed, (2, 0)),
                plan.ensemble_size), {"width": width, "C": C}),
            "pca-elm": (baselines.pca_elm_train_ensemble(
                X[tr], l_pca, width, C, RngStream(plan.seed, (3, 0)),
                plan.ensemble_size), {"l_pca": l_pca, "width": width, "C": C}),
        }
        assert set(families) == set(plan.models)
        lo = synth.SEGMENTS["val"][0]
        want = {}
        for model, (ensemble, params) in families.items():
            Y = run_ensemble(ensemble, X)
            assert run_ensemble(ensemble, X[lo:]).tobytes() == Y[lo:].tobytes()
            seg = {k: Y[slice(*v)] for k, v in synth.SEGMENTS.items()}
            for gamma in plan.gammas:
                cfg = calibrate(seg["val"], gamma=gamma, p=plan.p)
                fp = labels_of(decide(seg["fp"], cfg)) == -1
                for f in range(1, 6):
                    dets = decide(seg[f"fault{f}"], cfg)
                    fault = labels_of(dets) == -1
                    rates = score_rates(fp, fault)
                    mags = [d.magnification for d in dets if d.label == -1]
                    want[model, gamma, f] = {
                        "model": model, "params": metrics._params_str(params),
                        "n": plan.n, "reading": plan.reading,
                        "gamma": gamma, "fault": f, "rep": 0,
                        "point_tpr": rates.tpr, "point_fpr": rates.fpr,
                        "point_precision": rates.precision,
                        "point_f1": rates.f1,
                        "set_tp": int(segment_flagged(fault, plan.p)),
                        "set_fp": int(segment_flagged(fp, plan.p)),
                        "magnification": (float(np.mean(mags)) if mags
                                          else float("nan"))}
        got = {(r["model"], r["gamma"], r["fault"]): canon(r)
               for r in benchmark_rep(plan, 0)}
        assert len(got) == 3 * len(plan.gammas) * 5
        assert got == {k: canon(v) for k, v in want.items()}

    def test_rep_scores_only_the_rows_its_records_read(self, monkeypatch):
        # the records read rows [7000, 14000), val through fault 5; each of
        # the three ensembles scores those and no others
        rows = []
        run_ensemble = helm.run_ensemble

        def counted(models, X):
            rows.append(len(X))
            return run_ensemble(models, X)
        monkeypatch.setattr(helm, "run_ensemble", counted)
        plan = BenchmarkPlan()
        benchmark_rep(plan, 0)
        assert len(plan.models) == 3
        assert rows == [7000] * 3

    def test_rep_does_shared_training_work_once_per_ensemble(self,
                                                              monkeypatch):
        # counts work done, not time taken: every member of an ensemble
        # trains on one normalization, and the PCA-ELM members on one PCA
        norms = count_calls(monkeypatch, data.fit_normalization)
        pcas = count_calls(monkeypatch, baselines.pca_fit)
        plan = BenchmarkPlan()
        benchmark_rep(plan, 0)
        assert len(plan.models) == 3 and plan.ensemble_size == 5
        assert len(norms) == 3
        assert len(pcas) == 1

    def test_rep_takes_each_validation_percentile_once(self, monkeypatch):
        # the percentile does not depend on gamma: one per family, where a
        # percentile per family and gamma would be 24
        calls = []
        percentile = np.percentile

        def counted(*args, **kwargs):
            calls.append(1)
            return percentile(*args, **kwargs)
        monkeypatch.setattr(np, "percentile", counted)
        plan = BenchmarkPlan()
        benchmark_rep(plan, 0)
        assert len(plan.models) == 3 and len(plan.gammas) == 8
        assert len(calls) == 3

    def test_inputs_are_checked_once_where_they_enter(self, monkeypatch):
        # per family one check of the training matrix as it enters the
        # ensemble trainer and one of the timeline as it enters run_ensemble;
        # the kernels behind them check nothing again
        checks = count_calls(monkeypatch, data.as_matrix)
        plan = BenchmarkPlan()
        benchmark_rep(plan, 0)
        assert len(checks) == 2 * len(plan.models)
        X = np.random.default_rng(0).normal(size=(20, 3))
        ensemble = baselines.one_class_train_ensemble(X, 4, 1e-5,
                                                      data.RngStream(0), 5)
        checks.clear()
        helm.run_ensemble(ensemble, X[:1])
        assert len(checks) == 1

    def test_parallel_run_matches_serial(self):
        # every family, at one BLAS thread, which fork_map's workers
        # inherit; the thread count is read when OpenBLAS loads, hence the
        # subprocess
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(metrics.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\n"
             "from helmfd.metrics import BenchmarkPlan, run_benchmark\n"
             "plan = BenchmarkPlan(reps=2, gammas=(1.5,))\n"
             "json.dump([run_benchmark(plan, jobs=j).rows() for j in (1, 2)],"
             " sys.stdout)"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        serial, parallel = json.loads(proc.stdout)
        assert {r["model"] for r in serial} == set(metrics.FAMILIES)
        assert [canon(r) for r in serial] == [canon(r) for r in parallel]

    def test_grid_sweep_runs_lattice(self):
        report = run_benchmark(BenchmarkPlan(reps=1, gammas=(1.2, 1.5),
                                             width=(50, 100), models=("elm",)))
        rows = report.rows()
        cells = {(r["params"], r["gamma"]) for r in rows}
        assert len(cells) == 4
        pick = winning_cells(rows, "elm")
        assert pick["params"] in {p for p, _ in cells}

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(reps=0)
        with pytest.raises(ValueError):
            BenchmarkPlan(gammas=(0.0,))
        with pytest.raises(ValueError):
            BenchmarkPlan(models=("helm", "svm"))
        with pytest.raises(ValueError):
            BenchmarkPlan(models=())
        with pytest.raises(ValueError):
            BenchmarkPlan(models=("elm",), L1=())
        with pytest.raises(TypeError):
            BenchmarkPlan(bogus=(1,))

    @pytest.mark.parametrize("axis", ["models", "gammas", "L1", "L2", "lam",
                                      "C", "width", "l_pca"])
    def test_plan_rejects_a_repeated_axis_value(self, axis):
        # two equal values would make two cells under one report key
        value = getattr(BenchmarkPlan, axis)[0]
        with pytest.raises(ValueError, match=f"{axis} repeats a value"):
            BenchmarkPlan(**{axis: (value, value)})

    def test_grid_sweep_csv_keys_are_unique(self, tmp_path):
        plan = BenchmarkPlan(reps=1, gammas=(1.5,), L1=(10, 20),
                             C=(1e-5, 1e-4), width=(50, 100), l_pca=(5, 10),
                             ensemble_size=1)
        sweep_csv(tmp_path / "sweep.csv", run_benchmark(plan).rows())
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(r["model"], r["params"], r["gamma"], r["fault"])
                for r in rows]
        # 4 HELM, 4 ELM and 8 PCA-ELM cells, one gamma, five faults
        assert len(keys) == (4 + 4 + 8) * 5
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_keeps_the_finished_repetitions(self, jobs):
        plan = BenchmarkPlan(reps=2, gammas=(1.5,), models=("elm",),
                             ensemble_size=1)

        def progress(rep):
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt) as info:
            run_benchmark(plan, jobs=jobs, progress=progress)
        partial = info.value.partial_report.records
        assert ([canon(r) for r in partial]
                == [canon(r) for r in benchmark_rep(plan, 0)])

    def test_interrupt_drops_the_queued_repetitions(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("TEST_REP_MARKS", str(tmp_path))
        monkeypatch.setattr(metrics, "benchmark_rep", _marked_rep)
        plan = BenchmarkPlan(reps=24, gammas=(1.5,), models=("elm",),
                             ensemble_size=1)

        def progress(rep):
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt) as info:
            run_benchmark(plan, jobs=2, progress=progress)
        assert info.value.partial_report.records == [{"rep": 0}]
        assert multiprocessing.active_children() == []
        assert len(list(tmp_path.iterdir())) < plan.reps

    def test_cells_follow_product_order(self):
        # pins the params strings of report.csv: one record per cell, cells
        # in itertools.product order of each family's axes
        plan = BenchmarkPlan(reps=1, gammas=(1.5,), L1=(10, 20),
                             C=(1e-5, 1e-4), width=(50, 100), ensemble_size=1)
        params = {m: [] for m in plan.models}
        for r in benchmark_rep(plan, 0):
            if r["fault"] == 1:
                params[r["model"]].append(r["params"])
        assert params["helm"] == [
            f"C={C!r};L1={L1!r};L2=100;lam=0.0"
            for L1, C in itertools.product((10, 20), (1e-5, 1e-4))]
        assert params["elm"] == [
            f"C={C!r};width={w!r}"
            for w, C in itertools.product((50, 100), (1e-5, 1e-4))]
        assert params["pca-elm"] == [
            f"C={C!r};l_pca=10;width={w!r}"
            for w, C in itertools.product((50, 100), (1e-5, 1e-4))]
