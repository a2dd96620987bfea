import itertools

import numpy as np
import pytest

from helmfd import baselines, data, elm, fista, helm, metrics
from helmfd.metrics import (BenchmarkPlan, ExperimentReport, benchmark_rep,
                            run_benchmark, score_rates, segment_flagged,
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


def flags(flag_count, size):
    out = np.zeros(size, dtype=bool)
    out[:flag_count] = True
    return out


class TestScoreRates:
    def test_perfect_detector(self):
        r = score_rates(flags(0, 100), flags(50, 50))
        assert r.tpr == 1.0 and r.fpr == 0.0
        assert r.tnr == 1.0 and r.fnr == 0.0
        assert r.accuracy == 1.0
        assert r.precision == 1.0
        assert r.f1 == 1.0

    def test_blind_detector(self):
        r = score_rates(flags(0, 100), flags(0, 50))
        assert r.tpr == 0.0 and r.fpr == 0.0
        assert r.accuracy == 0.5
        assert r.precision == 0.0
        assert r.f1 == 0.0

    def test_reported_pair_rounds_to_its_accuracy(self):
        # a detector at TPR 0.891 / FPR 0 reports accuracy 0.95 after rounding
        r = score_rates(flags(0, 1000), flags(891, 1000))
        assert r.tpr == 0.891 and r.fpr == 0.0
        assert round(r.accuracy, 2) == 0.95

    def test_rates_recomputable_from_counts(self):
        rng = np.random.default_rng(0)
        healthy = rng.random(800) < 0.03
        fault = rng.random(500) < 0.4
        r = score_rates(healthy, fault)
        tp = int(fault.sum())
        fp = int(healthy.sum())
        assert r.tpr == tp / 500
        assert r.fpr == fp / 800
        assert r.tpr + r.fnr == 1.0
        assert r.fpr + r.tnr == 1.0
        assert r.accuracy == (r.tpr + r.tnr) / 2.0
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
        report = ExperimentReport()
        report.add(**make_record(rep=0, point_tpr=0.4, set_tp=1))
        report.add(**make_record(rep=1, point_tpr=0.8, set_tp=0))
        row = report.rows()[0]
        assert row["reps"] == 2
        assert row["point_tpr"] == pytest.approx(0.6)
        assert row["set_tpr"] == pytest.approx(0.5)
        assert row["point_accuracy"] == pytest.approx((0.6 + 0.99) / 2)
        assert row["set_accuracy"] == pytest.approx(0.75)

    def test_magnification_skips_undetected_reps(self):
        report = ExperimentReport()
        report.add(**make_record(rep=0, magnification=4.0))
        report.add(**make_record(rep=1, magnification=float("nan")))
        assert report.rows()[0]["magnification"] == pytest.approx(4.0)

    def test_merge_is_order_independent(self):
        recs = [make_record(rep=r, fault=f, point_tpr=0.1 * r)
                for r in range(4) for f in (1, 2)]
        whole = ExperimentReport(recs)
        a = ExperimentReport(recs[:3])
        b = ExperimentReport(recs[3:][::-1])
        a.merge(b)
        assert a.rows() == whole.rows()

    def test_csv_deterministic(self, tmp_path):
        recs = [make_record(rep=r) for r in range(3)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ExperimentReport(recs).to_csv(p1)
        ExperimentReport(recs[::-1]).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        recs = [make_record(rep=r, fault=f) for r in range(2) for f in (1, 3)]
        report = ExperimentReport(recs)
        path = tmp_path / "records.json"
        report.to_json(path)
        assert ExperimentReport.from_json(path).rows() == report.rows()

    def test_table_mentions_accuracy_and_rates(self):
        report = ExperimentReport([make_record()])
        text = report.table(gamma=1.5)
        assert "helm" in text
        assert "fault 1" in text
        assert "(100/0)" in text

    def test_add_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            ExperimentReport().add(model="helm")


class TestWinningCells:
    def test_single_cell_is_its_own_winner(self):
        report = ExperimentReport([make_record(rep=r, fault=f)
                                   for r in range(2) for f in (1, 2)])
        pick = winning_cells(report, "helm")
        assert pick["mean"]["gamma"] == 1.5
        assert pick["per_fault"][1]["params"] == "C=1e-05"

    def test_tie_breaks_to_lexicographically_first(self):
        recs = [make_record(gamma=g, fault=f) for g in (1.5, 2.0)
                for f in (1, 2)]
        pick = winning_cells(ExperimentReport(recs), "helm")
        assert pick["mean"]["gamma"] == 1.5

    def test_argmax_prefers_higher_accuracy(self):
        recs = [make_record(gamma=1.5, fault=1, set_tp=0),
                make_record(gamma=2.0, fault=1, set_tp=1)]
        pick = winning_cells(ExperimentReport(recs), "helm")
        assert pick["mean"]["gamma"] == 2.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            winning_cells(ExperimentReport([make_record()]), "svm")


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
        from helmfd import synth
        from helmfd.detector import calibrate, decide, labels_of
        from helmfd.helm import run_ensemble

        plan = BenchmarkPlan(reps=1, gammas=(1.5,), models=("helm",))
        rec = [r for r in benchmark_rep(plan, 0) if r["fault"] == 2][0]

        Y = run_ensemble(helm_ensemble0, dataset0.X)
        val = slice(*synth.SEGMENTS["val"])
        fp = slice(*synth.SEGMENTS["fp"])
        f2 = slice(*synth.SEGMENTS["fault2"])
        cfg = calibrate(Y[val], gamma=1.5, p=99.5)
        healthy = labels_of(decide(Y[fp], cfg)) == -1
        fault = labels_of(decide(Y[f2], cfg)) == -1
        direct = score_rates(healthy, fault)
        assert rec["point_tpr"] == direct.tpr
        assert rec["point_fpr"] == direct.fpr
        assert rec["point_precision"] == direct.precision
        assert rec["point_f1"] == direct.f1

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
        plan = BenchmarkPlan(reps=2, gammas=(1.5,), models=("elm",))
        serial = run_benchmark(plan, jobs=1)
        parallel = run_benchmark(plan, jobs=2)
        # train_seconds is wall clock, everything else must agree exactly
        # (nan magnification mapped to None so it compares equal to itself)
        def canon(rows):
            return [{k: None if isinstance(v, float) and np.isnan(v) else v
                     for k, v in r.items() if k != "train_seconds"}
                    for r in rows]
        assert canon(serial.rows()) == canon(parallel.rows())

    def test_grid_sweep_runs_lattice(self):
        report = run_benchmark(BenchmarkPlan(reps=1, gammas=(1.2, 1.5),
                                             width=(50, 100), models=("elm",)))
        rows = report.rows()
        cells = {(r["params"], r["gamma"]) for r in rows}
        assert len(cells) == 4
        pick = winning_cells(report, "elm")
        assert pick["mean"]["params"] in {p for p, _ in cells}

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
            f"C={C!r};L1={L1!r};L2=100;lam=0.01"
            for L1, C in itertools.product((10, 20), (1e-5, 1e-4))]
        assert params["elm"] == [
            f"C={C!r};width={w!r}"
            for w, C in itertools.product((50, 100), (1e-5, 1e-4))]
        assert params["pca-elm"] == [
            f"C={C!r};l_pca=10;width={w!r}"
            for w, C in itertools.product((50, 100), (1e-5, 1e-4))]
