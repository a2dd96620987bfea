"""Tests of the benchmark harness itself (not collected by the package's own
test suite). Run with: python3 -m pytest bench/tests -q"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from helmfd import detector, elm, helm  # noqa: E402
from helmfd.data import write_csv_matrix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S(0, None, "root", 0.0, 10.0),
        S(1, 0, "a", 1.0, 4.0),
        S(2, 1, "a.child", 2.0, 3.0),
        S(3, 0, "b", 5.0, 9.0),
        S(4, 3, "b.x", 5.0, 7.0),
        S(5, 3, "b.y", 6.0, 8.0),       # overlaps b.x: covered once
        S(6, 3, "b.z", 8.5, 12.0),      # runs past its parent: clipped
    ]
    got = tracing.self_times(spans)
    assert got == {0: 3.0, 1: 2.0, 2: 1.0, 3: 0.5, 4: 2.0, 5: 2.0, 6: 3.5}


def test_fold_sums_self_time_and_counts():
    tr = tracing.Tracer()
    tr.spans = [tracing.Span(0, None, "fista.solve", 0.0, 2.0,
                             {"iterations": 500, "converged": 0}),
                tracing.Span(1, None, "fista.solve", 3.0, 4.0,
                             {"iterations": 20, "converged": 1})]
    tr.fold()
    assert tr.spans == []
    assert tr.totals["fista.solve"] == {"self_s": 3.0, "total_s": 3.0, "calls": 2,
                                        "iterations": 520, "converged": 1}
    m = tracing.layer_metrics(tr.totals, ops=2, overhead_s=0.0)
    assert m["fista.solve.self_s"] == (1.5, "s")
    assert m["fista.iterations"] == (260.0, "count")
    assert m["fista.converged_ratio"] == (0.5, "ratio")


def test_wrappers_reach_every_binding_and_are_removed():
    original = elm.hidden
    tr = tracing.Tracer()
    with tr.installed():
        assert helm.hidden is elm.hidden is not original
    assert helm.hidden is elm.hidden is original


def test_layer_metric_names_match_benchmark_json():
    names = set(tracing.layer_metrics({}, 1, 0.0))
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMED)


@pytest.mark.parametrize("name", ["sweep", "pipeline", "stream"])
def test_minimal_run_reports_every_metric_with_unit(name):
    wl = workloads.WORKLOADS[name](3, ROOT)
    try:
        result = run.run_workload(wl, seconds=0.0, trace=False, min_units=1)
    finally:
        wl.close()
    assert result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for metric in run.END_TO_END:
        value, unit, n = result["figures"][metric]
        assert unit == units[metric] and value > 0 and n >= 1
    for metric in run.NAMED[name]:
        value, unit, n = result["figures"][metric]
        assert unit


class Heavy(workloads.Workload):
    """A stand-in workload with a large set-up peak and a small operation."""
    min_units = 1

    def setup(self):
        np.ones(40_000_000).sum()           # a 320 MB transient peak
        return {}

    def unit(self, k):
        self.x = np.ones(5_000_000)         # 40 MB held by the operation
        return [workloads.Sample("op", 1.0, True, 1.0)]

    def summary(self, units, setups):
        return {}


def test_peak_rss_covers_the_operations_not_the_setup():
    result = run.run_workload(Heavy(0, ROOT), seconds=0.0, trace=False)
    assert 40 < result["figures"]["peak_rss_mb"][0] < 300
    assert run.peak_rss_mb() > 320


def test_missing_traced_function_fails_the_traced_run(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, ("helm", "no_such_function"), "helm.gone")
    with pytest.raises(LookupError, match="helm.no_such_function"):
        with tracing.Tracer().installed():
            pass
    with pytest.raises(RuntimeError, match="measuring process failed"):
        run.run_workload(Heavy(0, ROOT), seconds=0.0, trace=True)


def test_traced_stream_run_reports_every_layer_metric():
    wl = workloads.Stream(3, ROOT)
    result = run.run_workload(wl, seconds=0.0, trace=True, min_units=2)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (v, u) in result["layers"].items()} == units
    assert result["missing_layers"] == []
    assert result["layers"]["helm.run_ensemble.rows"][0] == pytest.approx(1100 / 101)
    assert result["layers"]["fista.solve.calls"][0] == 0


def test_flipped_label_is_a_failed_operation_and_not_timed():
    wl = workloads.Stream(4, ROOT)
    score, calls = wl.score, []

    def corrupt(rows):
        dets = score(rows)
        calls.append(len(rows))
        if len(calls) == 3:
            d = dets[0]
            dets[0] = type(d)(score=d.score, label=-d.label,
                              magnification=d.magnification)
        return dets

    wl.setup()
    wl.score = corrupt
    units = [(False, wl.unit(0))]
    failed = [s for _, samples in units for s in samples if not s.ok]
    assert len(failed) == 1 and failed[0].kind == "single"
    figures = wl.summary(units, [{"train_s": 1.0}])
    assert figures["sample_ms.p50"][2] == wl.SINGLES - 1


def test_changed_record_fails_the_sweep_rerun_check():
    rec = {"model": "helm", "magnification": float("nan"), "train_seconds": 1.0,
           "point_tpr": 0.5}
    same = dict(rec, train_seconds=2.0)
    assert workloads.Sweep.same_records([rec], [same])
    assert not workloads.Sweep.same_records([rec], [dict(rec, point_tpr=0.6)])


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "tracing.py", "workloads.py", "reference.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_pipeline_check_rejects_one_flipped_label(tmp_path):
    wl = workloads.Pipeline(5, ROOT)
    try:
        wl.setup()
    finally:
        wl.close()
    write_csv_matrix(tmp_path / "data.csv", wl.X)
    dets = [detector.Detection(score=float(s), label=int(l), magnification=1.0)
            for s, l in zip(wl.ref_scores, wl.ref_labels)]
    detector.write_detections_csv(tmp_path / "detections.csv", dets)
    assert wl.check(tmp_path)
    dets[100] = detector.Detection(score=dets[100].score, label=-dets[100].label,
                                   magnification=1.0)
    detector.write_detections_csv(tmp_path / "detections.csv", dets)
    assert not wl.check(tmp_path)


def test_scaling_cancels_the_host_speed():
    nominal = reference.NOMINAL_S["single"]
    # The host at half speed: every call and the kernel next to it take twice
    # as long, so the scaled times equal those at the nominal speed.
    slow = [workloads.Sample("single", 2 * t, True, 2 * nominal) for t in (1, 2, 9)]
    assert workloads.paired(slow, "single") == pytest.approx(2.0)
    assert workloads.host_speed(slow, "single")[0] == pytest.approx(0.5)
    nominal = reference.NOMINAL_S["training"]
    # Long operations: the median time over the mean kernel time of the run.
    assert workloads.pooled([4.0, 8.0, 6.0], [nominal, 3 * nominal],
                            "training") == pytest.approx(3.0)


def test_reference_kernels_are_deterministic():
    scorer = reference.Scorer(10)
    a, b = scorer.score(scorer.rows), scorer.score(scorer.rows)
    assert a == b and len(a) == 10
    assert {d.label for d in a} <= {1, -1}
    csv = reference.CsvRoundTrip()
    assert workloads.bitwise_equal(csv(), csv.X)
    assert reference.Training(700)() == reference.Training(700)()
