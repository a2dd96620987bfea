import argparse
import csv
import json
import multiprocessing
import os
import time
from operator import setitem
from pathlib import Path

import numpy as np
import pytest

from helmfd import cli, data, detector, helm, metrics, synth
from helmfd.data import RngStream, read_csv_matrix, write_csv_matrix

BENCH_SEED = 42


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """One full generate / train / calibrate pass with the shipped defaults,
    shared by the pipeline tests."""
    ws = tmp_path_factory.mktemp("cli_ws")
    assert run(["generate", "--out", str(ws), "--seed", str(BENCH_SEED),
                "--rep", "0"]) == 0
    model = ws / "model.json"
    assert run(["train", "--data", str(ws / "train.csv"),
                "--model", str(model), "--seed", str(BENCH_SEED),
                "--rep", "0"]) == 0
    assert run(["calibrate", "--model", str(model),
                "--data", str(ws / "val.csv"), "--gamma", "1.5"]) == 0
    return ws


def read_detections(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    labels = np.array([int(r["label"]) for r in rows])
    mags = np.array([float(r["magnification"]) for r in rows])
    return labels, mags


def test_generate_writes_dataset_and_splits(workspace):
    with open(workspace / "data.csv") as fh:
        assert sum(1 for _ in fh) == 14001
    for name in ("train.csv", "val.csv", "fp_test.csv", "fault1.csv",
                 "fault5.csv", "provenance.json", "generate_config.json"):
        assert (workspace / name).exists()
    echo = json.loads((workspace / "generate_config.json").read_text())
    assert echo["command"] == "generate"
    assert echo["seed"] == BENCH_SEED
    assert echo["n"] == 5


def test_split_files_are_line_ranges_of_data_csv(workspace):
    lines = (workspace / "data.csv").read_bytes().splitlines(keepends=True)
    for name, (a, b) in synth.SEGMENTS.items():
        want = lines[0] + b"".join(lines[1 + a:1 + b])
        assert (workspace / synth.SPLIT_FILES[name]).read_bytes() == want


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["generate", "--out", str(out), "--seed", "7"]) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "provenance.json").read_bytes() == (b / "provenance.json").read_bytes()


def test_generate_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "data.csv").write_text("stub\n")
    assert run(["generate", "--out", str(out)]) == cli.EXIT_IO
    assert "force" in capsys.readouterr().err
    assert (out / "data.csv").read_text() == "stub\n"


def test_generate_rejects_off_menu_n(tmp_path, capsys):
    assert run(["generate", "--out", str(tmp_path / "x"), "--n", "7"]) == cli.EXIT_USAGE
    assert "--allow-any-n" in capsys.readouterr().err


def test_generate_any_n_override(tmp_path):
    out = tmp_path / "n7"
    assert run(["generate", "--out", str(out), "--n", "7",
                "--allow-any-n"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["spec"]["n"] == 7


def test_missing_data_file_is_io_error(tmp_path, capsys):
    assert run(["train", "--data", str(tmp_path / "nope.csv"),
                "--model", str(tmp_path / "m.json")]) == cli.EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_detect_before_calibrate_errors(workspace, tmp_path, capsys):
    model = tmp_path / "fresh.json"
    assert run(["train", "--data", str(workspace / "val.csv"),
                "--model", str(model), "--layers", "4,10",
                "--ensemble", "1"]) == 0
    code = run(["detect", "--model", str(model),
                "--data", str(workspace / "val.csv"),
                "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_USAGE
    assert "uncalibrated" in capsys.readouterr().err


def test_schema_mismatch_names_columns(workspace, tmp_path, capsys):
    bad = tmp_path / "narrow.csv"
    bad.write_text("a,b\n1.0,2.0\n")
    code = run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(bad), "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "200" in err and "2" in err


def test_duplicate_column_name_is_io_error(workspace, tmp_path, capsys):
    lines = (workspace / "val.csv").read_text().splitlines(keepends=True)
    header = lines[0].split(",")
    header[1] = header[0]
    dup = tmp_path / "dup.csv"
    dup.write_text(",".join(header) + "".join(lines[1:]))
    code = run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(dup), "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_IO
    assert f"column 2 repeats the name '{header[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "d" / "detections.csv").exists()


def _exit_at_once(X, start):
    # stands in for data._format_rows in a worker that dies
    os._exit(1)


def test_generate_with_a_dying_worker_is_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(data, "_format_rows", _exit_at_once)
    assert run(["generate", "--out", str(tmp_path)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"I/O error: {tmp_path / synth.DATA_FILE}: a worker process" in err


# each replaces one input of `calibrate` with these bytes, and names the
# message that follows the file's name
NAMED_ONCE = {
    "unparsable_csv": ("data", b"a,b\n1.0,2.0\n3.0,x\n",
                       "row 3, column 2 (b): cannot parse 'x'"),
    "latin1_csv": ("data", b"a,b\n1.0,2.0\n3.0,4.\xe9\n",
                   "row 3 is not UTF-8 text (invalid continuation byte)"),
    "duplicate_header": ("data", b"a,a\n1.0,2.0\n",
                         "column 2 repeats the name 'a'"),
    "field_over_csv_limit": ("data", b'a,b\n1.0,"' + b"2" * 200000 + b'"\n',
                             "row 2: field larger than field limit (131072)"),
    "not_a_model": ("model", b'{"format": "other"}\n',
                    "not a readable model file "
                    "(not a helmfd-model-v1 document)"),
}


@pytest.mark.parametrize("role, raw, message", NAMED_ONCE.values(),
                         ids=NAMED_ONCE.keys())
def test_io_error_names_its_file_once(workspace, tmp_path, capsys, role, raw,
                                      message):
    files = {"model": tmp_path / "model.json", "data": tmp_path / "data.csv"}
    files["model"].write_bytes((workspace / "model.json").read_bytes())
    files["data"].write_bytes((workspace / "val.csv").read_bytes())
    files[role].write_bytes(raw)
    assert run(["calibrate", "--model", str(files["model"]),
                "--data", str(files["data"])]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err == f"I/O error: {files[role]}: {message}\n"


def _drop_last_column(m):
    # the member rebuilt for one input column fewer: consistent on its own
    m["norm"] = {k: v[:-1] for k, v in m["norm"].items()}
    m["ae_betas"][0] = [row[:-1] for row in m["ae_betas"][0]]


def _drop_last_feature(m):
    # the member with one first-layer feature fewer: consistent on its own
    m["ae_betas"][0].pop()
    m["top_layer"]["A"].pop()


NAN, INF = float("nan"), float("inf")

# each takes the model document and corrupts it in place
CORRUPTIONS = {
    "map_row_dropped": lambda d: d["members"][1]["ae_betas"][0].pop(),
    "head_A_row_dropped": lambda d: d["members"][1]["top_layer"]["A"].pop(),
    "head_A_not_a_matrix":
        lambda d: setitem(d["members"][1]["top_layer"], "A", [1.0] * 100),
    "head_beta_row_dropped":
        lambda d: d["members"][1]["top_layer"]["beta"].pop(),
    "norm_mean_entry_dropped": lambda d: d["members"][1]["norm"]["mean"].pop(),
    "nan_in_norm_std":
        lambda d: setitem(d["members"][1]["norm"]["std"], 3, NAN),
    "nan_in_head_beta":
        lambda d: setitem(d["members"][1]["top_layer"]["beta"], 3, [NAN]),
    "nan_in_head_A":
        lambda d: setitem(d["members"][1]["top_layer"]["A"][4], 7, NAN),
    "inf_in_head_B":
        lambda d: setitem(d["members"][1]["top_layer"]["B"], 9, INF),
    "inf_in_map":
        lambda d: setitem(d["members"][1]["ae_betas"][0][2], 5, INF),
    "no_members": lambda d: setitem(d, "members", []),
    "maps_not_a_list": lambda d: setitem(d["members"][1], "ae_betas", 5),
    "mixed_widths":
        lambda d: _drop_last_column(d["members"][0]),
    # members consistent on their own that do not form one ensemble
    "mixed_norm_mean":
        lambda d: setitem(d["members"][1]["norm"]["mean"], 0,
                          d["members"][1]["norm"]["mean"][0] + 1.0),
    "mixed_L1": lambda d: _drop_last_feature(d["members"][1]),
    "mixed_config":
        lambda d: setitem(d["members"][1]["config"], "C",
                          10 * d["members"][1]["config"]["C"]),
    # a config block must name exactly HelmConfig's fields
    "config_extra_key":
        lambda d: [setitem(m["config"], "bogus", 1) for m in d["members"]],
    "config_key_missing":
        lambda d: [m["config"].pop("seed") for m in d["members"]],
    # a config block, alike in every member, that does not fit the model
    "config_layer_sizes_not_the_layers":
        lambda d: [setitem(m["config"], "layer_sizes", [7, 9])
                   for m in d["members"]],
    "config_seed_string":
        lambda d: [setitem(m["config"], "seed", "x") for m in d["members"]],
    "config_lam_bool":
        lambda d: [setitem(m["config"], "lam", True) for m in d["members"]],
    "config_ensemble_size_fractional":
        lambda d: [setitem(m["config"], "ensemble_size", 2.5)
                   for m in d["members"]],
    "head_identity_activation":
        lambda d: setitem(d["members"][1]["top_layer"], "activation",
                          "identity"),
    # every head alike, so the members still stack
    "all_heads_identity_activation":
        lambda d: [setitem(m["top_layer"], "activation", "identity")
                   for m in d["members"]],
    # the detector block
    "threshold_string":
        lambda d: setitem(d["detector"], "threshold", "0.1"),
    "gamma_missing": lambda d: d["detector"].pop("gamma"),
    "detector_a_list":
        lambda d: setitem(d, "detector", list(d["detector"].values())),
    "gamma_negative": lambda d: setitem(d["detector"], "gamma", -1.0),
    "threshold_nan": lambda d: setitem(d["detector"], "threshold", NAN),
    "threshold_zero": lambda d: setitem(d["detector"], "threshold", 0.0),
    "threshold_negative": lambda d: setitem(d["detector"], "threshold", -0.5),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_corrupt_model_is_io_error(workspace, tmp_path, capsys, corrupt):
    doc = json.loads((workspace / "model.json").read_text())
    CORRUPTIONS[corrupt](doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = run(["detect", "--model", str(model),
                "--data", str(workspace / "val.csv"),
                "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_IO
    assert str(model) in capsys.readouterr().err


def test_invalid_gamma_is_usage_error(workspace, capsys):
    model = workspace / "model.json"
    before = model.read_bytes()
    code = run(["calibrate", "--model", str(model),
                "--data", str(workspace / "val.csv"), "--gamma", "-1"])
    assert code == cli.EXIT_USAGE
    assert "gamma must be > 0" in capsys.readouterr().err
    assert model.read_bytes() == before


def test_one_row_calibration_is_numerical_error(workspace, tmp_path, capsys):
    # a percentile of one residual is no calibration
    one_row = tmp_path / "one_row.csv"
    with open(workspace / "val.csv") as fh:
        one_row.write_text(fh.readline() + fh.readline())
    code = run(["calibrate", "--model", str(workspace / "model.json"),
                "--data", str(one_row)])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical error: validation vector" in capsys.readouterr().err


def test_error_codes_are_distinct():
    assert len({cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO,
                cli.EXIT_NUMERICAL}) == 4


def test_detect_on_calibration_data_respects_design_rate(workspace, tmp_path):
    out = tmp_path / "selfcheck"
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "val.csv"),
                "--out", str(out)]) == 0
    labels, _ = read_detections(out / "detections.csv")
    rate = float(np.mean(labels == -1))
    assert rate <= (1.0 - 99.5 / 100.0) + 0.005


def test_detect_on_fault2_magnifies(workspace, tmp_path):
    # the amplitude fault must ring above the design false-alarm count
    # (> 5 of 1000 at p = 99.5), and flagged points sit above threshold
    out = tmp_path / "fault2"
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "fault2.csv"),
                "--out", str(out)]) == 0
    labels, mags = read_detections(out / "detections.csv")
    flagged = labels == -1
    assert int(flagged.sum()) > 5
    assert float(mags[flagged].mean()) > 1.0
    echo = json.loads((out / "detect_config.json").read_text())
    assert echo["command"] == "detect"
    assert echo["threshold"] > 0
    assert "seed" not in echo  # detect draws no random numbers


def test_detect_flags_an_extreme_row(workspace, tmp_path):
    # +-1e6 on every channel drives the head's pre-activations past where
    # exp(-z) overflows; detect scores the row without a warning and flags it
    header, _ = read_csv_matrix(workspace / "val.csv")
    data = tmp_path / "extreme.csv"
    write_csv_matrix(data, 1e6 * np.where(np.arange(len(header)) % 2, -1.0,
                                          1.0)[None, :], header=header)
    out = tmp_path / "extreme"
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(data), "--out", str(out)]) == 0
    labels, mags = read_detections(out / "detections.csv")
    assert labels.tolist() == [-1]
    assert np.all(np.isfinite(mags))


def test_pipeline_reproduces_benchmark_cell(workspace, tmp_path):
    plan = metrics.BenchmarkPlan(reps=1, gammas=(1.5,), models=("helm",))
    rec = [r for r in metrics.benchmark_rep(plan, 0) if r["fault"] == 2][0]

    # the data file is the benchmark's timeline, bitwise
    ds = synth.generate(synth.GeneratorSpec(seed=BENCH_SEED),
                        RngStream(BENCH_SEED, (0, 0)))
    _, X = read_csv_matrix(workspace / "data.csv")
    assert X.tobytes() == ds.X.tobytes()

    out = tmp_path / "cell"
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "fault2.csv"),
                "--out", str(out)]) == 0
    labels, _ = read_detections(out / "detections.csv")
    assert float(np.mean(labels == -1)) == rec["point_tpr"]
    # detect's scores are the in-process ensemble's, bitwise
    ensemble = helm.train_ensemble(ds.X[slice(*synth.SEGMENTS["train"])],
                                   helm.HelmConfig(seed=BENCH_SEED),
                                   RngStream(BENCH_SEED, (1, 0)))
    Y = helm.run_ensemble(ensemble, ds.X[slice(*synth.SEGMENTS["fault2"])])
    with open(out / "detections.csv") as fh:
        scores = np.array([float(r["score"]) for r in csv.DictReader(fh)])
    assert scores.tobytes() == detector.residuals(Y).tobytes()

    fpout = tmp_path / "cell_fp"
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "fp_test.csv"),
                "--out", str(fpout)]) == 0
    fp_labels, _ = read_detections(fpout / "detections.csv")
    assert float(np.mean(fp_labels == -1)) == rec["point_fpr"]


def test_env_var_supplies_output_dir(workspace, tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUT_ENV, str(envdir))
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "val.csv")]) == 0
    assert (envdir / "detections.csv").exists()


def test_missing_out_dir_is_usage_error(workspace, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUT_ENV, raising=False)
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "val.csv")]) == cli.EXIT_USAGE
    assert cli.OUT_ENV in capsys.readouterr().err


def test_detect_names_a_corrupt_model_before_a_missing_out_dir(
        workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUT_ENV, raising=False)
    doc = json.loads((workspace / "model.json").read_text())
    CORRUPTIONS["mixed_config"](doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert run(["detect", "--model", str(model),
                "--data", str(workspace / "val.csv")]) == cli.EXIT_IO
    assert str(model) in capsys.readouterr().err


def test_benchmark_writes_reports(tmp_path):
    out = tmp_path / "bench"
    assert run(["benchmark", "--out", str(out), "--reps", "2",
                "--models", "elm", "--gammas", "1.1,1.5"]) == 0
    for name in ("report.csv", "sweep.csv", "records.json",
                 "benchmark_config.json"):
        assert (out / name).exists()
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 5  # two gammas x five faults
    assert all(r["reps"] == "2" for r in rows)
    with open(out / "sweep.csv") as fh:
        sweep = list(csv.DictReader(fh))
    assert {(r["model"], r["gamma"]) for r in sweep} == {
        ("elm", "1.1"), ("elm", "1.5")}
    echo = json.loads((out / "benchmark_config.json").read_text())
    assert echo["seed"] == 42
    assert echo["partial"] is False


def test_benchmark_cli_plans_like_run_benchmark(tmp_path):
    out = tmp_path / "bench_grid"
    assert run(["benchmark", "--out", str(out), "--reps", "1",
                "--models", "elm", "--width", "50,100",
                "--gammas", "1.2,1.5"]) == 0
    report = metrics.run_benchmark(metrics.BenchmarkPlan(
        reps=1, models=("elm",), width=(50, 100), gammas=(1.2, 1.5)))
    report.to_json(tmp_path / "direct.json")

    def untimed(path):
        records = json.loads(path.read_text())["records"]
        assert len(records) == 2 * 2 * 5  # widths x gammas x faults
        return json.dumps([{k: v for k, v in r.items() if k != "train_seconds"}
                           for r in records])

    assert untimed(out / "records.json") == untimed(tmp_path / "direct.json")


@pytest.mark.parametrize("flags", [
    ["--ensemble", "0"], ["--p", "0"], ["--p", "150"], ["--n", "7"],
    ["--width", "0"], ["--models", "pca-elm", "--l-pca", "0"],
    ["--C", "-1"], ["--models", "helm", "--lam", "-1"], ["--seed", "-1"],
    ["--jobs", "0"], ["--models", "helm", "--lam", "nan"],
    ["--models", "helm", "--lam", "inf"], ["--C", "nan"],
    ["--gammas", "1.5,1.5"], ["--models", "elm,elm"], ["--width", "50,50"],
    ["--C", "1e-5,1e-05"]],
    ids=lambda flags: "=".join(flags[-2:]))
def test_benchmark_rejects_out_of_range_flags_before_work(tmp_path, capsys,
                                                          flags):
    out = tmp_path / "bench_bad"
    assert run(["benchmark", "--out", str(out), "--reps", "1",
                "--models", "elm", *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "rep 1/1 done" not in err
    # benchmark has no --allow-any-n, so no message may offer it
    assert "allow" not in err
    assert not (out / "report.csv").exists()


def test_interrupted_benchmark_flushes_finished_reps(tmp_path, monkeypatch,
                                                     capsys):
    benchmark_rep = metrics.benchmark_rep

    def interrupted(plan, rep):
        if rep == 1:
            raise KeyboardInterrupt
        return benchmark_rep(plan, rep)
    monkeypatch.setattr(metrics, "benchmark_rep", interrupted)
    out = tmp_path / "bench"
    assert run(["benchmark", "--out", str(out), "--reps", "3",
                "--models", "elm", "--gammas", "1.5",
                "--ensemble", "1"]) == cli.EXIT_INTERRUPT
    assert "interrupted" in capsys.readouterr().err
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 and all(r["reps"] == "1" for r in rows)
    records = json.loads((out / "records.json").read_text())["records"]
    assert {r["rep"] for r in records} == {0}
    echo = json.loads((out / "benchmark_config.json").read_text())
    assert echo["partial"] is True


def test_benchmark_starts_no_more_workers_than_reps(tmp_path, monkeypatch):
    made, pool = [], data.ProcessPoolExecutor

    def spy(workers, **kw):
        made.append(workers)
        return pool(workers, **kw)

    monkeypatch.setattr(data, "ProcessPoolExecutor", spy)
    assert run(["benchmark", "--out", str(tmp_path / "bench"), "--reps", "2",
                "--jobs", "4", "--models", "elm", "--gammas", "1.5",
                "--ensemble", "1"]) == cli.EXIT_OK
    assert made == [2]
    assert multiprocessing.active_children() == []


_benchmark_rep = metrics.benchmark_rep


def _rep1_worker_dies(plan, rep):
    # stands in for metrics.benchmark_rep in forked workers: rep 1's worker
    # dies once rep 0's has finished, so that rep 0 is flushed
    done = Path(os.environ["TEST_REP0_DONE"])
    if rep == 1:
        deadline = time.monotonic() + 60.0
        while not done.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)
        os._exit(1)
    records = _benchmark_rep(plan, rep)
    done.touch()
    return records


def test_benchmark_with_a_dying_worker_flushes_finished_reps(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TEST_REP0_DONE", str(tmp_path / "rep0_done"))
    monkeypatch.setattr(metrics, "benchmark_rep", _rep1_worker_dies)
    out = tmp_path / "bench"
    assert run(["benchmark", "--out", str(out), "--reps", "3", "--jobs", "2",
                "--models", "elm", "--gammas", "1.5",
                "--ensemble", "1"]) == cli.EXIT_IO
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert ("I/O error: a benchmark worker process died; 1 of 3 repetitions "
            "finished") in err
    records = json.loads((out / "records.json").read_text())["records"]
    assert {r["rep"] for r in records} == {0}
    echo = json.loads((out / "benchmark_config.json").read_text())
    assert echo["partial"] is True


def test_benchmark_writes_timings(tmp_path):
    out = tmp_path / "bench"
    assert run(["benchmark", "--out", str(out), "--reps", "2",
                "--models", "elm,pca-elm", "--gammas", "1.5"]) == 0
    with open(out / "timings.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "params", "records", "mean_train_seconds"]
    assert [r[:3] for r in rows[1:]] == [
        ["elm", "C=1e-05;width=100", "10"],
        ["pca-elm", "C=1e-05;l_pca=10;width=100", "10"]]
    assert all(float(r[3]) > 0.0 for r in rows[1:])


@pytest.mark.parametrize("command", ["generate", "train"])
def test_negative_stream_id_is_usage_error_before_work(tmp_path, capsys,
                                                       command):
    data = tmp_path / "train.csv"
    write_csv_matrix(data, np.random.default_rng(0).normal(size=(20, 3)))
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--out", str(out), "--seed", "-5"],
            "train": ["train", "--data", str(data),
                      "--model", str(out / "model.json"), "--rep", "-2"]}
    assert run(argv[command]) == cli.EXIT_USAGE
    assert argv[command][-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--lam", "nan"], ["--lam", "inf"],
                                   ["--C", "nan"]], ids="=".join)
def test_train_rejects_non_finite_weights_before_reading_data(tmp_path, capsys,
                                                               flags):
    model = tmp_path / "out" / "model.json"
    assert run(["train", "--data", str(tmp_path / "missing.csv"),
                "--model", str(model), *flags]) == cli.EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
    assert not model.parent.exists()


@pytest.mark.parametrize("flags", [["--gamma", "0"], ["--gamma", "-1"],
                                   ["--gamma", "nan"], ["--gamma", "inf"],
                                   ["--p", "0"], ["--p", "101"],
                                   ["--p", "nan"]], ids="=".join)
def test_calibrate_rejects_bad_settings_before_reading_model(tmp_path, capsys,
                                                             flags):
    # the model file is missing: reading it first would exit 3
    assert run(["calibrate", "--model", str(tmp_path / "missing.json"),
                "--data", str(tmp_path / "missing.csv"),
                *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    with pytest.raises(ValueError) as exc:
        detector.DetectorConfig(**{flags[0][2:]: float(flags[1])})
    assert f"error: {exc.value}" in err


def test_config_file_defaults_yield_to_flags(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("reps = 1\nmodels = elm\ngammas = 1.5\n# comment\n")
    out = tmp_path / "bench_cfg"
    assert run(["benchmark", "--config", str(cfg), "--out", str(out),
                "--gammas", "1.2"]) == 0
    echo = json.loads((out / "benchmark_config.json").read_text())
    assert echo["reps"] == 1                 # from the config file
    assert echo["models"] == "elm"           # from the config file
    assert list(echo["gammas"]) == [1.2]     # flag wins over config


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    # help and config are dests of every subcommand, but no file sets them
    cfg = tmp_path / "bad.cfg"
    for key in ("repz", "help", "config"):
        cfg.write_text(f"{key} = 1\n")
        assert run(["benchmark", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
        assert f"unknown config key: {key}" in capsys.readouterr().err


def test_config_file_drops_a_byte_order_mark(tmp_path, capsys):
    # n = 0 fails before any work, so the message shows the key was known
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("\ufeffn = 0\n", encoding="utf-8")
    assert run(["generate", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
    assert "n must be 5 or 10" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("reading = caf\u00e9\n".encode("latin-1"))
    assert run(["generate", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: cannot read config file {cfg}: " in err
    assert not (tmp_path / "x").exists()


def test_every_family_axis_is_a_benchmark_flag():
    flags = {a.dest: a for a in _subcommands()["benchmark"]._actions}
    for family in metrics.FAMILIES.values():
        for axis in family.axes:
            flag, default = flags[axis], getattr(metrics.BenchmarkPlan, axis)
            assert flag.help == metrics.AXIS_HELP[axis]
            assert flag.option_strings == [f"--{axis.replace('_', '-')}"]
            assert flag.default == default
            assert flag.type(",".join(map(str, default))) == default


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# every option of every subcommand whose config-file value is converted: a
# typed option gets a list with a bad entry, an on/off flag a misspelling
BAD_CONFIG_VALUES = [
    (command, a.dest, "ture" if isinstance(a, argparse._StoreTrueAction)
     else "1,x")
    for command, sub in _subcommands().items() for a in sub._actions
    if a.type is not None or isinstance(a, argparse._StoreTrueAction)]


@pytest.mark.parametrize("command, key, value", BAD_CONFIG_VALUES,
                         ids=str)
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, key,
                                         value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    for a in _subcommands()[command]._actions:
        if a.required:
            argv += [a.option_strings[0], str(out / a.dest)]
        elif a.dest == "out":
            argv += ["--out", str(out)]
    assert run(argv) == cli.EXIT_USAGE
    assert f"bad value for {key}: {value}" in capsys.readouterr().err
    assert not out.exists()


# every required option of every subcommand: argparse wants it on the
# command line whatever a config file sets
REQUIRED_OPTIONS = [(command, a.dest, a.option_strings[0])
                    for command, sub in _subcommands().items()
                    for a in sub._actions if a.required]


@pytest.mark.parametrize("command, key, flag", REQUIRED_OPTIONS, ids=str)
def test_config_key_for_required_option_is_usage_error(tmp_path, capsys,
                                                       command, key, flag):
    cfg = tmp_path / "req.cfg"
    cfg.write_text(f"{key} = {tmp_path / 'x'}\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    for a in _subcommands()[command]._actions:
        if a.required and a.dest != key:
            argv += [a.option_strings[0], str(out / a.dest)]
    assert run(argv) == cli.EXIT_USAGE
    assert (f"config key {key}: pass {flag} on the command line"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_config_flag_without_value_shows_the_subcommand_usage(capsys,
                                                              command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--config"])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage: {cli.build_parser().prog} {command} " in err
    assert "--config: expected one argument" in err


def test_config_booleans_take_every_true_and_false_spelling(tmp_path, capsys):
    # n = 0 fails before any work: as off the menu while the flag is off,
    # with a hint to pass it, and as below 1 while it is on
    cfg = tmp_path / "flag.cfg"
    for spelling, on in [("1", True), ("True", True), ("yes", True),
                         ("ON", True), ("0", False), ("false", False),
                         ("No", False), ("off", False)]:
        cfg.write_text(f"allow-any-n = {spelling}\nn = 0\n")
        assert run(["generate", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        want = "n must be >= 1" if on else "n must be 5 or 10 (pass --allow"
        assert want in err, spelling


def test_train_echoes_config(workspace):
    echo = json.loads((workspace / "train_config.json").read_text())
    assert echo["command"] == "train"
    assert echo["layers"] == [20, 100]
    assert echo["lam"] == 0.0
    assert echo["ensemble"] == 5
