import csv
import json
from operator import setitem

import numpy as np
import pytest

from helmfd import cli, metrics, synth
from helmfd.data import write_csv_matrix

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


def test_invalid_gamma_is_numerical_error(workspace, capsys):
    code = run(["calibrate", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "val.csv"), "--gamma", "-1"])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical" in capsys.readouterr().err


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


def test_pipeline_reproduces_benchmark_cell(workspace, tmp_path):
    plan = metrics.BenchmarkPlan(reps=1, gammas=(1.5,), models=("helm",))
    rec = [r for r in metrics.benchmark_rep(plan, 0) if r["fault"] == 2][0]

    out = tmp_path / "cell"
    assert run(["detect", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "fault2.csv"),
                "--out", str(out)]) == 0
    labels, _ = read_detections(out / "detections.csv")
    assert float(np.mean(labels == -1)) == rec["point_tpr"]

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
    ["--jobs", "0"]],
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
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("repz = 1\n")
    assert run(["benchmark", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
    assert "repz" in capsys.readouterr().err


def test_train_echoes_config(workspace):
    echo = json.loads((workspace / "train_config.json").read_text())
    assert echo["command"] == "train"
    assert echo["layers"] == [20, 100]
    assert echo["lam"] == 0.01
    assert echo["ensemble"] == 5
