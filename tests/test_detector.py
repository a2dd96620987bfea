import csv
import io
import math
import warnings

import numpy as np
import pytest

from helmfd import synth
from helmfd.data import apply_normalization
from helmfd.detector import (Detection, DetectorConfig, calibrate, decide,
                             labels_of, residuals, write_detections_csv)
from helmfd.helm import run_ensemble


def percentile_oracle(values, p):
    # order statistics with linear interpolation, written independently
    s = sorted(float(v) for v in values)
    h = (len(s) - 1) * p / 100.0
    lo, hi = math.floor(h), math.ceil(h)
    return s[lo] + (s[hi] - s[lo]) * (h - lo)


def test_residuals_measure_distance_to_one():
    assert np.allclose(residuals([1.0, 0.8, 1.3]), [0.0, 0.2, 0.3])


def test_constant_residual_calibrates_to_gamma_times_it():
    Y = np.full(50, 0.8)  # residual 0.2 everywhere
    cfg = calibrate(Y, gamma=1.5, p=99.5)
    assert np.isclose(cfg.threshold, 1.5 * 0.2)


def test_p100_gamma1_is_the_max_residual():
    rng = np.random.default_rng(0)
    Y = 1.0 + rng.normal(size=200) * 0.05
    cfg = calibrate(Y, gamma=1.0, p=100.0)
    assert np.isclose(cfg.threshold, np.abs(1.0 - Y).max())


@pytest.mark.parametrize("p", [50.0, 90.0, 99.0, 99.5])
def test_threshold_matches_order_statistics_oracle(p):
    rng = np.random.default_rng(int(p * 10))
    Y = 1.0 + rng.normal(size=317) * 0.1
    cfg = calibrate(Y, gamma=2.0, p=p)
    assert np.isclose(cfg.threshold,
                      2.0 * percentile_oracle(np.abs(1.0 - Y), p),
                      atol=1e-12)


def test_calibrate_needs_two_points():
    with pytest.raises(ValueError):
        calibrate(np.array([1.0]), gamma=1.5)


def test_decide_labels_and_magnification():
    cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=0.2)
    dets = decide(np.array([1.0, 1.1, 1.5, 0.5]), cfg)
    assert [d.label for d in dets] == [1, 1, -1, -1]
    assert np.allclose([d.magnification for d in dets],
                       [0.0, 0.5, 2.5, 2.5])
    assert np.array_equal(labels_of(dets), [1, 1, -1, -1])


def decide_loop(Y, config):
    """decide written out one row at a time."""
    out = []
    for s in np.abs(1.0 - np.asarray(Y, dtype=np.float64)):
        out.append(Detection(score=float(s),
                             label=1 if s <= config.threshold else -1,
                             magnification=float(s / config.threshold)))
    return out


def test_decide_equals_row_loop():
    rng = np.random.default_rng(3)
    # residuals spread around the threshold, with some exactly on it
    Y = np.concatenate([1.0 + rng.normal(size=997) * 0.1,
                        [1.125, 0.875, 1.0]])
    # a threshold held as a numpy scalar gives the same Python fields
    for threshold in (0.125, np.float64(0.125)):
        cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=threshold)
        dets = decide(Y, cfg)
        assert dets == decide_loop(Y, cfg)
        assert [d.label for d in dets[-3:]] == [1, 1, 1]
        # a lone row takes decide's one-row path, to the same fields
        lone = [d for i in range(len(Y)) for d in decide(Y[i:i + 1], cfg)]
        assert lone == dets
        assert all(type(d) is Detection and type(d.score) is float
                   and type(d.label) is int and type(d.magnification) is float
                   for d in (*dets, *lone))


def fields_of(detections):
    return [(repr(v), type(v)) for d in detections for v in d]


def test_one_entry_decide_is_the_batch_formula():
    # a one-entry float64 ndarray takes decide's Python-float path; every
    # one-entry input gives the fields the batch formula gives its entry
    ys = (1.0, 1.125, 0.875, 1.25, 0.5, -3.0, 1e300, 1.0 + 2.0**-52, 5e-324)
    for threshold in (0.125, np.float64(0.125), 0.25):
        cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=threshold)
        for y in ys:
            want = decide(np.array([y, 1.0]), cfg)[:1]
            assert fields_of(decide_loop([y], cfg)) == fields_of(want)
            for Y in (np.array([y]), np.array([[y]]), np.array(y), [y]):
                assert fields_of(decide(Y, cfg)) == fields_of(want), (y, Y)
        for Y in (np.array([1.25], dtype=np.float32), np.array([2]),
                  np.array([[0]])):
            want = decide(np.append(Y.astype(np.float64), 1.0), cfg)[:1]
            assert fields_of(decide(Y, cfg)) == fields_of(want), Y
    dets = decide(np.array([1.5]), DetectorConfig(
        gamma=1.0, p=99.5, threshold=np.float64(0.25)))
    assert [type(v) for v in dets[0]] == [float, int, float]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_entry_decide_rejects_non_finite(bad):
    cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=0.125)
    for Y in (np.array([bad]), np.array([[bad]]), np.array(bad), [bad],
              np.array([bad], dtype=np.float32)):
        with pytest.raises(ValueError, match="Y: non-finite entries"):
            decide(Y, cfg)
        # the threshold is checked first
        for thr in (0.0, -0.125):
            with pytest.raises(ValueError, match="uncalibrated"):
                decide(Y, DetectorConfig(gamma=1.0, p=99.5, threshold=thr))


def test_detection_is_an_immutable_record():
    cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=0.125)
    Y = np.array([1.0, 1.25, 0.9])
    dets = decide(Y, cfg)
    assert Detection._fields == ("score", "label", "magnification")
    assert dets == decide_loop(Y, cfg)
    d = Detection(score=0.25, label=-1, magnification=2.0)
    assert d == dets[1]
    assert (d.score, d.label, d.magnification) == (0.25, -1, 2.0)
    for field in Detection._fields:
        with pytest.raises(AttributeError):
            setattr(d, field, 0.0)


def test_boundary_point_counts_healthy():
    # score exactly at the threshold: sign convention keeps the +1 label
    cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=0.25)
    dets = decide(np.array([1.25, 0.75]), cfg)
    assert [d.label for d in dets] == [1, 1]
    assert dets[0].magnification == 1.0


def test_uncalibrated_detector_refuses():
    with pytest.raises(ValueError, match="uncalibrated"):
        decide(np.array([1.0, 2.0]), DetectorConfig(gamma=1.5, p=99.5))


def test_threshold_scales_with_residual_scale():
    rng = np.random.default_rng(1)
    dev = rng.normal(size=400) * 0.05
    for c in (0.1, 3.0):
        plain = calibrate(1.0 + dev, gamma=1.5)
        scaled = calibrate(1.0 + c * dev, gamma=1.5)
        assert np.isclose(scaled.threshold, c * plain.threshold)
        labels_plain = labels_of(decide(1.0 + dev, plain))
        labels_scaled = labels_of(decide(1.0 + c * dev, scaled))
        assert np.array_equal(labels_plain, labels_scaled)


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(gamma=0.0, p=99.5)
    with pytest.raises(ValueError):
        DetectorConfig(gamma=1.5, p=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(gamma=1.5, p=100.5)
    for bad in ({"gamma": math.nan}, {"gamma": math.inf}, {"p": math.nan},
                {"threshold": math.nan}, {"threshold": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            DetectorConfig(**{"gamma": 1.5, "p": 99.5, **bad})


def test_flag_rate_on_fresh_healthy_data(helm_ensemble0, dataset0):
    # calibrate on the validation block, score the held-out healthy block:
    # the flag rate should sit near the design rate 1 - p/100
    val = slice(*synth.SEGMENTS["val"])
    fp = slice(*synth.SEGMENTS["fp"])
    cfg = calibrate(run_ensemble(helm_ensemble0, dataset0.X[val]),
                    gamma=1.0, p=99.5)
    labels = labels_of(decide(run_ensemble(helm_ensemble0, dataset0.X[fp]), cfg))
    rate = float(np.mean(labels == -1))
    assert 0.0 <= rate <= 0.02


def test_detections_csv_round_trip(tmp_path):
    # the bytes are those csv.writer writes row by row
    cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=0.1)
    dets = decide(np.array([1.0, 1.05, 1.5, 0.9 + 1e-13, 1.2]), cfg)
    path = tmp_path / "det.csv"
    write_detections_csv(path, dets)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(["index", "score", "label", "magnification"])
    for i, d in enumerate(dets):
        w.writerow([i, repr(d.score), d.label, repr(d.magnification)])
    assert path.read_bytes() == want.getvalue().encode()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,score,label,magnification"
    assert len(lines) == 6
    last = lines[3].split(",")
    assert last[2] == "-1"
    assert float(last[3]) == dets[2].magnification


def test_failed_detections_write_leaves_old_file(tmp_path):
    cfg = DetectorConfig(gamma=1.0, p=99.5, threshold=0.1)
    dets = decide(np.array([1.0, 1.05, 1.5]), cfg)
    path = tmp_path / "det.csv"
    path.write_bytes(b"old bytes")
    # the lines before the bad entry are written when it raises
    with pytest.raises(AttributeError):
        write_detections_csv(path, [*dets, None])
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("K", [1, 4])
def test_extreme_rows_score_finite_and_flagged(helm_ensemble0, dataset0, K):
    # +-1e6 on every channel drives the head's pre-activations to about
    # +-2e7, far past where exp(-z) overflows (z < -709); the sigmoid then
    # reads exactly 0 or 1, and scoring neither warns nor loses the row
    val = slice(*synth.SEGMENTS["val"])
    cfg = calibrate(run_ensemble(helm_ensemble0, dataset0.X[val]), gamma=1.5)
    D = dataset0.X.shape[1]
    alt = np.where(np.arange(D) % 2, -1.0, 1.0)
    rows = 1e6 * np.array([np.ones(D), -np.ones(D), alt, -alt])[:K]
    ens = helm_ensemble0
    x = apply_normalization(rows, ens.norm)
    for beta in ens.maps:
        x = x @ beta.mT
    assert (x @ ens.head.A + ens.head.B[:, None, :]).min() < -709.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = run_ensemble(ens, rows)
        dets = decide(Y, cfg)
    assert np.all(np.isfinite(Y))
    assert labels_of(dets).tolist() == [-1] * K
