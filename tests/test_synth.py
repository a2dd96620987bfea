import json

import numpy as np
import pytest
from scipy import stats

from helmfd.data import RngStream
from helmfd.synth import (FAULT_NAMES, LOG_FLOOR, SEGMENTS, GeneratorSpec,
                          apply_reading, generate, render_splits,
                          write_dataset)


def test_segments_partition_the_timeline():
    spans = sorted(SEGMENTS.values())
    assert spans[0][0] == 0
    assert spans[-1][1] == 14000
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c
    assert set(SEGMENTS) == {"train", "val", "fp", *FAULT_NAMES}


def test_shape_and_finiteness(dataset0):
    assert dataset0.X.shape == (14000, 200)
    assert np.all(np.isfinite(dataset0.X))


def test_generation_is_deterministic():
    spec = GeneratorSpec(n=5, reading="identity", seed=3)
    a = generate(spec, RngStream(3, (0, 1)))
    b = generate(spec, RngStream(3, (0, 1)))
    assert np.array_equal(a.X, b.X)


def test_different_reps_differ():
    spec = GeneratorSpec(n=5, reading="identity", seed=3)
    a = generate(spec, RngStream(3, (0, 1)))
    b = generate(spec, RngStream(3, (0, 2)))
    assert not np.array_equal(a.X, b.X)


def test_fault5_scales_exactly_the_drawn_sensors(dataset0):
    ds = dataset0
    f5 = slice(*SEGMENTS["fault5"])
    drawn = np.unique(ds.fault_sensors)
    # rebuild the pre-noise rendering from provenance: the drawn sensor
    # columns scaled by exactly 1.2 inside the last segment, nothing else
    expected = ds.clean.copy()
    expected[f5, ds.fault_sensors] = 1.2 * ds.clean[f5, ds.fault_sensors]
    assert np.array_equal(ds.X, expected + ds.noise)
    # the scaled columns genuinely moved; all others are untouched
    assert np.all(np.any(expected[f5][:, drawn] != ds.clean[f5][:, drawn],
                         axis=0))
    others = np.setdiff1d(np.arange(ds.X.shape[1]), drawn)
    assert np.array_equal(expected[f5][:, others], ds.clean[f5][:, others])
    assert np.array_equal(expected[:f5.start], ds.clean[:f5.start])


def test_noise_scale_follows_training_amplitude(dataset0):
    ds = dataset0
    tr = slice(*SEGMENTS["train"])
    amp = ds.clean[tr].max(axis=0) - ds.clean[tr].min(axis=0)
    assert np.allclose(ds.noise_std, 0.01 * amp, atol=0.0)
    empirical = ds.noise.std(axis=0)
    positive = ds.noise_std > 0
    ratio = empirical[positive] / ds.noise_std[positive]
    assert np.all(np.abs(ratio - 1.0) < 0.1)


def test_fault2_shifts_only_sensors_sourced_from_the_faulty_signal(dataset0):
    ds = dataset0
    tr = slice(*SEGMENTS["train"])
    f2 = slice(*SEGMENTS["fault2"])
    strength = ds.sensor_alpha * np.abs(ds.base_alpha[ds.sensor_source])
    affected = np.where(ds.sensor_source == 0)[0]
    unaffected = np.where(ds.sensor_source != 0)[0]
    hot = affected[np.argmax(strength[affected])]
    cold = unaffected[np.argmax(strength[unaffected])]

    p_hot = stats.ks_2samp(ds.X[tr, hot], ds.X[f2, hot]).pvalue
    p_cold = stats.ks_2samp(ds.X[tr, cold], ds.X[f2, cold]).pvalue
    assert p_hot < 0.01
    assert p_cold > 0.01


def test_clean_readings_have_rank_at_most_n(dataset0):
    tr = slice(*SEGMENTS["train"])
    s = np.linalg.svd(dataset0.clean[tr], compute_uv=False)
    assert s[dataset0.spec.n] < 1e-8 * s[0]


def test_log_reading_floors_small_values():
    v = np.array([-5.0, 0.0, 1e-9, 2.0])
    out = apply_reading(v, "log")
    assert np.allclose(out[:3], np.log(LOG_FLOOR))
    assert np.isclose(out[3], np.log(2.0))


def test_log_reading_renders_finite():
    spec = GeneratorSpec(n=5, reading="log", seed=4)
    ds = generate(spec, RngStream(4, (0, 0)))
    assert np.all(np.isfinite(ds.X))


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=7)
    with pytest.raises(ValueError):
        GeneratorSpec(reading="sqrt")
    spec = GeneratorSpec(n=7, allow_any_n=True)
    ds = generate(spec, RngStream(0, (0, 0)))
    assert ds.X.shape == (14000, 200)


def test_render_splits_layout(dataset0):
    splits = render_splits(dataset0)
    assert splits["train"].shape == (7000, 200)
    assert splits["val"].shape == (1000, 200)
    assert splits["fp_test"].shape == (1000, 200)
    assert len(splits["fault_tests"]) == 5
    assert all(b.shape == (1000, 200) for b in splits["fault_tests"])
    assert np.array_equal(splits["train"], dataset0.X[:7000])


def test_provenance_round_trips_as_json(dataset0, tmp_path):
    csv_path = tmp_path / "data.csv"
    prov_path = tmp_path / "provenance.json"
    write_dataset(dataset0, tmp_path)
    doc = json.loads(prov_path.read_text())
    assert doc["spec"] == {"K": 14000, "D": 200, "n": 5,
                           "reading": "identity", "seed": dataset0.spec.seed}
    assert len(doc["sensor_source"]) == 200
    assert csv_path.exists()
    with open(csv_path) as fh:
        assert sum(1 for _ in fh) == 14001
