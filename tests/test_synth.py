import json

import numpy as np
import pytest
from scipy import stats

from helmfd.data import RngStream
from helmfd.synth import (FAULT_NAMES, LOG_FLOOR, SEGMENTS, GeneratorSpec,
                          _render, apply_reading, generate, render_splits,
                          write_dataset)

BENCH_SEED = 42


def rendering0(ds):
    """(clean readings, unit noise) that generate built dataset0 from,
    rebuilt through the renderer it calls; its noise is the unit noise at
    ds.noise_std."""
    draws, clean, noise_unit = _render(ds.spec, RngStream(BENCH_SEED, (0, 0)))
    assert all(np.array_equal(getattr(ds, k), v) for k, v in draws.items())
    return clean, noise_unit


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
    # BLAS rounds an F-ordered matrix differently, and the CLI reads back a
    # C-ordered one, so in-process scores match detect's only if X is C
    assert dataset0.X.flags.c_contiguous


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
    clean, noise_unit = rendering0(ds)
    f5 = slice(*SEGMENTS["fault5"])
    drawn = np.unique(ds.fault_sensors)
    # rebuild the pre-noise rendering from provenance: the drawn sensor
    # columns scaled by exactly 1.2 inside the last segment, nothing else
    expected = clean.copy()
    expected[f5, ds.fault_sensors] = 1.2 * clean[f5, ds.fault_sensors]
    assert np.array_equal(ds.X, expected + noise_unit * ds.noise_std)
    # the scaled columns genuinely moved; all others are untouched
    assert np.all(np.any(expected[f5][:, drawn] != clean[f5][:, drawn],
                         axis=0))
    others = np.setdiff1d(np.arange(ds.X.shape[1]), drawn)
    assert np.array_equal(expected[f5][:, others], clean[f5][:, others])
    assert np.array_equal(expected[:f5.start], clean[:f5.start])


def test_noise_scale_follows_training_amplitude(dataset0):
    ds = dataset0
    clean, noise_unit = rendering0(ds)
    tr = slice(*SEGMENTS["train"])
    amp = clean[tr].max(axis=0) - clean[tr].min(axis=0)
    assert np.allclose(ds.noise_std, 0.01 * amp, atol=0.0)
    empirical = (noise_unit * ds.noise_std).std(axis=0)
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
    clean, _ = rendering0(dataset0)
    tr = slice(*SEGMENTS["train"])
    s = np.linalg.svd(clean[tr], compute_uv=False)
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
    assert list(splits) == list(SEGMENTS)
    assert splits["train"].shape == (7000, 200)
    for name in ("val", "fp", *FAULT_NAMES):
        assert splits[name].shape == (1000, 200)
    assert np.array_equal(splits["train"], dataset0.X[:7000])
    assert np.array_equal(splits["fault2"], dataset0.X[10000:11000])


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
