"""Synthetic condition-monitoring benchmark generator.

n latent base signals are observed through D noisy sensor readings (identity
or logarithmic response). Five fault types are injected into fixed windows of
the 14000-sample timeline:

    1. base signal 1 amplified by 1.2          [9000, 10000)
    2. base signal 1 amplified by 1.5          [10000, 11000)
    3. constant offset 0.2·gain_1 on signal 1  [11000, 12000)
    4. base signal 1 replaced by a fresh draw  [12000, 13000)
    5. ten random sensor readings × 1.2        [13000, 14000)

The first 7000 rows are healthy training data, the next 1000 calibrate the
threshold, and rows [8000, 9000) measure false positives.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import RngStream, write_csv_matrix

SEGMENTS = {
    "train": (0, 7000),
    "val": (7000, 8000),
    "fp": (8000, 9000),
    "fault1": (9000, 10000),
    "fault2": (10000, 11000),
    "fault3": (11000, 12000),
    "fault4": (12000, 13000),
    "fault5": (13000, 14000),
}
FAULT_NAMES = ("fault1", "fault2", "fault3", "fault4", "fault5")
DATA_FILE = "data.csv"
SPLIT_FILES = {"train": "train.csv", "val": "val.csv", "fp": "fp_test.csv",
               **{f: f"{f}.csv" for f in FAULT_NAMES}}
READINGS = ("identity", "log")
LOG_FLOOR = 1e-3


@dataclass(frozen=True)
class GeneratorSpec:
    K: int = 14000
    D: int = 200
    n: int = 5
    reading: str = "identity"
    seed: int = 0
    allow_any_n: bool = False

    def __post_init__(self):
        if self.reading not in READINGS:
            raise ValueError(f"reading must be one of {READINGS}")
        if self.n not in (5, 10) and not self.allow_any_n:
            raise ValueError("n must be 5 or 10 (pass allow_any_n to override)")
        if self.K != 14000:
            raise ValueError("the fixed split layout requires K = 14000")
        if self.D < 1 or self.n < 1:
            raise ValueError("D and n must be >= 1")


def apply_reading(v: np.ndarray, reading: str) -> np.ndarray:
    if reading == "log":
        # domain guard: the affine base construction permits negative values
        return np.log(np.maximum(v, LOG_FLOOR))
    return v


@dataclass
class SyntheticDataset:
    X: np.ndarray                  # K x D readings with faults and noise
    spec: GeneratorSpec
    base_alpha: np.ndarray         # n gains
    base_eps: np.ndarray           # n offsets
    fault4_alpha: float
    fault4_eps: float
    sensor_alpha: np.ndarray       # D per-sensor gains
    sensor_source: np.ndarray      # D base-signal indices (0-based)
    fault_sensors: np.ndarray      # 10 sensor indices (drawn with replacement)
    noise_std: np.ndarray          # D per-sensor noise standard deviations
    base: np.ndarray = field(repr=False)   # n x K base signals, faults 1-4 applied
    clean: np.ndarray = field(repr=False)  # K x D readings before fault 5 and noise
    noise: np.ndarray = field(repr=False)  # K x D additive noise

    def provenance_dict(self) -> dict:
        return {
            "spec": {"K": self.spec.K, "D": self.spec.D, "n": self.spec.n,
                     "reading": self.spec.reading, "seed": self.spec.seed},
            "segments": {k: list(v) for k, v in SEGMENTS.items()},
            "base_alpha": self.base_alpha.tolist(),
            "base_eps": self.base_eps.tolist(),
            "fault4_alpha": self.fault4_alpha,
            "fault4_eps": self.fault4_eps,
            "sensor_alpha": self.sensor_alpha.tolist(),
            "sensor_source": self.sensor_source.tolist(),
            "fault_sensors": self.fault_sensors.tolist(),
            "noise_std": self.noise_std.tolist(),
        }


def generate(spec: GeneratorSpec, rng) -> SyntheticDataset:
    """Render the benchmark dataset. All draws flow from the given stream in a
    fixed order, so equal (spec, stream) reproduce the matrix bitwise."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    K, D, n = spec.K, spec.D, spec.n

    base_alpha = gen.normal(size=n)
    fault4_alpha = float(gen.normal())
    base_eps = gen.uniform(0.0, 3.0, size=n)
    fault4_eps = float(gen.uniform(0.0, 3.0))
    base = gen.normal(size=(n, K))
    fault4_signal = gen.normal(size=1000)

    base = base_alpha[:, None] * base + base_eps[:, None]
    base[0, 9000:10000] *= 1.2
    base[0, 10000:11000] *= 1.5
    base[0, 11000:12000] += 0.2 * base_alpha[0]
    base[0, 12000:13000] = fault4_alpha * fault4_signal + fault4_eps

    sensor_alpha = gen.uniform(0.0, 1.0, size=D)
    sensor_source = gen.integers(0, n, size=D)
    noise_unit = gen.normal(size=(K, D))
    fault_sensors = gen.integers(0, D, size=10)

    clean = apply_reading(sensor_alpha[None, :] * base[sensor_source, :].T,
                          spec.reading)
    # noise std: 1% of the reading amplitude, amplitude = max - min of the
    # clean reading over the healthy training window, per sensor
    tr = slice(*SEGMENTS["train"])
    noise_std = 0.01 * (clean[tr].max(axis=0) - clean[tr].min(axis=0))
    noise = noise_unit * noise_std[None, :]

    X = clean.copy()
    f5 = slice(*SEGMENTS["fault5"])
    X[f5, fault_sensors] = 1.2 * clean[f5, fault_sensors]
    X += noise

    return SyntheticDataset(
        X=X, spec=spec, base_alpha=base_alpha, base_eps=base_eps,
        fault4_alpha=fault4_alpha, fault4_eps=fault4_eps,
        sensor_alpha=sensor_alpha, sensor_source=sensor_source,
        fault_sensors=fault_sensors, noise_std=noise_std,
        base=base, clean=clean, noise=noise)


def render_splits(ds: SyntheticDataset) -> dict:
    """Views over the fixed segments: training, calibration, false-positive
    test, and one test block per fault."""
    X = ds.X
    parts = {name: X[slice(*SEGMENTS[name])] for name in SEGMENTS}
    return {
        "train": parts["train"],
        "val": parts["val"],
        "fp_test": parts["fp"],
        "fault_tests": [parts[f] for f in FAULT_NAMES],
    }


def write_dataset(ds: SyntheticDataset, outdir) -> None:
    """Write the dataset's on-disk layout into outdir: DATA_FILE with every
    row, one file per segment (SPLIT_FILES) holding that segment's rows, and
    provenance.json. Each row is formatted once for all the files it is in."""
    outdir = Path(outdir)
    write_csv_matrix(outdir / DATA_FILE, ds.X,
                     parts=[(outdir / SPLIT_FILES[name], a, b)
                            for name, (a, b) in SEGMENTS.items()])
    with open(outdir / "provenance.json", "w") as fh:
        json.dump(ds.provenance_dict(), fh, indent=1)
        fh.write("\n")
