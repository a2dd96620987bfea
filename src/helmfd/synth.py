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
from dataclasses import dataclass, fields
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
# The timeline's fixed layout: one row per time sample, one column per sensor.
ROWS = SEGMENTS["fault5"][1]
SENSORS = 200
N_CHOICES = (5, 10)   # base-signal counts of the paper's two settings
READINGS = ("identity", "log")
LOG_FLOOR = 1e-3


@dataclass(frozen=True)
class GeneratorSpec:
    n: int = 5
    reading: str = "identity"
    seed: int = 0
    allow_any_n: bool = False

    def __post_init__(self):
        if self.n not in N_CHOICES and not self.allow_any_n:
            raise ValueError("n must be 5 or 10")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.reading not in READINGS:
            raise ValueError(f"reading must be one of {READINGS}")


def apply_reading(v: np.ndarray, reading: str) -> np.ndarray:
    """Apply the sensor response to the readings v in place; returns v."""
    if reading == "log":
        # domain guard: the affine base construction permits negative values
        np.maximum(v, LOG_FLOOR, out=v)
        np.log(v, out=v)
    return v


@dataclass
class SyntheticDataset:
    X: np.ndarray                  # K x D C-order readings, faults and noise
    spec: GeneratorSpec
    base_alpha: np.ndarray         # n gains
    base_eps: np.ndarray           # n offsets
    fault4_alpha: float
    fault4_eps: float
    sensor_alpha: np.ndarray       # D per-sensor gains
    sensor_source: np.ndarray      # D base-signal indices (0-based)
    fault_sensors: np.ndarray      # 10 sensor indices (drawn with replacement)
    noise_std: np.ndarray          # D per-sensor noise standard deviations

    def provenance_dict(self) -> dict:
        return {
            "spec": {"K": ROWS, "D": SENSORS, "n": self.spec.n,
                     "reading": self.spec.reading, "seed": self.spec.seed},
            "segments": {k: list(v) for k, v in SEGMENTS.items()},
            # the generator's draws: every field after X and spec
            **{f.name: np.asarray(getattr(self, f.name)).tolist()
               for f in fields(self)[2:]},
        }


def _render(spec: GeneratorSpec, rng: RngStream) -> tuple:
    """(draws, clean, noise_unit): the generator's draws by SyntheticDataset
    field name, the K x D clean readings (C-ordered, before fault 5 and
    noise) and the K x D unit-variance noise. All draws flow from the given
    stream in a fixed order, so equal (spec, stream) reproduce them bitwise."""
    gen = rng.generator()
    K, D, n = ROWS, SENSORS, spec.n

    base_alpha = gen.normal(size=n)
    fault4_alpha = float(gen.normal())
    base_eps = gen.uniform(0.0, 3.0, size=n)
    fault4_eps = float(gen.uniform(0.0, 3.0))
    base = gen.normal(size=(n, K))
    f1, f2, f3, f4 = (slice(*SEGMENTS[f]) for f in FAULT_NAMES[:4])
    fault4_signal = gen.normal(size=f4.stop - f4.start)

    # n x K base signals with faults 1-4 applied
    base = base_alpha[:, None] * base + base_eps[:, None]
    base[0, f1] *= 1.2
    base[0, f2] *= 1.5
    base[0, f3] += 0.2 * base_alpha[0]
    base[0, f4] = fault4_alpha * fault4_signal + fault4_eps

    sensor_alpha = gen.uniform(0.0, 1.0, size=D)
    sensor_source = gen.integers(0, n, size=D)
    # rendered before the noise is drawn, so the two K x D arrays and the
    # gathered base signals are never all alive at once; C order keeps the
    # BLAS rounding of everything downstream that of a C-ordered X
    clean = np.empty((K, D))
    np.multiply(sensor_alpha[None, :], base[sensor_source, :].T, out=clean)
    apply_reading(clean, spec.reading)
    noise_unit = gen.normal(size=(K, D))
    fault_sensors = gen.integers(0, D, size=10)

    draws = {"base_alpha": base_alpha, "base_eps": base_eps,
             "fault4_alpha": fault4_alpha, "fault4_eps": fault4_eps,
             "sensor_alpha": sensor_alpha, "sensor_source": sensor_source,
             "fault_sensors": fault_sensors}
    return draws, clean, noise_unit


def generate(spec: GeneratorSpec, rng: RngStream) -> SyntheticDataset:
    """Render the benchmark dataset. Equal (spec, stream) reproduce the matrix
    bitwise. X is built in place in the clean-readings buffer."""
    draws, X, noise = _render(spec, rng)
    # noise std: 1% of the reading amplitude, amplitude = max - min of the
    # clean reading over the healthy training window, per sensor
    tr = slice(*SEGMENTS["train"])
    noise_std = 0.01 * (X[tr].max(axis=0) - X[tr].min(axis=0))
    f5 = slice(*SEGMENTS["fault5"])
    fault_sensors = draws["fault_sensors"]
    # the right side is gathered before the write, so a sensor drawn twice
    # is still scaled once
    X[f5, fault_sensors] = 1.2 * X[f5, fault_sensors]
    noise *= noise_std
    X += noise
    return SyntheticDataset(X=X, spec=spec, noise_std=noise_std, **draws)


def render_splits(ds: SyntheticDataset) -> dict:
    """{name: view of X} over the fixed segments, under SEGMENTS' names:
    training, calibration, false-positive test, and one block per fault."""
    return {name: ds.X[slice(*span)] for name, span in SEGMENTS.items()}


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
