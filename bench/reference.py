"""Reference kernels: fixed work, timed next to the program, that measures the
host's speed at that moment.

The core speed of the virtual machine this benchmark was built on switches
between levels up to 2x apart and can hold either for minutes (README.md,
Noise), so two runs of the same code can differ by more than any bound. Each
workload therefore times one of these kernels next to its operations and
set-ups, and reports their times scaled by ``nominal / kernel time``: the
time they would take at the speed at which the kernel takes its nominal
time (``workloads.paired`` and ``workloads.pooled``).

The kernels are this benchmark's own code and never call helmfd, so a change
to helmfd moves the operation's time and not the kernel's. Each one repeats
the kind of work of the operations it scales: the same sequence of numpy
calls as single-row and block scoring, the csv module's formatting and
parsing, and the dense algebra of training. Kinds of work slow down by
different amounts when the host changes speed (single-row scoring by up to
2x, a pure-Python loop by 1.5x), so a kernel only cancels the host speed for
operations of its own kind.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

D = 200                  # sensor columns, as in helmfd's synthetic timeline
AE, HEAD = 20, 100       # helmfd's default layer sizes
MEMBERS = 5
SEED = 20181012

# The nominal time of each kernel, in seconds: about its median on the 2-vCPU
# virtual machine described in README.md. Fixed constants; they set the speed
# at which the scaled figures are expressed and change no ratio between runs.
NOMINAL_S = {
    "single": 0.16e-3,      # Scorer.score on one row
    "block": 16e-3,         # Scorer.score on 1000 rows
    "csv": 25e-3,           # CsvRoundTrip, 60 rows
    "training": 90e-3,      # Training, 7000 rows
}


@dataclass(frozen=True)
class _Det:
    score: float
    label: int
    magnification: float


def _matrix(x) -> np.ndarray:
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1 or not np.isfinite(X).all():
        raise ValueError("bad matrix")
    return X


class Scorer:
    """A 5-member ensemble of helmfd's shape with fixed random weights, scored
    with the sequence of numpy calls that helmfd's ``decide(run_ensemble())``
    makes at the time the benchmark was defined."""

    def __init__(self, rows: int):
        g = np.random.default_rng(SEED)
        self.members = []
        for _ in range(MEMBERS):
            mean, std = g.normal(size=D), g.uniform(0.5, 2.0, size=D)
            beta = g.normal(scale=0.05, size=(AE, D))
            A, B = g.uniform(-1, 1, size=(AE, HEAD)), g.uniform(-1, 1, size=HEAD)
            self.members.append((mean, std, beta, A, B, g.normal(scale=0.02, size=(HEAD, 1))))
        self.threshold = 0.05
        self.rows = g.normal(size=(rows, D))

    def score(self, rows) -> list:
        Y = np.zeros(_matrix(rows).shape[0])
        for mean, std, beta, A, B, head in self.members:
            X = _matrix(rows)
            x = (_matrix(X) - mean) / std
            x = x @ beta.T
            H = expit(_matrix(x) @ A + B)
            Y += (H @ head).ravel()
        r = np.abs(1.0 - np.asarray(Y / MEMBERS, dtype=np.float64).ravel())
        return [_Det(float(s), 1 if s <= self.threshold else -1,
                     float(s / self.threshold)) for s in r]


class CsvRoundTrip:
    """Format a fixed matrix with csv.writer and repr, then parse it back with
    csv.reader and float, as helmfd's CSV functions do. In memory: a file
    would add the disk's waits, which follow the writes of the operation
    before and not the host's speed."""

    def __init__(self, rows: int = 60):
        self.X = np.random.default_rng(SEED).normal(size=(rows, D)) * 10.0
        self.header = [f"s{j:04d}" for j in range(D)]

    def __call__(self) -> np.ndarray:
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(self.header)
        for row in self.X:
            w.writerow([repr(float(v)) for v in row])
        buf.seek(0)
        reader = csv.reader(buf)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader])


class Training:
    """Dense algebra of training on fixed data as large as helmfd's training
    split: random draws, a sigmoid hidden layer, proximal-gradient
    (FISTA-style) iterations and a ridge solve. Work on arrays this size
    speeds up less than cache-resident work when the host turns fast, so a
    smaller kernel would overcorrect."""

    ITERATIONS = 25

    def __init__(self, rows: int = 7000):
        self.rows = rows

    def __call__(self) -> float:
        g = np.random.default_rng(SEED)
        X = g.normal(size=(self.rows, D))
        x = (X - X.mean(axis=0)) / X.std(axis=0)
        H = expit(x @ g.uniform(-1, 1, size=(D, AE)) + g.uniform(-1, 1, size=AE))
        L = np.linalg.norm(H, 2) ** 2
        beta = np.zeros((AE, D))
        HtX = H.T @ x
        HtH = H.T @ H
        for _ in range(self.ITERATIONS):
            z = beta - (HtH @ beta - HtX) / L
            beta = np.sign(z) * np.maximum(np.abs(z) - 1e-2 / L, 0.0)
        f = x @ beta.T
        Hh = expit(f @ g.uniform(-1, 1, size=(AE, HEAD)) + g.uniform(-1, 1, size=HEAD))
        G = Hh.T @ Hh
        G[np.diag_indices_from(G)] += 1e-5
        c = np.linalg.cholesky(G)
        w = np.linalg.solve(c.T, np.linalg.solve(c, Hh.T @ np.ones(len(Hh))))
        return float(w.sum())


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def settled(fn) -> float:
    """Mean time of two calls of `fn` after an untimed one. The first call
    after a long operation runs up to a fifth slower, on caches the
    operation has filled with its own data."""
    fn()
    return (timed(fn) + timed(fn)) / 2
