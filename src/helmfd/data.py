"""Shared numeric containers: matrix validation, normalization, RNG streams, CSV I/O.

A sensor matrix is a plain float64 ndarray, rows = time samples, columns =
sensors. as_matrix enforces the invariants (finite entries, K >= 1, D >= 1)
where data enters helmfd, and only there: read_csv_matrix, write_csv_matrix,
the trainers of the three model families, and helm.run_ensemble. The
numeric kernels behind them take the checked arrays as they are.
"""
from __future__ import annotations

import csv
import itertools
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np


def as_matrix(x, name: str = "input") -> np.ndarray:
    """Validate and return a K x D float64 matrix."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"{name}: empty input")
    if not np.isfinite(X).all():
        raise ValueError(f"{name}: non-finite entries")
    return X


def as_vector(y, name: str = "input") -> np.ndarray:
    v = np.asarray(y, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError(f"{name}: empty input")
    if not np.isfinite(v).all():
        raise ValueError(f"{name}: non-finite entries")
    return v


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column mean and strictly positive std, fit on training data only."""
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if np.any(self.std <= 0):
            raise ValueError("std must be strictly positive")


def fit_normalization(X_train: np.ndarray) -> NormalizationStats:
    """Column mean and std of X_train, a finite float64 K x D ndarray."""
    if X_train.shape[0] < 2:
        raise ValueError("need K >= 2 samples to fit normalization")
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)  # constant-column guard
    return NormalizationStats(mean=mean, std=std)


def apply_normalization(X, stats: NormalizationStats) -> np.ndarray:
    """(X - mean) / std for X, a finite float64 K x D ndarray."""
    if X.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: X has {X.shape[1]} columns, "
            f"stats has {stats.mean.shape[0]}")
    x = X - stats.mean
    x /= stats.std
    return x


@dataclass(frozen=True)
class RngStream:
    """Deterministic, replayable random stream: (seed, stream id) -> generator.

    Stream ids are tuples so independent substreams can be derived by
    extension ((rep,) -> (rep, member)) without collision.
    """
    seed: int
    stream: tuple = ()

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self.stream))

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.stream + tuple(ids))


# Rows formatted per write chunk: bounds the writer's memory, not the file size.
CSV_CHUNK_ROWS = 1000


def read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    """Read a header + numeric rows CSV; parse errors name row and column.

    numpy's C reader parses the body straight from the open file. Its result
    stands only if every line after the header gave one row of the header's
    width; otherwise, or if it raises, the csv/float parser reads the file
    again and alone decides what is accepted and builds the error message.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            header = []
        X = _load_body(fh, len(header)) if header else None
    if X is None:
        return _read_csv_strict(path)
    return header, as_matrix(X, str(path))


def _load_body(fh, width: int) -> np.ndarray | None:
    """The rows left in `fh` as np.loadtxt parses them, or None when they may
    differ from the csv/float parse: loadtxt skips blank lines that csv
    rejects, so a blank line, a row count other than the line count, or a
    width other than the header's all decline."""
    lines = 0

    def nonblank():
        nonlocal lines
        for lines, line in enumerate(fh, 1):
            if line.isspace():
                raise ValueError("blank line")
            yield line

    body = nonblank()
    try:
        first = next(body, None)
        if first is None:
            return None
        X = np.loadtxt(itertools.chain([first], body), delimiter=",",
                       comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return X if X.shape == (lines, width) else None


def _read_csv_strict(path) -> tuple[list[str], np.ndarray]:
    """The reference parse: csv.reader fields, each through float()."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {i} has {len(row)} fields, "
                    f"header has {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                for j, v in enumerate(row):
                    try:
                        float(v)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {i}, column {j + 1} "
                            f"({header[j]}): cannot parse {v!r}") from None
                raise
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, as_matrix(np.array(rows), str(path))


def write_csv_matrix(path, X, header: list[str] | None = None,
                     parts=()) -> None:
    """Write a header line, then one line per row of X, byte for byte as
    csv.writer writes repr(float) fields: no field needs quoting, and lines
    end in "\r\n".

    Each (path, start, stop) in `parts` names one more file, with the same
    header and rows [start, stop) of X. Every row is formatted once and goes
    to each file whose range covers it.
    """
    X = as_matrix(X, "X")
    K = X.shape[0]
    if header is None:
        header = [f"s{j:04d}" for j in range(X.shape[1])]
    if len(header) != X.shape[1]:
        raise ValueError("header length does not match column count")
    targets = [(path, 0, K), *parts]
    for target, a, b in targets:
        if not 0 <= a <= b <= K:
            raise ValueError(f"{target}: rows [{a}, {b}) outside [0, {K})")
    with ExitStack() as stack:
        outs = []
        for target, a, b in targets:
            fh = stack.enter_context(open(target, "w", newline=""))
            csv.writer(fh).writerow(header)
            outs.append((fh, a, b))
        for c in range(0, K, CSV_CHUNK_ROWS):
            d = min(c + CSV_CHUNK_ROWS, K)
            lines = [",".join(map(repr, row)) + "\r\n" for row in X[c:d].tolist()]
            for fh, a, b in outs:
                lo, hi = max(a, c) - c, min(b, d) - c
                if lo < hi:
                    fh.writelines(lines[lo:hi])
