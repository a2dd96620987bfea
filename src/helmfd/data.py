"""Shared numeric containers: matrix validation, normalization, RNG streams, CSV I/O.

A sensor matrix is a plain float64 ndarray, rows = time samples, columns =
sensors. as_matrix enforces the invariants (finite entries, K >= 1, D >= 1)
where data enters helmfd, and only there: read_csv_matrix, write_csv_matrix,
the trainers of the three model families, and helm.run_ensemble. The
numeric kernels behind them take the checked arrays as they are.
"""
from __future__ import annotations

import codecs
import csv
import io
import itertools
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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


# Rows formatted per block. At 200 columns a block is about 1 MB of text, and
# only a few blocks are in flight at once, so this bounds the writer's memory,
# not the file size. detector.write_detections_csv writes in blocks of the
# same size.
CSV_CHUNK_ROWS = 250


def read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    """Read a header + numeric rows CSV; parse errors name row and column.

    numpy's C reader parses the body in ranges of CSV_CHUNK_ROWS lines, in
    one worker process per available CPU (in this process when there is one
    CPU or one range), each straight into its rows of one shared output
    array; the result does not depend on the worker count. It stands only if
    every line after the header gave one row of the header's width;
    otherwise, or if it raises, the csv/float parser reads the file again
    and alone decides what is accepted and builds the error message. A
    worker that dies raises OSError, and no worker outlives the call.

    The file is UTF-8, and a leading byte-order mark is dropped; another
    encoding raises ValueError naming the first row that does not decode. A
    header with an empty or a repeated column name is rejected before either
    parser reads the body.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            spanned = []  # the lines the header spans

            def lines():
                for line in fh:
                    spanned.append(line)
                    yield line

            header = next(_records(path, lines()), [])
        _check_header(path, header)
        X = None
        if header:
            X = _load_body(path, len("".join(spanned).encode()), len(header))
        if X is None:
            return _read_csv_strict(path)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: row {_undecodable_row(path)} is not UTF-8 "
                         f"text ({exc.reason})") from exc
    return header, as_matrix(X, str(path))


def _records(path, lines):
    """csv.reader's records of `lines`; a csv.Error, such as a field over
    csv's size limit, raises ValueError naming the row."""
    reader = csv.reader(lines)
    for row in itertools.count(1):
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path}: row {row}: {exc}") from None


def _undecodable_row(path) -> int:
    """The first row of a file that does not decode as UTF-8, found in its
    bytes: the text reader decodes ahead of the row it parses. No UTF-8
    character spans a line end, so each line decodes on its own."""
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return i


def _check_header(path, header: list[str]) -> None:
    seen = set()
    for j, name in enumerate(header, 1):
        if not name:
            raise ValueError(f"{path}: column {j} has an empty name")
        if name in seen:
            raise ValueError(f"{path}: column {j} repeats the name {name!r}")
        seen.add(name)


def _load_body(path, start: int, width: int) -> np.ndarray | None:
    """The body of `path`, which starts `start` bytes after any byte-order
    mark, as np.loadtxt parses it, or None when it may differ from the
    csv/float parse.

    This process finds the byte range of each CSV_CHUNK_ROWS lines, counting
    "\\n" in 1 MB reads, and maps the ranges through _parse_range into one
    array in an anonymous shared mmap, made before the workers fork."""
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8:
            start += len(codecs.BOM_UTF8)
        fh.seek(start)
        cuts, lines, pos, last = [start], 0, start, b"\n"
        while chunk := fh.read(1 << 20):
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            cut = ends[(-lines - 1) % CSV_CHUNK_ROWS::CSV_CHUNK_ROWS]
            cuts.extend((pos + 1 + cut).tolist())
            lines, pos, last = lines + len(ends), pos + len(chunk), chunk[-1:]
    if last != b"\n":
        lines += 1  # a last line with no line end
    if cuts[-1] < pos:
        cuts.append(pos)
    # A line of `width` numbers takes at least 2 * width bytes with its line
    # end, so a shorter body declines before its array is allocated.
    if not lines or pos - start + 1 < 2 * width * lines:
        return None
    X = np.frombuffer(mmap.mmap(-1, lines * width * 8),
                      np.float64).reshape(lines, width)
    tasks = [(path, lo, hi, a, min(a + CSV_CHUNK_ROWS, lines))
             for lo, hi, a in zip(cuts, cuts[1:],
                                  range(0, lines, CSV_CHUNK_ROWS))]
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers == 1:
        return X if all(_parse_range(X, task) for task in tasks) else None
    try:
        # Forked, like write_csv_matrix's workers, and after the mmap, so
        # each worker writes into the pages this process reads.
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_share, initargs=(X,)) as pool:
            return X if all(pool.map(_parse_shared, tasks)) else None
    except BrokenProcessPool as exc:
        raise OSError(
            f"{path}: a worker process parsing the rows died") from exc


def _parse_range(X: np.ndarray, task) -> bool:
    """Parse bytes [lo, hi) of `path`, lines [a, b) of its body, into rows
    [a, b) of X, or return False when they may differ from the csv/float
    parse. loadtxt skips a blank line that csv rejects, so a blank line
    leaves fewer rows than lines and declines, as does any width other than
    X's. A "\\r" with no "\\n" after it ends a line for both parsers but not
    for the line count, so it declines too, and so does a range of blank
    lines alone, on which loadtxt would warn that it found no data."""
    path, lo, hi, a, b = task
    with open(path, "rb") as fh:
        fh.seek(lo)
        raw = fh.read(hi - lo)
    text = raw.decode()
    if raw.count(b"\r") != raw.count(b"\r\n") or text.isspace():
        return False
    try:
        rows = np.loadtxt(io.StringIO(text, newline=""), delimiter=",",
                          comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return False
    if rows.shape != (b - a, X.shape[1]):
        return False
    X[a:b] = rows
    return True


# A reading worker's view of the shared output array. The pool's initializer
# sets it in each worker only: an array sent with each task would be pickled,
# a copy the worker would fill instead.
_shared = None


def _share(X: np.ndarray) -> None:
    global _shared
    _shared = X


def _parse_shared(task) -> bool:
    return _parse_range(_shared, task)


def _read_csv_strict(path) -> tuple[list[str], np.ndarray]:
    """The reference parse: csv.reader fields, each through float()."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _records(path, fh)
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


def _format_rows(block: np.ndarray) -> tuple[bytes, list[int]]:
    """The CSV lines of a block of rows as one bytes object, and the offset
    of each line's start in it, the last entry being the end of the text."""
    lines = [",".join(map(repr, row)) + "\r\n" for row in block.tolist()]
    return "".join(lines).encode(), [0, *itertools.accumulate(map(len, lines))]


def write_csv_matrix(path, X, header: list[str] | None = None,
                     parts=()) -> None:
    """Write a header line, then one line per row of X, byte for byte as
    csv.writer writes repr(float) fields in UTF-8: no field needs quoting,
    and lines end in "\r\n".

    Each (path, start, stop) in `parts` names one more file, with the same
    header and rows [start, stop) of X. Every row is formatted once and goes
    to each file whose range covers it.

    Rows are formatted in blocks of CSV_CHUNK_ROWS, in one worker process per
    available CPU (in this process when there is one CPU or one block), and
    written in order; the bytes do not depend on the worker count. A worker
    that dies raises OSError, and no worker outlives the call.
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
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(header)
    head = buf.getvalue().encode()
    starts = range(0, K, CSV_CHUNK_ROWS)
    workers = min(len(os.sched_getaffinity(0)), len(starts))
    with ExitStack() as stack:
        outs = []
        for target, a, b in targets:
            fh = stack.enter_context(open(target, "wb"))
            fh.write(head)
            outs.append((fh, a, b))
        mapper = map
        if workers > 1:
            # Forked workers start at once with the formatter in memory;
            # spawned ones import helmfd afresh (about 0.4 s more for the
            # 14000-row timeline on a 2-vCPU VM) and need the caller's main
            # module to be safe to import.
            mapper = stack.enter_context(ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))).map
        try:
            blocks = mapper(_format_rows,
                            [X[c:c + CSV_CHUNK_ROWS] for c in starts])
            for c, (text, offsets) in zip(starts, blocks):
                view = memoryview(text)
                for fh, a, b in outs:
                    lo, hi = max(a - c, 0), min(b - c, len(offsets) - 1)
                    if lo < hi:
                        fh.write(view[offsets[lo]:offsets[hi]])
        except BrokenProcessPool as exc:
            raise OSError(
                f"{path}: a worker process formatting the rows died") from exc
