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
import ctypes
import io
import itertools
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from pathlib import Path

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
    if np.count_nonzero(np.isfinite(X)) != X.size:
        raise ValueError(f"{name}: non-finite entries")
    return X


def as_vector(y, name: str = "input") -> np.ndarray:
    v = np.asarray(y, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError(f"{name}: empty input")
    if np.count_nonzero(np.isfinite(v)) != v.size:
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
    """Column mean and std of X_train, a finite float64 K x D ndarray. The
    std is X_train.std(axis=0) bit for bit, from the mean already at hand:
    the same ufuncs in the same order as numpy's, without its second pass
    for the mean."""
    K = X_train.shape[0]
    if K < 2:
        raise ValueError("need K >= 2 samples to fit normalization")
    mean = X_train.mean(axis=0)
    d = X_train - mean
    d *= d
    std = np.sqrt(d.sum(axis=0) / K)
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
# not the file size.
CSV_CHUNK_ROWS = 250


def read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    """Read a header + numeric rows CSV; parse errors name row and column.

    numpy's C reader parses the body in ranges of CSV_CHUNK_ROWS lines
    through fork_map, each straight into its rows of one shared output
    array; the result does not depend on the worker count. It stands only if
    every line after the header gave one row of the header's width;
    otherwise, or if it raises, the csv/float parser reads the file again
    and alone decides what is accepted and builds the error message.

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
    "\\n" in 1 MB reads, and fork_maps the ranges through _parse_range into
    one array in an anonymous shared mmap."""
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
    # The workers fork after the mmap, so each writes into the pages this
    # process reads.
    with fork_map(_parse_range, X, tasks,
                  f"{path}: a worker process parsing the rows") as parsed:
        return X if all(parsed) else None


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


def _format_rows(X: np.ndarray, start: int) -> tuple[bytes, list[int]]:
    """The CSV lines of rows [start, start + CSV_CHUNK_ROWS) of X as one
    bytes object, and the offset of each line's start in it, the last entry
    being the end of the text."""
    block = X[start:start + CSV_CHUNK_ROWS].tolist()
    lines = [",".join(map(repr, row)) + "\r\n" for row in block]
    return "".join(lines).encode(), [0, *itertools.accumulate(map(len, lines))]


def write_csv_matrix(path, X, header: list[str] | None = None,
                     parts=()) -> None:
    """Write a header line, then one line per row of X, byte for byte as
    csv.writer writes repr(float) fields in UTF-8: no field needs quoting,
    and lines end in "\r\n".

    Each (path, start, stop) in `parts` names one more file, with the same
    header and rows [start, stop) of X. Every row is formatted once and goes
    to each file whose range covers it.

    Rows are formatted in blocks of CSV_CHUNK_ROWS through fork_map and
    written in order; the bytes do not depend on the worker count. Each file
    is written through replaced_when_done, so it appears only complete.
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
    with ExitStack() as stack:
        outs = []
        for target, a, b in targets:
            fh = stack.enter_context(replaced_when_done(target, "wb"))
            fh.write(head)
            outs.append((fh, a, b))
        blocks = stack.enter_context(fork_map(
            _format_rows, X, starts,
            f"{path}: a worker process formatting the rows"))
        for c, (text, offsets) in zip(starts, blocks):
            view = memoryview(text)
            for fh, a, b in outs:
                lo, hi = max(a - c, 0), min(b - c, len(offsets) - 1)
                if lo < hi:
                    fh.write(view[offsets[lo]:offsets[hi]])


@contextmanager
def replaced_when_done(path, mode: str = "w", **open_kwargs):
    """A context whose value is a temp file next to `path`, opened with
    open(tmp, mode, **open_kwargs). Leaving it normally closes the file and
    os.replaces it over `path`; leaving it by any exception,
    KeyboardInterrupt included, closes and removes it. So `path` keeps its
    old bytes, or its absence, until the new file is complete."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The setter of each OpenBLAS build helmfd loads: numpy's 64-bit-integer
# scipy_openblas, which runs matmul, scipy's, which runs the Cholesky
# solves, and a plain OpenBLAS under either interface.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _openblas_paths(maps_lines) -> set:
    """The files named "*openblas*" among lines of /proc/self/maps: the
    pathname is the sixth field and may hold spaces; an anonymous mapping
    has none, and a relative or " (deleted)" one names no loadable file."""
    paths = set()
    for line in maps_lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].rstrip("\n")
        if ("openblas" in path and path.startswith("/")
                and not path.endswith(" (deleted)")):
            paths.add(path)
    return paths


def one_blas_thread() -> None:
    """Run every OpenBLAS loaded in this process on one thread, whatever
    OPENBLAS_NUM_THREADS says. OpenBLAS splits a product across threads at
    points that change its rounding, so the helmfd command's models and
    reports are then the same on any core count; a process forked later
    inherits the setting. The builds are found in /proc/self/maps; one that
    cannot be opened or has no known setter, or a system with no /proc, is
    left as it is."""
    try:
        with open("/proc/self/maps") as fh:
            libs = _openblas_paths(fh)
    except OSError:
        return
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        setter = next((getattr(handle, name) for name in _BLAS_SETTERS
                       if hasattr(handle, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)


# A worker's (fn, shared), set by the pool's initializer and inherited
# through the fork unpickled, so an array is the caller's own memory.
_forked = None


def _fork(fn, shared) -> None:
    global _forked
    _forked = fn, shared


def _call_forked(task):
    fn, shared = _forked
    return fn(shared, task)


@contextmanager
def fork_map(fn, shared, tasks, what: str, workers: int = 0):
    """A context whose value iterates fn(shared, task) for each of the
    sequence `tasks`, in order, from `workers` processes (0: one per CPU in
    os.sched_getaffinity), never more than there are tasks; with one, this
    process runs the tasks. Workers fork, as spawned ones would import helmfd
    afresh (about 0.4 s more for writing the 14000-row timeline on a 2-vCPU
    VM). A worker that dies raises OSError(f"{what} died"). Leaving the
    context cancels the tasks no worker has taken, so stopping early drops
    the queued work, and joins the workers: none outlives the context."""
    workers = min(workers or len(os.sched_getaffinity(0)), len(tasks))
    if workers <= 1:
        yield (fn(shared, task) for task in tasks)
        return
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_fork, initargs=(fn, shared)) as pool, \
                closing(pool.map(_call_forked, tasks)) as results:
            yield results
    except BrokenProcessPool as exc:
        raise OSError(f"{what} died") from exc
