import csv
import io
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helmfd import data
from helmfd.baselines import one_class_train_ensemble, pca_elm_train_ensemble
from helmfd.data import (NormalizationStats, RngStream, apply_normalization,
                         as_matrix, as_vector, fit_normalization,
                         read_csv_matrix, write_csv_matrix)
from helmfd.detector import DetectorConfig, calibrate, decide
from helmfd.helm import HelmConfig, helm_train, run_ensemble, train_ensemble


def two_pass_stats(X):
    # independent oracle: textbook two-pass mean / population std
    K = X.shape[0]
    mean = np.array([sum(col) / K for col in X.T])
    std = np.array([np.sqrt(sum((col - m) ** 2) / K)
                    for col, m in zip(X.T, mean)])
    return mean, std


def test_fit_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(3.0, 2.5, size=(64, 7))
    stats = fit_normalization(X)
    mean, std = two_pass_stats(X)
    assert np.allclose(stats.mean, mean, atol=1e-12)
    assert np.allclose(stats.std, std, atol=1e-12)


def test_zero_two_column_normalizes_to_unit():
    X = np.array([[0.0], [2.0]])
    stats = fit_normalization(X)
    assert stats.mean[0] == 1.0
    assert stats.std[0] == 1.0
    assert np.allclose(apply_normalization(X, stats).ravel(), [-1.0, 1.0])


def test_constant_column_guard():
    X = np.column_stack([np.full(10, 4.2), np.arange(10.0)])
    stats = fit_normalization(X)
    assert stats.std[0] == 1.0
    Xn = apply_normalization(X, stats)
    assert np.all(np.abs(Xn[:, 0]) < 1e-12)


def test_fit_requires_two_rows():
    with pytest.raises(ValueError):
        fit_normalization(np.ones((1, 3)))


def test_as_matrix_rejects_non_finite_and_empty():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_matrix(np.empty((0, 3)))


def test_as_matrix_promotes_vector_to_column():
    M = as_matrix(np.array([1.0, 2.0, 3.0]))
    assert M.shape == (3, 1)


def test_as_vector_flattens_column():
    v = as_vector(np.array([[1.0], [2.0]]))
    assert v.shape == (2,)


GOOD = np.random.default_rng(0).normal(size=(20, 3))
TINY = HelmConfig(layer_sizes=(2, 4), ensemble_size=2)

# every place a matrix enters helmfd, each taking the matrix X and a scratch
# directory; scores (calibrate, decide) enter as X's first column
ENTRY_POINTS = {
    "train_ensemble": lambda X, _: train_ensemble(X, TINY, RngStream(0)),
    "helm_train": lambda X, _: helm_train(X, TINY, RngStream(0)),
    "one_class_train_ensemble":
        lambda X, _: one_class_train_ensemble(X, 4, 1e-5, RngStream(0), 2),
    "pca_elm_train_ensemble":
        lambda X, _: pca_elm_train_ensemble(X, 2, 4, 1e-5, RngStream(0), 2),
    "run_ensemble": lambda X, _: run_ensemble(
        one_class_train_ensemble(GOOD, 4, 1e-5, RngStream(0), 2), X),
    "calibrate": lambda X, _: calibrate(X[:, 0], 1.5),
    "decide": lambda X, _: decide(X[:, 0], DetectorConfig(gamma=1.5,
                                                           threshold=0.1)),
    "write_csv_matrix": lambda X, tmp: write_csv_matrix(tmp / "m.csv", X),
}


def with_entry(value):
    X = GOOD.copy()
    X[5, 0] = value
    return X


BAD_MATRICES = {"nan": with_entry(np.nan), "inf": with_entry(-np.inf),
                "no_rows": GOOD[:0]}


@pytest.mark.parametrize("bad", BAD_MATRICES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_bad_matrices(tmp_path, entry, bad):
    # the kernels behind these take their arrays unchecked, so the message
    # must be the entry check's, not a kernel failing on what got through
    with pytest.raises(ValueError, match="non-finite entries|empty input"):
        ENTRY_POINTS[entry](BAD_MATRICES[bad], tmp_path)
    assert not any(tmp_path.iterdir())


def test_apply_normalization_is_the_formula_and_leaves_input():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(37, 6)) * 1e3 + 7.0
    kept = X.copy()
    stats = fit_normalization(X)
    x = apply_normalization(X, stats)
    assert x.tobytes() == ((X - stats.mean) / stats.std).tobytes()
    assert X.tobytes() == kept.tobytes()


def test_normalization_stats_validates_std():
    with pytest.raises(ValueError):
        NormalizationStats(mean=np.zeros(2), std=np.array([1.0, 0.0]))


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(7, (1, 2)).generator().normal(size=5)
        b = RngStream(7, (1, 2)).generator().normal(size=5)
        assert np.array_equal(a, b)

    def test_different_stream_different_draws(self):
        a = RngStream(7, (1, 2)).generator().normal(size=5)
        b = RngStream(7, (1, 3)).generator().normal(size=5)
        assert not np.array_equal(a, b)

    def test_child_extends_stream(self):
        assert RngStream(7, (1,)).child(2, 3).stream == (1, 2, 3)
        direct = RngStream(7, (1, 2, 3)).generator().normal(size=4)
        child = RngStream(7, (1,)).child(2, 3).generator().normal(size=4)
        assert np.array_equal(direct, child)


class TestCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 4)) * 1e-7
        path = tmp_path / "m.csv"
        write_csv_matrix(path, X)
        header, back = read_csv_matrix(path)
        assert len(header) == 4
        assert np.array_equal(back, X)

    def test_custom_header_preserved(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv_matrix(path, np.ones((2, 2)), header=["a", "b"])
        header, _ = read_csv_matrix(path)
        assert header == ["a", "b"]

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"row 3, column 2 \(b\)"):
            read_csv_matrix(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            read_csv_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv_matrix(path)


# Outcomes of the csv/float parser, recorded before numpy's reader was put in
# front of it: (header, rows) for an accepted file, else the error message
# after "<path>: ". The fast path has to agree with each one exactly. A field
# over csv's size limit raised csv.Error then; it is a ValueError naming the
# row now.
READ_CASES = {
    "plain": ("a,b\n1,2\n3,4\n", (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])),
    "blank_line_mid": ("a,b\n1,2\n\n3,4\n", "row 3 has 0 fields, header has 2"),
    "blank_line_end": ("a,b\n1,2\n3,4\n\n", "row 4 has 0 fields, header has 2"),
    "whitespace_line": ("a\n1\n   \n2\n", "row 3, column 1 (a): cannot parse '   '"),
    "header_only": ("a,b\n", "no data rows"),
    "empty_file": ("", "empty file"),
    "hash_prefix": ("a,b\n#1,2\n3,4\n", "row 2, column 1 (a): cannot parse '#1'"),
    "hash_suffix": ("a,b\n1,2#\n3,4\n", "row 2, column 2 (b): cannot parse '2#'"),
    "quoted_numbers": ('a,b\n"1.5",2\n3,"4"\n', (["a", "b"], [[1.5, 2.0], [3.0, 4.0]])),
    "surrounding_spaces": ("a,b\n 1 ,2\t\n3, 4\n", (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])),
    "underscore": ("a,b\n1_0,2\n3,4\n", (["a", "b"], [[10.0, 2.0], [3.0, 4.0]])),
    "cr_only": ("a,b\r1,2\r3,4\r", (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])),
    "cr_then_blank_line": ("a,b\n1,2\r3,4\n\n", "row 4 has 0 fields, header has 2"),
    "no_trailing_newline": ("a,b\n1,2\n3,4", (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])),
    "ragged_row": ("a,b\n1,2\n3\n", "row 3 has 1 fields, header has 2"),
    "trailing_comma": ("a,b\n1,2,\n3,4,\n", "row 2 has 3 fields, header has 2"),
    "empty_field": ("a,b,c\n1,2,\n", "row 2, column 3 (c): cannot parse ''"),
    "nan": ("a,b\n1,nan\n3,4\n", "non-finite entries"),
    "infinity": ("a,b\n1,2\ninfinity,4\n", "non-finite entries"),
    "overflow": ("a,b\n1,1e400\n3,4\n", "non-finite entries"),
    "quoted_header_comma": ('"a,x",b\n1,2\n', (["a,x", "b"], [[1.0, 2.0]])),
    "single_column": ("a\n1\n-2.5\n", (["a"], [[1.0], [-2.5]])),
    "signed_zero_subnormal": ("a,b\n-0.0,5e-324\n", (["a", "b"], [[-0.0, 5e-324]])),
    "field_over_csv_limit": ('a\n1\n"' + "1" * 131073 + '"\n',
                             "row 3: field larger than field limit (131072)"),
    "header_over_csv_limit": ('"' + "a" * 131073 + '"\n1\n',
                              "row 1: field larger than field limit (131072)"),
}


# Headers that name their columns badly, each over a body the fast path
# accepts and over one only the csv/float parser reads (a quoted number).
HEADER_CASES = {
    "duplicate": ("a,b,a", "column 3 repeats the name 'a'"),
    "empty": ("a,,c", "column 2 has an empty name"),
    "quoted_empty": ('a,"",c', "column 2 has an empty name"),
}
BODIES = {"fast": "1,2,3\n4,5,6\n", "strict": '"1",2,3\n4,5,6\n'}


@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
@pytest.mark.parametrize("header, want", HEADER_CASES.values(),
                         ids=HEADER_CASES.keys())
def test_read_rejects_empty_and_repeated_names(tmp_path, header, want, body):
    path = tmp_path / "m.csv"
    path.write_bytes(f"{header}\n{body}".encode())
    with pytest.raises(ValueError) as exc:
        read_csv_matrix(path)
    assert str(exc.value) == f"{path}: {want}"


@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
def test_read_drops_a_byte_order_mark(tmp_path, body):
    path = tmp_path / "m.csv"
    path.write_bytes(f"\ufeffa,b,c\n{body}".encode())
    header, X = read_csv_matrix(path)
    assert header == ["a", "b", "c"]
    assert X.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


# (file bytes, the row of the first byte that is not UTF-8): in the
# header, in the body, and past the text reader's first decoded chunk
LATIN1_CASES = {
    "header": (b"a,\xe9\n1,2\n", 1),
    "row3": (b"a,b\n1.0,2.0\n3.0,4.\xe9\n", 3),
    "row3000": (b"a,b\n" + b"1.0,2.0\n" * 2998 + b"3.0,\xe9\n", 3000),
}


@pytest.mark.parametrize("raw, row", LATIN1_CASES.values(),
                         ids=LATIN1_CASES.keys())
def test_read_names_the_row_that_is_not_utf8(tmp_path, raw, row):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read_csv_matrix(path)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (f"{path}: row {row} is not UTF-8 text "
                              "(invalid continuation byte)")


@pytest.mark.parametrize("text, want", READ_CASES.values(), ids=READ_CASES.keys())
def test_read_accepts_and_rejects_as_csv_parser(tmp_path, text, want):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            read_csv_matrix(path)
        assert str(exc.value) == f"{path}: {want}"
    else:
        header, X = read_csv_matrix(path)
        rows = np.array(want[1], dtype=np.float64)
        assert header == want[0]
        assert X.shape == rows.shape and X.tobytes() == rows.tobytes()


def read_outcome(path):
    """(header, X as a list) for a file read_csv_matrix accepts, else its
    message after "<path>: "."""
    try:
        header, X = read_csv_matrix(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return str(exc)[len(f"{path}: "):]
    return header, X.tolist()


def _read_files():
    """Every file of the reader's tests above, with its outcome."""
    latin1 = "is not UTF-8 text (invalid continuation byte)"
    files = {f"latin1_{name}": (raw, f"row {row} {latin1}")
             for name, (raw, row) in LATIN1_CASES.items()}
    for body_name, body in BODIES.items():
        files[f"bom_{body_name}"] = (f"\ufeffa,b,c\n{body}".encode(),
                                     (["a", "b", "c"], [[1.0, 2.0, 3.0],
                                                        [4.0, 5.0, 6.0]]))
        for name, (header, want) in HEADER_CASES.items():
            files[f"{name}_{body_name}"] = (f"{header}\n{body}".encode(), want)
    for name, (text, want) in READ_CASES.items():
        files[name] = (text.encode(), want)
    return files


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cpus", [1, 4])
def test_read_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, cpus):
    # one line per range, so every file of two lines or more splits
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    made, pool = [], data.ProcessPoolExecutor

    def spy(workers, **kw):
        made.append(workers)
        return pool(workers, **kw)

    monkeypatch.setattr(data, "ProcessPoolExecutor", spy)
    for name, (raw, want) in _read_files().items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(raw)
        if not isinstance(want, str):
            want = (want[0], np.array(want[1], dtype=np.float64).tolist())
        assert read_outcome(path) == want, name
    assert made if cpus > 1 else made == []
    assert all(1 < workers <= cpus for workers in made)
    assert multiprocessing.active_children() == []


# a body of nine good rows, then two lines that make only the last of the
# two-line ranges decline
LATE_DECLINES = {
    "blank_line": ("\n3,4\n", "row 11 has 0 fields, header has 2"),
    "ragged_row": ("3,4\n5\n", "row 12 has 1 fields, header has 2"),
}


@pytest.mark.parametrize("tail, want", LATE_DECLINES.values(),
                         ids=LATE_DECLINES.keys())
def test_a_decline_in_the_last_range_gives_the_strict_message(
        tmp_path, monkeypatch, tail, want):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    path = tmp_path / "m.csv"
    path.write_text("a,b\n" + "1,2\n" * 9 + tail)
    with pytest.raises(ValueError) as exc:
        read_csv_matrix(path)
    assert str(exc.value) == f"{path}: {want}"
    assert multiprocessing.active_children() == []


_parse_range = data._parse_range


def _marked_parse(X, task):
    # stands in for data._parse_range: leaves one marker file per range,
    # slowly enough that ranges parsed after a decline show
    time.sleep(0.01)
    (Path(os.environ["TEST_RANGE_MARKS"]) / str(task[3])).touch()
    return _parse_range(X, task)


def test_a_declined_range_drops_the_queued_ranges(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setenv("TEST_RANGE_MARKS", str(marks))
    monkeypatch.setattr(data, "_parse_range", _marked_parse)
    path = tmp_path / "m.csv"
    # 200 lines: the header, a blank line, then 198 rows
    path.write_text("a,b\n\n" + "1.5,2.5\n" * 198)
    with pytest.raises(ValueError) as exc:
        read_csv_matrix(path)
    assert str(exc.value) == f"{path}: row 2 has 0 fields, header has 2"
    assert 0 < len(list(marks.iterdir())) < 199
    assert multiprocessing.active_children() == []


def test_read_of_a_path_that_cannot_open_leaves_no_worker(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(FileNotFoundError):
        read_csv_matrix(tmp_path / "missing.csv")
    assert multiprocessing.active_children() == []


def test_a_reading_worker_that_dies_raises_oserror(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(data, "_parse_range", _exit_at_once)
    path = tmp_path / "m.csv"
    write_csv_matrix(path, np.ones((7, 2)))
    with pytest.raises(OSError, match="worker process") as exc:
        read_csv_matrix(path)
    assert str(path) in str(exc.value)
    assert multiprocessing.active_children() == []


WRITE_X = np.array([[-0.0, 5e-324, 1e300],
                    [1 / 3, 2.0, -7.0],
                    [0.1, 1e-7, 123456789.0]])
WRITE_HEADER = ["a,b", "c", "d e"]


def csv_writer_reference(X, header) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in X:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def test_write_bytes_match_csv_writer(tmp_path):
    path = tmp_path / "m.csv"
    write_csv_matrix(path, WRITE_X, header=WRITE_HEADER)
    assert path.read_bytes() == csv_writer_reference(WRITE_X, WRITE_HEADER)
    assert path.read_bytes().startswith(b'"a,b",c,d e\r\n')


def test_write_parts_are_row_ranges_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    X = np.arange(21.0).reshape(7, 3) / 3
    ranges = {"head.csv": (0, 3), "mid.csv": (3, 6), "tail.csv": (5, 7),
              "none.csv": (4, 4)}
    write_csv_matrix(tmp_path / "all.csv", X, header=WRITE_HEADER,
                     parts=[(tmp_path / n, a, b) for n, (a, b) in ranges.items()])
    assert (tmp_path / "all.csv").read_bytes() == csv_writer_reference(X, WRITE_HEADER)
    for name, (a, b) in ranges.items():
        want = csv_writer_reference(X[a:b], WRITE_HEADER)
        assert (tmp_path / name).read_bytes() == want


def test_write_rejects_part_outside_matrix(tmp_path):
    with pytest.raises(ValueError, match=r"rows \[2, 4\)"):
        write_csv_matrix(tmp_path / "all.csv", np.ones((3, 2)),
                         parts=[(tmp_path / "p.csv", 2, 4)])


def _exit_at_once(*args):
    # stands in for data._format_rows or data._parse_range in a worker that
    # dies
    os._exit(1)


@pytest.mark.parametrize("cpus, pools", [(1, []), (4, [4])])
def test_write_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                       cpus, pools):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    made, pool = [], data.ProcessPoolExecutor

    def spy(workers, **kw):
        made.append(workers)
        return pool(workers, **kw)

    monkeypatch.setattr(data, "ProcessPoolExecutor", spy)
    X = np.arange(33.0).reshape(11, 3) / 7
    ranges = {"head.csv": (0, 3), "mid.csv": (3, 8), "tail.csv": (7, 11),
              "none.csv": (5, 5)}
    write_csv_matrix(tmp_path / "all.csv", X, header=WRITE_HEADER,
                     parts=[(tmp_path / n, a, b) for n, (a, b) in ranges.items()])
    assert made == pools
    assert (tmp_path / "all.csv").read_bytes() == csv_writer_reference(X, WRITE_HEADER)
    for name, (a, b) in ranges.items():
        assert (tmp_path / name).read_bytes() == csv_writer_reference(X[a:b], WRITE_HEADER)
    assert multiprocessing.active_children() == []


def test_write_to_a_path_that_cannot_open_leaves_no_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(FileNotFoundError):
        write_csv_matrix(tmp_path / "all.csv", np.ones((7, 2)),
                         parts=[(tmp_path / "no" / "p.csv", 0, 3)])
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


_format_rows = data._format_rows


def _format_until_the_third_block(X, start):
    # stands in for data._format_rows: leaves one marker file per block,
    # slowly enough that blocks formatted after the failure show; of one-row
    # blocks, the third raises in the worker, is interrupted there, or is str
    # where the caller writes bytes
    time.sleep(0.01)
    (Path(os.environ["TEST_BLOCK_MARKS"]) / str(start)).touch()
    if start == 2:
        fails = os.environ["TEST_BLOCK_FAILS"]
        if fails == "worker":
            raise RuntimeError("the third block")
        if fails == "interrupt":
            raise KeyboardInterrupt
        return "the third block", None
    return _format_rows(X, start)


def _fail_the_third_block(monkeypatch, marks, where):
    """Make write_csv_matrix format one-row blocks in two workers, through
    _format_until_the_third_block, marking blocks in `marks`."""
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    marks.mkdir()
    monkeypatch.setenv("TEST_BLOCK_MARKS", str(marks))
    monkeypatch.setenv("TEST_BLOCK_FAILS", where)
    monkeypatch.setattr(data, "_format_rows", _format_until_the_third_block)


@pytest.mark.parametrize("where, error", [("worker", RuntimeError),
                                          ("caller", TypeError)])
def test_a_failed_block_drops_the_queued_blocks(tmp_path, monkeypatch, where,
                                                error):
    marks = tmp_path / "marks"
    _fail_the_third_block(monkeypatch, marks, where)
    with pytest.raises(error):
        write_csv_matrix(tmp_path / "all.csv", np.ones((200, 2)))
    assert 3 <= len(list(marks.iterdir())) < 200
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where, error", [("worker", RuntimeError),
                                          ("caller", TypeError),
                                          ("interrupt", KeyboardInterrupt)])
def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, where,
                                               error):
    # blocks 0 and 1 are written when block 2 fails; a file of them alone
    # would read back as a well-formed, shorter matrix
    _fail_the_third_block(monkeypatch, tmp_path / "marks", where)
    out = tmp_path / "out"
    out.mkdir()
    old = out / "old.csv"
    old.write_bytes(b"s0000,s0001\r\n1.0,2.0\r\n")
    with pytest.raises(error):
        write_csv_matrix(out / "all.csv", np.ones((200, 2)),
                         parts=[(old, 0, 100)])
    assert list(out.iterdir()) == [old]
    assert old.read_bytes() == b"s0000,s0001\r\n1.0,2.0\r\n"


def test_a_worker_that_dies_raises_oserror(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(data, "_format_rows", _exit_at_once)
    path = tmp_path / "all.csv"
    with pytest.raises(OSError, match="worker process") as exc:
        write_csv_matrix(path, np.ones((7, 2)))
    assert str(path) in str(exc.value)
    assert multiprocessing.active_children() == []
