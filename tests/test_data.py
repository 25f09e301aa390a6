import csv
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftml.data import (
    Batch,
    DataError,
    Feature,
    Schema,
    UNSEEN,
    concat_batches,
    distinct_rows,
    load_csv,
    split_stream,
)
from driftml.stagger import StaggerConfig, generate_stagger

from conftest import write_csv

ELECTRICITY = os.path.join(os.path.dirname(__file__), "..", "data", "electricity.csv")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_infers_types(tmp_path):
    path = write(tmp_path, "a,b,y\n1.0,red,0\n2.5,green,1\n3.0,red,0\n4.0,green,1\n")
    schema, batch = load_csv(path, "y")
    assert [f.name for f in schema.features] == ["a", "b"]
    assert schema.features[0].levels is None
    assert schema.features[1].levels == ("green", "red")
    assert schema.classes == ("0", "1")
    assert len(batch) == 4
    assert batch.X[0, 0] == 1.0
    assert batch.X[0, 1] == 1.0  # "red" sorts after "green"
    assert list(batch.y) == [0, 1, 0, 1]


def test_load_csv_missing_cells(tmp_path):
    path = write(tmp_path, "a,b,y\n?,red,0\n2.0,,1\n3.0,red,?\n")
    schema, batch = load_csv(path, "y")
    assert math.isnan(batch.X[0, 0])
    assert math.isnan(batch.X[1, 1])
    assert batch.y[2] == -1
    assert not batch.fully_labeled


def test_load_csv_deterministic(tmp_path):
    text = "a,b,y\n1.0,red,0\n2.5,green,1\n?,blue,0\n"
    p1 = write(tmp_path, text, "one.csv")
    p2 = write(tmp_path, text, "two.csv")
    s1, b1 = load_csv(p1, "y")
    s2, b2 = load_csv(p2, "y")
    assert s1 == s2
    assert np.array_equal(b1.X, b2.X, equal_nan=True)
    assert np.array_equal(b1.y, b2.y)


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "a,b,y\n1,red,0\n"), "missing")
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "a,b,y\n1,red\n"), "y")  # arity mismatch
    with pytest.raises(DataError):
        load_csv(write(tmp_path, ""), "y")  # empty file
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "a,b,y\n"), "y")  # header only


def test_csv_round_trip(tmp_path):
    schema = Schema(
        (Feature("a"), Feature("b", ("red", "green"))), "y", ("no", "yes")
    )
    X = np.array([[1.25, 0.0], [float("nan"), 1.0], [3.5, UNSEEN]])
    y = np.array([0, 1, -1])
    batch = Batch(schema, X, y)
    path = str(tmp_path / "out.csv")
    write_csv(batch, path)
    _, again = load_csv(path, "y")
    # unseen markers round-trip through "?" into missing, everything else exact
    assert again.X[0, 0] == 1.25 and again.X[2, 0] == 3.5
    assert again.y.tolist() == [0, 1, -1]


def reference_load(header, rows, label):
    """Per-cell reference for ``load_csv``: (features, classes, X, y)."""
    missing = ("", "?")

    def number(cell):
        try:
            v = float(cell)
        except ValueError:
            return None
        return v if math.isfinite(v) else None

    lp = header.index(label)
    classes = tuple(sorted({r[lp] for r in rows} - set(missing)))
    features, X = [], [[] for _ in rows]
    for j, name in enumerate(header):
        if j == lp:
            continue
        present = [r[j] for r in rows if r[j] not in missing]
        numeric = present and all(number(c) is not None for c in present)
        levels = None if numeric else tuple(sorted(set(present)))
        features.append(Feature(name, levels))
        for i, r in enumerate(rows):
            c = r[j]
            X[i].append(math.nan if c in missing else number(c) if numeric else levels.index(c))
    y = [classes.index(r[lp]) if r[lp] not in missing else -1 for r in rows]
    return features, classes, np.array(X, dtype=float).reshape(len(rows), len(features)), y


CELLS = (" 4", "1_0", "-3e2", "nan", "inf", "0x1", "?", "", "red", "blue", "7", "0.5")
LABELS = ("0", "1", "10", "2.5", " 4", "-3e2", "?", "", "yes")


@st.composite
def csv_grid(draw):
    """Header, rows and label column of a small CSV whose columns mix
    numeric tokens, missing cells and words; some columns are all missing."""
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    label_pos = draw(st.integers(0, width - 1))
    columns = []
    for j in range(width):
        if j == label_pos:
            tokens = LABELS
        elif draw(st.integers(0, 5)) == 0:
            tokens = ("?", "")  # every cell missing
        else:
            tokens = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4, unique=True))
        columns.append(draw(st.lists(st.sampled_from(tokens), min_size=n, max_size=n)))
    header = [f"c{j}" for j in range(width)]
    return header, [list(row) for row in zip(*columns)], header[label_pos]


def csv_module_load(path, label):
    """``load_csv`` as the ``csv`` module reads the file row by row, with
    ``reference_load`` decoding its cells: ``(schema, X, y)`` or the
    ``DataError`` (``csv.Error`` for a field over the module's limit)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header, rows = [h.strip() for h in rows[0]], rows[1:]
    if label not in header:
        raise DataError(f"{path}: label column {label!r} not in header {header}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
    features, classes, X, y = reference_load(header, rows, label)
    if len(classes) < 2:
        raise DataError(f"label column {label!r} holds fewer than 2 classes")
    return Schema(tuple(features), label, classes), X, np.array(y, dtype=np.int64)


def outcome(load, path, label):
    """What ``load`` gives: the schema and the bytes of X and y, or the
    error's type and message."""
    try:
        schema, *arrays = load(path, label)
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    if isinstance(arrays[0], Batch):
        arrays = [arrays[0].X, arrays[0].y]
    return schema, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@given(csv_grid())
def test_load_csv_equals_per_cell_reference(tmp_path_factory, grid):
    """Each grid written by ``csv.writer`` (CRLF line ends, so the ``csv``
    module reads it) and as plain ``\\n`` lines (split directly)."""
    header, rows, label = grid
    folder = tmp_path_factory.mktemp("grid")
    with open(folder / "quoted.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    plain = "".join(",".join(row) + "\n" for row in [header] + rows)
    (folder / "plain.csv").write_bytes(plain.encode())
    assert b"\r\n" in (folder / "quoted.csv").read_bytes()
    features, classes, X, y = reference_load(header, rows, label)
    for name in ("quoted.csv", "plain.csv"):
        path = str(folder / name)
        if name == "plain.csv" and len(header) == 1 and "" in (r[0] for r in rows):
            with pytest.raises(DataError, match="has 0 cells"):  # a blank line is a row of none
                load_csv(path, label)
        elif len(classes) < 2 or any(f.levels == () for f in features):
            with pytest.raises(DataError):
                load_csv(path, label)
        else:
            schema, batch = load_csv(path, label)
            assert schema == Schema(tuple(features), label, classes)
            assert batch.X.tobytes() == X.tobytes() and batch.X.shape == X.shape
            assert batch.y.tolist() == y


RAW = ',\n"\r?_-.e0123456789abxy '
LIMIT = csv.field_size_limit()  # the module's default


@st.composite
def raw_csv(draw):
    """The text of a small CSV file and the ``csv`` module's field size
    limit to read it under. The header names ``y`` or not; most rows hold
    the header's count of cells from ``CELLS`` and ``LABELS``, and any
    cell, line or header name may instead be a short text of ``RAW`` (a
    delimiter, a line end or a quote among others), or a line blank. Rows
    end in ``\\n`` or ``\\r\\n``, the last one perhaps in nothing."""
    width = draw(st.integers(1, 3))
    raw = st.text(RAW, max_size=4)

    def rare(common, other):  # ``common`` nine times in ten
        return draw(common) if draw(st.integers(0, 9)) else draw(other)

    names = [rare(st.sampled_from(["a", "b"]), raw) for _ in range(width)]
    if draw(st.integers(0, 4)):
        names[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["y", " y ", '"y"']))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(1, 10))):
        row = [rare(st.sampled_from(CELLS + LABELS), raw) for _ in range(width)]
        lines.append(rare(st.just(",".join(row)), st.sampled_from(["", draw(raw)])))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, draw(st.sampled_from([LIMIT] * 3 + [3]))


@settings(max_examples=300)
@given(raw_csv())
@example(("a,y\n1,0\n\n2,1\n", LIMIT))  # a blank line
@example(("a,y\n1,0\n2,1", LIMIT))  # no final newline
@example(("y\n0\n1\n", LIMIT))  # one column, no features
@example(("y\n0\n\n1\n", LIMIT))  # one column, a blank line
@example(("a,y\n1,0\n22222,1\n", 4))  # a field over the limit
@example(('a,y\r\n"1,5",0\r\n2,1\r\n', LIMIT))  # quoted, CRLF
def test_load_csv_reads_any_text_as_the_csv_module_does(tmp_path_factory, case):
    """``load_csv`` gives the schema, X and y, or the error, of the ``csv``
    module's reading of the file under its field size limit."""
    text, limit = case
    path = tmp_path_factory.mktemp("raw") / "raw.csv"
    path.write_bytes(text.encode())
    before = csv.field_size_limit(limit)
    try:
        assert outcome(load_csv, str(path), "y") == outcome(csv_module_load, str(path), "y")
    finally:
        csv.field_size_limit(before)


def test_split_sizes():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    data = Batch(schema, np.arange(10.0).reshape(-1, 1), np.zeros(10, dtype=int))
    parts = split_stream(data, 3)
    assert [len(p) for p in parts] == [3, 3, 3, 1]


def test_split_identity_case():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    data = Batch(schema, np.arange(5.0).reshape(-1, 1), np.ones(5, dtype=int))
    parts = split_stream(data, 5)
    assert len(parts) == 1
    assert np.array_equal(parts[0].X, data.X)
    assert np.array_equal(parts[0].y, data.y)


def test_split_round_trip():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    rng = np.random.default_rng(0)
    data = Batch(schema, rng.normal(size=(37, 1)), rng.integers(0, 2, 37))
    for size in (1, 2, 5, 36, 37, 100):
        parts = split_stream(data, size)
        glued = concat_batches(parts)
        assert np.array_equal(glued.X, data.X)
        assert np.array_equal(glued.y, data.y)


def test_split_rejects_zero():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    data = Batch(schema, np.zeros((3, 1)), np.zeros(3, dtype=int))
    with pytest.raises(DataError):
        split_stream(data, 0)


def test_split_stagger_stream_counts():
    batch = generate_stagger(StaggerConfig(n_instances=70_000, seed=1))
    parts = split_stream(batch, 7_000)
    assert len(parts) == 10
    assert all(len(p) == 7_000 for p in parts)


def test_batch_arrays_read_only():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    batch = Batch(schema, np.zeros((2, 1)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        batch.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        batch.y[0] = 1


@st.composite
def batch_and_rows(draw):
    """A batch (NaN cells, unlabeled rows) and a slice or an index array of
    its rows: sorted or not, with repeats, possibly empty."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, 2))
    X[rng.random((n, 2)) < 0.1] = np.nan
    schema = Schema((Feature("a"), Feature("b", ("red", "green"))), "y", ("0", "1", "2"))
    batch = Batch(schema, X, rng.integers(-1, 3, n))
    if draw(st.booleans()):
        return batch, draw(st.slices(n))
    rows = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=50 if n else 0))
    if draw(st.booleans()):
        rows.sort()
    return batch, np.array(rows, dtype=np.intp)


@given(batch_and_rows())
def test_take_equals_a_new_batch_of_the_same_rows(case):
    batch, rows = case
    got = batch.take(rows)
    want = Batch(batch.schema, batch.X[rows], batch.y[rows])
    assert got.schema is batch.schema
    assert got.X.tobytes() == want.X.tobytes() and got.X.shape == want.X.shape
    assert got.y.tobytes() == want.y.tobytes() and got.y.dtype == want.y.dtype
    assert not got.X.flags.writeable and not got.y.flags.writeable
    if len(got):  # a slice views the batch's memory, an index array copies
        shared = isinstance(rows, slice)
        assert np.shares_memory(got.X, batch.X) == shared
        assert np.shares_memory(got.y, batch.y) == shared


def test_concat_keeps_the_first_schema_and_rejects_incompatible_batches():
    first = Schema((Feature("a"), Feature("b", ("red", "green"))), "y", ("0", "1"))
    renamed = Schema((Feature("p"), Feature("q", ("blue",))), "label", ("no", "yes"))
    a = Batch(first, [[1.0, 0.0]], [0])
    b = Batch(renamed, [[2.0, 0.0], [3.0, 1.0]], [1, 0])
    glued = concat_batches([a, b])
    assert glued.schema is first
    assert glued.X.tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 1.0]]
    assert glued.y.tolist() == [0, 1, 0]
    assert not glued.X.flags.writeable and not glued.y.flags.writeable
    numeric = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    with pytest.raises(DataError, match="batch 1"):
        concat_batches([a, Batch(numeric, [[1.0, 2.0]], [0])])
    with pytest.raises(DataError):
        concat_batches([])


def test_schema_validation():
    with pytest.raises(DataError):
        Schema((Feature("x"), Feature("x")), "y", ("0", "1"))
    with pytest.raises(DataError):
        Schema((Feature("x"),), "y", ("0",))
    with pytest.raises(DataError):
        Schema((Feature("x", ()),), "y", ("0", "1"))
    with pytest.raises(DataError):
        Schema((Feature("x", ("a", "a")),), "y", ("0", "1"))


@pytest.mark.skipif(
    not os.path.exists(ELECTRICITY),
    reason="electricity dataset not bundled; see README for how to obtain it",
)
def test_load_electricity():
    schema, batch = load_csv(ELECTRICITY, "class")
    assert len(batch) == 45_312
    assert schema.n_features == 8


@given(st.integers(0, 80), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(0, 3, 0)
@example(50, 2, 1)
def test_distinct_rows_scatter_back_byte_for_byte(n, width, seed):
    rng = np.random.default_rng(seed)
    cells = np.array([0.0, -0.0, np.nan, 1.0, -1.5])  # -0.0 and 0.0 differ in bytes
    X = cells[rng.integers(0, cells.size, (n, width))]
    first, inverse = distinct_rows(X)
    assert X[first][inverse].tobytes() == X.tobytes()
    assert len({row.tobytes() for row in X}) == first.size
    assert (np.diff(first) > 0).all()
    assert (first[inverse] <= np.arange(n)).all()  # each row's first appearance


def test_distinct_rows_of_an_all_distinct_or_columnless_block():
    X = np.arange(12.0).reshape(6, 2)
    first, inverse = distinct_rows(X)
    assert first.tolist() == inverse.tolist() == list(range(6))
    first, inverse = distinct_rows(np.empty((3, 0)))
    assert first.tolist() == [0] and inverse.tolist() == [0, 0, 0]
