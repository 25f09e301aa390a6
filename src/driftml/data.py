"""Typed tabular data model, CSV ingestion and sequential batch splitting.

Values are held in a dense float64 matrix. Numeric cells hold the parsed
value, categorical cells hold the level index within the feature's declared
level list. Two sentinel encodings exist:

* missing cell           -> NaN          (``?`` or empty cell in CSV)
* unseen categorical     -> ``UNSEEN``   (-1.0; never produced by ``load_csv``,
                                          whose levels are every value in the
                                          file: a marker for callers who build
                                          a ``Batch`` themselves)

Labels are class indices; ``-1`` marks an unlabeled instance. All containers
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MISSING = float("nan")
UNSEEN = -1.0

_MISSING_TOKENS = ("", "?")


class DataError(Exception):
    """Raised for malformed files, schema violations and bad split arguments."""


@dataclass(frozen=True)
class Feature:
    """One column: ``levels`` is None for numeric, an ordered tuple otherwise."""

    name: str
    levels: Optional[tuple[str, ...]] = None

    @property
    def is_categorical(self) -> bool:
        return self.levels is not None


@dataclass(frozen=True)
class Schema:
    features: tuple[Feature, ...]
    label_name: str
    classes: tuple[str, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names in schema")
        if len(self.classes) < 2:
            raise DataError("schema needs at least 2 classes")
        if len(set(self.classes)) != len(self.classes):
            raise DataError("duplicate class names in schema")
        for f in self.features:
            if f.levels is not None:
                if len(f.levels) == 0:
                    raise DataError(f"categorical feature {f.name!r} has no levels")
                if len(set(f.levels)) != len(f.levels):
                    raise DataError(f"duplicate levels in feature {f.name!r}")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def compatible_with(self, other: "Schema") -> bool:
        """Feature count and per-column kind match (names may differ)."""
        if self.n_features != other.n_features or self.n_classes != other.n_classes:
            return False
        return all(
            a.is_categorical == b.is_categorical
            for a, b in zip(self.features, other.features)
        )


class Batch:
    """An ordered block of instances sharing one schema.

    Arrival order is preserved exactly (the drift detector consumes
    correctness in this order). The backing arrays are read-only. The
    constructor checks and copies its input; ``take`` does neither.
    """

    __slots__ = ("schema", "X", "y")

    def __init__(self, schema: Schema, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != schema.n_features:
            raise DataError(
                f"value matrix has shape {X.shape}, schema expects "
                f"{schema.n_features} features"
            )
        if y.shape != (X.shape[0],):
            raise DataError("label vector length does not match instance count")
        if y.size and (y.max(initial=-1) >= schema.n_classes or y.min(initial=0) < -1):
            raise DataError("label index outside schema classes")
        X = X.copy()
        y = y.copy()
        X.setflags(write=False)
        y.setflags(write=False)
        self.schema = schema
        self.X = X
        self.y = y

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def fully_labeled(self) -> bool:
        return bool((self.y >= 0).all())

    def take(self, rows) -> "Batch":
        """The instances at ``rows`` (a slice or an index array), same schema.

        A slice shares this batch's read-only memory; an index array copies
        the selected rows once.
        """
        cut = Batch.__new__(Batch)  # the rows of a valid batch need no checks
        cut.schema, cut.X, cut.y = self.schema, self.X[rows], self.y[rows]
        cut.X.setflags(write=False)
        cut.y.setflags(write=False)
        return cut


def _parse_numeric(token: str) -> float:
    """``float(token)``; a value that is not finite raises ``ValueError`` too."""
    v = float(token)
    if not math.isfinite(v):
        raise ValueError(f"{token!r} is not finite")
    return v


def _levels(cells: Sequence[str]) -> tuple[str, ...]:
    """The distinct present cells in lexicographic order."""
    return tuple(sorted(set(cells).difference(_MISSING_TOKENS)))


def _level_indices(cells: Sequence[str], levels: tuple[str, ...], missing) -> list:
    index = {level: i for i, level in enumerate(levels)}
    return [index.get(cell, missing) for cell in cells]


def _decode_column(cells: Sequence[str], out: np.ndarray) -> Optional[tuple[str, ...]]:
    """Write one feature column into ``out``; return its levels, None if numeric.

    The column is numeric when it has a present cell and every present cell
    is a finite number: ``out`` holds those numbers, NaN where missing.
    Otherwise each cell holds its index in the column's levels.
    """
    if any(cell not in _MISSING_TOKENS for cell in cells):
        try:
            out[:] = [MISSING if c in _MISSING_TOKENS else _parse_numeric(c) for c in cells]
            return None
        except ValueError:
            pass
    levels = _levels(cells)
    out[:] = _level_indices(cells, levels, MISSING)
    return levels


def load_csv(path: str, label_column: str) -> tuple[Schema, Batch]:
    """Load a whole CSV file (UTF-8, header row, comma separated) as one Batch.

    The schema is inferred from the whole file. ``?`` or an empty cell is
    missing. A column with a present cell whose present cells all parse as
    finite numbers is numeric, any other column is categorical with
    lexicographically ordered levels; classes are likewise ordered, and a
    missing label is ``-1``.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    header = [h.strip() for h in header]
    if label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not in header {header}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")

    label_pos = header.index(label_column)
    X = np.empty((len(rows), width - 1), dtype=np.float64)
    features = []
    for j, cells in enumerate(zip(*rows)):
        if j == label_pos:
            classes = _levels(cells)
            y = np.array(_level_indices(cells, classes, -1), dtype=np.int64)
        else:
            levels = _decode_column(cells, X[:, len(features)])
            features.append(Feature(header[j], levels))
    if len(classes) < 2:
        raise DataError(f"label column {label_column!r} holds fewer than 2 classes")
    schema = Schema(tuple(features), label_column, classes)
    return schema, Batch(schema, X, y)


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` over the byte-distinct rows of a 2-D array.

    ``first`` holds the index of each distinct row's first appearance,
    ascending, and ``X[first][inverse]`` equals ``X`` byte for byte. Rows
    are compared as raw bytes, so NaN rows with the same bits fall together
    and -0.0 stays apart from 0.0. When every row is distinct, ``first`` is
    ``arange(len(X))``.
    """
    X = np.ascontiguousarray(X)
    if X.shape[1] == 0:  # no columns: every row is the same empty row
        X = np.zeros((X.shape[0], 1))
    rows = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)  # np.unique sorts by bytes; restore stream order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


def split_stream(data: Batch, batch_size: int) -> list[Batch]:
    """Cut a batch into ceil(N / batch_size) consecutive batches.

    All but the last have exactly ``batch_size`` instances; concatenating the
    result reproduces the input sequence.
    """
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    return [data.take(slice(start, start + batch_size))
            for start in range(0, len(data), batch_size)]


def concat_batches(batches: Sequence[Batch]) -> Batch:
    """Concatenate batches preserving order. Every batch must be compatible
    with the first (``Schema.compatible_with``), whose schema the result
    keeps."""
    if not batches:
        raise DataError("cannot concatenate zero batches")
    schema = batches[0].schema
    for i, b in enumerate(batches):
        if not b.schema.compatible_with(schema):
            raise DataError(f"batch {i} has a schema incompatible with the first batch's")
    X = np.concatenate([b.X for b in batches], axis=0)
    y = np.concatenate([b.y for b in batches], axis=0)
    return Batch(schema, X, y)
