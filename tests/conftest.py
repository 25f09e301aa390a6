import csv
import math

import numpy as np
import pytest
from hypothesis import settings

from driftml.data import UNSEEN, Batch, Feature, Schema
from driftml.search import LibraryMember, ModelLibrary

# Every run draws the same examples (derandomize also turns off the example
# database, so nothing depends on a local .hypothesis/ directory); property
# tests over large arrays must not trip a per-example deadline.
settings.register_profile("driftml", derandomize=True, deadline=None)
settings.load_profile("driftml")


@pytest.fixture
def numeric_schema():
    return Schema(
        features=(Feature("x1"), Feature("x2")),
        label_name="y",
        classes=("a", "b"),
    )


@pytest.fixture
def mixed_schema():
    return Schema(
        features=(Feature("a"), Feature("b", ("red", "green"))),
        label_name="y",
        classes=("0", "1"),
    )


def make_batch(schema, X, y):
    return Batch(schema, np.asarray(X, dtype=float), np.asarray(y, dtype=np.int64))


def write_csv(batch: Batch, path: str) -> None:
    """Emit a batch in the load_csv format (missing and unlabeled become ``?``)."""
    schema = batch.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in schema.features] + [schema.label_name])
        for i in range(len(batch)):
            row = []
            for k, f in enumerate(schema.features):
                v = batch.X[i, k]
                if math.isnan(v):
                    row.append("?")
                elif f.levels is not None:
                    row.append("?" if v == UNSEEN else f.levels[int(v)])
                else:
                    row.append(repr(float(v)))
            label = int(batch.y[i])
            row.append("?" if label < 0 else schema.classes[label])
            writer.writerow(row)


class FixedProba:
    """Pipeline stub: predicts the first ``len(batch)`` of its fixed rows."""

    def __init__(self, proba):
        self.proba = proba

    def predict_proba(self, batch):
        return self.proba[: len(batch)]


def stub_library(probas, y_true, metric="accuracy"):
    """Library of fixed-probability members, validated on an all-zero batch
    whose rows the stubs predict."""
    from driftml.metrics import score

    schema = Schema(
        features=(Feature("x"),),
        label_name="y",
        classes=tuple(str(c) for c in range(int(np.asarray(probas[0]).shape[1]))),
    )
    y = np.asarray(y_true, dtype=np.int64)
    val = Batch(schema, np.zeros((y.size, 1)), y)
    probas = [np.asarray(p, dtype=float) for p in probas]
    members = tuple(LibraryMember(FixedProba(p), p, score(metric, y, p)) for p in probas)
    return ModelLibrary(members, val, metric)
