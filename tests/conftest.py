import csv
import math

import numpy as np
import pytest
from hypothesis import settings

from driftml.data import UNSEEN, Batch, Feature, Schema, distinct_rows
from driftml.metrics import score
from driftml.pipeline import TrainedPipeline
from driftml.search import Holdout, LibraryMember, ModelLibrary

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
    """Classifier stub: predicts the first ``len(X)`` of its fixed rows."""

    def __init__(self, proba):
        self.proba = proba

    def predict_proba(self, X):
        return self.proba[: len(X)]


def stub_library(probas, y_true, metric="accuracy"):
    """Library of fixed-probability members (pipelines without stages
    around a stub classifier) whose holdout rows the stubs predict. A row's
    one feature numbers its distinct stacked probability row, so rows that
    share a ``holdout.inverse`` entry get the same bytes in every member, as
    in a library that models predict."""
    schema = Schema(
        features=(Feature("x"),),
        label_name="y",
        classes=tuple(str(c) for c in range(int(np.asarray(probas[0]).shape[1]))),
    )
    y = np.asarray(y_true, dtype=np.int64)
    probas = [np.asarray(p, dtype=float) for p in probas]
    _, row = distinct_rows(np.hstack(probas))
    val = Batch(schema, row[:, None].astype(float), y)
    members = tuple(LibraryMember(TrainedPipeline(None, schema, (), FixedProba(p)), p)
                    for p in probas)
    return ModelLibrary(members, Holdout.of(val), metric)


def member_score(lib, member):
    """``member``'s score on the library's holdout: the score that the first
    round of ensemble selection gives it alone."""
    return score(lib.metric, lib.holdout.batch.y, member.validation_proba)
