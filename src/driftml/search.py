"""Budgeted pipeline search that keeps every evaluated model.

Candidates come from a fixed portfolio first, then from seeded random draws
over the configuration space. Each successful fit is retained in a
``ModelLibrary`` together with its predictions on the library's holdout,
because ensemble selection and the weight-update adaptation strategies need
those predictions later; only selection scores them. Every config is valid
once built; a candidate that fails on its data (``CANDIDATE_ERRORS``) is
logged and skipped, and any other error propagates.

Holdout predictions are made once per distinct row. A ``Holdout`` finds
the byte-distinct rows of a validation batch once, and with them the
columns that selection scores (``Holdout.columns``): one per (distinct
row, label) pair, weighted by its count. The models predict those rows
together (``pipeline.predict_pipelines``: one k-NN distance pass per shared
reference set and input matrix), and a library member keeps one prediction
row per distinct row, so rows that share an ``inverse`` entry get the same
bytes in every member. A STAGGER holdout of thousands of rows has at most
27 distinct ones. The stored bytes are those that predicting every row
gives only where numpy's matrix products give a row the same sums wherever
it sits in a block. With OpenBLAS 0.3.31 they do over fewer than 16
columns for every family (SkylakeX and Haswell kernels); with the SkylakeX kernels a logistic product over 16 or more
columns rounds some rows of a block differently. (A k-NN distance product
can switch kernels with the block's size, and a vote share moves only at
an exact distance tie; none showed between distinct-row and whole-batch
predictions. The product's rows are another matter: with
``KnnClassifier.CHUNK`` cut from 1,024 to 256 rows, the recorded
normalized-AUC report digests changed, while 512 and 768 kept them, so the
chunk stays at 1,024.) A holdout whose schema can encode
to more than ``DISTINCT_ROWS_MAX_WIDTH`` columns is therefore predicted
whole.

Candidates admitted together are evaluated together
(``evaluate_candidates``): each distinct preprocessing prefix is fitted once
on the fit batch and its pipelines share the fitted stages, and trees on one
matrix share its distinct (row, label) pairs. The fit batch finds its
distinct rows once (``Batch.distinct_rows``), and every prefix's stages
and every tree's pairs start from them, so a search scans whole batches
for distinct rows twice, its fit batch and its holdout, and never a
transformed matrix; on STAGGER the table holds 27 rows for thousands.
Every member gets the bytes it gets when fitted alone
(``evaluate_candidate``). With ``max_seconds`` unset,
results are bit-deterministic under a fixed seed: each candidate draws from
its own seed, and members are assembled by candidate index. A failure at any
step has one fallback: each candidate is evaluated alone. A kernel library
that cannot be built (``kernels.KernelBuildError``, at the first tree or
logistic fit or k-NN prediction) is not a candidate's failure, so it fails
the search.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import Batch, DataError, Schema
# search scores nothing: ``score`` stays only because perfbench/tracer.py patches search.score
from .metrics import ACCURACY, score  # noqa: F401
from .pipeline import (
    MAX_ONE_HOT_LEVELS,
    DecisionTreeConfig,
    KnnConfig,
    LogisticSgdConfig,
    NaiveBayesConfig,
    PipelineConfig,
    PipelineError,
    TopKMutualInfoConfig,
    TrainedPipeline,
    VarianceThresholdConfig,
    fit,
    fit_classifiers,
    fit_stages,
    predict_pipelines,
    prefix,
)

log = logging.getLogger(__name__)

# What a bad candidate config or degenerate data raises from fit, predict or
# scoring; a candidate that raises one is logged and skipped. Anything else
# is a bug and ends the run.
CANDIDATE_ERRORS = (PipelineError, DataError, np.linalg.LinAlgError, FloatingPointError)

# The widest classifier input at which predicting a holdout's distinct rows
# was checked to give every row the bytes of predicting every row.
DISTINCT_ROWS_MAX_WIDTH = 15


class SearchError(Exception):
    """Unusable training data or a budget that produced no model."""


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: int = 16
    max_seconds: Optional[float] = None
    validation_fraction: float = 0.33
    seed: int = 0

    def __post_init__(self):
        if self.max_candidates < 1:
            raise SearchError("max_candidates must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise SearchError("validation_fraction must lie in (0, 1)")
        # NaN and inf never bind
        if not (self.max_seconds is None or 0 <= self.max_seconds < float("inf")):
            raise SearchError("max_seconds must be finite and >= 0")


@dataclass(frozen=True)
class LibraryMember:
    pipeline: TrainedPipeline
    validation_proba: np.ndarray  # one row per row of the library's ``holdout.distinct``


@dataclass(frozen=True)
class ModelLibrary:
    members: tuple[LibraryMember, ...]
    holdout: Holdout
    metric: str = ACCURACY

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Holdout:
    """A validation batch with the rows models predict for it and the
    columns selection scores: ``distinct`` holds each byte-distinct row
    once, and row ``i`` of ``batch`` is row ``inverse[i]`` of ``distinct``.
    Rows of one distinct row and one label merge into one scoring column:
    ``rows`` holds each (distinct row, label) pair's row of ``distinct``,
    ``y`` its label and ``count`` its number of rows, in (distinct row,
    label) order. When no two rows merge, the columns are the batch's rows
    in stream order, held without a copy: ``rows`` is ``inverse``, ``y`` is
    ``batch.y`` and ``count`` a broadcast 1 (scores do not depend on the
    order of columns of weight 1). A batch whose rows are all distinct, or
    whose schema can encode to more than ``DISTINCT_ROWS_MAX_WIDTH``
    columns, is predicted whole: ``distinct`` is ``batch``, not a copy that
    a library would keep alive, and ``inverse`` and ``rows`` are
    ``arange``. Other modules score a holdout through ``columns`` and read
    none of these fields."""

    batch: Batch
    distinct: Batch
    inverse: np.ndarray
    rows: np.ndarray
    y: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, batch: Batch) -> "Holdout":
        distinct = batch
        if widest_encoding(batch.schema) > DISTINCT_ROWS_MAX_WIDTH:
            inverse = np.arange(len(batch))
        else:
            first, inverse = batch.distinct_rows()
            if first.size == 1:
                # numpy multiplies a one-row block as a matrix-vector product,
                # whose sums round differently from the matrix product that a
                # block of more rows gets; the lone row is predicted twice
                distinct = batch.take(first[[0, 0]])
            elif first.size < len(batch):  # else all distinct: ``inverse`` is arange
                distinct = batch.take(first)
        _, pair, count = np.unique(inverse * batch.schema.n_classes + batch.y,
                                   return_index=True, return_counts=True)
        if pair.size == len(batch):  # no two rows merge: the batch's rows are the columns
            return cls(batch, distinct, inverse, inverse, batch.y,
                       np.broadcast_to(np.int64(1), pair.size))
        return cls(batch, distinct, inverse, inverse[pair], batch.y[pair], count)

    def columns(self, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(planes, y, weight)`` to score: ``planes`` holds predictions on
        the distinct rows along its last axis, and comes back with one entry
        per scoring column, each with its label and count. Planes holding a
        non-finite value are scored row by row, each row with its own label
        and weight 1: NaN scores rank by row position, which merging loses."""
        if np.isfinite(planes).all():
            rows, y, weight = self.rows, self.y, self.count
        else:
            rows, y, weight = self.inverse, self.batch.y, np.ones(len(self), np.int64)
        if self.distinct is not self.batch:  # else ``rows`` is arange
            planes = planes.take(rows, axis=-1)
        return planes, y, weight

    def __len__(self) -> int:
        return len(self.batch)


def widest_encoding(schema: Schema) -> int:
    """The most columns a pipeline fitted on ``schema`` hands its
    classifier: one per numeric feature, and with one-hot encoding one per
    retained level plus ``other`` per categorical feature."""
    return sum(1 if f.levels is None else min(len(f.levels), MAX_ONE_HOT_LEVELS) + 1
               for f in schema.features)


def stratified_split(batch: Batch, fraction: float, rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-class holdout indices: (fit_rows, validation_rows), both sorted.

    Every class with at least two instances contributes at least one
    instance to each side; singleton classes stay in the fit part.
    """
    y = batch.y
    fit_rows, val_rows = [], []
    for c in np.unique(y):
        rows = np.nonzero(y == c)[0]
        if rows.size < 2:
            fit_rows.append(rows)
            continue
        perm = rng.permutation(rows.size)
        n_val = int(np.clip(round(rows.size * fraction), 1, rows.size - 1))
        val_rows.append(rows[perm[:n_val]])
        fit_rows.append(rows[perm[n_val:]])
    fit_idx = np.sort(np.concatenate(fit_rows))
    val_idx = np.sort(np.concatenate(val_rows)) if val_rows else np.empty(0, np.int64)
    return fit_idx, val_idx


def sample_config(rng: np.random.Generator) -> PipelineConfig:
    """Uniform family choice, then per-hyperparameter uniform or log-uniform
    draws inside the declared bounds."""

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    family = rng.integers(0, 4)
    if family == 0:
        classifier = DecisionTreeConfig(
            max_depth=int(rng.integers(1, 33)),
            min_leaf=int(np.round(log_uniform(1, 64))),
            split_criterion=("gini", "entropy")[rng.integers(0, 2)],
        )
    elif family == 1:
        classifier = NaiveBayesConfig(laplace_alpha=log_uniform(1e-3, 10.0))
    elif family == 2:
        classifier = LogisticSgdConfig(
            learning_rate=log_uniform(1e-3, 1.0),
            l2=log_uniform(1e-6, 1e-1),
            epochs=int(rng.integers(5, 51)),
        )
    else:
        classifier = KnnConfig(
            k=int(rng.integers(0, 13)) * 2 + 1,
            max_reference_points=(512, 1024, 2048)[rng.integers(0, 3)],
        )

    sel_kind = rng.integers(0, 3)
    if sel_kind == 0:
        selector = None
    elif sel_kind == 1:
        selector = VarianceThresholdConfig(tau=log_uniform(1e-4, 1e-1))
    else:
        selector = TopKMutualInfoConfig(k=int(rng.integers(1, 65)))

    return PipelineConfig(
        standardize=bool(rng.integers(0, 2)),
        imputation=("mean", "mode")[rng.integers(0, 2)],
        one_hot=bool(rng.integers(0, 2)),
        selector=selector,
        classifier=classifier,
    )


def _members(models: Sequence[TrainedPipeline], holdout: Holdout) -> list[LibraryMember]:
    """``models`` with their read-only predictions on the holdout's
    distinct rows, predicted together (``predict_pipelines``)."""
    members = []
    for model, proba in zip(models, predict_pipelines(models, holdout.distinct)):
        proba.setflags(write=False)
        members.append(LibraryMember(model, proba))
    return members


def evaluate_candidate(config: PipelineConfig, fit_batch: Batch, holdout: Holdout,
                       seed: int) -> LibraryMember:
    """One candidate fitted and predicted alone: the member that
    ``evaluate_candidates`` makes of it, byte for byte."""
    return _members([fit(config, fit_batch, seed)], holdout)[0]


def evaluate_candidates(candidates: Sequence[tuple[int, PipelineConfig]], fit_batch: Batch,
                        holdout: Holdout, seed: int) -> list[LibraryMember]:
    """The members of candidate ``(index, config)`` pairs (candidate
    ``index`` fitted with seed ``seed + index``), in candidate order. A
    grouped fit or predict does not say whose part failed: when
    ``_evaluate_together`` raises one of ``CANDIDATE_ERRORS``, each candidate
    is evaluated alone, and one that fails is logged and skipped."""
    try:
        return _evaluate_together(candidates, fit_batch, holdout, seed)
    except CANDIDATE_ERRORS:
        members = []
        for candidate in candidates:
            try:
                members += _evaluate_together([candidate], fit_batch, holdout, seed)
            except CANDIDATE_ERRORS as exc:
                log.warning("candidate %d failed: %s", candidate[0], exc)
        return members


def _evaluate_together(candidates: Sequence[tuple[int, PipelineConfig]], fit_batch: Batch,
                       holdout: Holdout, seed: int) -> list[LibraryMember]:
    """``evaluate_candidates`` without error handling: each distinct prefix's
    stages are fitted once and shared, one ``fit_classifiers`` call fits the
    classifiers, and the models predict together."""
    fitted = {}  # prefix -> (stages, matrix)
    for _, config in candidates:
        if prefix(config) not in fitted:
            fitted[prefix(config)] = fit_stages(config, fit_batch)
    prepared = [fitted[prefix(config)] for _, config in candidates]
    classifiers = fit_classifiers([config for _, config in candidates], [X for _, X in prepared],
                                  fit_batch, [seed + i for i, _ in candidates])
    return _members([TrainedPipeline(config, fit_batch.schema, stages, classifier)
                     for (_, config), (stages, _), classifier
                     in zip(candidates, prepared, classifiers)], holdout)


def run_search(
    train: Batch,
    budget: SearchBudget,
    portfolio: Sequence[PipelineConfig],
    metric: str = ACCURACY,
) -> ModelLibrary:
    """Evaluate candidates under the budget and return the full library.

    The labeled input is split once (seeded, stratified) into fit and
    validation parts; every candidate trains on the fit part and predicts
    the validation part, the library's holdout, where selection scores it
    with ``metric``. Candidates are admitted in index order. Without
    ``max_seconds`` all of them are evaluated together; with it, each
    admitted candidate is evaluated before the next is admitted, and none is
    admitted once the time is up and one has succeeded.
    """
    if len(train) < 10:
        raise SearchError(f"need at least 10 training instances, got {len(train)}")
    if not train.fully_labeled:
        raise SearchError("training batch must be fully labeled")
    if np.unique(train.y).size < 2:
        raise SearchError("training data holds a single class")

    rng = np.random.default_rng(budget.seed)
    fit_idx, val_idx = stratified_split(train, budget.validation_fraction, rng)
    fit_batch, val_batch = train.take(fit_idx), train.take(val_idx)
    holdout = Holdout.of(val_batch)

    started = time.perf_counter()
    members, admitted = [], []
    for i in range(budget.max_candidates):
        if budget.max_seconds is not None and admitted:
            members += evaluate_candidates(admitted, fit_batch, holdout, budget.seed)
            admitted = []
            if members and time.perf_counter() - started >= budget.max_seconds:
                break
        admitted.append((i, portfolio[i] if i < len(portfolio) else sample_config(rng)))
    members += evaluate_candidates(admitted, fit_batch, holdout, budget.seed)
    if not members:
        raise SearchError("search budget exhausted with zero successful fits")
    return ModelLibrary(tuple(members), holdout, metric)


def rescore_library(lib: ModelLibrary, holdout: Holdout) -> ModelLibrary:
    """Recompute every member's predictions on a new labeled holdout;
    fitted models are untouched."""
    batch = holdout.batch
    if len(batch) == 0:
        raise DataError("cannot rescore against an empty batch")
    if not batch.fully_labeled:
        raise DataError("rescoring batch must be fully labeled")
    if not batch.schema.compatible_with(lib.holdout.batch.schema):
        raise DataError("rescoring batch schema incompatible with the library")
    members = _members([m.pipeline for m in lib.members], holdout)
    return replace(lib, members=tuple(members), holdout=holdout)
