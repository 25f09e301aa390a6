"""Budgeted pipeline search that keeps every evaluated model.

Candidates come from a fixed portfolio first, then from seeded random draws
over the configuration space. Each successful fit is retained in a
``ModelLibrary`` together with its holdout predictions, because ensemble
selection and the weight-update adaptation strategies need those
predictions later. A candidate that fails on a bad config or degenerate
data (``CANDIDATE_ERRORS``) is logged and skipped; any other error
propagates.

Holdout predictions are made once per distinct row. A ``Holdout`` finds
the byte-distinct rows of a validation batch once; every model predicts
those rows and ``[inverse]`` scatters the predictions back to every row, so
a library member still holds one prediction row per holdout row. A STAGGER
holdout of thousands of rows has at most 27 distinct ones. The stored bytes
are those of predicting every row only where numpy's matrix products give
a row the same sums wherever it sits in a block. With OpenBLAS 0.3.31 they
do over fewer than 16 columns for every family (SkylakeX and Haswell
kernels); with the SkylakeX kernels a logistic product over 16 or more
columns rounds some rows of a block differently. (A k-NN distance product
can switch kernels with the block's size, but a vote share moves only at
an exact distance tie, and none showed.) A holdout whose schema can encode
to more than ``DISTINCT_ROWS_MAX_WIDTH`` columns is therefore predicted
whole.

Candidates admitted together are evaluated together
(``evaluate_candidates``): each distinct preprocessing prefix is fitted once
on the fit batch and its pipelines share the fitted stages, and logistic-SGD
candidates whose matrices share a shape are trained in lockstep. Every
member gets the bytes it gets when fitted alone (``evaluate_candidate``).
With ``max_seconds`` unset, results are bit-deterministic under a fixed
seed: each candidate draws from its own seed, and members are assembled by
candidate index. Only the shared prefixes and the lockstep groups tie the
candidates' work together, so that is where a parallel executor would have
to split it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import Batch, DataError, Schema, distinct_rows
from .metrics import ACCURACY, score
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


@dataclass(frozen=True)
class LibraryMember:
    pipeline: TrainedPipeline
    validation_proba: np.ndarray
    validation_score: float


@dataclass(frozen=True)
class ModelLibrary:
    members: tuple[LibraryMember, ...]
    validation_set: Batch
    metric: str = ACCURACY

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Holdout:
    """A validation batch with the rows models predict for it: ``distinct``
    holds each byte-distinct row once, and ``[inverse]`` scatters their
    predictions back to every row of ``batch``. A batch whose schema can
    encode to more than ``DISTINCT_ROWS_MAX_WIDTH`` columns is predicted
    whole (``distinct`` is ``batch``)."""

    batch: Batch
    distinct: Batch
    inverse: np.ndarray

    @classmethod
    def of(cls, batch: Batch) -> "Holdout":
        if widest_encoding(batch.schema) > DISTINCT_ROWS_MAX_WIDTH:
            return cls(batch, batch, np.arange(len(batch)))
        first, inverse = distinct_rows(batch.X)
        if first.size == 1:
            # numpy multiplies a one-row block as a matrix-vector product,
            # whose sums round differently from the matrix product that a
            # block of more rows gets; the lone row is predicted twice
            first = first[[0, 0]]
        return cls(batch, batch.take(first), inverse)


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
    ).validate()


def _member(model: TrainedPipeline, holdout: Holdout, metric: str) -> LibraryMember:
    """``model`` with its read-only predictions on every holdout row and
    their score."""
    proba = model.predict_proba(holdout.distinct)[holdout.inverse]
    proba.setflags(write=False)
    return LibraryMember(model, proba, score(metric, holdout.batch.y, proba))


def evaluate_candidate(config: PipelineConfig, fit_batch: Batch, holdout: Holdout,
                       metric: str, seed: int) -> LibraryMember:
    """One candidate fitted and scored alone: the member that
    ``evaluate_candidates`` makes of it, byte for byte."""
    return _member(fit(config, fit_batch, seed), holdout, metric)


def evaluate_candidates(candidates: Sequence[tuple[int, PipelineConfig]], fit_batch: Batch,
                        holdout: Holdout, metric: str, seed: int) -> list[LibraryMember]:
    """Fit candidate ``(index, config)`` pairs on ``fit_batch`` (candidate
    ``index`` with seed ``seed + index``) and score them on ``holdout``.

    Each distinct preprocessing prefix is fitted once, and its pipelines
    share the fitted stages; ``fit_classifiers`` steps the logistic-SGD
    classifiers in lockstep. A candidate that fails with one of
    ``CANDIDATE_ERRORS`` is logged and skipped: a config that does not
    validate, every candidate of a prefix that does not fit, or a classifier
    that does not fit. Returns the members in candidate order.
    """
    by_prefix = {}  # prefix -> [(index, config)]
    for i, config in candidates:
        try:
            config.validate()
        except CANDIDATE_ERRORS as exc:
            log.warning("candidate %d failed: %s", i, exc)
            continue
        by_prefix.setdefault(prefix(config), []).append((i, config))

    ready = []  # (index, config, stages, matrix)
    for group in by_prefix.values():
        try:
            stages, X = fit_stages(group[0][1], fit_batch)
        except CANDIDATE_ERRORS as exc:
            for i, _ in group:
                log.warning("candidate %d failed: %s", i, exc)
            continue
        ready += [(i, config, stages, X) for i, config in group]
    ready.sort(key=lambda job: job[0])

    def classifiers(jobs):
        return fit_classifiers([config for _, config, _, _ in jobs], [X for _, _, _, X in jobs],
                               fit_batch, [seed + i for i, _, _, _ in jobs])

    try:
        fitted = classifiers(ready)
    except CANDIDATE_ERRORS:
        # a lockstep fit does not say whose step failed: fit each alone
        fitted = []
        for job in ready:
            try:
                fitted += classifiers([job])
            except CANDIDATE_ERRORS as exc:
                log.warning("candidate %d failed: %s", job[0], exc)
                fitted.append(None)

    members = []
    for (i, config, stages, _), classifier in zip(ready, fitted):
        if classifier is None:
            continue
        try:
            members.append(_member(TrainedPipeline(config, fit_batch.schema, stages, classifier),
                                   holdout, metric))
        except CANDIDATE_ERRORS as exc:
            log.warning("candidate %d failed: %s", i, exc)
    return members


def run_search(
    train: Batch,
    budget: SearchBudget,
    portfolio: Sequence[PipelineConfig],
    metric: str = ACCURACY,
) -> ModelLibrary:
    """Evaluate candidates under the budget and return the full library.

    The labeled input is split once (seeded, stratified) into fit and
    validation parts; every candidate trains on the fit part and is scored
    on the validation part with ``metric``. Candidates are admitted in index
    order. Without ``max_seconds`` all of them are evaluated together; with
    it, each admitted candidate is evaluated before the next is admitted,
    and none is admitted once the time is up and one has succeeded.
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
        if budget.max_seconds is not None:
            members += evaluate_candidates(admitted, fit_batch, holdout, metric, budget.seed)
            admitted = []
            if members and time.perf_counter() - started >= budget.max_seconds:
                break
        admitted.append((i, portfolio[i] if i < len(portfolio) else sample_config(rng)))
    members += evaluate_candidates(admitted, fit_batch, holdout, metric, budget.seed)
    if not members:
        raise SearchError("search budget exhausted with zero successful fits")
    return ModelLibrary(tuple(members), val_batch, metric)


def rescore_library(lib: ModelLibrary, new_validation: Batch,
                    holdout: Optional[Holdout] = None) -> ModelLibrary:
    """Recompute every member's holdout predictions against a new labeled
    batch; fitted models are untouched. ``holdout``, when the caller has
    one, is ``Holdout.of(new_validation)``."""
    if len(new_validation) == 0:
        raise DataError("cannot rescore against an empty batch")
    if not new_validation.fully_labeled:
        raise DataError("rescoring batch must be fully labeled")
    if not new_validation.schema.compatible_with(lib.validation_set.schema):
        raise DataError("rescoring batch schema incompatible with the library")
    if holdout is None:
        holdout = Holdout.of(new_validation)
    members = tuple(_member(m.pipeline, holdout, lib.metric) for m in lib.members)
    return replace(lib, members=members, validation_set=new_validation)
