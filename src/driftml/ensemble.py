"""Greedy ensemble selection over a model library, and weighted prediction.

Selection is forward, with replacement: every round adds the library member
whose inclusion maximizes the validation metric of the uniform average of
all picks so far (ties go to the lower library index). The returned ensemble
is the best-scoring prefix of that trace, which makes the guarantee exact:
its validation metric is at least the best single member's, because the
first pick alone is the best single member. Selection stops at the first
round that scores 1.0, which no metric exceeds.

Member weights are selection frequencies within the kept prefix, so they are
positive, sum to one, and can be reconstructed from the trace.

A round scores all members at once, with one ``score`` call: the members'
holdout probabilities are stacked as ``(members, classes, rows)`` so each
class is one contiguous plane, and rows that hold the same distinct holdout
row (``Holdout.inverse``) and label are merged into one row weighted by its
count. Members predict such rows alike, byte for byte, so every candidate
mix treats merged rows alike and the weighted scores equal the per-row ones
exactly (a STAGGER holdout merges into at most 27 inputs times 2 labels).
The first round scores each member alone; a library keeps no scores.
``ensemble_predict_proba``, the per-batch read path, predicts every row
directly: finding one batch's distinct rows costs more there than it saves.
Its members predict together (``pipeline.predict_pipelines``), so k-NN
members on byte-identical references and inputs share one distance pass;
each member's prediction keeps its bytes, and the weighted sum its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Batch
from .metrics import score
from .pipeline import predict_pipelines
from .search import Holdout, ModelLibrary


class EnsembleError(Exception):
    """Empty library or dangling member references."""


@dataclass(frozen=True)
class EnsembleModel:
    member_refs: tuple[int, ...]     # library indices, ascending
    weights: tuple[float, ...]       # aligned to member_refs, > 0, sum 1
    rounds: int                      # length of the kept prefix
    selection_trace: tuple[int, ...]
    validation_score: float = float("nan")

    def __post_init__(self):
        if len(self.member_refs) != len(self.weights):
            raise EnsembleError("weights not aligned to member refs")
        if len(self.selection_trace) != self.rounds:
            raise EnsembleError("trace length must equal rounds")
        if self.rounds > 0 and abs(sum(self.weights) - 1.0) > 1e-9:
            raise EnsembleError("weights must sum to 1")


def select_ensemble(lib: ModelLibrary, rounds: int = 50, metric: str | None = None
                    ) -> EnsembleModel:
    """Greedy forward selection with replacement over the library.

    ``metric`` defaults to the library's own scoring metric. A NaN candidate
    score (e.g. a single-class validation set under normalized AUC) ranks
    below every real score.
    """
    if len(lib) == 0:
        raise EnsembleError("cannot select from an empty library")
    if rounds < 1:
        raise EnsembleError("rounds must be >= 1")
    metric = lib.metric if metric is None else metric
    planes = np.stack([np.asarray(m.validation_proba, dtype=np.float64).T for m in lib.members])
    planes, y, weight = _merge_rows(planes, lib.holdout)

    trace: list[int] = []
    prefix_scores: list[float] = []
    running = np.zeros(planes.shape[1:])
    mixes = np.empty_like(planes)  # every member's candidate mix, reused each round
    for r in range(1, rounds + 1):
        np.divide(np.add(running, planes, out=mixes), r, out=mixes)
        scores = score(metric, y, mixes.transpose(0, 2, 1), weight)
        # the lowest index among the best; NaN ranks below every real score,
        # and with every candidate NaN the lowest index is kept
        best = int(np.argmax(np.where(np.isnan(scores), -np.inf, scores)))
        trace.append(best)
        prefix_scores.append(float(scores[best]))
        if prefix_scores[-1] == 1.0:
            # no metric scores above 1.0 (accuracy is a count over its total,
            # AUC's numerator is at most n_pos·n_neg, both exact), so later
            # rounds can only tie, and the earliest best prefix is kept
            break
        running += planes[best]

    finite = [(s if not math.isnan(s) else -math.inf) for s in prefix_scores]
    best_len = int(np.argmax(finite)) + 1  # earliest best prefix
    kept = trace[:best_len]
    refs = sorted(set(kept))
    weights = tuple(kept.count(i) / best_len for i in refs)
    return EnsembleModel(
        member_refs=tuple(refs),
        weights=weights,
        rounds=best_len,
        selection_trace=tuple(kept),
        validation_score=prefix_scores[best_len - 1],
    )


def _merge_rows(planes: np.ndarray, holdout: Holdout):
    """``(planes, y, weight)`` over the rows of a ``(members, classes, rows)``
    stack of predictions on ``holdout``, one row per (distinct holdout row,
    label) pair, weighted by its count (``None`` when no two rows merge). A
    stack holding a non-finite value keeps every row: NaN scores rank by
    row position, which merging loses."""
    y = holdout.batch.y
    if not np.isfinite(planes).all():
        return planes, y, None
    _, first, count = np.unique(holdout.inverse * planes.shape[1] + y,
                                return_index=True, return_counts=True)
    if first.size == y.size:
        return planes, y, None
    return planes.take(first, axis=2), y[first], count


def ensemble_predict_proba(ens: EnsembleModel, lib: ModelLibrary, batch: Batch
                           ) -> np.ndarray:
    """Weighted average of member probabilities on a new batch."""
    if not ens.member_refs:
        raise EnsembleError("ensemble references no members")
    if max(ens.member_refs) >= len(lib) or min(ens.member_refs) < 0:
        raise EnsembleError("ensemble references members outside the library")
    probas = predict_pipelines([lib.members[ref].pipeline for ref in ens.member_refs], batch)
    out = None
    for w, p in zip(ens.weights, probas):
        out = w * p if out is None else out + w * p
    return out

