"""Scoring: accuracy and normalized area under the ROC curve.

``normalized_auc`` maps AUC from [0, 1] onto [-1, 1] via 2*AUC - 1 and is
computed with the rank statistic (midranks on tied scores). A single-class
batch cannot be ranked; it scores NaN and callers exclude it from means.
"""

from __future__ import annotations

import numpy as np

ACCURACY = "accuracy"
NORMALIZED_AUC = "normalized_auc"
METRICS = (ACCURACY, NORMALIZED_AUC)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("accuracy of an empty batch is undefined")
    return float((y_true == y_pred).mean())


def midranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1; tied values share the average of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # tie runs
    lengths = np.diff(np.r_[starts, values.size])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(starts + (lengths + 1) / 2.0, lengths)
    return ranks


def auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC for binary labels (positive class = index 1)."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.size == 0:
        raise ValueError("AUC of an empty batch is undefined")
    pos = y_true == 1
    n_pos = int(pos.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = midranks(scores)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def normalized_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    return 2.0 * auc(y_true, scores) - 1.0


def score(metric: str, y_true: np.ndarray, proba_or_pred: np.ndarray) -> float:
    """Score hard predictions (1-D int) or a probability matrix (2-D).

    accuracy takes either form (matrix rows are argmaxed, ties to the lowest
    class index). normalized_auc needs binary labels and real-valued scores:
    a matrix contributes its class-1 column.
    """
    arr = np.asarray(proba_or_pred)
    if metric == ACCURACY:
        y_pred = arr.argmax(axis=1) if arr.ndim == 2 else arr
        return accuracy(y_true, y_pred)
    if metric == NORMALIZED_AUC:
        if arr.ndim == 2:
            if arr.shape[1] != 2:
                raise ValueError("normalized_auc needs binary class probabilities")
            arr = arr[:, 1]
        return normalized_auc(y_true, arr)
    raise ValueError(f"unknown metric {metric!r}")
