"""Scoring of one batch: accuracy and normalized area under the ROC curve.

``normalized_auc`` maps AUC from [0, 1] onto [-1, 1] via 2*AUC - 1 and is
computed with the rank statistic (midranks on tied scores). A single-class
batch cannot be ranked; it scores NaN and callers exclude it from means.

Accuracy on probability rows takes each row's argmax (numpy's: ties to the
lower class, and a row holding NaN predicts its first NaN). The run loop
scores each batch here; ensemble selection scores its rounds in
``_kernels.c`` (``select_rounds``), by the same rules on weighted columns.
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
    return float(np.count_nonzero(y_true == y_pred) / y_true.size)


def midranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1; tied values share the average of their ranks.
    NaN ties nothing, not even another NaN."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_run = np.ones(values.size, dtype=bool)  # tie runs
    new_run[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + (ends - starts + 1) / 2.0, ends - starts)
    return ranks


def auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC for binary labels (positive class = index 1)."""
    y_true = np.asarray(y_true)
    if y_true.size == 0:
        raise ValueError("AUC of an empty batch is undefined")
    pos = y_true == 1
    n_pos = int(pos.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    rank_sum = midranks(scores)[pos].sum()  # half-integers: exact
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def normalized_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    return 2.0 * auc(y_true, scores) - 1.0


def score(metric: str, y_true: np.ndarray, proba_or_pred: np.ndarray) -> float:
    """Score hard predictions (1-D int) or probability rows (2-D).

    accuracy takes either form (a probability row predicts its argmax).
    normalized_auc needs binary labels and real-valued scores: probability
    rows contribute their class-1 column.
    """
    arr = np.asarray(proba_or_pred)
    if metric == ACCURACY:
        return accuracy(y_true, arr.argmax(axis=1) if arr.ndim == 2 else arr)
    if metric == NORMALIZED_AUC:
        if arr.ndim == 2:
            if arr.shape[1] != 2:
                raise ValueError("normalized_auc needs binary class probabilities")
            arr = arr[:, 1]
        return normalized_auc(y_true, arr)
    raise ValueError(f"unknown metric {metric!r}")
