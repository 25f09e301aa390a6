"""Scoring: accuracy and normalized area under the ROC curve.

``normalized_auc`` maps AUC from [0, 1] onto [-1, 1] via 2*AUC - 1 and is
computed with the rank statistic (midranks on tied scores). A single-class
batch cannot be ranked; it scores NaN and callers exclude it from means.

Every metric takes an optional integer ``weight`` per row: a row of weight
w counts as w identical rows, so scoring the distinct rows of a batch with
their counts gives exactly the score of the whole batch. Predictions and
scores may carry leading batch axes (rows on the last axis, classes after
them for probabilities); the result then holds one score per leading index.

Accuracy on probability rows takes each row's argmax, ties to the lower
class. A finite stack (its sum, one reduction, is finite) with labels that
are classes is not argmaxed: a row is right when its label's class beats
every lower class and no higher class beats it (for two classes, one ``>``
and one ``==``), and the hits are counted as ``accuracy`` counts them:
``count_nonzero`` without weights, a float64 product with them (exact
below 2**53), over the row count or the weights' sum. Any other
stack is argmaxed (a row holding NaN takes its first NaN) and scored by
``accuracy``; both paths give the same bytes wherever both apply.
"""

from __future__ import annotations

import numpy as np

ACCURACY = "accuracy"
NORMALIZED_AUC = "normalized_auc"
METRICS = (ACCURACY, NORMALIZED_AUC)


def _hit_share(hits: np.ndarray, weight):
    """The weighted share of true entries along the last axis of ``hits``:
    an exact integer count (``count_nonzero``, or a float64 product with
    the weights, exact below 2**53) over the exact total."""
    if weight is None:
        return np.count_nonzero(hits, axis=-1) / hits.shape[-1]
    w = np.asarray(weight, dtype=np.int64)
    return (hits @ w.astype(np.float64)) / w.sum()


def _result(values):
    """A plain float for one score, the array for a batch of them."""
    return float(values) if np.ndim(values) == 0 else values


def accuracy(y_true: np.ndarray, y_pred: np.ndarray, weight=None):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("accuracy of an empty batch is undefined")
    return _result(_hit_share(y_true == y_pred, weight))


def midranks(values: np.ndarray, weight=None) -> np.ndarray:
    """Ascending ranks from 1 along the last axis; tied values share the
    average of their ranks. Entry i of the last axis stands for ``weight[i]``
    tied rows. NaN ties nothing, not even another NaN, so a NaN entry of
    weight above 1 has no per-row equivalent."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    n = values.shape[-1]
    # each row's stable sort order, as positions in the flattened block
    order = (np.argsort(values, axis=-1, kind="stable").reshape(-1, n)
             + np.arange(0, values.size, n)[:, None]).ravel()
    ordered = values.ravel()[order]
    new_run = np.ones(values.size, dtype=bool)  # tie runs; each row starts one
    new_run[1:] = ordered[1:] != ordered[:-1]
    new_run[::n] = True
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], values.size)
    if weight is None:  # rows ranked before each sorted entry, block-wide
        before = np.arange(values.size + 1)
    else:
        before = np.concatenate([[0], np.cumsum(np.asarray(weight, dtype=np.int64)[order % n])])
    ahead = before[starts]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(ahead + (before[ends] - ahead + 1) / 2.0, ends - starts)
    # block-wide ranks less the rows of the rows before (exact: half-integers)
    return (ranks.reshape(-1, n) - before[:-1:n, None]).reshape(values.shape)


def auc(y_true: np.ndarray, scores: np.ndarray, weight=None):
    """Rank-based AUC for binary labels (positive class = index 1)."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.size == 0:
        raise ValueError("AUC of an empty batch is undefined")
    pos = y_true == 1  # each row's weight as a positive
    n_rows = y_true.size
    if weight is not None:
        pos = np.where(pos, weight, 0)
        n_rows = int(np.sum(weight))
    n_pos = int(pos.sum())
    n_neg = n_rows - n_pos
    if n_pos == 0 or n_neg == 0:
        return _result(np.full(scores.shape[:-1], np.nan))
    rank_sum = (midranks(scores, weight) * pos).sum(axis=-1)  # half-integers: exact
    return _result((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def normalized_auc(y_true: np.ndarray, scores: np.ndarray, weight=None):
    return 2.0 * auc(y_true, scores, weight) - 1.0


def _label_wins(y: np.ndarray, proba: np.ndarray) -> np.ndarray:
    """``proba.argmax(axis=-1) == y`` for finite ``proba`` and labels that
    are classes, without the argmax: the label's class beats every lower
    class and no higher class beats it."""
    if proba.shape[-1] == 2:
        return (proba[..., 1] > proba[..., 0]) == (y == 1)
    mine = proba[..., np.arange(y.size), y]
    wins = np.ones(mine.shape, dtype=bool)
    for c in range(proba.shape[-1]):
        x = proba[..., c]
        wins &= (x < mine) | ((x == mine) & (y <= c))
    return wins


def score(metric: str, y_true: np.ndarray, proba_or_pred: np.ndarray, weight=None):
    """Score hard predictions (1-D int) or probability rows (classes on the
    last axis, any leading batch axes before the rows).

    accuracy takes either form (a probability row predicts its argmax, ties
    to the lowest class index; see the module docstring for how a finite
    stack is counted). normalized_auc needs binary labels and real-valued
    scores: probability rows contribute their class-1 column.
    """
    arr = np.asarray(proba_or_pred)
    if metric == ACCURACY:
        if arr.ndim < 2:
            return accuracy(y_true, arr, weight)
        y = np.asarray(y_true)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or huge entries
            finite = np.isfinite(arr.sum())
        if y.size and finite and 0 <= y.min() and y.max() < arr.shape[-1]:
            return _result(_hit_share(_label_wins(y, arr), weight))
        return accuracy(y, arr.argmax(axis=-1), weight)
    if metric == NORMALIZED_AUC:
        if arr.ndim >= 2:
            if arr.shape[-1] != 2:
                raise ValueError("normalized_auc needs binary class probabilities")
            arr = arr[..., 1]
        return normalized_auc(y_true, arr, weight)
    raise ValueError(f"unknown metric {metric!r}")
