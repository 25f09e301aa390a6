import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftml.metrics import (
    ACCURACY,
    METRICS,
    NORMALIZED_AUC,
    accuracy,
    auc,
    midranks,
    normalized_auc,
    score,
)


def pairwise_auc(y, s):
    """Brute-force oracle: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [v for v, label in zip(s, y) if label == 1]
    neg = [v for v, label in zip(s, y) if label == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def reference_midranks(values):
    """Reference for ``midranks``: ranks from a stable argsort, then one
    Python pass that gives each run of equal values its average rank."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(1, n + 1)
    ordered = values[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1] == ordered[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    return ranks


def reference_auc(y, s):
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    rank_sum = reference_midranks(s)[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def reference_score(metric, y, proba):
    """Reference for ``score`` on one probability matrix: ``argmax`` rows
    for accuracy, the class-1 column through ``reference_auc`` for AUC."""
    if metric == ACCURACY:
        return float((y == proba.argmax(axis=1)).mean())
    return 2.0 * reference_auc(y, proba[:, 1]) - 1.0


@st.composite
def tie_heavy(draw):
    """Binary labels and 1-2,000 scores drawn from at most four levels."""
    levels = np.array(draw(st.lists(st.floats(width=64), min_size=1, max_size=4)))
    n = draw(st.integers(1, 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 2, n), levels[rng.integers(0, levels.size, n)]


@settings(max_examples=200, deadline=None)
@given(tie_heavy())
def test_midranks_and_auc_equal_the_reference_exactly(case):
    y, s = case
    assert np.array_equal(midranks(s), reference_midranks(s))
    assert np.array_equal([auc(y, s)], [reference_auc(y, s)], equal_nan=True)


def test_midranks_share_tied_ranks():
    assert midranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]
    assert midranks([]).size == 0


def test_accuracy_basics():
    assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0
    assert accuracy([0, 1, 1], [1, 1, 1]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy([], [])


def test_score_argmax_tie_breaks_low():
    proba = np.array([[0.2, 0.8], [0.5, 0.5]])
    assert score(ACCURACY, np.array([1, 0]), proba) == 1.0  # tie row -> class 0


def test_two_point_auc():
    assert auc(np.array([1, 0]), np.array([0.9, 0.1])) == 1.0
    assert normalized_auc(np.array([1, 0]), np.array([0.9, 0.1])) == 1.0
    assert normalized_auc(np.array([1, 0]), np.array([0.1, 0.9])) == -1.0


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.random(n), 1)  # coarse grid forces ties
        assert auc(y, s) == pytest.approx(pairwise_auc(y, s), abs=1e-12)


def test_random_coin_predictions():
    rng = np.random.default_rng(123)
    n = 10_000
    y = rng.integers(0, 2, n)
    coin = rng.integers(0, 2, n)
    assert abs(accuracy(y, coin) - 0.5) < 0.05
    assert abs(normalized_auc(y, rng.random(n))) < 0.05


def test_single_class_is_nan():
    assert math.isnan(normalized_auc(np.ones(5, dtype=int), np.linspace(0, 1, 5)))


def test_score_with_matrix_for_auc():
    proba = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert score(NORMALIZED_AUC, np.array([1, 0]), proba) == 1.0
    with pytest.raises(ValueError):
        score(NORMALIZED_AUC, np.array([1, 0, 2]), np.ones((3, 3)) / 3)


def test_unknown_metric():
    with pytest.raises(ValueError):
        score("f1", np.array([0]), np.array([0]))


@st.composite
def accuracy_stacks(draw):
    """(proba, labels): 2- or 3-class probability rows from a coarse grid
    (exact class ties, -0.0 beside 0.0), in some cases with NaN or inf
    entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes, n_rows = draw(st.integers(2, 3)), draw(st.integers(1, 40))
    levels = np.array([0.0, -0.0, 0.25, 0.5, 1.0])
    proba = levels[rng.integers(0, levels.size, (n_rows, n_classes))]
    if draw(st.booleans()):
        n_bad = draw(st.integers(1, 3))
        proba.flat[rng.integers(0, proba.size, n_bad)] = rng.choice([np.nan, np.inf, -np.inf], n_bad)
    return proba, rng.integers(0, n_classes, n_rows)


TIED_ROWS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])


@settings(max_examples=300)
@given(accuracy_stacks())
@example((TIED_ROWS, np.array([1, 2, 0, 0])))
@example((np.array([[0.5, 0.5], [np.inf, 1.0]]), np.array([1, 0])))
def test_accuracy_of_probability_rows_equals_argmax_then_accuracy(case):
    proba, y = case
    want = accuracy(y, proba.argmax(axis=-1))
    got = score(ACCURACY, y, proba)
    assert type(got) is type(want) is float  # reports hold the repr of per-batch scores
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_labels_outside_the_classes_count_as_wrong():
    proba = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    assert score(ACCURACY, np.array([-1, 2, 0]), proba) == accuracy([-1, 2, 0], [0, 1, 0]) == 1 / 3
