import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftml import metrics
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


@settings(max_examples=200)
@given(tie_heavy(), st.integers(0, 2**32 - 1))
def test_weighted_midranks_equal_the_midranks_of_the_repeated_rows(case, seed):
    """Entry i of weight w ranks as w tied rows; weight 1 is the unweighted
    form, and a stack of rows ranks each row on its own."""
    _, s = case
    s = np.where(np.isnan(s), 0.5, s)  # NaN ranks by row position: no weighted form
    w = np.random.default_rng(seed).integers(1, 4, s.size)
    assert np.array_equal(np.repeat(midranks(s, w), w), reference_midranks(np.repeat(s, w)))
    assert np.array_equal(midranks(s, np.ones(s.size, dtype=np.int64)), midranks(s))
    assert np.array_equal(midranks(np.stack([s, -s])), [midranks(s), midranks(-s)])


@st.composite
def weighted_blocks(draw):
    """(metric, proba (M, G, C), labels, weights): M members' tie-heavy
    probabilities on G weighted rows, sometimes with one class only."""
    metric = draw(st.sampled_from(METRICS))
    n_classes = 2 if metric == NORMALIZED_AUC else draw(st.integers(2, 4))
    n_members, n_rows = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0]
    if metric == ACCURACY:
        levels.append(np.nan)  # argmax takes a row's first NaN
    proba = np.array(levels)[rng.integers(0, len(levels), (n_members, n_rows, n_classes))]
    y = rng.integers(0, n_classes, n_rows)
    if draw(st.booleans()):
        y[:] = y[0]
    return metric, proba, y, rng.integers(1, 5, n_rows)


@settings(max_examples=300)
@given(weighted_blocks())
@example((NORMALIZED_AUC, np.array([[[0.5, 0.5], [0.2, 0.8]]]), np.array([1, 1]), np.array([2, 3])))
@example((ACCURACY, np.array([[[0.5, 0.5], [np.nan, 0.1]]]), np.array([0, 1]), np.array([1, 4])))
def test_one_weighted_batched_score_equals_a_per_member_loop_over_every_row(case):
    metric, proba, y, w = case
    planes = proba.transpose(0, 2, 1).copy()  # each class contiguous, as select_ensemble stacks them
    rows_y = np.repeat(y, w)
    expect = [reference_score(metric, rows_y, np.repeat(p, w, axis=0)) for p in proba]
    assert np.array_equal(score(metric, y, planes.transpose(0, 2, 1), w), expect, equal_nan=True)
    assert np.array_equal([score(metric, rows_y, np.repeat(p, w, axis=0)) for p in proba],
                          expect, equal_nan=True)


@st.composite
def accuracy_stacks(draw):
    """(proba, labels, weights): 2- or 3-class probability rows under 0-2
    leading axes, from a coarse grid (exact class ties, -0.0 beside 0.0),
    with weights 1-4 or none, and in some cases NaN or inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes, n_rows = draw(st.integers(2, 3)), draw(st.integers(1, 40))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    levels = np.array([0.0, -0.0, 0.25, 0.5, 1.0])
    proba = levels[rng.integers(0, levels.size, lead + (n_rows, n_classes))]
    if draw(st.booleans()):
        n_bad = draw(st.integers(1, 3))
        proba.flat[rng.integers(0, proba.size, n_bad)] = rng.choice([np.nan, np.inf, -np.inf], n_bad)
    weight = rng.integers(1, 5, n_rows) if draw(st.booleans()) else None
    return proba, rng.integers(0, n_classes, n_rows), weight


TIED_ROWS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])


@settings(max_examples=300)
@given(accuracy_stacks())
@example((TIED_ROWS, np.array([1, 2, 0, 0]), None))
@example((TIED_ROWS[None], np.array([0, 1, 2, 1]), np.array([2, 1, 1, 3])))
@example((np.array([[0.5, 0.5], [np.inf, 1.0]]), np.array([1, 0]), None))
def test_accuracy_of_probability_rows_equals_argmax_then_accuracy(case):
    """Finite stacks are compared and counted, others are argmaxed; both
    give the bytes of ``accuracy`` on the argmax."""
    proba, y, weight = case
    want = accuracy(y, proba.argmax(axis=-1), weight)
    with mock.patch.object(metrics, "_label_wins", wraps=metrics._label_wins) as compared:
        got = score(ACCURACY, y, proba, weight)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert compared.called == bool(np.isfinite(proba).all())


@settings(max_examples=200)
@given(accuracy_stacks())
def test_unweighted_accuracy_has_the_bytes_of_unit_weights(case):
    """``weight=None`` counts hits without a weight vector; the scores keep
    the bytes of explicit unit weights, for probability rows and for hard
    predictions, alone or under leading axes."""
    proba, y, _ = case
    ones = np.ones(y.size, dtype=np.int64)
    hard = proba.argmax(axis=-1)
    for got, want in [(score(ACCURACY, y, proba), score(ACCURACY, y, proba, ones)),
                      (accuracy(y, hard), accuracy(y, hard, ones))]:
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_labels_outside_the_classes_count_as_wrong():
    proba = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    assert score(ACCURACY, np.array([-1, 2, 0]), proba) == accuracy([-1, 2, 0], [0, 1, 0]) == 1 / 3
