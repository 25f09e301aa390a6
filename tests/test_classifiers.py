import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftml import classifiers
from driftml.classifiers import (
    DecisionTreeClassifier,
    KnnClassifier,
    LogisticSgdClassifier,
    TreeGrower,
    knn_predict_proba,
    reservoir_sample,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def reference_knn_proba(model, X):
    """Reference for ``KnnClassifier.predict_proba``: a full stable argsort
    of every chunk's distances, then the vote over the first k columns."""
    X = np.asarray(X, dtype=np.float64)
    k = min(model.k, model.ref_X_.shape[0])
    out = np.empty((X.shape[0], model.n_classes))
    for start in range(0, X.shape[0], model.CHUNK):
        xb = X[start : start + model.CHUNK]
        d2 = (
            np.square(xb).sum(axis=1, keepdims=True)
            - 2.0 * xb @ model.ref_X_.T
            + model.ref_sq_
        )
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = model.ref_y_[nearest]
        for c in range(model.n_classes):
            out[start : start + model.CHUNK, c] = (votes == c).mean(axis=1)
    return out


def reference_reservoir_sample(n, k, rng):
    """Reference for ``reservoir_sample``: algorithm R as a Python loop."""
    if k >= n:
        return np.arange(n)
    res = np.arange(k)
    draws = rng.integers(0, np.arange(k, n) + 1)
    for i, j in zip(range(k, n), draws):
        if j < k:
            res[j] = i
    return np.sort(res)


def fitted_knn(X, y, n_classes, k):
    model = KnnClassifier(n_classes, k=k, max_reference_points=max(len(X), 1))
    with np.errstate(over="ignore"):  # |r|^2 of a reference at 1e200
        return model.fit(X, y, np.random.default_rng(0))


# Entries that make a row's distances NaN (inf - inf) or infinite: a row
# at 1e200 is infinitely far from every finite reference, and a query row and
# a reference both at 1e154 on one axis are at -inf (1e308 - inf).
BAD = [np.nan, np.inf, -np.inf, 1e154, -1e154, 1e200]


@st.composite
def knn_case(draw):
    """A fitted k-NN and query rows. 1-40 or 1,000-3,000 references (below
    k and above ``CHUNK``): tie-heavy grids whose levels hold -0.0 beside
    0.0 (as on STAGGER), tie-free floats, or 1-4 points each copied many
    times, so byte-equal references tie across the k-th place. 0-60 query
    rows, or ``CHUNK`` - 1, ``CHUNK`` or ``CHUNK`` + 1, so the last chunk
    ends one row short of, at or one row past a chunk boundary. 2-5 or 6-12
    classes; k from 1 to 25, or at or above the reference count. In half the
    cases a few entries come from ``BAD``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ref = draw(st.one_of(st.integers(1, 40), st.integers(1_000, 3_000)))
    chunk = KnnClassifier.CHUNK
    n_rows = draw(st.one_of(st.integers(0, 60), st.sampled_from([chunk - 1, chunk, chunk + 1])))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.one_of(st.integers(2, 5), st.integers(6, 12)))
    k = draw(st.one_of(st.sampled_from([1, 3, 5, 7, 25]), st.sampled_from([n_ref, n_ref + 2])))
    kind = draw(st.sampled_from(["grid", "float", "copies"]))
    if kind == "grid":
        levels = np.array([0.0, 1.0, -0.0, 2.0])[: draw(st.integers(2, 4))]
        X_ref, X = rng.choice(levels, (n_ref, d)), rng.choice(levels, (n_rows, d))
    elif kind == "float":
        X_ref, X = rng.normal(size=(n_ref, d)), rng.normal(size=(n_rows, d))
    else:
        points = rng.normal(size=(draw(st.integers(1, 4)), d))
        X_ref = points[rng.integers(0, len(points), n_ref)]
        X = np.where(rng.random((n_rows, 1)) < 0.5, points[rng.integers(0, len(points), n_rows)],
                     rng.normal(size=(n_rows, d)))
    if draw(st.booleans()):
        for arr in (X_ref, X):
            n_bad = draw(st.integers(0, 3))
            if arr.size and n_bad:
                arr.flat[rng.integers(0, arr.size, n_bad)] = rng.choice(BAD, n_bad)
    y = rng.integers(0, n_classes, n_ref)
    return fitted_knn(X_ref, y, n_classes, k), X


@settings(max_examples=60)
@given(knn_case())
def test_knn_proba_equals_the_argsort_reference_exactly(case):
    model, X = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = model.predict_proba(X)
        want = reference_knn_proba(model, X)
    assert got.tobytes() == want.tobytes()


@st.composite
def knn_group_case(draw):
    """k-NN models with 1-4 distinct k (one k twice in some cases) on the
    references of a ``knn_case``, and its query rows."""
    model, X = draw(knn_case())
    ks = draw(st.lists(st.sampled_from([1, 3, 5, 7, 11, 25, 41]), min_size=1, max_size=4,
                       unique=True))
    if draw(st.booleans()):
        ks.append(ks[0])
    return [fitted_knn(model.ref_X_, model.ref_y_, model.n_classes, k) for k in ks], X


@settings(max_examples=60)
@given(knn_group_case())
def test_grouped_knn_proba_equals_the_argsort_reference_for_each_model(case):
    models, X = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = knn_predict_proba(models, X)
        for model, proba in zip(models, got, strict=True):
            assert proba.tobytes() == reference_knn_proba(model, X).tobytes(), model.k


ROW_KINDS = ("clean", "tie", "nan", "inf", "-inf")


@st.composite
def knn_mixed_chunk_case(draw):
    """k-NN models with 1-3 distinct k over 2-5 or 6-12 classes on tie-free
    float references, more than k copies of one far point and one
    reference at 1e154 on the first axis, and one chunk of query rows that
    holds each of five kinds at least once, in a drawn order: float rows
    (each takes exactly k references at its k-th distance), copies of the
    far point (more than k references tie at distance 0), rows holding a
    NaN (every distance is NaN), rows at 1e200 (every distance is inf or
    NaN) and rows at 1e154 on the first axis (one distance is -inf)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = draw(st.lists(st.sampled_from([1, 3, 5, 11]), min_size=1, max_size=3, unique=True))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.one_of(st.integers(2, 5), st.integers(6, 12)))
    far, huge = np.full(d, 50.0), np.eye(1, d)[0] * 1e154
    X_ref = np.vstack([rng.normal(size=(draw(st.integers(max(ks), 60)), d)),
                       np.tile(far, (max(ks) + draw(st.integers(1, 20)), 1)), huge])
    y = rng.integers(0, n_classes, len(X_ref))
    kinds = draw(st.permutations(
        list(ROW_KINDS) + draw(st.lists(st.sampled_from(ROW_KINDS), max_size=35))))
    X = rng.normal(size=(len(kinds), d))
    for row, kind in enumerate(kinds):
        if kind == "tie":
            X[row] = far
        elif kind == "nan":
            X[row, rng.integers(0, d)] = np.nan
        elif kind == "inf":
            X[row] = 1e200
        elif kind == "-inf":
            X[row] = huge
    return [fitted_knn(X_ref, y, n_classes, k) for k in ks], X


@settings(max_examples=60)
@given(knn_mixed_chunk_case())
def test_knn_clean_tie_nan_and_infinite_rows_in_one_chunk_equal_the_reference(case):
    models, X = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = knn_predict_proba(models, X)
        for model, proba in zip(models, got, strict=True):
            assert proba.tobytes() == reference_knn_proba(model, X).tobytes(), model.k


def test_knn_rows_with_a_nan_kth_distance_still_vote_over_k():
    # a NaN reference and an inf query feature each leave fewer than k
    # comparable distances in a row; the row still takes k references
    X_ref = np.array([[0.0], [np.nan], [1.0], [np.nan]])
    y = np.array([0, 1, 0, 1])
    model = fitted_knn(X_ref, y, 2, k=3)
    with np.errstate(invalid="ignore"):
        proba = model.predict_proba(np.array([[0.0], [np.inf]]))
    assert proba.tolist() == [[2 / 3, 1 / 3], [2 / 3, 1 / 3]]


def test_knn_without_references_predicts_the_reference_nan_rows():
    model = fitted_knn(np.empty((0, 2)), np.empty(0, dtype=np.int64), 3, k=5)
    X = np.ones((4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of no votes
        want = reference_knn_proba(model, X)
    assert np.isnan(want).all()
    assert model.predict_proba(X).tobytes() == want.tobytes()


def test_knn_rejects_reference_labels_outside_the_classes():
    model = fitted_knn(np.zeros((3, 1)), np.array([0, 1, 2]), 2, k=1)
    with pytest.raises(ValueError):
        model.predict_proba(np.zeros((1, 1)))


def test_reservoir_sample_equals_algorithm_r():
    for n, k, seed in [(70_000, 2_048, 0), (5_000, 2_048, 1), (10, 3, 2),
                       (2_048, 2_048, 3), (5, 9, 4), (1, 1, 5)]:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(reservoir_sample(n, k, rng), reference_reservoir_sample(n, k, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_tree_fit(model, X, y):
    """Reference for ``DecisionTreeClassifier.fit``: the tree grown row by
    row, every split scanned over all rows of its node; returns ``(feature,
    threshold, left, right, proba)``."""

    def impurity(counts, total):
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / total
            if model.split_criterion == "gini":
                return 1.0 - np.sum(np.square(p), axis=-1)
            logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
            return -np.sum(p * logp, axis=-1)

    def best_split(X, y_onehot):
        n = X.shape[0]
        total_counts = y_onehot.sum(axis=0)
        parent = float(impurity(total_counts, n))
        best = None  # (gain, feature, threshold)
        for j in range(X.shape[1]):
            col = X[:, j]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            cum = np.cumsum(y_onehot[order], axis=0)
            left_n = np.arange(1, n)
            ok = (sv[:-1] != sv[1:]) & (left_n >= model.min_leaf) & (n - left_n >= model.min_leaf)
            idx = np.nonzero(ok)[0]
            if idx.size == 0:
                continue
            left_counts = cum[idx]
            nl = (idx + 1).astype(np.float64)
            nr = n - nl
            child = (nl * impurity(left_counts, nl[:, None])
                     + nr * impurity(total_counts - left_counts, nr[:, None])) / n
            gains = parent - child
            k = int(np.argmax(gains))
            gain = float(gains[k])
            if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                best = (gain, j, float((sv[idx[k]] + sv[idx[k] + 1]) / 2.0))
        return best

    X = np.asarray(X, dtype=np.float64)
    y_onehot = np.zeros((y.size, model.n_classes))
    y_onehot[np.arange(y.size), y] = 1.0
    feature, threshold, left, right, proba = [], [], [], [], []

    def add(j, thr, p):
        feature.append(j)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        proba.append(p)
        return len(feature) - 1

    def build(rows, depth):
        counts = y_onehot[rows].sum(axis=0)
        split = None
        if depth < model.max_depth and rows.size >= 2 * model.min_leaf \
                and np.count_nonzero(counts) > 1:
            split = best_split(X[rows], y_onehot[rows])
        if split is None:
            return add(-1, 0.0, counts / counts.sum())
        _, j, thr = split
        node = add(j, thr, np.zeros(model.n_classes))
        mask = X[rows, j] <= thr
        left[node] = build(rows[mask], depth + 1)
        right[node] = build(rows[~mask], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return (np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.array(proba, dtype=np.float64))


@st.composite
def tree_matrix(draw, n_classes, large=True):
    """Data for trees: tie-heavy integer grids (as on STAGGER), where rows
    repeat, some with two labels, or all-distinct floats, with 1-16
    columns. With ``large``, one case in twelve is all-distinct with
    5,000-12,000 rows, so a node's proportions fill lists of tens of
    thousands of entries for ``np.log2``. Some cases add a copied column
    (gain ties between features), a constant column, -0.0 beside 0.0, or
    NaN and +-inf cells, sparse or in a fifth of the cells (so NaN rows
    repeat)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    large = large and draw(st.integers(0, 11)) == 0
    if large:
        n, d = draw(st.integers(5_000, 12_000)), draw(st.integers(2, 8))
    else:
        n = draw(st.one_of(st.integers(1, 60), st.integers(200, 3_000)))
        d = draw(st.integers(1, 16))
    if not large and draw(st.booleans()):
        X = rng.integers(-1, draw(st.integers(1, 3)), (n, d)).astype(np.float64)
    else:
        X = rng.normal(size=(n, d))
    if d > 1 and draw(st.booleans()):
        X[:, draw(st.integers(1, d - 1))] = X[:, 0]
    if d > 1 and draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        zero = X == 0.0
        X[zero & (rng.random((n, d)) < 0.5)] = -0.0
    if draw(st.booleans()):
        bad = rng.random((n, d)) < draw(st.sampled_from([0.005, 0.2]))
        X[bad] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], np.count_nonzero(bad))
    return X, rng.integers(0, n_classes, n)


@st.composite
def tree_case(draw):
    """One or two tree configs with 2-3 classes on ``tree_matrix`` data;
    ``min_leaf`` goes up to 40, above the distinct-row count of small
    grids."""
    n_classes = draw(st.integers(2, 3))
    X, y = draw(tree_matrix(n_classes))
    models = [DecisionTreeClassifier(
        n_classes, max_depth=draw(st.integers(1, 8)),
        min_leaf=draw(st.sampled_from([1, 2, 4, 40])),
        split_criterion=draw(st.sampled_from(["gini", "entropy"])),
    ) for _ in range(draw(st.integers(1, 2)))]
    return models, X, y


def assert_fits_equal_the_reference(models, X, y):
    """Fit ``models`` on one ``TreeGrower`` (one alone through ``fit``),
    each equal to ``reference_tree_fit`` byte for byte."""
    with np.errstate(invalid="ignore", divide="ignore"):
        if len(models) == 1:
            models[0].fit(X, y)
        else:
            grower = TreeGrower(X, y, models[0].n_classes, models)
            for model in models:
                model.fit(X, y, None, grower)
        for model in models:
            want = reference_tree_fit(model, X, y)
            got = (model.feature_, model.threshold_, model.left_, model.right_, model.proba_)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


@settings(max_examples=120)
@given(tree_case())
def test_tree_fit_equals_the_row_by_row_reference_exactly(case):
    """One tree fitted alone, or two fitted on one ``TreeGrower`` of their
    matrix (as ``fit_classifiers`` fits them), each equal to the reference."""
    assert_fits_equal_the_reference(*case)


@st.composite
def tree_group_case(draw):
    """1-6 trees on one ``tree_matrix`` with 2-12 classes (as
    ``fit_classifiers`` fits the trees of one prefix): each draws its
    ``(split_criterion, min_leaf)`` from 1-3 keys, so some share a growth,
    which the shallower of them cut, and ``max_depth`` from 1-32."""
    n_classes = draw(st.integers(2, 12))
    X, y = draw(tree_matrix(n_classes, large=False))
    keys = draw(st.lists(st.tuples(st.sampled_from(["gini", "entropy"]),
                                   st.sampled_from([1, 2, 4, 40])), min_size=1, max_size=3))
    models = []
    for _ in range(draw(st.integers(1, 6))):
        criterion, min_leaf = draw(st.sampled_from(keys))
        models.append(DecisionTreeClassifier(n_classes, draw(st.integers(1, 32)), min_leaf,
                                             criterion))
    return models, X, y


def trees(*specs, n_classes=2):
    return [DecisionTreeClassifier(n_classes, depth, leaf, criterion)
            for depth, leaf, criterion in specs]


INF, NAN = np.inf, np.nan
# -inf beside inf, and 0.0 beside a NaN cell: both midpoints are NaN, whose
# split sends every row right and leaves the left child empty
NAN_MIDPOINTS = (trees((3, 1, "gini"), (5, 1, "entropy"), (2, 1, "gini")),
                 np.array([[-INF, 0.0], [-INF, 0.0], [INF, 0.0], [INF, -NAN], [INF, -NAN]]),
                 np.array([0, 0, 1, 1, 1]))
# 0.0 beside inf: the midpoint is inf, which sends every row left
EMPTY_RIGHT = (trees((4, 1, "gini"), (4, 2, "entropy")),
               np.array([[0.0], [0.0], [INF], [INF]]), np.array([0, 0, 1, 1]))
# a checkerboard that needs depth 6; the depth-2 and depth-4 trees cut the
# growth of the depth-9 one
CUT = (trees((2, 1, "gini"), (9, 1, "gini"), (4, 1, "gini"), (3, 2, "entropy"), n_classes=3),
       np.column_stack([np.arange(64) % 8, np.arange(64) // 8]).astype(np.float64),
       (np.arange(64) % 8 + np.arange(64) // 8) % 3)

# at the root, feature 0's best gain falls short of feature 1's by less
# than 1e-12, so the tie-break keeps feature 0
NEAR_TIE = (trees((3, 1, "gini"), (2, 1, "gini"), n_classes=4),
            np.array([[2.0, 2], [0, 0], [0, 1], [2, 1], [1, 0], [2, 1], [2, 2], [1, 2]]),
            np.array([0, 0, 0, 0, 3, 2, 0, 2]))

# NaN beside -NaN: the midpoint of two NaNs keeps the bits numpy's scalar
# sum gives it
NAN_PAYLOAD = (trees((2, 1, "gini"), (3, 1, "entropy")),
               np.array([[1.0], [NAN], [-NAN]]), np.array([0, 0, 1]))


def many_classes(n_classes):
    """Entropy trees with ``n_classes`` classes (8 and up: numpy sums the
    class axis with eight accumulators) on a tie-heavy grid."""
    rng = np.random.default_rng(n_classes)
    return (trees((6, 1, "entropy"), (3, 2, "entropy"), (4, 1, "gini"), n_classes=n_classes),
            rng.integers(0, 4, (400, 3)).astype(np.float64), rng.integers(0, n_classes, 400))




def depth_32():
    """Random labels on 1,000 distinct rows: the growths reach depth 32."""
    rng = np.random.default_rng(1)
    return trees((32, 1, "gini"), (32, 1, "entropy")), rng.normal(size=(1_000, 2)), \
        rng.integers(0, 2, 1_000)


def stagger_like():
    """A lone tree on STAGGER's 27 (size, color, shape) rows, one-hot
    encoded beside their codes (12 features), under concept 2."""
    codes = np.array([(s, c, h) for s in range(3) for c in range(3) for h in range(3)], float)
    X = np.column_stack([codes, *(codes[:, [j]] == np.arange(3) for j in range(3))])
    return trees((5, 1, "entropy")), X.astype(np.float64), ((codes[:, 1] == 1)
                                                               | (codes[:, 0] == 0)).astype(int)


@settings(max_examples=60, deadline=None)
@given(tree_group_case())
@example(NAN_MIDPOINTS)
@example(NEAR_TIE)
@example(EMPTY_RIGHT)
@example(CUT)
@example(NAN_PAYLOAD)
@example(many_classes(8))
@example(many_classes(12))
@example(depth_32())
@example(stagger_like())
def test_trees_grown_together_equal_the_row_by_row_reference(case):
    assert_fits_equal_the_reference(*case)


def tree_depth(model, node=0):
    if model.feature_[node] < 0:
        return 0
    return 1 + max(tree_depth(model, model.left_[node]), tree_depth(model, model.right_[node]))


def test_the_tree_examples_reach_their_cases():
    """``NAN_MIDPOINTS`` splits on NaN thresholds and grows empty left
    children, ``EMPTY_RIGHT`` an empty right one, and ``CUT``'s shallower
    trees stop above nodes that its deepest tree splits. ``NAN_PAYLOAD``'s
    root threshold is the second NaN's (sign bit set); the many-class
    entropy trees and the lone STAGGER-like tree split, and ``depth_32``
    grows to depth 32."""
    def fitted(case):
        models, X, y = case
        models = trees(*[(m.max_depth, m.min_leaf, m.split_criterion) for m in models],
                       n_classes=models[0].n_classes)
        grower = TreeGrower(X, y, models[0].n_classes, models)
        with np.errstate(invalid="ignore"):
            return [model.fit(X, y, None, grower) for model in models]

    for model in fitted(NAN_MIDPOINTS):
        assert np.isnan(model.threshold_).any()
        assert np.isnan(model.proba_[model.left_[model.feature_ >= 0]]).all()
    for model in fitted(EMPTY_RIGHT):
        assert np.isnan(model.proba_[model.right_[model.feature_ >= 0]]).all()
    shallow, deep, *_ = fitted(CUT)
    assert 0 < shallow.feature_.size < deep.feature_.size
    for model in fitted(NAN_PAYLOAD):
        assert np.isnan(model.threshold_[0]) and np.signbit(model.threshold_[0])
    for case in (many_classes(8), many_classes(12), stagger_like()):
        assert (fitted(case)[0].feature_ >= 0).sum() >= 2
    assert stagger_like()[1].shape == (27, 12)
    assert [tree_depth(model) for model in fitted(depth_32())] == [32, 32]


def test_the_tree_kernel_binding_rejects_a_wrong_array_before_the_call():
    """``tree_level``'s typed argtypes refuse an array of the wrong dtype,
    a non-contiguous one and one of the wrong shape with
    ``ctypes.ArgumentError``, before the kernel writes anything."""
    import ctypes

    X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    counts = np.array([[2.0, 0.0, 2.0], [0.0, 1.0, 1.0], [2.0, 0.0, 2.0], [0.0, 3.0, 3.0]])
    xt = np.ascontiguousarray(X.T)
    node = np.array([[0, 0, 0, 4, 7, 7]])
    threshold, child, child_total = np.full(1, 5.0), np.full((2, 6), 9), np.full((2, 3), 9.0)
    args = [xt, counts, 4, 2, 2, np.array([[3, 1, 0]]), 0, 1, node, counts.sum(axis=0)[None],
            threshold, xt.argsort(axis=1, kind="stable")[None], np.empty(0), 0, 0, 2,
            child, child_total, np.empty(4, np.int64)]
    outputs = [a.copy() for a in (node, threshold, child, child_total)]
    level = classifiers._kernels().tree_level
    for at, bad in [(1, counts.astype(np.float32)), (0, X.T), (9, counts.sum(axis=0))]:
        with pytest.raises(ctypes.ArgumentError):
            level(*args[:at], bad, *args[at + 1:])
        for got, want in zip((node, threshold, child, child_total), outputs):
            assert got.tobytes() == want.tobytes()
    assert level(*args) == 1 and node[0, 4] == 0 and threshold[0] == 2.5


def reference_logistic_fit(model, X, y, rng):
    """Reference for ``LogisticSgdClassifier.fit``: the steps of ``sgd_fit``
    over ``rng.permutation(n)`` per epoch, in Python floats and ``math.exp``, each sum in the kernel's order and
    the max by its NaN rule (a later entry replaces it only when greater);
    returns ``(W, b)``."""
    n, d = X.shape
    C, rate, l2 = model.n_classes, model.learning_rate, model.l2
    rows, labels = X.tolist(), y.tolist()
    W = [[0.0] * C for _ in range(d)]
    b = [0.0] * C
    m = min(model.MINIBATCH, n)
    for _ in range(model.epochs):
        perm = rng.permutation(n).tolist()
        for start in range(0, n, m):
            batch = [rows[r] for r in perm[start : start + m]]
            batch_labels = [labels[r] for r in perm[start : start + m]]
            errs = []
            for x, label in zip(batch, batch_labels):
                logits = []
                for c in range(C):
                    s = 0.0
                    for j in range(d):
                        s += x[j] * W[j][c]
                    logits.append(s + b[c])
                top = logits[0]
                for v in logits[1:]:
                    if v > top:
                        top = v
                e = [math.exp(v - top) for v in logits]
                total = 0.0
                for v in e:
                    total += v
                errs.append([(v / total - (1.0 if c == label else 0.0)) / len(batch)
                             for c, v in enumerate(e)])
            for j in range(d):
                for c in range(C):
                    g = 0.0
                    for x, err in zip(batch, errs):
                        g += x[j] * err[c]
                    W[j][c] -= (g + l2 * W[j][c]) * rate
            for c in range(C):
                g = 0.0
                for err in errs:
                    g += err[c]
                b[c] -= g * rate
    return np.array(W, dtype=np.float64).reshape(d, C), np.array(b, dtype=np.float64)


@st.composite
def logistic_case(draw):
    """A logistic model over 2-9 classes with 1-4 epochs, a learning rate
    and ``l2`` (0 among them); n of 1, below the minibatch, and not a
    multiple of it; up to 20 columns, C- or Fortran-ordered. A third of the
    cases diverge: large unscaled values and a large learning rate drive
    the logits to +-inf and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 31, 32, 33, 95, 150]))
    d = draw(st.integers(1, 20))
    n_classes = draw(st.integers(2, 9))
    scales, rates = draw(st.sampled_from([
        ([1.0, 5.0], [0.003, 0.1, 0.9]), ([1.0, 5.0], [0.003, 0.1, 0.9]),
        ([1e160, 1e200], [10.0, 1e3]),
    ]))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from(scales))
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    model = LogisticSgdClassifier(n_classes, learning_rate=draw(st.sampled_from(rates)),
                                  l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
                                  epochs=draw(st.integers(1, 4)))
    return model, X, rng.integers(0, n_classes, n), draw(st.integers(0, 2**32 - 1))


# The first step drives W to +-inf; in the second, the logit row of the
# second input is NaN in its first entry alone (inf - inf), so the max is
# that NaN.
FIRST_LOGIT_NAN = (LogisticSgdClassifier(3, learning_rate=1e3, l2=0.0, epochs=2),
                   np.array([[1.0, 1.0], [1.0, -1.0]]) * 1e307, np.array([0, 1]), 0)


def late_first_logit_nan(epochs):
    """A binary logistic fit that stays finite in its first epoch and in its
    second meets a logit row that is NaN in its first entry alone (as in
    ``FIRST_LOGIT_NAN``). 35 rows, so an epoch is a step over 32 rows and
    one over 3, and the seed's first permutation puts the three last: the
    32 rows make the three nearly certain of class 1, so only class 0's
    weights move on them, to +inf and -inf; the third row then sums
    inf - inf for class 0 alone."""
    rate = 1e25
    s, big = np.sqrt(50 / rate), 1e307
    X = np.zeros((35, 3))
    X[:32, 0] = np.where(np.arange(32) % 2, s, -s)
    X[32:] = [[s, big, 0.0], [s, 0.0, -big], [0.0, 1.0, 1.0]]
    y = np.concatenate([np.arange(32) % 2, [1, 1, 0]])
    return LogisticSgdClassifier(2, learning_rate=rate, l2=0.0, epochs=epochs), X, y, 10076


def assert_equals_the_reference(model, X, y, seed):
    W, b = reference_logistic_fit(model, X, y, np.random.default_rng(seed))
    assert model.W_.tobytes() == W.tobytes()
    assert model.b_.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(logistic_case())
@example(FIRST_LOGIT_NAN)
def test_logistic_fit_equals_the_python_reference(case):
    model, X, y, seed = case
    assert model.fit(X, y, np.random.default_rng(seed)) is model
    assert_equals_the_reference(model, X, y, seed)


def test_logistic_fit_is_the_one_model_lockstep_call():
    """On a fixed 3-class case, ``fit`` returns the model itself with the
    reference's bytes."""
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(70, 16)), rng.integers(0, 3, 70)
    model = LogisticSgdClassifier(3, learning_rate=0.1, l2=1e-4, epochs=3)
    assert model.fit(X, y, np.random.default_rng(9)) is model
    assert_equals_the_reference(model, X, y, 9)


def test_logistic_fit_over_gathers_that_span_the_matrix_equals_the_reference():
    """2,000 rows of 12 features: each minibatch gathers rows from all over
    a 192 kB matrix."""
    rng = np.random.default_rng(4)
    X, y = rng.normal(size=(2000, 12)), rng.integers(0, 3, 2000)
    model = LogisticSgdClassifier(3, learning_rate=0.1, l2=1e-4, epochs=2)
    model.fit(X, y, np.random.default_rng(8))
    assert_equals_the_reference(model, X, y, 8)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
def test_logistic_fit_draws_what_generator_permutation_draws(n):
    """The kernel draws each epoch's order from the generator as
    ``Generator.permutation(n)`` does: after a fit of ``epochs`` epochs the
    generator's state is that of ``epochs`` calls to it, also over two fits
    in a row on one generator."""
    rng = np.random.default_rng(n)
    X, y = rng.normal(size=(n, 3)), rng.integers(0, 2, n)
    fitted, drawn = np.random.default_rng(11), np.random.default_rng(11)
    for epochs in (3, 2):
        LogisticSgdClassifier(2, learning_rate=0.1, l2=1e-4, epochs=epochs).fit(X, y, fitted)
        for _ in range(epochs):
            drawn.permutation(n)
        assert fitted.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("label", [-1, 3])
def test_logistic_fit_rejects_labels_outside_the_classes(label):
    X, y = np.zeros((4, 2)), np.array([0, 1, label, 2])
    with pytest.raises(ValueError, match="index the classes"):
        LogisticSgdClassifier(3, learning_rate=0.1, l2=0.0, epochs=1).fit(
            X, y, np.random.default_rng(0))


@st.composite
def lockstep_case(draw):
    """1-6 logistic models over 2-9 classes with mixed epochs, learning
    rates and ``l2``, each on a matrix drawn from a pool, so some models
    share one array (C- or Fortran-ordered) and others do not. A quarter of
    the cases diverge to +-inf and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 31, 32, 33, 95]))
    d = draw(st.integers(1, 12))
    n_classes = draw(st.integers(2, 9))
    k = draw(st.integers(1, 6))
    diverge = draw(st.integers(0, 3)) == 0
    scales, rates = ([1e160, 1e200], [10.0, 1e3]) if diverge else ([1.0, 5.0], [0.003, 0.1, 0.9])
    pool = []
    for _ in range(draw(st.integers(1, k))):
        X = rng.normal(size=(n, d)) * draw(st.sampled_from(scales))
        pool.append(np.asfortranarray(X) if draw(st.booleans()) else X)
    matrices = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(k)]
    models = [
        LogisticSgdClassifier(n_classes, learning_rate=draw(st.sampled_from(rates)),
                              l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
                              epochs=draw(st.integers(1, 4)))
        for _ in range(k)
    ]
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(k)]
    return models, matrices, rng.integers(0, n_classes, n), seeds


@settings(max_examples=40, deadline=None)
@given(lockstep_case())
def test_lockstep_sgd_equals_fitting_each_model_alone(case):
    """Models fitted one after another, as ``fit_classifiers`` fits a
    search's candidates, some on one shared array, each equal the
    reference fit of that model alone: no fit leaks state into the next
    or writes into its matrix."""
    models, matrices, y, seeds = case
    for model, X, seed in zip(models, matrices, seeds):
        model.fit(X, y, np.random.default_rng(seed))
    for model, X, seed in zip(models, matrices, seeds):
        assert_equals_the_reference(model, X, y, seed)


@st.composite
def late_divergence_case(draw):
    """A logistic model over 2, 3 or 9 classes with 2-4 epochs whose
    weights, on values near 1e150 and a learning rate of 10**8.5, most often
    overflow in its second epoch; alone or followed by up to two models
    that stay finite, on its matrix or on another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.sampled_from([2, 3, 9]))
    X, y = rng.normal(size=(64, 4)) * 1e150, rng.integers(0, n_classes, 64)
    models = [LogisticSgdClassifier(n_classes, learning_rate=10**8.5,
                                    l2=draw(st.sampled_from([0.0, 1e-4])),
                                    epochs=draw(st.integers(2, 4)))]
    matrices = [X]
    for _ in range(draw(st.integers(0, 2))):
        models.append(LogisticSgdClassifier(n_classes,
                                            learning_rate=draw(st.sampled_from([0.003, 0.1])),
                                            l2=1e-4, epochs=draw(st.integers(1, 4))))
        matrices.append(draw(st.sampled_from([X, X / 1e150])))
    return models, matrices, y, [draw(st.integers(0, 2**32 - 1)) for _ in models]


def as_one_model_case(case):
    model, X, y, seed = case
    return [model], [X], y, [seed]


@settings(max_examples=40, deadline=None)
@given(late_divergence_case())
@example(as_one_model_case(late_first_logit_nan(2)))
@example(as_one_model_case(late_first_logit_nan(4)))
def test_lockstep_sgd_that_diverges_after_its_first_epoch_equals_the_reference(case):
    """The first model's bias is finite after one epoch and not at the end;
    it and the models fitted after it equal the reference."""
    models, matrices, y, seeds = case
    first = models[0]
    one_epoch = LogisticSgdClassifier(first.n_classes, first.learning_rate, first.l2, 1)
    one_epoch.fit(matrices[0], y, np.random.default_rng(seeds[0]))
    for model, X, seed in zip(models, matrices, seeds):
        model.fit(X, y, np.random.default_rng(seed))
    assume(np.isfinite(one_epoch.b_).all() and not np.isfinite(first.b_).all())
    for model, X, seed in zip(models, matrices, seeds):
        assert_equals_the_reference(model, X, y, seed)


def test_the_nan_examples_reach_nan_where_their_docstrings_say():
    """``FIRST_LOGIT_NAN`` ends with NaN weights, and ``late_first_logit_nan``
    is finite after one epoch and not after two."""
    model, X, y, seed = FIRST_LOGIT_NAN
    assert np.isnan(model.fit(X, y, np.random.default_rng(seed)).W_).any()
    model, X, y, seed = late_first_logit_nan(1)
    assert np.isfinite(model.fit(X, y, np.random.default_rng(seed)).b_).all()
    model, X, y, seed = late_first_logit_nan(2)
    assert not np.isfinite(model.fit(X, y, np.random.default_rng(seed)).b_).all()


def fit_in_a_fresh_process(cache, X, y):
    """A process that fits a logistic model with ``cache`` as
    ``XDG_CACHE_HOME`` and prints its weights' bytes as hex."""
    script = ("import sys, numpy as np; from driftml.classifiers import LogisticSgdClassifier; "
              "X, y = np.load(sys.argv[1]), np.load(sys.argv[2]); "
              "m = LogisticSgdClassifier(3, 0.1, 1e-4, 5).fit(X, y, np.random.default_rng(7)); "
              "print(m.W_.tobytes().hex(), m.b_.tobytes().hex())")
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", script, str(X), str(y)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_two_processes_building_the_kernel_at_once_fit_the_same_bytes(tmp_path):
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(100, 6)), rng.integers(0, 3, 100)
    np.save(tmp_path / "X.npy", X)
    np.save(tmp_path / "y.npy", y)
    cache = tmp_path / "cache"
    procs = [fit_in_a_fresh_process(cache, tmp_path / "X.npy", tmp_path / "y.npy")
             for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    model = LogisticSgdClassifier(3, 0.1, 1e-4, 5).fit(X, y, np.random.default_rng(7))
    here = f"{model.W_.tobytes().hex()} {model.b_.tobytes().hex()}\n"
    assert [out for out, _ in outs] == [here, here]
    assert [p.suffix for p in (cache / "driftml").iterdir()] == [".so"]  # no build left over


def test_a_load_from_a_warm_cache_starts_no_process(monkeypatch, tmp_path):
    """Only a build runs ``cc``: the cache key reads the compiler's file."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(classifiers, "_kernel", None)
    classifiers._kernels()
    monkeypatch.setattr(classifiers, "_kernel", None)

    def no_process(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert classifiers._kernels() is not None
    assert len(list((tmp_path / "driftml").iterdir())) == 1


def test_the_kernels_compile_without_warnings(tmp_path):
    """``_kernels.c`` builds with the production flags and ``-Wall -Wextra
    -Werror``."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    source = os.path.join(SRC, "driftml", "_kernels.c")
    done = subprocess.run([cc, *classifiers._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernels.so"), source, "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
