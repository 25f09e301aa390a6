import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftml.classifiers import (
    DecisionTreeClassifier,
    KnnClassifier,
    LogisticSgdClassifier,
    fit_logistic_sgd,
    knn_predict_proba,
    reservoir_sample,
)


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
    return model.fit(X, y, np.random.default_rng(0))


@st.composite
def knn_case(draw):
    """A fitted k-NN and query rows: tie-heavy integer grids (as on STAGGER)
    or tie-free floats, 1-3,000 references (below k and above ``CHUNK``),
    0-2,500 query rows (across a chunk boundary), and in half the cases a few
    NaN and inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ref = draw(st.one_of(st.integers(1, 40), st.integers(1_000, 3_000)))
    n_rows = draw(st.one_of(st.integers(0, 60), st.integers(1_000, 2_500)))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 3))
    k = draw(st.sampled_from([1, 3, 5, 7, 25]))
    if draw(st.booleans()):
        levels = draw(st.integers(2, 3))
        X_ref = rng.integers(0, levels, (n_ref, d)).astype(np.float64)
        X = rng.integers(0, levels, (n_rows, d)).astype(np.float64)
    else:
        X_ref = rng.normal(size=(n_ref, d))
        X = rng.normal(size=(n_rows, d))
    if draw(st.booleans()):
        for arr in (X_ref, X):
            n_bad = draw(st.integers(0, 3))
            if arr.size and n_bad:
                cells = rng.integers(0, arr.size, n_bad)
                arr.flat[cells] = rng.choice([np.nan, np.inf, -np.inf], n_bad)
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


def test_knn_rows_with_a_nan_kth_distance_still_vote_over_k():
    # a NaN reference and an inf query feature each leave fewer than k
    # comparable distances in a row; the row still takes k references
    X_ref = np.array([[0.0], [np.nan], [1.0], [np.nan]])
    y = np.array([0, 1, 0, 1])
    model = fitted_knn(X_ref, y, 2, k=3)
    with np.errstate(invalid="ignore"):
        proba = model.predict_proba(np.array([[0.0], [np.inf]]))
    assert proba.tolist() == [[2 / 3, 1 / 3], [2 / 3, 1 / 3]]


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
def tree_case(draw):
    """A tree config and data: tie-heavy integer grids (as on STAGGER), where
    rows repeat, some with two labels, or all-distinct floats, with 1-16
    columns. One case in twelve is all-distinct with 5,000-12,000 rows, so
    the split search takes the root's features in more than one block of
    ``SPLIT_CELLS`` cells. Some cases add a copied column (gain ties
    between features, across blocks when the copy lands in another), a
    constant column, -0.0 beside 0.0, or NaN and +-inf cells, sparse or in a
    fifth of the cells (so NaN rows repeat). ``min_leaf`` goes up to 40,
    above the distinct-row count of small grids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    large = draw(st.integers(0, 11)) == 0
    if large:
        n, d = draw(st.integers(5_000, 12_000)), draw(st.integers(2, 8))
        assert n * d > DecisionTreeClassifier.SPLIT_CELLS
    else:
        n = draw(st.one_of(st.integers(1, 60), st.integers(200, 3_000)))
        d = draw(st.integers(1, 16))
    n_classes = draw(st.integers(2, 3))
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
    y = rng.integers(0, n_classes, n)
    model = DecisionTreeClassifier(
        n_classes, max_depth=draw(st.integers(1, 8)),
        min_leaf=draw(st.sampled_from([1, 2, 4, 40])),
        split_criterion=draw(st.sampled_from(["gini", "entropy"])),
    )
    return model, X, y


@settings(max_examples=120)
@given(tree_case())
def test_tree_fit_equals_the_row_by_row_reference_exactly(case):
    model, X, y = case
    with np.errstate(invalid="ignore", divide="ignore"):
        model.fit(X, y)
        want = reference_tree_fit(model, X, y)
    got = (model.feature_, model.threshold_, model.left_, model.right_, model.proba_)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def reference_logistic_fit(model, X, y, rng):
    """Reference for ``fit_logistic_sgd``: one model's minibatch steps as a
    loop of 2-D products; returns ``(W, b)``."""

    def softmax(logits):
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    n, d = X.shape
    y_onehot = np.zeros((n, model.n_classes))
    y_onehot[np.arange(n), y] = 1.0
    W = np.zeros((d, model.n_classes))
    b = np.zeros(model.n_classes)
    m = min(model.MINIBATCH, n)
    for _ in range(model.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, m):
            take = perm[start : start + m]
            xb, yb = X[take], y_onehot[take]
            p = softmax(xb @ W + b)
            err = (p - yb) / take.size
            W -= model.learning_rate * (xb.T @ err + model.l2 * W)
            b -= model.learning_rate * err.sum(axis=0)
    return W, b


@st.composite
def lockstep_case(draw):
    """1-6 logistic models with mixed epochs, learning rates and ``l2``
    (0 among them) over 2-9 classes (numpy sums a row of 8 or more
    pairwise); n of 1, below the minibatch, and not a multiple of it; up to
    20 columns; each model's matrix drawn from a pool, so some models share
    one array and others do not. A quarter of the cases diverge: large
    unscaled values and a large learning rate drive the logits to +-inf and
    NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 31, 32, 33, 95, 150]))
    d = draw(st.integers(1, 20))
    n_classes = draw(st.integers(2, 9))
    k = draw(st.integers(1, 6))
    diverge = draw(st.integers(0, 3)) == 0
    scales, rates = ([1e160, 1e200], [10.0, 1e3]) if diverge else ([1.0, 5.0], [0.003, 0.1, 0.9])
    pool = [rng.normal(size=(n, d)) * draw(st.sampled_from(scales))
            for _ in range(draw(st.integers(1, k)))]
    matrices = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(k)]
    models = [
        LogisticSgdClassifier(n_classes, learning_rate=draw(st.sampled_from(rates)),
                              l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
                              epochs=draw(st.integers(1, 4)))
        for _ in range(k)
    ]
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(k)]
    return models, matrices, rng.integers(0, n_classes, n), seeds


# The first step drives W to +-inf; in the second, the logit row of the
# second input is NaN in its first entry alone (inf - inf). ``max`` over the
# row returns another NaN there than an ``np.maximum`` chain over the
# class planes does, so the weights' NaN bytes tell the two apart.
FIRST_LOGIT_NAN = ([LogisticSgdClassifier(3, learning_rate=1e3, l2=0.0, epochs=2)],
                   [np.array([[1.0, 1.0], [1.0, -1.0]]) * 1e307], np.array([0, 1]), [0])


@settings(max_examples=120)
@given(lockstep_case())
@example(FIRST_LOGIT_NAN)
def test_lockstep_sgd_equals_fitting_each_model_alone(case):
    models, matrices, y, seeds = case
    with np.errstate(over="ignore", invalid="ignore"):
        fit_logistic_sgd(models, matrices, y, [np.random.default_rng(s) for s in seeds])
    for model, X, seed in zip(models, matrices, seeds):
        with np.errstate(over="ignore", invalid="ignore"):
            W, b = reference_logistic_fit(model, X, y, np.random.default_rng(seed))
        assert model.W_.tobytes() == W.tobytes()
        assert model.b_.tobytes() == b.tobytes()


def test_logistic_fit_is_the_one_model_lockstep_call():
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(70, 16)), rng.integers(0, 3, 70)
    model = LogisticSgdClassifier(3, learning_rate=0.1, l2=1e-4, epochs=3)
    assert model.fit(X, y, np.random.default_rng(9)) is model
    W, b = reference_logistic_fit(model, X, y, np.random.default_rng(9))
    assert (model.W_.tobytes(), model.b_.tobytes()) == (W.tobytes(), b.tobytes())
