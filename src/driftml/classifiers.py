"""Base classifiers: decision tree, naive Bayes, logistic SGD and k-NN.

All classifiers operate on a dense numeric matrix (the pipeline has already
imputed, encoded and scaled) and produce probability rows over the full
schema class set: rows are non-negative and sum to 1, classes absent from
the training data may receive probability zero. Everything is deterministic
given (data, hyperparameters, seed).

Trees, logistic SGD and k-NN run their inner loops in ``_kernels.c``
(through ``kernels``), which sums and compares in a fixed order. SGD takes
libm's ``exp``, so its weights do not depend on BLAS or on numpy's SIMD
``exp``; k-NN's distance product stays a BLAS product. A logistic fit is
one call into ``sgd_fit``, which draws each epoch's row order from the bit
generator of the fit's ``Generator`` with numpy's ``Generator.permutation``
algorithm, so the weights also depend on numpy keeping that algorithm (a
test pins the draws to ``Generator.permutation``).

The tree and k-NN kernels take fewer passes than the simple forms they
replace and give the same bytes; ``tests/test_classifiers.py`` keeps each
simple form as a reference, and a pure-Python form of the SGD kernel. A
``TreeGrower`` grows the trees fitted on one matrix (or a lone tree) level
by level from its distinct (row, label) pairs weighted by count: one
``kernels.tree_level`` per depth searches and splits the open nodes of all
of them, with entropy's logs from numpy's ``np.log2``, not libm's.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .data import distinct_rows


class ConstantClassifier:
    """Degenerate case: training data held a single class."""

    def __init__(self, n_classes: int, class_index: int):
        self.n_classes = n_classes
        self.class_index = class_index

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], self.n_classes))
        out[:, self.class_index] = 1.0
        return out


class DecisionTreeClassifier:
    """CART-style tree on numeric features with midpoint thresholds.

    Split tie-breaks are fixed: strictly larger impurity gain wins, then the
    lower feature index, then the lower threshold, so refits are identical.
    """

    def __init__(self, n_classes: int, max_depth: int, min_leaf: int, split_criterion: str):
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.split_criterion = split_criterion

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None, grower=None):
        """Grow on ``X`` and ``y``: alone, or as one of the trees of
        ``grower``, which grows all of them at the first ``fit`` that asks."""
        grower = TreeGrower(X, y, self.n_classes, [self]) if grower is None else grower
        self.feature_, self.threshold_, self.left_, self.right_, self.proba_ = grower.tree(self)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        cur = np.zeros(X.shape[0], dtype=np.int64)
        active = np.nonzero(self.feature_[cur] >= 0)[0]
        while active.size:
            nd = cur[active]
            go_left = X[active, self.feature_[nd]] <= self.threshold_[nd]
            cur[active] = np.where(go_left, self.left_[nd], self.right_[nd])
            active = active[self.feature_[cur[active]] >= 0]
        return self.proba_[cur]


class TreeGrower:
    """The trees fitted on one matrix, grown level by level from its ``tree_pairs``.
    Trees with one ``(split_criterion, min_leaf)`` share one growth to their deepest
    ``max_depth``, each cut at its own depth; one call into ``tree_level`` of
    ``_kernels.c`` searches and splits the open nodes of a depth, in every growth."""

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int, trees: list,
                 rows: tuple = None):
        """``rows`` is ``(first, inverse)`` of ``X``'s rows (``tree_pairs``):
        the fit batch's distinct rows, or ``distinct_rows(X)`` when None."""
        X = np.asarray(X, dtype=np.float64)
        self.data = (X, y, n_classes, *(distinct_rows(X) if rows is None else rows))
        self.trees, self.nodes = trees, None

    def tree(self, model: DecisionTreeClassifier) -> tuple:
        """``(feature, threshold, left, right, proba)`` of ``model``, one of ``trees``."""
        self.nodes = self.nodes or self._grow()
        keys, order, growth, depth, feature, threshold, left, total = self.nodes
        order = order[(growth[order] == keys.index((model.split_criterion, model.min_leaf)))
                      & (depth[order] <= model.max_depth)]
        rank = np.empty(growth.size, np.int64)
        rank[order] = np.arange(order.size)
        inner, total = (feature[order] >= 0) & (depth[order] < model.max_depth), total[order]
        return (np.where(inner, feature[order], -1), np.where(inner, threshold[order], 0.0),
                np.where(inner, rank[left[order]], -1), np.where(inner, rank[left[order] + 1], -1),
                np.where(inner[:, None], 0.0, total[:, :-1] / total[:, -1:]))

    def _grow(self) -> tuple:
        """Each growth's key, the nodes grown in depth-first preorder, and their arrays."""
        X, counts = tree_pairs(*self.data)
        keys = sorted({(tree.split_criterion, tree.min_leaf) for tree in self.trees})
        # each growth's deepest max_depth, its min_leaf and whether it takes entropy
        rule = np.array([(max(t.max_depth for t in self.trees
                              if (t.split_criterion, t.min_leaf) == (criterion, leaf)),
                          leaf, criterion == "entropy") for criterion, leaf in keys], np.int64)
        xt = np.ascontiguousarray(X.T)
        order = np.tile(xt.argsort(axis=1, kind="stable"), (len(keys), 1, 1))
        # each node of a depth: growth, path (a bit a depth), its span of pairs, feature, left
        node = np.zeros((len(keys), 6), np.int64)
        node[:, 0], node[:, 3] = np.arange(len(keys)), len(X)
        total = np.tile(counts.sum(axis=0), (len(keys), 1))
        props, levels, grown = np.empty(0), [], 0
        for depth in range(rule[:, 0].max() + 1):
            grown += len(node)
            splits, threshold, child, child_total, props = kernels.tree_level(
                xt, counts, rule, order, depth, node, total, props, grown)
            levels.append((node, np.full(len(node), depth), threshold, total))
            if not splits:
                break
            node, total = child[:2 * splits], child_total[:2 * splits]
        node, depth, threshold, total = (np.concatenate(part) for part in zip(*levels))
        growth, path, feature, left = node[:, 0], node[:, 1], node[:, 4], node[:, 5]
        # preorder: by growth, then by path, each node before its subtrees
        return (keys, np.lexsort((depth, path << (depth.max() - depth), growth)),
                growth, depth, feature, threshold, left, total)


def tree_pairs(X: np.ndarray, y: np.ndarray, n_classes: int, first: np.ndarray,
               inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, counts)`` that a tree on ``X`` and ``y`` grows from: each
    distinct (row, label) pair once, in the order of its first row, with
    its count in its label's column and again in the last column, the row
    count that min_leaf reads.

    Row ``i`` of ``X`` equals row ``first[inverse[i]]`` byte for byte (the
    fit batch's distinct rows after row-wise stages, or ``distinct_rows(X)``),
    so only ``X[first]`` is read: its distinct rows, found among a few
    dozen, composed with ``inverse`` and ``y``, name each row's pair.

    Split gains, min_leaf checks and leaf probabilities read only integer
    counts, which float64 sums exactly, so the tree is the one grown row by
    row. A row holding NaN stays apart: NaN != NaN, so the row-by-row scan
    may split between two copies of it.
    """
    y = np.asarray(y, dtype=np.int64)
    table = X[first]
    nan = np.isnan(table).any(axis=1)[inverse]
    merged = distinct_rows(table)[1]
    pair = merged[inverse] * n_classes + y
    pair[nan] = (merged.max(initial=-1) + 1) * n_classes + np.flatnonzero(nan)
    start = np.full(pair.max(initial=-1) + 1, y.size)
    np.minimum.at(start, pair, np.arange(y.size))
    weight = np.bincount(pair, minlength=start.size)
    found = np.flatnonzero(weight)
    found = found[np.argsort(start[found])]
    rows = start[found]
    counts = np.zeros((rows.size, n_classes + 1))
    counts[np.arange(rows.size), y[rows]] = weight[found]
    counts[:, -1] = weight[found]
    return X[rows], counts


class NaiveBayesClassifier:
    """Hybrid naive Bayes: Bernoulli with Laplace smoothing on binary
    columns (one-hot blocks), Gaussian on everything else."""

    def __init__(self, n_classes: int, laplace_alpha: float):
        self.n_classes = n_classes
        self.laplace_alpha = laplace_alpha

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        self.binary_ = np.array([np.isin(X[:, j], (0.0, 1.0)).all() for j in range(d)])
        class_count = np.bincount(y, minlength=self.n_classes).astype(np.float64)
        self.log_prior_ = np.full(self.n_classes, -np.inf)
        present = class_count > 0
        self.log_prior_[present] = np.log(class_count[present] / n)

        self.p_one_ = np.full((self.n_classes, d), 0.5)
        self.mean_ = np.zeros((self.n_classes, d))
        self.var_ = np.ones((self.n_classes, d))
        for c in range(self.n_classes):
            rows = X[y == c]
            if rows.shape[0] == 0:
                continue
            nc = rows.shape[0]
            ones = rows.sum(axis=0)
            self.p_one_[c] = (ones + self.laplace_alpha) / (nc + 2.0 * self.laplace_alpha)
            self.mean_[c] = rows.mean(axis=0)
            self.var_[c] = np.maximum(rows.var(axis=0), 1e-9)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        logp = np.tile(self.log_prior_, (n, 1))
        b = self.binary_
        if b.any():
            xb = np.clip(X[:, b], 0.0, 1.0)
            p1 = np.clip(self.p_one_[:, b], 1e-12, 1 - 1e-12)
            logp += xb @ np.log(p1).T + (1.0 - xb) @ np.log1p(-p1).T
        g = ~b
        if g.any():
            xg = X[:, g]
            mean = self.mean_[:, g]
            var = self.var_[:, g]
            const = -0.5 * np.log(2.0 * np.pi * var).sum(axis=1)
            sq = (
                (xg ** 2) @ (1.0 / (2.0 * var)).T
                - xg @ (mean / var).T
                + ((mean ** 2) / (2.0 * var)).sum(axis=1)
            )
            logp += const - sq
        logp -= logp.max(axis=1, keepdims=True)
        out = np.exp(logp)
        out[~np.isfinite(out)] = 0.0
        return out / out.sum(axis=1, keepdims=True)


class LogisticSgdClassifier:
    """Multinomial logistic regression trained with seeded mini-batch SGD
    (L2 on the weights, not the bias). A fit is one call into ``sgd_fit``
    of ``_kernels.c``, whose fixed summation order and libm ``exp`` pin the
    weights' bytes."""

    MINIBATCH = 32

    def __init__(self, n_classes: int, learning_rate: float, l2: float, epochs: int):
        self.n_classes = n_classes
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        """Steps from zero weights over ``rng.permutation(n)`` per epoch, which
        the kernel draws from ``rng``'s bit generator as numpy does."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.int64)
        self.W_, self.b_ = kernels.sgd_fit(X, y, self.n_classes, self.MINIBATCH, self.epochs,
                                           self.learning_rate, self.l2, rng)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        logits = np.asarray(X, dtype=np.float64) @ self.W_ + self.b_
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


def reservoir_sample(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of a uniform k-subset of range(n), classic algorithm R."""
    if k >= n:
        return np.arange(n)
    res = np.arange(k)
    draws = rng.integers(0, np.arange(k, n) + 1)
    hit = draws < k
    # row i replaces slot draws[i - k]; the last (largest) i to hit a slot wins
    np.maximum.at(res, draws[hit], np.arange(k, n)[hit])
    return np.sort(res)


class KnnClassifier:
    """k nearest neighbors with a bounded, seeded reservoir of references.

    Each row votes over its k nearest references ordered by (squared
    distance, reference index): at a tied k-th distance the lower reference
    indices are taken, so predictions are reproducible. Class probabilities
    are the vote shares.
    """

    CHUNK = 1024

    def __init__(self, n_classes: int, k: int, max_reference_points: int):
        self.n_classes = n_classes
        self.k = k
        self.max_reference_points = max_reference_points

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        keep = reservoir_sample(X.shape[0], self.max_reference_points, rng)
        self.ref_X_ = X[keep]
        self.ref_y_ = y[keep]
        self.ref_sq_ = np.square(self.ref_X_).sum(axis=1)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return knn_predict_proba([self], X)[0]


def knn_predict_proba(models, X: np.ndarray) -> list[np.ndarray]:
    """Each model's ``KnnClassifier.predict_proba`` on ``X``, for models
    whose ``n_classes``, ``ref_X_`` and ``ref_y_`` are byte-identical.

    numpy forms each chunk's distance product ``(2·x) @ ref_X.T`` and row
    norms once; one call into ``knn_votes`` of ``_kernels.c`` then finds
    every row's distances ``(sq - prod) + ref_sq`` in that order, keeps its
    k_max nearest references as a stable argsort orders them (NaN last),
    and writes ``count / k`` over the first k of them into each model's
    output. ``CHUNK`` fixes the rows of each distance product, whose shape
    decides its rounding, so it stays at 1,024.
    """
    X = np.asarray(X, dtype=np.float64)
    first = models[0]
    ref_X, n_classes = first.ref_X_, first.n_classes
    k = np.array([min(model.k, ref_X.shape[0]) for model in models], dtype=np.int64)
    outs = [np.empty((X.shape[0], n_classes)) for _ in models]
    for start in range(0, X.shape[0], first.CHUNK):
        xb = X[start : start + first.CHUNK]
        kernels.knn_votes((2.0 * xb) @ ref_X.T, np.square(xb).sum(axis=1), first.ref_sq_,
                          first.ref_y_, k, outs, start)
    return outs
