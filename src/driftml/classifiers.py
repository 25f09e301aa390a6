"""Base classifiers: decision tree, naive Bayes, logistic SGD and k-NN.

All classifiers operate on a dense numeric matrix (the pipeline has already
imputed, encoded and scaled) and produce probability rows over the full
schema class set: rows are non-negative and sum to 1, classes absent from
the training data may receive probability zero. Everything is deterministic
given (data, hyperparameters, seed).

Logistic SGD has one training routine, ``fit_logistic_sgd``, which steps
several models in lockstep; ``LogisticSgdClassifier.fit`` is its one-model
call. Each model ends with the bytes it gets when fitted alone. k-NN has one
prediction routine, ``knn_predict_proba``, which serves several models of
one reference set from one distance matrix and one partition per chunk;
``KnnClassifier.predict_proba`` is its one-model call.

Three kernels take fewer passes than the simple forms they replace and give
the same bytes; ``tests/test_classifiers.py`` keeps each simple form as a
reference. The tree grows from the distinct (row, label) pairs weighted by
count and scores every split of a block of features in one pass, k-NN finds
its distances and nearest mask in place (each k's k-th distance taken from
the smallest k_max of a row), and the lockstep SGD step builds the softmax
in place.
"""

from __future__ import annotations

import numpy as np

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

    SPLIT_CELLS = 8192

    def __init__(self, n_classes: int, max_depth: int, min_leaf: int, split_criterion: str):
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.split_criterion = split_criterion

    def _impurity(self, counts: np.ndarray, total) -> np.ndarray:
        """Impurity of count rows (..., n_classes) with row sums ``total``."""
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / total
            if self.split_criterion == "gini":
                val = 1.0 - np.sum(np.square(p), axis=-1)
            else:  # entropy
                logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
                val = -np.sum(p * logp, axis=-1)
        return val

    def _best_split(self, X, counts, total):
        """Best (feature, threshold, gain) over all features, None if no split.

        Row i of ``X`` stands for ``counts[i, -1]`` rows whose labels
        ``counts[i, :-1]`` counts; ``total`` is the column sum of ``counts``.
        Features are searched a block at a time, each block in one pass; a
        block holds about ``SPLIT_CELLS`` (feature, row) cells, so its
        ``(features, rows, classes + 1)`` cumulative counts stay in cache."""
        total_counts, n = total[:-1], total[-1]
        parent = float(self._impurity(total_counts, n))
        best = None  # (gain, feature, threshold)
        d = X.shape[1]
        width = max(1, self.SPLIT_CELLS // X.shape[0])
        for start in range(0, d, width):
            feats = np.arange(start, min(start + width, d))
            order = np.argsort(X.T[feats], axis=1, kind="stable")
            sv = X.take(order * d + feats[:, None])  # each feature's sorted values
            cum = np.cumsum(counts.take(order, axis=0), axis=1)
            # a split after position i of a feature leaves left_n[i] rows on
            # the left; after the last position none are left on the right
            left_n = cum[:, :, -1]
            ok = (left_n >= self.min_leaf) & (n - left_n >= self.min_leaf)
            ok[:, :-1] &= sv[:, :-1] != sv[:, 1:]
            cell = np.flatnonzero(ok)
            left = cum.reshape(-1, cum.shape[2]).take(cell, axis=0)
            left_counts, nl = left[:, :-1], left[:, -1]
            nr = n - nl
            gains = np.full(ok.size, -np.inf)
            gains[cell] = parent - (nl * self._impurity(left_counts, nl[:, None])
                                    + nr * self._impurity(total_counts - left_counts,
                                                          nr[:, None])) / n
            gains = gains.reshape(ok.shape)
            at = gains.argmax(axis=1)  # each feature's first best position
            top = gains[np.arange(at.size), at]
            for i, (k, gain) in enumerate(zip(at.tolist(), top.tolist())):
                if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                    best = (gain, start + i, float((sv[i, k] + sv[i, k + 1]) / 2.0))
        return best

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        # Grow from the distinct (row, label) pairs, each weighted by its
        # count. Split gains, min_leaf checks and leaf probabilities read only
        # integer counts, which float64 sums exactly, so the tree is the one
        # grown row by row. A row holding NaN stays apart: NaN != NaN, so the
        # row-by-row scan may split between two copies of it.
        nan_row = np.isnan(X).any(axis=1)
        first, inverse = distinct_rows(
            np.column_stack([X, y, np.where(nan_row, np.arange(y.size), -1)]))
        X, y = X[first], y[first]
        # one row per distinct pair: its count in its label's column, and
        # again in the last column, the row count that min_leaf reads
        counts = np.zeros((first.size, self.n_classes + 1))
        weight = np.bincount(inverse, minlength=first.size)
        counts[np.arange(first.size), y] = weight
        counts[:, -1] = weight

        feature, threshold, left, right, proba = [], [], [], [], []

        def leaf(total):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            proba.append(total[:-1] / total[-1])
            return len(feature) - 1

        def build(rows: np.ndarray, depth: int) -> int:
            node_counts = counts[rows]
            total = node_counts.sum(axis=0)
            if depth >= self.max_depth or total[-1] < 2 * self.min_leaf \
                    or np.count_nonzero(total[:-1]) <= 1:
                return leaf(total)
            split = self._best_split(X[rows], node_counts, total)
            if split is None:
                return leaf(total)
            _, j, thr = split
            node = len(feature)
            feature.append(j)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            proba.append(np.zeros(self.n_classes))
            mask = X[rows, j] <= thr
            left_id = build(rows[mask], depth + 1)
            right_id = build(rows[~mask], depth + 1)
            left[node] = left_id
            right[node] = right_id
            return node

        build(np.arange(X.shape[0]), 0)
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.proba_ = np.array(proba, dtype=np.float64)
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
        self.class_count_ = np.bincount(y, minlength=self.n_classes).astype(np.float64)
        self.log_prior_ = np.full(self.n_classes, -np.inf)
        present = self.class_count_ > 0
        self.log_prior_[present] = np.log(self.class_count_[present] / n)

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
    (L2 on the weights, not the bias). ``fit`` is ``fit_logistic_sgd`` on
    one model."""

    MINIBATCH = 32

    def __init__(self, n_classes: int, learning_rate: float, l2: float, epochs: int):
        self.n_classes = n_classes
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        fit_logistic_sgd([self], [X], y, [rng])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(np.asarray(X, dtype=np.float64) @ self.W_ + self.b_)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def fit_logistic_sgd(models, matrices, y: np.ndarray, rngs) -> None:
    """Fit ``models[k]`` on ``matrices[k]`` and ``y`` with ``rngs[k]``, all
    models in lockstep.

    The matrices share one shape ``(n, d)``; the same array may serve several
    models. Each model draws its own permutation per epoch and takes the
    same minibatch steps as when fitted alone, with its own learning rate,
    ``l2`` and epoch count. The weights of the models still training are
    stacked as ``(K, d, C)``, so a step is one stacked product per
    operation; numpy multiplies each model's slice as the 2-D product a
    lone fit makes, so every model ends with the same bytes. A model leaves
    the stack when its epochs end. Rows are gathered per minibatch: a
    permuted copy of every matrix per epoch would hold K more matrices.
    """
    order = sorted(range(len(models)), key=lambda k: -models[k].epochs)
    models = [models[k] for k in order]  # the models still training are a prefix
    rngs = [rngs[k] for k in order]
    blocks = {}  # id of each distinct matrix -> (its block in ``X``, the matrix)
    for M in matrices:
        blocks.setdefault(id(M), (len(blocks), M))
    block = np.array([blocks[id(matrices[k])][0] for k in order])
    distinct = [np.asarray(M, dtype=np.float64) for _, M in blocks.values()]
    X = np.concatenate(distinct) if len(distinct) > 1 else distinct[0]
    n, d = matrices[0].shape
    offset = (block * n)[:, None]
    n_classes = models[0].n_classes
    y_onehot = np.zeros((n, n_classes))
    y_onehot[np.arange(n), np.asarray(y, dtype=np.int64)] = 1.0
    Y = np.tile(y_onehot, (len(distinct), 1))  # the label of every row of X

    K = len(models)
    W = np.zeros((K, d, n_classes))
    b = np.zeros((K, 1, n_classes))
    rate = np.array([model.learning_rate for model in models], dtype=np.float64)[:, None, None]
    l2 = np.array([model.l2 for model in models], dtype=np.float64)[:, None, None]
    epochs = np.array([model.epochs for model in models])
    m = min(LogisticSgdClassifier.MINIBATCH, n)
    for epoch in range(int(epochs.max())):
        k = int(np.count_nonzero(epochs > epoch))
        rows = np.stack([rng.permutation(n) for rng in rngs[:k]]) + offset[:k]
        Wk, bk, rate_k, l2_k = W[:k], b[:k], rate[:k], l2[:k]
        for start in range(0, n, m):
            take = rows[:, start : start + m]
            xb = X.take(take, axis=0)
            err = xb @ Wk + bk  # the softmax of the logits, in place
            err -= err.max(axis=-1, keepdims=True)
            np.exp(err, out=err)
            err /= err.sum(axis=-1, keepdims=True)
            err -= Y.take(take, axis=0)
            err /= take.shape[1]
            Wk -= rate_k * (xb.transpose(0, 2, 1) @ err + l2_k * Wk)
            bk -= rate_k * err.sum(axis=1, keepdims=True)
    for k, model in enumerate(models):
        model.W_ = W[k].copy()
        model.b_ = b[k, 0].copy()


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

    Each chunk's distances are computed once and partitioned once, at the
    largest k; a smaller k finds its k-th distance among those k_max
    columns. The k-th smallest distance is one value however it is found,
    so every model gets the bytes of its own call.
    """
    X = np.asarray(X, dtype=np.float64)
    first = models[0]
    ref_X, ref_sq = first.ref_X_, first.ref_sq_
    n_classes = first.n_classes
    by_k = {}  # k (at most the reference count) -> the indices of its models
    for i, model in enumerate(models):
        by_k.setdefault(min(model.k, ref_X.shape[0]), []).append(i)
    k_max = max(by_k)
    in_class = [first.ref_y_ == c for c in range(n_classes - 1)]
    outs = [np.empty((X.shape[0], n_classes)) for _ in models]
    for start in range(0, X.shape[0], first.CHUNK):
        xb = X[start : start + first.CHUNK]
        # sq - 2·x·r + ref_sq: the reference's operations in its order,
        # in one (rows, references) array
        d2 = (2.0 * xb) @ ref_X.T
        np.subtract(np.square(xb).sum(axis=1, keepdims=True), d2, out=d2)
        d2 += ref_sq
        # each row's k_max smallest, copied so the partitioned block is freed at once
        smallest = np.partition(d2, k_max - 1, axis=1)[:, :k_max].copy()
        for k, indices in by_k.items():
            kth = smallest if k == k_max else np.partition(smallest, k - 1, axis=1)
            take = _nearest_mask(d2, k, kth[:, k - 1])
            # every row takes exactly k references: the last class has the rest
            votes = np.empty((xb.shape[0], n_classes), dtype=np.int64)
            for c, refs in enumerate(in_class):
                votes[:, c] = np.count_nonzero(take & refs, axis=1)
            votes[:, -1] = k - votes[:, :-1].sum(axis=1)
            share = votes / k
            for i in indices:
                outs[i][start : start + first.CHUNK] = share
    return outs


def _nearest_mask(d2: np.ndarray, k: int, kth: np.ndarray) -> np.ndarray:
    """Mask of each row's k smallest entries by (value, column index): the
    set a stable argsort puts first, found without sorting. ``kth`` holds
    each row's k-th smallest entry (NaN sorting last)."""
    take = d2 <= kth[:, None]
    excess = np.count_nonzero(take, axis=1) - k
    over = np.nonzero(excess > 0)[0]
    if over.size:  # ties at the k-th value: drop each such row's last ties
        row, col = np.divmod(np.flatnonzero(d2[over] == kth[over, None]), d2.shape[1])
        n_tie = np.bincount(row, minlength=over.size)
        rank = np.arange(row.size) - (np.cumsum(n_tie) - n_tie)[row]  # among its row's ties
        drop = rank >= (n_tie - excess[over])[row]
        take[over[row[drop]], col[drop]] = False
    # a NaN k-th value means fewer than k comparable entries; every comparison
    # above was false on such a row, so it takes the argsort's choice instead
    lost = np.nonzero(np.isnan(kth))[0]
    if lost.size:
        take[lost[:, None], np.argsort(d2[lost], axis=1, kind="stable")[:, :k]] = True
    return take
