"""Base classifiers: decision tree, naive Bayes, logistic SGD and k-NN.

All classifiers operate on a dense numeric matrix (the pipeline has already
imputed, encoded and scaled) and produce probability rows over the full
schema class set: rows are non-negative and sum to 1, classes absent from
the training data may receive probability zero. Everything is deterministic
given (data, hyperparameters, seed).

Logistic SGD runs each epoch as one call into a small C kernel
(``_sgd.c``, compiled with ``cc`` at the first fit and cached outside the
package; ``KernelBuildError`` when that fails). The kernel sums in a fixed
order and takes libm's ``exp``, so a model's bytes do not depend on BLAS or
on numpy's SIMD ``exp``. k-NN has one prediction routine,
``knn_predict_proba``, which serves several models of one reference set
from one distance matrix and one partition per chunk;
``KnnClassifier.predict_proba`` is its one-model call.

The tree and k-NN kernels take fewer passes than the simple forms they
replace and give the same bytes; ``tests/test_classifiers.py`` keeps each
simple form as a reference, and a pure-Python form of the SGD kernel. The
tree grows from the distinct (row, label) pairs weighted by count
(``tree_pairs``, which trees fitted on one matrix share) and scores every
split of a block of features in one pass. k-NN finds its distances in
place, takes each k's k-th distance from the smallest k_max of a row, and
counts the votes as one product of the 0/1 mask ``d2 <= kth`` with the
references' one-hot labels; only a row with ties at its k-th distance, or
with a NaN k-th distance, has its counts fixed.

k-NN forms one distance product per ``CHUNK`` = 1,024 query rows, whose
shape pins the bytes (at 256 rows the recorded normalized-AUC report
digests change). The row-local passes after it run on sub-blocks of about
``BLOCK_CELLS`` cells that stay in a core's L2 cache; their size moves no
byte and is free to change for speed.
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

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None, pairs=None):
        """Grow from the distinct (row, label) pairs of ``X`` and ``y``,
        each weighted by its count: ``tree_pairs(X, y, n_classes)``, or
        ``pairs`` when the caller found them already for another tree."""
        X, counts = tree_pairs(X, y, self.n_classes) if pairs is None else pairs
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


def tree_pairs(X: np.ndarray, y: np.ndarray, n_classes: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, counts)`` that a tree on ``X`` and ``y`` grows from: each
    distinct (row, label) pair once, with its count in its label's column
    and again in the last column, the row count that min_leaf reads.

    Split gains, min_leaf checks and leaf probabilities read only integer
    counts, which float64 sums exactly, so the tree is the one grown row by
    row. A row holding NaN stays apart: NaN != NaN, so the row-by-row scan
    may split between two copies of it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    nan_row = np.isnan(X).any(axis=1)
    first, inverse = distinct_rows(
        np.column_stack([X, y, np.where(nan_row, np.arange(y.size), -1)]))
    counts = np.zeros((first.size, n_classes + 1))
    weight = np.bincount(inverse, minlength=first.size)
    counts[np.arange(first.size), y[first]] = weight
    counts[:, -1] = weight
    return X[first], counts


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


class KernelBuildError(RuntimeError):
    """The SGD kernel ``_sgd.c`` could not be compiled or loaded."""


class LogisticSgdClassifier:
    """Multinomial logistic regression trained with seeded mini-batch SGD
    (L2 on the weights, not the bias). Each epoch is one call into the
    compiled kernel ``_sgd.c``, whose fixed summation order and libm ``exp``
    pin the weights' bytes."""

    MINIBATCH = 32

    def __init__(self, n_classes: int, learning_rate: float, l2: float, epochs: int):
        self.n_classes = n_classes
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        """Steps from zero weights over ``rng.permutation(n)`` per epoch."""
        epoch = _sgd_kernel()
        X = np.ascontiguousarray(X, dtype=np.float64)
        (n, d), n_classes = X.shape, self.n_classes
        Y = np.zeros((n, n_classes))
        Y[np.arange(n), np.asarray(y, dtype=np.int64)] = 1.0
        W, b = np.zeros((d, n_classes)), np.zeros(n_classes)
        m = min(self.MINIBATCH, n)
        err, grad = np.empty((m, n_classes)), np.empty((d, n_classes))
        for _ in range(self.epochs):
            rows = rng.permutation(n).astype(np.int64, copy=False)
            epoch(X.ctypes.data, Y.ctypes.data, rows.ctypes.data, n, d, n_classes, m,
                  W.ctypes.data, b.ctypes.data, self.learning_rate, self.l2,
                  err.ctypes.data, grad.ctypes.data)
        self.W_, self.b_ = W, b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        logits = np.asarray(X, dtype=np.float64) @ self.W_ + self.b_
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_kernel = None


def _sgd_kernel():
    """``sgd_epoch`` of ``_sgd.c``, compiled with ``cc`` at its first use.

    The library is cached in ``$XDG_CACHE_HOME/driftml`` (``~/.cache/driftml``
    when unset) under the sha256 of the source, the flags and ``cc
    --version``. Each build writes a name of its own and renames it into
    place, so processes that build at once each load a whole library. The
    modules for this are imported here, not with the package."""
    global _kernel
    if _kernel is None:
        import ctypes
        import hashlib
        import os
        import subprocess
        import tempfile

        source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sgd.c")
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                             "driftml")
        try:
            with open(source, "rb") as fh:
                key = hashlib.sha256(fh.read() + repr(_KERNEL_FLAGS).encode() + subprocess.run(
                    ["cc", "--version"], capture_output=True, check=True).stdout).hexdigest()
            library = os.path.join(cache, f"_sgd-{key[:24]}.so")
            if not os.path.exists(library):
                os.makedirs(cache, exist_ok=True)
                fd, built = tempfile.mkstemp(suffix=".so", dir=cache)
                os.close(fd)
                try:
                    subprocess.run(["cc", *_KERNEL_FLAGS, "-o", built, source, "-lm"],
                                   capture_output=True, check=True)
                    os.replace(built, library)
                finally:
                    if os.path.exists(built):
                        os.unlink(built)
            epoch = ctypes.CDLL(library).sgd_epoch
        except (OSError, subprocess.CalledProcessError) as exc:
            stderr = getattr(exc, "stderr", None) or b""
            raise KernelBuildError(f"cannot build {source} with cc: {exc} "
                                   f"{stderr.decode(errors='replace')}".strip()) from exc
        epoch.restype = None
        epoch.argtypes = ([ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 2
                          + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 2)
        _kernel = epoch
    return _kernel


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
    BLOCK_CELLS = 1 << 16

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

    A k's votes are one product: the 0/1 mask ``d2 <= kth``, written into
    one reused float32 buffer, times the (references, classes) one-hot
    table of ``ref_y_``. The counts are sums of at most the reference count
    of ones, exact in float32 up to 2**24 references (float64 beyond), so
    ``votes / k`` has the bytes of an integer count. The counts' row sums
    find the rows whose mask does not hold exactly k references, and only
    those are fixed (``_nearest_votes``).

    ``CHUNK`` fixes the rows of each distance product, whose shape decides
    its rounding, so it stays at 1,024. Every pass after the product reads
    and writes each row on its own, so a chunk's rows go through those
    passes ``BLOCK_CELLS // references`` at a time (at least one, at most
    ``CHUNK``): a 670-reference block of 97 rows is 0.5 MB. On 1,000 query
    rows and 670 or 2,048 references (an x86-64 core with a 2 MB L2),
    2**16 and 2**17 cells were fastest; 2**15 lost more to per-call
    overhead than it saved, and from 2**18 up the passes slowed again.
    """
    X = np.asarray(X, dtype=np.float64)
    first = models[0]
    ref_X, ref_sq = first.ref_X_, first.ref_sq_
    by_k = {}  # k (at most the reference count) -> the indices of its models
    for i, model in enumerate(models):
        by_k.setdefault(min(model.k, ref_X.shape[0]), []).append(i)
    k_max = max(by_k)
    # float32 counts to 2**24 exactly: a row's votes never exceed the references
    exact = np.float32 if ref_X.shape[0] <= 1 << 24 else np.float64
    onehot = np.zeros((ref_X.shape[0], first.n_classes), dtype=exact)
    onehot[np.arange(ref_X.shape[0]), first.ref_y_] = 1.0
    outs = [np.empty((X.shape[0], first.n_classes)) for _ in models]
    step = min(first.CHUNK, max(1, first.BLOCK_CELLS // ref_X.shape[0]))
    near = np.empty((min(step, X.shape[0]), ref_X.shape[0]), dtype=exact)  # a sub-block's mask
    for start in range(0, X.shape[0], first.CHUNK):
        xb = X[start : start + first.CHUNK]
        # sq - 2·x·r + ref_sq: the reference's operations in its order,
        # in one (rows, references) array whose product spans the chunk
        d2 = (2.0 * xb) @ ref_X.T
        sq = np.square(xb).sum(axis=1, keepdims=True)
        for at in range(0, xb.shape[0], step):
            block = d2[at : at + step]
            np.subtract(sq[at : at + step], block, out=block)
            block += ref_sq
            # each row's k_max smallest, copied so the partitioned block is freed at once
            smallest = np.partition(block, k_max - 1, axis=1)[:, :k_max].copy()
            mask = near[: block.shape[0]]
            for k, indices in by_k.items():
                kth = smallest if k == k_max else np.partition(smallest, k - 1, axis=1)
                votes = _nearest_votes(block, k, kth[:, k - 1], mask, onehot, first.ref_y_)
                share = np.divide(votes, k, dtype=np.float64)
                for i in indices:
                    outs[i][start + at : start + at + block.shape[0]] = share
    return outs


def _nearest_votes(d2: np.ndarray, k: int, kth: np.ndarray, mask: np.ndarray,
                   onehot: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's class counts over its k smallest entries by (value, column
    index), the set a stable argsort puts first, found without sorting.
    ``kth`` holds each row's k-th smallest entry (NaN sorting last), ``mask``
    is a buffer of ``d2``'s shape in ``onehot``'s dtype, ``labels`` the
    columns' classes and ``onehot`` their (columns, classes) 0/1 table.

    The counts are ``mask @ onehot`` on the 0/1 mask ``d2 <= kth``, and
    their row sums each row's mask count. A row with more than k takes back
    the votes of its last ties at the k-th value (one ``bincount`` over the
    dropped cells); a row with none has a NaN k-th value and takes the
    stable argsort's first k."""
    np.less_equal(d2, kth[:, None], out=mask)
    votes = mask @ onehot
    excess = votes.sum(axis=1) - k
    off = np.flatnonzero(excess)
    if off.size:
        over = off[excess[off] > 0]
        if over.size:  # ties at the k-th value: take back the votes of each row's last ties
            row, col = np.divmod(np.flatnonzero(d2[over] == kth[over, None]), d2.shape[1])
            n_tie = np.bincount(row, minlength=over.size)
            rank = np.arange(row.size) - (np.cumsum(n_tie) - n_tie)[row]  # among its row's ties
            drop = rank >= (n_tie - excess[over].astype(np.int64))[row]
            n_classes = onehot.shape[1]
            dropped = np.bincount(row[drop] * n_classes + labels[col[drop]],
                                  minlength=over.size * n_classes)
            votes[over] -= dropped.reshape(over.size, n_classes)
        # a NaN k-th value means fewer than k comparable entries; every comparison
        # above was false on such a row, so it takes the argsort's choice instead
        lost = off[excess[off] < 0]
        if lost.size:
            votes[lost] = onehot[np.argsort(d2[lost], axis=1, kind="stable")[:, :k]].sum(axis=1)
    return votes
