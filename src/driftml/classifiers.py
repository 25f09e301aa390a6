"""Base classifiers: decision tree, naive Bayes, logistic SGD and k-NN.

All classifiers operate on a dense numeric matrix (the pipeline has already
imputed, encoded and scaled) and produce probability rows over the full
schema class set: rows are non-negative and sum to 1, classes absent from
the training data may receive probability zero. Everything is deterministic
given (data, hyperparameters, seed).

Logistic SGD and k-NN run their inner loops in ``_kernels.c``, compiled
with ``cc`` at the first logistic fit or k-NN prediction and cached
outside the package (``KernelBuildError`` when that fails). The kernels
sum and compare in a fixed order. SGD takes libm's ``exp``, so its weights
do not depend on BLAS or on numpy's SIMD ``exp``; k-NN's distance product
stays a BLAS product. A logistic fit is one call into ``sgd_fit``, which
draws each epoch's row order from the bit generator of the fit's
``Generator`` with numpy's ``Generator.permutation`` algorithm, so the
weights also depend on numpy keeping that algorithm (a test pins the
draws to ``Generator.permutation``). k-NN has one prediction routine,
``knn_predict_proba``, which serves several models of one reference set
from one distance product per chunk; ``KnnClassifier.predict_proba`` is
its one-model call.

The tree and k-NN kernels take fewer passes than the simple forms they
replace and give the same bytes; ``tests/test_classifiers.py`` keeps each
simple form as a reference, and a pure-Python form of the SGD kernel. A
``TreeGrower`` grows the trees fitted on one matrix (or a lone tree) level
by level from its distinct (row, label) pairs weighted by count, with one
split search per depth for the open nodes of all of them. k-NN keeps each
row's nearest references in the stable argsort's order as it forms their
distances, and counts the votes of every k among them.

k-NN forms one distance product per ``CHUNK`` = 1,024 query rows, whose
shape pins the bytes (at 256 rows the recorded normalized-AUC report
digests change).
"""

from __future__ import annotations

import os

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
    ``max_depth``, each cut at its own depth; ``_best_splits`` searches the open
    nodes of a depth, in every growth, as segments of one ``(features, pairs)`` array."""

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int, trees: list):
        self.data, self.trees, self.nodes = (X, y, n_classes), trees, None

    def tree(self, model: DecisionTreeClassifier) -> tuple:
        """``(feature, threshold, left, right, proba)`` of ``model``, one of ``trees``."""
        self.nodes = self.nodes or self._grow()
        keys, order, growth, depth, feature, threshold, left, right, total = self.nodes
        order = order[(growth[order] == keys.index((model.split_criterion, model.min_leaf)))
                      & (depth[order] <= model.max_depth)]
        rank = np.empty(growth.size, np.int64)
        rank[order] = np.arange(order.size)
        inner, total = (feature[order] >= 0) & (depth[order] < model.max_depth), total[order]
        return (np.where(inner, feature[order], -1), np.where(inner, threshold[order], 0.0),
                np.where(inner, rank[left[order]], -1), np.where(inner, rank[right[order]], -1),
                np.where(inner[:, None], 0.0, total[:, :-2] / total[:, -2:-1]))

    def _grow(self) -> tuple:
        """Each growth's key, the nodes grown in depth-first preorder, and their arrays."""
        X, weights = tree_pairs(*self.data)
        keys = sorted({(tree.split_criterion, tree.min_leaf) for tree in self.trees})
        max_depth = np.array([max(t.max_depth for t in self.trees
                                  if (t.split_criterion, t.min_leaf) == key) for key in keys])
        entropy = np.array([criterion == "entropy" for criterion, _ in keys])
        min_leaf = np.array([leaf for _, leaf in keys])
        # each node of a depth: growth, path (a bit a depth), totals of counts and pairs
        growth, path = np.arange(len(keys)), np.zeros(len(keys), np.int64)
        weights = np.column_stack([weights, np.ones(len(X))])  # and a column of pair counts
        total = np.tile(weights.sum(axis=0), (growth.size, 1))
        rows = X.T.argsort(axis=1, kind="stable").astype(np.min_scalar_type(-len(X)))
        rows, side = np.tile(rows, growth.size), np.empty((growth.size, len(X)), np.uint8)
        levels, grown = [], 0
        for depth in range(max_depth.max() + 1):
            limit = np.where(depth < max_depth, 2 * min_leaf, np.inf)[growth]
            # a node holding one class has all its rows in that class's count
            is_open = (total[:, -2] >= limit) & (total[:, :-2].max(axis=1) < total[:, -2])
            rows = rows[:, is_open.repeat(total[:, -1].astype(np.intp))]
            feature, left, right, threshold = *np.full((3, growth.size), -1), np.zeros(growth.size)
            levels.append((growth, np.full(growth.size, depth), path, feature, threshold,
                           left, right, total))
            node = is_open.nonzero()[0]
            if node.size == 0:
                break
            seglen = total[node, -1].astype(np.intp)
            start = np.concatenate([[0], seglen.cumsum()])
            feat, pos = _best_splits(X, weights, rows, start, total[node, :-1],
                                     entropy[growth[node]], min_leaf[growth[node]])
            has = feat >= 0
            split, j, k = node[has], feat[has], pos[has]
            feature[split] = j
            threshold[split] = [float((a + b) / 2.0) for a, b in zip(X[rows[j, k], j],
                                                                     X[rows[j, k + 1], j])]
            grown += growth.size
            left[split], right[split] = grown + np.arange(2 * split.size).reshape(2, -1)
            # left children, then right ones (a NaN or inf threshold can leave one empty)
            at = np.arange(node.size).repeat(seglen)  # node of each position
            go = X[rows[0], feat[at]] <= threshold[node][at]  # any column where unsplit
            went = np.add.reduceat(weights[rows[0]] * go[:, None], start[:-1])[has]
            at_growth = growth[node][at]
            side[at_growth, rows[0]] = np.where(has[at], ~go, 2)  # 2: unsplit
            code = side[at_growth, rows]
            rows = np.concatenate([rows[code == c].reshape(len(rows), -1) for c in (0, 1)], axis=1)
            growth, path = np.tile(growth[split], 2), (2 * path[split] + [[0], [1]]).ravel()
            total = np.concatenate([went, total[split] - went])
        growth, depth, path, *rest = (np.concatenate(part) for part in zip(*levels))
        # preorder: by growth, then by path, each node before its subtrees
        return (keys, np.lexsort((depth, path << (depth.max() - depth), growth)),
                growth, depth, *rest)


def _impurity(counts: np.ndarray, total: np.ndarray, entropy: np.ndarray) -> np.ndarray:
    """Impurity of count rows with sums ``total``: entropy where ``entropy`` holds, else Gini."""
    p = counts / total
    if not entropy.any():
        return 1.0 - np.square(p).sum(axis=-1)
    val = -(p * np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)).sum(axis=-1)
    val[~entropy] = 1.0 - np.square(p[~entropy]).sum(axis=-1)
    return val


def _best_splits(X, weights, rows, start, total, entropy, min_leaf) -> tuple:
    """``(feature, position)`` of each node's best split (feature -1: none); node
    i holds ``rows[:, start[i]:start[i + 1]]``, ``total[i]``, ``entropy[i]`` and
    ``min_leaf[i]``. A pass takes about ``SPLIT_CELLS`` (feature, pair) cells."""
    d, n_nodes, cells = len(rows), start.size - 1, DecisionTreeClassifier.SPLIT_CELLS
    seglen, n = start[1:] - start[:-1], total[:, -1]
    parent = _impurity(total[:, :-1], total[:, -1:], entropy)
    top, first = np.empty((d, n_nodes)), np.empty((d, n_nodes), np.intp)
    chunk = (start[1:-1] // cells != start[:-2] // cells).nonzero()[0] + 1
    for s0, s1 in zip([0, *chunk.tolist()], [*chunk.tolist(), n_nodes]):
        r0, width = start[s0], start[s1] - start[s0]
        lens, local = seglen[s0:s1], start[s0:s1] - r0
        at = np.arange(s0, s1).repeat(lens)  # node of each position
        step = max(1, cells // width)
        for f0 in range(0, d, step):
            block = rows[f0:f0 + step, r0:r0 + width]
            sv = X[block, np.arange(f0, f0 + len(block))[:, None]]
            cum = weights[block, :-1]
            cum[:, local[1:]] -= total[s0:s1 - 1]  # so each segment sums from 0
            np.cumsum(cum, axis=1, out=cum)
            # after a segment's last position no pair is left on the right
            ok = (cum[:, :, -1] >= min_leaf[at]) & (cum[:, :, -1] <= n[at] - min_leaf[at])
            ok[:, :-1] &= sv[:, :-1] != sv[:, 1:]
            cell = ok.ravel().nonzero()[0]
            node, left = at[cell % width], cum.reshape(-1, cum.shape[2])[cell]
            right, crit = total[node] - left, entropy[node]
            gains = np.full(ok.shape, -np.inf)
            gains.flat[cell] = parent[node] - (
                left[:, -1] * _impurity(left[:, :-1], left[:, -1:], crit)
                + right[:, -1] * _impurity(right[:, :-1], right[:, -1:], crit)) / n[node]
            best = np.maximum.reduceat(gains, local, axis=1)
            pos = np.where(gains == best.repeat(lens, axis=1), np.arange(width), width)
            top[f0:f0 + len(block), s0:s1] = best
            first[f0:f0 + len(block), s0:s1] = np.minimum.reduceat(pos, local, axis=1) + r0
    # the fixed tie-break (in feature order, a gain above 1e-12 and the best so far + 1e-12)
    # takes the first best feature unless another comes within 1e-12 of it
    best, feature = top.max(axis=0), top.argmax(axis=0)
    feature[best <= 1e-12] = -1
    for i in ((top + 1e-12 >= best).sum(axis=0) > 1).nonzero()[0].tolist():
        feature[i], bar = -1, 1e-12
        for f, gain in enumerate(top[:, i].tolist()):
            if gain > bar:
                feature[i], bar = f, gain + 1e-12
    return feature, first[feature, np.arange(n_nodes)]


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
    """The kernels of ``_kernels.c`` could not be compiled or loaded."""


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
        (n, d), n_classes = X.shape, self.n_classes
        if y.shape != (n,):
            raise ValueError(f"logistic labels have shape {y.shape}, not ({n},)")
        if n and not 0 <= y.min() <= y.max() < n_classes:
            raise ValueError("logistic labels must index the classes")
        W, b = np.zeros((d, n_classes)), np.zeros(n_classes)
        m = min(self.MINIBATCH, n)
        rows, scratch = np.empty(n, dtype=np.int64), np.empty(m * (d + n_classes))
        fit, bits = _kernels().sgd_fit, rng.bit_generator
        draw = bits.ctypes
        with bits.lock:
            fit(X.ctypes.data, y.ctypes.data, n, d, n_classes, m, self.epochs,
                self.learning_rate, self.l2, draw.state_address, draw.next_uint32,
                draw.next_uint64, W.ctypes.data, b.ctypes.data, rows.ctypes.data,
                scratch.ctypes.data)
        self.W_, self.b_ = W, b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        logits = np.asarray(X, dtype=np.float64) @ self.W_ + self.b_
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_kernel = None


def _kernels():
    """The library of ``_kernels.c``, compiled with ``cc`` at its first use.

    The library is cached in ``$XDG_CACHE_HOME/driftml`` (``~/.cache/driftml``
    when unset) under the sha256 of the source, the flags and the ``cc``
    found on ``PATH``, named by its resolved path, size and mtime, so
    loading a cached library starts no process. The modules for this are
    imported here, not with the package."""
    global _kernel
    if _kernel is None:
        import ctypes
        import hashlib
        import shutil

        source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                             "driftml")
        cc = shutil.which("cc")
        try:
            if cc is None:
                raise FileNotFoundError("no cc on PATH")
            compiler = os.path.realpath(cc)
            found = os.stat(compiler)
            with open(source, "rb") as fh:
                key = hashlib.sha256(fh.read() + repr(
                    (_KERNEL_FLAGS, compiler, found.st_size, found.st_mtime_ns)).encode())
            library = os.path.join(cache, f"_kernels-{key.hexdigest()[:24]}.so")
            if not os.path.exists(library):
                _build(cc, source, library)
            lib = ctypes.CDLL(library)
        except OSError as exc:
            raise KernelBuildError(f"cannot build {source} with cc: {exc}") from exc
        lib.sgd_fit.restype = lib.knn_votes.restype = None
        lib.sgd_fit.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64] * 5
                                + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 7)
        lib.knn_votes.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_int64] * 3
                                  + [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
                                  + [ctypes.c_void_p] * 2)
        _kernel = lib
    return _kernel


def _build(cc: str, source: str, library: str) -> None:
    """Compile ``source`` with ``cc`` into a name of its own beside
    ``library``, then rename it into place, so processes that build at once
    each load a whole library."""
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(library), exist_ok=True)
    fd, built = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(library))
    os.close(fd)
    try:
        done = subprocess.run([cc, *_KERNEL_FLAGS, "-o", built, source, "-lm"],
                              capture_output=True)
        if done.returncode:
            raise KernelBuildError(f"cannot build {source} with cc: "
                                   f"{done.stderr.decode(errors='replace')}".strip())
        os.replace(built, library)
    finally:
        if os.path.exists(built):
            os.unlink(built)


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
    ref_sq = np.ascontiguousarray(first.ref_sq_, dtype=np.float64)
    ref_y = np.ascontiguousarray(first.ref_y_, dtype=np.int64)
    if ref_y.size and not 0 <= ref_y.min() <= ref_y.max() < n_classes:
        raise ValueError("k-NN reference labels must index the classes")
    k = np.array([min(model.k, ref_X.shape[0]) for model in models], dtype=np.int64)
    outs = [np.empty((X.shape[0], n_classes)) for _ in models]
    out_at = np.array([out.ctypes.data for out in outs], dtype=np.uintp)
    near, labels = np.empty(k.max()), np.empty(k.max() + n_classes, dtype=np.int64)
    votes = _kernels().knn_votes
    for start in range(0, X.shape[0], first.CHUNK):
        xb = X[start : start + first.CHUNK]
        prod = (2.0 * xb) @ ref_X.T
        sq = np.square(xb).sum(axis=1)
        votes(prod.ctypes.data, sq.ctypes.data, ref_sq.ctypes.data, ref_y.ctypes.data,
              xb.shape[0], ref_X.shape[0], n_classes, k.ctypes.data, out_at.ctypes.data,
              len(models), start, near.ctypes.data, labels.ctypes.data)
    return outs
