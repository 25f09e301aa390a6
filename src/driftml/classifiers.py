"""Base classifiers: decision tree, naive Bayes, logistic SGD and k-NN.

All classifiers operate on a dense numeric matrix (the pipeline has already
imputed, encoded and scaled) and produce probability rows over the full
schema class set: rows are non-negative and sum to 1, classes absent from
the training data may receive probability zero. Everything is deterministic
given (data, hyperparameters, seed).

Trees, logistic SGD and k-NN run their inner loops in ``_kernels.c``,
compiled with ``cc`` at its first use (a tree or logistic fit, a k-NN
prediction or an ensemble selection, whose rounds it also runs) and cached
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
by level from its distinct (row, label) pairs weighted by count: one call
into ``tree_level`` per depth searches and splits the open nodes of all of
them, and entropy's logs come from one ``np.log2`` call between a listing
call and that one, so they are numpy's, not libm's. k-NN keeps each
row's nearest references in the stable argsort's order as it forms their
distances, and counts the votes of every k among them.

k-NN forms one distance product per ``CHUNK`` = 1,024 query rows, whose
shape pins the bytes (at 256 rows the recorded normalized-AUC report
digests change).
"""

from __future__ import annotations

import ctypes
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
        level, spare, props = _kernels().tree_level, np.empty(len(X), np.int64), np.empty(0)
        # the arrays every depth passes are checked and converted once
        pin = {name: _pin(level, name, a) for name, a in
               (("xt", xt), ("counts", counts), ("rule", rule), ("order", order),
                ("spare", spare), ("props", props))}
        pairs = (pin["xt"], pin["counts"], *xt.shape[::-1], counts.shape[1] - 1, pin["rule"])
        levels, grown, entropy = [], 0, rule[:, 2].any()
        for depth in range(rule[:, 0].max() + 1):
            threshold, grown = np.empty(len(node)), grown + len(node)
            child = np.empty((2 * len(node), 6), np.int64)
            child_total = np.empty((2 * len(node), total.shape[1]))
            args = (*pairs, depth, len(node), node, total, threshold, pin["order"])
            rest = (grown, child, child_total, pin["spare"])
            if entropy:  # list the proportions whose logs entropy takes
                need = level(*args, pin["props"], len(props), 1, *rest)
                if need > len(props):
                    props = np.empty(need)
                    pin["props"] = _pin(level, "props", props)
                    level(*args, pin["props"], need, 1, *rest)
                np.log2(props[:need], out=props[:need])
            splits = level(*args, pin["props"], len(props), 0, *rest)
            levels.append((node, np.full(len(node), depth), threshold, total))
            if not splits:
                break
            node, total = child[:2 * splits], child_total[:2 * splits]
        node, depth, threshold, total = (np.concatenate(part) for part in zip(*levels))
        growth, path, feature, left = node[:, 0], node[:, 1], node[:, 4], node[:, 5]
        # preorder: by growth, then by path, each node before its subtrees
        return (keys, np.lexsort((depth, path << (depth.max() - depth), growth)),
                growth, depth, feature, threshold, left, total)


class _Address(ctypes.c_void_p):
    """An array's address that ``_pin`` checked for a ``tree_level`` argument."""


# tree_level's array arguments that stay the same across a growth's depths
_PINNED = {"xt": 0, "counts": 1, "rule": 5, "order": 11, "props": 12, "spare": 18}


def _pin(level, name: str, a: np.ndarray) -> _Address:
    """``a`` checked as ``level``'s typed argument ``name`` checks it at a
    call (``TypeError`` if it fails), then its address, which that argument
    passes as it is. The caller keeps ``a`` alive."""
    level.argtypes[_PINNED[name]].from_param(a)
    return _Address(a.ctypes.data)


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
        lib.select_rounds.restype = lib.tree_level.restype = ctypes.c_int64
        lib.select_rounds.argtypes = ([ctypes.c_void_p] * 3 + [ctypes.c_int64] * 5
                                      + [ctypes.c_void_p] * 4)

        def array(dtype, ndim):
            """A typed array argument: an ndarray is checked (dtype, ndim,
            C-contiguous) and converted at every call, an ``_Address`` passes."""
            typed = np.ctypeslib.ndpointer(dtype, ndim, flags="C_CONTIGUOUS")
            return type(typed.__name__, (typed,), {"from_param": classmethod(
                lambda cls, a: a if isinstance(a, _Address) else typed.from_param(a))})

        f8, i8, count = np.float64, np.int64, ctypes.c_int64
        lib.tree_level.argtypes = [
            array(f8, 2), array(f8, 2), count, count, count, array(i8, 2),
            count, count, array(i8, 2), array(f8, 2), array(f8, 1), array(i8, 3), array(f8, 1),
            count, count, count, array(i8, 2), array(f8, 2), array(i8, 1)]
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
