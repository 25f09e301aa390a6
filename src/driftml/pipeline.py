"""Full-model unit: preprocessing + feature selection + classifier.

A ``PipelineConfig`` describes every stage; ``fit`` turns it into an
immutable ``TrainedPipeline``. Stage order is fixed: impute, one-hot encode,
standardize, select, classify. Imputation happens before encoding; selection
operates on the encoded matrix.

``fit`` takes two steps, which a search also takes for many configs at once.
``fit_stages`` fits the preprocessing, which depends only on the config's
``prefix`` (imputation, one-hot, standardize, selector); it is the one place
that order and the optional stages are written, and it returns the stages as
a read-only tuple in application order together with the transformed
training matrix. It fits and applies them on the training batch's
distinct rows (``Batch.distinct_rows``, found once per batch), weighted by
their counts, where a fit only counts values (modes, one-hot levels,
mutual-information edges and tables); a fit that sums floats (mean
imputation, the standardizer, the variance selector) reads every row,
since a weighted sum would round differently. The matrix is the
transformed table gathered back to every row. ``fit_classifiers`` fits
each config's classifier on its matrix; each classifier config maps to its
classifier in one table (``_CLASSIFIERS``), built from the config's fields,
and trees that share a matrix grow together through one ``TreeGrower``,
one compiled call per depth for all of them, from pairs found on the
batch's distinct rows. Pipelines of one prefix may share one stage tuple:
fitted stages are never mutated, and their arrays are read-only. Every
config checks its ranges when it is built, and every pipeline predicts
through ``predict_pipelines``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence, Union

import numpy as np

from .classifiers import (
    ConstantClassifier,
    DecisionTreeClassifier,
    KnnClassifier,
    LogisticSgdClassifier,
    NaiveBayesClassifier,
    TreeGrower,
    knn_predict_proba,
)
from .data import Batch

MAX_ONE_HOT_LEVELS = 64


class PipelineError(Exception):
    """Invalid configuration, unusable training data or schema mismatch."""


# ---------------------------------------------------------------------------
# configuration types

@dataclass(frozen=True)
class DecisionTreeConfig:
    max_depth: int = 8
    min_leaf: int = 2
    split_criterion: str = "gini"

    def __post_init__(self):
        if not 1 <= self.max_depth <= 32:
            raise PipelineError(f"max_depth {self.max_depth} outside 1..32")
        if self.min_leaf < 1:
            raise PipelineError("min_leaf must be >= 1")
        if self.split_criterion not in ("gini", "entropy"):
            raise PipelineError(f"unknown split criterion {self.split_criterion!r}")


@dataclass(frozen=True)
class NaiveBayesConfig:
    laplace_alpha: float = 1.0

    def __post_init__(self):
        if not self.laplace_alpha > 0:
            raise PipelineError("laplace_alpha must be > 0")


@dataclass(frozen=True)
class LogisticSgdConfig:
    learning_rate: float = 0.1
    l2: float = 1e-4
    epochs: int = 20

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise PipelineError("learning_rate must be > 0")
        if self.l2 < 0:
            raise PipelineError("l2 must be >= 0")
        if self.epochs < 1:
            raise PipelineError("epochs must be >= 1")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    max_reference_points: int = 2048

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise PipelineError("k must be odd and >= 1")
        if self.max_reference_points < 1:
            raise PipelineError("max_reference_points must be >= 1")


ClassifierConfig = Union[DecisionTreeConfig, NaiveBayesConfig, LogisticSgdConfig, KnnConfig]


@dataclass(frozen=True)
class VarianceThresholdConfig:
    tau: float = 0.0

    def __post_init__(self):
        if self.tau < 0:
            raise PipelineError("variance threshold must be >= 0")


@dataclass(frozen=True)
class TopKMutualInfoConfig:
    k: int = 8

    def __post_init__(self):
        if self.k < 1:
            raise PipelineError("selector k must be >= 1")


SelectorConfig = Union[None, VarianceThresholdConfig, TopKMutualInfoConfig]


@dataclass(frozen=True)
class PipelineConfig:
    standardize: bool = False
    imputation: str = "mean"  # mean | mode, applied to numeric columns
    one_hot: bool = False
    selector: SelectorConfig = None
    classifier: ClassifierConfig = DecisionTreeConfig()

    def __post_init__(self):
        if self.imputation not in ("mean", "mode"):
            raise PipelineError(f"unknown imputation strategy {self.imputation!r}")


# ---------------------------------------------------------------------------
# fitted stages

def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: fitted stages are shared between pipelines."""
    a.setflags(write=False)
    return a


class _Table:
    """The fit batch's distinct rows as the stages fitted so far leave them.

    Row ``i`` of the batch is row ``gather[i]`` of ``X``, and ``by_label``
    holds each distinct row's number of rows per class (``weight`` in all).
    A fit that only counts values reads ``X`` with those weights. A fit
    that sums floats (a mean, a variance) reads ``rows()``, every row of
    the batch, because numpy sums a column pairwise in row order and a
    weighted sum would round differently. A batch whose rows are all
    distinct is its own table, with ``gather`` the identity.
    """

    def __init__(self, batch: Batch):
        first, self.gather = batch.distinct_rows()
        n_classes = batch.schema.n_classes
        self.X = batch.X if first.size == len(batch) else batch.X[first]
        self.by_label = np.bincount(self.gather * n_classes + batch.y,
                                    minlength=first.size * n_classes).reshape(-1, n_classes)
        self.weight = self.by_label.sum(axis=1)
        self._rows = batch.X

    def rows(self) -> np.ndarray:
        """The batch's matrix after the stages: ``X`` gathered by ``gather``, once."""
        if self._rows is None:
            self._rows = self.X if self.X.shape[0] == self.gather.size else self.X[self.gather]
        return self._rows

    def apply(self, stage) -> None:
        self.X, self._rows = stage.transform(self.X), None


def _mode(table: _Table, j: int, take: np.ndarray) -> float:
    """The most frequent value of column ``j`` among the rows that ``take``
    marks in ``table.X``, the lowest at a tie. It is counted on the table,
    except where the values hold 0.0 and -0.0: ``np.unique`` merges the two
    and reports the sign its sort lands on, so those are counted on the
    rows, as ``np.unique`` sorts them there."""
    values = table.X[take, j]
    zero = np.signbit(values[values == 0.0])
    if zero.any() and not zero.all():
        uniq, count = np.unique(table.rows()[take[table.gather], j], return_counts=True)
    else:
        uniq, at = np.unique(values, return_inverse=True)
        count = np.bincount(at, weights=table.weight[take], minlength=uniq.size)
    return float(uniq[np.argmax(count)])


class _Imputer:
    def fit(self, table: _Table, categorical: np.ndarray, strategy: str):
        fill = np.zeros(table.X.shape[1])
        for j in range(fill.size):
            if categorical[j] or strategy == "mode":
                col = table.X[:, j]
                take = ~np.isnan(col) & (col >= 0) if categorical[j] else ~np.isnan(col)
                fill[j] = _mode(table, j, take) if take.any() else 0.0
            else:
                obs = table.rows()[:, j]
                obs = obs[~np.isnan(obs)]
                fill[j] = obs.mean() if obs.size else 0.0
        self.fill_ = _read_only(fill)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = X.copy()
        nan = np.isnan(X)
        if nan.any():
            X[nan] = np.broadcast_to(self.fill_, X.shape)[nan]
        return X


class _OneHotEncoder:
    """Expand categorical level indices into indicator blocks.

    Each categorical feature gets one column per retained level (the 64 most
    frequent in training, ties toward the lower index) plus an ``other``
    column that absorbs rarer and unseen levels.
    """

    def fit(self, table: _Table, categorical: np.ndarray):
        level_columns = []
        for j in range(table.X.shape[1]):
            if not categorical[j]:
                level_columns.append(None)
                continue
            col = table.X[:, j].astype(np.int64)
            take = col >= 0
            levels, at = np.unique(col[take], return_inverse=True)
            counts = np.bincount(at, weights=table.weight[take], minlength=levels.size)
            order = np.lexsort((levels, -counts))
            level_columns.append(_read_only(np.sort(levels[order][:MAX_ONE_HOT_LEVELS])))
        self.level_columns_ = tuple(level_columns)
        self.width_ = int(
            sum(1 if lc is None else lc.size + 1 for lc in self.level_columns_)
        )
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], self.width_))
        pos = 0
        for j, keep in enumerate(self.level_columns_):
            if keep is None:
                out[:, pos] = X[:, j]
                pos += 1
                continue
            col = X[:, j]
            block = out[:, pos : pos + keep.size + 1]
            hit = col[:, None] == keep[None, :]
            block[:, :-1] = hit
            block[:, -1] = ~hit.any(axis=1)
            pos += keep.size + 1
        return out


class _Standardizer:
    def fit(self, table: _Table):
        X = table.rows()
        self.mean_ = _read_only(X.mean(axis=0))
        std = X.std(axis=0)
        self.std_ = _read_only(np.where(std > 1e-12, std, 1.0))
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean_) / self.std_


_QUANTILES = np.linspace(0, 1, 17)[1:-1]


def _quantile_edges(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``np.unique(np.quantile(rows, _QUANTILES))`` of the rows that hold
    each of ``values`` (free of NaN) ``count`` times, equal in value (a
    zero's sign may differ, as numpy's partition places it). numpy's linear
    method reads the order statistics at the floor of each virtual index
    ``(n - 1) q`` and the one after (both the last at or past ``n - 1``)
    and blends them as ``numpy.lib._function_base_impl._lerp`` does."""
    n = int(count.sum())
    order = np.argsort(values, kind="stable")
    ends = np.cumsum(count[order])
    virtual = (n - 1) * _QUANTILES
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1

    def at(position):
        return values[order[np.searchsorted(ends, position % n, side="right")]]

    a, b, t = at(below), at(above), virtual - below
    diff = b - a
    edges = a + diff * t
    np.subtract(b, diff * (1 - t), out=edges, where=t >= 0.5)
    return np.unique(edges)


def _mutual_information(col: np.ndarray, by_label: np.ndarray, edges: np.ndarray) -> float:
    """Discrete MI between a column binned at ``edges`` and the label:
    ``col[i]`` stands for ``by_label[i, c]`` rows of class ``c``."""
    binned, n_classes = np.digitize(col, edges), by_label.shape[1]
    cell = binned[:, None] * n_classes + np.arange(n_classes)
    table = np.bincount(cell.ravel(), weights=by_label.ravel(),
                        minlength=(binned.max() + 1) * n_classes).reshape(-1, n_classes)
    n = table.sum()
    pxy = table / n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = pxy * np.log(pxy / (px * py))
    return float(np.nansum(term))


class _Selector:
    def fit(self, table: _Table, cfg: SelectorConfig):
        d = table.X.shape[1]
        if isinstance(cfg, VarianceThresholdConfig):
            keep = np.nonzero(table.rows().var(axis=0) > cfg.tau)[0]
            if keep.size == 0:
                keep = np.arange(d)  # never emit an empty matrix
        else:
            k = min(cfg.k, d)
            mi = np.empty(d)
            for j in range(d):
                col = table.X[:, j]
                if np.isnan(col).any():  # numpy's quantiles are then the NaN it sorts last
                    edges = np.unique(np.quantile(table.rows()[:, j], _QUANTILES))
                else:
                    edges = _quantile_edges(col, table.weight)
                mi[j] = _mutual_information(col, table.by_label, edges)
            order = np.lexsort((np.arange(d), -mi))
            keep = np.sort(order[:k])
        self.keep_ = _read_only(keep)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return X[:, self.keep_]


# ---------------------------------------------------------------------------
# trained pipeline

_CLASSIFIERS = {
    DecisionTreeConfig: DecisionTreeClassifier,
    NaiveBayesConfig: NaiveBayesClassifier,
    LogisticSgdConfig: LogisticSgdClassifier,
    KnnConfig: KnnClassifier,
}


class TrainedPipeline:
    """Frozen result of ``fit``: the fitted preprocessing stages in the
    order they apply, then the classifier; never mutated."""

    def __init__(self, config, schema, stages, classifier):
        self.config = config
        self.schema = schema
        self.stages = stages
        self.classifier = classifier

    def predict_proba(self, batch: Batch) -> np.ndarray:
        return predict_pipelines([self], batch)[0]


def _apply_stages(stages: tuple, X: np.ndarray) -> np.ndarray:
    for stage in stages:
        X = stage.transform(X)
    return X


def predict_pipelines(pipelines: Sequence[TrainedPipeline], batch: Batch) -> list[np.ndarray]:
    """Each pipeline's classifier's ``predict_proba`` on ``batch`` after its
    stages, byte for byte; ``TrainedPipeline.predict_proba`` passes one.

    Each distinct stage tuple is applied once, and each classifier on it
    predicts as it would alone, except that when more than one pipeline is
    k-NN, those whose matrix, ``n_classes``, ``ref_X_`` and ``ref_y_`` are
    byte-identical predict together (``knn_predict_proba``): one distance
    pass serves them all. Pipelines of different stage tuples can meet
    there, since stages that differ may still give the same matrix. With
    one k-NN pipeline or none, no byte key is built.
    """
    by_stages = {}  # stage tuple -> indices of the pipelines that apply it
    for i, model in enumerate(pipelines):
        if not batch.schema.compatible_with(model.schema):
            raise PipelineError("batch schema incompatible with the fitted schema")
        by_stages.setdefault(model.stages, []).append(i)
    share_knn = sum(isinstance(model.classifier, KnnClassifier) for model in pipelines) > 1
    out = [None] * len(pipelines)
    knn_groups = {}  # byte key -> (matrix, indices)
    for stages, indices in by_stages.items():
        X = _apply_stages(stages, batch.X)
        matrix = None
        for i in indices:
            classifier = pipelines[i].classifier
            if not (share_knn and isinstance(classifier, KnnClassifier)):
                out[i] = classifier.predict_proba(X)
                continue
            if matrix is None:
                matrix = (X.shape, X.tobytes())
            key = (matrix, classifier.n_classes, classifier.ref_X_.shape,
                   classifier.ref_X_.tobytes(), classifier.ref_y_.tobytes())
            knn_groups.setdefault(key, (X, []))[1].append(i)
    knn_groups = list(knn_groups.values())  # frees the byte keys before the distance passes
    for X, indices in knn_groups:
        probas = knn_predict_proba([pipelines[i].classifier for i in indices], X)
        for i, proba in zip(indices, probas):
            out[i] = proba
    return out


def prefix(config: PipelineConfig) -> tuple:
    """The fields that decide ``config``'s preprocessing: configs with one
    prefix fit the same stages on the same data."""
    return (config.imputation, config.one_hot, config.standardize, config.selector)


def fit_stages(config: PipelineConfig, train: Batch) -> tuple[tuple, np.ndarray]:
    """Fit the preprocessing of ``config`` on ``train``: the
    fitted stages in the order they apply, and ``train``'s matrix after
    them. Both are read-only, so every pipeline of the prefix can share
    them."""
    if len(train) == 0:
        raise PipelineError("cannot fit on an empty batch")
    if not train.fully_labeled:
        raise PipelineError("training batch must be fully labeled")

    categorical = np.array([f.is_categorical for f in train.schema.features])
    table, stages = _Table(train), []

    def add(stage):
        stages.append(stage)
        table.apply(stage)

    add(_Imputer().fit(table, categorical, config.imputation))
    if config.one_hot and categorical.any():
        add(_OneHotEncoder().fit(table, categorical))
    if config.standardize:
        add(_Standardizer().fit(table))
    if config.selector is not None:
        add(_Selector().fit(table, config.selector))
    return tuple(stages), _read_only(table.rows())


def fit_classifiers(configs: Sequence[PipelineConfig], matrices: Sequence[np.ndarray],
                    train: Batch, seeds: Sequence[int]) -> list:
    """The classifier of each config, fitted on its matrix (``train``'s rows
    after the config's stages) with a generator seeded by its seed. Trees
    that share a matrix grow together: the first of them to fit grows all,
    from pairs read at ``train``'s distinct rows, which the row-wise stages
    keep equal in the matrix."""
    n_classes, y = train.schema.n_classes, train.y
    present = np.unique(y)
    if present.size == 1:
        return [ConstantClassifier(n_classes, int(present[0])) for _ in configs]
    classifiers = [_CLASSIFIERS[type(c.classifier)](n_classes, **asdict(c.classifier))
                   for c in configs]
    growers = {}  # id of a matrix that trees fit on -> the grower of its trees
    for classifier, X in zip(classifiers, matrices):
        if isinstance(classifier, DecisionTreeClassifier):
            growers.setdefault(id(X), TreeGrower(X, y, n_classes, [], train.distinct_rows())
                               ).trees.append(classifier)
    for classifier, X, seed in zip(classifiers, matrices, seeds):
        grower = (growers[id(X)],) if isinstance(classifier, DecisionTreeClassifier) else ()
        classifier.fit(X, y, np.random.default_rng(seed), *grower)
    return classifiers


def fit(config: PipelineConfig, train: Batch, seed: int = 0) -> TrainedPipeline:
    """Train a full pipeline; deterministic under (config, data, seed)."""
    stages, X = fit_stages(config, train)
    (classifier,) = fit_classifiers([config], [X], train, [seed])
    return TrainedPipeline(config, train.schema, stages, classifier)


def default_config_portfolio() -> list[PipelineConfig]:
    """Fixed starter configurations covering every classifier family.

    The list is version-controlled: tests pin its determinism, and search
    evaluates it before drawing random candidates.
    """
    return [
        PipelineConfig(classifier=DecisionTreeConfig(max_depth=4, min_leaf=2)),
        PipelineConfig(classifier=DecisionTreeConfig(max_depth=8, min_leaf=2)),
        PipelineConfig(
            classifier=DecisionTreeConfig(max_depth=16, min_leaf=4, split_criterion="entropy")
        ),
        PipelineConfig(one_hot=True, classifier=DecisionTreeConfig(max_depth=8, min_leaf=2)),
        PipelineConfig(one_hot=True, classifier=NaiveBayesConfig(laplace_alpha=1.0)),
        PipelineConfig(one_hot=True, classifier=NaiveBayesConfig(laplace_alpha=0.1)),
        PipelineConfig(
            standardize=True, one_hot=True,
            classifier=LogisticSgdConfig(learning_rate=0.1, l2=1e-4, epochs=30),
        ),
        PipelineConfig(
            standardize=True, one_hot=True,
            classifier=LogisticSgdConfig(learning_rate=0.03, l2=1e-3, epochs=30),
        ),
        PipelineConfig(
            standardize=True,
            classifier=LogisticSgdConfig(learning_rate=0.1, l2=0.0, epochs=40),
        ),
        PipelineConfig(standardize=True, one_hot=True, classifier=KnnConfig(k=5)),
        PipelineConfig(standardize=True, classifier=KnnConfig(k=11)),
        PipelineConfig(
            standardize=True, one_hot=True,
            selector=TopKMutualInfoConfig(k=16),
            classifier=LogisticSgdConfig(learning_rate=0.1, l2=1e-4, epochs=30),
        ),
    ]
