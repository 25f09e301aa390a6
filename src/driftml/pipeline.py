"""Full-model unit: preprocessing + feature selection + classifier.

A ``PipelineConfig`` describes every stage; ``fit`` turns it into an
immutable ``TrainedPipeline``. Stage order is fixed: impute, one-hot encode,
standardize, select, classify. Imputation happens before encoding; selection
operates on the encoded matrix.

Configs have a one-line text form (see ``config_to_text``) so experiment
files can pin exact portfolios::

    preprocessor=standardize imputation=mean one_hot=true \
        selector=top_k_mutual_info(k=8) \
        classifier=decision_tree(max_depth=8,min_leaf=2,split_criterion=gini)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .classifiers import (
    ConstantClassifier,
    DecisionTreeClassifier,
    KnnClassifier,
    LogisticSgdClassifier,
    NaiveBayesClassifier,
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

    kind = "decision_tree"

    def validate(self):
        if not 1 <= self.max_depth <= 32:
            raise PipelineError(f"max_depth {self.max_depth} outside 1..32")
        if self.min_leaf < 1:
            raise PipelineError("min_leaf must be >= 1")
        if self.split_criterion not in ("gini", "entropy"):
            raise PipelineError(f"unknown split criterion {self.split_criterion!r}")


@dataclass(frozen=True)
class NaiveBayesConfig:
    laplace_alpha: float = 1.0

    kind = "naive_bayes"

    def validate(self):
        if not self.laplace_alpha > 0:
            raise PipelineError("laplace_alpha must be > 0")


@dataclass(frozen=True)
class LogisticSgdConfig:
    learning_rate: float = 0.1
    l2: float = 1e-4
    epochs: int = 20

    kind = "logistic_sgd"

    def validate(self):
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

    kind = "knn"

    def validate(self):
        if self.k < 1 or self.k % 2 == 0:
            raise PipelineError("k must be odd and >= 1")
        if self.max_reference_points < 1:
            raise PipelineError("max_reference_points must be >= 1")


ClassifierConfig = Union[DecisionTreeConfig, NaiveBayesConfig, LogisticSgdConfig, KnnConfig]


@dataclass(frozen=True)
class VarianceThresholdConfig:
    tau: float = 0.0

    kind = "variance_threshold"

    def validate(self):
        if self.tau < 0:
            raise PipelineError("variance threshold must be >= 0")


@dataclass(frozen=True)
class TopKMutualInfoConfig:
    k: int = 8

    kind = "top_k_mutual_info"

    def validate(self):
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

    def validate(self):
        if self.imputation not in ("mean", "mode"):
            raise PipelineError(f"unknown imputation strategy {self.imputation!r}")
        if self.selector is not None:
            self.selector.validate()
        self.classifier.validate()
        return self


# ---------------------------------------------------------------------------
# config text form

_SELECTORS = {c.kind: c for c in (VarianceThresholdConfig, TopKMutualInfoConfig)}
_CLASSIFIERS = {
    c.kind: c for c in (DecisionTreeConfig, NaiveBayesConfig, LogisticSgdConfig, KnnConfig)
}
_CONVERT = {"int": int, "float": float, "str": str}  # annotations are strings here


def _call_to_text(stage) -> str:
    """``kind(field=value,...)`` in field order."""
    params = ",".join(f"{f.name}={getattr(stage, f.name)}" for f in fields(stage))
    return f"{stage.kind}({params})"


def config_to_text(cfg: PipelineConfig) -> str:
    pre = "standardize" if cfg.standardize else "none"
    sel = "none" if cfg.selector is None else _call_to_text(cfg.selector)
    return (
        f"preprocessor={pre} imputation={cfg.imputation} "
        f"one_hot={'true' if cfg.one_hot else 'false'} selector={sel} "
        f"classifier={_call_to_text(cfg.classifier)}"
    )


_CALL_RE = re.compile(r"^(\w+)\((.*)\)$")


def _call_from_text(text: str, stage: str, kinds: dict):
    """Parse ``kind(field=value,...)``: every field of the kind exactly once."""
    m = _CALL_RE.match(text)
    if not m:
        raise PipelineError(f"bad {stage} {text!r}")
    name, args = m.groups()
    if name not in kinds:
        raise PipelineError(f"unknown {stage} {name!r}")
    params = {}
    for part in args.split(",") if args.strip() else []:
        key, _, value = (s.strip() for s in part.partition("="))
        if key in params:
            raise PipelineError(f"{stage} {name!r} repeats parameter {key!r}")
        params[key] = value
    converters = {f.name: _CONVERT[f.type] for f in fields(kinds[name])}
    unknown = set(params) - set(converters)
    if unknown:
        raise PipelineError(f"{stage} {name!r} has unknown parameters {sorted(unknown)}")
    try:
        return kinds[name](**{key: convert(params[key]) for key, convert in converters.items()})
    except KeyError as exc:
        raise PipelineError(f"{stage} {name!r} missing parameter {exc}") from exc
    except ValueError as exc:
        raise PipelineError(f"{stage} {name!r}: {exc}") from exc


def config_from_text(text: str) -> PipelineConfig:
    """Inverse of ``config_to_text``; raises PipelineError on bad input."""
    tokens = {}
    for token in text.split():
        key, sep, val = token.partition("=")
        if not sep:
            raise PipelineError(f"bad config token {token!r}")
        if key in tokens:
            raise PipelineError(f"config text repeats key {key!r}")
        tokens[key] = val
    keys = {"preprocessor", "imputation", "one_hot", "selector", "classifier"}
    unknown, missing = set(tokens) - keys, keys - set(tokens)
    if unknown:
        raise PipelineError(f"config text has unknown keys: {sorted(unknown)}")
    if missing:
        raise PipelineError(f"config text missing keys: {sorted(missing)}")

    selector = None
    if tokens["selector"] != "none":
        selector = _call_from_text(tokens["selector"], "selector", _SELECTORS)
    classifier = _call_from_text(tokens["classifier"], "classifier", _CLASSIFIERS)
    if tokens["preprocessor"] not in ("standardize", "none"):
        raise PipelineError(f"unknown preprocessor {tokens['preprocessor']!r}")
    if tokens["one_hot"] not in ("true", "false"):
        raise PipelineError("one_hot must be true or false")
    return PipelineConfig(
        standardize=tokens["preprocessor"] == "standardize",
        imputation=tokens["imputation"],
        one_hot=tokens["one_hot"] == "true",
        selector=selector,
        classifier=classifier,
    ).validate()


# ---------------------------------------------------------------------------
# fitted stages

class _Imputer:
    def fit(self, X: np.ndarray, categorical: np.ndarray, strategy: str):
        fill = np.zeros(X.shape[1])
        for j in range(X.shape[1]):
            col = X[:, j]
            if categorical[j]:
                obs = col[(~np.isnan(col)) & (col >= 0)]
                fill[j] = _mode(obs) if obs.size else 0.0
            else:
                obs = col[~np.isnan(col)]
                if obs.size == 0:
                    fill[j] = 0.0
                elif strategy == "mean":
                    fill[j] = obs.mean()
                else:
                    fill[j] = _mode(obs)
        self.fill_ = fill
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = X.copy()
        nan = np.isnan(X)
        if nan.any():
            X[nan] = np.broadcast_to(self.fill_, X.shape)[nan]
        return X


def _mode(values: np.ndarray) -> float:
    uniq, counts = np.unique(values, return_counts=True)
    return float(uniq[np.argmax(counts)])


class _OneHotEncoder:
    """Expand categorical level indices into indicator blocks.

    Each categorical feature gets one column per retained level (the 64 most
    frequent in training, ties toward the lower index) plus an ``other``
    column that absorbs rarer and unseen levels.
    """

    def fit(self, X: np.ndarray, categorical: np.ndarray):
        self.categorical_ = categorical
        self.level_columns_ = []
        for j in range(X.shape[1]):
            if not categorical[j]:
                self.level_columns_.append(None)
                continue
            col = X[:, j].astype(np.int64)
            col = col[col >= 0]
            levels, counts = np.unique(col, return_counts=True)
            order = np.lexsort((levels, -counts))
            keep = np.sort(levels[order][:MAX_ONE_HOT_LEVELS])
            self.level_columns_.append(keep)
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
    def fit(self, X: np.ndarray):
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.std_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean_) / self.std_


def _mutual_information(col: np.ndarray, y: np.ndarray, n_classes: int) -> float:
    """Discrete MI between a (quantile-binned) column and the label."""
    edges = np.unique(np.quantile(col, np.linspace(0, 1, 17)[1:-1]))
    binned = np.digitize(col, edges)
    bins = binned.max() + 1
    table = np.zeros((bins, n_classes))
    np.add.at(table, (binned, y), 1.0)
    n = table.sum()
    pxy = table / n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = pxy * np.log(pxy / (px * py))
    return float(np.nansum(term))


class _Selector:
    def fit(self, X: np.ndarray, y: np.ndarray, cfg: SelectorConfig, n_classes: int):
        d = X.shape[1]
        if cfg is None:
            keep = np.arange(d)
        elif isinstance(cfg, VarianceThresholdConfig):
            keep = np.nonzero(X.var(axis=0) > cfg.tau)[0]
            if keep.size == 0:
                keep = np.arange(d)  # never emit an empty matrix
        else:
            k = min(cfg.k, d)
            mi = np.array([_mutual_information(X[:, j], y, n_classes) for j in range(d)])
            order = np.lexsort((np.arange(d), -mi))
            keep = np.sort(order[:k])
        self.keep_ = keep
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return X[:, self.keep_]


# ---------------------------------------------------------------------------
# trained pipeline

class TrainedPipeline:
    """Frozen result of ``fit``: stages plus classifier; never mutated."""

    def __init__(self, config, schema, imputer, encoder, standardizer, selector, classifier):
        self.config = config
        self.schema = schema
        self._imputer = imputer
        self._encoder = encoder
        self._standardizer = standardizer
        self._selector = selector
        self._classifier = classifier

    def _transform(self, X: np.ndarray) -> np.ndarray:
        X = self._imputer.transform(X)
        if self._encoder is not None:
            X = self._encoder.transform(X)
        if self._standardizer is not None:
            X = self._standardizer.transform(X)
        return self._selector.transform(X)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        if not batch.schema.compatible_with(self.schema):
            raise PipelineError("batch schema incompatible with the fitted schema")
        return self._classifier.predict_proba(self._transform(batch.X))


def fit(config: PipelineConfig, train: Batch, seed: int = 0) -> TrainedPipeline:
    """Train a full pipeline; deterministic under (config, data, seed)."""
    config.validate()
    if len(train) == 0:
        raise PipelineError("cannot fit on an empty batch")
    if not train.fully_labeled:
        raise PipelineError("training batch must be fully labeled")

    schema = train.schema
    categorical = np.array([f.is_categorical for f in schema.features])
    rng = np.random.default_rng(seed)

    imputer = _Imputer().fit(train.X, categorical, config.imputation)
    X = imputer.transform(train.X)

    encoder = None
    if config.one_hot and categorical.any():
        encoder = _OneHotEncoder().fit(X, categorical)
        X = encoder.transform(X)

    standardizer = None
    if config.standardize:
        standardizer = _Standardizer().fit(X)
        X = standardizer.transform(X)

    y = train.y
    selector = _Selector().fit(X, y, config.selector, schema.n_classes)
    X = selector.transform(X)

    present = np.unique(y)
    if present.size == 1:
        classifier = ConstantClassifier(schema.n_classes, int(present[0]))
    else:
        c = config.classifier
        if isinstance(c, DecisionTreeConfig):
            classifier = DecisionTreeClassifier(
                schema.n_classes, c.max_depth, c.min_leaf, c.split_criterion
            )
        elif isinstance(c, NaiveBayesConfig):
            classifier = NaiveBayesClassifier(schema.n_classes, c.laplace_alpha)
        elif isinstance(c, LogisticSgdConfig):
            classifier = LogisticSgdClassifier(
                schema.n_classes, c.learning_rate, c.l2, c.epochs
            )
        else:
            classifier = KnnClassifier(schema.n_classes, c.k, c.max_reference_points)
        classifier.fit(X, y, rng)

    return TrainedPipeline(
        config=config,
        schema=schema,
        imputer=imputer,
        encoder=encoder,
        standardizer=standardizer,
        selector=selector,
        classifier=classifier,
    )


def default_config_portfolio() -> list[PipelineConfig]:
    """Fixed starter configurations covering every classifier family.

    The list is version-controlled: tests pin its determinism, and search
    evaluates it before drawing random candidates.
    """
    portfolio = [
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
    for cfg in portfolio:
        cfg.validate()
    return portfolio
