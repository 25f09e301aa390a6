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

import hashlib
import re
from dataclasses import dataclass
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

def _params_to_text(obj, fields: tuple[str, ...]) -> str:
    parts = []
    for f in fields:
        v = getattr(obj, f)
        parts.append(f"{f}={v}" if not isinstance(v, float) else f"{f}={v!r}")
    return ",".join(parts)


def config_to_text(cfg: PipelineConfig) -> str:
    pre = "standardize" if cfg.standardize else "none"
    if cfg.selector is None:
        sel = "none"
    elif isinstance(cfg.selector, VarianceThresholdConfig):
        sel = f"variance_threshold(tau={cfg.selector.tau!r})"
    else:
        sel = f"top_k_mutual_info(k={cfg.selector.k})"
    c = cfg.classifier
    if isinstance(c, DecisionTreeConfig):
        clf = f"decision_tree({_params_to_text(c, ('max_depth', 'min_leaf', 'split_criterion'))})"
    elif isinstance(c, NaiveBayesConfig):
        clf = f"naive_bayes({_params_to_text(c, ('laplace_alpha',))})"
    elif isinstance(c, LogisticSgdConfig):
        clf = f"logistic_sgd({_params_to_text(c, ('learning_rate', 'l2', 'epochs'))})"
    else:
        clf = f"knn({_params_to_text(c, ('k', 'max_reference_points'))})"
    return (
        f"preprocessor={pre} imputation={cfg.imputation} "
        f"one_hot={'true' if cfg.one_hot else 'false'} selector={sel} classifier={clf}"
    )


_CALL_RE = re.compile(r"^(\w+)\((.*)\)$")


def _parse_params(text: str) -> dict:
    out = {}
    if not text.strip():
        return out
    for part in text.split(","):
        key, _, val = part.partition("=")
        out[key.strip()] = val.strip()
    return out


def config_from_text(text: str) -> PipelineConfig:
    """Inverse of ``config_to_text``; raises PipelineError on bad input."""
    fields = {}
    for token in text.split():
        key, sep, val = token.partition("=")
        if not sep:
            raise PipelineError(f"bad config token {token!r}")
        fields[key] = val
    missing = {"preprocessor", "imputation", "one_hot", "selector", "classifier"} - set(fields)
    if missing:
        raise PipelineError(f"config text missing keys: {sorted(missing)}")

    sel_text = fields["selector"]
    if sel_text == "none":
        selector: SelectorConfig = None
    else:
        m = _CALL_RE.match(sel_text)
        if not m:
            raise PipelineError(f"bad selector {sel_text!r}")
        name, params = m.group(1), _parse_params(m.group(2))
        if name == "variance_threshold":
            selector = VarianceThresholdConfig(tau=float(params["tau"]))
        elif name == "top_k_mutual_info":
            selector = TopKMutualInfoConfig(k=int(params["k"]))
        else:
            raise PipelineError(f"unknown selector {name!r}")

    m = _CALL_RE.match(fields["classifier"])
    if not m:
        raise PipelineError(f"bad classifier {fields['classifier']!r}")
    name, params = m.group(1), _parse_params(m.group(2))
    try:
        if name == "decision_tree":
            classifier: ClassifierConfig = DecisionTreeConfig(
                max_depth=int(params["max_depth"]),
                min_leaf=int(params["min_leaf"]),
                split_criterion=params["split_criterion"],
            )
        elif name == "naive_bayes":
            classifier = NaiveBayesConfig(laplace_alpha=float(params["laplace_alpha"]))
        elif name == "logistic_sgd":
            classifier = LogisticSgdConfig(
                learning_rate=float(params["learning_rate"]),
                l2=float(params["l2"]),
                epochs=int(params["epochs"]),
            )
        elif name == "knn":
            classifier = KnnConfig(
                k=int(params["k"]),
                max_reference_points=int(params["max_reference_points"]),
            )
        else:
            raise PipelineError(f"unknown classifier {name!r}")
    except KeyError as exc:
        raise PipelineError(f"classifier {name!r} missing parameter {exc}") from exc

    if fields["preprocessor"] not in ("standardize", "none"):
        raise PipelineError(f"unknown preprocessor {fields['preprocessor']!r}")
    if fields["one_hot"] not in ("true", "false"):
        raise PipelineError(f"one_hot must be true or false")
    return PipelineConfig(
        standardize=fields["preprocessor"] == "standardize",
        imputation=fields["imputation"],
        one_hot=fields["one_hot"] == "true",
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

    def __init__(self, config, schema, imputer, encoder, standardizer, selector,
                 classifier, train_fingerprint, rng_seed):
        self.config = config
        self.schema = schema
        self._imputer = imputer
        self._encoder = encoder
        self._standardizer = standardizer
        self._selector = selector
        self._classifier = classifier
        self.train_fingerprint = train_fingerprint
        self.rng_seed = rng_seed

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

    def predict(self, batch: Batch) -> np.ndarray:
        return self.predict_proba(batch).argmax(axis=1)


def data_fingerprint(batch: Batch) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(batch.X).tobytes())
    h.update(np.ascontiguousarray(batch.y).tobytes())
    h.update(repr(batch.schema).encode())
    return h.hexdigest()


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
        train_fingerprint=data_fingerprint(train),
        rng_seed=seed,
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
