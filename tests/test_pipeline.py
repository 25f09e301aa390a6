import functools
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftml import pipeline
from driftml.data import Batch, Feature, Schema, UNSEEN
from driftml.pipeline import (
    DecisionTreeConfig,
    KnnConfig,
    LogisticSgdConfig,
    NaiveBayesConfig,
    PipelineConfig,
    PipelineError,
    TopKMutualInfoConfig,
    TrainedPipeline,
    VarianceThresholdConfig,
    default_config_portfolio,
    fit,
    fit_classifiers,
    fit_stages,
    predict_pipelines,
    prefix,
)
from driftml.search import sample_config

BIN_SCHEMA = Schema((Feature("x"),), "y", ("0", "1"))


def batch_of(schema, X, y):
    return Batch(schema, np.asarray(X, dtype=float), np.asarray(y, dtype=np.int64))


def predict(model, batch):
    """Hard labels: argmax with ties to the lowest class index."""
    return model.predict_proba(batch).argmax(axis=1)


def separable_1d():
    return batch_of(BIN_SCHEMA, [[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])


FAMILY_CONFIGS = {DecisionTreeConfig, NaiveBayesConfig, LogisticSgdConfig, KnnConfig}

ALL_FAMILIES = [
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=4)),
    PipelineConfig(one_hot=True, classifier=NaiveBayesConfig()),
    PipelineConfig(standardize=True, classifier=LogisticSgdConfig(epochs=30)),
    PipelineConfig(standardize=True, classifier=KnnConfig(k=3)),
]


def test_stump_reproduces_separable_labels():
    cfg = PipelineConfig(classifier=DecisionTreeConfig(max_depth=1, min_leaf=1))
    model = fit(cfg, separable_1d(), seed=0)
    assert predict(model, separable_1d()).tolist() == [0, 0, 1, 1]


def test_naive_bayes_matches_hand_computed_posterior():
    # contingency: class 0 has 3 rows (one with x=1), class 1 has 4 rows
    # (three with x=1); alpha=1 smoothing:
    #   P(x=1|0) = (1+1)/(3+2) = 0.4        P(x=1|1) = (3+1)/(4+2) = 2/3
    #   priors 3/7 and 4/7
    # posterior(x=1) ~ (3/7*0.4, 4/7*2/3) -> (0.310345.., 0.689655..)
    # posterior(x=0) ~ (3/7*0.6, 4/7*1/3) -> (0.574468.., 0.425531..)
    X = [[0.0], [0.0], [1.0], [1.0], [1.0], [1.0], [0.0]]
    y = [0, 0, 0, 1, 1, 1, 1]
    cfg = PipelineConfig(classifier=NaiveBayesConfig(laplace_alpha=1.0))
    model = fit(cfg, batch_of(BIN_SCHEMA, X, y), seed=0)
    probe = batch_of(BIN_SCHEMA, [[1.0], [0.0]], [0, 0])
    proba = model.predict_proba(probe)
    p1_num = (3 / 7) * 0.4, (4 / 7) * (2 / 3)
    expect_x1 = p1_num[0] / sum(p1_num)
    p0_num = (3 / 7) * 0.6, (4 / 7) * (1 / 3)
    expect_x0 = p0_num[0] / sum(p0_num)
    assert proba[0, 0] == pytest.approx(expect_x1, abs=1e-12)
    assert proba[1, 0] == pytest.approx(expect_x0, abs=1e-12)


@pytest.mark.parametrize("cfg", ALL_FAMILIES)
def test_refit_is_byte_identical(cfg):
    rng = np.random.default_rng(2)
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1", "2"))
    train = batch_of(schema, rng.normal(size=(60, 2)), rng.integers(0, 3, 60))
    probe = batch_of(schema, rng.normal(size=(20, 2)), rng.integers(0, 3, 20))
    a = fit(cfg, train, seed=9).predict_proba(probe)
    b = fit(cfg, train, seed=9).predict_proba(probe)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cfg", ALL_FAMILIES)
def test_single_class_training_gives_one_hot(cfg):
    schema = Schema((Feature("a"),), "y", ("0", "1", "2"))
    train = batch_of(schema, [[0.5], [1.5], [2.5]], [1, 1, 1])
    proba = fit(cfg, train, seed=0).predict_proba(train)
    assert np.array_equal(proba, np.tile([0.0, 1.0, 0.0], (3, 1)))


def test_unseen_level_predicts_valid_distribution():
    schema = Schema((Feature("c", ("red", "green")),), "y", ("0", "1"))
    train = batch_of(schema, [[0.0], [1.0], [0.0], [1.0]], [0, 1, 0, 1])
    cfg = PipelineConfig(one_hot=True, classifier=NaiveBayesConfig())
    model = fit(cfg, train, seed=0)
    probe = batch_of(schema, [[UNSEEN], [0.0]], [0, 0])
    proba = model.predict_proba(probe)
    assert proba.shape == (2, 2)
    assert np.all(proba >= 0)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_knn_k1_recovers_training_labels():
    rng = np.random.default_rng(4)
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    train = batch_of(schema, rng.normal(size=(30, 2)), rng.integers(0, 2, 30))
    cfg = PipelineConfig(classifier=KnnConfig(k=1))
    model = fit(cfg, train, seed=0)
    assert np.array_equal(predict(model, train), train.y)


def test_predict_tie_breaks_to_lowest_class():
    # symmetric counts make the naive Bayes posterior exactly 0.5 / 0.5
    X = [[0.0], [1.0], [0.0], [1.0]]
    y = [0, 0, 1, 1]
    cfg = PipelineConfig(classifier=NaiveBayesConfig(laplace_alpha=1.0))
    model = fit(cfg, batch_of(BIN_SCHEMA, X, y), seed=0)
    probe = batch_of(BIN_SCHEMA, [[0.0], [1.0]], [0, 0])
    proba = model.predict_proba(probe)
    assert np.allclose(proba, 0.5)
    assert predict(model, probe).tolist() == [0, 0]


def test_probability_rows_fuzz():
    rng = np.random.default_rng(10)
    schema = Schema(
        (Feature("n1"), Feature("n2"), Feature("c", ("u", "v", "w"))),
        "y",
        ("0", "1", "2"),
    )
    configs = [
        PipelineConfig(classifier=DecisionTreeConfig(max_depth=6)),
        PipelineConfig(one_hot=True, classifier=NaiveBayesConfig(laplace_alpha=0.5)),
        PipelineConfig(standardize=True, one_hot=True,
                       classifier=LogisticSgdConfig(epochs=10)),
        PipelineConfig(standardize=True, classifier=KnnConfig(k=5)),
        PipelineConfig(one_hot=True, selector=TopKMutualInfoConfig(k=3),
                       classifier=DecisionTreeConfig(max_depth=4)),
        PipelineConfig(selector=VarianceThresholdConfig(tau=1e-4),
                       imputation="mode", classifier=NaiveBayesConfig()),
    ]
    for trial in range(12):
        n = int(rng.integers(20, 80))
        X = np.column_stack([
            rng.normal(size=n),
            rng.normal(size=n),
            rng.integers(0, 3, n).astype(float),
        ])
        X[rng.random((n, 3)) < 0.1] = np.nan  # sprinkle missing cells
        y = rng.integers(0, 3, n)
        if np.unique(y).size < 2:
            continue
        train = batch_of(schema, X, y)
        probe_X = X.copy()
        probe_X[rng.random(n) < 0.05, 2] = UNSEEN  # unseen levels too
        probe = batch_of(schema, probe_X, y)
        for cfg in configs:
            proba = fit(cfg, train, seed=trial).predict_proba(probe)
            assert proba.shape == (n, 3)
            assert np.all(proba >= 0)
            assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_tree_invariant_under_standardization():
    rng = np.random.default_rng(6)
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    train = batch_of(schema, rng.normal(size=(80, 2)) * 3 + 1, rng.integers(0, 2, 80))
    probe = batch_of(schema, rng.normal(size=(40, 2)) * 3 + 1, rng.integers(0, 2, 40))
    plain = fit(PipelineConfig(classifier=DecisionTreeConfig(max_depth=6)), train, 0)
    scaled = fit(
        PipelineConfig(standardize=True, classifier=DecisionTreeConfig(max_depth=6)),
        train, 0,
    )
    assert np.array_equal(predict(plain, probe), predict(scaled, probe))


def test_logistic_loss_non_increasing_on_separable_data():
    rng = np.random.default_rng(8)
    n = 60
    X = np.vstack([rng.normal(-2.0, 0.3, (n // 2, 2)), rng.normal(2.0, 0.3, (n // 2, 2))])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    train = batch_of(schema, X, y)
    losses = []
    for epochs in range(1, 26):  # one seed: each fit extends the same SGD trajectory
        cfg = PipelineConfig(
            standardize=True,
            classifier=LogisticSgdConfig(learning_rate=0.05, l2=0.0, epochs=epochs),
        )
        p = fit(cfg, train, seed=1).predict_proba(train)
        losses.append(-np.log(np.maximum(p[np.arange(n), y], 1e-300)).mean())
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-6


def test_portfolio_fixed_and_covering():
    first = default_config_portfolio()
    second = default_config_portfolio()
    assert first == second
    assert 8 <= len(first) <= 16
    assert {type(cfg.classifier) for cfg in first} == FAMILY_CONFIGS
    for cfg in first:
        cfg.validate()


def test_each_config_builds_its_classifier_from_its_fields():
    rng = np.random.default_rng(5)
    schema = Schema((Feature("a"), Feature("b", ("u", "v", "w"))), "y", ("0", "1"))
    X = np.column_stack([rng.normal(size=60), rng.integers(0, 3, 60)])
    train = batch_of(schema, X, rng.integers(0, 2, 60))
    draws = np.random.default_rng(0)
    sampled = [sample_config(draws) for _ in range(24)]
    assert {type(cfg.classifier) for cfg in sampled} == FAMILY_CONFIGS
    for cfg in default_config_portfolio() + sampled:
        classifier = fit(cfg, train, seed=0).classifier
        # perfbench names a member's classifier family by this rule
        name = type(cfg.classifier).__name__.replace("Config", "Classifier")
        assert type(classifier).__name__ == name
        params = asdict(cfg.classifier)
        assert {field: getattr(classifier, field) for field in params} == params


def test_stages_are_the_configured_ones_in_order():
    schema = Schema((Feature("a"), Feature("b", ("u", "v"))), "y", ("0", "1"))
    train = batch_of(schema, [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]], [0, 0, 1, 1])
    numeric = batch_of(BIN_SCHEMA, [[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    full = PipelineConfig(standardize=True, one_hot=True, selector=TopKMutualInfoConfig(k=2))

    def stage_names(cfg, batch):
        return [type(stage).__name__ for stage in fit(cfg, batch, seed=0).stages]

    assert stage_names(full, train) == ["_Imputer", "_OneHotEncoder", "_Standardizer", "_Selector"]
    assert stage_names(PipelineConfig(), train) == ["_Imputer"]
    assert stage_names(PipelineConfig(one_hot=True), numeric) == ["_Imputer"]


def test_fit_rejects_bad_input():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    empty = Batch(schema, np.empty((0, 1)), np.empty(0, dtype=int))
    with pytest.raises(PipelineError):
        fit(PipelineConfig(), empty, 0)
    unlabeled = Batch(schema, np.zeros((2, 1)), np.array([0, -1]))
    with pytest.raises(PipelineError):
        fit(PipelineConfig(), unlabeled, 0)


def test_predict_rejects_schema_mismatch():
    model = fit(PipelineConfig(), separable_1d(), 0)
    other = Schema((Feature("x"), Feature("z")), "y", ("0", "1"))
    probe = Batch(other, np.zeros((1, 2)), np.array([0]))
    with pytest.raises(PipelineError):
        model.predict_proba(probe)
    with pytest.raises(PipelineError):
        predict_pipelines([model, model], probe)


def test_config_invariants_enforced():
    with pytest.raises(PipelineError):
        PipelineConfig(classifier=DecisionTreeConfig(max_depth=0)).validate()
    with pytest.raises(PipelineError):
        PipelineConfig(classifier=KnnConfig(k=4)).validate()
    with pytest.raises(PipelineError):
        PipelineConfig(classifier=NaiveBayesConfig(laplace_alpha=0.0)).validate()
    with pytest.raises(PipelineError):
        PipelineConfig(imputation="median").validate()


def test_selector_k_clipped_to_width():
    rng = np.random.default_rng(3)
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    train = batch_of(schema, rng.normal(size=(40, 2)), rng.integers(0, 2, 40))
    cfg = PipelineConfig(selector=TopKMutualInfoConfig(k=64),
                         classifier=DecisionTreeConfig(max_depth=3))
    model = fit(cfg, train, seed=0)  # must not raise
    assert model.predict_proba(train).shape == (40, 2)


def test_one_hot_caps_levels():
    levels = tuple(f"v{i}" for i in range(100))
    schema = Schema((Feature("c", levels),), "y", ("0", "1"))
    rng = np.random.default_rng(0)
    X = rng.integers(0, 100, size=(400, 1)).astype(float)
    y = rng.integers(0, 2, 400)
    cfg = PipelineConfig(one_hot=True, classifier=NaiveBayesConfig())
    model = fit(cfg, batch_of(schema, X, y), seed=0)
    _, encoder = model.stages  # imputer, encoder: nothing else is configured
    assert encoder.width_ == 65  # 64 kept levels + other


def test_all_missing_column_falls_back():
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    X = np.array([[np.nan, 1.0], [np.nan, 2.0], [np.nan, 3.0], [np.nan, 4.0]])
    model = fit(PipelineConfig(), batch_of(schema, X, [0, 0, 1, 1]), seed=0)
    proba = model.predict_proba(batch_of(schema, X, [0, 0, 1, 1]))
    assert np.allclose(proba.sum(axis=1), 1.0)


NUMERIC_SCHEMA = Schema((Feature("a"), Feature("b"), Feature("c")), "y", ("0", "1", "2"))

# k-NN pipelines whose fitted references are byte-identical (all 300
# training rows are kept): k = 5 and 11 share one stage tuple; k = 15 has
# its own, which on numeric columns gives the same matrix, one-hot doing
# nothing; k = 7 imputes the mode instead of the mean, the same matrix on
# rows without NaN and another on rows with NaN. k = 3 keeps 50 references
# of its own. The other families share the stage tuple of k = 5 or have
# their own.
SHARED_CONFIGS = [
    PipelineConfig(standardize=True, classifier=KnnConfig(k=5, max_reference_points=512)),
    PipelineConfig(standardize=True, classifier=DecisionTreeConfig(max_depth=6)),
    PipelineConfig(standardize=True, classifier=KnnConfig(k=11, max_reference_points=512)),
    PipelineConfig(standardize=True, one_hot=True,
                   classifier=KnnConfig(k=15, max_reference_points=512)),
    PipelineConfig(one_hot=True, classifier=NaiveBayesConfig()),
    PipelineConfig(standardize=True, imputation="mode",
                   classifier=KnnConfig(k=7, max_reference_points=512)),
    PipelineConfig(standardize=True, classifier=LogisticSgdConfig(epochs=3)),
    PipelineConfig(standardize=True, classifier=KnnConfig(k=3, max_reference_points=50)),
]


@functools.lru_cache(maxsize=None)
def shared_pipelines():
    """``SHARED_CONFIGS`` fitted on 300 rows without NaN, the pipelines of
    one prefix sharing its stage tuple, as in a search."""
    rng = np.random.default_rng(0)
    train = batch_of(NUMERIC_SCHEMA, rng.normal(size=(300, 3)), rng.integers(0, 3, 300))
    fitted, pipelines = {}, []
    for i, config in enumerate(SHARED_CONFIGS):
        if prefix(config) not in fitted:
            fitted[prefix(config)] = fit_stages(config, train)
        stages, X = fitted[prefix(config)]
        (classifier,) = fit_classifiers([config], [X], train, [i])
        pipelines.append(TrainedPipeline(config, train.schema, stages, classifier))
    return pipelines


@settings(max_examples=30)
@given(
    n_rows=st.one_of(st.integers(1, 60), st.integers(1_000, 1_300)),
    with_nan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_pipelines_equals_each_pipelines_own_predict(n_rows, with_nan, seed):
    """Every pipeline gets its own ``predict_proba`` bytes, and k-NN
    classifiers predict together exactly when their matrices and
    references are byte-identical: mean and mode imputation part on a
    batch holding NaN."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, 3))
    if with_nan:
        X[0, 0] = np.nan
        X[rng.random(X.shape) < 0.1] = np.nan
    batch = batch_of(NUMERIC_SCHEMA, X, rng.integers(0, 3, n_rows))
    pipelines = shared_pipelines()
    groups = []
    grouped = pipeline.knn_predict_proba

    def spy(models, X):
        groups.append(sorted(model.k for model in models))
        return grouped(models, X)

    with mock.patch.object(pipeline, "knn_predict_proba", spy):
        got = predict_pipelines(pipelines, batch)
    for model, proba in zip(pipelines, got, strict=True):
        assert proba.tobytes() == model.predict_proba(batch).tobytes(), model.config
    want = [[5, 11, 15], [7], [3]] if with_nan else [[5, 7, 11, 15], [3]]
    assert sorted(groups) == sorted(want)
