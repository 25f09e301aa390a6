import functools
from dataclasses import asdict, replace
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
    """A config out of range cannot be built, also not by ``replace``."""
    invalid = [
        lambda: DecisionTreeConfig(max_depth=0),
        lambda: DecisionTreeConfig(min_leaf=0),
        lambda: DecisionTreeConfig(split_criterion="median"),
        lambda: NaiveBayesConfig(laplace_alpha=0.0),
        lambda: LogisticSgdConfig(learning_rate=0.0),
        lambda: LogisticSgdConfig(l2=-1.0),
        lambda: LogisticSgdConfig(epochs=0),
        lambda: KnnConfig(k=4),
        lambda: KnnConfig(max_reference_points=0),
        lambda: VarianceThresholdConfig(tau=-1.0),
        lambda: TopKMutualInfoConfig(k=0),
        lambda: PipelineConfig(imputation="median"),
        lambda: replace(KnnConfig(k=3), k=4),
        lambda: replace(PipelineConfig(), imputation="median"),
    ]
    for build in invalid:
        with pytest.raises(PipelineError):
            build()


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
        alone = model.classifier.predict_proba(pipeline._apply_stages(model.stages, batch.X))
        assert proba.tobytes() == alone.tobytes(), model.config
    want = [[5, 11, 15], [7], [3]] if with_nan else [[5, 7, 11, 15], [3]]
    assert sorted(groups) == sorted(want)


def test_predict_pipelines_applies_each_stage_tuple_once():
    """One call applies each distinct stage tuple once, also the tuple that
    k = 5 and 11 share with the tree and the logistic classifier."""
    pipelines = shared_pipelines()
    applied = []
    apply_stages = pipeline._apply_stages

    def spy(stages, X):
        applied.append(stages)
        return apply_stages(stages, X)

    batch = batch_of(NUMERIC_SCHEMA, np.random.default_rng(1).normal(size=(40, 3)),
                     np.zeros(40, dtype=int))
    with mock.patch.object(pipeline, "_apply_stages", spy):
        predict_pipelines(pipelines, batch)
    distinct = {id(model.stages): model.stages for model in pipelines}
    assert sorted(map(id, applied)) == sorted(distinct)


# ---------------------------------------------------------------------------
# stages fitted on the batch's distinct rows against fits that read every row

def row_mode(values):
    uniq, counts = np.unique(values, return_counts=True)
    return float(uniq[np.argmax(counts)])


def row_mutual_information(col, y, n_classes):
    edges = np.unique(np.quantile(col, np.linspace(0, 1, 17)[1:-1]))
    binned = np.digitize(col, edges)
    table = np.zeros((binned.max() + 1, n_classes))
    np.add.at(table, (binned, y), 1.0)
    pxy = table / table.sum()
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.nansum(pxy * np.log(pxy / (px * py))))


def row_fit(stage, X, y, config, schema):
    """The arrays ``stage`` holds when its fit reads every row of ``X``."""
    categorical = [f.is_categorical for f in schema.features]
    if isinstance(stage, pipeline._Imputer):
        fill = np.zeros(X.shape[1])
        for j, col in enumerate(X.T):
            obs = col[~np.isnan(col) & (col >= 0)] if categorical[j] else col[~np.isnan(col)]
            if obs.size:
                mean = not categorical[j] and config.imputation == "mean"
                fill[j] = obs.mean() if mean else row_mode(obs)
        return [fill]
    if isinstance(stage, pipeline._OneHotEncoder):
        kept = []
        for j, col in enumerate(X.T):
            if categorical[j]:
                col = col.astype(np.int64)
                levels, counts = np.unique(col[col >= 0], return_counts=True)
                order = np.lexsort((levels, -counts))
                kept.append(np.sort(levels[order][:pipeline.MAX_ONE_HOT_LEVELS]))
        return kept
    if isinstance(stage, pipeline._Standardizer):
        std = X.std(axis=0)
        return [X.mean(axis=0), np.where(std > 1e-12, std, 1.0)]
    if isinstance(config.selector, VarianceThresholdConfig):
        keep = np.nonzero(X.var(axis=0) > config.selector.tau)[0]
        return [keep if keep.size else np.arange(X.shape[1])]
    mi = np.array([row_mutual_information(col, y, schema.n_classes) for col in X.T])
    order = np.lexsort((np.arange(X.shape[1]), -mi))
    return [np.sort(order[:min(config.selector.k, X.shape[1])])]


def stage_arrays(stage):
    return [part for value in vars(stage).values()
            for part in (value if isinstance(value, tuple) else (value,))
            if isinstance(part, np.ndarray)]


# Cells that the table must not merge or split wrongly: NaN, both zeros,
# an unseen level (-1), repeated values and values whose sums round.
NUMERIC_CELLS = [np.nan, -0.0, 0.0, 0.0, 0.1, 0.7, -2.0, 1 / 3, UNSEEN]


@st.composite
def repeated_batch(draw):
    """A batch of 2 numeric columns and one categorical column of 3 or 70
    levels (every one of the 70 present, so the 64 kept are chosen by their
    counts): up to 90 distinct rows, each repeated 1-4 times, shuffled."""
    n_levels = draw(st.sampled_from([3, 70]))
    level = st.one_of(st.integers(0, n_levels - 1).map(float),
                      st.sampled_from([np.nan, UNSEEN, -0.0, 0.0]))
    numeric = st.sampled_from(NUMERIC_CELLS)
    pool = draw(st.lists(st.tuples(numeric, numeric, level), min_size=1, max_size=20))
    if n_levels == 70:
        pool += [(draw(numeric), draw(numeric), float(c)) for c in draw(st.permutations(range(70)))]
    pool = np.array(pool, dtype=float)
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(pool), max_size=len(pool)))
    X = np.repeat(pool, repeats, axis=0)
    X = X[np.random.default_rng(draw(st.integers(0, 99))).permutation(len(X))]
    y = draw(st.lists(st.integers(0, 2), min_size=len(X), max_size=len(X)))
    schema = Schema((Feature("a"), Feature("b"), Feature("c", tuple(map(str, range(n_levels))))),
                    "y", ("0", "1", "2"))
    return batch_of(schema, X, y)


TABLE_PREFIXES = [
    PipelineConfig(imputation=imputation, one_hot=one_hot, standardize=standardize,
                   selector=selector)
    for imputation in ("mean", "mode") for one_hot in (False, True)
    for standardize in (False, True)
    for selector in (None, VarianceThresholdConfig(0.01), TopKMutualInfoConfig(3))
]


@settings(max_examples=60, deadline=None)
@given(repeated_batch())
def test_stages_fitted_on_the_distinct_rows_equal_the_row_fits(batch):
    """Every stage's arrays, and the matrix after the stages, equal byte for
    byte those of fits that read every row, for every prefix."""
    for config in TABLE_PREFIXES:
        with np.errstate(all="ignore"):
            stages, matrix = fit_stages(config, batch)
            X = batch.X
            for stage in stages:
                want, got = row_fit(stage, X, batch.y, config, batch.schema), stage_arrays(stage)
                assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
                       [(a.dtype, a.shape, a.tobytes()) for a in want], (config, stage)
                X = stage.transform(X)
        assert matrix.tobytes() == X.tobytes(), config


def test_the_mode_of_both_zeros_is_the_sign_the_rows_give():
    """A column whose distinct rows hold 0.0 and -0.0 takes its mode from
    the rows: on these, ``np.unique`` of the rows reports -0.0 for the
    modal zero, and of the two distinct zeros, weighted, 0.0."""
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    col = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, -0.0, 1.0, 1.0, np.nan])
    X = np.column_stack([col, np.arange(col.size) % 2])
    batch = batch_of(schema, X, np.arange(col.size) % 2)
    (imputer,), _ = fit_stages(PipelineConfig(imputation="mode"), batch)
    assert np.signbit(imputer.fill_[0]) and np.signbit(row_mode(col[:-1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 7.0, np.inf, -np.inf, 1e308]),
                          st.integers(1, 6)), min_size=1, max_size=12),
       st.integers(0, 99))
def test_quantile_edges_from_value_counts_equal_the_row_quantiles(pairs, seed):
    """The mutual-information edges found from (value, count) pairs equal in
    value ``np.quantile`` of the rows (a zero's sign may differ, as numpy's
    partition places it), so every value falls in the same bin."""
    values = np.array([v for v, _ in pairs])
    counts = np.array([c for _, c in pairs])
    rows = np.random.default_rng(seed).permutation(np.repeat(values, counts))
    with np.errstate(invalid="ignore"):
        got = pipeline._quantile_edges(values, counts)
        want = np.unique(np.quantile(rows, np.linspace(0, 1, 17)[1:-1]))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.digitize(rows, got), np.digitize(rows, want))
