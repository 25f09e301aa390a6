import functools
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from driftml import classifiers, data, kernels, pipeline, search
from driftml.classifiers import (
    DecisionTreeClassifier,
    KnnClassifier,
    LogisticSgdClassifier,
    NaiveBayesClassifier,
)
from driftml.data import Batch, DataError, Feature, Schema
from driftml.kernels import KernelBuildError
from driftml.metrics import score
from driftml.pipeline import (
    DecisionTreeConfig,
    KnnConfig,
    LogisticSgdConfig,
    NaiveBayesConfig,
    PipelineConfig,
    PipelineError,
    TopKMutualInfoConfig,
    default_config_portfolio,
    fit,
    prefix,
)
from driftml.search import (
    SearchBudget,
    SearchError,
    rescore_library,
    run_search,
    sample_config,
    stratified_split,
)
from driftml.stagger import STAGGER_SCHEMA, StaggerConfig, generate_stagger

from conftest import member_score


def two_class_batch(n=60, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema((Feature("a"), Feature("b")), "y", ("0", "1"))
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
    if np.unique(y).size < 2:
        y[0] = 1 - y[0]
    return Batch(schema, X, y)


SMALL_PORTFOLIO = [
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=3)),
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=6)),
    PipelineConfig(standardize=True, classifier=KnnConfig(k=3)),
]


def test_budget_equals_portfolio_size():
    lib = run_search(two_class_batch(), SearchBudget(max_candidates=3, seed=1), SMALL_PORTFOLIO)
    assert len(lib) == 3


def test_search_is_deterministic():
    train = two_class_batch()
    budget = SearchBudget(max_candidates=8, seed=5)
    a = run_search(train, budget, SMALL_PORTFOLIO)
    b = run_search(train, budget, SMALL_PORTFOLIO)
    assert [member_score(a, m) for m in a.members] == [member_score(b, m) for m in b.members]
    for ma, mb in zip(a.members, b.members):
        assert ma.validation_proba.tobytes() == mb.validation_proba.tobytes()


def test_search_on_stagger_concept_one():
    data = generate_stagger(StaggerConfig(n_instances=600, seed=3))
    # oracle: the concept is a two-literal conjunction, so a depth-2 tree
    # expresses it exactly when fitted directly
    direct = fit(PipelineConfig(classifier=DecisionTreeConfig(max_depth=2)), data, 0)
    assert score("accuracy", data.y, direct.predict_proba(data)) >= 0.95
    lib = run_search(data, SearchBudget(max_candidates=16, seed=2), default_config_portfolio())
    assert max(member_score(lib, m) for m in lib.members) >= 0.95


def test_sample_config_covers_all_families():
    rng = np.random.default_rng(0)
    families = set()
    for _ in range(1000):
        cfg = sample_config(rng)
        families.add(type(cfg.classifier))
    assert families == {DecisionTreeConfig, NaiveBayesConfig, LogisticSgdConfig, KnnConfig}


def test_sample_config_deterministic():
    first = sample_config(np.random.default_rng(42))
    second = sample_config(np.random.default_rng(42))
    assert first == second


def test_portfolio_always_evaluated_first():
    train = two_class_batch()
    budget = SearchBudget(max_candidates=5, seed=7)
    lib = run_search(train, budget, SMALL_PORTFOLIO)
    assert len(lib) == 5
    # the first members correspond to the portfolio in order
    rng = np.random.default_rng(budget.seed)
    fit_idx, val_idx = stratified_split(train, budget.validation_fraction, rng)
    fit_batch = Batch(train.schema, train.X[fit_idx], train.y[fit_idx])
    val_batch = Batch(train.schema, train.X[val_idx], train.y[val_idx])
    for i, cfg in enumerate(SMALL_PORTFOLIO):
        model = fit(cfg, fit_batch, budget.seed + i)
        expect = score("accuracy", val_batch.y, model.predict_proba(val_batch))
        assert member_score(lib, lib.members[i]) == pytest.approx(expect, abs=1e-12)


def test_rescore_idempotent_and_preserves_members():
    lib = run_search(two_class_batch(), SearchBudget(max_candidates=3, seed=4), SMALL_PORTFOLIO)
    again = rescore_library(lib, search.Holdout.of(lib.holdout.batch))
    assert len(again) == len(lib)
    for a, b in zip(lib.members, again.members):
        assert abs(member_score(lib, a) - member_score(again, b)) < 1e-12
        assert a.pipeline is b.pipeline


def test_rescore_label_flip_drops_score():
    train = two_class_batch(n=80, seed=9)
    lib = run_search(train, SearchBudget(max_candidates=2, seed=1),
                     [PipelineConfig(classifier=DecisionTreeConfig(max_depth=8, min_leaf=1))])
    val = lib.holdout.batch
    flipped = Batch(val.schema, val.X, 1 - val.y)
    rescored = rescore_library(lib, search.Holdout.of(flipped))
    flipped_score = member_score(rescored, rescored.members[0])
    assert flipped_score <= 1.0 - member_score(lib, lib.members[0]) + 1e-9
    assert flipped_score < 0.5


def test_search_errors(monkeypatch):
    tiny = two_class_batch(n=6)
    with pytest.raises(SearchError):
        run_search(tiny, SearchBudget(max_candidates=1, seed=0), SMALL_PORTFOLIO)
    schema = Schema((Feature("a"),), "y", ("0", "1"))
    single = Batch(schema, np.zeros((20, 1)), np.zeros(20, dtype=int))
    with pytest.raises(SearchError):
        run_search(single, SearchBudget(max_candidates=1, seed=0), SMALL_PORTFOLIO)
    # every candidate fails -> zero successful fits
    def fails(*args, **kwargs):
        raise PipelineError("no fit")

    monkeypatch.setattr(search, "fit_stages", fails)
    with pytest.raises(SearchError):
        run_search(two_class_batch(), SearchBudget(max_candidates=3, seed=0), SMALL_PORTFOLIO)


def test_a_bug_inside_a_candidate_propagates(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(search, "fit_stages", broken_fit)
    with pytest.raises(TypeError):
        run_search(two_class_batch(), SearchBudget(max_candidates=1, seed=0), SMALL_PORTFOLIO)


def test_a_failure_skips_only_its_own_candidates(monkeypatch, caplog):
    """A prefix whose stages do not fit fails only its own candidates, and
    a failing logistic fit fails only its own candidate."""
    sgd = [PipelineConfig(standardize=True, classifier=LogisticSgdConfig(learning_rate=rate, epochs=3))
           for rate in (0.1, 0.9, 0.3)]
    tree = PipelineConfig(classifier=DecisionTreeConfig(max_depth=3))
    portfolio = [PipelineConfig(one_hot=True, classifier=KnnConfig(k=3)), *sgd, tree]
    stages, logistic_fit = search.fit_stages, LogisticSgdClassifier.fit

    def fails_one_hot(config, train):
        if config.one_hot:
            raise PipelineError("no encoding")
        return stages(config, train)

    def overflows_at_rate_0_9(model, *args):
        if model.learning_rate == 0.9:
            raise FloatingPointError("overflow")
        return logistic_fit(model, *args)

    monkeypatch.setattr(search, "fit_stages", fails_one_hot)
    monkeypatch.setattr(LogisticSgdClassifier, "fit", overflows_at_rate_0_9)
    lib = run_search(two_class_batch(), SearchBudget(max_candidates=5, seed=0), portfolio)
    assert [m.pipeline.config for m in lib.members] == [sgd[0], sgd[2], tree]
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert [msg.split(":")[0] for msg in failed] == ["candidate 0 failed", "candidate 2 failed"]


def test_without_a_compiler_a_logistic_search_fails_with_a_kernel_build_error(
        monkeypatch, tmp_path, caplog):
    """With no ``cc`` on the PATH and an empty cache, the first logistic fit
    raises ``KernelBuildError``, which fails the search instead of skipping
    the candidate."""
    monkeypatch.setattr(kernels, "_library", None)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    portfolio = [PipelineConfig(classifier=DecisionTreeConfig(max_depth=3)),
                 PipelineConfig(standardize=True, classifier=LogisticSgdConfig(epochs=2))]
    with pytest.raises(KernelBuildError):
        run_search(two_class_batch(), SearchBudget(max_candidates=2, seed=0), portfolio)
    assert not [r for r in caplog.records if "failed" in r.getMessage()]


def test_without_a_compiler_a_knn_search_fails_with_a_kernel_build_error(
        monkeypatch, tmp_path, caplog):
    """k-NN votes through the same compiled library: with no ``cc`` on the
    PATH and an empty cache, a search whose only other candidate is a tree
    fails with ``KernelBuildError`` at the first k-NN prediction."""
    monkeypatch.setattr(kernels, "_library", None)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    portfolio = [PipelineConfig(classifier=DecisionTreeConfig(max_depth=3)),
                 PipelineConfig(standardize=True, classifier=KnnConfig(k=3))]
    with pytest.raises(KernelBuildError):
        run_search(two_class_batch(), SearchBudget(max_candidates=2, seed=0), portfolio)
    assert not [r for r in caplog.records if "failed" in r.getMessage()]


def test_a_failed_predict_skips_only_its_own_candidate(monkeypatch, caplog):
    """Members predict their holdout together; when that raises one of
    ``CANDIDATE_ERRORS``, each predicts alone and only the failing
    candidate is skipped."""
    bayes = [PipelineConfig(classifier=NaiveBayesConfig(laplace_alpha=alpha))
             for alpha in (1.0, 0.5)]
    knn = [PipelineConfig(standardize=True, classifier=KnnConfig(k=k)) for k in (3, 5)]
    portfolio = [bayes[0], knn[0], bayes[1], knn[1]]
    predict = NaiveBayesClassifier.predict_proba

    def fails_at_alpha_0_5(model, X):
        if model.laplace_alpha == 0.5:
            raise FloatingPointError("underflow")
        return predict(model, X)

    monkeypatch.setattr(NaiveBayesClassifier, "predict_proba", fails_at_alpha_0_5)
    lib = run_search(two_class_batch(), SearchBudget(max_candidates=4, seed=0), portfolio)
    assert [m.pipeline.config for m in lib.members] == [bayes[0], *knn]
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert failed == ["candidate 2 failed: underflow"]


# Per family: the classifier config of candidate ``i``, with a
# hyperparameter that names ``i``, its classifier class, and the candidate
# a fitted classifier of that class belongs to.
TAGGED_FAMILIES = [
    (lambda i: DecisionTreeConfig(max_depth=i + 1), DecisionTreeClassifier,
     lambda model: model.max_depth - 1),
    (lambda i: NaiveBayesConfig(laplace_alpha=i + 1.0), NaiveBayesClassifier,
     lambda model: round(model.laplace_alpha) - 1),
    (lambda i: LogisticSgdConfig(learning_rate=(i + 1) / 64, epochs=3), LogisticSgdClassifier,
     lambda model: round(model.learning_rate * 64) - 1),
    (lambda i: KnnConfig(k=2 * i + 1), KnnClassifier, lambda model: (model.k - 1) // 2),
]
PREFIXES = [{}, {"standardize": True}, {"standardize": True, "imputation": "mode"}]


def candidate_of(model):
    return next(tag(model) for _, cls, tag in TAGGED_FAMILIES if isinstance(model, cls))


def failing_for(marked, method, error):
    """``method`` of a classifier, or of a sequence of them, that raises
    ``error`` when it is called on a classifier of a ``marked`` candidate."""
    def run(model, *args, **kwargs):
        models = model if isinstance(model, (list, tuple)) else [model]
        if any(candidate_of(m) in marked for m in models):
            raise error
        return method(model, *args, **kwargs)
    return run


@settings(max_examples=40, deadline=None)
@given(
    drawn=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                             st.sampled_from([None, "fit", "predict"])), min_size=1, max_size=8),
    failing_prefixes=st.sets(st.integers(0, 2)),
)
@example(drawn=[(2, 0, None), (2, 1, "fit"), (0, 1, None)], failing_prefixes=set())
@example(drawn=[(3, 0, "predict"), (3, 1, None), (1, 2, "predict")], failing_prefixes={0})
def test_candidates_failing_at_any_step_skip_only_themselves(drawn, failing_prefixes):
    """Candidates forced to fail at stage fit (every candidate of a prefix
    whose stages raise), at classifier fit or at predict (the whole shared k-NN
    pass of a failing k-NN model raises), in one ``evaluate_candidates``
    call: the others are the members, in candidate order, each the bytes of
    ``evaluate_candidate``, and each failure logs one warning, in candidate
    order."""
    fit_batch = two_class_batch(n=40, seed=1)
    holdout = search.Holdout.of(two_class_batch(n=30, seed=2))
    configs = [PipelineConfig(**PREFIXES[p], classifier=TAGGED_FAMILIES[family][0](i))
               for i, (family, p, _) in enumerate(drawn)]
    fail_fit = {i for i, (_, _, step) in enumerate(drawn) if step == "fit"}
    fail_predict = {i for i, (_, _, step) in enumerate(drawn) if step == "predict"}
    bad_prefixes = [prefix(PipelineConfig(**PREFIXES[p])) for p in failing_prefixes]
    failed = [i for i, config in enumerate(configs)
              if i in fail_fit | fail_predict or prefix(config) in bad_prefixes]
    stages = search.fit_stages

    def fit_stages(config, train):
        if prefix(config) in bad_prefixes:
            raise PipelineError("no stages")
        return stages(config, train)

    with pytest.MonkeyPatch.context() as patch, mock.patch.object(search.log, "warning") as warn:
        patch.setattr(search, "fit_stages", fit_stages)
        knn = failing_for(fail_predict, pipeline.knn_predict_proba, FloatingPointError("underflow"))
        patch.setattr(pipeline, "knn_predict_proba", knn)
        patch.setattr(classifiers, "knn_predict_proba", knn)
        for _, cls, _ in TAGGED_FAMILIES:
            patch.setattr(cls, "fit", failing_for(fail_fit, cls.fit, np.linalg.LinAlgError("fit")))
            if cls is not KnnClassifier:  # predicts through ``knn_predict_proba``
                patch.setattr(cls, "predict_proba", failing_for(
                    fail_predict, cls.predict_proba, DataError("predict")))
        members = search.evaluate_candidates(list(enumerate(configs)), fit_batch, holdout, 3)

    kept = [i for i in range(len(configs)) if i not in failed]
    assert [m.pipeline.config for m in members] == [configs[i] for i in kept]
    for i, member in zip(kept, members):
        alone = search.evaluate_candidate(configs[i], fit_batch, holdout, 3 + i)
        assert member.validation_proba.tobytes() == alone.validation_proba.tobytes()
    assert [call.args[:2] for call in warn.call_args_list] == [
        ("candidate %d failed: %s", i) for i in failed]


def search_parts(train, budget, portfolio):
    """The fit batch and holdout ``run_search`` builds, and the configs of
    its ``budget.max_candidates`` candidates."""
    rng = np.random.default_rng(budget.seed)
    fit_idx, val_idx = stratified_split(train, budget.validation_fraction, rng)
    configs = list(portfolio[:budget.max_candidates])
    configs += [sample_config(rng) for _ in range(budget.max_candidates - len(configs))]
    return train.take(fit_idx), search.Holdout.of(train.take(val_idx)), configs


def stage_arrays(stages):
    for stage in stages:
        for value in vars(stage).values():
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    yield part


@pytest.mark.parametrize("dataset", ["stagger", "mixed"])
def test_search_members_equal_each_candidate_fitted_alone(dataset):
    """Shared preprocessing and shared tree pairs leave every member's
    transformed matrix and holdout predictions byte-identical to fitting
    the candidate alone; members with one prefix share one stage tuple,
    whose arrays are read-only."""
    if dataset == "stagger":  # 12 one-hot columns, with and without a selector
        train = generate_stagger(StaggerConfig(n_instances=900, seed=4))
    else:  # missing values, so mean and mode imputation differ
        rng = np.random.default_rng(5)
        train = Batch(mixed_schema(NARROW), mixed_rows(600, NARROW, rng, special=True),
                      rng.integers(0, 3, 600))
    budget = SearchBudget(max_candidates=28, seed=11)
    lib = run_search(train, budget, default_config_portfolio())
    fit_batch, holdout, configs = search_parts(train, budget, default_config_portfolio())
    assert [m.pipeline.config for m in lib.members] == configs
    shared = {}
    for i, (member, config) in enumerate(zip(lib.members, configs)):
        alone = search.evaluate_candidate(config, fit_batch, holdout, budget.seed + i)
        X_member, X_alone = fit_batch.X, fit_batch.X
        for ours, its in zip(member.pipeline.stages, alone.pipeline.stages, strict=True):
            X_member, X_alone = ours.transform(X_member), its.transform(X_alone)
        assert X_member.tobytes() == X_alone.tobytes(), config
        assert member.validation_proba.tobytes() == alone.validation_proba.tobytes(), config
        assert member_score(lib, member) == member_score(lib, alone)
        stages = shared.setdefault(prefix(config), member.pipeline.stages)
        assert member.pipeline.stages is stages
        assert not any(a.flags.writeable for a in stage_arrays(stages))
    assert len(shared) < len(configs)


def test_a_stagger_search_finds_distinct_rows_once_per_batch(monkeypatch):
    """A STAGGER search finds the distinct rows of its fit batch once and
    of its holdout once; its stages and trees read only the fit batch's
    distinct rows (27 at most), never a whole transformed matrix."""
    train = generate_stagger(StaggerConfig(n_instances=900, seed=4))
    budget = SearchBudget(max_candidates=16, seed=11)
    fit_batch, holdout, _ = search_parts(train, budget, default_config_portfolio())
    sizes, find = [], data.distinct_rows

    def counted(X):
        sizes.append(len(X))
        return find(X)

    monkeypatch.setattr(data, "distinct_rows", counted)
    monkeypatch.setattr(classifiers, "distinct_rows", counted)
    lib = run_search(train, budget, default_config_portfolio())
    assert any(isinstance(m.pipeline.classifier, DecisionTreeClassifier) for m in lib.members)
    assert sizes.count(len(fit_batch)) == sizes.count(len(holdout)) == 1
    assert len(sizes) > 2
    assert all(size <= 27 for size in sizes if size not in (len(fit_batch), len(holdout)))


def test_budget_validation():
    with pytest.raises(SearchError):
        SearchBudget(max_candidates=0)
    with pytest.raises(SearchError):
        SearchBudget(validation_fraction=0.0)
    with pytest.raises(SearchError):
        SearchBudget(validation_fraction=1.0)


@given(
    labels=st.lists(st.integers(0, 3), min_size=1, max_size=200),
    fraction=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_stratified_split_properties(labels, fraction, seed):
    """Disjoint sorted parts that cover every row; each class with two or
    more rows lands on both sides, a singleton class in the fit part."""
    schema = Schema((Feature("x"),), "y", ("0", "1", "2", "3"))
    y = np.array(labels)
    batch = Batch(schema, np.zeros((y.size, 1)), y)
    fit_idx, val_idx = stratified_split(batch, fraction, np.random.default_rng(seed))
    for part in (fit_idx, val_idx):
        assert np.all(np.diff(part) > 0)
    assert np.intersect1d(fit_idx, val_idx).size == 0
    assert np.array_equal(np.sort(np.concatenate([fit_idx, val_idx])), np.arange(y.size))
    for c, count in zip(*np.unique(y, return_counts=True)):
        assert c in y[fit_idx]
        assert (c in y[val_idx]) == (count >= 2)


@pytest.mark.parametrize("seconds", [float("nan"), -1.0, float("-inf")])
def test_a_max_seconds_that_never_binds_is_rejected(seconds):
    with pytest.raises(SearchError, match="max_seconds"):
        SearchBudget(max_seconds=seconds)


def test_an_infinite_max_seconds_is_rejected_and_zero_is_valid():
    # an infinite cap never binds either, yet would evaluate the candidates
    # one at a time instead of together
    with pytest.raises(SearchError, match="max_seconds"):
        SearchBudget(max_seconds=float("inf"))
    assert SearchBudget(max_seconds=0.0).max_seconds == 0.0


def test_a_wall_clock_search_evaluates_no_empty_batch(monkeypatch):
    """With ``max_seconds`` set, each admitted candidate is evaluated alone
    and nothing is evaluated before the first is admitted; the library is
    the one evaluated all together."""
    train = two_class_batch()
    sizes, evaluate = [], search.evaluate_candidates

    def spy(candidates, *args):
        sizes.append(len(candidates))
        return evaluate(candidates, *args)

    together = run_search(train, SearchBudget(max_candidates=4, seed=5), SMALL_PORTFOLIO)
    monkeypatch.setattr(search, "evaluate_candidates", spy)
    alone = run_search(train, SearchBudget(max_candidates=4, max_seconds=1e9, seed=5),
                       SMALL_PORTFOLIO)
    assert sizes == [1, 1, 1, 1]
    assert [m.validation_proba.tobytes() for m in alone.members] == \
        [m.validation_proba.tobytes() for m in together.members]


def test_wall_clock_budget_stops_early_but_fits_at_least_one():
    train = two_class_batch()
    budget = SearchBudget(max_candidates=50, max_seconds=0.0, seed=2)
    lib = run_search(train, budget, SMALL_PORTFOLIO)
    assert len(lib) == 1  # the first candidate always completes


def test_rescore_rejects_bad_batches():
    from driftml.data import Batch, DataError

    lib = run_search(two_class_batch(), SearchBudget(max_candidates=2, seed=6), SMALL_PORTFOLIO)
    val = lib.holdout.batch
    empty = Batch(val.schema, np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(DataError):
        rescore_library(lib, search.Holdout.of(empty))
    partial = Batch(val.schema, val.X, np.where(np.arange(len(val)) == 0, -1, val.y))
    with pytest.raises(DataError):
        rescore_library(lib, search.Holdout.of(partial))
    other = Schema((Feature("only"),), "y", ("0", "1"))
    alien = Batch(other, np.zeros((4, 1)), np.array([0, 1, 0, 1]))
    with pytest.raises(DataError):
        rescore_library(lib, search.Holdout.of(alien))


def mixed_schema(n_numeric):
    """``n_numeric`` numeric columns and one 3-level categorical column:
    ``n_numeric + 4`` columns after one-hot encoding."""
    numeric = tuple(Feature(f"x{i}") for i in range(n_numeric))
    return Schema(numeric + (Feature("c", ("p", "q", "r")),), "y", ("0", "1", "2"))


# Numeric column counts whose widest encodings are 6, 15 (the widest whose
# holdouts are predicted on distinct rows) and 16 (predicted whole: there
# the logistic product rounds some rows by their position in a block).
NARROW, WIDEST_DISTINCT, WIDE = 2, 11, 12

# One pipeline per classifier family and per matrix product its predict
# runs: the Bernoulli and the Gaussian naive Bayes terms, and logistic SGD
# with and without a selector.
FAMILY_CONFIGS = [
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=6)),
    PipelineConfig(one_hot=True, classifier=NaiveBayesConfig(laplace_alpha=0.5)),
    PipelineConfig(standardize=True, classifier=NaiveBayesConfig(laplace_alpha=1.0)),
    PipelineConfig(standardize=True, one_hot=True, classifier=LogisticSgdConfig(epochs=5)),
    PipelineConfig(standardize=True, one_hot=True, selector=TopKMutualInfoConfig(k=3),
                   classifier=LogisticSgdConfig(epochs=5)),
    PipelineConfig(standardize=True, one_hot=True,
                   classifier=KnnConfig(k=5, max_reference_points=256)),
]


def mixed_rows(n, n_numeric, rng, special=False):
    """``n`` rows of ``mixed_schema(n_numeric)``; with ``special``, about a
    fifth of the cells are NaN, -0.0 or 0.0."""
    X = np.column_stack([rng.normal(size=(n, n_numeric)), rng.integers(0, 3, n)]).astype(float)
    if special:
        hit = rng.random(X.shape) < 0.2
        X[hit] = np.array([np.nan, -0.0, 0.0])[rng.integers(0, 3, hit.sum())]
    return X


@functools.lru_cache(maxsize=None)
def family_models(n_numeric):
    rng = np.random.default_rng(0)
    X = mixed_rows(400, n_numeric, rng, special=True)
    train = Batch(mixed_schema(n_numeric), X, rng.integers(0, 3, 400))
    return [fit(cfg, train, seed=i) for i, cfg in enumerate(FAMILY_CONFIGS)]


def test_widest_encoding_counts_every_one_hot_column():
    assert search.widest_encoding(STAGGER_SCHEMA) == 12
    assert search.widest_encoding(mixed_schema(WIDE)) == 16
    many = Schema((Feature("a"), Feature("b", tuple(map(str, range(100))))), "y", ("0", "1"))
    assert search.widest_encoding(many) == 1 + 64 + 1


@settings(max_examples=60)
@given(
    n_numeric=st.sampled_from([NARROW, WIDEST_DISTINCT, WIDE]),
    n_distinct=st.integers(1, 300),
    repeats=st.integers(0, 300),
    special=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_numeric=NARROW, n_distinct=1, repeats=300, special=False, seed=0)  # matrix-vector path
@example(n_numeric=NARROW, n_distinct=KnnClassifier.CHUNK + 76, repeats=KnnClassifier.CHUNK + 100,
         special=True, seed=1)
@example(n_numeric=NARROW, n_distinct=27, repeats=250, special=True, seed=2)
@example(n_numeric=WIDEST_DISTINCT, n_distinct=27, repeats=250, special=False, seed=3)
@example(n_numeric=WIDE, n_distinct=27, repeats=250, special=False, seed=3)
def test_predicting_the_distinct_rows_equals_predicting_every_row(n_numeric, n_distinct, repeats,
                                                                   special, seed):
    """Each family's predictions on a holdout's distinct rows, scattered
    back, are byte-identical to its predictions on every row; a holdout too
    wide for that is predicted whole."""
    rng = np.random.default_rng(seed)
    pool = mixed_rows(n_distinct, n_numeric, rng, special)
    rows = np.r_[np.arange(n_distinct), rng.integers(0, n_distinct, repeats)]
    rng.shuffle(rows)
    batch = Batch(mixed_schema(n_numeric), pool[rows], rng.integers(0, 3, rows.size))
    holdout = search.Holdout.of(batch)
    for model in family_models(n_numeric):
        direct = model.predict_proba(batch)
        scattered = model.predict_proba(holdout.distinct)[holdout.inverse]
        assert scattered.tobytes() == direct.tobytes(), model.config
    if n_numeric == WIDE:
        assert holdout.distinct is batch
    else:
        assert len(holdout.distinct) <= max(n_distinct, 2)
    if holdout.distinct is batch:  # selection scores its predictions as they are
        assert np.array_equal(holdout.inverse, np.arange(len(batch)))


@pytest.mark.parametrize("n_numeric, rows, whole", [
    (NARROW, [0, 1, 2, 3], True),    # all distinct
    (WIDE, [0, 1, 0, 2, 1], True),   # too wide to predict distinct rows
    (WIDE, [0], True),
    (NARROW, [0, 0], False),         # one distinct row, predicted twice
    (NARROW, [0], False),
    (NARROW, [0, 1, 0], False),
    (NARROW, [0, 0, 0], False),      # one distinct row, two labels: 2 rows merge
    (NARROW, [0, 0, 0, 1, 1, 1, 2, 0], False),
])
def test_a_holdout_predicted_whole_scatters_by_arange(n_numeric, rows, whole):
    """Selection scores a whole holdout's stacked predictions as they are,
    so ``inverse`` is ``arange`` whenever ``distinct`` is the batch. Its
    scoring columns hold every (``inverse``, label) pair of the batch once,
    weighted by its number of rows. The k-th repeat of a pool row has
    label k % 2."""
    pool = mixed_rows(4, n_numeric, np.random.default_rng(0))
    labels = [rows[:i].count(row) % 2 for i, row in enumerate(rows)]
    batch = Batch(mixed_schema(n_numeric), pool[rows], np.array(labels))
    holdout = search.Holdout.of(batch)
    assert (holdout.distinct is batch) == whole
    if whole:  # scored without a copy
        assert np.array_equal(holdout.inverse, np.arange(len(batch)))
        assert np.array_equal(holdout.rows, np.arange(len(batch)))
        planes = np.zeros((1, 3, len(batch)))
        assert holdout.columns(planes)[0] is planes
    pairs = Counter(zip(holdout.inverse.tolist(), labels))
    columns = list(zip(holdout.rows.tolist(), holdout.y.tolist()))
    assert sorted(columns) == sorted(pairs)
    assert holdout.count.tolist() == [pairs[column] for column in columns]
    assert holdout.count.sum() == len(batch)
