import math
import re

import numpy as np
import pytest

from driftml import lifelong, search
from driftml.data import Batch, DataError, Feature, Schema, concat_batches, split_stream
from driftml.ensemble import ensemble_predict_proba, select_ensemble
from driftml.lifelong import (
    WU_VALIDATION_CAP,
    Strategy,
    adapt,
    run_lifelong,
    stratified_sample,
)
from driftml.metrics import score
from driftml.pipeline import (
    DecisionTreeConfig,
    PipelineConfig,
    TrainedPipeline,
    default_config_portfolio,
)
from driftml.search import (
    LibraryMember,
    ModelLibrary,
    SearchBudget,
    run_search,
    stratified_split,
)
from driftml.stagger import StaggerConfig, generate_stagger
from conftest import FixedProba, member_score
from test_drift import reference_fold
from test_ensemble import reference_select_ensemble
from test_search import NARROW, mixed_rows, mixed_schema

BUDGET = SearchBudget(max_candidates=6, seed=13)
TREES = [
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=2)),
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=4)),
    PipelineConfig(classifier=DecisionTreeConfig(max_depth=8)),
]


def stagger_stream(n, drift_points, schedule, batch_size, seed=1):
    data = generate_stagger(StaggerConfig(n, drift_points, schedule, seed=seed))
    return split_stream(data, batch_size)


def initial_library(train, seed=3):
    return run_search(train, SearchBudget(max_candidates=3, seed=seed), TREES, "accuracy")


def adapt_on(strategy, library, stored, batch, seed=0, portfolio=TREES):
    """``adapt`` on the stored batches followed by ``batch``."""
    return adapt(strategy, library, concat_batches([*stored, batch]), batch, budget=BUDGET,
                 portfolio=portfolio, metric="accuracy", seed=seed)


def test_zero_test_batches():
    stream = stagger_stream(600, (), ((1, False),), 600)
    report = run_lifelong(stream[0], [], Strategy.BASE, "accuracy", BUDGET)
    assert report.per_batch == ()
    assert math.isnan(report.mean_metric)


def test_base_never_adapts_and_matches_fixed_ensemble():
    stream = stagger_stream(4_000, (2_000,), ((1, False), (1, True)), 400)
    report = run_lifelong(stream[0], stream[1:], Strategy.BASE, "accuracy", BUDGET)
    assert report.adapt_events == ()
    assert len(report.drift_events) >= 1

    # control-arm contract: scores equal a manual loop with the initial model
    lib = run_search(stream[0], BUDGET, default_config_portfolio(), "accuracy")
    ens = select_ensemble(lib, rounds=50, metric="accuracy")
    for got, batch in zip(report.per_batch, stream[1:]):
        proba = ensemble_predict_proba(ens, lib, batch)
        assert got == pytest.approx(score("accuracy", batch.y, proba), abs=1e-12)


def test_phase_ordering_score_before_reveal():
    stream = stagger_stream(2_000, (1_000,), ((1, False), (1, True)), 250)
    events = []
    run_lifelong(
        stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", BUDGET,
        phase_hook=lambda phase, t: events.append((t, phase)),
    )
    per_batch = {}
    for t, phase in events:
        per_batch.setdefault(t, []).append(phase)
    for t, phases in per_batch.items():
        assert phases.index("predict") < phases.index("score") < phases.index("reveal")
        assert phases[-1] == "store"
        if "adapt" in phases:
            assert phases.index("reveal") < phases.index("adapt")


def test_truncation_causality():
    stream = stagger_stream(6_000, (3_000,), ((1, False), (3, False)), 500, seed=2)
    full = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", BUDGET)
    for k in (3, 7):
        prefix = run_lifelong(stream[0], stream[1 : 1 + k], Strategy.REPLACEMENT,
                              "accuracy", BUDGET)
        assert prefix.per_batch == full.per_batch[:k]


def test_repeated_runs_identical():
    stream = stagger_stream(3_000, (1_500,), ((2, False), (2, True)), 300)
    a = run_lifelong(stream[0], stream[1:], Strategy.BASE, "accuracy", BUDGET)
    b = run_lifelong(stream[0], stream[1:], Strategy.BASE, "accuracy", BUDGET)
    assert a == b
    c = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", BUDGET)
    d = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", BUDGET)
    assert c == d


def test_replacement_detects_and_recovers_after_inversion():
    # short clean stretch (the detector needs a high ceiling before it can
    # register a drop), then big inverted batches: at the adaptation point
    # stored data is mostly post-drift, so the refit must master the
    # inverted concept
    train = generate_stagger(StaggerConfig(300, (), ((1, False),), seed=4))
    warm = generate_stagger(StaggerConfig(100, (), ((1, False),), seed=14))
    inverted = split_stream(
        generate_stagger(StaggerConfig(4_000, (), ((1, True),), seed=5)), 1_000
    )
    stream = [warm] + inverted
    report = run_lifelong(train, stream, Strategy.REPLACEMENT, "accuracy", BUDGET)
    assert len(report.drift_events) >= 1
    first_fire = report.drift_events[0][0]
    assert first_fire == 1  # first inverted batch, detected mid-batch
    assert report.adapt_events[0][1] == "replacement"
    # batches after the adaptation are classified correctly again
    assert all(m >= 0.9 for m in report.per_batch[first_fire + 1 :])


def test_replacement_drift_event_near_midpoint_inversion():
    stream = stagger_stream(8_000, (4_000,), ((1, False), (1, True)), 500, seed=6)
    report = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", BUDGET)
    assert len(report.drift_events) >= 1
    # inversion hits at overall batch 8 = test batch 7; detection within 2 batches
    assert report.drift_events[0][0] in (7, 8)


def test_adapt_replacement_keeps_all_stored_batches():
    stream = stagger_stream(2_000, (), ((1, False),), 250)
    kind, detail, lib = adapt_on(Strategy.REPLACEMENT, initial_library(stream[0]), stream[:4],
                                 stream[4], seed=5)
    assert (kind, detail) == ("replacement", f"library={len(lib)}")
    # the new search held out its validation rows from all five batches
    data = concat_batches(stream[:5])
    _, val_idx = stratified_split(data, BUDGET.validation_fraction, np.random.default_rng(5))
    assert lib.holdout.batch.X.tobytes() == data.X[val_idx].tobytes()
    assert lib.holdout.batch.y.tobytes() == data.y[val_idx].tobytes()


def test_weight_update_prefers_member_matching_new_data():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    val_X = np.linspace(0, 1, 8).reshape(-1, 1)
    val_y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    validation = Batch(schema, val_X, val_y)
    right = np.column_stack([1.0 - val_y, val_y]).astype(float)
    wrong = 1.0 - right
    members = tuple(LibraryMember(TrainedPipeline(None, schema, (), FixedProba(p)), p)
                    for p in (wrong, right))
    lib = ModelLibrary(members, search.Holdout.of(validation), "accuracy")
    _, _, lib = adapt_on(Strategy.WU_LATEST, lib, [validation], validation)
    ensemble = select_ensemble(lib, 5)
    weights = dict(zip(ensemble.member_refs, ensemble.weights))
    assert weights.get(1, 0.0) == max(weights.values())
    assert member_score(lib, lib.members[1]) == 1.0


def test_weight_update_never_retrains():
    stream = stagger_stream(2_500, (), ((2, False),), 250)
    lib = initial_library(stream[0])
    _, _, rescored = adapt_on(Strategy.WU_ALL, lib, [stream[0]], stream[3], seed=1)
    assert len(rescored.members) == len(lib.members)
    assert all(new.pipeline is old.pipeline for new, old in zip(rescored.members, lib.members))


def test_weight_update_same_distribution_is_metric_equivalent():
    stream = stagger_stream(3_000, (), ((1, False),), 300, seed=8)
    old_lib = initial_library(stream[0])
    old_ens = select_ensemble(old_lib, rounds=10, metric="accuracy")
    current = stream[1]
    old_score = score("accuracy", current.y,
                      ensemble_predict_proba(old_ens, old_lib, current))
    _, _, lib = adapt_on(Strategy.WU_LATEST, old_lib, [stream[0]], current, seed=2)
    ensemble = select_ensemble(lib, rounds=10, metric="accuracy")
    assert ensemble.validation_score >= old_score - 1e-9
    # dominant member is unchanged on same-distribution data -> scores agree
    assert ensemble.validation_score == pytest.approx(old_score, abs=1e-9)


def test_weight_update_single_class_validation_degrades_gracefully():
    stream = stagger_stream(2_000, (), ((1, False),), 200)
    single = Batch(stream[1].schema, stream[1].X, np.zeros(len(stream[1]), dtype=int))
    outcome = adapt_on(Strategy.WU_LATEST, initial_library(stream[0]), [stream[0]], single)
    assert outcome == ("degraded", "wu-latest: single-class validation", None)


def test_add_new_grows_library_and_never_scores_worse():
    stream = stagger_stream(4_000, (2_000,), ((1, False), (2, False)), 400, seed=9)
    old_lib = initial_library(stream[0])
    old_ens = select_ensemble(old_lib, rounds=10, metric="accuracy")
    kind, _, lib = adapt_on(Strategy.ADD_NEW, old_lib, stream[:5], stream[5], seed=3,
                            portfolio=default_config_portfolio()[:4])
    grown = len(lib) - len(old_lib)
    assert kind in ("add-new", "wu-all")
    if kind == "add-new":
        assert grown >= 1
    # superset library plus best-prefix selection cannot lose to the old
    # ensemble on the very validation set used for reselection
    new_val = lib.holdout.batch
    old_on_new = score("accuracy", new_val.y,
                       ensemble_predict_proba(old_ens, old_lib, new_val))
    assert select_ensemble(lib, 10, "accuracy").validation_score >= old_on_new - 1e-9


def test_add_new_old_member_can_keep_winning():
    stream = stagger_stream(3_000, (), ((1, False),), 300, seed=10)
    # same-concept batch: the established members stay best
    _, _, lib = adapt_on(Strategy.ADD_NEW, initial_library(stream[0]), [stream[0]], stream[2],
                         seed=4, portfolio=default_config_portfolio()[:2])
    ensemble = select_ensemble(lib, 10, "accuracy")
    old_members = range(3)  # indexes of the original members
    weights = dict(zip(ensemble.member_refs, ensemble.weights))
    best_ref = max(weights, key=weights.get)
    assert best_ref in old_members


def test_add_new_skips_failed_candidates_but_not_bugs(monkeypatch):
    stream = stagger_stream(2_000, (), ((1, False),), 250)
    library = initial_library(stream[0])

    def failing_fit(error):
        def fit(*args, **kwargs):
            raise error
        return fit

    monkeypatch.setattr(search, "fit_stages", failing_fit(FloatingPointError("overflow")))
    kind, detail, _ = adapt_on(Strategy.ADD_NEW, library, stream[:4], stream[4])
    assert (kind, detail) == ("wu-all", f"new=0 library={len(library)}")
    monkeypatch.setattr(search, "fit_stages", failing_fit(TypeError("bug")))
    with pytest.raises(TypeError):
        adapt_on(Strategy.ADD_NEW, library, stream[:4], stream[4])


@pytest.mark.parametrize("dataset", ["stagger", "mixed"])
def test_members_predict_rows_that_share_a_distinct_row_alike(dataset):
    """Members keep one prediction row per distinct holdout row, so rows
    that ``holdout.inverse`` maps together get the same bytes: in libraries
    from a search, a rescoring and an Add-New adaptation, selection equals
    the reference loop, which expands each member's rows to every holdout
    row and scores every row."""
    if dataset == "stagger":
        stream = stagger_stream(2_400, (1_200,), ((1, False), (2, False)), 400, seed=12)
    else:  # rows drawn from 60 distinct ones, about a fifth of the cells NaN, -0.0 or 0.0
        rng = np.random.default_rng(12)
        pool = mixed_rows(60, NARROW, rng, special=True)
        data = Batch(mixed_schema(NARROW), pool[rng.integers(0, 60, 2_400)],
                     rng.integers(0, 3, 2_400))
        stream = split_stream(data, 400)
    portfolio = default_config_portfolio()
    lib = run_search(stream[0], SearchBudget(max_candidates=16, seed=2), portfolio)
    rescored = search.rescore_library(lib, search.Holdout.of(stream[1]))
    kind, _, grown = adapt_on(Strategy.ADD_NEW, lib, stream[:3], stream[3], seed=5,
                              portfolio=portfolio)
    assert kind == "add-new" and len(grown) > len(lib)
    for library in (lib, rescored, grown):
        holdout = library.holdout
        assert len(holdout.distinct) < len(holdout)
        for member in library.members:
            assert len(member.validation_proba) == len(holdout.distinct), member.pipeline.config
        assert repr(select_ensemble(library)) == repr(reference_select_ensemble(library))


def test_base_never_reaches_adapt():
    stream = stagger_stream(1_000, (), ((1, False),), 250)
    with pytest.raises(ValueError):
        adapt_on(Strategy.BASE, initial_library(stream[0]), [stream[0]], stream[1])


@pytest.fixture(scope="module")
def drifting():
    """Three abrupt drifts; every adapting arm fires at test batches 2 and 8."""
    schedule = ((1, False), (1, True), (2, False), (3, False))
    return stagger_stream(3_000, (750, 1_500, 2_250), schedule, 250)


def adapt_events(stream, strategy):
    """The adaptation events of one arm, after checking they line up with
    the drift events (one per drift, indexed by test batch) and that each
    adaptation at test batch ``t`` was handed the stream through that batch,
    byte for byte what concatenating ``stream[: t + 2]`` gives."""
    handed = []

    def recording_adapt(arm, library, data, batch, **kwargs):
        handed.append((data, batch))
        return adapt(arm, library, data, batch, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lifelong, "adapt", recording_adapt)
        report = run_lifelong(stream[0], stream[1:], strategy, "accuracy", BUDGET)
    assert report.drift_events
    assert [t for t, _, _ in report.adapt_events] == [t for t, _ in report.drift_events]
    assert len(handed) == len(report.adapt_events)
    for (t, _, _), (data, batch) in zip(report.adapt_events, handed):
        assert batch is stream[1 + t]
        expected = concat_batches(stream[: t + 2])
        assert data.schema is expected.schema
        assert data.X.tobytes() == expected.X.tobytes()
        assert data.y.tobytes() == expected.y.tobytes()
    return report.adapt_events


@pytest.mark.parametrize("strategy", [Strategy.BASE, Strategy.WU_LATEST])
def test_batch_detector_call_matches_the_per_flag_loop(drifting, strategy, monkeypatch):
    """One ``fhddm_step`` call per test batch gives the report that pushing
    each flag through the per-flag reference gives: Base never resets its
    detector, WU-latest resets it after every adaptation. Each drift event's
    offset is the index of the flag that fired within its batch."""
    fired_at = []

    def per_flag(state, flags):
        state, signal, j = reference_fold(state, flags)
        if j is not None:
            fired_at.append(j)
        return state, signal

    batched = run_lifelong(drifting[0], drifting[1:], strategy, "accuracy", BUDGET)
    monkeypatch.setattr(lifelong, "fhddm_step", per_flag)
    per_flag_report = run_lifelong(drifting[0], drifting[1:], strategy, "accuracy", BUDGET)
    assert batched == per_flag_report
    assert [j for _, j in batched.drift_events] == fired_at
    assert len(fired_at) >= 2


def test_replacement_events_name_the_new_library_size(drifting):
    events = adapt_events(drifting, Strategy.REPLACEMENT)
    expected = ("replacement", f"library={BUDGET.max_candidates}")
    assert [e[1:] for e in events] == [expected] * len(events)


def test_wu_all_events_name_the_capped_stored_rows(drifting):
    events = adapt_events(drifting, Strategy.WU_ALL)
    stored_rows = [sum(len(b) for b in drifting[: t + 2]) for t, _, _ in events]
    assert [e[1:] for e in events] == [
        ("wu-all", f"validation={min(WU_VALIDATION_CAP, rows)}") for rows in stored_rows
    ]


def test_wu_latest_events_name_the_batch_size(drifting):
    events = adapt_events(drifting, Strategy.WU_LATEST)
    assert [e[1:] for e in events] == [
        ("wu-latest", f"validation={len(drifting[1 + t])}") for t, _, _ in events
    ]


def test_add_new_events_count_new_members_and_the_grown_library(drifting):
    size = BUDGET.max_candidates
    for _, kind, detail in adapt_events(drifting, Strategy.ADD_NEW):
        new, total = map(int, re.fullmatch(r"new=(\d+) library=(\d+)", detail).groups())
        assert kind == ("add-new" if new else "wu-all")
        assert total == size + new
        size = total


def test_schema_drift_is_fatal(monkeypatch):
    stream = stagger_stream(1_000, (), ((1, False),), 250)
    other_schema = Schema((Feature("a"),), "y", ("0", "1"))
    alien = Batch(other_schema, np.zeros((10, 1)), np.zeros(10, dtype=int))

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(lifelong, "run_search", no_search)
    with pytest.raises(DataError, match="batch 2"):
        run_lifelong(stream[0], [stream[1], alien], Strategy.BASE, "accuracy", BUDGET)


def test_a_compatible_renamed_schema_still_adapts(drifting):
    """Test batches whose schema matches training's in shape but not in
    names are scored and adapted on exactly like the originals."""
    schema = drifting[0].schema
    renamed = Schema(tuple(Feature(f"renamed_{f.name}", f.levels) for f in schema.features),
                     "label", schema.classes)
    test = [Batch(renamed, b.X, b.y) for b in drifting[1:]]
    report = run_lifelong(drifting[0], test, Strategy.WU_ALL, "accuracy", BUDGET)
    assert report.adapt_events
    assert report == run_lifelong(drifting[0], drifting[1:], Strategy.WU_ALL, "accuracy", BUDGET)


def test_unlabeled_test_batch_rejected():
    stream = stagger_stream(1_000, (), ((1, False),), 250)
    x = stream[1]
    unlabeled = Batch(x.schema, x.X, np.full(len(x), -1))
    with pytest.raises(DataError):
        run_lifelong(stream[0], [unlabeled], Strategy.BASE, "accuracy", BUDGET)


def test_normalized_auc_on_three_classes_fails_before_the_search(monkeypatch):
    schema = Schema((Feature("x"),), "y", ("a", "b", "c"))
    rng = np.random.default_rng(0)
    train = Batch(schema, rng.normal(size=(30, 1)), np.arange(30) % 3)

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("driftml.lifelong.run_search", no_search)
    with pytest.raises(DataError, match="normalized_auc"):
        run_lifelong(train, [], Strategy.BASE, "normalized_auc", BUDGET)


def test_nan_metric_batches_excluded_from_mean():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    rng = np.random.default_rng(0)
    train_X = rng.normal(size=(40, 1))
    train_y = (train_X[:, 0] > 0).astype(int)
    train = Batch(schema, train_X, train_y)
    good = Batch(schema, rng.normal(size=(10, 1)), rng.integers(0, 2, 10))
    single = Batch(schema, rng.normal(size=(10, 1)), np.ones(10, dtype=int))
    report = run_lifelong(train, [good, single], Strategy.BASE, "normalized_auc",
                          SearchBudget(max_candidates=2, seed=0))
    assert math.isnan(report.per_batch[1])
    assert not math.isnan(report.mean_metric)
    assert report.mean_metric == pytest.approx(report.per_batch[0])


def test_stratified_sample_caps_and_keeps_classes():
    schema = Schema((Feature("x"),), "y", ("0", "1"))
    rng = np.random.default_rng(1)
    y = np.array([0] * 900 + [1] * 100)
    data = Batch(schema, rng.normal(size=(1000, 1)), y)
    sample = stratified_sample(data, 100, rng)
    assert len(sample) <= 101
    assert np.unique(sample.y).size == 2
    ratio = (sample.y == 1).mean()
    assert 0.05 <= ratio <= 0.2  # roughly proportional


@pytest.mark.parametrize("counts, cap, drawn", [
    ((14_999, 14_999, 2), 10_000, 10_001),  # the 2-row class keeps a row
    ((7, 7, 6), 10, 11),                    # 3.5 rounds to 4 twice
])
def test_stratified_sample_stays_below_cap_plus_classes(counts, cap, drawn):
    """Each quota is rounded half to even and kept at one or more, so a
    sample can pass ``cap``, but holds fewer than ``cap`` plus the number
    of classes."""
    schema = Schema((Feature("x"),), "y", ("0", "1", "2"))
    y = np.repeat(np.arange(3), counts)
    data = Batch(schema, np.zeros((y.size, 1)), y)
    sample = stratified_sample(data, cap, np.random.default_rng(0))
    assert len(sample) == drawn < cap + len(counts)
    assert np.unique(sample.y).size == len(counts)


def test_strategy_parsing():
    assert Strategy.parse("wu_all") is Strategy.WU_ALL
    assert Strategy.parse("Add-New") is Strategy.ADD_NEW
    with pytest.raises(ValueError):
        Strategy.parse("bagging")


def test_table_lines_shape():
    stream = stagger_stream(1_500, (), ((3, False),), 300)
    report = run_lifelong(stream[0], stream[1:], Strategy.BASE, "accuracy", BUDGET)
    lines = report.table_lines()
    assert lines[0] == "batch\tmetric\tdrift\tadapted"
    assert len(lines) == 1 + len(report.per_batch)
