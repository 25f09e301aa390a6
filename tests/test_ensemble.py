import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftml.ensemble import (
    EnsembleError,
    EnsembleModel,
    ensemble_predict_proba,
    select_ensemble,
)
from driftml.metrics import METRICS, NORMALIZED_AUC, score

from conftest import member_score, stub_library
from test_metrics import reference_score


def reference_select_ensemble(lib, rounds=50, metric=None):
    """The per-member selection loop that ``select_ensemble`` replaced, kept
    verbatim (checks aside) except that ``reference_score`` scores every
    candidate mix on every row, each member's distinct-row predictions
    expanded to every row by ``holdout.inverse``."""
    metric = lib.metric if metric is None else metric
    y, inverse = lib.holdout.batch.y, lib.holdout.inverse
    probas = [np.asarray(m.validation_proba, dtype=np.float64)[inverse] for m in lib.members]

    trace: list[int] = []
    prefix_scores: list[float] = []
    running = np.zeros_like(probas[0])
    for r in range(1, rounds + 1):
        best_idx = -1
        best_score = -math.inf
        for i, p in enumerate(probas):
            s = reference_score(metric, y, (running + p) / r)
            if not math.isnan(s) and s > best_score:
                best_idx, best_score = i, s
        if best_idx < 0:  # every candidate scored NaN; keep the lowest index
            best_idx, best_score = 0, float("nan")
        trace.append(best_idx)
        prefix_scores.append(best_score)
        running += probas[best_idx]

    finite = [(s if not math.isnan(s) else -math.inf) for s in prefix_scores]
    best_len = int(np.argmax(finite)) + 1  # earliest best prefix
    kept = trace[:best_len]
    refs = sorted(set(kept))
    weights = tuple(kept.count(i) / best_len for i in refs)
    return EnsembleModel(
        member_refs=tuple(refs),
        weights=weights,
        rounds=best_len,
        selection_trace=tuple(kept),
        validation_score=prefix_scores[best_len - 1],
    )


def greedy_oracle(probas, y, rounds, metric="accuracy"):
    """Step-wise exhaustive reference: at every round scan all members."""
    probas = [np.asarray(p, dtype=float) for p in probas]
    running = np.zeros_like(probas[0])
    trace, scores = [], []
    for r in range(1, rounds + 1):
        best, best_s = None, -math.inf
        for i, p in enumerate(probas):
            s = score(metric, y, (running + p) / r)
            if not math.isnan(s) and s > best_s:
                best, best_s = i, s
        if best is None:
            best, best_s = 0, float("nan")
        trace.append(best)
        scores.append(best_s)
        running += probas[best]
    finite = [(-math.inf if math.isnan(s) else s) for s in scores]
    best_len = int(np.argmax(finite)) + 1
    return trace, scores, best_len


def test_single_member_library():
    probas = [np.array([[0.9, 0.1], [0.2, 0.8]])]
    lib = stub_library(probas, [0, 1])
    ens = select_ensemble(lib, rounds=5)
    assert ens.member_refs == (0,)
    assert ens.weights == (1.0,)


def test_identical_members_tie_to_lower_index():
    p = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
    lib = stub_library([p, p.copy()], [0, 1, 0])
    ens = select_ensemble(lib, rounds=4)
    assert set(ens.selection_trace) == {0}


def test_exhaustive_oracle_on_three_member_fixture():
    # fixture chosen so that greedy (with the best-prefix rule) matches the
    # global optimum over every multiset of size <= 3
    y = [0, 1, 0, 1, 1, 0]
    rng = np.random.default_rng(3)
    probas = []
    for _ in range(3):
        raw = rng.random((6, 2))
        probas.append(raw / raw.sum(axis=1, keepdims=True))
    lib = stub_library(probas, y)
    ens = select_ensemble(lib, rounds=3)

    best_score = -math.inf
    for size in (1, 2, 3):
        for combo in itertools.product(range(3), repeat=size):
            mix = sum(probas[i] for i in combo) / size
            best_score = max(best_score, score("accuracy", np.array(y), mix))
    assert ens.validation_score == pytest.approx(best_score, abs=1e-12)


def test_greedy_matches_stepwise_oracle_randomized():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n_members = int(rng.integers(1, 5))
        n_rows = int(rng.integers(2, 7))
        n_classes = int(rng.integers(2, 4))
        y = rng.integers(0, n_classes, n_rows)
        probas = []
        for _ in range(n_members):
            raw = rng.random((n_rows, n_classes)) + 1e-6
            probas.append(raw / raw.sum(axis=1, keepdims=True))
        rounds = int(rng.integers(1, 4))
        lib = stub_library(probas, y)
        ens = select_ensemble(lib, rounds=rounds)
        trace, scores, best_len = greedy_oracle(probas, y, rounds)
        assert list(ens.selection_trace) == trace[:best_len]
        assert ens.rounds == best_len
        # the guarantee: never below the best single member
        best_single = max(member_score(lib, m) for m in lib.members)
        assert ens.validation_score >= best_single - 1e-12


def test_weights_reconstructible_from_trace():
    rng = np.random.default_rng(23)
    probas = [rng.dirichlet(np.ones(3), size=8) for _ in range(4)]
    lib = stub_library(probas, rng.integers(0, 3, 8))
    ens = select_ensemble(lib, rounds=7)
    assert abs(sum(ens.weights) - 1.0) < 1e-9
    assert all(w > 0 for w in ens.weights)
    for ref, w in zip(ens.member_refs, ens.weights):
        assert w == ens.selection_trace.count(ref) / ens.rounds


def test_selection_deterministic():
    rng = np.random.default_rng(29)
    probas = [rng.dirichlet(np.ones(2), size=10) for _ in range(5)]
    lib = stub_library(probas, rng.integers(0, 2, 10))
    a = select_ensemble(lib, rounds=6)
    b = select_ensemble(lib, rounds=6)
    assert a == b


def test_prediction_arithmetic():
    ones = np.array([[1.0, 0.0]] * 3)
    zeros = np.array([[0.0, 1.0]] * 3)
    lib = stub_library([ones, zeros], [0, 0, 1])
    batch = lib.holdout.batch
    even = EnsembleModel((0, 1), (0.5, 0.5), 2, (0, 1))
    assert np.allclose(ensemble_predict_proba(even, lib, batch), 0.5)
    skew = EnsembleModel((0, 1), (0.75, 0.25), 4, (0, 0, 0, 1))
    mixed = ensemble_predict_proba(skew, lib, batch)
    assert np.allclose(mixed[:, 0], 0.75)
    assert np.allclose(mixed[:, 1], 0.25)


def test_single_member_prediction_identity(numeric_schema):
    import driftml.pipeline as pl
    from conftest import make_batch
    from driftml.search import Holdout, LibraryMember, ModelLibrary

    train = make_batch(numeric_schema, [[0, 0], [1, 1], [5, 5], [6, 6]], [0, 0, 1, 1])
    model = pl.fit(pl.PipelineConfig(), train, 0)
    proba = model.predict_proba(train)
    member = LibraryMember(model, proba)
    lib = ModelLibrary((member,), Holdout.of(train), "accuracy")
    ens = EnsembleModel((0,), (1.0,), 1, (0,))
    assert np.array_equal(ensemble_predict_proba(ens, lib, train), proba)
    assert np.array_equal(ensemble_predict_proba(ens, lib, train).argmax(axis=1), train.y)


def test_argmax_tie_breaks_low():
    half = np.full((2, 2), 0.5)
    lib = stub_library([half], [0, 1])
    ens = EnsembleModel((0,), (1.0,), 1, (0,))
    # the predicted class is argmax with ties to class 0
    proba = ensemble_predict_proba(ens, lib, lib.holdout.batch)
    assert proba.argmax(axis=1).tolist() == [0, 0]


def test_errors():
    probas = [np.array([[1.0, 0.0]])]
    lib = stub_library(probas, [0])
    with pytest.raises(EnsembleError):
        select_ensemble(lib, rounds=0)
    dangling = EnsembleModel((1,), (1.0,), 1, (1,))  # one past the last member
    with pytest.raises(EnsembleError):
        ensemble_predict_proba(dangling, lib, lib.holdout.batch)
    from driftml.search import ModelLibrary

    empty = ModelLibrary((), lib.holdout, "accuracy")
    with pytest.raises(EnsembleError):
        select_ensemble(empty, rounds=1)
    with pytest.raises(EnsembleError):
        EnsembleModel((0, 1), (0.5, 0.6), 2, (0, 1))  # weights do not sum to 1
    with pytest.raises(ValueError, match="unknown metric"):
        select_ensemble(lib, rounds=1, metric="f1")
    three_classes = stub_library([np.full((2, 3), 1 / 3)], [0, 1], NORMALIZED_AUC)
    with pytest.raises(ValueError, match="binary"):
        select_ensemble(three_classes, rounds=1)
    no_rows = stub_library([np.empty((0, 2))], np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty holdout"):
        select_ensemble(no_rows, rounds=1)


@st.composite
def libraries(draw):
    """Tie-heavy random libraries: members predict row patterns, so
    validation rows repeat (with differing labels), and probabilities come
    from a coarse grid, so members and their mixes tie between classes.
    Accuracy libraries have 2-5 classes. Up to 300 rows of up to 300
    patterns give up to hundreds of scoring columns, and up to 60 rounds.
    Sometimes one class only, or NaN and inf probabilities."""
    metric = draw(st.sampled_from(METRICS))
    n_classes = 2 if metric == NORMALIZED_AUC else draw(st.integers(2, 5))
    n_members, n_patterns = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    n_rows, rounds = draw(st.integers(1, 300)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.array([0.0, 0.2, 0.25, 0.5, 0.75, 1.0])
    patterns = grid[rng.integers(0, grid.size, (n_members, n_patterns, n_classes))]
    if draw(st.integers(0, 3)) == 0:  # repeats with every row of its pattern
        n_bad = draw(st.integers(1, 3))
        patterns.flat[rng.integers(0, patterns.size, n_bad)] = rng.choice(
            [np.nan, np.inf, -np.inf], n_bad)
    probas = patterns[:, rng.integers(0, n_patterns, n_rows)]
    y = rng.integers(0, n_classes, n_rows)
    if draw(st.booleans()):
        y[:] = y[0]
    return stub_library(list(probas), y, metric), rounds


# NaN class-1 scores on repeated rows with both labels: each such row ranks
# by its position, so these rows must not be merged
NAN_REPEATS = np.array([[0.5, np.nan], [0.2, 0.8], [0.5, np.nan], [0.3, 0.7], [0.5, np.nan]])

# each member alone is right on one row of two; their mix is right on both,
# so the second round scores 1.0 and selection stops there, of 6 rounds
PERFECT_MIX = [np.array([[0.9, 0.1], [0.6, 0.4]]), np.array([[0.4, 0.6], [0.1, 0.9]])]


# accuracy libraries whose members and mixes tie between classes: the
# binary mix of the two members is 0.5/0.5 on every row, and each 3-class
# member ties two classes on every row
TIED_BINARY = [np.array([[0.25, 0.75], [0.25, 0.75], [0.75, 0.25]]),
               np.array([[0.75, 0.25], [0.75, 0.25], [0.25, 0.75]])]
TIED_THREE = [np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
              np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])]


# planes holding inf: a mix of inf and -inf is NaN from the second round on
INF_PLANES = [np.array([[0.0, np.inf], [0.5, 0.5], [0.2, -np.inf]]),
              np.array([[0.1, -np.inf], [0.5, 0.5], [0.3, 0.4]])]


# round 2 mixes member 1's class-1 entry 0.0 with -5e-324 into -0.0, which
# ties 0.0: a tie that lifts member 1's AUC above member 0's
NEGATIVE_ZERO = [np.array([[0.5, -5e-324], [0.5, 0.0], [0.5, 0.3]]), np.full((3, 2), [0.5, 0.0])]


def wide_library(n_classes, n_rows=1_100):
    """Three members with distinct rows: more scoring columns than one
    pass of the accuracy kernel takes."""
    rng = np.random.default_rng(n_classes)
    probas = [rng.dirichlet(np.ones(n_classes), n_rows) for _ in range(3)]
    return stub_library(probas, rng.integers(0, n_classes, n_rows))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=300)
@given(libraries())
@example((stub_library(INF_PLANES, [1, 0, 1], NORMALIZED_AUC), 4))
@example((stub_library(INF_PLANES, [1, 0, 0]), 4))
@example((stub_library(PERFECT_MIX, [1, 1], NORMALIZED_AUC), 3))  # one class: every score NaN
@example((stub_library(NEGATIVE_ZERO, [1, 0, 1], NORMALIZED_AUC), 3))
@example((wide_library(2), 6))
@example((wide_library(4), 6))
@example((stub_library([NAN_REPEATS], [1, 0, 0, 1, 1], NORMALIZED_AUC), 1))
@example((stub_library([NAN_REPEATS], [1, 0, 0, 1, 0], NORMALIZED_AUC), 1))  # NaN ranks by row
@example((stub_library(PERFECT_MIX, [0, 1]), 6))
@example((stub_library(TIED_BINARY, [0, 1, 1]), 4))
@example((stub_library(TIED_THREE, [1, 2, 0]), 4))
@example((stub_library(TIED_THREE, [0, 1, 2]), 4))
def test_select_ensemble_equals_the_per_member_loop(case):
    lib, rounds = case
    # repr compares the NaN validation score of an all-NaN selection too
    assert repr(select_ensemble(lib, rounds)) == repr(reference_select_ensemble(lib, rounds))
