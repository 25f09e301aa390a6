"""The forked lockstep worker of ``pipeline.fit_classifiers``: the same
bytes as the serial path, typed errors, and no process left behind."""

import os
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftml import pipeline
from driftml.classifiers import LogisticSgdClassifier
from driftml.data import Batch, Feature, Schema, split_stream
from driftml.lifelong import Strategy, run_lifelong
from driftml.pipeline import (
    DecisionTreeConfig,
    LogisticSgdConfig,
    NaiveBayesConfig,
    PipelineConfig,
    PipelineError,
    fit_classifiers,
)
from driftml.search import Holdout, SearchBudget, evaluate_candidates, stratified_split
from driftml.stagger import StaggerConfig, generate_stagger

REAL_FORK = os.fork
PARENT = os.getpid()


@contextmanager
def worker(on: bool):
    """The worker forced on at every size and CPU count, or off; yields the
    number of forks made so far, as a one-item list."""
    forks = [0]

    def counting_fork():
        forks[0] += 1
        return REAL_FORK()

    with mock.patch.object(pipeline, "FORK_MIN_ROWS", 0 if on else 10**9), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
            mock.patch.object(os, "fork", counting_fork):
        yield forks
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_worker():
    return os.getpid() != PARENT


def labels_batch(y, n_classes):
    schema = Schema((Feature("x"),), "y", tuple(str(c) for c in range(n_classes)))
    return Batch(schema, np.zeros((len(y), 1)), np.asarray(y))


@st.composite
def lockstep_groups(draw):
    """2-3 lockstep groups of distinct widths over one set of labels, with
    1-3 models each, their epochs, learning rates, ``l2`` and seeds drawn,
    and a tree and naive Bayes fitted alongside."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([5, 32, 33, 150]))
    n_classes = draw(st.integers(2, 4))
    y = rng.integers(0, n_classes, n)
    y[:n_classes] = np.arange(n_classes)
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True))
    configs, matrices = [], []
    for d in widths:
        X = rng.normal(size=(n, d))
        for _ in range(draw(st.integers(1, 3))):
            configs.append(PipelineConfig(classifier=LogisticSgdConfig(
                learning_rate=draw(st.sampled_from([0.003, 0.1, 0.9])),
                l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
                epochs=draw(st.integers(1, 6)))))
            matrices.append(X)
    configs += [PipelineConfig(classifier=DecisionTreeConfig(max_depth=3)),
                PipelineConfig(classifier=NaiveBayesConfig())]
    matrices += [matrices[0], matrices[-1]]
    order = draw(st.permutations(range(len(configs))))
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in configs]
    return ([configs[i] for i in order], [matrices[i] for i in order],
            labels_batch(y, n_classes), seeds)


@settings(max_examples=30)
@given(lockstep_groups())
def test_the_worker_gives_the_serial_bytes(case):
    configs, matrices, train, seeds = case
    with worker(on=False) as forks:
        serial = fit_classifiers(configs, matrices, train, seeds)
    assert forks == [0]
    with worker(on=True) as forks:
        forked = fit_classifiers(configs, matrices, train, seeds)
    assert forks == [1]
    for ours, its in zip(forked, serial, strict=True):
        if isinstance(ours, LogisticSgdClassifier):
            assert ours.W_.tobytes() == its.W_.tobytes()
            assert ours.b_.tobytes() == its.b_.tobytes()
            assert ours.W_.flags.c_contiguous and ours.W_.flags.writeable


def test_a_replacement_run_is_the_same_with_the_worker_on_and_off():
    data = generate_stagger(StaggerConfig(2_400, (1_200,), ((1, False), (1, True)), seed=3))
    stream = split_stream(data, 300)
    budget = SearchBudget(max_candidates=12, seed=5)  # the portfolio: two lockstep groups
    with worker(on=False) as forks:
        serial = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", budget)
    assert forks == [0]
    with worker(on=True) as forks:
        forked = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", budget)
    assert serial.adapt_events and forks[0] == 1 + len(serial.adapt_events)
    assert forked == serial


def stagger_parts():
    """A STAGGER fit batch and holdout, and candidates in two lockstep
    groups: two one-hot models (12 columns, 5 epochs: this process's share)
    and two plain ones (3 columns, 3 epochs: the worker's), one of which
    has learning rate 0.9."""
    data = generate_stagger(StaggerConfig(n_instances=400, seed=2))
    fit_idx, val_idx = stratified_split(data, 0.33, np.random.default_rng(0))
    configs = [PipelineConfig(one_hot=True, classifier=LogisticSgdConfig(learning_rate=r, epochs=5))
               for r in (0.1, 0.3)]
    configs += [PipelineConfig(classifier=LogisticSgdConfig(learning_rate=r, epochs=3))
                for r in (0.3, 0.9)]
    configs.append(PipelineConfig(classifier=DecisionTreeConfig(max_depth=3)))
    return list(enumerate(configs)), data.take(fit_idx), Holdout.of(data.take(val_idx))


def test_a_candidate_error_in_the_worker_skips_only_its_candidate(monkeypatch, caplog):
    candidates, fit_batch, holdout = stagger_parts()
    lockstep = pipeline.fit_logistic_sgd

    def fails_at_rate_0_9(models, *args):
        if any(model.learning_rate == 0.9 for model in models):
            raise PipelineError("in the worker" if in_worker() else "alone")
        return lockstep(models, *args)

    with worker(on=False):
        serial = evaluate_candidates(candidates, fit_batch, holdout, seed=7)
    monkeypatch.setattr(pipeline, "fit_logistic_sgd", fails_at_rate_0_9)
    with worker(on=True) as forks:
        members = evaluate_candidates(candidates, fit_batch, holdout, seed=7)
    assert forks == [1]  # the grouped fit forked; each candidate alone ran serially
    assert [m.pipeline.config for m in members] == [c for i, c in candidates if i != 3]
    for member, alone in zip(members, [m for i, m in enumerate(serial) if i != 3]):
        assert member.validation_proba.tobytes() == alone.validation_proba.tobytes()
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert failed == ["candidate 3 failed: alone"]

    with worker(on=True), pytest.raises(PipelineError, match="in the worker") as raised:
        fit_classifiers([c for _, c in candidates], [fit_batch.X[:, :2]] * 2 + [fit_batch.X] * 3,
                        fit_batch, range(5))
    assert any("lockstep worker" in note for note in raised.value.__notes__)


def test_a_bug_in_the_worker_fails_the_search(monkeypatch):
    candidates, fit_batch, holdout = stagger_parts()
    lockstep = pipeline.fit_logistic_sgd

    def bug_in_worker(models, *args):
        if in_worker():
            raise RuntimeError("bug")
        return lockstep(models, *args)

    monkeypatch.setattr(pipeline, "fit_logistic_sgd", bug_in_worker)
    with worker(on=True), pytest.raises(RuntimeError, match="bug"):
        evaluate_candidates(candidates, fit_batch, holdout, seed=7)


def test_a_worker_that_dies_without_a_result_fails_the_search(monkeypatch):
    candidates, fit_batch, holdout = stagger_parts()
    lockstep = pipeline.fit_logistic_sgd

    def worker_dies(models, *args):
        if in_worker():
            os._exit(3)
        return lockstep(models, *args)

    monkeypatch.setattr(pipeline, "fit_logistic_sgd", worker_dies)
    with worker(on=True), pytest.raises(RuntimeError, match="exited with code 3"):
        evaluate_candidates(candidates, fit_batch, holdout, seed=7)


def test_the_worker_is_killed_and_reaped_when_this_process_fails(monkeypatch):
    candidates, fit_batch, holdout = stagger_parts()

    def worker_sleeps_parent_fails(models, *args):
        if in_worker():
            time.sleep(60)
        raise TypeError("bug in this process")

    monkeypatch.setattr(pipeline, "fit_logistic_sgd", worker_sleeps_parent_fails)
    started = time.perf_counter()
    with worker(on=True) as forks, pytest.raises(TypeError):
        evaluate_candidates(candidates, fit_batch, holdout, seed=7)
    assert forks == [1]
    assert time.perf_counter() - started < 30


def refuse_fork():
    raise AssertionError("a serial fit forked")


@pytest.mark.parametrize("fallback", ["one group", "small batch", "one CPU", "no fork",
                                      "another thread"])
def test_each_serial_fallback_starts_no_process(monkeypatch, fallback):
    candidates, fit_batch, holdout = stagger_parts()
    if fallback == "another thread":
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    if fallback == "one group":
        candidates = [(i, c) for i, c in candidates if not c.one_hot]
    monkeypatch.setattr(pipeline, "FORK_MIN_ROWS",
                        len(fit_batch) + 1 if fallback == "small batch" else 0)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if fallback == "one CPU" else {0, 1}, raising=False)
    if fallback == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refuse_fork)
    members = evaluate_candidates(candidates, fit_batch, holdout, seed=7)
    assert len(members) == len(candidates)
    assert_no_child_left()
