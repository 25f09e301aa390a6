"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two stream
comparisons (synthetic STAGGER, Electricity) dominate the runtime; the
Electricity criterion is skipped with an explicit message when the public
dataset has not been placed under ``data/`` (see README).
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from driftml.cli import parse_config, run_experiment
from driftml.data import Batch, Feature, Schema, UNSEEN, load_csv, split_stream
from driftml.drift import FhddmState, fhddm_step
from driftml.ensemble import select_ensemble
from driftml.lifelong import Strategy, run_lifelong
from driftml.pipeline import (
    DecisionTreeConfig,
    KnnConfig,
    LogisticSgdConfig,
    NaiveBayesConfig,
    PipelineConfig,
    fit,
)
from driftml.search import SearchBudget
from driftml.stagger import StaggerConfig, generate_stagger

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")
ELECTRICITY = os.path.join(HERE, "..", "data", "electricity.csv")


def report_line(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# -- criterion 1: STAGGER qualitative reproduction ---------------------------

@pytest.fixture(scope="module")
def stagger_comparison(tmp_path_factory):
    cfg = parse_config(open(os.path.join(CONFIG_DIR, "stagger.conf")).read())
    cfg.strategies = (
        Strategy.BASE, Strategy.REPLACEMENT, Strategy.WU_ALL, Strategy.WU_LATEST,
    )
    out = str(tmp_path_factory.mktemp("stagger_run"))
    started = time.time()
    reports = run_experiment(cfg, out)
    elapsed = time.time() - started
    return {r.strategy: r for r in reports}, elapsed


def test_criterion_1_stagger_reproduction(stagger_comparison):
    means, elapsed = stagger_comparison
    base = means["Base"].mean_metric
    repl = means["Replacement"].mean_metric
    wu_all = means["WU-all"].mean_metric
    wu_latest = means["WU-latest"].mean_metric

    margin = 100.0 * (repl - base)
    wu_all_gap = 100.0 * abs(wu_all - base)
    wu_latest_gap = 100.0 * abs(wu_latest - base)
    detail = (
        f"Base={100 * base:.2f} Replacement={100 * repl:.2f} "
        f"(margin {margin:+.2f} pts, need >= +15), "
        f"|WU-all-Base|={wu_all_gap:.2f}, |WU-latest-Base|={wu_latest_gap:.2f} "
        f"(need <= 5), runtime {elapsed:.0f}s (need <= 600)"
    )
    ok = margin >= 15.0 and wu_all_gap <= 5.0 and wu_latest_gap <= 5.0 and elapsed <= 600
    report_line("criterion 1 (stagger reproduction)", ok, detail)
    assert margin >= 15.0
    assert wu_all_gap <= 5.0
    assert wu_latest_gap <= 5.0
    assert elapsed <= 600


# -- criterion 2: Electricity ordering ---------------------------------------

@pytest.mark.skipif(
    not os.path.exists(ELECTRICITY),
    reason="public Electricity dataset not present at data/electricity.csv; "
    "see README 'Datasets' for how to obtain it",
)
def test_criterion_2_electricity_ordering():
    started = time.time()
    _, data = load_csv(ELECTRICITY, "class")
    batches = split_stream(data, 1_500)
    budget = SearchBudget(max_candidates=16, seed=42)
    base = run_lifelong(batches[0], batches[1:], Strategy.BASE, "accuracy", budget)
    repl = run_lifelong(batches[0], batches[1:], Strategy.REPLACEMENT, "accuracy", budget)
    elapsed = time.time() - started
    detail = (
        f"Base={100 * base.mean_metric:.2f} "
        f"Replacement={100 * repl.mean_metric:.2f} (need >=), "
        f"runtime {elapsed:.0f}s (need <= 900)"
    )
    ok = repl.mean_metric >= base.mean_metric and elapsed <= 900
    report_line("criterion 2 (electricity ordering)", ok, detail)
    assert repl.mean_metric >= base.mean_metric
    assert elapsed <= 900


# -- criterion 3: FHDDM analytic threshold -----------------------------------

def test_criterion_3_fhddm_threshold():
    state = FhddmState(n=25, delta=1e-7)
    oracle_eps = math.sqrt(math.log(1e7) / 50.0)
    eps_ok = abs(state.epsilon - oracle_eps) < 1e-6

    # brute-force window simulation of the 25-true-then-false stream
    bits = [True] * 25 + [False] * 25
    mu_max, oracle_step = 0.0, None
    for i in range(24, len(bits)):
        mu = sum(bits[i - 24 : i + 1]) / 25.0
        mu_max = max(mu_max, mu)
        if mu_max - mu >= oracle_eps:
            oracle_step = i + 1
            break

    fired_step = None
    st = state
    for i, b in enumerate(bits):
        st, sig = fhddm_step(st, b)
        if sig.drift:
            fired_step = i + 1
            break

    detail = (
        f"epsilon={state.epsilon:.6f} (oracle {oracle_eps:.6f}), "
        f"fired at step {fired_step} = oracle {oracle_step} "
        f"(15th false after 25 true)"
    )
    ok = eps_ok and fired_step == oracle_step == 40
    report_line("criterion 3 (FHDDM threshold)", ok, detail)
    assert eps_ok
    assert fired_step == oracle_step == 40


# -- criterion 4: ensemble selection equals the exhaustive oracle ------------

def test_criterion_4_selection_oracle_equivalence():
    from conftest import stub_library
    from driftml.metrics import score

    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        n_members = int(rng.integers(1, 5))
        n_rows = int(rng.integers(2, 7))
        y = rng.integers(0, 2, n_rows)
        probas = []
        for _ in range(n_members):
            raw = rng.random((n_rows, 2)) + 1e-9
            probas.append(raw / raw.sum(axis=1, keepdims=True))
        rounds = int(rng.integers(1, 4))
        lib = stub_library(probas, y)
        ens = select_ensemble(lib, rounds=rounds)

        # step-wise exhaustive oracle
        running = np.zeros_like(probas[0])
        trace, scores = [], []
        for r in range(1, rounds + 1):
            cand = [score("accuracy", y, (running + p) / r) for p in probas]
            best = int(np.argmax(cand))
            trace.append(best)
            scores.append(cand[best])
            running += probas[best]
        best_len = int(np.argmax(scores)) + 1

        assert list(ens.selection_trace) == trace[:best_len]
        best_single = max(m.validation_score for m in lib.members)
        assert ens.validation_score >= best_single - 1e-12
        checked += 1

    report_line(
        "criterion 4 (selection oracle)",
        True,
        f"{checked}/200 randomized libraries match the step-wise oracle; "
        f"ensemble >= best member in all of them",
    )


# -- criterion 5: invariant suites -------------------------------------------

def test_criterion_5a_probability_rows_fuzz():
    rng = np.random.default_rng(77)
    schema = Schema(
        (Feature("n1"), Feature("n2"), Feature("c", ("a", "b", "c", "d"))),
        "y", ("0", "1", "2"),
    )
    configs = [
        PipelineConfig(classifier=DecisionTreeConfig(max_depth=10)),
        PipelineConfig(one_hot=True, classifier=NaiveBayesConfig(0.3)),
        PipelineConfig(standardize=True, one_hot=True,
                       classifier=LogisticSgdConfig(epochs=8)),
        PipelineConfig(standardize=True, classifier=KnnConfig(k=7)),
    ]
    rows = 0
    for trial in range(10):
        n = int(rng.integers(25, 70))
        X = np.column_stack([
            rng.normal(size=n) * rng.uniform(0.1, 10),
            rng.normal(size=n),
            rng.integers(0, 4, n).astype(float),
        ])
        X[rng.random((n, 3)) < 0.15] = np.nan
        y = rng.integers(0, 3, n)
        if np.unique(y).size < 2:
            y[:2] = [0, 1]
        train = Batch(schema, X, y)
        probe_X = X[::-1].copy()
        probe_X[rng.random(n) < 0.1, 2] = UNSEEN
        probe = Batch(schema, probe_X, y)
        for cfg in configs:
            proba = fit(cfg, train, seed=trial).predict_proba(probe)
            assert np.all(proba >= 0)
            assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
            rows += n
    report_line("criterion 5a (probability rows)", True,
                f"{rows} fuzzed rows, all sum to 1 +- 1e-9")


def test_criterion_5b_detector_never_fires_early_or_on_constants():
    rng = np.random.default_rng(88)
    for n in (5, 25, 60):
        st = FhddmState(n=n)
        for i in range(n - 1):
            st, sig = fhddm_step(st, bool(rng.integers(0, 2)))
            assert not sig.drift  # window not yet full
    for value in (True, False):
        st = FhddmState()
        for _ in range(500):
            st, sig = fhddm_step(st, value)
            assert not sig.drift
    report_line("criterion 5b (detector safety)", True,
                "no pre-window or constant-stream firing in 3 window sizes")


def test_criterion_5c_truncation_equivalence():
    data = generate_stagger(
        StaggerConfig(6_000, (3_000,), ((1, False), (1, True)), seed=3)
    )
    stream = split_stream(data, 500)
    budget = SearchBudget(max_candidates=6, seed=5)
    full = run_lifelong(stream[0], stream[1:], Strategy.REPLACEMENT, "accuracy", budget)
    for k in (2, 5, 9):
        prefix = run_lifelong(stream[0], stream[1 : 1 + k], Strategy.REPLACEMENT,
                              "accuracy", budget)
        assert prefix.per_batch == full.per_batch[:k]
    report_line("criterion 5c (causality)", True,
                "per-batch scores unchanged under stream truncation (k=2,5,9)")


def test_criterion_5d_full_runs_byte_identical(tmp_path):
    text = open(os.path.join(CONFIG_DIR, "stagger.conf")).read()
    cfg = parse_config(text)
    cfg.n_instances = 4_000
    cfg.drift_points = (2_000,)
    cfg.concepts = ((1, False), (1, True))
    cfg.batch_size = 500
    cfg.max_candidates = 6
    files = ("report_Base.tsv", "report_Replacement.tsv", "report_WU-all.tsv",
             "report_WU-latest.tsv", "report_Add-New.tsv", "comparison.tsv",
             "config.normalized.txt")
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    for name in files:
        a = open(tmp_path / "a" / name, "rb").read()
        b = open(tmp_path / "b" / name, "rb").read()
        assert a == b, f"{name} differs between identical runs"
    report_line("criterion 5d (determinism)", True,
                f"{len(files)} report files byte-identical across reruns")


# -- criterion 6: generator analytics ----------------------------------------

def test_criterion_6_stagger_analytics():
    n = 10_000
    rates = {}
    for concept_id, p in ((1, 1 / 9), (2, 5 / 9), (3, 2 / 3)):
        batch = generate_stagger(StaggerConfig(n, (), ((concept_id, False),), seed=60))
        rate = float(batch.y.mean())
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) <= 3 * sigma, (concept_id, rate, p)
        rates[concept_id] = rate

    def rule(cid, s, c, h):
        if cid == 1:
            return s == 0 and c == 0
        if cid == 2:
            return c == 1 or h == 1
        return s in (1, 2)

    for cid in (1, 2, 3):
        batch = generate_stagger(StaggerConfig(4_000, (), ((cid, False),), seed=61))
        seen = set()
        for i in range(len(batch)):
            s, c, h = (int(v) for v in batch.X[i])
            seen.add((s, c, h))
            assert batch.y[i] == int(rule(cid, s, c, h))
        assert seen == set(itertools.product(range(3), repeat=3))

    report_line(
        "criterion 6 (generator analytics)", True,
        f"balance C1={rates[1]:.4f}~1/9 C2={rates[2]:.4f}~5/9 C3={rates[3]:.4f}~2/3 "
        f"within 3 sigma at N=10k; all 27 feature combinations labeled per rule",
    )
