"""Tests of the benchmark's own loop and tracer.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from child import hook_intervals, report_digest, report_table, run_arms  # noqa: E402
from tracer import Tracer  # noqa: E402

from driftml import cli, data  # noqa: E402

TINY = """
[dataset]
kind = stagger
n_instances = 3000
drift_points = 750, 1500, 2250
concepts = 1, 1i, 2, 3
noise_rate = 0.0
seed = 5

[run]
batch_size = 250
strategies = Base, Replacement, WU-all, WU-latest, Add-New
metric = normalized_auc
seed = 5

[budget]
max_candidates = 6
validation_fraction = 0.33
"""


@pytest.fixture(scope="module")
def tiny():
    cfg = cli.parse_config(TINY)
    batches = data.split_stream(cli.load_dataset(cfg), cfg.batch_size)
    return cfg, batches[0], batches[1:]


def test_benchmark_loop_writes_the_cli_report_tables(tiny, tmp_path):
    cfg, train, test = tiny
    cli.run_experiment(cfg, str(tmp_path))
    reports = []
    arms = run_arms(cfg, train, test, on_report=reports.append)
    assert [a["error"] for a in arms] == [None] * len(cfg.strategies)
    for report in reports:
        with open(tmp_path / f"report_{report.strategy}.tsv") as fh:
            assert report_table(cfg, report) == fh.read()


def test_traced_run_gives_the_untraced_digests(tiny):
    cfg, train, test = tiny
    plain = [a["digest"] for a in run_arms(cfg, train, test)]
    tracer = Tracer().install()
    try:
        traced_reports = []
        traced = [a["digest"] for a in run_arms(cfg, train, test, on_report=traced_reports.append)]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert traced == [report_digest(r) for r in traced_reports]
    layers = tracer.layer_metrics(tested_rows=len(cfg.strategies) * sum(len(b) for b in test))
    assert layers["search.run_search_calls"] >= len(cfg.strategies)
    assert layers["ensemble.select_score_calls"] > 0
    assert layers["metrics.auc_calls"] > 0
    assert 0.0 < layers["drift.fed_frac"] <= 1.0


def test_tracer_uninstall_restores_the_program():
    from driftml import classifiers, lifelong

    before = (lifelong.run_search, classifiers.KnnClassifier.fit)
    Tracer().install().uninstall()
    assert (lifelong.run_search, classifiers.KnnClassifier.fit) == before


def test_hook_intervals_split_batches_and_adaptations():
    events = [
        ("predict", 0, 1.0), ("score", 0, 1.1), ("reveal", 0, 1.2), ("store", 0, 1.5),
        ("predict", 1, 2.0), ("score", 1, 2.1), ("reveal", 1, 2.2), ("adapt", 1, 2.5),
        ("store", 1, 4.5),
        ("predict", 2, 5.0), ("score", 2, 5.1), ("reveal", 2, 5.2), ("store", 2, 5.3),
    ]
    out = hook_intervals(events, returned=5.5, started=0.25)
    assert out["first_model_s"] == pytest.approx(0.75)
    assert out["batch_s"] == pytest.approx([1.0, 0.5])  # batch 1 adapted
    assert out["adapt_s"] == pytest.approx([2.0])
    assert out["phases"]["lifelong.adapt_s"] == pytest.approx(2.0)
    assert sum(out["phases"].values()) == pytest.approx(5.5 - 1.0)


def _child(digest, mean):
    arm = {"arm": "Base", "error": None, "digest": digest, "mean_metric": mean,
           "first_model_s": 0.5, "scale": 1.0, "batch_s": [0.1, 0.1], "adapt_s": [],
           "arm_s": 1.0, "cpu_s": 1.0}
    result = {"setup_s": 0.2, "setup_scale": 1.0, "peak_rss_mb": 70.0,
              "arms": [dict(arm), dict(arm, arm="WU-all", adapt_s=[0.3])]}
    return {"traced": False, "result": result, "error": "", "took": 1.0}


@pytest.mark.parametrize("change, correct", [
    ({}, True),
    ({"digest": "0" * 64}, False),
    ({"mean_metric": 0.5}, False),
])
def test_a_report_that_differs_from_the_reference_fails_the_run(change, correct, capsys):
    import json
    from argparse import Namespace

    import run

    ref = run.load_reference()["numeric-csv"]["1"]
    args = Namespace(workload="numeric-csv", seed=1, trace=0, record=False)
    children = []
    for _ in range(3):
        child = _child(ref["Base"]["digest"], ref["Base"]["mean_metric"])
        child["result"]["arms"][1].update(digest=ref["WU-all"]["digest"],
                                          mean_metric=ref["WU-all"]["mean_metric"])
        child["result"]["arms"][0].update(change)
        children.append(child)
    assert run.summarize(args, children) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is correct
    assert out["failed"] == (0 if correct else 3)
