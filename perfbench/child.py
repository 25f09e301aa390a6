"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

It goes through the same public API as ``driftml run``: ``cli.parse_config``
and ``cli.load_dataset``, then ``data.split_stream``, then
``lifelong.run_lifelong`` once per configured arm, in a replay of the loop
in ``cli.run_experiment`` (which takes no ``phase_hook``). The hook only
records timestamps. The result, a JSON object, goes to ``--out``.

    python3 perfbench/child.py --config C --launched T --out R [--trace] [--families]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import FAMILIES, Tracer  # noqa: E402


# Nominal time of ``calibrate``: a round figure near its time on the 2-core
# machine the bounds were set on (0.07-0.09 s).
CALIBRATION_REF_S = 0.1


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small-array numpy
    calls and a matmul-plus-argsort, the three kinds of work driftml does.

    Every time measured in a repetition is scaled by ``CALIBRATION_REF_S``
    over the calibration times taken around it. This takes out most of the
    drift in machine speed between runs; see README.md, "Calibration".
    """
    rng = np.random.default_rng(0)
    small = rng.random(16)
    big = rng.random((256, 256))
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i & 7
    for _ in range(6_000):
        small = small * 0.5 + 0.25
    for _ in range(12):
        np.argsort(big @ big, axis=1, kind="stable")
    return time.perf_counter() - start


class FailedCandidates(logging.Handler):
    """Counts the "candidate ... failed" warnings of ``driftml.search`` and
    ``driftml.lifelong``; without a handler they reach only Python's
    last-resort stderr output."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        msg = str(record.msg)
        if "candidate" in msg and "failed" in msg:
            self.count += 1


def report_digest(report) -> str:
    """sha256 over the deterministic fields of a ``RunReport``."""
    payload = repr((report.per_batch, report.drift_events, report.adapt_events,
                    report.mean_metric))
    return hashlib.sha256(payload.encode()).hexdigest()


def report_table(cfg, report) -> str:
    """The ``report_<arm>.tsv`` text that ``cli.run_experiment`` writes."""
    normalized = cfg.normalized_text()
    mean = "nan" if math.isnan(report.mean_metric) else f"{report.mean_metric:.6f}"
    return (
        "".join(f"# {line}\n" for line in normalized.rstrip("\n").split("\n"))
        + f"# strategy = {report.strategy}\n"
        + f"# mean_{report.metric} = {mean}\n"
        + "\n".join(report.table_lines()) + "\n"
    )


def malformed(report, n_test: int) -> str | None:
    """Why a report is unusable, or None."""
    if len(report.per_batch) != n_test:
        return f"{len(report.per_batch)} rows for {n_test} test batches"
    low = 0.0 if report.metric == "accuracy" else -1.0
    for i, m in enumerate(report.per_batch):
        if math.isnan(m) and report.metric == "accuracy":
            return f"batch {i}: NaN accuracy"
        if not math.isnan(m) and not low <= m <= 1.0:
            return f"batch {i}: score {m} outside [{low}, 1]"
    return None


def hook_intervals(events, returned: float, started: float) -> dict:
    """Split one arm's hook timestamps into the quantities run.py reports.

    A test batch that did not adapt lasts from its ``predict`` hook to the
    next one (or to the return); an adaptation from its ``adapt`` hook to
    the ``store`` hook of the same batch.
    """
    phases = {"predict": 0.0, "score": 0.0, "reveal": 0.0, "adapt": 0.0, "store": 0.0}
    for (phase, _, t), (_, _, t_next) in zip(events, events[1:] + [(None, None, returned)]):
        phases[phase] += t_next - t
    predicts = [(i, t) for phase, i, t in events if phase == "predict"]
    adapted = {i for phase, i, _ in events if phase == "adapt"}
    ends = [t for _, t in predicts[1:]] + [returned]
    batch_s = [end - t for (i, t), end in zip(predicts, ends) if i not in adapted]
    adapt_start = {i: t for phase, i, t in events if phase == "adapt"}
    adapt_s = [t - adapt_start[i] for phase, i, t in events if phase == "store" and i in adapt_start]
    return {
        "first_model_s": (predicts[0][1] if predicts else returned) - started,
        "batch_s": batch_s,
        "adapt_s": adapt_s,
        "phases": {
            "lifelong.predict_s": phases["predict"],
            "lifelong.score_s": phases["score"],
            "lifelong.detect_s": phases["reveal"],
            "lifelong.adapt_s": phases["adapt"],
            "lifelong.store_s": phases["store"],
        },
    }


def run_arms(cfg, train, test, on_report=None, strategies=None):
    """Replay ``cli.run_experiment``'s loop over arms (``cfg.strategies``
    unless given) with a timestamp hook; one result dict per arm."""
    from driftml import lifelong, search
    from driftml.drift import FhddmState

    budget = search.SearchBudget(
        max_candidates=cfg.max_candidates,
        max_seconds=cfg.max_seconds,
        validation_fraction=cfg.validation_fraction,
        seed=cfg.run_seed,
    )
    detector = FhddmState(cfg.detector_window, cfg.detector_delta)
    arms = []
    for strategy in cfg.strategies if strategies is None else strategies:
        events = []

        def hook(phase, index, _events=events):
            _events.append((phase, index, time.perf_counter()))

        arm = {"arm": strategy.value}
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        try:
            report = lifelong.run_lifelong(
                train, test, strategy, cfg.metric, budget, detector,
                ensemble_rounds=cfg.ensemble_rounds, phase_hook=hook,
            )
        except Exception as exc:  # one failed arm must not hide the others
            arm.update(arm_s=time.perf_counter() - started,
                       error=f"{type(exc).__name__}: {exc}")
            arms.append(arm)
            continue
        returned = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        arm.update(hook_intervals(events, returned, started))
        arm.update(
            arm_s=returned - started,
            cpu_s=(usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
            digest=report_digest(report),
            mean_metric=report.mean_metric,
            error=malformed(report, len(test)),
            adapt_events=sum(kind != "degraded" for _, kind, _ in report.adapt_events),
            degraded_events=sum(kind == "degraded" for _, kind, _ in report.adapt_events),
        )
        if on_report is not None:
            on_report(report)
        arms.append(arm)
    return arms


def initial_families(cfg, train) -> list[str]:
    """Classifier families in the ensemble that ``run_lifelong`` starts from
    (the same deterministic search and selection, run once more)."""
    from driftml import ensemble, pipeline, search

    budget = search.SearchBudget(cfg.max_candidates, cfg.max_seconds,
                                 cfg.validation_fraction, cfg.run_seed)
    lib = search.run_search(train, budget, pipeline.default_config_portfolio(), cfg.metric)
    ens = ensemble.select_ensemble(lib, cfg.ensemble_rounds, cfg.metric)
    names = {type(lib.members[r].pipeline.config.classifier).__name__ for r in ens.member_refs}
    return sorted(FAMILIES[n.replace("Config", "Classifier")] for n in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--families", action="store_true")
    args = parser.parse_args(argv)

    from driftml import cli, data

    failures = FailedCandidates()
    logging.getLogger("driftml").addHandler(failures)
    tracer = Tracer().install() if args.trace else None

    with open(args.config) as fh:
        cfg = cli.parse_config(fh.read())
    dataset = cli.load_dataset(cfg)
    batches = data.split_stream(dataset, cfg.batch_size)
    setup_s = time.monotonic() - args.launched
    train, test = batches[0], batches[1:]

    calibrate()  # warm-up: the first call in a fresh interpreter runs slow
    calibration = [calibrate()]
    arms = []
    for strategy in cfg.strategies:
        arms += run_arms(cfg, train, test, strategies=[strategy])
        calibration.append(calibrate())
        arms[-1]["scale"] = CALIBRATION_REF_S / statistics.fmean(calibration[-2:])
    done = [a for a in arms if "digest" in a]

    result = {
        "setup_s": setup_s,
        "setup_scale": CALIBRATION_REF_S / calibration[0],
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "candidates_failed": failures.count,
        "arms": arms,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(tested_rows=len(arms) * sum(len(b) for b in test))
        for arm in done:
            for key, value in arm["phases"].items():
                layers[key] = layers.get(key, 0.0) + value
        layers["lifelong.adapt_events"] = sum(a["adapt_events"] for a in done)
        layers["lifelong.degraded_events"] = sum(a["degraded_events"] for a in done)
        layers["search.candidates_failed"] = failures.count
        result["layers"] = layers
    if args.families:
        result["families"] = initial_families(cfg, train)

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
