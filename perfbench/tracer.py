"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public driftml functions and classifier methods
with wrappers that record one span per call: name, parent span, start, end
and rows handled. Each wrapper is set on the name the caller looks up (a
``from .search import run_search`` in ``lifelong`` is patched as
``driftml.lifelong.run_search``), so the program itself is unchanged.
Spans stay in memory; ``layer_metrics`` folds them into the per-layer
metrics once the traced repetition ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

FAMILIES = {
    "DecisionTreeClassifier": "decision_tree",
    "NaiveBayesClassifier": "naive_bayes",
    "LogisticSgdClassifier": "logistic_sgd",
    "KnnClassifier": "knn",
}

# (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    [
        ("data.load_csv_s", "s"),
        ("data.split_stream_s", "s"),
        ("data.concat_calls", "count"),
        ("data.concat_rows", "rows"),
        ("data.concat_s", "s"),
        ("stagger.generate_s", "s"),
    ]
    + [
        (f"classifiers.{family}.{what}", unit)
        for family in FAMILIES.values()
        for what, unit in (
            ("fit_calls", "count"), ("fit_rows", "rows"), ("fit_s", "s"),
            ("predict_calls", "count"), ("predict_rows", "rows"), ("predict_s", "s"),
        )
    ]
    + [
        ("pipeline.fit_calls", "count"),
        ("pipeline.fit_self_s", "s"),
        ("pipeline.predict_calls", "count"),
        ("pipeline.predict_self_s", "s"),
        ("search.run_search_calls", "count"),
        ("search.run_search_s", "s"),
        ("search.candidates_attempted", "count"),
        ("search.candidates_failed", "count"),
        ("search.rescore_calls", "count"),
        ("search.rescore_rows", "rows"),
        ("search.rescore_s", "s"),
        ("ensemble.select_calls", "count"),
        ("ensemble.select_s", "s"),
        ("ensemble.select_score_calls", "count"),
        ("ensemble.kept_rounds_frac", "ratio"),
        ("ensemble.predict_calls", "count"),
        ("ensemble.predict_s", "s"),
        ("drift.step_calls", "count"),
        ("drift.step_s", "s"),
        ("drift.fires", "count"),
        ("drift.fed_frac", "ratio"),
        ("metrics.score_calls", "count"),
        ("metrics.score_s", "s"),
        ("metrics.auc_calls", "count"),
        ("metrics.auc_s", "s"),
        ("lifelong.predict_s", "s"),
        ("lifelong.score_s", "s"),
        ("lifelong.detect_s", "s"),
        ("lifelong.adapt_s", "s"),
        ("lifelong.store_s", "s"),
        ("lifelong.adapt_events", "count"),
        ("lifelong.degraded_events", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _rows_arg(position):
    """Row count of the positional argument at ``position``."""
    return lambda args, kwargs, result: len(args[position])


def _rows_result(args, kwargs, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end, rows)
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, rows=None, observe=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                n = rows(args, kwargs, result) if rows and result is not None else 0
                tracer.spans[index] = (name, parent, start, end, n)
                if observe and result is not None:
                    observe(tracer.counts, args, kwargs, result)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        from driftml import classifiers, cli, data, ensemble, lifelong, metrics, pipeline, search

        self.wrap(cli, "load_csv", "data.load_csv")
        self.wrap(data, "split_stream", "data.split_stream")
        self.wrap(lifelong, "concat_batches", "data.concat", rows=_rows_result)
        self.wrap(cli, "generate_stagger", "stagger.generate")
        for cls_name, family in FAMILIES.items():
            cls = getattr(classifiers, cls_name)
            self.wrap(cls, "fit", f"classifiers.{family}.fit", rows=_rows_arg(1))
            self.wrap(cls, "predict_proba", f"classifiers.{family}.predict", rows=_rows_arg(1))
        self.wrap(search, "fit", "pipeline.fit")
        self.wrap(pipeline.TrainedPipeline, "predict_proba", "pipeline.predict")
        self.wrap(lifelong, "run_search", "search.run_search")
        self.wrap(search, "evaluate_candidate", "search.evaluate_candidate")
        self.wrap(lifelong, "rescore_library", "search.rescore", rows=_rows_arg(1))
        self.wrap(lifelong, "select_ensemble", "ensemble.select", observe=_observe_select)
        self.wrap(lifelong, "ensemble_predict_proba", "ensemble.predict")
        self.wrap(lifelong, "fhddm_step", "drift.step", observe=_observe_step)
        for module in (lifelong, ensemble, search):
            self.wrap(module, "score", "metrics.score")
        self.wrap(metrics, "auc", "metrics.auc")
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, tested_rows: int) -> dict:
        """Per-layer metrics (without the ``lifelong``, failure-count and
        overhead entries, which the caller measures) from the recorded
        spans."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        rows = defaultdict(int)
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        select_scores = 0
        for i, (name, parent, start, end, n) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_s[i]
            rows[name] += n
            if name == "metrics.score" and parent >= 0 and self.spans[parent][0] == "ensemble.select":
                select_scores += 1

        out = {
            "data.load_csv_s": total["data.load_csv"],
            "data.split_stream_s": total["data.split_stream"],
            "data.concat_calls": calls["data.concat"],
            "data.concat_rows": rows["data.concat"],
            "data.concat_s": total["data.concat"],
            "stagger.generate_s": total["stagger.generate"],
        }
        for family in FAMILIES.values():
            for op in ("fit", "predict"):
                key = f"classifiers.{family}.{op}"
                out[f"{key}_calls"] = calls[key]
                out[f"{key}_rows"] = rows[key]
                out[f"{key}_s"] = total[key]
        requested = self.counts["rounds_requested"]
        out.update({
            "pipeline.fit_calls": calls["pipeline.fit"],
            "pipeline.fit_self_s": self_s["pipeline.fit"],
            "pipeline.predict_calls": calls["pipeline.predict"],
            "pipeline.predict_self_s": self_s["pipeline.predict"],
            "search.run_search_calls": calls["search.run_search"],
            "search.run_search_s": total["search.run_search"],
            "search.candidates_attempted": calls["search.evaluate_candidate"],
            "search.rescore_calls": calls["search.rescore"],
            "search.rescore_rows": rows["search.rescore"],
            "search.rescore_s": total["search.rescore"],
            "ensemble.select_calls": calls["ensemble.select"],
            "ensemble.select_s": total["ensemble.select"],
            "ensemble.select_score_calls": select_scores,
            "ensemble.kept_rounds_frac": self.counts["rounds_kept"] / requested if requested else 0.0,
            "ensemble.predict_calls": calls["ensemble.predict"],
            "ensemble.predict_s": total["ensemble.predict"],
            "drift.step_calls": calls["drift.step"],
            "drift.step_s": total["drift.step"],
            "drift.fires": self.counts["fires"],
            "drift.fed_frac": calls["drift.step"] / tested_rows if tested_rows else 0.0,
            "metrics.score_calls": calls["metrics.score"],
            "metrics.score_s": total["metrics.score"],
            "metrics.auc_calls": calls["metrics.auc"],
            "metrics.auc_s": total["metrics.auc"],
        })
        return out


def _observe_select(counts, args, kwargs, result):
    counts["rounds_requested"] += args[1] if len(args) > 1 else kwargs.get("rounds", 50)
    counts["rounds_kept"] += result.rounds


def _observe_step(counts, args, kwargs, result):
    counts["fires"] += bool(result[1].drift)
