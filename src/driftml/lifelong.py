"""Batch-stream evaluation loop: predict, diagnose, adapt.

Each test batch is scored with the current ensemble before its labels touch
anything else, then the revealed labels feed the drift detector as
per-instance correctness in arrival order. When the detector fires (at most
once per batch; remaining instances of that batch are not fed), ``adapt``
builds the library the chosen strategy moves to, after the batch is fully
scored; the loop then reselects the ensemble from it, records the event and
resets the detector. The stored data is a prefix of the stream (the
training batch, then the test batches, concatenated once per run): every
instance up to and including the current batch.

Strategies
----------
Base          control arm; never adapts.
Replacement   full new search over all stored data.
WU-all        re-run ensemble selection with library scores recomputed on a
              capped stratified sample of all stored data; no retraining.
WU-latest     same, but validation is the current batch only.
Add-New       fit the first ``ADD_NEW_POOL_SIZE`` portfolio configs on all
              stored data, extend the library, rescore everything on a
              fresh holdout, reselect.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import search
from .data import Batch, DataError, concat_batches
from .drift import FhddmState, fhddm_reset, fhddm_step
from .ensemble import ensemble_predict_proba, select_ensemble
from .metrics import NORMALIZED_AUC, score
from .pipeline import PipelineConfig, default_config_portfolio
from .search import ModelLibrary, SearchBudget, SearchError, run_search, rescore_library, stratified_split

WU_VALIDATION_CAP = 10_000  # rescoring stays bounded as stored data grows
ADD_NEW_POOL_SIZE = 8


class Strategy(enum.Enum):
    BASE = "Base"
    REPLACEMENT = "Replacement"
    WU_ALL = "WU-all"
    WU_LATEST = "WU-latest"
    ADD_NEW = "Add-New"

    @staticmethod
    def parse(name: str) -> "Strategy":
        key = name.strip().lower().replace("_", "-")
        for strategy in Strategy:
            if strategy.value.lower() == key:
                return strategy
        raise ValueError(f"unknown strategy {name!r}")


@dataclass(frozen=True)
class RunReport:
    strategy: str
    metric: str
    per_batch: tuple[float, ...]
    mean_metric: float
    drift_events: tuple[tuple[int, int], ...]
    adapt_events: tuple[tuple[int, str, str], ...]

    def table_lines(self) -> list[str]:
        """Deterministic per-batch table: index, metric, drift flag, adapted
        flag. Wall-clock numbers stay out so reruns are byte-identical."""
        drift_at = {b for b, _ in self.drift_events}
        adapted_at = {b for b, kind, _ in self.adapt_events if kind != "degraded"}
        lines = ["batch\tmetric\tdrift\tadapted"]
        for i, m in enumerate(self.per_batch):
            val = "nan" if math.isnan(m) else f"{m:.6f}"
            lines.append(
                f"{i}\t{val}\t{1 if i in drift_at else 0}\t{1 if i in adapted_at else 0}"
            )
        return lines


def _mean_excluding_nan(values: Sequence[float]) -> float:
    vals = np.asarray(values, dtype=np.float64)
    kept = vals[~np.isnan(vals)]
    return float(kept.mean()) if kept.size else float("nan")


def stratified_sample(data: Batch, cap: int, rng: np.random.Generator) -> Batch:
    """Seeded per-class proportional subsample of ``data`` beyond ``cap``
    rows, in row order: each present class's quota is rounded half to even
    and kept at 1 or more, so it draws fewer than ``cap + n_classes`` rows."""
    n = len(data)
    if n <= cap:
        return data
    y = data.y
    take = []
    for c in np.unique(y):
        rows = np.nonzero(y == c)[0]
        quota = max(1, int(round(cap * rows.size / n)))
        quota = min(quota, rows.size)
        take.append(rng.choice(rows, size=quota, replace=False))
    idx = np.sort(np.concatenate(take))
    return data.take(idx)


def _adapt_seed(run_seed: int, batch_index: int) -> int:
    mixed = np.random.SeedSequence([run_seed, batch_index]).generate_state(1)[0]
    return int(mixed)


def adapt(
    strategy: Strategy,
    library: ModelLibrary,
    data: Batch,
    batch: Batch,
    *,
    budget: SearchBudget,
    portfolio: Sequence[PipelineConfig],
    metric: str,
    seed: int,
) -> tuple[str, str, Optional[ModelLibrary]]:
    """Build the library that ``strategy`` moves to after a drift on
    ``batch``; ``data`` is the stored data, the stream through ``batch``.

    Returns ``(kind, detail, library)``, or ``("degraded", reason, None)``
    when the strategy cannot adapt on this data and the old model stays.
    """
    if strategy is Strategy.REPLACEMENT:  # throw the model away
        try:
            lib = run_search(data, replace(budget, seed=seed), portfolio, metric)
        except SearchError as exc:
            return "degraded", f"replacement: {exc}", None
        return "replacement", f"library={len(lib)}", lib

    if strategy in (Strategy.WU_ALL, Strategy.WU_LATEST):  # no member is retrained
        if strategy is Strategy.WU_LATEST:
            kind, validation = "wu-latest", batch
        else:
            rng = np.random.default_rng(seed)
            kind, validation = "wu-all", stratified_sample(data, WU_VALIDATION_CAP, rng)
        if np.unique(validation.y).size < 2:
            return "degraded", f"{kind}: single-class validation", None
        return (kind, f"validation={len(validation)}",
                rescore_library(library, search.Holdout.of(validation)))

    if strategy is Strategy.ADD_NEW:
        # fresh fits on all stored data join the library; everything is
        # rescored on a fresh holdout. With every new fit failed this is a
        # pure weight update.
        rng = np.random.default_rng(seed)
        fit_idx, val_idx = stratified_split(data, budget.validation_fraction, rng)
        if val_idx.size == 0:
            return "degraded", "add-new: no holdout", None
        fit_batch = data.take(fit_idx)
        val_batch = stratified_sample(data.take(val_idx), WU_VALIDATION_CAP, rng)
        holdout = search.Holdout.of(val_batch)
        pool = list(enumerate(portfolio[:ADD_NEW_POOL_SIZE]))
        new_members = search.evaluate_candidates(pool, fit_batch, holdout, seed)
        try:
            rescored = rescore_library(library, holdout)
        except DataError as exc:
            return "degraded", f"add-new: {exc}", None
        members = rescored.members + tuple(new_members)
        kind = "add-new" if new_members else "wu-all"
        detail = f"new={len(new_members)} library={len(members)}"
        return kind, detail, replace(rescored, members=members)

    raise ValueError(f"strategy {strategy.value} never adapts")


def run_lifelong(
    train: Batch,
    test_batches: Sequence[Batch],
    strategy: Strategy,
    metric: str,
    budget: SearchBudget,
    detector: Optional[FhddmState] = None,
    *,
    ensemble_rounds: int = 50,
    phase_hook: Optional[Callable[[str, int], None]] = None,
) -> RunReport:
    """Run one strategy over the batch stream and report per-batch scores.

    Scores are recorded strictly before the batch's labels reach the
    detector or any adaptation. The mean excludes NaN-scored batches (these
    are listed in the report). ``phase_hook(phase, t)`` marks test batch
    ``t`` entering ``predict``, ``score``, ``reveal``, ``adapt`` (only when
    the arm adapts) and ``store``; the initial search precedes the first.
    """
    if not train.fully_labeled:
        raise DataError("training batch must be fully labeled")
    for t, b in enumerate(test_batches):
        if not b.fully_labeled:
            raise DataError(f"test batch {t} is not fully labeled")
    if metric == NORMALIZED_AUC and train.schema.n_classes != 2:
        raise DataError(f"normalized_auc needs 2 classes, the data has {train.schema.n_classes}")

    hook = phase_hook or (lambda phase, index: None)
    portfolio = default_config_portfolio()
    detector = detector if detector is not None else FhddmState()
    stream = concat_batches([train, *test_batches])  # checks every schema against train's

    library = run_search(train, budget, portfolio, metric)
    ensemble = select_ensemble(library, ensemble_rounds, metric)

    end = len(train)  # rows of the stream stored before batch t
    per_batch, drift_events, adapt_events = [], [], []
    for t, batch in enumerate(test_batches):
        hook("predict", t)
        proba = ensemble_predict_proba(ensemble, library, batch)
        y_pred = proba.argmax(axis=1)

        hook("score", t)
        per_batch.append(score(metric, batch.y, proba))

        hook("reveal", t)
        seen_before = detector.seen
        detector, signal = fhddm_step(detector, y_pred == batch.y)
        if signal.drift:  # one adaptation per batch; rest of the batch unfed
            drift_events.append((t, signal.at_instance - seen_before - 1))
            if strategy is not Strategy.BASE:
                hook("adapt", t)
                kind, detail, adapted = adapt(
                    strategy, library, stream.take(slice(0, end + len(batch))), batch,
                    budget=budget, portfolio=portfolio, metric=metric,
                    seed=_adapt_seed(budget.seed, t),
                )
                if adapted is not None:
                    library = adapted
                    ensemble = select_ensemble(library, ensemble_rounds, metric)
                adapt_events.append((t, kind, detail))
                detector = fhddm_reset(detector)

        hook("store", t)
        end += len(batch)

    return RunReport(
        strategy=strategy.value,
        metric=metric,
        per_batch=tuple(per_batch),
        mean_metric=_mean_excluding_nan(per_batch),
        drift_events=tuple(drift_events),
        adapt_events=tuple(adapt_events),
    )
