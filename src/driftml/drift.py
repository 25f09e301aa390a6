"""Fast Hoeffding drift detection over a boolean correctness stream.

The detector keeps a FIFO window of the last ``n`` prediction-correctness
flags plus the maximum windowed correct-rate observed since the last reset.
Drift is signaled once the current windowed rate falls at least
``epsilon = sqrt(ln(1/delta) / (2 n))`` below that maximum. No signal can
occur before the window has filled.

The step function is pure: state is an immutable value, and each call pushes
one or more flags, stopping at the first drift, and returns a new state plus
a signal, so detector histories can be replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_WINDOW = 25
DEFAULT_DELTA = 1e-7


def hoeffding_epsilon(n: int, delta: float) -> float:
    """Drop threshold for window size ``n`` and confidence ``delta``."""
    return math.sqrt(math.log(1.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class DriftSignal:
    drift: bool
    at_instance: Optional[int] = None


@dataclass(frozen=True)
class FhddmState:
    n: int = DEFAULT_WINDOW
    delta: float = DEFAULT_DELTA
    window: tuple[bool, ...] = ()
    mu_max: float = 0.0
    seen: int = 0  # observations consumed since last reset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window capacity must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if len(self.window) > self.n:
            raise ValueError("window longer than capacity")

    @property
    def epsilon(self) -> float:
        return hoeffding_epsilon(self.n, self.delta)


def fhddm_step(state: FhddmState, correct: bool | np.ndarray) -> tuple[FhddmState, DriftSignal]:
    """Push correctness flags in order; stop at the first drift.

    ``correct`` is one flag or a 1-D array of them. Flags after the one that
    fires are not pushed, so the returned state has consumed exactly
    ``signal.at_instance - state.seen`` flags on drift, and all of them
    otherwise. The window must be full before any comparison happens, so
    the first ``n`` observations after a reset can never trigger.

    Every full window's rate is its integer count over ``n``, read off one
    cumulative sum of the stored window followed by the new flags, so each
    rate is the same float a per-flag ``sum(window) / n`` gives.
    """
    flags = np.atleast_1d(np.asarray(correct, dtype=bool))
    if flags.ndim != 1:
        raise ValueError("correctness flags must be one flag or a 1-D array")
    n, kept = state.n, len(state.window)
    stream = np.concatenate((np.asarray(state.window, dtype=bool), flags))
    counts = np.concatenate(([0], np.cumsum(stream, dtype=np.int64)))
    ends = np.arange(max(n, kept + 1), stream.size + 1)  # full windows with a new flag
    mu = (counts[ends] - counts[ends - n]) / n
    mu_max = np.maximum(np.maximum.accumulate(mu), state.mu_max)
    fired = np.flatnonzero(mu_max - mu >= state.epsilon)
    if fired.size:
        stop, top = int(ends[fired[0]]), float(mu_max[fired[0]])
    else:
        stop, top = stream.size, float(mu_max[-1]) if mu.size else state.mu_max
    seen = state.seen + stop - kept
    new = FhddmState(n, state.delta, tuple(stream[max(0, stop - n) : stop].tolist()), top, seen)
    return new, DriftSignal(True, seen) if fired.size else DriftSignal(False)


def fhddm_reset(state: FhddmState) -> FhddmState:
    """Fresh state with the same (n, delta): empty window, mu_max back to 0."""
    return FhddmState(state.n, state.delta)
