import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftml.drift import (
    DriftSignal,
    FhddmState,
    fhddm_reset,
    fhddm_step,
    hoeffding_epsilon,
)


def brute_force_fire_step(bits, n=25, delta=1e-7):
    """Independent window simulation: first 1-based step that trips the bound."""
    eps = math.sqrt(math.log(1.0 / delta) / (2 * n))
    mu_max = 0.0
    for i in range(len(bits)):
        if i + 1 < n:
            continue
        window = bits[i + 1 - n : i + 1]
        mu = sum(window) / n
        mu_max = max(mu_max, mu)
        if mu_max - mu >= eps:
            return i + 1
    return None


def reference_step(state, correct):
    """The per-flag step the batch kernel replaced: one flag, one tuple copy."""
    window = (state.window + (bool(correct),))[-state.n :]
    seen = state.seen + 1
    if len(window) < state.n:
        return FhddmState(state.n, state.delta, window, state.mu_max, seen), DriftSignal(False)
    mu = sum(window) / state.n
    mu_max = mu if mu > state.mu_max else state.mu_max
    drift = (mu_max - mu) >= state.epsilon
    new = FhddmState(state.n, state.delta, window, mu_max, seen)
    return new, DriftSignal(drift, seen if drift else None)


def reference_fold(state, flags):
    """Push ``flags`` through ``reference_step`` one at a time until the first
    drift; returns the state, the last signal and the 0-based index of the
    flag that fired (None without a drift)."""
    signal = DriftSignal(False)
    for j, flag in enumerate(np.atleast_1d(flags)):
        state, signal = reference_step(state, flag)
        if signal.drift:
            return state, signal, j
    return state, signal, None


def run_stream(state, bits):
    fired = None
    for i, b in enumerate(bits):
        state, signal = fhddm_step(state, b)
        if signal.drift and fired is None:
            fired = i + 1
    return state, fired


def test_epsilon_matches_direct_formula():
    state = FhddmState()
    expected = math.sqrt(math.log(1e7) / 50.0)
    assert abs(state.epsilon - expected) < 1e-12
    # frozen oracle output for the default parameters
    assert abs(state.epsilon - 0.5677692) < 1e-6
    assert abs(hoeffding_epsilon(100, 1e-6) - math.sqrt(math.log(1e6) / 200.0)) < 1e-12


def test_constant_true_stream_never_fires():
    _, fired = run_stream(FhddmState(), [True] * 100)
    assert fired is None


def test_fire_at_fifteenth_false():
    # 25 correct then wrong forever: windowed mean first reaches
    # mu_max - epsilon when 15 of 25 flags are false (mean 0.4 <= 0.4322...)
    bits = [True] * 25 + [False] * 25
    oracle = brute_force_fire_step(bits)
    assert oracle == 25 + 15
    _, fired = run_stream(FhddmState(), bits)
    assert fired == oracle


def test_never_fires_before_window_full():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        state = FhddmState(n=n, delta=1e-7)
        bits = rng.random(n - 1) < 0.05  # heavy failures, still no window
        _, fired = run_stream(state, list(bits))
        assert fired is None


def test_matches_brute_force_on_random_streams():
    rng = np.random.default_rng(11)
    for trial in range(60):
        p = rng.uniform(0.1, 0.95)
        bits = list(rng.random(400) < p)
        state = FhddmState()
        _, fired = run_stream(state, bits)
        assert fired == brute_force_fire_step(bits)
        _, signal = fhddm_step(state, np.array(bits))
        assert signal.at_instance == fired


def test_detection_after_abrupt_drop():
    # sustained a=0.95 then b=0.05: the gap exceeds epsilon, so the detector
    # must fire within n steps of the window being dominated by the drop
    rng = np.random.default_rng(7)
    for trial in range(20):
        bits = list(rng.random(300) < 0.95) + list(rng.random(50) < 0.05)
        _, fired = run_stream(FhddmState(), bits)
        assert fired is not None
        assert fired <= 300 + 2 * 25


def test_step_is_pure():
    state = FhddmState(window=(True,) * 25, mu_max=1.0, seen=25)
    first = fhddm_step(state, False)
    second = fhddm_step(state, False)
    assert first == second
    assert state.window == (True,) * 25  # untouched


def test_reset_semantics():
    state = FhddmState()
    state, _ = run_stream(state, [True] * 25 + [False] * 20)
    assert state.mu_max > 0
    reset = fhddm_reset(state)
    assert reset.window == ()
    assert reset.mu_max == 0.0
    assert reset.seen == 0
    assert reset.epsilon == state.epsilon
    assert fhddm_reset(reset) == reset  # idempotent
    _, fired = run_stream(reset, [True] * 200)
    assert fired is None


def test_signal_reports_offset():
    state = FhddmState()
    bits = [True] * 25 + [False] * 15
    fired_at = None
    for i, b in enumerate(bits):
        state, signal = fhddm_step(state, b)
        if signal.drift:
            fired_at = signal.at_instance
            break
    assert fired_at == 40  # observations consumed since reset


def test_state_validation():
    with pytest.raises(ValueError):
        FhddmState(n=0)
    with pytest.raises(ValueError):
        FhddmState(delta=0.0)
    with pytest.raises(ValueError):
        FhddmState(delta=1.0)
    with pytest.raises(ValueError):
        FhddmState(window=(True, True), n=1)
    with pytest.raises(ValueError):
        fhddm_step(FhddmState(), np.ones((2, 25), dtype=bool))


@st.composite
def start_states(draw):
    """Any reachable-looking state: a partly or fully filled window, a
    ``mu_max`` that is 0, a window rate or any rate, and any count seen.
    Half the deltas put epsilon at (about) ``k / n``, so a rate drop can
    equal it exactly and the ``>=`` comparison is exercised."""
    n = draw(st.integers(1, 40))
    delta = draw(st.one_of(
        st.floats(1e-12, 0.99), st.integers(1, n).map(lambda k: math.exp(-2.0 * k * k / n)),
    ))
    window = tuple(draw(st.lists(st.booleans(), max_size=n)))
    mu_max = draw(st.one_of(
        st.just(0.0), st.integers(0, n).map(lambda c: c / n), st.floats(0.0, 1.0),
    ))
    seen = len(window) + draw(st.integers(0, 10_000))
    return FhddmState(n, delta, window, mu_max, seen)


# runs of equal flags, so streams hold both sustained rates and sudden drops
flag_streams = st.lists(st.tuples(st.booleans(), st.integers(1, 60)), min_size=1, max_size=12).map(
    lambda runs: np.array([flag for flag, length in runs for _ in range(length)], dtype=bool)
)


@given(start_states(), flag_streams)
def test_batch_step_equals_the_per_flag_fold(state, flags):
    expected_state, expected_signal, fired_at = reference_fold(state, flags)
    new, signal = fhddm_step(state, flags)
    assert new == expected_state
    assert type(new.mu_max) is float and all(type(f) is bool for f in new.window)
    assert signal == expected_signal
    offset = signal.at_instance - state.seen - 1 if signal.drift else None
    assert offset == fired_at


@given(start_states(), st.booleans())
def test_single_flag_and_empty_batch(state, flag):
    assert fhddm_step(state, flag) == reference_step(state, flag)
    assert fhddm_step(state, np.bool_(flag)) == reference_step(state, flag)
    assert fhddm_step(state, np.array([], dtype=bool)) == (state, DriftSignal(False))
    assert fhddm_step(state, []) == (state, DriftSignal(False))


@given(start_states(), flag_streams, st.lists(st.integers(0, 800), max_size=8))
def test_chunked_stream_equals_one_call(state, flags, cuts):
    whole = fhddm_step(state, flags)
    chunked, signal = state, DriftSignal(False)
    for chunk in np.split(flags, sorted(cuts)):
        chunked, signal = fhddm_step(chunked, chunk)
        if signal.drift:
            break
    assert (chunked, signal) == whole
