"""History-line dynamics: spectra, evolution, time averages, padding."""
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson, solve_ivp

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, walk
from hamchain.circuit import Circuit

import oracles

# Constants measured with the quadrature/spectral machinery below and frozen.
TAIL_LIMIT_T154_Q6 = 0.8301282051282051
TAIL_DELTA = 0.004  # measured deficit below 5/6 is 0.00320513
ENVELOPE_C = 0.05   # measured C = residual * tau0 / T peaks near 0.021


def ode_evolve(T: int, tau: float) -> np.ndarray:
    """Independent oracle: integrate i dc/dtau = H c with a high-order RK."""
    h = oracles.hopping_matrix(T)
    sol = solve_ivp(
        lambda _, c: -1j * (h @ c),
        (0.0, tau),
        np.eye(T + 1, dtype=complex)[0],
        method="DOP853", rtol=1e-12, atol=1e-12,
    )
    return sol.y[:, -1]


def test_eigensystem_diagonalizes_hopping_matrix():
    for T in (1, 7, 34):
        lam, v = oracles.eigensystem(T)
        h = oracles.hopping_matrix(T)
        assert np.max(np.abs(v @ np.diag(lam) @ v.T - h)) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(T + 1))) <= 1e-12


def test_evolve_at_zero_time_is_identity():
    amps = oracles.amplitudes(34, 0.0)
    assert abs(amps[0] - 1.0) <= 1e-12
    assert np.max(np.abs(amps[1:])) <= 1e-12


def test_two_site_line_follows_sin_squared():
    taus = (0.3, 1.0, 2.5)
    for tau, row in zip(taus, oracles.propagator_rows(1, taus)):
        assert abs(row[1] ** 2 - np.sin(tau) ** 2) <= 1e-12


@pytest.mark.parametrize("T", [1, 18, 34])
@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_evolve_matches_ode_oracle(T, tau):
    dev = np.max(np.abs(oracles.amplitudes(T, tau) - ode_evolve(T, tau)))
    assert dev <= 1e-8


def one_dimensional_dst_row(T: int, tau: float) -> np.ndarray:
    """The oracle: the complex propagator row c_t(tau) as a 1-D type-I DST
    of the phased spectrum, as the sampler once computed it shot by shot."""
    k = np.arange(1, T + 2)
    lam = -2.0 * np.cos(k * np.pi / (T + 2))
    sin0 = np.sin(k * np.pi / (T + 2))
    return scipy.fft.dst(np.exp(-1j * lam * tau) * sin0, type=1) / (T + 2)


def parity_phase(T: int) -> np.ndarray:
    """i^(t mod 2): the complex amplitudes are c_t = i^(t mod 2) D_t."""
    return np.where(np.arange(T + 1) % 2, 1j, 1.0)


def batch_rows(T: int) -> int:
    return max(walk.PROPAGATE_MIN_ROWS, walk.PROPAGATE_BYTES // (16 * (T + 2)))


@pytest.mark.parametrize("T", [1719, 2962, 220])  # T+2 prime, composite, composite
def test_propagate_rows_bit_identical_to_one_dimensional_dst(T):
    # one-dimensional: a batch of one row; batches of 1, 7 and exactly
    # `batch_rows` rows; then two full batches and an uneven remainder
    rng = np.random.default_rng(T)
    for count in (1, 7, batch_rows(T), 2 * batch_rows(T) + 5):
        taus = rng.uniform(0.0, walk.default_tau0(T), count)
        rows = oracles.propagator_rows(T, taus)
        assert len(rows) == count
        for tau, row in zip(taus, rows):
            assert np.array_equal(row, oracles.propagator_rows(T, [tau])[0])


@pytest.mark.parametrize("T", [1719, 2962, 220])
def test_propagate_rows_match_the_complex_dst_oracle(T):
    taus = np.concatenate([[0.0, walk.default_tau0(T)],
                           np.random.default_rng(T).uniform(0.0, walk.default_tau0(T), 40)])
    phase = parity_phase(T)
    for tau, row in zip(taus, oracles.propagator_rows(T, taus)):
        assert np.max(np.abs(phase * row - one_dimensional_dst_row(T, tau))) <= 1e-11


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_propagate_rows_in_order_on_any_worker_count(workers, monkeypatch):
    # 3-row batches, so 47 taus make 16 batches spread over the threads; a
    # short switch interval interleaves them, and `finish` reads each
    # worker's own buffer, so a buffer two workers shared would show
    T = 220
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", 3 * 16 * (T + 2))
    monkeypatch.setattr(walk, "PROPAGATE_MIN_ROWS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    assert batch_rows(T) == 3
    taus = np.random.default_rng(0).uniform(0.0, walk.default_tau0(T), 47)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = oracles.propagator_rows(T, taus)
        batches = walk.propagate(T, taus, lambda batch, start: (start, batch.copy()))
    finally:
        sys.setswitchinterval(interval)
    assert len(rows) == len(taus)
    for tau, row in zip(taus, rows):
        assert row.dtype == np.float64
        assert np.array_equal(row, oracles.propagator_rows(T, [tau])[0])
        assert np.max(np.abs(parity_phase(T) * row - one_dimensional_dst_row(T, tau))) <= 1e-11
    assert [start for start, _ in batches] == list(range(0, len(taus), 3))
    assert np.array_equal(np.concatenate([batch for _, batch in batches]), rows)


def test_one_batch_starts_no_thread_and_matches_the_pool(monkeypatch):
    # taus that fit in one batch are computed on the calling thread, with
    # `finish` too; the same taus in one-row batches run on a pool of three
    # threads and give the same bits
    T = 220
    taus = np.random.default_rng(1).uniform(0.0, walk.default_tau0(T), 5)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    alone = oracles.propagator_rows(T, taus)
    firsts = np.concatenate(walk.propagate(T, taus, lambda rows, s: rows[:, 0].copy()))
    assert started == []
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", 16 * (T + 2))
    monkeypatch.setattr(walk, "PROPAGATE_MIN_ROWS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert batch_rows(T) == 1
    pooled = oracles.propagator_rows(T, taus)
    assert started  # the pool ran the batches
    assert len(alone) == len(pooled) == len(taus)
    assert np.array_equal(alone, pooled)
    assert np.array_equal(firsts, pooled[:, 0])


def test_long_rows_share_a_batch_of_four(monkeypatch):
    # numpy plans each FFT call anew, so a row that fills the byte budget
    # alone still shares its call with three others; the benchmark's rows
    # (T+2 <= 5285) fit the budget at least 24 times and keep their batch size
    assert walk.PROPAGATE_BYTES // (16 * 5285) >= 24 > walk.PROPAGATE_MIN_ROWS
    T = 220
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", 16 * (T + 2))
    taus = np.random.default_rng(2).uniform(0.0, walk.default_tau0(T), 9)
    batches = walk.propagate(T, taus, lambda rows, start: (start, rows.copy()))
    assert [(start, len(rows)) for start, rows in batches] == [(0, 4), (4, 4), (8, 1)]
    assert np.array_equal(np.concatenate([rows for _, rows in batches]),
                          np.concatenate([oracles.propagator_rows(T, [tau]) for tau in taus]))


def test_propagate_holds_one_batch_buffer_per_worker(monkeypatch):
    # 50 batches of 4 rows on 2 workers, each batch kept by `finish` only
    # as its first column: the workers' buffers are the only rows alive, so
    # the traced peak stays near 2 batches, where buffers allocated afresh
    # and kept for every batch would reach 50
    T, per_batch, batches, workers = 2962, 4, 50, 2
    batch_bytes = per_batch * 16 * (T + 2)
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", batch_bytes)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    taus = np.linspace(0.0, walk.default_tau0(T), per_batch * batches)

    def finish(rows, start):
        return rows[:, 0].copy()

    walk.propagate(T, taus[:2 * per_batch], finish)  # the pool's imports stay outside
    tracemalloc.start()
    try:
        firsts = walk.propagate(T, taus, finish)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(firsts) == batches
    assert np.array_equal(np.concatenate(firsts), oracles.propagator_rows(T, taus)[:, 0])
    assert peak < 3 * workers * batch_bytes


@pytest.mark.parametrize("workers", [2, 5])
def test_a_late_batch_raises_its_finish_error_from_the_pool(workers, monkeypatch):
    # one-row batches on a pool; `finish` raises on the last one, and that
    # same exception, not a wrapper or a later one, leaves propagate
    T = 220
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", 16 * (T + 2))
    monkeypatch.setattr(walk, "PROPAGATE_MIN_ROWS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    taus = np.random.default_rng(3).uniform(0.0, walk.default_tau0(T), 12)
    error = ValueError("late batch")

    def finish(rows, start):
        if start == len(taus) - 1:
            raise error
        return start

    with pytest.raises(ValueError) as raised:
        walk.propagate(T, taus, finish)
    assert raised.value is error


@pytest.mark.parametrize("T", [1, 2, 3, 220, 1719, 2962])  # T+2: odd, even, prime, composite
def test_propagate_rows_match_the_odd_extension_oracle(T):
    # the half-length transform against the length-2(T+2) one it replaced,
    # up to tau = 10 (T+2); both round each lambda_k tau + phase to a double,
    # so rows drift apart by about 1e-16 tau / sqrt(T+2), 3e-12 at T=2962 and
    # tau = default_tau0(T), where the complex DST oracle test checks them
    tau_max = 10.0 * (T + 2)
    taus = np.concatenate([[0.0, tau_max],
                           np.random.default_rng(T).uniform(0.0, tau_max, 40)])
    rows = oracles.propagator_rows(T, taus)
    assert np.max(np.abs(rows - oracles.odd_extension_rows(T, taus))) <= 1e-12


@pytest.mark.parametrize("T", [1719, 228519])  # `shots`' ham8 n=2; the rewritten-Z ham8 row
def test_propagate_keeps_the_norm_at_the_longest_times(T):
    # the fold needs lambda_{T+2-k} = -lambda_k exactly; with -2 cos theta_k
    # rounded per k, rows lose about 1e-16 tau of norm, 3.5e-9 here at
    # T=228519, past the sampler's NORM_TOL
    tau0 = walk.default_tau0(T)
    taus = np.concatenate([[tau0], np.random.default_rng(T).uniform(0.0, tau0, 3)])
    for row in oracles.propagator_rows(T, taus):
        assert abs(np.sum(row**2) - 1.0) <= 1e-11


def test_propagate_allocates_no_large_buffer_after_a_workers_first_batch(monkeypatch):
    # 1 worker and 4 MiB batches: the worker allocates its input and
    # spectrum buffers on its first batch and reuses them, so the number of
    # allocations of 1 MiB or more stays at two however many batches run.
    # Each finish call reads the traced peak since the previous one, which
    # includes any large temporary a batch allocated and freed, and keeps
    # the rows it is given, which pins them if a batch allocated them afresh.
    T, workers = 2962, 1
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", 8 * 2**20)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    rows = batch_rows(T)
    oracles.propagator_rows(T, [1.0])  # lazy set-up stays outside the measurement
    kept, growth, traced = [], [], [0]

    def finish(batch, start):
        kept.append(batch)
        current, peak = tracemalloc.get_traced_memory()
        growth.append(peak - traced[0])
        traced[0] = current
        tracemalloc.reset_peak()
        return batch[:, 0].copy()

    for batches in (3, 12):
        taus = np.linspace(0.0, walk.default_tau0(T), rows * batches)
        kept.clear()
        growth.clear()
        traced[0] = 0
        tracemalloc.start()
        try:
            firsts = np.concatenate(walk.propagate(T, taus, finish))
        finally:
            tracemalloc.stop()
        assert np.array_equal(firsts, oracles.propagator_rows(T, taus)[:, 0])
        assert len(growth) == batches
        assert growth[0] >= 2 * 2**20  # the first batch allocates the buffers
        assert max(growth[1:]) < 2**20


@pytest.mark.parametrize("T", [1, 7, 34, 154])
def test_propagate_matches_dense_eigensystem(T):
    lam, v = oracles.eigensystem(T)
    taus = [0.0, 0.4, 3.7, 50.0, walk.default_tau0(T)]
    for tau, row in zip(taus, oracles.propagator_rows(T, taus)):
        dense = v @ (np.exp(-1j * lam * tau) * v[0, :])
        assert np.max(np.abs(parity_phase(T) * row - dense)) <= 1e-12


def test_evolve_builds_no_dense_matrix():
    # the (T+1)^2 eigenvector matrix would take 80 GB here; one row is 0.8 MB
    # and its table about 3 MB
    walk.probability_table_csv(10, [1.0])  # lazy set-up stays outside the measurement
    tracemalloc.start()
    try:
        table = walk.probability_table_csv(100000, [3.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.count("\n") == 1 + 100001
    assert peak < 32 * 2**20


def test_norm_conserved_and_group_property():
    T = 34
    norms = walk.probabilities(oracles.propagator_rows(T, [0.0, 3.7, 50.0]))
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    lam, v = oracles.eigensystem(T)
    u = lambda tau: v @ np.diag(np.exp(-1j * lam * tau)) @ v.T
    assert np.max(np.abs(u(2.0) @ u(3.0) - u(5.0))) <= 1e-9


def test_transition_probability_is_symmetric():
    T, tau = 18, 7.3
    lam, v = oracles.eigensystem(T)
    u = v @ np.diag(np.exp(-1j * lam * tau)) @ v.T
    p = np.abs(u) ** 2
    assert np.max(np.abs(p - p.T)) <= 1e-12


def test_avg_prob_matches_quadrature():
    T, m, tau0 = 34, 20, 3400.0
    taus = np.linspace(0.0, tau0, 400001)
    lam, v = oracles.eigensystem(T)
    amps_m = v[m, :] @ (np.exp(-1j * np.outer(lam, taus)) * v[0, :][:, None])
    quad = simpson(np.abs(amps_m) ** 2, x=taus) / tau0
    assert abs(oracles.avg_prob_all(T, tau0)[m] - quad) <= 1e-6


@pytest.mark.parametrize("T", [7, 34, 200])
def test_avg_prob_all_matches_einsum_oracle(T):
    lam, v = oracles.eigensystem(T)
    w = v * v[0, :]
    # horizons from T up, as the tail sweep and the sampler use; far below T
    # the sums round at a few ulps of |c_0|^2 ~ 1, and there the einsum is
    # the less accurate of the two against an extended-precision sum
    for tau0 in (T, 10.0 * T, 100.0 * T, walk.default_tau0(T), 1e7):
        avg = np.sinc((lam[:, None] - lam[None, :]) * tau0 / np.pi)
        oracle = np.einsum("mk,kl,ml->m", w, avg, w)
        assert np.max(np.abs(oracles.avg_prob_all(T, tau0) - oracle)) <= 1e-15


def test_avg_prob_sums_to_one():
    for T, tau0 in ((18, 100.0), (154, 15400.0)):
        assert abs(np.sum(oracles.avg_prob_all(T, tau0)) - 1.0) <= 1e-9


def test_avg_prob_infinite_time_limits():
    def limit(T, m):  # tau0 -> infinity: sum_k v_k(m)^2 v_k(0)^2
        _, v = oracles.eigensystem(T)
        return float(np.sum(v[m, :] ** 2 * v[0, :] ** 2))

    # two-site line: average of cos^2 is 1/2
    assert abs(limit(1, 0) - 0.5) <= 1e-12
    # large tau0 converges to the spectral limit
    avg = oracles.avg_prob_all(34, 1e7)
    for m in (0, 10, 34):
        assert abs(avg[m] - limit(34, m)) <= 1e-4


def test_tail_threshold_floor_convention():
    assert walk.tail_threshold(154, 6) == 26
    assert walk.tail_threshold(17, 6) == 3
    assert walk.tail_threshold(1, 2) == 1


def test_tail_prob_two_site_limit():
    assert abs(walk.tail_prob(1, 2, 1e7) - 0.5) <= 1e-4


def dense_tail(T: int, q: int, tau0: float) -> float:
    return float(np.sum(oracles.avg_prob_all(T, tau0)[walk.tail_threshold(T, q):]))


@pytest.mark.parametrize("T", [1, 2, 7, 34, 154])
@pytest.mark.parametrize("q", [2, 3, 6])
def test_tail_prob_matches_dense_time_average(T, q):
    for tau0 in (1e-3, 1.0, T, 10.0 * T, 1e4 * T):
        assert abs(walk.tail_prob(T, q, tau0) - dense_tail(T, q, tau0)) <= 1e-12


def test_tail_prob_matches_dense_time_average_at_prime_length():
    T = 807  # T+2 = 809 is prime
    for tau0 in (1.0, T, 1e4 * T):
        assert abs(walk.tail_prob(T, 6, tau0) - dense_tail(T, 6, tau0)) <= 1e-12


@pytest.mark.parametrize("T", [647, 1719, 2962, 5283])  # the benchmark's sampled T
@pytest.mark.parametrize("q", [2, 6])
def test_tail_prob_matches_the_pair_sum(T, q):
    for tau0 in (1e-3, T, 10.0 * T, walk.default_tau0(T)):
        tail = walk.tail_prob(T, q, tau0)
        assert type(tail) is float  # for default_tau0's numpy float too
        assert abs(tail - oracles.tail_prob_pairs(T, q, tau0)) <= 1e-12


def test_tail_prob_builds_no_dense_matrix():
    # one (T+1)^2 float64 matrix would take 128 MB here
    T = 4000
    walk.tail_prob(10, 6, 10.0)
    tracemalloc.start()
    try:
        walk.tail_prob(T, 6, 10.0 * T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (T + 1) ** 2 / 4


def test_tail_limit_frozen_value():
    assert abs(walk.tail_prob_limit(154, 6) - TAIL_LIMIT_T154_Q6) <= 1e-12
    assert walk.tail_prob_limit(154, 6) >= 5.0 / 6.0 - TAIL_DELTA


@pytest.mark.parametrize("T", [1, 7, 34, 154, 800])
@pytest.mark.parametrize("q", [2, 3, 6])
def test_tail_limit_matches_dense_form(T, q):
    _, v = oracles.eigensystem(T)
    m0 = walk.tail_threshold(T, q)
    dense = float(np.sum((v[m0:, :] ** 2) @ (v[0, :] ** 2)))
    assert abs(walk.tail_prob_limit(T, q) - dense) <= 1e-12


@pytest.mark.parametrize("T", [18, 34, 154, 5283, 228519])
def test_residual_envelope_constant(T):
    limit = walk.tail_prob_limit(T, 6)
    for factor in (10.0, 100.0):
        tau0 = factor * T
        resid = abs(walk.tail_prob(T, 6, tau0) - limit)
        assert resid * tau0 / T <= ENVELOPE_C


def test_spec_validation():
    with pytest.raises(ValueError):
        walk.tail_prob(0, 6, 1.0)
    with pytest.raises(ValueError):
        walk.tail_prob(10, 1, 1.0)
    with pytest.raises(ValueError):
        walk.tail_prob(10, 6, 0.0)


@pytest.mark.parametrize("tau0", [np.inf, -np.inf, np.nan])
def test_tail_prob_refuses_a_non_finite_horizon(tau0):
    with pytest.raises(ValueError, match="finite"):
        walk.tail_prob(34, 6, tau0)


@pytest.mark.parametrize("scheme,expected", [("ham5", 2), ("ham8", 2)])
def test_padding_plan_engine_backed(scheme, expected):
    assert walk.padding_plan(2, 1, 6, scheme) == expected


def test_padding_plan_no_padding_when_q_loose():
    # with q=2 the single real round of a 2-qubit circuit already fires
    # before the midpoint of its own history
    assert walk.padding_plan(2, 1, 2, "ham5") == 1


def engine_history(scheme: str, n: int, R: int):
    if scheme == "ham5":
        return f5.enumerate_history5(n, R)
    return e8.enumerate_history8(Circuit(n, R))


@pytest.mark.parametrize("scheme,config", [("ham5", f5.Config5), ("ham8", e8.Config8)])
def test_enumeration_builds_as_many_configurations_at_any_length(scheme, config, monkeypatch):
    # a history is stepped in place: the configurations built, each checking
    # its symbols, do not grow with T
    built = []
    check = config.__post_init__
    monkeypatch.setattr(config, "__post_init__", lambda self: built.append(self) or check(self))
    counts = {}
    for R in (1, 44 if scheme == "ham5" else 8):
        built.clear()
        T = engine_history(scheme, 2, R).T
        counts[T] = len(built)
    assert max(counts) >= 500
    assert len(set(counts.values())) == 1, counts


def events_last_real(scheme: str, trace, n: int, r: int) -> int:
    """Step of the last gate of rounds 1..r, read off the trace's events."""
    if scheme == "ham5":
        return max(t for t, ev in trace.events.items() if ev.round <= r)
    # ham8: the r(n-1)-th recorded slot firing, counted by rank
    return sorted(trace.events)[r * (n - 1) - 1]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_both_machines_record_the_same_slot_firings(data):
    # an event is a slot firing: n-1 per round, in step order, each round's
    # on pairs (1,2) .. (n-1,n), whatever the letters are
    n = data.draw(st.integers(2, 4), label="n")
    R = data.draw(st.integers(1, 3), label="R")
    letters = st.sampled_from([gates.W, gates.SWAP, gates.I1])
    circuit = Circuit(n, R, {(r, i): data.draw(letters)
                             for r in range(1, R + 1) for i in range(1, n)})
    slots = [(r, (i, i + 1)) for r in range(1, R + 1) for i in range(1, n)]
    for scheme in ("ham5", "ham8"):
        history = walk.enumerate_history(scheme, circuit)
        events = [ev for _, ev in sorted(history.events.items())]
        assert [(ev.round, ev.qubits) for ev in events] == slots, scheme


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("R", [1, 2, 3, 4, 5])
def test_last_gate_step5_matches_engine(n, R):
    trace = engine_history("ham5", n, R)
    for r in range(1, R + 1):
        last = events_last_real("ham5", trace, n, r)
        assert f5.last_gate_step5(n, r) == last == trace.last_real_step(r)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("R", [1, 2, 3, 4, 5, 6])
def test_last_gate_step8_matches_engine(n, R):
    trace = engine_history("ham8", n, R)
    for r in range(1, R + 1):
        last = events_last_real("ham8", trace, n, r)
        assert e8.last_gate_step8(n, R, r) == last == trace.last_real_step(r)


def engine_padding_ok(scheme: str, n: int, R: int, r_real: int, q: int) -> bool:
    """The search padding_plan used to run, for one candidate R: does the
    last real gate fire no later than step floor(T/q)?"""
    trace = engine_history(scheme, n, R)
    return events_last_real(scheme, trace, n, r_real) <= trace.T // q


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r_real", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 6])
def test_padding_plan_matches_engine_oracle(scheme, n, r_real, q):
    # T/q minus the last real step is increasing (ham5) or convex (ham8) in
    # R, so failing at r_real and at R-1 and holding at R makes R the first
    # to hold, without enumerating every candidate
    R = walk.padding_plan(n, r_real, q, scheme)
    assert r_real <= R <= q * r_real
    assert engine_padding_ok(scheme, n, R, r_real, q)
    if R > r_real:
        assert not engine_padding_ok(scheme, n, r_real, r_real, q)
        assert not engine_padding_ok(scheme, n, R - 1, r_real, q)


def test_padding_plan_pad_workload_shapes():
    assert walk.padding_plan(2, 8, 6, "ham5") == 44
    assert walk.padding_plan(2, 3, 6, "ham8") == 14


def test_padding_plan_within_bound():
    for scheme in ("ham5", "ham8"):
        for n in range(2, 9):
            for r_real in range(1, 9):
                for q in range(2, 9):
                    R = walk.padding_plan(n, r_real, q, scheme)
                    assert r_real <= R <= q * r_real
                    T, last_real = walk.scheme_module(scheme).closed_forms(n, R, r_real)
                    assert last_real <= T // q


@pytest.mark.parametrize("args", [
    (2, 1, 1, "ham5"),  # q < 2
    (2, 0, 6, "ham5"),  # r_real < 1
    (1, 1, 6, "ham8"),  # n < 2
    (2, 1, 6, "ham9"),  # unknown scheme
])
def test_padding_plan_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        walk.padding_plan(*args)


def test_padding_plan_raises_past_its_bound(monkeypatch):
    monkeypatch.setattr(f5, "closed_forms", lambda n, R, r: (0, 1))
    with pytest.raises(walk.PaddingError):
        walk.padding_plan(2, 3, 6, "ham5")


def test_csv_emitters():
    table = walk.probability_table_csv(1, [0.0]).splitlines()
    assert table[0] == "tau,m,p"
    assert table[1].startswith("0,0,1")


def test_probability_table_csv_equals_per_line_formatting(monkeypatch):
    # one batch, formatted on the calling thread; then T=1719 with 200 taus
    # in random order: 3 batches of up to 76 rows, each formatted in its
    # `finish` on a pool of 3 threads, which the table joins in tau order
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert batch_rows(1719) == 76
    many = np.random.default_rng(0).uniform(0.0, walk.default_tau0(1719), 200).tolist()
    for T, taus, threads in ((220, [0.0, 1.5, walk.default_tau0(220)], False),
                             (1719, many, True)):
        lines = ["tau,m,p\n"]
        for tau, row in zip(taus, oracles.propagator_rows(T, taus)):
            lines += [f"{tau:.12g},{m},{p:.12g}\n" for m, p in enumerate(np.abs(row) ** 2)]
        started.clear()
        got = walk.probability_table_csv(T, taus).splitlines(keepends=True)
        assert bool(started) == threads
        assert len(got) == len(lines)
        # the first line that differs, not pytest's diff of 344001 lines
        assert next((pair for pair in zip(got, lines) if pair[0] != pair[1]), None) is None


def test_evolve_table_matches_the_complex_dst_oracle():
    # the `spectral` workload's table: `evolve --T 2962 --taus 3,...,30000`
    T, taus = 2962, [3.0, 30.0, 300.0, 3000.0, 30000.0]
    table = np.loadtxt(walk.probability_table_csv(T, taus).splitlines()[1:], delimiter=",")
    want = np.concatenate([np.abs(one_dimensional_dst_row(T, tau)) ** 2 for tau in taus])
    assert np.array_equal(table[:, 1], np.tile(np.arange(T + 1), len(taus)))
    assert np.max(np.abs(table[:, 2] - want)) <= 1e-12


def test_padding_plan_refuses_a_history_past_max_T(monkeypatch):
    calls = []
    closed = e8.closed_forms
    monkeypatch.setattr(e8, "closed_forms", lambda *a: calls.append(a) or closed(*a))
    with pytest.raises(walk.PaddingError, match="over the limit"):
        walk.padding_plan(2, 10**9, 6, "ham8")
    assert len(calls) == 1  # T grows with R, so the first candidate decides


def test_padding_plan_stops_at_the_cell_step_limit(monkeypatch):
    # sample W --scheme ham5 --q 1000000000 on a 2-qubit, one-round circuit:
    # MAX_T alone let the search try 1118482 round counts; the cell-step
    # limit ends it near R=8461
    calls = []
    closed = f5.closed_forms
    monkeypatch.setattr(f5, "closed_forms", lambda *a: calls.append(a) or closed(*a))
    with pytest.raises(walk.PaddingError, match="cell steps"):
        walk.padding_plan(2, 1, 10**9, "ham5")
    assert len(calls) < 10**4
    R = calls[-1][1]
    T = f5.closed_forms(2, R, 1)[0]
    assert T * f5.cells(2, R) > walk.MAX_CELL_STEPS
    assert walk.history_length("ham5", Circuit(2, R - 1)) > 0


def test_non_finite_amplitudes_are_not_normalised():
    with pytest.raises(ValueError, match="not normalized"):
        walk.probabilities(np.array([[0.6, 0.8], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="not normalized"):
        walk.probabilities(np.array([[0.6, 0.8], [0.6, 0.7]]))


def test_history_length_refuses_too_many_cell_steps():
    # sample --scheme ham5 --q 100000 on a 3-qubit, 2-round circuit would
    # pad to R=106453: T=3300015 is under MAX_T, but on 638719 sites it
    # would step for about a day.  Padding now refuses it on the way there.
    with pytest.raises(ValueError, match="cell steps"):
        walk.history_length("ham5", Circuit(3, 106453))
    with pytest.raises(walk.PaddingError, match="cell steps"):
        walk.padding_plan(3, 2, 100000, "ham5")
    # the rewritten-Z ham8 row, the largest run that finishes, stays below it
    assert walk.history_length("ham8", Circuit(2, 92)) * 552 <= walk.MAX_CELL_STEPS


@pytest.mark.parametrize("scheme,ring,cells", [
    ("ham5", False, 1 + 2 * 3 * 2),
    ("ham8", False, 3 + 4 + 2 * 1 * 4),
    ("ham8", True, 3 + 4 + 2 * 1 * 4 + 1),  # the ring's stopper cell
], ids=["ham5-open-13", "ham8-open-15", "ham8-periodic-x-16"])
def test_history_length_limit_counts_every_cell(scheme, ring, cells, monkeypatch):
    circuit = Circuit(3, 2)
    T = walk.scheme_module(scheme).closed_forms(3, 2, 2)[0]
    monkeypatch.setattr(walk, "MAX_CELL_STEPS", T * cells)
    assert walk.history_length(scheme, circuit, ring) == T
    monkeypatch.setattr(walk, "MAX_CELL_STEPS", T * cells - 1)
    with pytest.raises(ValueError, match="cell steps"):
        walk.history_length(scheme, circuit, ring)


@pytest.mark.parametrize("scheme,ring", [("ham5", False), ("ham8", False), ("ham8", True)],
                         ids=["ham5-open", "ham8-open", "ham8-periodic-x"])
def test_scheme_module_answers_for_its_chain(scheme, ring):
    # the four functions walk and subspace reach a machine through agree
    # with the history the machine enumerates
    m = walk.scheme_module(scheme)
    for n, R in ((2, 1), (3, 2), (2, 3), (4, 2)):
        circuit = Circuit(n, R)
        first = m.first_config(circuit, ring)
        assert [len(reg) for reg in first.registers] == [m.cells(n, R, ring)] * len(first.registers)
        history = m.history(circuit, ring)
        assert history.first == first
        for r in range(1, R + 1):
            assert m.closed_forms(n, R, r) == (history.T, history.last_real_step(r))


def test_ham5_module_refuses_the_ring():
    message = "ham5 has only the open chain, not boundary 'periodic-x'"
    for call in (lambda: f5.cells(3, 2, True), lambda: f5.first_config(Circuit(3, 2), True),
                 lambda: f5.history(Circuit(3, 2), True)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
