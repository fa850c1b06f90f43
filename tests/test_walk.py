"""History-line dynamics: spectra, evolution, time averages, padding."""
import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import simpson, solve_ivp

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import walk
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
    amps = walk.evolve(34, 0.0).amps
    assert abs(amps[0] - 1.0) <= 1e-12
    assert np.max(np.abs(amps[1:])) <= 1e-12


def test_two_site_line_follows_sin_squared():
    for tau in (0.3, 1.0, 2.5):
        p = walk.evolve(1, tau).probabilities()
        assert abs(p[1] - np.sin(tau) ** 2) <= 1e-12


@pytest.mark.parametrize("T", [1, 18, 34])
@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_evolve_matches_ode_oracle(T, tau):
    dev = np.max(np.abs(walk.evolve(T, tau).amps - ode_evolve(T, tau)))
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
    return max(1, walk.PROPAGATE_BYTES // (16 * (T + 2)))


@pytest.mark.parametrize("T", [1719, 2962, 220])  # T+2 prime, composite, composite
def test_propagate_rows_bit_identical_to_one_dimensional_dst(T):
    # one-dimensional: a batch of one row; batches of 1, 7 and exactly
    # `batch_rows` rows; then two full batches and an uneven remainder
    rng = np.random.default_rng(T)
    for count in (1, 7, batch_rows(T), 2 * batch_rows(T) + 5):
        taus = rng.uniform(0.0, walk.default_tau0(T), count)
        rows = list(walk.propagate(T, taus))
        assert len(rows) == count
        for tau, row in zip(taus, rows):
            assert np.array_equal(row, next(walk.propagate(T, [tau])))


@pytest.mark.parametrize("T", [1719, 2962, 220])
def test_propagate_rows_match_the_complex_dst_oracle(T):
    taus = np.concatenate([[0.0, walk.default_tau0(T)],
                           np.random.default_rng(T).uniform(0.0, walk.default_tau0(T), 40)])
    phase = parity_phase(T)
    for tau, row in zip(taus, walk.propagate(T, taus)):
        assert np.max(np.abs(phase * row - one_dimensional_dst_row(T, tau))) <= 1e-11


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_propagate_rows_in_order_on_any_worker_count(workers, monkeypatch):
    # 3-row batches, so 47 taus make 16 batches spread over the threads
    T = 220
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", 3 * 16 * (T + 2))
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    assert batch_rows(T) == 3
    taus = np.random.default_rng(0).uniform(0.0, walk.default_tau0(T), 47)
    rows = list(walk.propagate(T, taus))
    assert len(rows) == len(taus)
    for tau, row in zip(taus, rows):
        assert row.dtype == np.float64
        assert np.array_equal(row, next(walk.propagate(T, [tau])))
        assert np.max(np.abs(parity_phase(T) * row - one_dimensional_dst_row(T, tau))) <= 1e-11


def test_propagate_keeps_few_batches_in_flight(monkeypatch):
    # 50 batches of 4 rows on 2 threads, read by a consumer that stalls
    # after its first row; threads that ran ahead through every batch would
    # hold 50 batches, the bound allows about a third of that
    T, per_batch, batches, workers = 2962, 4, 50, 2
    batch_bytes = per_batch * 16 * (T + 2)
    monkeypatch.setattr(walk, "PROPAGATE_BYTES", batch_bytes)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    taus = np.linspace(0.0, walk.default_tau0(T), per_batch * batches)
    next(walk.propagate(T, [1.0]))  # lazy set-up stays outside the measurement
    tracemalloc.start()
    try:
        rows = walk.propagate(T, taus)
        next(rows)
        time.sleep(0.5)
        count = 1 + sum(1 for _ in rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == per_batch * batches
    assert peak < 6 * (workers + 1) * batch_bytes


@pytest.mark.parametrize("T", [1, 7, 34, 154])
def test_propagate_matches_dense_eigensystem(T):
    lam, v = oracles.eigensystem(T)
    taus = [0.0, 0.4, 3.7, 50.0, walk.default_tau0(T)]
    for tau, row in zip(taus, walk.propagate(T, taus)):
        dense = v @ (np.exp(-1j * lam * tau) * v[0, :])
        assert np.max(np.abs(parity_phase(T) * row - dense)) <= 1e-12
        assert np.array_equal(walk.evolve(T, tau).amps, parity_phase(T) * row)


def test_evolve_builds_no_dense_matrix():
    # the (T+1)^2 eigenvector matrix would take 80 GB here; one row is 1.6 MB
    walk.evolve(10, 1.0)  # lazy imports and FFT set-up stay outside the measurement
    tracemalloc.start()
    try:
        amps = walk.evolve(100000, 3.0).amps
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amps.shape == (100001,)
    assert peak < 32 * 2**20


def test_norm_conserved_and_group_property():
    T = 34
    for tau in (0.0, 3.7, 50.0):
        assert abs(np.sum(walk.evolve(T, tau).probabilities()) - 1.0) <= 1e-9
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


@pytest.mark.parametrize("block_rows", [1, 3, 34])
def test_tail_prob_does_not_depend_on_its_row_blocks(block_rows, monkeypatch):
    # of the T+1 = 35 rows, 3-row blocks leave 2 over and 34-row blocks 1
    T, q, tau0 = 34, 3, 340.0
    want = dense_tail(T, q, tau0)
    monkeypatch.setattr(walk, "TAIL_BLOCK_BYTES", 8 * (T + 1) * block_rows)
    assert abs(walk.tail_prob(T, q, tau0) - want) <= 1e-12


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


@pytest.mark.parametrize("T", [18, 34, 154])
def test_residual_envelope_constant(T):
    limit = walk.tail_prob_limit(T, 6)
    for factor in (10.0, 100.0):
        tau0 = factor * T
        resid = abs(walk.tail_prob(T, 6, tau0) - limit)
        assert resid * tau0 / T <= ENVELOPE_C


def test_spec_validation():
    with pytest.raises(ValueError):
        walk.WalkSpec(0, 6, 1.0)
    with pytest.raises(ValueError):
        walk.WalkSpec(10, 1, 1.0)
    with pytest.raises(ValueError):
        walk.WalkSpec(10, 6, 0.0)


@pytest.mark.parametrize("tau0", [np.inf, -np.inf, np.nan])
def test_tail_prob_refuses_a_non_finite_horizon(tau0):
    with pytest.raises(ValueError, match="finite"):
        walk.WalkSpec(34, 6, tau0)
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


def events_last_real(scheme: str, trace, n: int, r: int) -> int:
    """Step of the last gate of rounds 1..r, read off the trace's events."""
    if scheme == "ham5":
        real = [ev.step for ev in trace.events.values() if ev.round <= r]
    else:
        real = [ev.step for ev in trace.events.values() if 0 < ev.m <= r * (n - 1)]
    return max(real)


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
                    T, last_real = walk.closed_form_steps(n, R, r_real, scheme)
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
    monkeypatch.setattr(walk, "closed_form_steps", lambda n, R, r, scheme: (0, 1))
    with pytest.raises(walk.PaddingError):
        walk.padding_plan(2, 3, 6, "ham5")


def test_csv_emitters():
    table = walk.probability_table_csv(1, [0.0]).splitlines()
    assert table[0] == "tau,m,p"
    assert table[1].startswith("0,0,1")


def test_probability_table_csv_equals_per_line_formatting():
    T, taus = 220, [0.0, 1.5, walk.default_tau0(220)]
    lines = ["tau,m,p\n"]
    for tau, row in zip(taus, walk.propagate(T, taus)):
        lines += [f"{tau:.12g},{m},{p:.12g}\n" for m, p in enumerate(np.abs(row) ** 2)]
    assert walk.probability_table_csv(T, taus) == "".join(lines)


def test_evolve_table_matches_the_complex_dst_oracle():
    # the `spectral` workload's table: `evolve --T 2962 --taus 3,...,30000`
    T, taus = 2962, [3.0, 30.0, 300.0, 3000.0, 30000.0]
    table = np.loadtxt(walk.probability_table_csv(T, taus).splitlines()[1:], delimiter=",")
    want = np.concatenate([np.abs(one_dimensional_dst_row(T, tau)) ** 2 for tau in taus])
    assert np.array_equal(table[:, 1], np.tile(np.arange(T + 1), len(taus)))
    assert np.max(np.abs(table[:, 2] - want)) <= 1e-12


def test_padding_plan_refuses_a_history_past_max_T(monkeypatch):
    calls = []
    closed = walk.closed_form_steps
    monkeypatch.setattr(walk, "closed_form_steps",
                        lambda *a: calls.append(a) or closed(*a))
    with pytest.raises(walk.PaddingError, match="over the limit"):
        walk.padding_plan(2, 10**9, 6, "ham8")
    assert len(calls) == 1  # T grows with R, so the first candidate decides


def test_non_finite_amplitudes_are_not_normalised():
    with pytest.raises(ValueError):
        walk.WalkAmplitudes(0.0, np.array([np.nan, 0.0]))


def test_history_length_refuses_too_many_cell_steps():
    # sample --scheme ham5 --q 100000 on a 3-qubit, 2-round circuit pads to
    # R=106453: T=3300015 is under MAX_T, but on 638719 sites it would step
    # for about a day
    padded = Circuit(3, walk.padding_plan(3, 2, 100000, "ham5"))
    assert padded.rounds == 106453
    with pytest.raises(ValueError, match="cell steps"):
        walk.history_length("ham5", padded)
    # the rewritten-Z ham8 row, the largest run that finishes, stays below it
    assert walk.history_length("ham8", Circuit(2, 92)) * 552 <= walk.MAX_CELL_STEPS


@pytest.mark.parametrize("scheme,boundary,cells", [
    ("ham5", e8.OPEN, 1 + 2 * 3 * 2),
    ("ham8", e8.OPEN, 3 + 4 + 2 * 1 * 4),
    ("ham8", e8.PERIODIC_X, 3 + 4 + 2 * 1 * 4 + 1),  # the ring's stopper cell
])
def test_history_length_limit_counts_every_cell(scheme, boundary, cells, monkeypatch):
    circuit = Circuit(3, 2)
    T = walk.closed_form_steps(3, 2, 2, scheme)[0]
    monkeypatch.setattr(walk, "MAX_CELL_STEPS", T * cells)
    assert walk.history_length(scheme, circuit, boundary) == T
    monkeypatch.setattr(walk, "MAX_CELL_STEPS", T * cells - 1)
    with pytest.raises(ValueError, match="cell steps"):
        walk.history_length(scheme, circuit, boundary)
