"""Measurement protocol: pad with identity rounds, evolve for a random time,
sample a history index, accept late indices, and read out the register.

Sampling uses the factored representation: the history index distribution
|c_t(tau)|^2 = D_t(tau)^2 comes from the real rows D of `walk.propagate`,
one real DST per shot, which it computes in batches on worker threads and
turns into per-row CDFs there (`step_cdfs`); the main thread only draws the
indices by `searchsorted` and builds the readouts.  The readout of an
accepted index t comes from the register at t.  This is exact because
distinct configurations are orthogonal basis patterns.

Only one register is kept: the one after the last real gate.  Padding puts
the acceptance threshold past that gate, and every later event is an
identity of a padding round or a silent ham8 scaffold firing.  Multiplying
by an identity changes at most the sign of a zero amplitude, which the
readout's |amplitude|^2 removes, so every accepted index reads the same
register bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from io import StringIO
from itertools import islice

import numpy as np

from . import walk
from .circuit import Circuit
from .gates import QubitState, check_register_size

GENERATOR_NAME = "numpy-default_rng-PCG64"

SCHEMES = ("ham5", "ham8")

MAX_SHOTS = 10**7  # most shots in one run, which keeps arrays and a report line per shot


@dataclass(frozen=True)
class RunPlan:
    circuit: Circuit
    scheme: str
    q: int = 6
    tau0: float | None = None  # None: 10 T log(T+2) after padding
    shots: int = 1000
    seed: int = 0
    initial: str | None = None  # bit string; None: all zeros

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not 1 <= self.shots <= MAX_SHOTS or self.q < 2:
            raise ValueError(f"need 1 <= shots <= {MAX_SHOTS} and q >= 2")
        if self.tau0 is not None and not 0 < self.tau0 < math.inf:
            raise ValueError("need a finite tau0 > 0")
        if self.initial is not None and (
            len(self.initial) != self.circuit.n or set(self.initial) - {"0", "1"}
        ):
            raise ValueError("initial must be an n-qubit bit string")
        check_register_size(self.circuit.n)


@dataclass
class RunReport:
    plan: RunPlan
    T: int
    rounds_total: int
    tau0: float
    threshold: int  # smallest accepted history index
    taus: np.ndarray = field(repr=False, default=None)
    steps: np.ndarray = field(repr=False, default=None)
    accepted: np.ndarray = field(repr=False, default=None)
    readouts: list = field(repr=False, default=None)  # bit string or None per shot

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))

    def histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for r in self.readouts:
            if r is not None:
                hist[r] = hist.get(r, 0) + 1
        return hist

    def serialize(self) -> str:
        p = self.plan
        out = StringIO()
        out.write(f"scheme {p.scheme}\n")
        out.write(f"qubits {p.circuit.n}\n")
        out.write(f"rounds_real {p.circuit.rounds}\n")
        out.write(f"rounds_total {self.rounds_total}\n")
        out.write(f"q {p.q}\n")
        out.write(f"tau0 {self.tau0:.12g}\n")
        out.write(f"shots {p.shots}\n")
        out.write(f"seed {p.seed}\n")
        out.write(f"generator {GENERATOR_NAME}\n")
        out.write(f"initial {p.initial or '0' * p.circuit.n}\n")
        out.write(f"T {self.T}\n")
        out.write(f"threshold {self.threshold}\n")
        out.write("shot_records tau t accepted readout\n")
        for tau, t, acc, r in zip(self.taus, self.steps, self.accepted, self.readouts):
            out.write(f"{tau:.12g} {t} {int(acc)} {r if r is not None else '-'}\n")
        out.write("histogram\n")
        hist = self.histogram()
        for key in sorted(hist):
            out.write(f"{key} {hist[key]}\n")
        out.write(f"acceptance_rate {self.acceptance_rate:.12g}\n")
        return out.getvalue()


def padded_history(plan: RunPlan):
    """(history, rounds_total, register after the last real gate, step of the
    last real gate) for the padded machine.

    The single enumeration is checked against the closed forms the padding
    plan relied on; a mismatch raises PaddingError.  The replay stops at the
    last real gate.
    """
    n, r_real = plan.circuit.n, plan.circuit.rounds
    r_total = walk.padding_plan(n, r_real, plan.q, plan.scheme)
    padded = Circuit(n, r_total, dict(plan.circuit.gates))
    history = walk.enumerate_history(plan.scheme, padded)
    last_real = history.last_real_step(r_real)
    expected = walk.closed_form_steps(n, r_total, r_real, plan.scheme)
    if (history.T, last_real) != expected:
        raise walk.PaddingError(
            f"engine gives T={history.T}, last real step {last_real}; "
            f"closed forms give {expected[0]}, {expected[1]}"
        )
    initial = QubitState.basis(plan.initial or "0" * n)
    register = next(islice(history.registers(padded, initial), last_real + 1, None))
    return history, r_total, register, last_real


def step_cdfs(rows: np.ndarray) -> np.ndarray:
    """Cumulative history-index distribution of each of `walk.propagate`'s
    real rows D, |c_t|^2 = D_t^2 normalised by its row sum; `walk.propagate`
    runs it on the batch's worker thread."""
    probs = np.square(rows)
    probs /= probs.sum(axis=1, keepdims=True)
    return np.cumsum(probs, axis=1)


def run(plan: RunPlan) -> RunReport:
    history, r_total, register, last_real = padded_history(plan)
    T = history.T
    tau0 = plan.tau0 if plan.tau0 is not None else walk.default_tau0(T)
    threshold = walk.tail_threshold(T, plan.q)
    n = plan.circuit.n
    if threshold <= last_real:
        # an accepted index t >= threshold must lie after the last real gate,
        # so that `register` is the register state at t
        raise walk.PaddingError(
            f"threshold {threshold} does not exceed last real step {last_real}"
        )

    rng = np.random.default_rng(plan.seed)
    taus = rng.uniform(0.0, tau0, plan.shots)
    u_step = rng.random(plan.shots)
    u_read = rng.random(plan.shots)

    pq = np.abs(register.amps) ** 2
    read_cdf = np.cumsum(pq / pq.sum())

    steps = np.empty(plan.shots, dtype=int)
    accepted = np.zeros(plan.shots, dtype=bool)
    readouts: list = [None] * plan.shots
    for s, cdf in enumerate(walk.propagate(T, taus, step_cdfs)):
        t = int(np.searchsorted(cdf, u_step[s], side="right"))
        t = min(t, T)
        steps[s] = t
        if t >= threshold:
            accepted[s] = True
            x = int(np.searchsorted(read_cdf, u_read[s], side="right"))
            readouts[s] = format(min(x, 2**n - 1), f"0{n}b")
    return RunReport(
        plan=plan, T=T, rounds_total=r_total, tau0=float(tau0),
        threshold=threshold, taus=taus, steps=steps, accepted=accepted,
        readouts=readouts,
    )

