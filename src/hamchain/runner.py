"""Measurement protocol: pad with identity rounds, evolve for a random time,
sample a history index, accept late indices, and read out the register.

Sampling uses the factored representation: the history index distribution
|c_t(tau)|^2 = D_t(tau)^2 comes from the real rows D of `walk.propagate`,
one real DST per shot, which it computes in batches split over worker
threads.  There each batch's rows become CDFs in place and each shot's
history index is drawn (`draw_steps`); the main thread only joins the
batches' steps and draws the readouts with one vectorised `searchsorted`.
The readout of an accepted index t comes from the register at t.  This is
exact because distinct configurations are orthogonal basis patterns.

Only one register is kept: the one after the last real gate.  Padding puts
the acceptance threshold past that gate, and no event after it fires: each
is an identity slot of a padding round, which machine.fire leaves as it
is.  So every accepted index reads that register bit for bit.
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

MAX_SHOTS = 10**7  # most shots in one run, which keeps arrays and a report line per shot
DEFAULT_Q = 6  # default q of RunPlan and `sample --q`: accepted indices lie past T/q


@dataclass(frozen=True)
class RunPlan:
    circuit: Circuit
    scheme: str
    q: int = DEFAULT_Q
    tau0: float | None = None  # None: 10 T log(T+2) after padding
    shots: int = 1000
    seed: int = 0
    initial: str | None = None  # bit string; None: all zeros

    def __post_init__(self):
        if self.scheme not in walk.SCHEME_MODULES:
            raise ValueError(f"scheme must be one of {tuple(walk.SCHEME_MODULES)}")
        if not 1 <= self.shots <= MAX_SHOTS or self.q < 2:
            raise ValueError(f"need 1 <= shots <= {MAX_SHOTS} and q >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
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
        for tau, t, acc, r in zip(self.taus.tolist(), self.steps.tolist(),
                                  self.accepted.tolist(), self.readouts):
            out.write(f"{tau:.12g} {t} {int(acc)} {r if r is not None else '-'}\n")
        out.write("histogram\n")
        hist = self.histogram()
        for key in sorted(hist):
            out.write(f"{key} {hist[key]}\n")
        out.write(f"acceptance_rate {self.acceptance_rate:.12g}\n")
        return out.getvalue()


def padded_circuit(circuit: Circuit, q: int, scheme: str) -> Circuit:
    """The instance `sample` runs: `circuit` with the identity rounds that
    walk.padding_plan picks for q."""
    R = walk.padding_plan(circuit.n, circuit.rounds, q, scheme)
    return Circuit(circuit.n, R, dict(circuit.gates))


def padded_history(plan: RunPlan):
    """(history, rounds_total, register after the last real gate, step of the
    last real gate) for the padded machine.

    The padded instance is checked once, here: the engine's T and last real
    step must equal the closed forms, and that step must precede the
    threshold, or PaddingError is raised.  The replay stops at that step.
    """
    n, r_real = plan.circuit.n, plan.circuit.rounds
    padded = padded_circuit(plan.circuit, plan.q, plan.scheme)
    history = walk.enumerate_history(plan.scheme, padded)
    last_real = history.last_real_step(r_real)
    expected = walk.scheme_module(plan.scheme).closed_forms(n, padded.rounds, r_real)
    threshold = walk.tail_threshold(history.T, plan.q)
    # an accepted index t >= threshold must lie after the last real gate,
    # so that the register returned is the register state at t
    if (history.T, last_real) != expected or threshold <= last_real:
        raise walk.PaddingError(f"engine gives T={history.T}, last real step {last_real}; "
                                f"closed forms give {expected[0]}, {expected[1]}; "
                                f"threshold {threshold} must exceed the last real step")
    initial = QubitState.basis(plan.initial or "0" * n)
    register = next(islice(history.registers(padded, initial), last_real + 1, None))
    return history, padded.rounds, register, last_real


def draw_steps(rows: np.ndarray, u: np.ndarray, T: int) -> np.ndarray:
    """History index drawn for each of `walk.propagate`'s real rows D by its
    uniform in `u`; `walk.propagate` runs it on the batch's worker thread.
    In place, `walk.probabilities` squares each row into |c_t|^2 = D_t^2
    and checks its norm, and the row becomes the cumulative distribution
    normalised by its row sum.  The index is min(#{t: cdf_t <= u}, T),
    which is searchsorted(cdf, u, side="right") on a non-decreasing row."""
    norms = walk.probabilities(rows)
    rows /= norms[:, None]
    cdf = np.cumsum(rows, axis=1, out=rows)
    return np.minimum(np.count_nonzero(cdf <= u[:, None], axis=1), T)


def run(plan: RunPlan) -> RunReport:
    history, r_total, register, _ = padded_history(plan)
    T = history.T
    tau0 = plan.tau0 if plan.tau0 is not None else walk.default_tau0(T)
    threshold = walk.tail_threshold(T, plan.q)
    n = plan.circuit.n

    rng = np.random.default_rng(plan.seed)
    taus = rng.uniform(0.0, tau0, plan.shots)
    u_step = rng.random(plan.shots)
    u_read = rng.random(plan.shots)

    def finish(rows, start):
        return draw_steps(rows, u_step[start:start + len(rows)], T)

    steps = np.concatenate(walk.propagate(T, taus, finish))
    accepted = steps >= threshold
    pq = np.abs(register.amps) ** 2
    read_cdf = np.cumsum(pq / pq.sum())
    reads = np.minimum(np.searchsorted(read_cdf, u_read, side="right"), 2**n - 1)
    width = f"0{n}b"
    readouts = [format(x, width) if a else None
                for x, a in zip(reads.tolist(), accepted.tolist())]
    return RunReport(
        plan=plan, T=T, rounds_total=r_total, tau0=float(tau0),
        threshold=threshold, taus=taus, steps=steps, accepted=accepted,
        readouts=readouts,
    )
