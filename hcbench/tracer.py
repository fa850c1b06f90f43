"""Spans around the calls into each hamchain layer, recorded from outside.

Each function is wrapped where its caller looks it up: a module attribute
for callers that write `module.fn(...)` or call a module-level name, and the
importing module's own binding for names bound by `from ... import`.  A
binding that no longer exists is reported as absent; nothing else changes.
Spans stay in memory and job.py writes them out when the job ends.
"""
from __future__ import annotations

import functools
import importlib
import time


def _run_info(args, kwargs, report):
    return {"shots": int(len(report.steps)), "accepted": int(report.accepted.sum())}


def _padded_info(args, kwargs, result):
    plan, trace = args[0], result[0]
    return {"prefix_mb": (trace.T + 1) * 2**plan.circuit.n * 16 / 1e6}


def _padding_info(args, kwargs, r_total):
    return {"rounds_added": int(r_total - args[1])}


def _steps_info(args, kwargs, trace):
    return {"steps": int(trace.T)}


def _dst_info(args, kwargs, out):
    return {"n": int(args[0].shape[kwargs.get("axis", -1)])}  # transform length


def _cert_info(args, kwargs, report):
    return {"states": len(report.lines)}


def _eig_info(args, kwargs, result):
    return {"mb": sum(a.nbytes for a in result) / 1e6}


# (module, attribute, span name, attrs taken from the call)
WRAPS = (
    ("hamchain.cli", "main", "cli.main", None),
    ("hamchain.cli", "run", "runner.run", _run_info),
    ("hamchain.cli", "rewrite_to_ws", "circuit.rewrite_to_ws", None),
    ("hamchain.runner", "padded_history", "runner.padded_history", _padded_info),
    ("hamchain.runner", "dst", "runner.dst", _dst_info),
    ("hamchain.runner", "apply_unitary", "gates.apply_unitary", None),
    ("hamchain.subspace", "apply_unitary", "gates.apply_unitary", None),
    ("hamchain.gates", "apply_unitary", "gates.apply_unitary", None),
    ("hamchain.walk", "padding_plan", "walk.padding_plan", _padding_info),
    ("hamchain.five_state", "enumerate_history5", "five_state.enumerate_history5", _steps_info),
    ("hamchain.eight_state", "enumerate_history8", "eight_state.enumerate_history8", _steps_info),
    ("hamchain.subspace", "certify_subspace", "subspace.certify_subspace", _cert_info),
    ("hamchain.subspace", "apply_H5", "subspace.apply_H", None),
    ("hamchain.subspace", "apply_H8", "subspace.apply_H", None),
    ("hamchain.walk", "avg_prob_all", "walk.avg_prob_all", None),
    ("hamchain.walk", "eigensystem", "walk.eigensystem", _eig_info),
    ("hamchain.walk", "probability_table_csv", "walk.probability_table_csv", None),
    ("hamchain.walk", "tail_prob", "walk.tail_prob", None),
    ("hamchain.walk", "tail_prob_limit", "walk.tail_prob_limit", None),
)


class Tracer:
    """Records [name, start, end, parent index, attrs] spans of one job."""

    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self, wraps=WRAPS) -> None:
        for module_name, attr, name, info in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, info))
            self.installed.add(name)

    def wrap(self, fn, name: str, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                try:
                    span[4] = info(args, kwargs, result)
                except Exception:  # a refactored signature loses the attrs, not the job
                    pass
            return result

        return traced
