"""Pieces shared by the workloads: spans, op accounting, seeded data and checks.

The benchmark times the library from outside.  Every call into a layer goes
through ``tracer.call(name, fn, ...)``; with tracing off that is a plain call,
with tracing on it also records a span (name, start, end, parent, op id) in
memory.  Work counts go through ``tracer.count(metric_name, n)``.
"""

from __future__ import annotations

import math
import os
import time
import zlib
from array import array
from typing import Callable, NamedTuple

import numpy as np

# Guard edge of the reduced free energy's domain, s = 1 - 1e-9 (the library's
# documented boundary guard); the dense check grid ends exactly there.
GUARD_EDGE = 1.0 - 1e-9
DENSE_GRID = np.linspace(0.0, GUARD_EDGE, 16385)

# Documented absolute tie tolerance of the library ("equal maxima").
TIE_TOL = 1e-9
# |f'| allowed at a reported stationary point, and |f(s1) - f(s2)| at a tie.
STATIONARY_TOL = 1e-8
CURVE_TIE_TOL = 1e-8


class NullTracer:
    """Tracing off: calls pass straight through and counts are dropped."""

    enabled = False
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, n=1):
        pass


class Tracer:
    """Tracing on: spans and counters kept in memory until the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id or None]
        self.counters = {}
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def merge(self, other: "Tracer", span_names) -> None:
        """Copy the spans and counters of ``other`` that belong to ``span_names``."""
        offset = len(self.spans)
        kept = {}
        for i, (name, t0, t1, parent, op) in enumerate(other.spans):
            if name in span_names:
                kept[i] = offset + len(kept)
                self.spans.append([name, t0, t1, kept.get(parent), None])
        for key, n in other.counters.items():
            if key.rsplit(".", 1)[0] in span_names:
                self.count(key, n)


NULL_TRACER = NullTracer()


class Op(NamedTuple):
    """One operation of a workload: ``fn(tracer)`` does the work, ``check(out)``
    returns None when the output is right, else ``"<layer>: <reason>"``."""

    kind: str
    fn: Callable
    check: Callable


class Raised(NamedTuple):
    """Output of an op whose call raised a documented precondition error.

    The op's check decides whether the input really violates that
    precondition; if it does, the op is correct and is reported among the
    expected errors, else it is a failed check.
    """

    error: str


def cpu_now() -> float:
    """CPU seconds of this process and its reaped children (all threads)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Recorder:
    """Latency, CPU and outcome of every op in every pass.

    Kept in flat arrays so that the benchmark's own bookkeeping does not grow
    the peak RSS it measures with the number of passes.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latency = array("d")
        self.cpu = array("d")
        self.errors = {}  # (pass, op index) -> exception name or "check <reason>"
        self.expected = {}  # (pass, op index) -> confirmed precondition error name
        self.passes = 0

    def run_pass(self, tracer) -> None:
        for i, op in enumerate(self.ops):
            tracer.op = (self.passes, i)
            t0, c0 = time.perf_counter(), cpu_now()
            try:
                out = tracer.call("op." + op.kind, op.fn, tracer)
                error = None
            except Exception as exc:  # an op that raises is a counted failure
                out, error = None, type(exc).__name__
            self.latency.append(time.perf_counter() - t0)
            self.cpu.append(cpu_now() - c0)
            if error is None:
                try:
                    reason = op.check(out)
                except Exception as exc:  # an output the check cannot read is wrong
                    reason = f"op.{op.kind}: check raised {type(exc).__name__}: {exc}"
                if reason is not None:
                    error = "check " + reason
                    tracer.count(reason.split(":", 1)[0] + ".check_failed")
            if error is not None:
                self.errors[self.passes, i] = error
            elif isinstance(out, Raised):
                self.expected[self.passes, i] = out.error
            del out
        tracer.op = None
        self.passes += 1

    def pass_sum(self, values, k: int) -> float:
        n = len(self.ops)
        return sum(values[k * n:(k + 1) * n])


def seeded_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) so workloads never share draws."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def draw_data(law, rng: np.random.Generator, n: int) -> np.ndarray:
    """n magnetization vectors from an exact law, by the benchmark's own
    inversion of the cumulative pmf over the lexicographically sorted support
    (independent of the library's sampler and of its support order)."""
    support = np.asarray(law.support)
    order = np.lexsort(support.T[::-1])
    cum = np.cumsum(np.exp(np.asarray(law.log_probs)[order]))
    idx = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    return support[order][np.minimum(idx, len(order) - 1)] / law.N


def traced_profile(tp, tracer, cls_name: str, method: str):
    """A thin subclass of tp.<cls_name> whose ``method`` is a span, so its
    evaluations are counted and timed when passed as ``profile=``."""
    base = getattr(tp, cls_name)
    plain = getattr(base, method)
    span = f"exact.{cls_name}.{method}"

    def traced(self, x):
        return tracer.call(span, plain, self, x)

    return type("Traced" + cls_name, (base,), {method: traced})


# --- output checks -----------------------------------------------------------


def check_maximizers(tp, spec, pc):
    """Reported maximizers reach the max of f on a dense grid plus guard edge."""
    best = float(np.max(tp.f_deriv(spec, DENSE_GRID, 0)))
    got = max(float(tp.f_deriv(spec, float(s), 0)) for s in pc.witness.s_values)
    if got < best - TIE_TOL:
        return (f"phase.classify_point: f at the reported maximizer is {got:.6g}, "
                f"below the dense-grid max {best:.6g}")
    return None


def _local_maxima(tp, spec):
    d1 = tp.f_deriv(spec, DENSE_GRID, 1)
    found = []
    for i in np.nonzero((d1[:-1] > 0) & (d1[1:] <= 0))[0]:
        lo, hi = float(DENSE_GRID[i]), float(DENSE_GRID[i + 1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if tp.f_deriv(spec, mid, 1) > 0:
                lo = mid
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    if d1[-1] > 0:
        found.append(GUARD_EDGE)
    return found


def check_tie(tp, spec, layer: str):
    """The two highest local maxima of f tie: (beta, h) is on the critical curve."""
    values = sorted(float(tp.f_deriv(spec, s, 0)) for s in _local_maxima(tp, spec))
    if len(values) < 2:
        return f"{layer}: ({spec.beta:.6g}, {spec.h:.6g}) has one local maximum"
    if values[-1] - values[-2] > CURVE_TIE_TOL:
        return f"{layer}: maxima differ by {values[-1] - values[-2]:.3g} at a curve point"
    return None


def check_curve_sample(tp, p, q, c):
    spec = tp.ModelSpec(p, q, c.beta, c.h)
    d1 = [abs(float(tp.f_deriv(spec, s, 1))) for s in (c.s_low, c.s_high)]
    gap = abs(float(tp.f_deriv(spec, c.s_high, 0) - tp.f_deriv(spec, c.s_low, 0)))
    if max(d1) > STATIONARY_TOL or gap > CURVE_TIE_TOL:
        return (f"phase.critical_curve: sample h={c.h:.6g} has |f'| {max(d1):.3g}, "
                f"tie gap {gap:.3g}")
    return None


def check_law(law, N):
    total = float(np.sum(np.exp(np.asarray(law.log_probs))))
    if abs(total - 1.0) > 1e-12:
        return f"exact.magnetization_law: probabilities sum to 1 + {total - 1.0:.3g}"
    if np.any(np.asarray(law.support).sum(axis=1) != N):
        return "exact.magnetization_law: a support row does not sum to N"
    return None


def check_draws(draws, N):
    scaled = np.asarray(draws) * N
    if np.max(np.abs(scaled - np.rint(scaled))) > 1e-9:
        return "sampling.exact_sample: a draw is not a multiple of 1/N"
    if np.max(np.abs(np.sum(draws, axis=1) - 1.0)) > 1e-12:
        return "sampling.exact_sample: a draw does not sum to 1"
    return None


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
