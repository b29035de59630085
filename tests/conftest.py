"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's production code
paths: finite differences instead of closed-form derivatives, configuration
enumeration instead of composition enumeration, mpmath instead of float64.
The full-support oracles read the compositions from ``composition_blocks``
and weigh them by the explicit lgamma formula, not by the library's tables,
profiles or orbits.  ``OrbitSum`` reweights every orbit row that
``exact._orbit_blocks`` yields, the rows ``BProfile`` prunes.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from tensorpotts import ModelSpec
from tensorpotts.exact import _orbit_blocks, composition_blocks


def trapezoid(y, x) -> float:
    """Trapezoid rule on samples y at nodes x (np.trapezoid needs numpy >= 2)."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def central_difference(fn, x: float, step: float) -> float:
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def brute_force_log_partition(spec: ModelSpec, N: int) -> float:
    """log sum over all q^N configurations of exp(N(beta sum xbar^p + h xbar1))."""
    logs = []
    for cfg in itertools.product(range(spec.q), repeat=N):
        x = np.bincount(cfg, minlength=spec.q) / N
        logs.append(N * (spec.beta * float(np.sum(x ** spec.p)) + spec.h * float(x[0])))
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def support(N: int, q: int) -> np.ndarray:
    """Every composition of N into q parts, lexicographic, as one int64 array."""
    return np.concatenate(list(composition_blocks(N, q)))


def log_weights(spec: ModelSpec, N: int, counts) -> np.ndarray:
    """Unnormalized log-weights of a block of compositions:
    log N! - sum_r log c_r! + N (beta sum_r (c_r/N)^p + h c_1/N)."""
    counts = np.asarray(counts)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    x = counts / N
    return (math.lgamma(N + 1.0) - log_fact[counts].sum(axis=1)
            + N * (spec.beta * np.sum(x ** spec.p, axis=1) + spec.h * x[:, 0]))


def law_marginal(law, coord: int) -> np.ndarray:
    """pmf over 0..N of one colour count of an ExactLaw, by bincount over its support."""
    return np.bincount(law.support[:, coord], weights=law.probs(), minlength=law.N + 1)


def stream_expectation(spec: ModelSpec, N: int, stat) -> float:
    """E stat(xbar) in one streaming pass over the composition blocks, with a
    running-max log-sum-exp; ``stat`` maps a block of rows to a 1-D array."""
    top, z, total = -np.inf, 0.0, 0.0
    for block in composition_blocks(N, spec.q):
        lw = log_weights(spec, N, block)
        m = float(lw.max())
        if m > top:
            scale = math.exp(top - m)
            z, total, top = z * scale, total * scale, m
        e = np.exp(lw - top)
        z += float(e.sum())
        total += float(np.einsum("i,i", stat(block / N), e))
    return total / z


def stream_tail_prob(spec: ModelSpec, N: int, eps: float, maximizers) -> float:
    """P(d(xbar, M) >= eps) by streaming every composition."""
    mats = np.asarray(maximizers, dtype=float)

    def far(x):
        d2 = ((x[:, None, :] - mats[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return (d2 >= eps * eps).astype(float)

    return stream_expectation(spec, N, far)


class OrbitSum:
    """u_{N,p} and N Var(sum xbar_r^p) summed over every orbit row, unpruned.

    ``base`` and ``pnorm`` are the rows' beta-free log-weights and p-norms in
    the library's row order; ``moments`` takes any beta, negative included.
    """

    def __init__(self, spec: ModelSpec, N: int):
        count, blocks = _orbit_blocks(spec, N, 2 * 8)
        self.N = N
        self._ladder = {}  # the ML solver's memo, as on the library's profiles
        self.base, self.pnorm = np.empty(count), np.empty(count)
        pos = 0
        for block, base, pnorm in blocks:
            self.base[pos:pos + len(block)] = base
            self.pnorm[pos:pos + len(block)] = pnorm
            pos += len(block)

    def log_weights(self, beta: float) -> np.ndarray:
        return self.base + self.pnorm * (self.N * beta)

    def moments(self, beta: float) -> tuple:
        w = self.log_weights(beta)
        w -= w.max()
        np.exp(np.maximum(w, -700.0, out=w), out=w)
        z = w.sum()
        mean = np.einsum("i,i", w, self.pnorm) / z
        second = np.einsum("i,i,i", w, self.pnorm, self.pnorm) / z
        return float(mean), float(self.N * (second - mean * mean))

    def up(self, beta: float) -> float:
        return self.moments(beta)[0]


def mp_free_energy(spec: ModelSpec, v, dps: int = 60) -> float:
    """Arbitrary-precision evaluation of beta sum v^p + h v1 - sum v log v."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for i, x in enumerate(v):
            x = mpmath.mpf(repr(float(x)))
            total += mpmath.mpf(repr(float(spec.beta))) * x ** spec.p
            if x > 0:
                total -= x * mpmath.log(x)
        total += mpmath.mpf(repr(float(spec.h))) * mpmath.mpf(repr(float(v[0])))
        return float(total)


def grid_argmax_f(spec: ModelSpec, n_points: int = 1_000_001):
    """Dense-grid maximizer of f, as an independent check on the root scan."""
    from tensorpotts import f_deriv

    s = np.linspace(0.0, 1.0 - 1e-9, n_points)
    vals = f_deriv(spec, s, 0)
    i = int(np.argmax(vals))
    return float(s[i]), float(vals[i])


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@pytest.fixture(scope="session")
def fig_regular_spec() -> ModelSpec:
    """The regular benchmark point for (p, q) = (4, 3)."""
    return ModelSpec(4, 3, 0.616, 0.67)
