"""Exact finite-N law of the magnetization by enumeration over color counts.

The magnetization vector is a sufficient statistic, so the model law pushes
forward to the composition space {c in Z_{>=0}^q : sum c = N} with
unnormalized log-weights

    log N! - sum_r log(c_r!) + N * (beta * sum_r (c_r/N)^p + h * c_1/N).

Enumeration is over compositions (C(N+q-1, q-1) states), never over the q^N
configurations; log-factorials use log-gamma, and all reductions stream over
composition blocks with a running-max log-sum-exp, so N*H beyond the float
exponent range is safe.  ``HProfile`` and ``BProfile`` cache the parts of the
weight that do not depend on h (resp. beta), so each maximum-likelihood
Newton step is one cheap reweighting that yields the expectation and its
derivative together.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SupportSizeError
from .model import ModelSpec

# Default cap on the number of support points: keeps q = 3 at N = 1e4 feasible
# and q = 2 at N = 1e5 trivial; q >= 4 callers must reduce N.
DEFAULT_SUPPORT_CAP = 200_000_000

# Rows per enumeration block.
BLOCK_ROWS = 1_000_000


def n_compositions(N: int, q: int) -> int:
    return math.comb(N + q - 1, q - 1)


def check_cap(N: int, q: int, cap: int = DEFAULT_SUPPORT_CAP) -> int:
    count = n_compositions(N, q)
    if count > cap:
        raise SupportSizeError(count, cap)
    return count


def composition_blocks(N: int, q: int, cap: int = DEFAULT_SUPPORT_CAP,
                       block_rows: int = BLOCK_ROWS):
    """Yield the compositions of N into q parts as int64 blocks, lexicographic."""
    if N < 1 or q < 2:
        raise DomainError("need N >= 1 and q >= 2")
    check_cap(N, q, cap)
    yield from _blocks(N, q, block_rows)


def _blocks(N, q, block_rows):
    if q == 2:
        c1 = np.arange(N + 1, dtype=np.int64)
        yield np.stack([c1, N - c1], axis=1)
        return
    buf, rows = [], 0
    for c1 in range(N + 1):
        if N - c1 == 0:
            sub = np.zeros((1, q - 1), dtype=np.int64)
        else:
            sub = None
        parts = _blocks(N - c1, q - 1, block_rows) if sub is None else [sub]
        for sub in parts:
            block = np.empty((sub.shape[0], q), dtype=np.int64)
            block[:, 0] = c1
            block[:, 1:] = sub
            buf.append(block)
            rows += block.shape[0]
            if rows >= block_rows:
                yield np.concatenate(buf, axis=0)
                buf, rows = [], 0
    if buf:
        yield np.concatenate(buf, axis=0)


def compositions_iter(N: int, q: int, cap: int = DEFAULT_SUPPORT_CAP):
    """Stream each composition exactly once, lexicographically, as int64 rows."""
    for block in composition_blocks(N, q, cap):
        yield from block


def log_weight(spec: ModelSpec, N: int, counts) -> np.ndarray:
    """Unnormalized log-mass of a composition (or a block of them)."""
    counts = np.asarray(counts, dtype=np.int64)
    single = counts.ndim == 1
    block = counts[None, :] if single else counts
    if block.shape[1] != spec.q:
        raise DomainError(f"composition has {block.shape[1]} parts, expected q={spec.q}")
    if np.any(block < 0) or np.any(block.sum(axis=1) != N):
        raise DomainError("composition entries must be >= 0 and sum to N")
    x = block / N
    lw = gammaln(N + 1) - gammaln(block + 1).sum(axis=1)
    lw += N * (spec.beta * np.sum(x ** spec.p, axis=1) + spec.h * x[:, 0])
    return float(lw[0]) if single else lw


class _StreamingReducer:
    """Running-max log-sum-exp of weights with fused weighted statistics."""

    def __init__(self, n_stats: int):
        self.max = -np.inf
        self.z = 0.0
        self.sums = np.zeros(n_stats)

    def add(self, lw: np.ndarray, stats: np.ndarray | None):
        m = float(lw.max())
        if m > self.max:
            scale = math.exp(self.max - m) if np.isfinite(self.max) else 0.0
            self.z *= scale
            self.sums *= scale
            self.max = m
        e = np.exp(lw - self.max)
        self.z += float(e.sum())
        if stats is not None:
            self.sums += np.einsum("ij,j->i", stats, e)

    @property
    def log_sum(self) -> float:
        return self.max + math.log(self.z)

    @property
    def means(self) -> np.ndarray:
        return self.sums / self.z


def _fused_expectations(spec: ModelSpec, N: int, stat_fns, cap: int):
    """One streaming pass: log-partition plus expectations of the given maps.

    Each entry of ``stat_fns`` maps a block of magnetization vectors (rows
    x = c/N) to a 1-D array of statistic values.
    """
    red = _StreamingReducer(len(stat_fns))
    for block in composition_blocks(N, spec.q, cap):
        lw = log_weight(spec, N, block)
        if stat_fns:
            x = block / N
            stats = np.stack([fn(x) for fn in stat_fns], axis=0)
        else:
            stats = None
        red.add(lw, stats)
    return red.log_sum, red.means


def log_partition(spec: ModelSpec, N: int, cap: int = DEFAULT_SUPPORT_CAP) -> float:
    """log of q^N Z_N: the log-sum of exp(log_weight) over all compositions."""
    logz, _ = _fused_expectations(spec, N, [], cap)
    return logz


def expect_u1(spec: ModelSpec, N: int, cap: int = DEFAULT_SUPPORT_CAP) -> float:
    """u_{N,1}: exact expectation of the first magnetization coordinate."""
    _, means = _fused_expectations(spec, N, [lambda x: x[:, 0]], cap)
    return float(means[0])


def expect_up(spec: ModelSpec, N: int, cap: int = DEFAULT_SUPPORT_CAP) -> float:
    """u_{N,p}: exact expectation of the p-norm statistic sum_r xbar_r^p."""
    _, means = _fused_expectations(spec, N, [lambda x: np.sum(x ** spec.p, axis=1)], cap)
    return float(means[0])


def expect_functional(spec: ModelSpec, N: int, g, cap: int = DEFAULT_SUPPORT_CAP) -> float:
    """Exact expectation of g(xbar); g maps a block of rows to a 1-D array."""
    _, means = _fused_expectations(spec, N, [g], cap)
    return float(means[0])


def tail_prob(spec: ModelSpec, N: int, eps: float, maximizers=None,
              cap: int = DEFAULT_SUPPORT_CAP) -> float:
    """Exact P(d(Xbar, M) >= eps), M the set of global maximizers of H."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    if maximizers is None:
        from .phase import full_maximizer_set

        maximizers = full_maximizer_set(spec).vectors
    mats = np.stack([np.asarray(m, dtype=float) for m in maximizers], axis=0)

    def far(x):
        d2 = ((x[:, None, :] - mats[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return (d2 >= eps * eps).astype(float)

    _, means = _fused_expectations(spec, N, [far], cap)
    return float(means[0])


@dataclass(frozen=True)
class ExactLaw:
    """Normalized pmf of the magnetization over the full composition support."""

    spec: ModelSpec
    N: int
    support: np.ndarray  # int64, shape (M, q)
    log_probs: np.ndarray  # float64, log-sum-exp = 0

    @property
    def q(self) -> int:
        return self.spec.q

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def magnetizations(self) -> np.ndarray:
        return self.support / self.N

    def marginal(self, coord: int):
        """(values j/N, pmf) of a single magnetization coordinate."""
        if not (0 <= coord < self.q):
            raise DomainError(f"coordinate must be 0..{self.q - 1}")
        pmf = np.bincount(self.support[:, coord], weights=self.probs(),
                          minlength=self.N + 1)
        return np.arange(self.N + 1) / self.N, pmf

    def mean(self) -> np.ndarray:
        return np.einsum("i,ij->j", self.probs(), self.magnetizations())

    def expect(self, g) -> float:
        return float(np.einsum("i,i", self.probs(), g(self.magnetizations())))

    def save(self, path) -> None:
        """Binary dump: little-endian header (N, q, count as int64) followed by
        count packed records of q int32 counts and one float64 log-prob."""
        rec = np.dtype([("counts", "<i4", (self.q,)), ("log_prob", "<f8")])
        arr = np.empty(len(self.log_probs), dtype=rec)
        arr["counts"] = self.support.astype(np.int32)
        arr["log_prob"] = self.log_probs
        with open(path, "wb") as fh:
            fh.write(struct.pack("<qqq", self.N, self.q, len(arr)))
            fh.write(arr.tobytes())

    @classmethod
    def load(cls, path, spec: ModelSpec) -> "ExactLaw":
        with open(path, "rb") as fh:
            header = fh.read(24)
            if len(header) != 24:
                raise DomainError(f"dump header has {len(header)} of 24 bytes")
            N, q, count = struct.unpack("<qqq", header)
            if q != spec.q:
                raise DomainError(f"dump has q={q}, spec has q={spec.q}")
            rec = np.dtype([("counts", "<i4", (q,)), ("log_prob", "<f8")])
            body = fh.read()
        if len(body) != count * rec.itemsize:
            raise DomainError(f"dump body has {len(body)} bytes, not {count} x {rec.itemsize}")
        arr = np.frombuffer(body, dtype=rec)
        return cls(spec=spec, N=N, support=arr["counts"].astype(np.int64),
                   log_probs=arr["log_prob"].copy())


def magnetization_law(spec: ModelSpec, N: int, cap: int = DEFAULT_SUPPORT_CAP) -> ExactLaw:
    """Materialize the exact law (support + normalized log-probabilities)."""
    count = check_cap(N, spec.q, cap)
    support = np.empty((count, spec.q), dtype=np.int64)
    lw = np.empty(count)
    pos = 0
    for block in composition_blocks(N, spec.q, cap):
        m = block.shape[0]
        support[pos:pos + m] = block
        lw[pos:pos + m] = log_weight(spec, N, block)
        pos += m
    top = lw.max()
    logz = top + math.log(np.exp(lw - top).sum())
    return ExactLaw(spec=spec, N=N, support=support, log_probs=lw - logz)


class HProfile:
    """u_{N,1} and its h-derivative at fixed (p, q, beta, N).

    The field enters the weight only through h * c_1, so the h-free part can
    be collapsed onto the N+1 values of c_1 once; every subsequent evaluation
    is an (N+1)-term reweighting.  Exact, not an approximation.
    """

    def __init__(self, spec: ModelSpec, N: int, cap: int = DEFAULT_SUPPORT_CAP):
        self.spec = spec
        self.N = N
        L = np.full(N + 1, -np.inf)
        base_spec = spec.with_params(h=0.0)
        for block in composition_blocks(N, spec.q, cap):
            lw = log_weight(base_spec, N, block)
            np.logaddexp.at(L, block[:, 0], lw)
        self._L = L
        self._j = np.arange(N + 1)
        self._x1 = self._j / N

    def moments(self, h: float) -> tuple:
        """(u_{N,1}(h), du_{N,1}/dh = N Var(xbar_1)) from one reweighting."""
        return _tilted_moments(self._L, self._j * h, self._x1, self.N)

    def u1(self, h: float) -> float:
        return self.moments(h)[0]


class BProfile:
    """u_{N,p} and its beta-derivative at fixed (p, q, h, N).

    Caches the beta-free log-weight and the p-norm statistic per composition;
    each evaluation is a vectorized reweighting over the full support.
    """

    def __init__(self, spec: ModelSpec, N: int, cap: int = DEFAULT_SUPPORT_CAP):
        self.spec = spec
        self.N = N
        count = check_cap(N, spec.q, cap)
        self._rest = np.empty(count)
        self._pnorm = np.empty(count)
        pos = 0
        base_spec = spec.with_params(beta=0.0)
        for block in composition_blocks(N, spec.q, cap):
            m = block.shape[0]
            self._rest[pos:pos + m] = log_weight(base_spec, N, block)
            self._pnorm[pos:pos + m] = np.sum((block / N) ** spec.p, axis=1)
            pos += m

    def moments(self, beta: float) -> tuple:
        """(u_{N,p}(beta), du_{N,p}/dbeta = N Var(sum xbar_r^p)) from one reweighting."""
        return _tilted_moments(self._rest, self._pnorm * (self.N * beta), self._pnorm, self.N)

    def up(self, beta: float) -> float:
        return self.moments(beta)[0]


def _tilted_moments(base: np.ndarray, tilt: np.ndarray, stat: np.ndarray, N: int) -> tuple:
    """Mean of stat under weights exp(base + tilt), and N times its variance.

    ``tilt`` is a scratch array: it is overwritten by the weights.  The
    reductions are elementwise (einsum), never BLAS dot products, so no BLAS
    thread pool is woken for these 1-D sums.  The largest weight is 1, so
    weights below exp(-700) cannot move any sum; flooring the exponent there
    keeps exp and the products out of the slow subnormal range.
    """
    w = tilt
    w += base
    w -= w.max()
    np.maximum(w, -700.0, out=w)
    np.exp(w, out=w)
    z = w.sum()
    mean = np.einsum("i,i", w, stat) / z
    second = np.einsum("i,i,i", w, stat, stat) / z
    return float(mean), float(N * (second - mean * mean))
