"""Sampling the magnetization by exact inversion, and its rescaled statistics.

Exact draws invert the lexicographic cumulative law of the compositions, with
one uniform per draw from a Philox generator seeded by the caller.
``draw_magnetizations`` inverts it colour by colour from the exact engine's
partial convolutions, in O(qN + n_samples) memory at any N.  ``exact_sample``
inverts the full support of an :class:`~tensorpotts.exact.ExactLaw`; it is
kept for callers that already hold one, and as the oracle of the first.

``rescale`` produces the scaled statistics whose limits the law module
constructs: sqrt(N) deviations at regular/critical points, and the
(T_N, V_N) split along u = (1-q, 1, ..., 1) at special points with exponent
1/4 (type I) or 1/6 (type II).  It returns them as columns, one array per
statistic, in a :class:`RescaledSamples`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import exact
from .errors import DomainError
from .exact import ExactLaw
from .model import ModelSpec, u_vector
from .phase import SCALE_EXPONENTS, PointClass
from .tables import write_table

INVERT_BLOCK_CELLS = 2 ** 15  # cumulative cells per block of _invert_colour, 256 kB of float64


class RescaledSample(NamedTuple):
    """One row of :class:`RescaledSamples`."""

    raw: np.ndarray
    w: np.ndarray  # sqrt(N) * (xbar - m_nearest)
    t_n: float | None
    v_n: np.ndarray | None
    scale_exponent: float


@dataclass(frozen=True, eq=False)
class RescaledSamples:
    """The rescaled statistics of M samples as columns.

    ``raw`` and ``w`` are (M, q); at the special scalings ``t_n`` is (M,) and
    ``v_n`` is (M, q), elsewhere both are None.  Indexing and iteration give
    :class:`RescaledSample` rows, with ``t_n`` as a Python float.
    """

    raw: np.ndarray
    w: np.ndarray
    t_n: np.ndarray | None
    v_n: np.ndarray | None
    scale_exponent: float

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, i) -> RescaledSample:
        return RescaledSample(
            self.raw[i], self.w[i], None if self.t_n is None else float(self.t_n[i]),
            None if self.v_n is None else self.v_n[i], self.scale_exponent)

    def __iter__(self):
        none = itertools.repeat(None)
        t_n = none if self.t_n is None else self.t_n.tolist()
        v_n = none if self.v_n is None else self.v_n
        # tuple.__new__ skips the Python-level NamedTuple constructor per row
        return map(functools.partial(tuple.__new__, RescaledSample), zip(
            self.raw, self.w, t_n, v_n, itertools.repeat(self.scale_exponent)))


def exact_sample(law: ExactLaw, n_samples: int, seed: int) -> np.ndarray:
    """i.i.d. magnetization draws by CDF inversion over the full support; rows
    are ProbVectors.

    Kept for callers that already hold an ExactLaw, where inverting its
    support is cheaper than ``draw_magnetizations``, and as that sampler's
    oracle: with the same seed both give the same rows.
    """
    if n_samples < 0:
        raise DomainError("n_samples must be >= 0")
    if n_samples == 0:
        return np.empty((0, law.q))
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    probs = law.probs()
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    u = np.random.Generator(np.random.Philox(seed)).random(n_samples)
    order = np.argsort(u)  # on sorted keys each search starts from the last hit
    idx = np.empty(n_samples, dtype=np.intp)
    idx[order] = np.searchsorted(cum, u[order], side="left")
    return law.support[idx] / law.N


def draw_magnetizations(spec: ModelSpec, N: int, n_samples: int, seed: int) -> np.ndarray:
    """i.i.d. draws from the exact law at N, colour by colour, without its support.

    Forward filtering, backward sampling over colours: the partial
    convolutions G_k of ``exact._colour_convolutions`` give c_1 from its
    h-tilted profile g(c) + h c + G_{q-1}(N - c), then each next c_r, given
    what is left (R), from g(c) + G_{q-r}(R - c); c_q = R.  Each draw spends
    one Philox uniform, rescaled inside every chosen cell, so a row is the
    lexicographic inversion that ``exact_sample`` makes with the same seed;
    the two differ only where a uniform lies within rounding of a cell edge.
    Memory is O(qN + n_samples).
    """
    exact._check_support(N, spec.q)
    if n_samples < 0:
        raise DomainError("n_samples must be >= 0")
    if n_samples == 0:
        return np.empty((0, spec.q))
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    convs = exact._colour_convolutions(spec, N)
    u = np.random.Generator(np.random.Philox(seed)).random(n_samples)
    counts = np.empty((n_samples, spec.q), dtype=np.int64)
    left = np.full(n_samples, N, dtype=np.int64)
    base = convs[0] + spec.h * np.arange(N + 1)
    for r in range(spec.q - 1):
        counts[:, r], u = _invert_colour(base, convs[spec.q - 2 - r], left, u)
        left = left - counts[:, r]
        base = convs[0]
    counts[:, -1] = left
    return counts / N


def _invert_colour(base: np.ndarray, tail: np.ndarray, left: np.ndarray, u: np.ndarray) -> tuple:
    """Invert ``u`` in the law of c = 0..R with log-mass base(c) + tail(R - c),
    R = ``left`` per draw; return c and ``u`` rescaled to [0, 1] in c's cell.

    The draws are grouped by R with one stable argsort, and the R present go
    in blocks of at most INVERT_BLOCK_CELLS cells (one row at least), one
    row per R: row R is base[:R+1] + tail[R::-1] shifted by its own maximum,
    floored at ``exact.EXP_FLOOR``, exponentiated, accumulated and divided by
    its own entry in column R, each step elementwise or along the row, so
    every value has the bits a row of its own would have.  Columns past R
    start at -inf and end at or above 1, above every u.  The draws of each R
    get one ``searchsorted`` (side left) on its row.  A zero-width cell
    could only be chosen at u = 0 in column 0; it rescales to 0.
    """
    order = np.argsort(left, kind="stable")
    counts = np.bincount(left)
    rs = np.flatnonzero(counts)
    edges = np.concatenate(([0], np.cumsum(counts[rs])))  # R = rs[i] has order[edges[i]:edges[i+1]]
    # tail[R - c] is flipped[N - R + c], and -inf past column R
    flipped = np.concatenate((tail[::-1], np.full(int(rs[-1]) + 1, -np.inf)))
    per_block = max(1, INVERT_BLOCK_CELLS // (int(rs[-1]) + 1))
    c, rescaled = np.empty_like(left), np.empty_like(u)
    for top in range(0, len(rs), per_block):
        r = rs[top:top + per_block]
        n = int(r[-1]) + 1
        cum = sliding_window_view(flipped, n)[len(tail) - 1 - r]
        cum += base[:n]
        cum -= cum.max(axis=1, keepdims=True)
        np.maximum(cum, exact.EXP_FLOOR, out=cum)
        np.exp(cum, out=cum)
        np.cumsum(cum, axis=1, out=cum)
        cum /= cum[np.arange(len(r)), r][:, None]
        seg = edges[top:top + len(r) + 1]
        draws = order[seg[0]:seg[-1]]
        ud = u[draws]
        j = np.empty_like(draws)
        seg = seg - seg[0]
        for row, (a, b) in enumerate(zip(seg[:-1], seg[1:])):
            j[a:b] = np.searchsorted(cum[row], ud[a:b], side="left")
        at = np.repeat(np.arange(len(r)) * n, np.diff(seg))
        at += j
        cum = cum.ravel()
        below = np.where(j > 0, cum[at - 1], 0.0)
        width = cum[at] - below
        c[draws] = j
        rescaled[draws] = np.divide(ud - below, width, out=np.zeros_like(ud), where=width > 0)
    return c, rescaled


def rescale(samples, spec: ModelSpec, point_class: PointClass, N: int) -> RescaledSamples:
    """Rescaled statistics of every sample, with the exponent chosen by phase class.

    Each sample is centered at the nearest maximizer (the basin conditioning
    used at critical points).  With exponent 1/4 or 1/6, the deviation splits
    as d = N^{-a} t_n u + N^{-1/2} v_n with v_n in the zero-sum hyperplane
    orthogonal to u; the reconstruction is exact.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != spec.q:
        raise DomainError(f"samples must be rows of length q={spec.q}")
    expo = SCALE_EXPONENTS[point_class.tag]
    mats = np.stack(point_class.witness.vectors, axis=0)
    # squared distances to each maximizer, (M, k), and below the u-coordinate,
    # summed colour by colour: the adds of .sum(axis=-1) for q <= 7 (same bits),
    # without its per-row loop over the short axis
    d2 = (samples[:, :1] - mats[:, 0]) ** 2
    for r in range(1, spec.q):
        d2 += (samples[:, r:r + 1] - mats[:, r]) ** 2
    d = samples - mats[np.argmin(d2, axis=1)]
    sqrtn = math.sqrt(N)
    w = sqrtn * d
    if expo == 0.5:
        return RescaledSamples(raw=samples, w=w, t_n=None, v_n=None, scale_exponent=expo)
    u = u_vector(spec.q)
    uu = float(u @ u)  # equals q(q-1)
    coef = d[:, 0] * u[0]
    for r in range(1, spec.q):
        coef += d[:, r] * u[r]
    coef /= uu
    t_n = N ** expo * coef
    v_n = sqrtn * (d - coef[:, None] * u)
    return RescaledSamples(raw=samples, w=w, t_n=t_n, v_n=v_n, scale_exponent=expo)


def write_samples_csv(path, rescaled: RescaledSamples, spec: ModelSpec, N: int,
                      seed: int) -> None:
    """One row per sample: x1..xq and, at special scalings, t_n and v_2..v_q.

    The columns follow the scaling, so a special point with no samples still
    gets the t_n and v columns in its header.  The header comment carries the
    spec, N and seed for reproducibility.
    """
    q = spec.q
    cols = [f"x{r + 1}" for r in range(q)]
    table = rescaled.raw
    if rescaled.t_n is not None:
        cols += ["t_n"] + [f"v_{r + 2}" for r in range(q - 1)]
        table = np.column_stack([rescaled.raw, rescaled.t_n, rescaled.v_n[:, 1:]])
    write_table(path, cols, table.tolist(),
                comment=f"p={spec.p} q={q} beta={spec.beta!r} h={spec.h!r} N={N} seed={seed}")
