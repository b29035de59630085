"""Exact finite-N law of the magnetization, from per-(p, N) weight tables.

The magnetization vector is a sufficient statistic, so the model law pushes
forward to the composition space {c in Z_{>=0}^q : sum c = N} with
unnormalized log-weights

    log N! - sum_r log(c_r!) + N * (beta * sum_r (c_r/N)^p + h * c_1/N).

Each per-colour term is a lookup in one of three tables over c = 0..N
(log c!, (c/N)^p, c/N), and three forms of the support share them:

* the colour profile of c_1.  The weight factorises over colours, so the
  h-free log-mass of c_1 = j is log N! + g(j) + G_{q-1}(N - j), with
  g(c) = -log c! + beta N (c/N)^p and G_k the k-fold log-semiring
  convolution of g.  ``HProfile`` and ``log_partition`` reweight these N+1
  values.  At fixed h colours 2..q are exchangeable, so they share one
  marginal, g(j) + [(g + h id) * G_{q-2}](N - j); with the h-tilted c_1
  profile it gives ``colour_marginals`` at any N;
* orbits of colours 2..q, whose permutations leave the weight at fixed h
  unchanged.  One row per orbit (c_2 >= ... >= c_q) carries the log of the
  orbit size in its weight.  ``BProfile`` reweights these rows, and
  ``tail_prob`` sums them, since the distance to a maximizer set closed
  under those permutations is constant on each orbit.  A row's
  log-weight is a line in beta, so ``BProfile`` drops the rows certified to
  stay more than CUT = 60 nats below the largest log-weight at every
  beta >= 0, and rejects beta < 0.  The dropped rows, at most SUPPORT_BYTES
  / 16 of them, weigh less than e^{-60} of the largest each, 1.2e-18 of the
  sum together: below the rounding of a ratio such as a moment, but not of
  a sum over an event of tiny probability, whose own terms may all lie that
  far down.  So ``tail_prob`` sums every row, and an exact cdf of the beta
  estimate must not read its tails from the kept rows alone;
* compositions (C(N+q-1, q-1) of them, never the q^N configurations), in
  lexicographic blocks built without Python loops over rows.  Their one
  consumer is ``magnetization_law``, the full support that
  ``sampling.exact_sample`` inverts: the oracle of
  ``sampling.draw_magnetizations``, which draws colour by colour from the
  partial convolutions G_1..G_{q-1} instead, and the law for callers that
  already hold one.

The orbit rows and the full support are checked against one byte budget,
``SUPPORT_BYTES``, before they are built.  Each step of the
maximum-likelihood solver is one profile reweighting that yields the
expectation and its derivative together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, SupportSizeError
from .model import ModelSpec

# Bytes a call may keep in support-sized arrays: q = 3 at N = 1e4 (1.6 GB)
# fits, (4, 4) at N = 1000 (6.7 GB) does not.
SUPPORT_BYTES = 2 ** 31

# Rows per enumeration block.
BLOCK_ROWS = 1_000_000

# Cells per row block of a log-semiring convolution (2 MB of float64).
CONV_CELLS = 1 << 18

# Floor of a max-shifted exponent before exp: terms below e^{-700} cannot move
# a sum whose largest term is 1, and the floor keeps exp off its slow path.
EXP_FLOOR = -700.0

# BProfile drops the orbit rows more than CUT nats below the largest
# log-weight at every beta >= 0: at most SUPPORT_BYTES / 16 rows fit, and
# (SUPPORT_BYTES / 16) e^{-60} = 1.2e-18 < 2^{-53}.
CUT = 60.0

# The certificate splits at a crossing while the largest log-weight there
# exceeds the lines found so far by more than SLACK nats.
SLACK = 30.0


def n_compositions(N: int, q: int) -> int:
    return math.comb(N + q - 1, q - 1)


def _check_support(N: int, q: int) -> None:
    if N < 1 or q < 2:
        raise DomainError("need N >= 1 and q >= 2")


def _check_bytes(rows, row_bytes: int):
    """Return ``rows`` if that many rows of ``row_bytes`` bytes fit in SUPPORT_BYTES,
    else raise SupportSizeError; callers check before they allocate."""
    if rows * row_bytes > SUPPORT_BYTES:
        raise SupportSizeError(rows * row_bytes, SUPPORT_BYTES)
    return rows


# log c! for c = 0, 1, ...: one read-only table, grown on demand by
# ``_log_factorials``; log c! for c <= N is a prefix of any longer table.
_LOG_FACTORIALS = np.zeros(1)
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(N: int) -> np.ndarray:
    """log c! for c = 0..N, a read-only view of the shared table; each entry is
    ``math.lgamma(c + 1)``, within a few ulps of the exact value."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS  # slice this one, whatever another thread stores meanwhile
    size = len(table)
    if size <= N:
        more = np.fromiter(map(math.lgamma, range(size + 1, N + 2)), float, N + 1 - size)
        table = np.concatenate([table, more])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[:N + 1]


def _weight_tables(p: int, N: int) -> tuple:
    """(log c!, (c/N)^p, c/N) for c = 0..N: the per-colour terms of a weight."""
    x = np.arange(N + 1) / N
    return _log_factorials(N), x ** p, x


def _log_weights(spec: ModelSpec, N: int, block: np.ndarray, tables: tuple) -> np.ndarray:
    """log N! - sum_r log c_r! + N (beta sum_r (c_r/N)^p + h c_1/N) per row,
    with both sums from ``_row_sums``."""
    lgam, xp, x = tables
    lw = math.lgamma(N + 1.0) - _row_sums(lgam, block)
    lw += N * (spec.beta * _row_sums(xp, block) + spec.h * x[block[:, 0]])
    return lw


def _row_sums(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """table[block].sum(axis=1), added colour by colour, left to right.

    The same adds in the same order as ``.sum(axis=1)`` for q <= 7 (same
    bits), without its per-row loop over the short axis; numpy sums 8 or
    more terms pairwise, so from q = 8 on the last bits may differ.
    """
    cols = block.T
    out = table[cols[0]]
    for col in cols[1:]:
        out += table[col]
    return out


def _ranges(rows: np.ndarray):
    """Consecutive index ranges [lo, hi) holding at most ``BLOCK_ROWS`` rows;
    an index that alone holds more is a range of its own."""
    ends = np.cumsum(rows)
    lo = 0
    while lo < len(rows):
        limit = ends[lo] - rows[lo] + BLOCK_ROWS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        yield lo, hi
        lo = hi


def _n_tails(rest: np.ndarray, parts: int) -> np.ndarray:
    """Number of compositions of each entry of ``rest`` into ``parts`` parts, as
    float64: exact below 2**53, and a larger count, where int64 would wrap,
    only has to compare as more than a block or the byte budget."""
    count = np.ones(len(rest))
    for i in range(1, parts):
        count = count * (rest + i) // i
    return count


def _spread(cols: list, left: np.ndarray, low: np.ndarray, high: np.ndarray) -> tuple:
    """Expand row i into one row per next count low[i]..high[i], in order.

    Returns the repeated columns with the new count appended, and what is
    left to place after it.
    """
    n = high - low + 1
    first = np.cumsum(n) - n
    nxt = np.arange(first[-1] + n[-1]) + np.repeat(low - first, n)
    return [np.repeat(c, n) for c in cols] + [nxt], np.repeat(left, n) - nxt


def _expand(prefix: tuple, lo: int, hi: int, rest: int, parts: int) -> np.ndarray:
    """The compositions that start with ``prefix`` and go on with a count in
    [lo, hi), lexicographic; ``rest`` is N minus the prefix sum and ``parts``
    the number of counts after the prefix."""
    first = np.arange(lo, hi, dtype=np.int64)
    cols, left = [np.full_like(first, v) for v in prefix] + [first], rest - first
    for _ in range(parts - 2):
        cols, left = _spread(cols, left, np.zeros_like(left), left)
    return np.stack(cols + [left], axis=1)


def composition_blocks(N: int, q: int):
    """Yield the compositions of N into q parts as int64 blocks, lexicographic.

    Each block holds at most ``BLOCK_ROWS`` rows.
    """
    _check_support(N, q)
    yield from _blocks(N, q, ())


def _blocks(N, q, prefix):
    rest = N - sum(prefix)
    parts = q - len(prefix)
    rows = _n_tails(rest - np.arange(rest + 1), parts - 1)
    for lo, hi in _ranges(rows):
        if rows[lo] > BLOCK_ROWS:
            # one value of the next count overflows a block: split it by the count after
            yield from _blocks(N, q, prefix + (lo,))
        else:
            yield _expand(prefix, lo, hi, rest, parts)


def _log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[n] = log sum_{j <= n} exp(a[j] + b[n - j]) for n = 0..len(a)-1.

    Row blocks of at most about ``CONV_CELLS`` cells keep the temporaries
    bounded at large N; row n reads b[n::-1] as a window of b reversed.
    """
    size = len(a)
    padded = np.concatenate([b[::-1], np.full(size - 1, -np.inf)])
    windows = sliding_window_view(padded, size)  # windows[size-1-n][j] = b[n-j], -inf for j > n
    out = np.empty(size)
    step = max(1, CONV_CELLS // size)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        cells = a[:hi] + windows[size - hi:size - lo][::-1, :hi]
        top = cells.max(axis=1, keepdims=True)
        cells -= top
        np.maximum(cells, EXP_FLOOR, out=cells)
        np.exp(cells, out=cells)
        out[lo:hi] = top[:, 0] + np.log(cells.sum(axis=1))
    return out


def _colour_convolutions(spec: ModelSpec, N: int) -> list:
    """[G_1, ..., G_{q-1}] over c = 0..N: G_1 = g, g(c) = -log c! + beta N (c/N)^p,
    and G_k = G_{k-1} * g, the log-mass of k colours sharing c (G_0 is the unit)."""
    _check_support(N, spec.q)
    lgam, xp, _ = _weight_tables(spec.p, N)
    convs = [spec.beta * N * xp - lgam]
    for _ in range(spec.q - 2):
        convs.append(_log_convolve(convs[-1], convs[0]))
    return convs


def _c1_log_profile(spec: ModelSpec, N: int) -> np.ndarray:
    """h-free log-mass of c_1 = 0..N: log N! + g(c_1) + G_{q-1}(N - c_1)."""
    convs = _colour_convolutions(spec, N)
    return math.lgamma(N + 1.0) + convs[0] + convs[-1][::-1]


def _log_z(spec: ModelSpec, N: int, g: np.ndarray, others: np.ndarray) -> float:
    """log of q^N Z_N from (g, G_{q-1}): the log-sum over c_1 of the h-tilted
    c_1 profile, added in the same order as ``_c1_log_profile``."""
    lw = math.lgamma(N + 1.0) + g + others[::-1] + spec.h * np.arange(N + 1)
    top = lw.max()
    return float(top + math.log(np.exp(lw - top).sum()))


def log_partition(spec: ModelSpec, N: int) -> float:
    """log of q^N Z_N: the log-sum of the weights of all compositions."""
    convs = _colour_convolutions(spec, N)
    return _log_z(spec, N, convs[0], convs[-1])


def colour_marginals(spec: ModelSpec, N: int) -> tuple:
    """(pmf of c_1, pmf of each of c_2..c_q, ``log_partition``) over c = 0..N,
    at any N, from q - 1 log-semiring convolutions.

    Colour 1's log-mass is the h-tilted c_1 profile, g(j) + h j + G_{q-1}(N - j).
    Colours 2..q are exchangeable at fixed h and share
    g(j) + [(g + h id) * G_{q-2}](N - j); at q = 2 that is colour 1 reversed.
    """
    convs = _colour_convolutions(spec, N)
    g, others = convs[0], convs[-1]
    tilted = g + spec.h * np.arange(N + 1)
    shared = tilted if spec.q == 2 else _log_convolve(tilted, convs[-2])
    return (_normalized(tilted + others[::-1]), _normalized(g + shared[::-1]),
            _log_z(spec, N, g, others))


def _normalized(log_mass: np.ndarray) -> np.ndarray:
    w = np.exp(log_mass - log_mass.max())
    return w / w.sum()


def tail_prob(spec: ModelSpec, N: int, eps: float, maximizers=None) -> float:
    """Exact P(d(Xbar, M) >= eps), M the set of global maximizers of H.

    Every maximizer set of H is closed under permutations of colours 2..q,
    so d(xbar, M) is constant on each orbit of those colours and the sum runs
    over the orbit rows; a ``maximizers`` set that is not closed raises
    DomainError.  The float64 log-weight and the far flag keep 9 bytes per orbit.
    """
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if maximizers is None:
        from .phase import full_maximizer_set

        maximizers = full_maximizer_set(spec).vectors
    mats = np.stack([np.asarray(m, dtype=float) for m in maximizers], axis=0)
    if mats.shape[1] != spec.q:
        raise DomainError(f"maximizers need q={spec.q} components, got {mats.shape[1]}")
    for r in range(1, spec.q - 1):
        # swaps of neighbouring colours r, r+1 >= 2 generate the permutations of 2..q
        swapped = mats.copy()
        swapped[:, [r, r + 1]] = mats[:, [r + 1, r]]
        if not (swapped[:, None, :] == mats[None, :, :]).all(axis=2).any(axis=1).all():
            raise DomainError("maximizers must be closed under permutations of colours 2..q")
    count, blocks = _orbit_blocks(spec, N, 8 + 1)
    lw = np.empty(count)
    far = np.empty(count, dtype=bool)
    pos = 0
    for block, base, pnorm in blocks:
        m = len(block)
        x = block / N
        d2 = np.full(m, np.inf)
        for v in mats:
            np.minimum(d2, ((x - v) ** 2).sum(axis=1), out=d2)
        lw[pos:pos + m] = base + pnorm * (N * spec.beta)
        far[pos:pos + m] = d2 >= eps * eps
        pos += m
    lw -= lw.max()
    np.exp(lw, out=lw)
    return float(lw.sum(where=far) / lw.sum())


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


def magnetization_law(spec: ModelSpec, N: int) -> ExactLaw:
    """Materialize the exact law (support + normalized log-probabilities); the
    int64 counts and float64 log-prob keep (q + 1) * 8 bytes per composition.

    The one consumer of the full support, inverted by ``sampling.exact_sample``.
    """
    _check_support(N, spec.q)
    count = _check_bytes(n_compositions(N, spec.q), (spec.q + 1) * 8)
    tables = _weight_tables(spec.p, N)
    support = np.empty((count, spec.q), dtype=np.int64)
    lw = np.empty(count)
    pos = 0
    for block in _blocks(N, spec.q, ()):
        m = block.shape[0]
        support[pos:pos + m] = block
        lw[pos:pos + m] = _log_weights(spec, N, block, tables)
        pos += m
    top = lw.max()
    logz = top + math.log(np.exp(lw - top).sum())
    return ExactLaw(spec=spec, N=N, support=support, log_probs=lw - logz)


class HProfile:
    """u_{N,1} and its h-derivative at fixed (p, q, beta, N).

    The field enters the weight only through h * c_1, so the h-free part is
    the colour profile of c_1 (q-2 log-semiring convolutions); every
    evaluation is an (N+1)-term reweighting.  Exact, not an approximation.
    """

    def __init__(self, spec: ModelSpec, N: int):
        self.spec = spec
        self.N = N
        self._L = _c1_log_profile(spec, N)
        self._j = np.arange(N + 1)
        self._x1 = self._j / N
        # inference._solve_increasing's ladder nodes, at most 449: u at the 7
        # doubling ends, (u, u') at 0 and at the 441 midpoints
        self._ladder = {}

    def moments(self, h: float) -> tuple:
        """(u_{N,1}(h), du_{N,1}/dh = N Var(xbar_1)) from one reweighting."""
        return _tilted_moments(self._L, self._j * h, self._x1, self.N)

    def u1(self, h: float) -> float:
        return self.moments(h)[0]


class BProfile:
    """u_{N,p} and its beta-derivative at fixed (p, q, h, N), for beta >= 0.

    At fixed h the weight is symmetric in colours 2..q, so the support is one
    row per orbit (c_2 >= ... >= c_q); the beta-free log-weight of a row
    includes the log of its orbit size.  Its two float64 columns keep 16
    bytes per orbit, checked against SUPPORT_BYTES before they are built.

    The build drops the rows that ``_certified_rows`` proves to stay more
    than CUT nats below the largest log-weight at every beta >= 0 (three
    quarters of them at (4,3,0.616,0.67), N = 1000), and each evaluation is
    a vectorized reweighting of the rest.  At any beta >= 0 the dropped rows
    weigh at most 1.2e-18 of the sum, so they move the mean by under 3e-18
    (S <= 1).  The kept rows serve ratios such as the moments, not sums over
    events of tiny probability, whose rows may all be dropped: ``tail_prob``
    sums every row.  Below 0 nothing is certified and ``moments`` raises.
    """

    def __init__(self, spec: ModelSpec, N: int):
        self.spec = spec
        self.N = N
        count, blocks = _orbit_blocks(spec, N, 2 * 8)
        rest = np.empty(count)
        pnorm = np.empty(count)
        pos = 0
        for block, base, stat in blocks:
            m = len(block)
            rest[pos:pos + m] = base
            pnorm[pos:pos + m] = stat
            pos += m
        keep = _certified_rows(rest, pnorm)
        self._rest = rest[keep]
        self._pnorm = pnorm[keep]
        # inference._solve_increasing's ladder nodes, at most 449: u at the 7
        # doubling ends, (u, u') at 0 and at the 441 midpoints
        self._ladder = {}

    def moments(self, beta: float) -> tuple:
        """(u_{N,p}(beta), du_{N,p}/dbeta = N Var(sum xbar_r^p)) from one reweighting."""
        if not (beta >= 0.0 and math.isfinite(beta)):
            raise DomainError(f"BProfile needs a finite beta >= 0, got {beta}")
        return _tilted_moments(self._rest, self._pnorm * (self.N * beta), self._pnorm, self.N)

    def up(self, beta: float) -> float:
        return self.moments(beta)[0]


def _certified_rows(base: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Mask of the lines base + t slope that come within CUT of the largest,
    M(t), at some t >= 0 (t = N beta): every such line is kept, with a few more.

    Each line is a lower bound on M.  Take a few of them, (s_j, b_j) sorted by
    slope, and phi their intercepts interpolated linearly in the slope, flat
    left of s_0.  A line of slope s_{j-1} < s <= s_j stands at most
    base - phi(s) above max(line_{j-1}, line_j) at any t: the gap is concave
    and peaks where those two cross.  Left of s_0 it stands at most
    base - b_0 above line_0 for t >= 0.  So a line with base - phi(slope) < -CUT
    stays more than CUT below M on t >= 0.

    The lines taken are the argmax at t = 0, the argmax as t -> inf (largest
    slope, then largest base) and, between two taken lines, the argmax at
    their crossing whenever M there exceeds them by more than SLACK, which
    splits the pair in two; then phi is within SLACK of its best value.  No
    slope difference of zero divides: such a pair is not split, and phi keeps
    the larger intercept of two parallel lines (exact ties at h = 0).
    """
    steepest = np.flatnonzero(slope == slope.max())
    found = [int(np.argmax(base)), int(steepest[np.argmax(base[steepest])])]
    pairs = [tuple(found)]
    while pairs:
        a, c = pairs.pop()
        if slope[c] <= slope[a]:
            continue
        t = (base[a] - base[c]) / (slope[c] - slope[a])
        k = int(np.argmax(base + t * slope))
        if base[k] - base[a] + t * (slope[k] - slope[a]) > SLACK:
            found.append(k)
            pairs += [(a, k), (k, c)]
    phi = dict(sorted(zip(slope[found].tolist(), base[found].tolist())))  # top intercept per slope
    return base - np.interp(slope, list(phi), list(phi.values())) >= -CUT


def _n_partitions(N: int, parts: int) -> np.ndarray:
    """Number of partitions of n = 0..N into at most ``parts`` parts, float64 as in ``_n_tails``."""
    count = np.ones(N + 1)
    for k in range(2, parts + 1):
        # p_k(n) = p_{k-1}(n) + p_k(n - k): a running sum along each residue mod k
        for r in range(k):
            count[r::k] = np.cumsum(count[r::k])
    return count


def _orbit_blocks(spec: ModelSpec, N: int, row_bytes: int) -> tuple:
    """(number of orbit rows, iterator over their blocks), once ``row_bytes``
    bytes per row are checked against SUPPORT_BYTES; no row is built before.

    A block is (rows, base, pnorm): rows (c_1, c_2 >= ... >= c_q), their
    beta-free log-weight with the log of the orbit size, and sum_r (c_r/N)^p.
    """
    _check_support(N, spec.q)
    rows = _n_partitions(N, spec.q - 1)[::-1]  # orbits per value of c_1
    count = int(_check_bytes(rows.sum(), row_bytes))
    lgam, xp, x = _weight_tables(spec.p, N)

    def blocks():
        for lo, hi in _ranges(rows):
            block = _orbit_block(N, spec.q, lo, hi)
            base = (math.lgamma(N + 1.0) - _row_sums(lgam, block)
                    + N * spec.h * x[block[:, 0]] + _log_orbit_size(block[:, 1:]))
            yield block, base, _row_sums(xp, block)

    return count, blocks()


def _orbit_block(N: int, q: int, lo: int, hi: int) -> np.ndarray:
    """Rows (c_1, c_2, ..., c_q) with c_1 in [lo, hi) and c_2 >= ... >= c_q.

    With m counts still to place and `left` to share, the largest of them
    lies in [ceil(left / m), min(previous count, left)].
    """
    first = np.arange(lo, hi, dtype=np.int64)
    cols, left = [first], N - first
    prev = left
    for m in range(q - 1, 1, -1):
        cols, left = _spread(cols, left, -(-left // m), np.minimum(prev, left))
        prev = cols[-1]
    cols.append(left)
    return np.stack(cols, axis=1)


def _log_orbit_size(tail: np.ndarray) -> np.ndarray:
    """log((q-1)! / prod k!) for rows sorted non-increasing, k the run lengths.

    ``run`` counts each entry's position within its run of equal counts, so
    the sum of log(run) over a row is log prod k!.
    """
    run = np.ones(len(tail))
    log_runs = np.zeros(len(tail))
    for k in range(1, tail.shape[1]):
        run = np.where(tail[:, k] == tail[:, k - 1], run + 1.0, 1.0)
        log_runs += np.log(run)
    return math.lgamma(tail.shape[1] + 1.0) - log_runs


def _tilted_moments(base: np.ndarray, tilt: np.ndarray, stat: np.ndarray, N: int) -> tuple:
    """Mean of stat under weights exp(base + tilt), and N times its variance.

    ``tilt`` is a scratch array: it is overwritten by the weights.  The
    reductions are elementwise (einsum), never BLAS dot products, so no BLAS
    thread pool is woken for these 1-D sums.  The largest weight is 1, so the
    exponent is floored at ``EXP_FLOOR``.
    """
    w = tilt
    w += base
    w -= w.max()
    np.maximum(w, EXP_FLOOR, out=w)
    np.exp(w, out=w)
    z = w.sum()
    mean = np.einsum("i,i", w, stat) / z
    second = np.einsum("i,i,i", w, stat, stat) / z
    return float(mean), float(N * (second - mean * mean))
