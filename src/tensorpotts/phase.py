"""Phase structure of the mean-field Potts free energy.

Locates the global maximizers of the reduced free energy f, expands them to
maximizers of H on the simplex, classifies parameter points into the five-way
taxonomy (regular / strongly critical / weakly critical / special type I or
II), and computes the landmark objects of the phase diagram:

* ``beta_c``      -- the field-free transition point, below which the uniform
                     vector is the unique maximizer;
* the special point ``(beta_tilde, h_tilde)`` with its degenerate maximizer
  ``s_pq``, the unique point where the reduced curvature vanishes at the
  maximum;
* the strongly-critical curve ``beta = phi(h)`` joining ``(beta_c, 0)`` to the
  special point, on which two distinct maximizers tie.

The classification taxonomy:

* regular          -- unique maximizer of H, f''(s*) < 0;
* strongly critical -- two tied maximizers of f (two distinct s values);
* weakly critical  -- h = 0 with a single s* > 0, so the q permutations of
                      x_{s*} all maximize H;
* special type I   -- unique maximizer with f''(s*) = 0, f''''(s*) < 0;
* special type II  -- additionally f''''(s*) = 0 (only (p, q) = (4, 2) at
                      beta = 2/3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NonConvergenceError
from .model import (
    BOUNDARY_DELTA,
    ModelSpec,
    f_deriv,
    x_of_s,
)

# Default resolution of the f' sign-change scan; f' has at most three roots,
# so a coarse grid with one refinement pass near sign changes is safe.
SCAN_CELLS = 4096
REFINE_FACTOR = 16

# Stationarity residual targeted by the polisher.
STATIONARY_TOL = 1e-12

# Absolute tie tolerance (in f-value) for "equal maxima".
TIE_TOL = 1e-9

# Classification tolerance on |f''| at the maximizer.
CLASS_TOL = 1e-7

# Tolerance on |f''''| deciding special type II versus type I.
F4_TOL = 1e-6


class PointTag(str, Enum):
    REGULAR = "Regular"
    STRONGLY_CRITICAL = "StronglyCritical"
    WEAKLY_CRITICAL = "WeaklyCritical"
    SPECIAL_TYPE_I = "SpecialTypeI"
    SPECIAL_TYPE_II = "SpecialTypeII"


@dataclass(frozen=True)
class StationaryPoint:
    s: float
    f_value: float
    f2: float


@dataclass(frozen=True)
class MaximizerSet:
    """All global maximizers of H, with the two orderings used downstream.

    ``s_values`` are the tied maximizers of f (one or two of them);
    ``vectors`` expands to maximizers of H: permutations appear when h = 0 and
    s > 0, and the uniform vector contributes once when s = 0.  The orderings
    are index permutations of ``vectors``: ascending first coordinate and
    ascending L^p norm (ties broken by position, so both are total).
    """

    s_values: tuple
    vectors: tuple  # tuple of ndarray
    ordering_by_first_coord: tuple
    ordering_by_p_norm: tuple

    def by_first_coord(self):
        return [self.vectors[i] for i in self.ordering_by_first_coord]

    def by_p_norm(self):
        return [self.vectors[i] for i in self.ordering_by_p_norm]


@dataclass(frozen=True)
class PointClass:
    tag: PointTag
    witness: MaximizerSet
    f_values: tuple
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag.value,
            "s_values": list(self.witness.s_values),
            "f_values": list(self.f_values),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class SpecialPoint:
    beta_tilde: float
    h_tilde: float
    s_pq: float
    type: str  # "I" or "II"


@dataclass(frozen=True)
class CriticalCurveSample:
    h: float
    beta: float
    s_low: float
    s_high: float


@dataclass(frozen=True)
class PhaseDiagram:
    p: int
    q: int
    beta_values: np.ndarray
    h_values: np.ndarray
    tags: np.ndarray  # object array of PointTag, shape (len(h), len(beta))
    beta_c: float
    special: SpecialPoint
    curve: list = field(default_factory=list)


# Sign flips where |g| never rises above this are cancellation noise, not
# roots (seen at the type-II point, where f' ~ -s^5/5 underflows near 0).
SIGN_NOISE_FLOOR = 1e-13


def _scan_roots(g, lo: float, hi: float, cells: int):
    """Sign-change cells of g on [lo, hi] with one refinement pass."""
    s = np.linspace(lo, hi, cells + 1)
    v = g(s)
    sign = np.sign(v)
    brackets = []
    flips = np.nonzero((sign[:-1] * sign[1:] < 0)
                       & (np.maximum(np.abs(v[:-1]), np.abs(v[1:])) > SIGN_NOISE_FLOOR))[0]
    # grid nodes where g lands exactly on 0.0 count only when flanked by
    # genuinely opposite signs (underflow near flat roots also produces zeros)
    exact = np.nonzero((v[1:-1] == 0.0)
                       & (sign[:-2] * sign[2:] < 0)
                       & (np.minimum(np.abs(v[:-2]), np.abs(v[2:])) > SIGN_NOISE_FLOOR))[0] + 1
    for i in flips:
        # refine once: clustered roots near criticality can share a cell
        ss = np.linspace(s[i], s[i + 1], REFINE_FACTOR + 1)
        vv = g(ss)
        sub = np.nonzero(np.sign(vv[:-1]) * np.sign(vv[1:]) < 0)[0]
        for j in sub:
            brackets.append((ss[j], ss[j + 1], vv[j]))
        if len(sub) == 0:
            brackets.append((s[i], s[i + 1], v[i]))
    roots_exact = [float(s[i]) for i in exact]
    return brackets, roots_exact


def _polish_root(g, dg, lo: float, hi: float, glo: float) -> float:
    """Bisect/Newton hybrid: a few bisection steps to shrink the bracket, then
    Newton with the bracket as a safeguard."""
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    root = 0.5 * (lo + hi)
    gr = g(root)
    for _ in range(8):
        if gr == 0.0:
            return float(root)
        d = dg(root)
        cand = root - gr / d if d != 0.0 else 0.5 * (lo + hi)
        if not (lo <= cand <= hi):
            cand = 0.5 * (lo + hi)
        if cand == root:
            break
        gc = g(cand)
        if glo * gc < 0:
            hi = cand
        else:
            lo, glo = cand, gc
        root, gr = cand, gc
        if abs(gr) <= 1e-14 or hi - lo < 4e-16 * max(1.0, abs(root)):
            break
    return float(root)


def find_stationary_points(spec: ModelSpec, cells: int = SCAN_CELLS) -> list:
    """All roots of f' in [0, 1 - delta], as polished StationaryPoints.

    A uniform sign-change scan (default 4096 cells) with one refinement pass,
    followed by bisection and Newton polishing to |f'| <= 1e-12.  s = 0 is a
    stationary point exactly when h = 0 and is included then.
    """
    hi = 1.0 - BOUNDARY_DELTA

    def g(s):
        return f_deriv(spec, s, 1)

    def dg(s):
        return f_deriv(spec, s, 2)

    brackets, exact = _scan_roots(g, 0.0, hi, cells)
    roots = list(exact)
    if spec.h == 0.0:
        roots.append(0.0)
    for (lo, hi_b, glo) in brackets:
        roots.append(_polish_root(g, dg, lo, hi_b, glo))
    roots = sorted(set(roots))
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < 1e-11:
            continue
        merged.append(r)
    return [
        StationaryPoint(s=r, f_value=f_deriv(spec, r, 0), f2=f_deriv(spec, r, 2))
        for r in merged
    ]


def _local_maxima_fast(spec: ModelSpec, cells: int) -> list:
    """(s, f) of the local maxima of f, on a coarser scan for curve tracing."""
    return [(pt.s, pt.f_value) for pt in find_stationary_points(spec, cells) if pt.f2 < 0]


def global_maximizers_1d(spec: ModelSpec, tie_tol: float = TIE_TOL) -> list:
    """Stationary points achieving the maximum of f within tie_tol (one or two).

    At extreme parameters the maximizer can sit inside the boundary guard
    (s > 1 - 1e-9, where f' is still positive on the whole visible range); the
    guard edge is then reported as the maximizer.
    """
    if tie_tol <= 0:
        raise DomainError("tie_tol must be positive")
    pts = find_stationary_points(spec)
    if not pts:
        edge = 1.0 - BOUNDARY_DELTA
        pts = [StationaryPoint(s=edge, f_value=f_deriv(spec, edge, 0),
                               f2=f_deriv(spec, edge, 2))]
    best = max(pt.f_value for pt in pts)
    winners = [pt for pt in pts if pt.f_value >= best - tie_tol]
    # the free energy admits at most two tied maximizers
    if len(winners) > 2:
        winners = sorted(winners, key=lambda pt: -pt.f_value)[:2]
        winners = sorted(winners, key=lambda pt: pt.s)
    return winners


def full_maximizer_set(spec: ModelSpec, tie_tol: float = TIE_TOL) -> MaximizerSet:
    """Expand the tied s-values to the full set of maximizers of H.

    h > 0 forbids permutations (the first coordinate strictly dominates);
    h = 0 with s > 0 contributes all q permutations of x_s; s = 0 contributes
    the uniform vector once.
    """
    winners = global_maximizers_1d(spec, tie_tol)
    q = spec.q
    vectors = []
    for pt in winners:
        if pt.s <= 0.0:
            vectors.append(x_of_s(q, 0.0))
        elif spec.h > 0:
            vectors.append(x_of_s(q, pt.s))
        else:
            base = x_of_s(q, pt.s)
            for r in range(q):
                perm = np.full(q, base[1])
                perm[r] = base[0]
                vectors.append(perm)
    first = np.array([v[0] for v in vectors])
    pnorm = np.array([np.sum(v ** spec.p) for v in vectors])
    order_first = tuple(int(i) for i in np.argsort(first, kind="stable"))
    order_pnorm = tuple(int(i) for i in np.argsort(pnorm, kind="stable"))
    return MaximizerSet(
        s_values=tuple(pt.s for pt in winners),
        vectors=tuple(vectors),
        ordering_by_first_coord=order_first,
        ordering_by_p_norm=order_pnorm,
    )


def classify_point(spec: ModelSpec, tol_class: float = CLASS_TOL,
                   tie_tol: float = TIE_TOL) -> PointClass:
    """Classify (beta, h) into the five-way phase taxonomy.

    ``tol_class`` bounds |f''(s*)| for the special tags (and |f''''| for type
    II via F4_TOL).  Points with |f''| in (tol_class, 10 tol_class) get a
    nearness warning but are still classified.
    """
    if tol_class <= 0:
        raise DomainError("tol_class must be positive")
    winners = global_maximizers_1d(spec, tie_tol)
    wit = full_maximizer_set(spec, tie_tol)
    f_values = tuple(pt.f_value for pt in winners)
    warnings = []
    f2s = [pt.f2 for pt in winners]
    for f2 in f2s:
        if tol_class < abs(f2) <= 10 * tol_class:
            warnings.append(
                f"|f''(s*)| = {abs(f2):.3e} is within 10x of the classification "
                f"tolerance {tol_class:.1e}; the point is near the critical set")
    if any(pt.s >= 1.0 - 2.0 * BOUNDARY_DELTA for pt in winners):
        warnings.append(
            "maximizer clamped at the simplex-boundary guard s = 1 - 1e-9; "
            "the reported s is accurate only to the guard width")

    if len(winners) >= 2:
        tag = PointTag.STRONGLY_CRITICAL
    elif spec.h == 0.0 and winners[0].s > 0.0:
        tag = PointTag.WEAKLY_CRITICAL
    else:
        f2 = f2s[0]
        if f2 < -tol_class:
            tag = PointTag.REGULAR
        else:
            s = winners[0].s
            f4 = f_deriv(spec, s, 4)
            if abs(f4) <= F4_TOL:
                tag = PointTag.SPECIAL_TYPE_II
            elif f4 < 0:
                tag = PointTag.SPECIAL_TYPE_I
            else:
                raise NonConvergenceError(
                    f"maximizer with f'' = {f2} and f'''' = {f4} > 0 is not a maximum")
    return PointClass(tag=tag, witness=wit, f_values=f_values, warnings=tuple(warnings))


def _max_f_positive(spec: ModelSpec):
    """Largest f over the positive stationary points, or None if there is none.

    When the ordered maximizer escapes the boundary guard (f' still positive
    at s = 1 - delta), the guard edge stands in for it; without this the tie
    predicate would go falsely negative at extreme beta.
    """
    pts = find_stationary_points(spec)
    pos = [pt.f_value for pt in pts if pt.s > 1e-9]
    edge = 1.0 - BOUNDARY_DELTA
    if f_deriv(spec, edge, 1) > 0:
        pos.append(f_deriv(spec, edge, 0))
    if not pos:
        return None
    return max(pos)


def compute_beta_c(p: int, q: int, tol: float = 1e-10) -> float:
    """Transition point beta_c: the infimum of beta at which f_{beta,0} gains
    a positive global maximizer.

    Bisection on the monotone predicate "some s > 0 ties or beats f(0), or
    f''(0) > 0".  The curvature arm makes the predicate sharp for continuous
    transitions (q = 2, p <= 4), where the f-value tie degenerates
    quadratically; both arms are monotone in beta.
    """

    def pred(beta: float) -> bool:
        spec = ModelSpec(p, q, beta, 0.0)
        if f_deriv(spec, 0.0, 2) > 0:
            return True
        top = _max_f_positive(spec)
        return top is not None and top > f_deriv(spec, 0.0, 0)

    lo, hi = 0.0, 1.0
    while not pred(hi):
        lo, hi = hi, hi * 2
        if hi > 1e6:
            raise NonConvergenceError("no transition found below beta = 1e6")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _sup_f2(spec: ModelSpec, cells: int = SCAN_CELLS):
    """(sup of f'' over [0, 1 - delta], argmax)."""
    hi = 1.0 - BOUNDARY_DELTA
    s = np.linspace(0.0, hi, cells + 1)
    v = f_deriv(spec, s, 2)
    i = int(np.argmax(v))
    lo_b = s[max(i - 1, 0)]
    hi_b = s[min(i + 1, cells)]
    # golden-section refine; f'' is smooth so this is plenty
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_b, hi_b
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = f_deriv(spec, c, 2)
    fd = f_deriv(spec, d, 2)
    for _ in range(90):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f_deriv(spec, c, 2)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f_deriv(spec, d, 2)
        if b - a < 1e-14:
            break
    smax = 0.5 * (a + b)
    val = f_deriv(spec, smax, 2)
    v0 = f_deriv(spec, 0.0, 2)
    if v0 >= val - 1e-12:
        return v0, 0.0
    return val, float(smax)


def compute_special_point(p: int, q: int, tol: float = 1e-10) -> SpecialPoint:
    """The unique special point (beta_tilde, h_tilde) with its maximizer s_pq.

    beta_tilde is the unique zero of w(beta) = sup_x f''_{beta,0}(x), which is
    strictly increasing in beta; s_pq is the largest root of f''_{beta_tilde,0}
    (equal to its argmax, since the sup is zero there); h_tilde is the k'
    difference that makes s_pq stationary.
    """

    def w(beta: float) -> float:
        return _sup_f2(ModelSpec(p, q, beta, 0.0))[0]

    lo, hi = 0.0, 1.0
    while w(hi) < 0:
        lo, hi = hi, hi * 2
        if hi > 1e6:
            raise NonConvergenceError("sup f'' stayed negative below beta = 1e6")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if w(mid) > 0:
            hi = mid
        else:
            lo = mid
    beta_tilde = 0.5 * (lo + hi)
    spec0 = ModelSpec(p, q, beta_tilde, 0.0)
    _, s_pq = _sup_f2(spec0)
    a = (1.0 + (q - 1.0) * s_pq) / q
    b = (1.0 - s_pq) / q
    from .model import k_deriv

    h_tilde = k_deriv(spec0, b, 1) - k_deriv(spec0, a, 1)
    if abs(h_tilde) < 1e-12:
        h_tilde = 0.0
    spec_t = ModelSpec(p, q, beta_tilde, h_tilde)
    f4 = f_deriv(spec_t, s_pq, 4)
    kind = "II" if abs(f4) <= F4_TOL else "I"
    if f4 > F4_TOL:
        raise NonConvergenceError(f"f'''' = {f4} > 0 at the special maximizer")
    return SpecialPoint(beta_tilde=beta_tilde, h_tilde=h_tilde, s_pq=s_pq, type=kind)


def _tie_gap(p: int, q: int, beta: float, h: float, s_split: float,
             cells: int = SCAN_CELLS) -> float:
    """f(s_high) - f(s_low) over local maxima; +/-inf when one branch is missing.

    ``s_split`` separates the low-s and high-s branches (the special
    maximizer s_pq works: the branches merge there).
    """
    maxima = _local_maxima_fast(ModelSpec(p, q, beta, h), cells)
    if len(maxima) >= 2:
        return maxima[-1][1] - maxima[0][1]
    if len(maxima) == 1:
        return np.inf if maxima[0][0] > s_split else -np.inf
    return -np.inf


def _solve_tie(p: int, q: int, h: float, lo: float, hi: float, s_split: float,
               cells: int = SCAN_CELLS) -> float:
    """beta with f(s_high) = f(s_low) at this h; the gap is increasing in beta.

    The bracket ends may sit outside the two-maxima window (infinite gap);
    bisection shrinks to the finite window, then Brent finishes.
    """
    from scipy.optimize import brentq

    def gap(beta):
        return _tie_gap(p, q, beta, h, s_split, cells)

    glo, ghi = gap(lo), gap(hi)
    if not (glo < 0 < ghi):
        raise NonConvergenceError(
            f"tie bracket failed at h = {h}: gap({lo}) = {glo}, gap({hi}) = {ghi}")
    for _ in range(200):
        if np.isfinite(glo) and np.isfinite(ghi):
            break
        mid = 0.5 * (lo + hi)
        gm = gap(mid)
        if gm > 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
        if hi - lo < 1e-12:
            return 0.5 * (lo + hi)
    return float(brentq(gap, lo, hi, xtol=1e-12, rtol=4e-14))


def critical_curve(p: int, q: int, n_samples: int,
                   beta_c: float | None = None,
                   special: SpecialPoint | None = None,
                   cells: int = 1024) -> list:
    """Samples of the strongly-critical curve beta = phi(h), h on a uniform
    grid over [0, h_tilde).

    Empty when the special point sits on the axis (q = 2, p <= 4).  Each
    sample solves the tie equation f(s_high) = f(s_low) in beta (the gap is
    strictly increasing in beta); brackets are warm-started from the previous
    sample since phi is strictly decreasing.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if special is None:
        special = compute_special_point(p, q)
    if special.h_tilde <= 0:
        return []
    if beta_c is None:
        beta_c = compute_beta_c(p, q)

    h_grid = special.h_tilde * np.arange(n_samples) / n_samples
    samples = []
    prev_beta = None
    for h in h_grid:
        h = float(h)
        if prev_beta is None:
            # phi maps into (beta_tilde, beta_c]; staying near beta_c keeps the
            # ordered maximizer away from the simplex-boundary guard
            lo, hi = special.beta_tilde, beta_c * (1.0 + 1e-3) + 1e-6
        else:
            # phi is decreasing: the previous beta is an upper bracket
            hi = prev_beta
            width = max(1e-4, 1e-3 * prev_beta)
            lo = hi - width
            while _tie_gap(p, q, lo, h, special.s_pq, cells) > 0:
                width *= 4.0
                lo = hi - width
                if lo <= special.beta_tilde:
                    lo = special.beta_tilde
                    break
        beta = _solve_tie(p, q, h, lo, hi, special.s_pq, cells)
        maxima = _local_maxima_fast(ModelSpec(p, q, beta, h), cells)
        if len(maxima) < 2:
            raise NonConvergenceError(f"lost a maximizer branch at h = {h}")
        samples.append(CriticalCurveSample(
            h=h, beta=beta, s_low=maxima[0][0], s_high=maxima[-1][0]))
        prev_beta = beta
    return samples


def phase_diagram(p: int, q: int, beta_range, h_range, resolution,
                  tol_class: float = CLASS_TOL,
                  curve_samples: int = 256) -> PhaseDiagram:
    """Classify a rectangle of parameter points and attach the landmarks."""
    b_lo, b_hi = beta_range
    h_lo, h_hi = h_range
    if not (0 <= b_lo < b_hi and 0 <= h_lo < h_hi):
        raise DomainError("phase-diagram rectangle must lie in the parameter space")
    if isinstance(resolution, int):
        res_b = res_h = resolution
    else:
        res_b, res_h = resolution
    betas = np.linspace(b_lo, b_hi, res_b)
    hs = np.linspace(h_lo, h_hi, res_h)
    tags = np.empty((res_h, res_b), dtype=object)
    for i, h in enumerate(hs):
        for j, b in enumerate(betas):
            tags[i, j] = classify_point(ModelSpec(p, q, float(b), float(h)), tol_class).tag
    special = compute_special_point(p, q)
    bc = compute_beta_c(p, q)
    curve = critical_curve(p, q, curve_samples, beta_c=bc, special=special)
    return PhaseDiagram(p=p, q=q, beta_values=betas, h_values=hs, tags=tags,
                        beta_c=bc, special=special, curve=curve)


def curve_to_csv(samples, path) -> None:
    """CSV schema: h,beta,s_low,s_high."""
    with open(path, "w") as fh:
        fh.write("h,beta,s_low,s_high\n")
        for c in samples:
            fh.write("%.17g,%.17g,%.17g,%.17g\n" % (c.h, c.beta, c.s_low, c.s_high))
