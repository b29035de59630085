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

Classification rests on two identities along the ray (a, b its coordinates):
f' = (q-1)/q (h - H_beta(s)) and f'' = (q-1)/(q^2 a b) (beta R(s) - 1), with R
a polynomial free of beta and h that rises to at most one interior peak s_c
and then falls.  So H_beta turns where beta R = 1 at most twice, and each of
its monotone branches holds at most one root of f' for a given h: one
safeguarded Newton solve, a maximum of f on a rising branch.
``_stationary_column`` finds the branches once per beta and solves them for
every h; ``phase_diagram`` calls it per beta column and ``classify_point``
with one h, so both give a point the same roots.

The special point is closed-form at the peak of R.  beta_c solves the h = 0
tie from the same root lists, as the root of a convex gap in beta; the curve
and its slices follow the tie system by natural-parameter continuation
(secant predictor, Newton corrector, step halving); a sample's two maxima
must be the roots on the first and the last rising branch, the only candidates.

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

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NonConvergenceError
from .model import (
    BOUNDARY_DELTA,
    ModelSpec,
    f_beta_deriv,
    f_deriv,
    x_of_s,
)
from .tables import write_table

# Stationarity residual required of Newton ties.
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


# Exponent a per class: the magnetization deviates from its maximizer on the
# scale N^-a, and at every non-regular class the ML estimate converges at
# rate N^(1 - a) (3/4 at type I, 5/6 at type II).
SCALE_EXPONENTS = {
    PointTag.REGULAR: 0.5,
    PointTag.STRONGLY_CRITICAL: 0.5,
    PointTag.WEAKLY_CRITICAL: 0.5,
    PointTag.SPECIAL_TYPE_I: 0.25,
    PointTag.SPECIAL_TYPE_II: 1.0 / 6.0,
}


@dataclass(frozen=True)
class StationaryPoint:
    s: float
    f_value: float
    f2: float


@dataclass(frozen=True)
class MaximizerSet:
    """All global maximizers of H.

    ``s_values`` are the tied maximizers of f (one or two of them, ascending);
    ``vectors`` expands to maximizers of H: permutations appear when h = 0 and
    s > 0, and the uniform vector contributes once when s = 0.
    """

    s_values: tuple
    vectors: tuple  # tuple of ndarray


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


# A field with h (q-1)/q = f'(0) at or below this counts as h = 0, and s = 0
# is then an exact root: next to the type-II point f' ~ h/2 - s^5/5 stays at
# rounding level up to s ~ 0.01, so its exact root there is noise.
SIGN_NOISE_FLOOR = 1e-13

# Newton on the landmark and tie systems stops once a step is below
# NEWTON_STEP_TOL (relative to max(1, |x|)), the residuals are at rounding
# level (1e-15), or after NEWTON_MAX_STEPS; the residuals then decide.
# Continuation gives up once halving has cut the step below MIN_CONTINUATION_STEP.
NEWTON_MAX_STEPS = 30
NEWTON_STEP_TOL = 1e-13
MIN_CONTINUATION_STEP = 1e-9

# Cap on the steps of one ``_solve``: Newton needs a few, bisection from
# [0, 1] to adjacent floats about 55.
SOLVE_MAX_STEPS = 100

def _ray(q: int, s: float) -> tuple:
    """The ray coordinates a = (1 + (q-1) s)/q and b = (1 - s)/q of x_s."""
    return (1.0 + (q - 1.0) * s) / q, (1.0 - s) / q


def _r(p: int, q: int, s: float) -> tuple:
    """R(s) = p (p-1) a b ((q-1) a^(p-2) + b^(p-2)) and R'(s), a polynomial
    free of beta and h: f''(s) = (q-1)/(q^2 a b) (beta R(s) - 1)."""
    a, b = _ray(q, s)
    c = p * (p - 1.0)
    return (c * a * b * ((q - 1.0) * a ** (p - 2) + b ** (p - 2)),
            c / q * ((q - 1.0) * a ** (p - 2) * ((p - 1.0) * (q - 1.0) * b - a)
                     + b ** (p - 2) * ((q - 1.0) * b - (p - 1.0) * a)))


def _big_h(p: int, q: int, beta: float, s: float) -> tuple:
    """H_beta(s) = log(a/b) - beta p (a^(p-1) - b^(p-1)) and its slope
    (1 - beta R(s)) / (q a b): f'(s) = (q-1)/q (h - H_beta(s))."""
    a, b = _ray(q, s)
    return (math.log(a / b) - beta * p * (a ** (p - 1) - b ** (p - 1)),
            (1.0 - beta * _r(p, q, s)[0]) / (q * a * b))


def _solve(g, lo: float, hi: float, sign: float = 1.0, target: float = 0.0) -> float:
    """The s in [lo, hi] where g(s) = target, for a g (returning value and
    slope) that crosses target once, rising (sign 1) or falling (sign -1).
    Newton from the midpoint; a step that leaves the bracket, or a slope of
    the wrong sign, bisects it instead.  Stops on an exact hit, a step below
    one ulp or a bracket of adjacent floats, and returns the evaluated point
    with the smallest |g - target|."""
    x = 0.5 * (lo + hi)
    best = (math.inf, x)
    for _ in range(SOLVE_MAX_STEPS):
        v, d = g(x)
        v, d = sign * (v - target), sign * d
        best = min(best, (abs(v), x))
        if v == 0.0:
            break
        if v < 0.0:
            lo = x
        else:
            hi = x
        y = x - v / d if d > 0.0 else math.inf
        if y == x:
            break
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
            if not lo < y < hi:
                break
        x = y
    return best[1]


@functools.lru_cache(maxsize=1024)
def _r_peak(p: int, q: int) -> tuple:
    """(s_c, floor): the interior critical point of R, its maximum, and the
    floor on H.

    R'(s) = p (p-1)/q b^(p-1) N(a/b), N(t) = (q-1) - (p-1) t + (q-1) t^(p-2)
    ((p-1)(q-1) - t), and the coefficients of N(1 + u) change sign once when
    q >= 3 or p >= 5 and never otherwise (Descartes): one interior critical
    point, or none (s_c None, R falls from s = 0).  The sign of R' is bisected
    to adjacent floats or an exact zero, and the end with the smaller |R'|
    kept (at large p, |R'| is far smaller at s = 1/2 than next to the peak).
    (p, q) is checked as a ModelSpec first.

    An evaluation of H is off by about eps (2 + beta p (p-1) (a^(p-1) +
    b^(p-1))) from the rounding of a and b; four times that at the peak, with
    beta = 1/R(peak), is the floor: H moving less over a branch is rounding.
    """
    ModelSpec(p, q, 0.0, 0.0)
    s_c = None
    if q > 2 or p > 4:
        lo, hi = 0.0, 1.0
        while lo < 0.5 * (lo + hi) < hi:
            s = 0.5 * (lo + hi)
            slope = _r(p, q, s)[1]
            lo, hi = (s, s) if slope == 0.0 else (s, hi) if slope > 0.0 else (lo, s)
        s_c = min(lo, hi, key=lambda s: abs(_r(p, q, s)[1]))
    a, b = _ray(q, s_c or 0.0)
    beta = 1.0 / _r(p, q, s_c or 0.0)[0]
    return s_c, 4.0 * sys.float_info.epsilon * (2.0 + beta * p * (p - 1.0)
                                                * (a ** (p - 1) + b ** (p - 1)))


def _branches(p: int, q: int, beta: float) -> tuple:
    """The monotone branches of H_beta on [0, 1 - delta], and s_c when H
    rises through it with no turning pair around it (else None).

    R rises to its peak (s_c, or s = 0 when it has none) and then falls, so
    the turning points of H_beta, where beta R = 1, are at most one solve on
    each side of the peak.  A branch over which H moves by no more than the
    floor of ``_r_peak`` is dropped: a middle branch takes both its turning
    points with it (they merge at s_c), an end branch its inner one.  With
    no turning pair left around s_c (dropped, or beta R(s_c) <= 1) H rises
    through s_c.  Branches are (lo, hi, H(lo), H(hi)), ascending.
    """
    s_c, floor = _r_peak(p, q)
    peak = s_c or 0.0
    edge = 1.0 - BOUNDARY_DELTA
    ends = [0.0]
    turning = beta * _r(p, q, peak)[0] > 1.0
    if turning:
        for lo, hi, sign in ((0.0, peak, 1.0), (peak, edge, -1.0)):
            if beta * _r(p, q, lo if sign > 0 else hi)[0] < 1.0:
                ends.append(_solve(functools.partial(_r, p, q), lo, hi, sign, 1.0 / beta))
    ends.append(edge)
    hv = [_big_h(p, q, beta, s)[0] for s in ends]
    merged = s_c is not None and not turning
    while len(ends) > 2:
        small = [j for j in range(len(ends) - 1) if abs(hv[j + 1] - hv[j]) <= floor]
        if not small:
            break
        drop = {i for i in (small[0], small[0] + 1) if 0 < i < len(ends) - 1}
        merged = merged or len(drop) == 2
        ends = [s for i, s in enumerate(ends) if i not in drop]
        hv = [v for i, v in enumerate(hv) if i not in drop]
    return list(zip(ends, ends[1:], hv, hv[1:])), s_c if merged else None


def _stationary(spec: ModelSpec) -> list:
    """(s, is_local_min) for every root of f' in [0, 1 - delta], ascending:
    the one-row case of ``_stationary_column``."""
    return _stationary_column(spec.p, spec.q, spec.beta, [spec.h])[0]


def _stationary_column(p: int, q: int, beta: float, hs) -> list:
    """The root list of ``_stationary`` at (p, q, beta, h) for every h in ``hs``.

    f' = (q-1)/q (h - H_beta(s)), so on each monotone branch of H_beta
    (``_branches``, once per beta) f' has a root exactly when h lies strictly
    between H at the branch ends, found by ``_solve``.  A root on a rising
    branch is a local maximum of f, one on a falling branch a local minimum.
    When h (q-1)/q is at most SIGN_NOISE_FLOOR, h counts as 0 and s = 0 is a
    root, a minimum when the first branch falls.  Where H rises through s_c
    with no turning pair around it, an h within the floor of H_beta(s_c) has
    s_c itself as its root.
    """
    branches, s_c = _branches(p, q, beta)
    floor = _r_peak(p, q)[1]
    h_c = None if s_c is None else _big_h(p, q, beta, s_c)[0]
    columns = []
    for h in hs:
        h, roots = float(h), []
        if h * (q - 1.0) / q <= SIGN_NOISE_FLOOR:
            h = 0.0
            roots.append((0.0, branches[0][3] < branches[0][2]))
        for lo, hi, h_lo, h_hi in branches:
            sign = 1.0 if h_hi > h_lo else -1.0
            if h_c is not None and lo < s_c < hi and abs(h - h_c) <= floor:
                roots.append((s_c, False))
            elif sign * h_lo < sign * h < sign * h_hi:
                s = _solve(lambda s: _big_h(p, q, beta, s), lo, hi, sign, h)
                roots.append((s, sign < 0))
        columns.append(roots)
    return columns


def _point(spec: ModelSpec, s: float) -> StationaryPoint:
    return StationaryPoint(s=s, f_value=f_deriv(spec, s, 0), f2=f_deriv(spec, s, 2))


def find_stationary_points(spec: ModelSpec) -> list:
    """All roots of f' in [0, 1 - delta] (see ``_stationary``), as
    StationaryPoints; s = 0 is among them whenever h = 0."""
    return [_point(spec, s) for s, _ in _stationary(spec)]


def _maximizer_candidates(spec: ModelSpec, roots: list) -> list:
    """The one rule for global-maximizer candidates of f, from the root list
    ``roots`` of ``_stationary``.

    Every stationary point that is not a local minimum, plus the guard edge
    s = 1 - delta when f' > 0 there: the maximizer then sits inside the
    boundary guard (strong coupling), and the edge stands in for it.
    """
    pts = [_point(spec, s) for s, is_min in roots if not is_min]
    edge = 1.0 - BOUNDARY_DELTA
    if f_deriv(spec, edge, 1) > 0:
        pts.append(_point(spec, edge))
    if not pts:
        raise NonConvergenceError(f"no local maximum of f and no rising guard edge at {spec}")
    return pts


def global_maximizers_1d(spec: ModelSpec, tie_tol: float = TIE_TOL) -> list:
    """The ``_maximizer_candidates`` within tie_tol of the largest f (one or two)."""
    return _winners(_maximizer_candidates(spec, _stationary(spec)), tie_tol)


def _winners(pts: list, tie_tol: float) -> list:
    """The candidates ``pts`` within tie_tol of the largest f (one or two)."""
    if not 0.0 < tie_tol < np.inf:
        raise DomainError(f"tie_tol must be finite and positive, got {tie_tol}")
    best = max(pt.f_value for pt in pts)
    return [pt for pt in pts if pt.f_value >= best - tie_tol]


def full_maximizer_set(spec: ModelSpec, tie_tol: float = TIE_TOL) -> MaximizerSet:
    """Expand the tied s-values to the full set of maximizers of H.

    h > 0 forbids permutations (the first coordinate strictly dominates);
    h = 0 with s > 0 contributes all q permutations of x_s; s = 0 contributes
    the uniform vector once.
    """
    return _maximizer_set(spec, global_maximizers_1d(spec, tie_tol))


def _maximizer_set(spec: ModelSpec, winners) -> MaximizerSet:
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
    return MaximizerSet(s_values=tuple(pt.s for pt in winners), vectors=tuple(vectors))


def classify_point(spec: ModelSpec, tol_class: float = CLASS_TOL,
                   tie_tol: float = TIE_TOL) -> PointClass:
    """Classify (beta, h) into the five-way phase taxonomy.

    ``tol_class`` bounds |f''(s*)| for the special tags (and |f''''| for type
    II via F4_TOL).  Points with |f''| in (tol_class, 10 tol_class) get a
    nearness warning but are still classified.  One root list:
    ``_stationary``, the one-row case of the ``_stationary_column`` call
    that ``phase_diagram`` makes once per beta.
    """
    return _classify(spec, _stationary(spec), tol_class, tie_tol)


def _classify(spec: ModelSpec, roots: list, tol_class: float, tie_tol: float) -> PointClass:
    """``classify_point`` from the root list ``roots`` of ``_stationary``."""
    if not 0.0 < tol_class < np.inf:
        raise DomainError(f"tol_class must be finite and positive, got {tol_class}")
    winners = _winners(_maximizer_candidates(spec, roots), tie_tol)
    wit = _maximizer_set(spec, winners)
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


def _axis_beta(p: int, q: int) -> float:
    """Root of f''_{beta,0}(0) = (q-1)/q (beta p (p-1) q^(2-p) - q), linear in
    beta: beta_c and beta_tilde of the continuous transitions (q = 2, p <= 4)."""
    return q ** (p - 1) / (p * (p - 1))


def _tie_newton(p: int, q: int, h: float, beta: float, s_lo: float, s_hi: float,
                free: str):
    """Newton on F = (f'(s_lo), f'(s_hi), f(s_hi) - f(s_lo)) = 0 in s_lo, s_hi
    and the parameter named by ``free`` ("beta" or "h"), the other one fixed.

    The Jacobian is closed-form: f'' on the diagonal, d_beta f^(n) from
    ``f_beta_deriv``, d_h f' = (q-1)/q and d_h f = (1 + (q-1) s)/q.  At h = 0
    with beta free, f'(0) = d_beta f'(0) = 0 exactly, so s_lo = 0 stays 0.
    Returns None when an iterate leaves the domain or stops being two
    distinct local maxima (f'' < 0), or the residuals miss STATIONARY_TOL.
    So does a pair without s_lo < s_c < s_hi and beta R(s_c) > 1 (s_c of
    ``_r_peak``): only then are they the roots on the first and last rising
    branches of H, the only maximizer candidates (H -> +inf at s = 1).
    """
    done = False
    for it in range(NEWTON_MAX_STEPS + 1):
        if not (0.0 <= s_lo < s_hi <= 1.0 - BOUNDARY_DELTA and beta >= 0 and h >= 0):
            return None
        spec = ModelSpec(p, q, beta, h)
        g_lo, g_hi = f_deriv(spec, s_lo, 1), f_deriv(spec, s_hi, 1)
        d_lo, d_hi = f_deriv(spec, s_lo, 2), f_deriv(spec, s_hi, 2)
        gap = f_deriv(spec, s_hi, 0) - f_deriv(spec, s_lo, 0)
        if d_lo >= 0 or d_hi >= 0:
            return None
        if done or it == NEWTON_MAX_STEPS or max(abs(g_lo), abs(g_hi), abs(gap)) <= 1e-15:
            break
        if free == "beta":
            c_lo, c_hi = f_beta_deriv(spec, s_lo, 1), f_beta_deriv(spec, s_hi, 1)
            c_gap = f_beta_deriv(spec, s_hi, 0) - f_beta_deriv(spec, s_lo, 0)
        else:
            c_lo = c_hi = (q - 1.0) / q
            c_gap = c_lo * (s_hi - s_lo)
        # the s-rows are diagonal: eliminate them and solve for the free step
        w = ((g_hi * g_hi / d_hi - g_lo * g_lo / d_lo - gap)
             / (c_gap + g_lo * c_lo / d_lo - g_hi * c_hi / d_hi))
        u = -(g_lo + c_lo * w) / d_lo
        v = -(g_hi + c_hi * w) / d_hi
        # s_lo and h start at 0 on the axis: rounding must not push them below
        s_lo, s_hi = max(s_lo + u, 0.0), s_hi + v
        if free == "beta":
            beta += w
        else:
            h = max(h + w, 0.0)
        done = max(abs(u), abs(v), abs(w) / max(1.0, beta + h)) <= NEWTON_STEP_TOL
    # near the guard f'' is large and one ulp of s moves f' by ~1e-16 |f''|
    if (abs(gap) > STATIONARY_TOL or abs(g_lo) > STATIONARY_TOL - 1e-15 * d_lo
            or abs(g_hi) > STATIONARY_TOL - 1e-15 * d_hi):
        return None
    s_c = _r_peak(p, q)[0] or 0.0
    if not (s_lo < s_c < s_hi and beta * _r(p, q, s_c)[0] > 1.0):
        return None
    return CriticalCurveSample(h=h, beta=beta, s_low=s_lo, s_high=s_hi)


def _axis_gap(p: int, q: int, beta: float) -> tuple:
    """(gap, slope, s*): the largest f_{beta,0}(s) - f_{beta,0}(0) over the
    maximizer candidates s > 0, at s*, and its slope in beta P(s*) - P(0),
    P = sum x_r^p; (-inf, 0, None) with no such candidate.  Each term is
    affine and increasing in beta, so the gap is convex and nondecreasing."""
    spec = ModelSpec(p, q, beta, 0.0)
    pts = [pt for pt in _maximizer_candidates(spec, _stationary(spec)) if pt.s > 0.0]
    if not pts:
        return -math.inf, 0.0, None
    top = max(pts, key=lambda pt: pt.f_value)
    return (top.f_value - f_deriv(spec, 0.0, 0),
            f_beta_deriv(spec, top.s, 0) - f_beta_deriv(spec, 0.0, 0), top.s)


@functools.lru_cache(maxsize=1024)
def _axis_tie(p: int, q: int):
    """The h = 0 tie f(s*) = f(0) at beta_c, as a curve sample with s_low = 0:
    the root of ``_axis_gap`` on [0, ``_axis_beta``] by ``_solve``, polished
    by ``_tie_newton``.  None for a continuous transition (q = 2, p <= 4, R
    has no interior peak), where beta_c is ``_axis_beta`` itself.  A gap over
    TIE_TOL at the solved beta (large p: ``_solve`` runs out of steps) raises.
    """
    if _r_peak(p, q)[0] is None:
        return None
    beta = _solve(lambda b: _axis_gap(p, q, b)[:2], 0.0, _axis_beta(p, q))
    gap, _, s = _axis_gap(p, q, beta)
    if not abs(gap) <= TIE_TOL:
        raise NonConvergenceError(f"no h = 0 tie of ({p}, {q}): gap {gap:.3g} at beta {beta!r}")
    tie = _tie_newton(p, q, 0.0, beta, 0.0, s, "beta")
    if tie is None and s == 1.0 - BOUNDARY_DELTA:
        # the ordered maximizer sits inside the boundary guard: the edge stands in
        return CriticalCurveSample(h=0.0, beta=beta, s_low=0.0, s_high=s)
    if tie is None:
        raise NonConvergenceError(f"the h = 0 tie of ({p}, {q}) did not converge")
    return tie


def compute_beta_c(p: int, q: int) -> float:
    """Transition point beta_c: the infimum of beta at which f_{beta,0} gains
    a positive global maximizer.

    For a first-order transition this is the h = 0 tie f(s*) = f(0), the
    root of a convex gap in beta (``_axis_tie``); for the continuous
    ones (q = 2, p <= 4) it is the closed-form root of f''_{beta,0}(0).
    """
    tie = _axis_tie(p, q)
    return _axis_beta(p, q) if tie is None else tie.beta


def compute_special_point(p: int, q: int) -> SpecialPoint:
    """The unique special point (beta_tilde, h_tilde) with its maximizer s_pq.

    f'' = (q-1)/(q^2 a b) (beta R(s) - 1), so beta_tilde, where sup_s f''
    reaches 0, is 1/max R: s_pq = s_c of ``_r_peak``, or s = 0 when R has
    no interior peak (q = 2, p <= 4), where beta_tilde is the closed form
    ``_axis_beta``.  h_tilde = H_beta_tilde(s_pq) makes s_pq stationary.
    """
    s = _r_peak(p, q)[0]
    if s is None:
        beta, s, h_tilde = _axis_beta(p, q), 0.0, 0.0
    else:
        beta = 1.0 / _r(p, q, s)[0]
        h_tilde = _big_h(p, q, beta, s)[0]
    f4 = f_deriv(ModelSpec(p, q, beta, h_tilde), s, 4)
    kind = "II" if abs(f4) <= F4_TOL else "I"
    if f4 > F4_TOL:
        raise NonConvergenceError(f"f'''' = {f4} > 0 at the special maximizer")
    return SpecialPoint(beta_tilde=beta, h_tilde=h_tilde, s_pq=s, type=kind)


def trace_critical_curve(p: int, q: int, param: str, values) -> list:
    """Curve samples at the given ``values`` of ``param`` ("h", solving for
    beta, or "beta", solving for h), moving monotonically away from the axis.

    Natural-parameter continuation from the h = 0 tie at beta_c: a secant
    predictor through the last two accepted points and the Newton corrector
    ``_tie_newton``, which accepts only the two maximizer candidates.  When
    the corrector fails, the step is halved.  Callers keep h in
    [0, h_tilde) or beta above beta_tilde (a nan or inf raises DomainError);
    a beta at or above beta_c (within 1e-12) gives the h = 0 tie itself.
    """
    if param not in ("h", "beta"):
        raise DomainError(f"param must be 'h' or 'beta', got {param!r}")
    axis = _axis_tie(p, q)
    if axis is None:
        raise DomainError(f"({p}, {q}) has a continuous transition and no critical curve")
    free = "beta" if param == "h" else "h"
    path = [axis]

    def coords(tie):
        return np.array([tie.s_low, tie.s_high, getattr(tie, free)])

    out = []
    for target in values:
        lam = target = float(target)
        if not np.isfinite(target):  # step halving would never reach it
            raise DomainError(f"curve targets must be finite, got {param} = {target}")
        if param == "beta" and target >= axis.beta - 1e-12:
            out.append(axis)
            continue
        while getattr(path[-1], param) != target:
            lam1 = getattr(path[-1], param)
            x = coords(path[-1])
            if len(path) > 1:
                lam0 = getattr(path[-2], param)
                x = x + (x - coords(path[-2])) * ((lam - lam1) / (lam1 - lam0))
            h, beta = (lam, x[2]) if param == "h" else (x[2], lam)
            tie = _tie_newton(p, q, float(h), float(beta), float(x[0]), float(x[1]), free)
            if tie is None:
                lam = lam1 + 0.5 * (lam - lam1)
                if abs(lam - lam1) < MIN_CONTINUATION_STEP:
                    raise NonConvergenceError(f"curve continuation stalled at {param} = {lam1}")
                continue
            path = [path[-1], tie]
            lam = target
        out.append(path[-1])
    return out


def critical_curve(p: int, q: int, n_samples: int,
                   special: SpecialPoint | None = None) -> list:
    """Samples of the strongly-critical curve beta = phi(h), h on a uniform
    grid over [0, h_tilde), traced by ``trace_critical_curve``.

    Empty when the special point sits on the axis (q = 2, p <= 4).
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if special is None:
        special = compute_special_point(p, q)
    if special.h_tilde <= 0:
        return []
    return trace_critical_curve(p, q, "h", special.h_tilde * np.arange(n_samples) / n_samples)


def phase_diagram(p: int, q: int, beta_range, h_range, resolution,
                  tol_class: float = CLASS_TOL,
                  curve_samples: int = 256) -> PhaseDiagram:
    """Classify a rectangle of parameter points and attach the landmarks.

    ``resolution`` is one integer or a (beta, h) pair of them.  Each beta
    column is classified from one ``_stationary_column`` call, which gives
    every point the root list, and so the tag, of ``classify_point``.
    """
    b_lo, b_hi = beta_range
    h_lo, h_hi = h_range
    if not (0 <= b_lo < b_hi and 0 <= h_lo < h_hi):
        raise DomainError("phase-diagram rectangle must lie in the parameter space")
    try:
        res_b = res_h = operator.index(resolution)
    except TypeError:
        try:
            res_b, res_h = (operator.index(r) for r in resolution)
        except (TypeError, ValueError):
            raise DomainError("phase-diagram resolution must be an integer or a pair of "
                              f"integers, got {resolution!r}") from None
    if min(res_b, res_h) < 1:
        raise DomainError(f"phase-diagram resolution must be >= 1, got {resolution}")
    betas = np.linspace(b_lo, b_hi, res_b)
    hs = np.linspace(h_lo, h_hi, res_h)
    tags = np.empty((res_h, res_b), dtype=object)
    for j, b in enumerate(betas):
        column = _stationary_column(p, q, float(b), hs)
        for i, h in enumerate(hs):
            spec = ModelSpec(p, q, float(b), float(h))
            tags[i, j] = _classify(spec, column[i], tol_class, TIE_TOL).tag
    special = compute_special_point(p, q)
    bc = compute_beta_c(p, q)
    curve = critical_curve(p, q, curve_samples, special=special)
    return PhaseDiagram(p=p, q=q, beta_values=betas, h_values=hs, tags=tags,
                        beta_c=bc, special=special, curve=curve)


def curve_to_csv(samples, path, fmt: str = "csv") -> None:
    """The curve table h,beta,s_low,s_high, as CSV or (``fmt="json"``) JSON records."""
    write_table(path, ["h", "beta", "s_low", "s_high"],
                [(c.h, c.beta, c.s_low, c.s_high) for c in samples], fmt)
