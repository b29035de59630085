"""Maximum-likelihood estimation of beta and h, with confidence sets.

The ML estimate of h at known beta solves u_{N,1}(beta, h) = observed
first-coordinate magnetization; the estimate of beta at known h solves
u_{N,p}(beta, h) = observed p-norm statistic.  Both maps are strictly
increasing in the estimated parameter (the log-partition function is strictly
convex), and their derivatives are exact too: N Var(xbar_1) and
N Var(sum_r xbar_r^p).  The root is bracketed on a fixed dyadic ladder:
doubling from [0, 1], then halving the doubling bracket to cells 1/64 as wide.
Each profile memoizes its ladder values, the halving midpoints with their
slopes, so repeated solves on one profile (a coverage study, the law of an
estimate over every observation) pay only for the nodes no earlier solve
reached, while every result depends on the profile and the observation
alone.  The solve then interpolates the inverse map x(u) with its slopes
1/u' (inverse Hermite interpolation, Traub 1964): a cubic through the final
cell's ends for the first iterate, a quintic through the three latest points
after that.  Where no such interpolant exists (a slope missing or not
positive, two equal u values) it takes the secant point and Newton steps
instead, and it bisects whenever a step would leave the bracket or fails to
halve the step before last, so the solve converges unconditionally; on a
warm profile two evaluations usually meet the stop test.  Expectations and
derivatives inside the root-finding are exact finite-N values from the exact
engine, never Monte Carlo.

Confidence sets: the plain plug-in intervals around the estimates are
asymptotically valid at regular points.  They are made universally valid
either by uniting the (at most one) point of the critical-set closure on the
relevant parameter slice, or by the two-step procedure that first tests that
point with the estimator's critical/special limiting law.  The slice points
come from Newton continuation of the tie system along the critical curve.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import DegenerateIntervalError, DomainError, PreconditionError
from .exact import BProfile, HProfile
from .model import BOUNDARY_DELTA, ModelSpec, as_prob_vector, curvature_variance
from .phase import (
    SCALE_EXPONENTS,
    PointTag,
    SpecialPoint,
    classify_point,
    compute_special_point,
    trace_critical_curve,
)

BRACKET_CAP = 64.0
ROOT_RESIDUAL_TOL = 1e-10
ROOT_STOP_TOL = 1e-13
MAX_ROOT_ITERATIONS = 200
# Halvings of the doubling bracket on the solver's ladder: cells 1/64 as wide.
_LADDER_DEPTH = 6


@dataclass(frozen=True)
class EstimationResult:
    estimate: float
    observed_statistic: float
    iterations: int
    bracket: tuple
    converged: bool
    boundary: bool = False
    residual: float = math.nan

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "observed_statistic": self.observed_statistic,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
            "converged": self.converged,
            "boundary_flag": self.boundary,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ConfidenceSet:
    interval: tuple
    level: float
    method: str  # plain | augmented | two_step
    appended_points: list = field(default_factory=list)

    def contains(self, value: float) -> bool:
        lo, hi = self.interval
        if lo <= value <= hi:
            return True
        return any(abs(value - pt) < 1e-12 for pt in self.appended_points)

    def width(self) -> float:
        return self.interval[1] - self.interval[0]

    def to_json_dict(self) -> dict:
        return {
            "lower": self.interval[0],
            "upper": self.interval[1],
            "appended": list(self.appended_points),
            "method": self.method,
            "level": self.level,
        }


def _ladder_node(ladder: dict, x: float, fn):
    """fn(x), read from or stored in the profile's ladder memo."""
    out = ladder.get(x)
    if out is None:
        out = ladder[x] = fn(x)
    return out


def _inverse_hermite(points, target: float):
    """x(target) from the Hermite interpolant of the inverse map x(u).

    ``points`` are (x, u, u') triples, latest first: the interpolant takes
    the value x and the slope 1/u' at each u, so k points give degree
    2k - 1 (cubic from two, quintic from three).  Newton's divided
    differences run on the doubled nodes s = (u - target) / w, w the
    largest |u - target|, so they stay in range however small u and its
    steps are; the latest point's nodes come first, so its correction terms
    carry the smallest factors.  Returns None when a slope is not positive
    or two u values are equal: no such interpolant exists.
    """
    if any(not du > 0.0 for _, _, du in points):
        return None
    if len({u for _, u, _ in points}) < len(points):
        return None
    w = max(abs(u - target) for _, u, _ in points)
    nodes = [(u - target) / w for _, u, _ in points for _ in (0, 1)]
    coef = [x for x, _, _ in points for _ in (0, 1)]
    n = len(coef)
    for i in range(n - 1, 0, -1):
        if i % 2:
            coef[i] = w / points[i // 2][2]
        else:
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - 1])
    for order in range(2, n):
        for i in range(n - 1, order - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - order])
    x = coef[-1]
    for i in range(n - 2, -1, -1):
        x = coef[i] - x * nodes[i]
    return x


def _solve_increasing(value, moments, ladder: dict, observed: float):
    """Root of the increasing u(x) = observed on [0, BRACKET_CAP], by
    safeguarded inverse Hermite steps.

    The root is first placed on a fixed dyadic ladder whose node values are
    kept in ``ladder``, the profile's memo: ``moments(0)`` = (u(0), u'(0))
    for the boundary test, the doubling ends 1, 2, 4, ... <= BRACKET_CAP
    (``value(x)`` = u(x) alone), and the midpoints that halve the doubling
    bracket _LADDER_DEPTH times (``moments``, so they keep their slopes).
    A solve walks the nodes its own observation selects and computes only
    those not yet in the memo; node values are pure functions of the
    profile, so the result depends on (profile, observed) alone, never on
    earlier solves.

    The first iterate is the cubic Hermite interpolant of the inverse x(u)
    through the final cell's two ends (values x, slopes 1/u'), and each
    later candidate the quintic through the three latest points; ``moments``
    returns u'(x) with every iterate.  Where no such interpolant exists (a
    cell that ends on a doubling end, whose slope is not kept; two equal u
    values; a u' <= 0) the start is the secant point of the cell and the
    candidate the Newton step; a cubic start outside the cell falls back to
    the secant point too.  Every evaluation shrinks the bracket, and a
    candidate is replaced by bisection when it would leave the bracket or is
    not finite, or when it fails to halve the step before last (rtsafe, as
    in Numerical Recipes, so two rounding-level steps in a row on a flat u
    do not send it back to the far end of the bracket).  The solve stops
    once both |u - observed| and the Newton correction
    |u - observed| / u' are at most ROOT_STOP_TOL, or the bracket is
    narrower than that, so a flat u still gets an accurate root.

    The lower boundary 0 is the root, flagged as a boundary estimate, when
    u(0) reaches the observation within that same stop test, so the decision
    does not hinge on the last bit of u(0).

    Both statistics have supremum 1, where the MLE is +inf: an observation
    of 1 is solved to exact equality, which returns a finite point where u
    has saturated to 1 in double precision, flagged as a boundary estimate.

    Returns (root, iterations, bracket, converged, boundary, residual).
    ``iterations`` counts the ladder nodes walked past 0, cached or not, plus
    the interpolation, Newton and bisection steps: the evaluations a solve
    on a fresh profile makes after the boundary test, so a boundary return
    reports 0.  ``bracket`` is the doubling bracket, and the residual
    |u(root) - observed| comes from the evaluation at the root.
    """
    at_sup = observed >= 1.0
    tol = 0.0 if at_sup else ROOT_STOP_TOL
    # points are (x, u, u'), with u' None at the doubling ends
    lo = (0.0, *_ladder_node(ladder, 0.0, moments))
    if lo[1] - observed >= -tol * min(1.0, lo[2]):
        return 0.0, 0, (0.0, 0.0), True, True, abs(lo[1] - observed)
    x, iters = 1.0, 1
    while (u := _ladder_node(ladder, x, value)) < observed:
        lo = (x, u, None)
        x *= 2.0
        if x > BRACKET_CAP:
            return x, iters, (lo[0], x), False, at_sup, math.nan
        iters += 1
    hi = (x, u, None)
    bracket = (lo[0], hi[0])
    for _ in range(_LADDER_DEPTH):
        mid = 0.5 * (lo[0] + hi[0])
        node = (mid, *_ladder_node(ladder, mid, moments))
        iters += 1
        if node[1] < observed:
            lo = node
        else:
            hi = node
    # (x, u, u') of the latest points with a slope, latest first
    recent = [pt for pt in (hi, lo) if pt[2] is not None]
    x = _inverse_hermite(recent, observed) if len(recent) == 2 else None
    if x is None or not lo[0] < x <= hi[0]:
        x = lo[0] + (observed - lo[1]) * (hi[0] - lo[0]) / (hi[1] - lo[1])
    step = prev = hi[0] - lo[0]
    while iters < MAX_ROOT_ITERATIONS:
        u, du = moments(x)
        iters += 1
        if u < observed:
            lo = (x, u, du)
        else:
            hi = (x, u, du)
        if abs(u - observed) <= tol * min(1.0, du):
            return x, iters, bracket, True, at_sup, abs(u - observed)
        if hi[0] - lo[0] <= ROOT_STOP_TOL:
            break
        recent = [(x, u, du)] + recent[:2]
        older, prev = prev, step  # the step before last, and the last
        target = _inverse_hermite(recent, observed) if len(recent) == 3 else None
        if target is not None:
            step = x - target
        else:
            step = (u - observed) / du if du > 0 else math.inf
        if not lo[0] < x - step < hi[0] or 2.0 * abs(step) > abs(older):
            step = x - 0.5 * (lo[0] + hi[0])
        x -= step
    root, u, _ = min(lo, hi, key=lambda pt: abs(pt[1] - observed))
    return root, iters, bracket, hi[0] - lo[0] <= ROOT_STOP_TOL, at_sup, abs(u - observed)


def mle_h(spec: ModelSpec, observed_x1: float, N: int,
          profile: HProfile | None = None) -> EstimationResult:
    """ML estimate of h at known beta, from the observed first coordinate.

    Below u_{N,1}(beta, 0) the nonnegativity constraint is active and the
    boundary estimate 0 is flagged rather than raised; an observed value of
    exactly 0 (empty first color, positive probability at finite N) lands on
    that same boundary path.  An observed value of exactly 1 has its MLE at
    +inf and is flagged as a boundary estimate too.
    """
    if not (0.0 <= observed_x1 <= 1.0):
        raise DomainError(f"observed_x1 must be in [0, 1], got {observed_x1}")
    if profile is None:
        profile = HProfile(spec, N)
    return _estimation_result(observed_x1, *_solve_increasing(
        profile.u1, profile.moments, profile._ladder, observed_x1))


def mle_beta(spec: ModelSpec, observed_pnorm: float, N: int,
             profile: BProfile | None = None) -> EstimationResult:
    """ML estimate of beta at known h, from the observed p-norm statistic.

    The uniform-magnetization value q^(1-p) (attainable when q divides N)
    sits below u_{N,p}(0, h) and yields the boundary estimate 0; the value 1
    (all sites one color) has its MLE at +inf and is flagged as well.
    """
    q, p = spec.q, spec.p
    if not (q ** (1 - p) <= observed_pnorm <= 1.0):
        raise DomainError(
            f"observed p-norm must lie in [q^(1-p), 1] = [{q ** (1 - p)}, 1], got {observed_pnorm}")
    if profile is None:
        profile = BProfile(spec, N)
    return _estimation_result(observed_pnorm, *_solve_increasing(
        profile.up, profile.moments, profile._ladder, observed_pnorm))


def _estimation_result(observed, root, iters, bracket, converged, boundary,
                       residual) -> EstimationResult:
    if converged and not boundary and residual > ROOT_RESIDUAL_TOL:
        converged = False
    return EstimationResult(estimate=root, observed_statistic=observed,
                            iterations=iters, bracket=bracket, converged=converged,
                            boundary=boundary, residual=residual)


def _plugin_variance(spec: ModelSpec, beta_slot: float, data_x: np.ndarray) -> float:
    """``curvature_variance`` at beta_slot and the plug-in s = 1 - q * xbar_q."""
    s_plug = 1.0 - spec.q * float(data_x[-1])
    if not (0.0 <= s_plug <= 1.0 - BOUNDARY_DELTA):
        raise DegenerateIntervalError(
            f"plug-in s = {s_plug} outside [0, 1): the sample's last coordinate "
            "is too extreme for the plug-in interval")
    v = curvature_variance(spec.with_params(beta=beta_slot), s_plug)
    if not v > 0:
        raise DegenerateIntervalError(
            f"plug-in f'' >= 0 (variance {v}): data is near-critical, interval degenerate")
    return v


def _z_quantile(alpha: float) -> float:
    """z_{1-alpha/2} of the standard normal (AS241); +inf when 1 - alpha/2 rounds to 1."""
    u = 1.0 - alpha / 2.0
    return NormalDist().inv_cdf(u) if u < 1.0 else math.inf


def ci_h(spec: ModelSpec, data_x, N: int, alpha: float = 0.05,
         estimate: EstimationResult | None = None) -> ConfidenceSet:
    """Plain plug-in interval for h at known beta.

    hhat +/- sqrt(v/N) z_{1-alpha/2}, v the plug-in ``curvature_variance``.
    """
    if not (0 < alpha < 1):
        raise DomainError("alpha must be in (0, 1)")
    data_x = as_prob_vector(data_x, spec.q)
    if estimate is None:
        estimate = mle_h(spec, float(data_x[0]), N)
    v = _plugin_variance(spec, spec.beta, data_x)
    half = math.sqrt(v / N) * _z_quantile(alpha)
    return ConfidenceSet(interval=(estimate.estimate - half, estimate.estimate + half),
                         level=1.0 - alpha, method="plain")


def ci_beta(spec: ModelSpec, data_x, N: int, alpha: float = 0.05,
            estimate: EstimationResult | None = None) -> ConfidenceSet:
    """Plain plug-in interval for beta at known h != 0.

    betahat +/- sqrt(v/N) / (p |xbar_1^{p-1} - xbar_2^{p-1}|) z_{1-alpha/2},
    v the plug-in ``curvature_variance`` at betahat.
    """
    if not (0 < alpha < 1):
        raise DomainError("alpha must be in (0, 1)")
    if spec.h == 0.0:
        raise PreconditionError("the beta interval requires h != 0")
    data_x = as_prob_vector(data_x, spec.q)
    if estimate is None:
        estimate = mle_beta(spec, float(np.sum(data_x ** spec.p)), N)
    q, p = spec.q, spec.p
    gap = abs(float(data_x[0] ** (p - 1) - data_x[1] ** (p - 1)))
    if p * (q - 1.0) * gap < 1e-9:
        raise DegenerateIntervalError(
            "p (q-1) |xbar_1^{p-1} - xbar_2^{p-1}| is below 1e-9; interval degenerate")
    v = _plugin_variance(spec, estimate.estimate, data_x)
    half = math.sqrt(v / N) / (p * gap) * _z_quantile(alpha)
    return ConfidenceSet(interval=(estimate.estimate - half, estimate.estimate + half),
                         level=1.0 - alpha, method="plain")


def critical_slice_h(p: int, q: int, beta: float) -> list:
    """S(beta): the h values putting (beta, h) in the closure of the critical set.

    At most one point: h = 0 for beta >= beta_c, the curve height phi^{-1}(beta)
    for beta_tilde <= beta < beta_c, nothing below beta_tilde.  The curve
    height comes from Newton continuation in beta from (beta_c, 0), which
    returns that start, h = 0, for beta >= beta_c; beta outside [0, inf) raises.
    """
    if not 0.0 <= beta < np.inf:
        raise DomainError(f"S(beta) is defined for finite beta >= 0, got {beta}")
    special = compute_special_point(p, q)
    if special.h_tilde <= 0:
        # continuous transition: the special point is (beta_c, 0)
        return [0.0] if beta >= special.beta_tilde - 1e-12 else []
    if beta < special.beta_tilde - 1e-12:
        return []
    if abs(beta - special.beta_tilde) <= 1e-12:
        return [special.h_tilde]
    return [trace_critical_curve(p, q, "beta", [beta])[0].h]


def critical_slice_beta(p: int, q: int, h: float,
                        beta_c: float | None = None,
                        special: SpecialPoint | None = None) -> list:
    """T(h) for finite h > 0: the beta with (beta, h) in the critical-set closure,
    by Newton continuation in h from (beta_c, 0).  ``special`` saves the
    special-point solve when the caller has it; ``beta_c`` is not read, and
    stays only because ``bench/critical.py`` passes it."""
    if not 0.0 < h < np.inf:
        raise DomainError(f"T(h) is defined for finite h > 0, got {h}")
    if special is None:
        special = compute_special_point(p, q)
    if special.h_tilde <= 0 or h > special.h_tilde + 1e-12:
        return []
    if abs(h - special.h_tilde) <= 1e-12:
        return [special.beta_tilde]
    return [trace_critical_curve(p, q, "h", [h])[0].beta]


def augment_ci(cs: ConfidenceSet, slice_points) -> ConfidenceSet:
    """Union the (at most one) critical-closure point into the confidence set."""
    lo, hi = cs.interval
    appended = [pt for pt in slice_points if not (lo <= pt <= hi)]
    return ConfidenceSet(interval=cs.interval, level=cs.level, method="augmented",
                         appended_points=appended)


# Per parameter: the observed statistic, the ML solve, the plain interval,
# the critical slice at the other parameter's value, and the estimator's
# limit law in ``laws`` (imported on the two-step path alone).
_Rule = namedtuple("_Rule", "statistic mle ci critical_slice limit")
_PARAM_RULES = {
    "h": _Rule(lambda spec, x: float(x[0]), mle_h, ci_h,
               lambda spec: critical_slice_h(spec.p, spec.q, spec.beta), "hhat_limit"),
    "beta": _Rule(lambda spec, x: float(np.sum(x ** spec.p)), mle_beta, ci_beta,
                  lambda spec: critical_slice_beta(spec.p, spec.q, spec.h), "bhat_limit"),
}


def confidence_set(spec: ModelSpec, data_x, N: int, alpha: float, param: str,
                   method: str, estimate: EstimationResult | None = None):
    """(ML estimate, confidence set) of ``param`` ("h" or "beta") from the
    data vector.  ``method`` is ``plain``, ``augmented`` (``augment_ci`` with
    the critical slice) or ``two_step`` (see ``two_step_ci``); ``estimate``
    is the ML estimate from the same data, when the caller already has it."""
    if param not in _PARAM_RULES:
        raise DomainError(f"param must be 'h' or 'beta', got {param!r}")
    if method not in ("plain", "augmented", "two_step"):
        raise DomainError(f"method must be plain, augmented or two_step, got {method!r}")
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    rule = _PARAM_RULES[param]
    data_x = as_prob_vector(data_x, spec.q)
    if estimate is None:
        estimate = rule.mle(spec, rule.statistic(spec, data_x), N)
    slice_pts = [] if method == "plain" else rule.critical_slice(spec)
    if method == "two_step" and slice_pts:
        target = slice_pts[0]
        null_spec = spec.with_params(**{param: target})
        pclass = classify_point(null_spec)
        # a slice point that classifies regular falls back to the plain interval
        if pclass.tag is not PointTag.REGULAR:
            from . import laws

            law = getattr(laws, rule.limit)(null_spec, pclass)
            stat = N ** (1.0 - SCALE_EXPONENTS[pclass.tag]) * (estimate.estimate - target)
            if law.quantile(alpha / 2.0) <= stat <= law.quantile(1.0 - alpha / 2.0):
                return estimate, ConfidenceSet(interval=(target, target), level=1.0 - alpha,
                                               method="two_step")
    cs = rule.ci(spec, data_x, N, alpha, estimate=estimate)
    if method == "augmented":
        return estimate, augment_ci(cs, slice_pts)
    return estimate, ConfidenceSet(interval=cs.interval, level=cs.level, method=method)


def two_step_ci(spec: ModelSpec, data_x, N: int, alpha: float = 0.05,
                param: str = "h",
                estimate: EstimationResult | None = None) -> ConfidenceSet:
    """Two-step confidence set: test the critical-closure point first.

    Tests H0: parameter equals the slice point, at level alpha, using the
    critical/special limiting law of the estimator at that point; on
    acceptance the singleton is returned, on rejection the plain interval.
    ``estimate`` is the ML estimate of ``param`` from the same data, when
    the caller already has it.
    """
    return confidence_set(spec, data_x, N, alpha, param, "two_step", estimate)[1]
