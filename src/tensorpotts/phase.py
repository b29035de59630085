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

Classification rests on one stationary-point scan, ``_stationary_column``:
f' on a uniform grid, a refinement pass in each sign-change cell, and a
polished root per bracket.  f' depends on h only through the constant
h (q-1)/q, so one scan of f'_{beta,0} serves a whole beta column:
``phase_diagram`` runs it once per beta for all its h values, and
``classify_point`` runs it with one h.  Both give a point the same roots.

The landmarks solve small square systems by Newton's method with closed-form
derivatives, each seeded and certified by one vectorised scan; the curve and
its slices follow the tie system by natural-parameter continuation (secant
predictor, Newton corrector, step halving, a grid certificate per sample).

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

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NonConvergenceError
from .model import (
    BOUNDARY_DELTA,
    ModelSpec,
    f_beta_deriv,
    f_deriv,
    k_deriv,
    x_of_s,
)
from .tables import write_table

# Default resolution of the f' sign-change scan; f' has at most three roots,
# so a coarse grid with one refinement pass near sign changes is safe.
SCAN_CELLS = 4096
REFINE_FACTOR = 16
_SCAN_GRID = np.linspace(0.0, 1.0 - BOUNDARY_DELTA, SCAN_CELLS + 1)

# Stationarity residual targeted by the polisher and required of Newton ties.
STATIONARY_TOL = 1e-12

# Cap on the polisher's Newton steps (one f' and one f'' evaluation each).
POLISH_MAX_STEPS = 20

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


# Sign flips where |g| never rises above this are cancellation noise, not
# roots (seen at the type-II point, where f' ~ -s^5/5 underflows near 0).
SIGN_NOISE_FLOOR = 1e-13

# The column scan takes its rows in blocks of at most this many grid cells
# (2 MB per float array), whatever the phase-diagram resolution.
SCAN_BLOCK_CELLS = 2 ** 18

# Newton on the landmark and tie systems stops once a step is below
# NEWTON_STEP_TOL (relative to max(1, |x|)), the residuals are at rounding
# level (1e-15), or after NEWTON_MAX_STEPS; the residuals then decide.
# Continuation gives up once halving has cut the step below MIN_CONTINUATION_STEP.
NEWTON_MAX_STEPS = 30
NEWTON_STEP_TOL = 1e-13
MIN_CONTINUATION_STEP = 1e-9

# The landmark scans and the tie certificate run on 1024 uniform cells plus
# a geometric tail toward the guard, where the ordered maximizer of large p
# sits: Newton needs a start within a factor e of the true 1 - s.  The tail
# holds the guard edge 1 - 1e-9.  np.union1d would import numpy.ma (np.unique).
_GRID = np.sort(np.concatenate([np.linspace(0.0, 1.0 - BOUNDARY_DELTA, 1025)[:-1],
                                1.0 - np.logspace(-9, -3, 49)]))


def _polish_root(spec: ModelSpec, lo: float, hi: float, glo: float) -> float:
    """Root of f' in the bracket [lo, hi] (f'(lo) = glo): Newton from the
    midpoint, with the bracket as a safeguard (a step leaving it bisects it),
    for at most POLISH_MAX_STEPS steps.

    When |f'| is already within STATIONARY_TOL on the midpoint of the
    refined cell, the root is degenerate (f'' = 0 there, as at the special
    points): f' stays near rounding level over much of the bracket, Newton
    crawls and its residual test stops it early, so 12 bisection steps on
    the sign of f' come first.
    """
    root = 0.5 * (lo + hi)
    gr = f_deriv(spec, root, 1)
    if abs(gr) <= STATIONARY_TOL:
        for _ in range(12):
            if gr == 0.0:
                return float(root)
            if glo * gr < 0:
                hi = root
            else:
                lo, glo = root, gr
            root = 0.5 * (lo + hi)
            gr = f_deriv(spec, root, 1)
    elif glo * gr < 0:
        hi = root
    else:
        lo, glo = root, gr
    for _ in range(POLISH_MAX_STEPS):
        if gr == 0.0:
            break
        d = f_deriv(spec, root, 2)
        cand = root - gr / d if d != 0.0 else 0.5 * (lo + hi)
        if not (lo <= cand <= hi):
            cand = 0.5 * (lo + hi)
        if cand == root:
            break
        gc = f_deriv(spec, cand, 1)
        if glo * gc < 0:
            hi = cand
        else:
            lo, glo = cand, gc
        root, gr = cand, gc
        if abs(gr) <= 1e-14 or hi - lo < 4e-16 * max(1.0, abs(root)):
            break
    return float(root)


def _stationary(spec: ModelSpec) -> list:
    """(s, is_local_min) for every root of f' in [0, 1 - delta], ascending:
    the one-row case of ``_stationary_column``."""
    return _stationary_column(spec.p, spec.q, spec.beta, [spec.h])[0]


def _stationary_column(p: int, q: int, beta: float, hs) -> list:
    """The root list of ``_stationary`` at (p, q, beta, h) for every h in ``hs``.

    A uniform sign-change scan of f' with one refinement pass near sign
    changes, then Newton polishing in each bracket (``_polish_root``).  s = 0 is
    a root when f'(0) = h (q-1)/q is below the sign-noise floor (always at
    h = 0).  The flag is read off the scan's f' signs (f' rising through the
    root), not off f'', so the degenerate maxima at the special points, where
    f'' = 0, are not mistaken for minima.

    f'_{beta,h} = f'_{beta,0} + h (q-1)/q, so the column scans f'_{beta,0}
    once and each row adds its constant: the same sum ``f_deriv`` forms for
    one point, so every scan value has the same bits.  Rows go in blocks of
    at most SCAN_BLOCK_CELLS grid cells; the flagged cells of a block are
    refined by one ``f_deriv`` call.
    """
    specs = [ModelSpec(p, q, beta, float(h)) for h in hs]
    spec0 = ModelSpec(p, q, beta, 0.0)
    s = _SCAN_GRID
    base = f_deriv(spec0, s, 1)
    shifts = np.array([spec.h * (q - 1.0) / q for spec in specs])
    roots = [[] for _ in specs]
    n = len(s)
    rows = max(1, SCAN_BLOCK_CELLS // n)
    for top in range(0, len(specs), rows):
        # the block's rows end to end: node j is s[j % n] of row top + j // n
        shift = shifts[top:top + rows, None]
        # only f' > 0 and f' == 0 take a pass over the block: the sign,
        # noise-floor and row-end tests run on the few nodes those leave
        v = (base + shift).ravel()
        pos = v > 0
        for r in np.nonzero(~_loud(v[::n]))[0]:
            # s = 0 is a minimum when f leaves the noise floor rising
            row = v[r * n:(r + 1) * n]
            first = row[np.argmax(_loud(row))]
            roots[top + r].append((0.0, bool(_loud(first) and first > 0)))
        # grid nodes where f' lands exactly on 0.0 count only when flanked by
        # genuinely opposite signs (underflow near flat roots also produces zeros)
        z = np.nonzero(v == 0.0)[0]
        z = z[(z % n > 0) & (z % n < n - 1)]
        if len(z):
            a, b = v[z - 1], v[z + 1]
            z = z[(((a > 0) & (b < 0)) | ((a < 0) & (b > 0))) & _loud(a) & _loud(b)]
            for j in z:
                roots[top + j // n].append((float(s[j % n]), bool(v[j - 1] < 0)))
        # a sign change is a change of positivity with a negative end
        c = np.nonzero(pos[:-1] != pos[1:])[0]
        a, b = v[c], v[c + 1]
        c = c[(c % n < n - 1) & ((a < 0) | (b < 0)) & (_loud(a) | _loud(b))]
        if not len(c):
            continue
        cell_r, cell_i = c // n, c % n
        # refine once: clustered roots near criticality can share a cell
        ss = np.linspace(s[cell_i], s[cell_i + 1], REFINE_FACTOR + 1).T
        vv = f_deriv(spec0, ss, 1) + shift[cell_r]
        sub = ((vv[:, :-1] > 0) & (vv[:, 1:] < 0)) | ((vv[:, :-1] < 0) & (vv[:, 1:] > 0))
        for k, (r, i) in enumerate(zip(cell_r, cell_i)):
            brackets = ([(ss[k, j], ss[k, j + 1], vv[k, j]) for j in np.nonzero(sub[k])[0]]
                        or [(s[i], s[i + 1], v[c[k]])])
            roots[top + r] += [(_polish_root(specs[top + r], lo, hi, glo), bool(glo < 0))
                               for lo, hi, glo in brackets]
    return [_merged(row) for row in roots]


def _loud(v):
    """f' values above the sign-noise floor."""
    return np.abs(v) > SIGN_NOISE_FLOOR


def _merged(roots: list) -> list:
    """Sorted roots, dropping any within 1e-11 of the one kept before it."""
    merged = []
    for root in sorted(roots):
        if not merged or root[0] - merged[-1][0] >= 1e-11:
            merged.append(root)
    return merged


def _point(spec: ModelSpec, s: float) -> StationaryPoint:
    return StationaryPoint(s=s, f_value=f_deriv(spec, s, 0), f2=f_deriv(spec, s, 2))


def find_stationary_points(spec: ModelSpec) -> list:
    """All roots of f' in [0, 1 - delta] (see ``_stationary``), as polished
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
        raise NonConvergenceError(f"no maximizer candidate above the f' noise floor at {spec}")
    return pts


def global_maximizers_1d(spec: ModelSpec, tie_tol: float = TIE_TOL) -> list:
    """The ``_maximizer_candidates`` within tie_tol of the largest f (one or two)."""
    return _winners(_maximizer_candidates(spec, _stationary(spec)), tie_tol)


def _winners(pts: list, tie_tol: float) -> list:
    """The candidates ``pts`` within tie_tol of the largest f (one or two)."""
    if not 0.0 < tie_tol < np.inf:
        raise DomainError(f"tie_tol must be finite and positive, got {tie_tol}")
    best = max(pt.f_value for pt in pts)
    winners = [pt for pt in pts if pt.f_value >= best - tie_tol]
    # the free energy admits at most two tied maximizers
    if len(winners) > 2:
        winners = sorted(sorted(winners, key=lambda pt: -pt.f_value)[:2], key=lambda pt: pt.s)
    return winners


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
    nearness warning but are still classified.  One stationary-point scan:
    ``_stationary``, the one-row case of the column scan that
    ``phase_diagram`` runs once per beta.
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
    return CriticalCurveSample(h=h, beta=beta, s_low=s_lo, s_high=s_hi)


def _beaten(tie: CriticalCurveSample, p: int, q: int) -> bool:
    """Certificate: does a third local maximum of f beat the tie?

    One vectorised pass of f and f' over the scan grid.  A cell where f'
    falls through zero holds a local maximum, whose height is estimated with
    f' linear across the cell; the guard edge counts when f is still rising
    there.  Cells within two cells of s_low or s_high are skipped.
    """
    spec = ModelSpec(p, q, tie.beta, tie.h)
    f = f_deriv(spec, _GRID, 0)
    g = f_deriv(spec, _GRID, 1)
    i = np.nonzero((g[:-1] > 0) & (g[1:] <= 0))[0]
    peaks = np.append(f[i] + 0.5 * (_GRID[i + 1] - _GRID[i]) * g[i] * g[i] / (g[i] - g[i + 1]),
                      f[-1] if g[-1] > 0 else -np.inf)
    cells = np.append(i, len(_GRID) - 1)
    keep = np.searchsorted(_GRID, [tie.s_low, tie.s_high])
    far = np.all(np.abs(cells[:, None] - keep[None, :]) > 2, axis=1)
    f_top = max(f_deriv(spec, tie.s_low, 0), f_deriv(spec, tie.s_high, 0))
    return bool(np.any(peaks[far] > f_top + TIE_TOL))


def _axis_tie(p: int, q: int):
    """The h = 0 tie f(s_c) = f(0) at beta_c, as a curve sample with s_low = 0.

    f_beta(s) - f_beta(0) = beta (P(s) - P(0)) - (E(0) - E(s)) with P = sum
    x_r^p and E the entropy, so s > 0 first ties at beta = min C(s), C =
    (E(0) - E(s)) / (P(s) - P(0)).  One vectorised scan of C seeds Newton in
    (s, beta) and certifies the result: no grid point ties at a smaller beta.
    None for a continuous transition, where C(0+) = ``_axis_beta`` is the minimum.
    """
    ent = ModelSpec(p, q, 0.0, 0.0)
    s = _GRID[1:]
    c = ((f_deriv(ent, s, 0) - f_deriv(ent, 0.0, 0))
         / (f_beta_deriv(ent, 0.0, 0) - f_beta_deriv(ent, s, 0)))
    i = int(np.argmin(c))
    # cancellation in C near s = 0 stays far below this margin
    if c[i] >= _axis_beta(p, q) * (1.0 - 1e-6):
        return None
    tie = _tie_newton(p, q, 0.0, float(c[i]), 0.0, float(s[i]), "beta")
    if tie is None and i == len(s) - 1:
        # the ordered maximizer sits inside the boundary guard: the edge stands in
        return CriticalCurveSample(h=0.0, beta=float(c[i]), s_low=0.0, s_high=float(s[i]))
    if tie is None or tie.beta > c[i] * (1.0 + 1e-10):
        raise NonConvergenceError(f"the h = 0 tie of ({p}, {q}) did not converge")
    return tie


def compute_beta_c(p: int, q: int) -> float:
    """Transition point beta_c: the infimum of beta at which f_{beta,0} gains
    a positive global maximizer.

    For a first-order transition this is the h = 0 tie f(s_c) = f(0), solved
    by Newton from one vectorised scan (``_axis_tie``); for the continuous
    ones (q = 2, p <= 4) it is the closed-form root of f''_{beta,0}(0).
    """
    tie = _axis_tie(p, q)
    return _axis_beta(p, q) if tie is None else tie.beta


def compute_special_point(p: int, q: int) -> SpecialPoint:
    """The unique special point (beta_tilde, h_tilde) with its maximizer s_pq.

    f'' is free of h and affine in beta, beta P2(s) + E2(s) with P2 > 0, so
    beta_tilde (where sup_s f'' reaches 0) is min B(s), B = -E2/P2, at s_pq.
    One vectorised scan of B seeds Newton on f'' = f''' = 0 in (beta, s); the
    result must meet both to STATIONARY_TOL and lie at or below the scan
    minimum.  A minimum at s = 0 (q = 2, p <= 4) is the closed
    form ``_axis_beta``.  h_tilde is the k' difference making s_pq stationary.
    """
    ent = ModelSpec(p, q, 0.0, 0.0)
    b_scan = -f_deriv(ent, _GRID, 2) / f_beta_deriv(ent, _GRID, 2)
    i = int(np.argmin(b_scan))
    if b_scan[0] <= b_scan[i] * (1.0 + 1e-12):
        beta, s = _axis_beta(p, q), 0.0
    else:
        beta, s = float(b_scan[i]), float(_GRID[i])
        for _ in range(NEWTON_MAX_STEPS):
            spec = ModelSpec(p, q, beta, 0.0)
            f2, f3, f4 = (f_deriv(spec, s, n) for n in (2, 3, 4))
            p2, p3 = f_beta_deriv(spec, s, 2), f_beta_deriv(spec, s, 3)
            det = p2 * f4 - f3 * p3
            d_beta, d_s = (f3 * f3 - f2 * f4) / det, (f2 * p3 - p2 * f3) / det
            beta, s = beta + d_beta, s + d_s
            if not 0.0 < s < 1.0 - BOUNDARY_DELTA or max(abs(d_beta), abs(d_s)) <= NEWTON_STEP_TOL:
                break
        spec = ModelSpec(p, q, beta, 0.0)
        # one ulp of s moves f''' by ~1e-16 |f''''|, as in _tie_newton
        if not (0.0 < s < 1.0 - BOUNDARY_DELTA and beta <= b_scan[i] * (1.0 + 1e-10)
                and abs(f_deriv(spec, s, 2)) <= STATIONARY_TOL
                and abs(f_deriv(spec, s, 3)) <= STATIONARY_TOL + 1e-15 * abs(f_deriv(spec, s, 4))):
            raise NonConvergenceError(f"the special point of ({p}, {q}) did not converge")
    spec0 = ModelSpec(p, q, beta, 0.0)
    h_tilde = k_deriv(spec0, (1.0 - s) / q, 1) - k_deriv(spec0, (1.0 + (q - 1.0) * s) / q, 1)
    if abs(h_tilde) < 1e-12:
        h_tilde = 0.0
    f4 = f_deriv(ModelSpec(p, q, beta, h_tilde), s, 4)
    kind = "II" if abs(f4) <= F4_TOL else "I"
    if f4 > F4_TOL:
        raise NonConvergenceError(f"f'''' = {f4} > 0 at the special maximizer")
    return SpecialPoint(beta_tilde=beta, h_tilde=h_tilde, s_pq=s, type=kind)


def trace_critical_curve(p: int, q: int, param: str, values) -> list:
    """Curve samples at the given ``values`` of ``param`` ("h", solving for
    beta, or "beta", solving for h), moving monotonically away from the axis.

    Natural-parameter continuation from the h = 0 tie at beta_c: a secant
    predictor through the last two accepted points, the Newton corrector
    ``_tie_newton`` and the ``_beaten`` certificate.  When the corrector or
    the certificate fails, the step is halved.  Callers keep h in
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
            if tie is None or _beaten(tie, p, q):
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
    column is classified from one ``_stationary_column`` scan, which gives
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
