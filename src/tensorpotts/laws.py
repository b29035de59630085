"""Limiting distributions of the magnetization and of the ML estimators.

Scalar laws come in a few families:

* tilted quartic / sextic densities proportional to
  ``exp(x^4/24 * q^4 f''''(s) + c1 x)`` and ``exp(-32/15 x^6 - c1 x)``,
  realized by Simpson quadrature under one truncation rule: the window
  around the tilted density's mode where its exponent stays within 1e-14 of
  the mode value (``_tilt_window``, symmetric at zero tilt);
* Gaussians and signed half-Gaussians;
* mixtures with point masses, including masses at +/- infinity (kept as
  explicit mass fields, never numeric sentinels);
* composed estimator laws whose cdf at t evaluates the mean of a t-tilted
  member of the family and feeds it through the zero-tilt cdf (the means of
  all tilts come from ``_tilted_means``: a short Simpson rule on each tilt's
  window, all tilts at once);
* chi-square laws, exact through the regularized incomplete gamma function
  of ``_chi2_tails`` (a power series below the mean, finite sums above).

The normal cdf is Cody's rational erf/erfc approximation evaluated in numpy,
and the normal quantile is AS241 from ``statistics.NormalDist``.

Vector laws are Gaussians supported on the zero-sum hyperplane (rank q-1), or
mixtures of permuted copies at critical points, or the rank-(q-2) covariance
of the V-component at special points.

Every law is immutable after construction: normalization constants and grids
are cached at build time, and evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ClassificationError, DomainError
from .model import (
    ModelSpec, curvature_variance, f_deriv, k_deriv, sigma_matrix, sigma_ratio, u_vector, x_of_s)
from .phase import PointClass, PointTag, classify_point
from .tables import write_table

GRID_POINTS = 4097
TAIL_LOG_EPS = math.log(1e-14)
SEXTIC_COEF = -32.0 / 15.0  # x^6 coefficient of the type-II limit density
QUANTILE_NEWTON_CALLS = 12  # tail evaluations of one chi-square Newton quantile


# ---------------------------------------------------------------------------
# scalar laws


class ScalarLaw:
    """Interface: pdf/cdf/mean/var and quantile."""

    kind = "abstract"

    def pdf(self, x):
        raise NotImplementedError(f"{self.kind} has no density")

    def cdf(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def var(self) -> float:
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        raise NotImplementedError


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on n (odd) nodes; times h/3."""
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights


def _bisect_quantile(cdf, u: float, lo: float, hi: float) -> float:
    """Bisect for cdf(t) >= u on [lo, hi] until the midpoint rounds to an end."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if cdf(mid) >= u:
            hi = mid
        else:
            lo = mid


class GridLaw(ScalarLaw):
    """Density proportional to exp(log_density) on [lo, hi], Simpson-normalized.

    The tilted quartic and sextic laws put [lo, hi] on the mode-centred
    window of ``_tilt_window``, so the integrand tail is below 1e-14 of the
    mode; ``normalization_error`` records the relative Richardson gap between
    the full grid and its half-resolution subset (n_points = 4k + 1 keeps
    both node counts odd), inf when a mode narrower than the coarse spacing
    leaves the subset summing to 0.  The cdf applies (5 f0 + 8 f1 - f2) h/12
    forward on even intervals and backward on odd ones, so even nodes carry
    the composite-Simpson partial sums.
    """

    def __init__(self, kind: str, log_density, lo: float, hi: float,
                 n_points: int = GRID_POINTS):
        if not lo < hi or n_points < 5 or n_points % 4 != 1:
            raise DomainError("need lo < hi and n_points = 4k + 1 >= 5")
        self.kind = kind
        x = np.linspace(lo, hi, n_points)
        ld = np.asarray(log_density(x), dtype=float)
        top = ld.max()
        raw = np.exp(ld - top)
        h3 = (x[1] - x[0]) / 3.0
        weights = h3 * _simpson_weights(n_points)
        z_fine = np.einsum("i,i->", weights, raw)
        z_coarse = 2.0 * h3 * np.einsum("i,i->", _simpson_weights(len(raw[::2])), raw[::2])
        self.normalization_error = abs(z_fine / z_coarse - 1.0) if z_coarse > 0 else math.inf
        self.x = x
        f = self.pdf_values = raw / z_fine
        a, b, c = f[:-2:2], f[1::2], f[2::2]
        pieces = np.stack([5.0 * a + 8.0 * b - c, 8.0 * b + 5.0 * c - a], axis=1)
        cdf = np.concatenate(([0.0], np.cumsum(pieces)))
        self.cdf_values = np.clip(cdf / cdf[-1], 0.0, 1.0)
        self._mean = float(np.einsum("i,i,i->", weights, f, x))
        self._second = float(np.einsum("i,i,i,i->", weights, f, x, x))

    def pdf(self, x):
        return np.interp(x, self.x, self.pdf_values, left=0.0, right=0.0)

    def cdf(self, x):
        return np.interp(x, self.x, self.cdf_values, left=0.0, right=1.0)

    def mean(self) -> float:
        return self._mean

    def var(self) -> float:
        return self._second - self._mean ** 2

    def second_moment(self) -> float:
        return self._second

    def quantile(self, u):
        return np.interp(u, self.cdf_values, self.x)


# Cody (1969) rational approximations, as in the cephes ``ndtr``:
# erf(x) = x T(x^2)/U(x^2) for |x| < 1, erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= x < 8 and exp(-x^2) R(x)/S(x) beyond; highest degree first.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_MID = (  # (P, Q) for 1 <= z < 8
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2))
_ERFC_FAR = (  # (R, S) for z >= 8
    (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
    (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0))


def _polyval(x, coefs: tuple):
    """Horner's rule, highest degree first, for a float or an array (in place)."""
    out = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _ndtr_center(a):
    """0.5 + 0.5 erf(a) for |a| < 1."""
    a2 = a * a
    return 0.5 + 0.5 * (a * _polyval(a2, _ERF_T) / _polyval(a2, _ERF_U))


def _half_erfc(z, rational: tuple):
    """0.5 erfc(z) for z >= 1, with the (numerator, denominator) pair for z."""
    return 0.5 * np.exp(-z * z) * (_polyval(z, rational[0]) / _polyval(z, rational[1]))


def _ndtr(x):
    """Standard normal cdf, elementwise, at x = a sqrt(2): 0.5 + 0.5 erf(a)
    for |a| < 1, else 0.5 erfc(|a|) reflected.  An array evaluates each branch
    on its own entries only; a scalar takes the same operations in order, so
    it gets the same bits.  exp(-a^2) underflows long before |a| = 40, so
    the tail argument is clamped there, which keeps inf out of the rationals."""
    a = np.asarray(x, dtype=float) * math.sqrt(0.5)
    if a.ndim == 0:
        a = float(a)
        if abs(a) < 1.0:
            return np.float64(_ndtr_center(a))
        z = min(abs(a), 40.0)
        half = _half_erfc(z, _ERFC_MID if z < 8.0 else _ERFC_FAR)
        return 1.0 - half if a > 0 else half
    z = np.abs(a)
    out = np.empty_like(a)
    near = z < 1.0
    out[near] = _ndtr_center(a[near])
    far = ~near
    zf = np.minimum(z[far], 40.0)
    mid = zf < 8.0
    half = np.empty_like(zf)
    half[mid] = _half_erfc(zf[mid], _ERFC_MID)
    half[~mid] = _half_erfc(zf[~mid], _ERFC_FAR)
    out[far] = np.where(a[far] > 0, 1.0 - half, half)
    return out


_STD_NORMAL = NormalDist()


def _ndtri(u):
    """Standard normal quantile by AS241 (``statistics.NormalDist``), elementwise;
    u = 0 and u = 1 give -inf and +inf, u outside [0, 1] nan."""
    u = np.asarray(u, dtype=float)
    out = np.where(u == 0.0, -np.inf, np.where(u == 1.0, np.inf, np.nan))
    inner = (u > 0.0) & (u < 1.0)
    out[inner] = [_STD_NORMAL.inv_cdf(v) for v in u[inner].tolist()]
    return out[()]


class NormalLaw(ScalarLaw):
    kind = "Normal"

    def __init__(self, mu: float, variance: float):
        if not variance > 0:  # nan fails too
            raise DomainError(f"normal variance must be positive, got {variance}")
        self.mu = float(mu)
        self.variance = float(variance)
        self.sigma = math.sqrt(variance)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2 * math.pi))

    def cdf(self, x):
        return _ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def mean(self) -> float:
        return self.mu

    def var(self) -> float:
        return self.variance

    def quantile(self, u):
        return self.mu + self.sigma * _ndtri(u)


class HalfNormalLaw(ScalarLaw):
    """|Z| (sign=+1) or -|Z| (sign=-1) for Z ~ N(0, variance)."""

    def __init__(self, sign: int, variance: float):
        if sign not in (-1, 1):
            raise DomainError("sign must be +1 or -1")
        if not variance > 0:
            raise DomainError(f"half-normal variance must be positive, got {variance}")
        self.sign = sign
        self.variance = float(variance)
        self.sigma = math.sqrt(variance)
        self.kind = "HalfNormalPlus" if sign > 0 else "HalfNormalMinus"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x / self.sigma
        base = 2.0 * np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2 * math.pi))
        mask = x >= 0 if self.sign > 0 else x <= 0
        return np.where(mask, base, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x / self.sigma
        if self.sign > 0:
            return np.where(x < 0, 0.0, 2.0 * _ndtr(z) - 1.0)
        return np.where(x >= 0, 1.0, 2.0 * _ndtr(z))

    def mean(self) -> float:
        return self.sign * self.sigma * math.sqrt(2.0 / math.pi)

    def var(self) -> float:
        return self.variance * (1.0 - 2.0 / math.pi)

    def quantile(self, u):
        if self.sign > 0:
            return self.sigma * _ndtri(0.5 * (1.0 + u))
        return self.sigma * _ndtri(0.5 * u)


@dataclass(frozen=True)
class Atom:
    location: float  # finite
    mass: float


class MixtureLaw(ScalarLaw):
    """Weighted continuous components plus finite atoms and +/-inf masses.

    ``components`` is a list of (weight, ScalarLaw).  Masses at infinity are
    explicit fields: the cdf starts at ``neg_inf_mass`` and tops out at
    ``1 - pos_inf_mass``.
    """

    kind = "AtomMixture"

    def __init__(self, components, atoms=(), neg_inf_mass: float = 0.0,
                 pos_inf_mass: float = 0.0):
        self.components = [(float(w), law) for w, law in components]
        self.atoms = [Atom(float(a.location), float(a.mass)) for a in atoms]
        self.neg_inf_mass = float(neg_inf_mass)
        self.pos_inf_mass = float(pos_inf_mass)
        total = self.total_mass
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mixture masses sum to {total!r}, not 1")

    @property
    def total_mass(self) -> float:
        return (sum(w for w, _ in self.components) + sum(a.mass for a in self.atoms)
                + self.neg_inf_mass + self.pos_inf_mass)

    def pdf(self, x):
        """Density of the continuous part only; atoms are not included."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for w, law in self.components:
            out = out + w * law.pdf(x)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.neg_inf_mass, dtype=float)
        for w, law in self.components:
            out = out + w * law.cdf(x)
        for a in self.atoms:
            out = out + a.mass * (x >= a.location)
        return out

    def mean(self) -> float:
        if self.neg_inf_mass > 0 or self.pos_inf_mass > 0:
            raise DomainError("mean undefined: mass at infinity")
        return (sum(w * law.mean() for w, law in self.components)
                + sum(a.mass * a.location for a in self.atoms))

    def quantile(self, u: float) -> float:
        if u <= self.neg_inf_mass:
            return -math.inf
        if u > 1.0 - self.pos_inf_mass:
            return math.inf
        for a in self.atoms:
            top = float(self.cdf(a.location))
            if top - a.mass < u <= top:
                return a.location
        lo, hi = -1.0, 1.0
        while self.cdf(lo) > u - 1e-15 and lo > -1e12:
            lo *= 4
        while self.cdf(hi) < u and hi < 1e12:
            hi *= 4
        return _bisect_quantile(self.cdf, u, lo, hi)


class ComposedLaw(ScalarLaw):
    """Estimator cdf of the form t -> F0(-mu(t)).

    ``outer`` is the zero-tilt cdf of the family; ``tilted_mean`` maps an array
    of tilts t to the means of the t-tilted members, strictly decreasing in t.
    One vectorised call at the powers of two up to 2^30 finds a range wide
    enough that the outer cdf saturates beyond it, and one more tabulates mu
    on it.
    """

    kind = "Composed"

    def __init__(self, name: str, outer: GridLaw, tilted_mean):
        self.name = name
        self.outer = outer
        radius = float(outer.x[-1])
        # the first power of two whose mean leaves the outer grid, capped at 2^30
        candidates = 2.0 ** np.arange(31)
        reached = np.abs(tilted_mean(candidates)) >= radius
        reached[-1] = True
        t_max = float(candidates[np.argmax(reached)])
        # sinh spacing: dense where the cdf moves fastest (small t), still
        # reaching the saturation range
        u = np.linspace(-1.0, 1.0, 1025)
        stretch = 6.0
        self._t_grid = t_max * np.sinh(stretch * u) / math.sinh(stretch)
        self._mu_grid = tilted_mean(self._t_grid)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        mu = np.interp(t, self._t_grid, self._mu_grid)
        vals = self.outer.cdf(-mu)
        return float(vals) if t.ndim == 0 else vals

    def _mean_grid(self) -> np.ndarray:
        """The t-grid nodes and the t at which the interpolated mean crosses a
        node of the outer grid, sorted, each once (np.union1d would import numpy.ma)."""
        crossings = np.interp(self.outer.x, -self._mu_grid, self._t_grid)
        t = np.sort(np.concatenate([self._t_grid, crossings]))
        return t[np.append(True, t[1:] != t[:-1])]

    def mean(self) -> float:
        """t_max minus the integral of the cdf over the t-grid, exactly.

        The cdf is 0 and 1 at the grid ends.  Between the nodes of
        ``_mean_grid`` it is linear, so the trapezoid rule there is exact.
        """
        t = self._mean_grid()
        f = self.cdf(t)
        return float(t[-1] - np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))

    def quantile(self, u: float) -> float:
        return _bisect_quantile(self.cdf, u, float(self._t_grid[0]), float(self._t_grid[-1]))


class AffineOfLaw(ScalarLaw):
    """Law of a * X for X following ``base`` (a nonzero)."""

    def __init__(self, kind: str, base: ScalarLaw, a: float):
        if a == 0:
            raise DomainError("affine scale must be nonzero")
        self.kind = kind
        self.base = base
        self.a = float(a)

    def pdf(self, y):
        return self.base.pdf(np.asarray(y, dtype=float) / self.a) / abs(self.a)

    def cdf(self, y):
        inner = self.base.cdf(np.asarray(y, dtype=float) / self.a)
        return inner if self.a > 0 else 1.0 - inner

    def mean(self):
        return self.a * self.base.mean()

    def var(self):
        return self.a * self.a * self.base.var()

    def quantile(self, u):
        if self.a > 0:
            return self.a * self.base.quantile(u)
        return self.a * self.base.quantile(1.0 - u)


class SquaredGridLaw(ScalarLaw):
    """Law of c * T^2 for T following a (symmetric or not) grid law."""

    def __init__(self, kind: str, base: GridLaw, c: float):
        if c <= 0:
            raise DomainError("scale c must be positive")
        self.kind = kind
        self.base = base
        self.c = float(c)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        r = np.sqrt(np.maximum(t, 0.0) / self.c)
        return np.where(t <= 0, 0.0, self.base.cdf(r) - self.base.cdf(-r))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        r = np.sqrt(np.maximum(t, 1e-300) / self.c)
        val = (self.base.pdf(r) + self.base.pdf(-r)) / (2.0 * np.sqrt(np.maximum(t, 1e-300) * self.c))
        return np.where(t <= 0, 0.0, val)

    def mean(self) -> float:
        return self.c * self.base.second_moment()

    def quantile(self, u):
        return _bisect_quantile(self.cdf, u, 0.0, self.c * self.base.x[-1] ** 2)


def _chi2_tails(dof: int, x):
    """(P, Q), both tails of the chi-square law with k = ``dof`` degrees of freedom
    at x: regularized incomplete gammas at a = k/2, y = x/2.  Below y = a + 1, P
    is the series e^{-y} sum_n y^{a+n}/Gamma(a+n+1) (DLMF 8.7.1); above, Q is
    e^{-y} sum_c y^c/Gamma(c+1) over c = a-1, a-2, ... >= 0, plus erfc(sqrt y)
    = 2 Phi(-sqrt x) for odd k (DLMF 8.4), so "1 - the other tail" never cancels."""
    a = 0.5 * dof
    y = 0.5 * np.clip(np.asarray(x, dtype=float), 0.0, np.finfo(float).max)
    lower, upper = np.empty_like(y), np.empty_like(y)
    low = y < a + 1.0
    yl, yu = y[low], y[~low]
    with np.errstate(divide="ignore"):
        term = np.exp(a * np.log(yl) - yl - math.lgamma(a + 1.0))
    series, n = term.copy(), a
    while (term > 2.0 ** -53 * series).any():
        n += 1.0
        term *= yl / n
        series += term
    tail = 2.0 * _ndtr(-np.sqrt(2.0 * yu)) if dof % 2 else np.zeros_like(yu)
    for c in np.arange(a % 1.0, a - 0.5):
        tail += np.exp(c * np.log(yu) - yu - math.lgamma(c + 1.0))
    lower[low], upper[low] = series, 1.0 - series
    lower[~low], upper[~low] = 1.0 - tail, tail
    return lower[()], upper[()]


class ChiSquareLaw(ScalarLaw):
    """Chi-square law with ``dof`` degrees of freedom, through the regularized
    incomplete gamma function of ``_chi2_tails``."""

    kind = "ChiSquare"

    def __init__(self, dof: int):
        self.dof = int(dof)

    def cdf(self, x):
        return _chi2_tails(self.dof, x)[0]

    def mean(self) -> float:
        return float(self.dof)

    def var(self) -> float:
        return 2.0 * self.dof

    def quantile(self, u):
        """Safeguarded Newton on the smaller tail from the Wilson-Hilferty median,
        in the bracket [0, k + 2 sqrt(40 k) + 80] that holds all but e^-40 of
        the mass (Laurent & Massart 2000, Lemma 1).

        Below the median it solves log P = log u in log x (P ~ x^(k/2) near 0),
        above it log Q = log(1 - u) in x (Q ~ e^(-x/2) far out), both with the
        closed-form density.  Both are concave or convex along the way, so
        Newton overshoots at most once and then closes in from one side; a
        step leaving the bracket bisects it, and a solve not done in
        QUANTILE_NEWTON_CALLS tail evaluations is finished by bisection."""
        if not 0.0 < u < 1.0:
            return 0.0 if u <= 0.0 else math.inf
        k, a = self.dof, 0.5 * self.dof
        lower = u <= 0.5
        target = math.log(u if lower else 1.0 - u)
        log_norm = a * math.log(2.0) + math.lgamma(a)
        lo, hi = 0.0, k + 2.0 * math.sqrt(40.0 * k) + 80.0
        x = k * (1.0 - 2.0 / (9.0 * k)) ** 3
        for _ in range(QUANTILE_NEWTON_CALLS):
            p, q = _chi2_tails(k, x)
            if (p >= u) if lower else (q <= 1.0 - u):
                hi = x
            else:
                lo = x
            tail = p if lower else q
            dens = math.exp((a - 1.0) * math.log(x) - 0.5 * x - log_norm)
            cand = 0.5 * (lo + hi)
            if tail > 0.0 and dens > 0.0:
                step = (math.log(tail) - target) * tail / dens
                new = x * math.exp(-step / x) if lower else x + step
                if abs(new - x) <= 1e-13 * x:
                    return new
                if lo < new < hi:
                    cand = new
            x = cand
        if lower:
            return _bisect_quantile(self.cdf, u, lo, hi)
        return _bisect_quantile(lambda t: -_chi2_tails(k, t)[1], u - 1.0, lo, hi)


# ---------------------------------------------------------------------------
# vector laws


class GaussianSimplex:
    """Gaussian on the zero-sum hyperplane: kernel contains the ones vector."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        w = np.linalg.eigvalsh(self.cov)
        if w.min() < -1e-10:
            raise DomainError(f"covariance has eigenvalue {w.min()}, not PSD")
        self._eigvals = np.clip(w, 0.0, None)

    def rank(self, tol: float = 1e-10) -> int:
        return int(np.sum(self._eigvals > tol * max(self._eigvals.max(), 1.0)))

    def project(self, direction) -> NormalLaw:
        v = np.asarray(direction, dtype=float)
        return NormalLaw(float(v @ self.mean), float(v @ self.cov @ v))


class MixtureGaussianSimplex:
    """Mixture of permuted simplex Gaussians (the critical-point limit)."""

    def __init__(self, weights, components):
        self.weights = np.asarray(weights, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise DomainError("mixture weights must sum to 1")
        self.components = list(components)

    def project(self, direction) -> MixtureLaw:
        comps = [(w, comp.project(direction)) for w, comp in
                 zip(self.weights, self.components)]
        return MixtureLaw(comps)


# ---------------------------------------------------------------------------
# constructors


_TILT_NODES = 257  # Simpson nodes on each tilt's window around its mode
_TILT_BLOCK = 64  # tilts per block: each (64, _TILT_NODES) temporary is ~130 kB


def _mode_gap_coefs(mode: np.ndarray, degree: int) -> list:
    """C(d, k) mode^(d-k) for k = d, ..., 2, highest first: with s^2 in front,
    the Horner coefficients of (mode + s)^d - mode^d - d mode^(d-1) s, the
    binomial tail that the exponent drops from its mode (no cancellation)."""
    coefs, power = [], np.ones_like(mode)
    for k in range(degree, 1, -1):
        coefs.append(math.comb(degree, k) * power)
        power = power * mode
    return coefs


def _gap_log_density(gap: list, s):
    """The exponent coef_high x^d + c x less its value at its mode, at
    x = mode + s: s^2 times the Horner sum of ``gap``, the ``_mode_gap_coefs``
    of the mode times coef_high.  It does not cancel however far the mode
    lies from 0."""
    ld = _polyval(s, gap)
    ld *= s
    ld *= s
    return ld


def _tilt_window(coef_high: float, degree: int, c: np.ndarray) -> tuple:
    """(mode, left, right) of exp(coef_high x^d + c x) for every c >= 0 in
    the 1-D ``c``: the mode x* = (c / (d |coef_high|))^(1/(d-1)) and the
    half-widths of the window [x* - left, x* + right], whose ends are where
    the exponent falls TAIL_LOG_EPS below its mode value.

    The right half-width is the delta > 0 where coef_high ((x* + delta)^d -
    x*^d - d x*^(d-1) delta) reaches TAIL_LOG_EPS, the left one the same at
    -x*.  The gap is concave in delta, so Newton from a point beyond the root
    stays beyond it.  The start delta0 = (2^(d-2) |eps| / |coef_high|)^(1/d)
    lies beyond the root for every mode: (x + s)^n - x^n >= s^n / 2^(n-1) for
    odd n, so the gap is at least delta^d / 2^(d-2).  Every iterate is a
    valid half-width; the loop stops once no step moves delta by more than
    1e-3 of itself.  At c = 0 both half-widths are the closed form
    (TAIL_LOG_EPS / coef_high)^(1/d), so a zero-tilt window is symmetric.
    """
    scale = abs(coef_high)
    mode = (c / (degree * scale)) ** (1.0 / (degree - 1))
    both = np.concatenate([mode, -mode])
    coefs = _mode_gap_coefs(both, degree)
    slopes = [(degree - j) * k for j, k in enumerate(coefs)]
    delta = np.full(len(both), (2.0 ** (degree - 2) * -TAIL_LOG_EPS / scale) ** (1.0 / degree))
    for _ in range(100):
        excess = scale * delta * delta * _polyval(delta, coefs) + TAIL_LOG_EPS
        step = excess / (scale * delta * _polyval(delta, slopes))
        delta -= step
        if np.max(step / delta) <= 1e-3:
            break
    delta[both == 0.0] = (TAIL_LOG_EPS / coef_high) ** (1.0 / degree)
    return mode, delta[len(c):], delta[:len(c)]


def _tilted_means(coef_high: float, degree: int, coef1: np.ndarray) -> np.ndarray:
    """Means of exp(coef_high x^degree + c x) for every c in the 1-D ``coef1``.

    The mean is odd in c, so each distinct |c| is integrated once, on its
    ``_tilt_window`` [x* - delta-, x* + delta+], the window its grid law is
    built on.  _TILT_NODES Simpson nodes there, whose step cancels in the
    ratio, give the mean L + W (e.(w u)) / (e.w) with L = x* - delta-,
    W = delta- + delta+ and one shared u on [0, 1], the exponent taken as
    ``_gap_log_density``.  This is not the rule of ``GridLaw(...).mean()``
    (GRID_POINTS nodes on the same window), but agrees with it within 1e-12.
    """
    coef1 = np.asarray(coef1, dtype=float)
    size = np.abs(coef1)
    order = np.argsort(size)
    sizes = size[order]
    first = np.append(True, sizes[1:] != sizes[:-1])
    mode, left, right = _tilt_window(coef_high, degree, sizes[first])
    width = right + left
    u = np.linspace(0.0, 1.0, _TILT_NODES)
    weights = _simpson_weights(_TILT_NODES)
    weighted_u = weights * u
    gap = [coef_high * k for k in _mode_gap_coefs(mode, degree)]
    means = np.empty(len(mode))
    for lo in range(0, len(mode), _TILT_BLOCK):
        block = slice(lo, lo + _TILT_BLOCK)
        s = np.multiply.outer(width[block], u)
        s -= left[block, None]
        ld = _gap_log_density([k[block, None] for k in gap], s)
        np.exp(ld, out=ld)
        means[block] = ld @ weighted_u / (ld @ weights)
    means = mode - left + width * means
    out = np.empty(len(coef1))
    out[order] = means[np.cumsum(first) - 1]
    return np.sign(coef1) * out


def _tilt_law(kind: str, coef_high: float, degree: int, coef1: float) -> GridLaw:
    """GridLaw of exp(coef_high x^degree + coef1 x) on its ``_tilt_window``
    (mirrored for coef1 < 0), with the exponent as ``_gap_log_density``."""
    window = _tilt_window(coef_high, degree, np.array([abs(coef1)]))
    mode, left, right = (float(v[0]) for v in window)
    if coef1 < 0:
        mode, left, right = -mode, right, left
    gap = [coef_high * k for k in _mode_gap_coefs(mode, degree)]
    return GridLaw(kind, lambda x: _gap_log_density(gap, x - mode), mode - left, mode + right)


def _maximizer_info(spec: ModelSpec, point_class: PointClass):
    s = point_class.witness.s_values[0]
    m = x_of_s(spec.q, s)
    return s, m


def _quartic_coefs(spec: ModelSpec, point_class: PointClass):
    """(coef4, <m^{p-1}, u>) of the type-I quartic family at the maximizer m."""
    if point_class.tag is not PointTag.SPECIAL_TYPE_I:
        raise ClassificationError(f"quartic law requires a type-I special point, got {point_class.tag}")
    s, m = _maximizer_info(spec, point_class)
    f4 = f_deriv(spec, s, 4)
    if f4 >= 0:
        raise ClassificationError(f"f'''' must be negative, got {f4}")
    q = spec.q
    return q ** 4 * f4 / 24.0, float(m ** (spec.p - 1) @ u_vector(q))


def quartic_law(spec: ModelSpec, beta_bar: float = 0.0, h_bar: float = 0.0,
                point_class: PointClass | None = None) -> GridLaw:
    """Tilted quartic limit of T_N at a type-I special point.

    Density proportional to exp(x^4/24 q^4 f''''(s) + c1 x) with
    c1 = beta_bar p <m^{p-1}, u> + h_bar (1-q).
    """
    if point_class is None:
        point_class = classify_point(spec)
    coef4, slope = _quartic_coefs(spec, point_class)
    return _tilt_law("QuarticTilt", coef4, 4, beta_bar * spec.p * slope + h_bar * (1 - spec.q))


def sextic_law(h_bar: float = 0.0) -> GridLaw:
    """Limit of T_N at the type-II special point: exp(-32/15 x^6 - h_bar x)."""
    return _tilt_law("SexticTilt", SEXTIC_COEF, 6, -h_bar)


def gaussian_limit_regular(spec: ModelSpec, beta_bar: float = 0.0,
                           h_bar: float = 0.0,
                           point_class: PointClass | None = None) -> GaussianSimplex:
    """sqrt(N) Gaussian limit at a regular point, with the perturbation drift
    Sigma (beta_bar p m^{p-1} + h_bar e1)."""
    if point_class is None:
        point_class = classify_point(spec)
    if point_class.tag is not PointTag.REGULAR:
        raise ClassificationError(f"gaussian limit requires a regular point, got {point_class.tag}")
    s, m = _maximizer_info(spec, point_class)
    cov = sigma_matrix(spec, s)
    drift = beta_bar * spec.p * m ** (spec.p - 1)
    drift[0] += h_bar
    return GaussianSimplex(mean=cov @ drift, cov=cov)


def _s_of_maximizer(q: int, m: np.ndarray) -> float:
    # permutations share the minimum coordinate (1-s)/q
    return 1.0 - q * float(np.min(m))


def _tau(spec: ModelSpec, m: np.ndarray) -> float:
    """tau weight of a maximizer, with the positive radicand -f''(s)^{-1}."""
    s = _s_of_maximizer(spec.q, m)
    f2 = f_deriv(spec, s, 2)
    kb = k_deriv(spec, (1.0 - s) / spec.q, 2)
    rad = (-1.0 / f2) * (-kb) ** (2 - spec.q) / float(np.prod(m))
    if rad <= 0:
        raise ClassificationError(f"tau radicand is not positive at s={s}: {rad}")
    return math.sqrt(rad)


def mixture_weights(spec: ModelSpec, point_class: PointClass | None = None) -> np.ndarray:
    """Basin weights p_k = tau(m_k) / sum tau(m_i) at a critical point."""
    if point_class is None:
        point_class = classify_point(spec)
    if point_class.tag not in (PointTag.STRONGLY_CRITICAL, PointTag.WEAKLY_CRITICAL):
        raise ClassificationError(f"mixture weights require a critical point, got {point_class.tag}")
    taus = np.array([_tau(spec, m) for m in point_class.witness.vectors])
    return taus / taus.sum()


def critical_mixture_law(spec: ModelSpec, beta_bar: float = 0.0, h_bar: float = 0.0,
                         point_class: PointClass | None = None) -> MixtureGaussianSimplex:
    """Magnetization limit at a critical point: tau-weighted permuted Gaussians."""
    if point_class is None:
        point_class = classify_point(spec)
    weights = mixture_weights(spec, point_class)
    comps = []
    for m in point_class.witness.vectors:
        s = _s_of_maximizer(spec.q, m)
        cov = sigma_matrix(spec, s)
        # m is x_s with its distinct first coordinate moved to position i
        i = int(np.argmax(np.abs(m - x_of_s(spec.q, s)[0]) < 1e-12))
        perm = np.insert(np.arange(1, spec.q), i, 0)
        pcov = cov[np.ix_(perm, perm)]
        drift = beta_bar * spec.p * m ** (spec.p - 1)
        drift[0] += h_bar
        comps.append(GaussianSimplex(mean=pcov @ drift, cov=pcov))
    return MixtureGaussianSimplex(weights, comps)


def limit_law(spec: ModelSpec, point_class: PointClass, direction=None):
    """(law, name) of the limit of the statistic ``sampling.rescale`` reports:
    T_N at the special points, else the simplex limit projected on
    ``direction`` ((None, None) without one)."""
    tag = point_class.tag
    if tag is PointTag.SPECIAL_TYPE_I:
        return quartic_law(spec, point_class=point_class), "quartic T_N limit"
    if tag is PointTag.SPECIAL_TYPE_II:
        return sextic_law(0.0), "sextic T_N limit"
    if direction is None:
        return None, None
    if tag is PointTag.REGULAR:
        simplex_law, name = gaussian_limit_regular, "projected Gaussian limit"
    else:
        simplex_law, name = critical_mixture_law, "projected Gaussian-mixture limit"
    return simplex_law(spec, point_class=point_class).project(direction), name


def v_limit_covariance(spec: ModelSpec,
                       point_class: PointClass | None = None) -> GaussianSimplex:
    """Rank-(q-2) Gaussian limit of V_N at a type-I special point."""
    if point_class is None:
        point_class = classify_point(spec)
    if point_class.tag is not PointTag.SPECIAL_TYPE_I:
        raise ClassificationError(f"V limit requires a type-I special point, got {point_class.tag}")
    s, _ = _maximizer_info(spec, point_class)
    q = spec.q
    kb = k_deriv(spec, (1.0 - s) / q, 2)
    cov = np.zeros((q, q))
    if q > 2:
        block = np.full((q - 1, q - 1), -1.0)
        np.fill_diagonal(block, q - 2.0)
        cov[1:, 1:] = block / (-(q - 1.0) * kb)
    return GaussianSimplex(mean=np.zeros(q), cov=cov)


def _is_axis_transition(spec: ModelSpec, point_class: PointClass) -> bool:
    """True at (beta_c, 0): strongly critical with s = 0 among the tied maximizers."""
    return spec.h == 0.0 and min(point_class.witness.s_values) < 1e-9


def _weight_of_uniform(spec: ModelSpec, point_class: PointClass) -> float:
    weights = mixture_weights(spec, point_class)
    for w, m in zip(weights, point_class.witness.vectors):
        if np.ptp(m) < 1e-12:
            return float(w)
    raise ClassificationError("no uniform maximizer in the witness set")


def _half_normal_mixture(neg, pos, atom: float) -> MixtureLaw:
    """Two half-normals plus an atom at 0, the critical limit of an ML
    estimate: ``neg`` and ``pos`` are the (weight, variance) of the halves
    below and above 0, ``atom`` the mass at 0."""
    return MixtureLaw(components=[(neg[0], HalfNormalLaw(-1, neg[1])),
                                  (pos[0], HalfNormalLaw(+1, pos[1]))],
                      atoms=[Atom(0.0, atom)])


def hhat_limit(spec: ModelSpec, point_class: PointClass | None = None) -> ScalarLaw:
    """Limiting law of the rescaled ML field estimate, per phase class.

    Regular: N(0, v), v = ``curvature_variance``.  Special: the composed
    laws G1/G2.  Critical: half-normal mixtures with an atom at zero.
    """
    if point_class is None:
        point_class = classify_point(spec)
    q = spec.q
    tag = point_class.tag

    if tag is PointTag.REGULAR:
        return NormalLaw(0.0, curvature_variance(spec, point_class.witness.s_values[0]))

    if tag is PointTag.SPECIAL_TYPE_I:
        outer = quartic_law(spec, 0.0, 0.0, point_class)
        coef4, _ = _quartic_coefs(spec, point_class)
        return ComposedLaw("G1", outer, lambda t: _tilted_means(coef4, 4, t * (1 - q)))

    if tag is PointTag.SPECIAL_TYPE_II:
        return ComposedLaw("G2", sextic_law(0.0), lambda t: _tilted_means(SEXTIC_COEF, 6, -t))

    def var_corrected(s):
        # 1/Sigma_rr, r >= 2
        rho = sigma_ratio(spec, s)
        return curvature_variance(spec, s) * (q - 1.0) / (1.0 + (q - 2.0) * rho)

    if tag is PointTag.WEAKLY_CRITICAL:
        s = point_class.witness.s_values[0]
        p_q = 1.0 / q  # permutation symmetry at h = 0
        return _half_normal_mixture(((1.0 - p_q) / 2.0, var_corrected(s)),
                                    (p_q / 2.0, curvature_variance(spec, s)), 0.5)

    # strongly critical
    if _is_axis_transition(spec, point_class):
        s = max(point_class.witness.s_values)
        p_q = _weight_of_uniform(spec, point_class)
        return _half_normal_mixture(((1.0 - p_q) * (q - 1.0) / (2.0 * q), var_corrected(s)),
                                    ((1.0 - p_q) / (2.0 * q), curvature_variance(spec, s)),
                                    (1.0 + p_q) / 2.0)

    s1, s2 = point_class.witness.s_values
    weights = mixture_weights(spec, point_class)
    # maximizers in ascending order of first coordinates: x_{s1} before x_{s2}
    p1 = float(weights[0])
    return _half_normal_mixture((p1 / 2.0, curvature_variance(spec, s1)),
                                ((1.0 - p1) / 2.0, curvature_variance(spec, s2)), 0.5)


def _beta_variance(spec: ModelSpec, s: float) -> float:
    """v / (p gap)^2, gap = x_1^{p-1} - x_2^{p-1} at x = x_s: the limit
    variance of sqrt(N) (betahat - beta) at the maximizer x_s."""
    p = spec.p
    m = x_of_s(spec.q, s)
    gap = float(m[0] ** (p - 1) - m[1] ** (p - 1))
    return curvature_variance(spec, s) / (p * gap) ** 2


def gamma1_weight(spec: ModelSpec) -> float:
    """gamma_1 = P(W'W <= (1-q)/k''(1/q)) for W ~ N(0, Sigma(0)).

    Sigma(0) = a (I - J/q) with a = -1/k''(1/q), so W'W is a chi^2_{q-1} and
    the threshold its mean (q-1) a: gamma_1 = P(chi^2_{q-1} <= q-1) for every
    p and beta.
    """
    return float(ChiSquareLaw(spec.q - 1).cdf(spec.q - 1.0))


def _escape_law(name: str, weight: float) -> MixtureLaw:
    """Law of an inconsistent estimate: ``weight`` at -inf, the rest at +inf;
    the weight is also kept as the attribute ``name``."""
    law = MixtureLaw([], neg_inf_mass=weight, pos_inf_mass=1.0 - weight)
    setattr(law, name, weight)
    return law


def _central_mass(base: GridLaw) -> float:
    """Mass of ``base`` within one root second moment of 0."""
    b = math.sqrt(base.second_moment())
    return float(base.cdf(b) - base.cdf(-b))


def bhat_limit(spec: ModelSpec, point_class: PointClass | None = None) -> ScalarLaw:
    """Limiting law of the rescaled ML interaction estimate, per phase class.

    At points where the maximizer is uniform the estimate is inconsistent and
    the law degenerates to masses at +/- infinity (gamma_1, alpha, gamma_2
    weights); elsewhere it is Gaussian, a composed law L1, or a half-normal
    mixture over the L^p-ordered maximizers.
    """
    if point_class is None:
        point_class = classify_point(spec)
    q, p = spec.q, spec.p
    tag = point_class.tag

    if tag is PointTag.REGULAR and spec.h == 0.0:
        return _escape_law("gamma1", gamma1_weight(spec))

    if tag in (PointTag.REGULAR, PointTag.WEAKLY_CRITICAL):
        return NormalLaw(0.0, _beta_variance(spec, point_class.witness.s_values[0]))

    if tag is PointTag.SPECIAL_TYPE_I:
        outer = quartic_law(spec, 0.0, 0.0, point_class)
        if (p, q) in ((2, 2), (3, 2)):
            return _escape_law("alpha", _central_mass(outer))
        coef4, slope = _quartic_coefs(spec, point_class)
        return ComposedLaw("L1", outer, lambda t: _tilted_means(coef4, 4, t * p * slope))

    if tag is PointTag.SPECIAL_TYPE_II:
        return _escape_law("gamma2", _central_mass(sextic_law(0.0)))

    # strongly critical, maximizers in ascending order of L^p norms
    if _is_axis_transition(spec, point_class):
        s = max(point_class.witness.s_values)
        p1 = _weight_of_uniform(spec, point_class)
        gamma = gamma1_weight(spec)
        law = MixtureLaw(
            components=[((1.0 - p1) / 2.0, HalfNormalLaw(+1, _beta_variance(spec, s)))],
            atoms=[Atom(0.0, (1.0 + p1) / 2.0 - p1 * gamma)],
            neg_inf_mass=p1 * gamma)
        law.gamma1 = gamma
        return law

    s1, s2 = point_class.witness.s_values
    weights = mixture_weights(spec, point_class)
    p1 = float(weights[0])  # lower L^p norm = lower s
    return _half_normal_mixture((p1 / 2.0, _beta_variance(spec, s1)),
                                ((1.0 - p1) / 2.0, _beta_variance(spec, s2)), 0.5)


def norm_p_limit(spec: ModelSpec, point_class: PointClass | None = None,
                 beta_bar: float = 0.0) -> ScalarLaw:
    """Limit of the rescaled p-norm statistic under a beta perturbation.

    Regular off-uniform: Gaussian with mean beta_bar times its variance.
    Regular uniform: p(p-1)/(2 q^{p-2}) W'W with W ~ N(0, a (I - J/q)), that
    is c chi^2_{q-1} with c = p(p-1) a/(2 q^{p-2}) and a = -1/k''(1/q).
    Type I: a scaled quartic (or its square at (2,2)/(3,2)); type II: 3 F0^2.
    """
    if point_class is None:
        point_class = classify_point(spec)
    q, p = spec.q, spec.p
    tag = point_class.tag

    if tag in (PointTag.REGULAR, PointTag.WEAKLY_CRITICAL, PointTag.STRONGLY_CRITICAL):
        # at critical points this is the law conditioned on the top basin
        s = max(point_class.witness.s_values)
        if s > 1e-9:
            # (p gap)^2 / v, the inverse of the beta estimate's variance
            variance = 1.0 / _beta_variance(spec, s)
            return NormalLaw(beta_bar * variance, variance)
        a = -1.0 / k_deriv(spec, 1.0 / q, 2)
        c = p * (p - 1.0) * a / (2.0 * q ** (p - 2))
        return AffineOfLaw("GeneralizedChiSq", ChiSquareLaw(q - 1), c)

    if tag is PointTag.SPECIAL_TYPE_I:
        base = quartic_law(spec, beta_bar, 0.0, point_class)
        if (p, q) in ((2, 2), (3, 2)):
            c = p * (p - 1.0) / 2 ** (p - 2)
            return SquaredGridLaw("QuarticSquared", base, c)
        _, m = _maximizer_info(spec, point_class)
        scale = -p * (q - 1.0) * float(m[0] ** (p - 1) - m[1] ** (p - 1))
        return AffineOfLaw("QuarticTilt", base, scale)

    if tag is PointTag.SPECIAL_TYPE_II:
        return SquaredGridLaw("SexticSquared", sextic_law(0.0), 3.0)

    raise ClassificationError(f"unsupported class {tag}")


def ks_distance(samples, law: ScalarLaw) -> float:
    """sup |empirical cdf - law cdf| over the sample points."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise DomainError("need at least one sample")
    f = np.asarray(law.cdf(xs), dtype=float)
    upper = np.abs(f - np.arange(1, n + 1) / n)
    lower = np.abs(f - np.arange(n) / n)
    return float(np.max(np.maximum(upper, lower)))


def density_table(law: ScalarLaw):
    """(x, pdf, cdf) arrays for plotting overlays."""
    if isinstance(law, GridLaw):
        x = law.x
    elif isinstance(law, NormalLaw):
        x = np.linspace(law.mu - 6 * law.sigma, law.mu + 6 * law.sigma, 512)
    elif isinstance(law, (MixtureLaw, HalfNormalLaw, SquaredGridLaw)):
        lo, hi = law.quantile(1e-6), law.quantile(1.0 - 1e-6)
        pad = 0.05 * (hi - lo + 1e-12)
        x = np.linspace(lo - pad, hi + pad, 512)
    else:
        raise DomainError(f"no density table for kind {law.kind}")
    return x, law.pdf(x), law.cdf(x)


def density_table_csv(law: ScalarLaw, path) -> None:
    write_table(path, ["x", "pdf", "cdf"], zip(*density_table(law)))
