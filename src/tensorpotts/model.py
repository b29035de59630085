"""Core model definitions for the mean-field Potts model with p-body interactions.

The model on N sites with q colors has probabilities proportional to
``exp(beta * N * sum_r xbar_r^p + N * h * xbar_1)`` where ``xbar`` is the
empirical color-frequency (magnetization) vector.  Everything downstream is
driven by the negative free energy

    H(v) = beta * sum_r v_r^p + h * v_1 - sum_r v_r log v_r

on the probability simplex, and by its one-dimensional reduction along the ray

    x_s = ((1 + (q-1) s) / q, (1-s)/q, ..., (1-s)/q),      0 <= s < 1,

    f(s) = (q-1) k((1-s)/q) + k((1+(q-1)s)/q) + h (1+(q-1)s)/q,

with ``k(x) = beta x^p - x log x``.  This module provides the model spec,
closed-form derivatives of ``k`` and ``f`` up to order six, the quadratic form
of the Hessian on the zero-sum hyperplane, and the limiting covariance matrix
at points where the reduced curvature is negative.

All functions here are pure and operate on immutable values; they are safe to
call from concurrent workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, DomainError, ShapeError

# Upper guard on s: k'' and higher derivatives blow up at the simplex boundary.
BOUNDARY_DELTA = 1e-9

# Tolerance for ProbVector validation (entries sum to one).
PROB_SUM_TOL = 1e-12

MAX_DERIV_ORDER = 6


@dataclass(frozen=True)
class ModelSpec:
    """Parameters (p, q, beta, h) of the mean-field p-body Potts model.

    p is the interaction order (>= 2), q the number of colors (>= 2);
    beta >= 0 is the interaction strength and h >= 0 the external field on
    color 1.  beta = 0 is admitted for oracle tests only.
    """

    p: int
    q: int
    beta: float
    h: float

    def __post_init__(self):
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 2):
            raise DomainError(f"interaction order p must be an integer >= 2, got {self.p}")
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 2):
            raise DomainError(f"number of colors q must be an integer >= 2, got {self.q}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta}")
        if not (np.isfinite(self.h) and self.h >= 0):
            raise DomainError(f"h must be finite and >= 0, got {self.h}")

    def with_params(self, beta=None, h=None) -> "ModelSpec":
        return ModelSpec(self.p, self.q,
                         self.beta if beta is None else float(beta),
                         self.h if h is None else float(h))


def as_prob_vector(v, q: int | None = None) -> np.ndarray:
    """Validate and return v as a probability vector (1-D, >= 0, sums to 1)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or (q is not None and v.shape[0] != q):
        raise ShapeError(f"expected a length-{q or 'q'} vector, got shape {v.shape}")
    if np.any(v < 0):
        raise ShapeError("probability vector has negative entries")
    if abs(v.sum() - 1.0) > PROB_SUM_TOL:
        raise ShapeError(f"probability vector sums to {v.sum()!r}, not 1")
    return v


def u_vector(q: int) -> np.ndarray:
    """The direction (1-q, 1, ..., 1) spanning the degenerate subspace at special points."""
    u = np.ones(q)
    u[0] = 1.0 - q
    return u


def x_of_s(q: int, s: float) -> np.ndarray:
    """Map s in [0, 1) to the ray vector ((1+(q-1)s)/q, (1-s)/q, ..., (1-s)/q)."""
    if not (0.0 <= s < 1.0):
        raise DomainError(f"s must lie in [0, 1), got {s}")
    v = np.full(q, (1.0 - s) / q)
    v[0] = (1.0 + (q - 1.0) * s) / q
    return v


def s_of_x(v) -> float:
    """Invert x_of_s via s = 1 - q*v_2; coordinates 2..q must agree."""
    v = np.asarray(v, dtype=float)
    q = v.shape[0]
    if q < 2:
        raise ShapeError("need at least two coordinates")
    tail = v[1:]
    if np.max(tail) - np.min(tail) > 1e-9:
        raise ShapeError("coordinates 2..q are not equal; vector is not on the x_s ray")
    return 1.0 - q * float(v[1])


def negative_free_energy(spec: ModelSpec, v) -> float:
    """H(v) = beta * sum v_r^p + h v_1 - sum v_r log v_r, with 0 log 0 = 0."""
    v = as_prob_vector(v, spec.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)
    return float(spec.beta * np.sum(v ** spec.p) + spec.h * v[0] - ent.sum())


@functools.lru_cache(maxsize=1024)
def _k_coefs(p: int, order: int) -> tuple:
    """Constant factors of k^(n): the falling factorial (p)_n of the polynomial
    part and, for n >= 2, the entropy factor (-1)^n (n-2)! (None below)."""
    fall = 1.0
    for i in range(order):
        fall *= p - i
    return fall, (-1.0) ** order * math.factorial(order - 2) if order >= 2 else None


def _k_terms(spec: ModelSpec, x, order: int, log):
    """k^(n)(x) at x > 0, with ``log`` math.log for a float x (no numpy call)
    and np.log for an array."""
    p = spec.p
    fall, ent_coef = _k_coefs(p, order)
    poly = spec.beta * fall * x ** (p - order) if order <= p else 0.0
    if order == 0:
        ent = x * log(x)
    elif order == 1:
        ent = log(x) + 1.0
    else:
        ent = ent_coef * x ** (1 - order)
    return poly - ent


def k_deriv(spec: ModelSpec, x, order: int):
    """n-th derivative of k(x) = beta x^p - x log x at x > 0, for n <= 6.

    The entropy part contributes -x log x, -(log x + 1), -1/x, +1/x^2, ... ;
    the polynomial part vanishes for order > p.
    """
    if not (0 <= order <= MAX_DERIV_ORDER):
        raise DomainError(f"derivative order must be 0..{MAX_DERIV_ORDER}, got {order}")
    if isinstance(x, (float, int)):
        if x <= 0:
            raise DomainError("k derivatives require x > 0")
        return _k_terms(spec, float(x), order, math.log)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("k derivatives require x > 0")
    out = _k_terms(spec, x, order, np.log)
    return float(out) if np.ndim(out) == 0 else out


@functools.lru_cache(maxsize=1024)
def _ray_coefs(q: int, order: int) -> tuple:
    """Chain-rule factors of k^(n) at (1+(q-1)s)/q and (1-s)/q in f^(n)(s)."""
    # the two coefficients must cancel exactly at order 1 so that f'(0) = 0
    # at h = 0 in floating point; (q-1)*(-1/q)**n rounds differently
    return ((q - 1.0) / q) ** order, (-1.0) ** order * (q - 1.0) / q ** order


def f_deriv(spec: ModelSpec, s, order: int):
    """n-th derivative of the reduced free energy f(s) along the x_s ray.

    f^(n)(s) = ((q-1)/q)^n k^(n)((1+(q-1)s)/q) + (q-1)(-1/q)^n k^(n)((1-s)/q),
    plus h*(q-1)/q for n = 1 and the full affine h-term for n = 0.
    """
    if not (0 <= order <= MAX_DERIV_ORDER):
        raise DomainError(f"derivative order must be 0..{MAX_DERIV_ORDER}, got {order}")
    if isinstance(s, (float, int)):
        if s < 0 or s > 1.0 - BOUNDARY_DELTA:
            raise DomainError(f"s must lie in [0, 1 - {BOUNDARY_DELTA}]")
        return _f_terms(spec, float(s), order, math.log)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or np.any(s > 1.0 - BOUNDARY_DELTA):
        raise DomainError(f"s must lie in [0, 1 - {BOUNDARY_DELTA}]")
    val = _f_terms(spec, s, order, np.log)
    return float(val) if np.ndim(val) == 0 else val


def _f_terms(spec: ModelSpec, s, order: int, log):
    """f^(n)(s) for s in [0, 1 - BOUNDARY_DELTA], where both ray coordinates
    are positive; ``log`` as in ``_k_terms``."""
    q = spec.q
    coef_a, coef_b = _ray_coefs(q, order)
    a = (1.0 + (q - 1.0) * s) / q
    b = (1.0 - s) / q
    val = coef_a * _k_terms(spec, a, order, log) + coef_b * _k_terms(spec, b, order, log)
    if order == 0:
        return val + spec.h * a
    if order == 1:
        return val + spec.h * (q - 1.0) / q
    return val


def f_beta_deriv(spec: ModelSpec, s, order: int):
    """d/dbeta of f^(n)(s) (float or array s): the polynomial part of f^(n)
    over beta, (p)_n (((q-1)/q)^n a^(p-n) + (q-1)(-1/q)^n b^(p-n)) at the ray
    coordinates a, b; zero for n > p, and exactly 0 at s = 0 for n = 1."""
    p, q = spec.p, spec.q
    coef_a, coef_b = _ray_coefs(q, order)
    a = (1.0 + (q - 1.0) * s) / q
    b = (1.0 - s) / q
    return _k_coefs(p, order)[0] * (coef_a * a ** (p - order) + coef_b * b ** (p - order))


def quadratic_form(spec: ModelSpec, s: float, t) -> float:
    """Hessian quadratic form of H at x_s restricted to the zero-sum hyperplane.

    Q(t) = k''((1-s)/q) * sum_{r>=2} t_r^2 + k''((1+(q-1)s)/q) * (sum_{r>=2} t_r)^2.
    Requires sum(t) = 0 within 1e-10.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (spec.q,):
        raise ShapeError(f"t must have length q={spec.q}")
    if abs(t.sum()) > 1e-10:
        raise DomainError("t is not in the zero-sum hyperplane")
    q = spec.q
    kb = k_deriv(spec, (1.0 - s) / q, 2)
    ka = k_deriv(spec, (1.0 + (q - 1.0) * s) / q, 2)
    tail = t[1:]
    return float(kb * np.sum(tail ** 2) + ka * np.sum(tail) ** 2)


def sigma_ratio(spec: ModelSpec, s: float) -> float:
    """Curvature ratio rho = k''((1+(q-1)s)/q) / k''((1-s)/q)."""
    q = spec.q
    return k_deriv(spec, (1.0 + (q - 1.0) * s) / q, 2) / k_deriv(spec, (1.0 - s) / q, 2)


def curvature_variance(spec: ModelSpec, s: float) -> float:
    """v = -(q/(q-1))^2 f''(s) = 1/Sigma_11, the limit variance of
    sqrt(N) (hhat - h) at a maximizer x_s; every ML-estimator variance
    rescales it.  Positive exactly where f''(s) < 0, which callers check."""
    q = spec.q
    return -(q * q / (q - 1.0) ** 2) * f_deriv(spec, s, 2)


def sigma_matrix(spec: ModelSpec, s: float) -> np.ndarray:
    """Limiting covariance of sqrt(N) * (Xbar - x_s) at a point with f''(s) < 0.

    Prefactor 1/((q-1) v), v = ``curvature_variance``, times the patterned
    matrix with first row/column (q-1, -1, ..., -1) and lower block
    (1+(q-2)rho) on the diagonal, -rho off it.  Rows sum to zero (the law
    lives on the simplex); the matrix is PSD of rank q-1.
    """
    v = curvature_variance(spec, s)
    if not v > 0:
        raise ClassificationError(
            f"sigma_matrix requires f''(s) < 0 (regular/critical maximizer); variance {v}")
    q = spec.q
    rho = sigma_ratio(spec, s)
    m = np.full((q, q), -rho)
    m[0, :] = -1.0
    m[:, 0] = -1.0
    m[0, 0] = q - 1.0
    idx = np.arange(1, q)
    m[idx, idx] = 1.0 + (q - 2.0) * rho
    return m / ((q - 1.0) * v)
