"""Core free-energy machinery: closed forms against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpotts import (
    ModelSpec,
    f_deriv,
    k_deriv,
    negative_free_energy,
    quadratic_form,
    s_of_x,
    sigma_matrix,
    u_vector,
    x_of_s,
)
from tensorpotts.errors import ClassificationError, DomainError, ShapeError
from tensorpotts.model import f_beta_deriv

from conftest import central_difference, mp_free_energy, rng

specs_st = st.builds(
    ModelSpec,
    p=st.integers(2, 6),
    q=st.integers(2, 5),
    beta=st.floats(0.0, 3.0),
    h=st.floats(0.0, 2.0),
)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelSpec(1, 2, 0.5, 0.0)
        with pytest.raises(DomainError):
            ModelSpec(2, 1, 0.5, 0.0)
        with pytest.raises(DomainError):
            ModelSpec(2, 2, -0.1, 0.0)
        with pytest.raises(DomainError):
            ModelSpec(2, 2, 0.5, -0.1)

    def test_with_params(self):
        spec = ModelSpec(4, 3, 0.5, 0.1)
        assert spec.with_params(h=0.0) == ModelSpec(4, 3, 0.5, 0.0)
        assert spec.with_params(beta=1.0).beta == 1.0


class TestNegativeFreeEnergy:
    def test_uniform_entropy(self):
        spec = ModelSpec(4, 3, 0.0, 0.0)
        assert negative_free_energy(spec, np.full(3, 1 / 3)) == pytest.approx(math.log(3), abs=1e-12)

    def test_uniform_vector_identity(self):
        # H(x_0) = beta q^{1-p} + h/q + log q
        spec = ModelSpec(5, 4, 0.9, 0.3)
        expected = spec.beta * spec.q ** (1 - spec.p) + spec.h / spec.q + math.log(spec.q)
        assert negative_free_energy(spec, np.full(4, 0.25)) == pytest.approx(expected, abs=1e-14)

    def test_against_mpmath_oracle(self):
        spec = ModelSpec(4, 3, 0.616, 0.67)
        v = np.array([0.5, 0.25, 0.25])
        assert negative_free_energy(spec, v) == pytest.approx(mp_free_energy(spec, v), abs=1e-13)

    def test_zero_entries_use_entropy_limit(self):
        spec = ModelSpec(3, 3, 0.7, 0.2)
        v = np.array([1.0, 0.0, 0.0])
        assert negative_free_energy(spec, v) == pytest.approx(spec.beta + spec.h, abs=1e-14)

    def test_rejects_bad_vectors(self):
        spec = ModelSpec(2, 2, 0.5, 0.0)
        with pytest.raises(ShapeError):
            negative_free_energy(spec, [0.7, 0.4])
        with pytest.raises(ShapeError):
            negative_free_energy(spec, [1.2, -0.2])


class TestRay:
    def test_x_of_s_values(self):
        assert np.allclose(x_of_s(3, 0.0), [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(x_of_s(2, 0.5), [0.75, 0.25])

    def test_s_outside_range(self):
        with pytest.raises(DomainError):
            x_of_s(3, 1.0)
        with pytest.raises(DomainError):
            x_of_s(3, -0.01)

    @given(q=st.integers(2, 6), s=st.floats(0.0, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, q, s):
        assert s_of_x(x_of_s(q, s)) == pytest.approx(s, abs=1e-12)

    def test_s_of_x_rejects_off_ray(self):
        with pytest.raises(ShapeError):
            s_of_x(np.array([0.5, 0.3, 0.2]))


class TestKDeriv:
    def test_type_ii_curvature_zero(self):
        # k''(x) = beta p(p-1) x^{p-2} - 1/x vanishes at x = 1/2 for p=4, beta=2/3
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        assert k_deriv(spec, 0.5, 2) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_one(self):
        assert k_deriv(ModelSpec(3, 2, 0.0, 0.0), 1.0, 0) == 0.0

    def test_first_derivative_against_finite_difference(self):
        spec = ModelSpec(4, 3, 0.8, 0.0)
        fd = central_difference(lambda x: k_deriv(spec, x, 0), 0.3, 1e-6)
        assert abs(fd - k_deriv(spec, 0.3, 1)) / abs(fd) < 1e-8

    def test_domain_errors(self):
        spec = ModelSpec(2, 2, 0.5, 0.0)
        with pytest.raises(DomainError):
            k_deriv(spec, 0.0, 1)
        with pytest.raises(DomainError):
            k_deriv(spec, 0.5, 7)


class TestFDeriv:
    def test_type_ii_closed_form(self):
        # f''(s) = s^4/(s^2-1) at (p, q, beta, h) = (4, 2, 2/3, 0)
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        for s in (0.1, 0.5, 0.9):
            assert f_deriv(spec, s, 2) == pytest.approx(s ** 4 / (s ** 2 - 1), abs=1e-13)
        assert f_deriv(spec, 0.5, 2) == pytest.approx(-1 / 12, abs=1e-14)

    def test_second_derivative_combination(self):
        # f'' = ((q-1)^2/q^2) k''(a) + ((q-1)/q^2) k''(b)
        spec = ModelSpec(5, 4, 1.1, 0.9)
        q = spec.q
        for s in (0.0, 0.3, 0.8):
            a = (1 + (q - 1) * s) / q
            b = (1 - s) / q
            expected = ((q - 1) ** 2 / q ** 2) * k_deriv(spec, a, 2) + ((q - 1) / q ** 2) * k_deriv(spec, b, 2)
            assert f_deriv(spec, s, 2) == pytest.approx(expected, rel=1e-14)

    def test_finite_difference_ladder(self):
        # f^(n+1) matches central differences of f^(n), n <= 5
        gen = rng(7)
        for _ in range(50):
            spec = ModelSpec(int(gen.integers(2, 7)), int(gen.integers(2, 6)),
                             float(gen.uniform(0.05, 2.0)), float(gen.uniform(0.0, 1.0)))
            s = float(gen.uniform(0.02, 0.93))
            for n in range(6):
                fd = central_difference(lambda x, n=n: f_deriv(spec, x, n), s, 1e-5)
                an = f_deriv(spec, s, n + 1)
                assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-6), (spec, s, n)

    def test_matches_free_energy_on_ray(self):
        spec = ModelSpec(4, 3, 0.9, 0.4)
        for s in (0.0, 0.35, 0.8):
            assert f_deriv(spec, s, 0) == pytest.approx(
                negative_free_energy(spec, x_of_s(spec.q, s)), abs=1e-12)

    def test_boundary_guard(self):
        spec = ModelSpec(2, 2, 0.5, 0.0)
        with pytest.raises(DomainError):
            f_deriv(spec, 1.0 - 1e-12, 2)

    def test_gradient_at_origin_is_exact_zero_when_field_free(self):
        # both k' terms cancel exactly in floating point for every q: a
        # one-ulp residue here fabricates stationary points next to s = 0
        for q in (2, 3, 4, 5, 6, 7):
            spec = ModelSpec(7, q, 0.5, 0.0)
            assert f_deriv(spec, 0.0, 1) == 0.0
            assert float(np.atleast_1d(f_deriv(spec, np.array([0.0]), 1))[0]) == 0.0

    def test_beta_derivative_is_the_polynomial_part(self):
        # f is affine in beta, so a difference quotient in beta is exact up to
        # rounding; the order-1 value at s = 0 cancels exactly like f'(0)
        gen = rng(11)
        for _ in range(30):
            p, q = int(gen.integers(2, 8)), int(gen.integers(2, 7))
            b0, b1, h = (float(v) for v in gen.uniform(0.0, 2.0, 3))
            s = np.array([0.0, float(gen.uniform(0.0, 0.95)), 0.95])
            for n in range(7):
                quotient = (f_deriv(ModelSpec(p, q, b1, h), s, n)
                            - f_deriv(ModelSpec(p, q, b0, h), s, n)) / (b1 - b0)
                got = f_beta_deriv(ModelSpec(p, q, b0, h), s, n)
                assert np.allclose(got, quotient, rtol=1e-8, atol=1e-8), (p, q, n)
            assert f_beta_deriv(ModelSpec(p, q, b0, h), 0.0, 1) == 0.0

    def test_curvature_is_field_free(self):
        # h enters f only affinely, so every derivative of order >= 2 is
        # independent of h; the plug-in intervals rely on this
        for n in (2, 3, 4):
            for s in (0.0, 0.4, 0.85):
                a = f_deriv(ModelSpec(4, 3, 0.9, 0.0), s, n)
                b = f_deriv(ModelSpec(4, 3, 0.9, 1.7), s, n)
                assert a == b

    def test_cached_coefficients_keep_the_bits(self):
        # the uncached k^(n) and f^(n) the cached factors must reproduce exactly
        def k_ref(spec, x, order, log):
            p = spec.p
            fall = 1.0
            for i in range(order):
                fall *= p - i
            poly = spec.beta * fall * x ** (p - order) if order <= p else 0.0
            if order == 0:
                ent = x * log(x)
            elif order == 1:
                ent = log(x) + 1.0
            else:
                ent = (-1.0) ** order * math.factorial(order - 2) * x ** (1 - order)
            return poly - ent

        def f_ref(spec, s, order, log):
            q = spec.q
            coef_a, coef_b = ((q - 1.0) / q) ** order, (-1.0) ** order * (q - 1.0) / q ** order
            a = (1.0 + (q - 1.0) * s) / q
            b = (1.0 - s) / q
            val = coef_a * k_ref(spec, a, order, log) + coef_b * k_ref(spec, b, order, log)
            if order == 0:
                return val + spec.h * a
            if order == 1:
                return val + spec.h * (q - 1.0) / q
            return val

        gen = rng(23)
        for _ in range(60):
            p, q = int(gen.integers(2, 13)), int(gen.integers(2, 13))
            spec = ModelSpec(p, q, float(gen.uniform(0.0, 3.0)), float(gen.uniform(0.0, 2.0)))
            s = np.append(gen.uniform(0.0, 1.0 - 1e-9, 16), [0.0, 1.0 - 1e-9])
            for n in range(7):
                assert np.array_equal(f_deriv(spec, s, n), f_ref(spec, s, n, np.log)), (spec, n)
                for x in s[[0, -2, -1]]:
                    assert f_deriv(spec, float(x), n) == f_ref(spec, float(x), n, math.log)
                assert k_deriv(spec, float(s[0]) / q + 0.1, n) == k_ref(
                    spec, float(s[0]) / q + 0.1, n, math.log)


class TestQuadraticForm:
    def test_zero_vector(self):
        assert quadratic_form(ModelSpec(3, 3, 0.5, 0.0), 0.2, np.zeros(3)) == 0.0

    def test_rejects_off_hyperplane(self):
        with pytest.raises(DomainError):
            quadratic_form(ModelSpec(3, 3, 0.5, 0.0), 0.2, np.array([1.0, 0.0, 0.0]))

    def test_u_direction_recovers_f2(self):
        # Q(u) = q^2 f''(s) for u = (1-q, 1, ..., 1)
        gen = rng(3)
        for _ in range(3):
            spec = ModelSpec(int(gen.integers(2, 6)), int(gen.integers(2, 6)),
                             float(gen.uniform(0.1, 1.5)), float(gen.uniform(0.0, 1.0)))
            s = float(gen.uniform(0.0, 0.9))
            q = spec.q
            got = quadratic_form(spec, s, u_vector(q))
            assert got == pytest.approx(q * q * f_deriv(spec, s, 2), rel=1e-12)

    def test_agrees_with_diagonal_hessian(self):
        # Q(t) = sum_r (beta p(p-1) m_r^{p-2} - 1/m_r) t_r^2 at m = x_s
        gen = rng(11)
        spec = ModelSpec(4, 4, 0.9, 0.3)
        s = 0.35
        m = x_of_s(spec.q, s)
        diag = spec.beta * spec.p * (spec.p - 1) * m ** (spec.p - 2) - 1.0 / m
        for _ in range(20):
            t = gen.standard_normal(spec.q)
            t -= t.mean()
            assert quadratic_form(spec, s, t) == pytest.approx(float(diag @ (t * t)), rel=1e-10)

    def test_negative_definite_at_regular_point(self):
        spec = ModelSpec(4, 3, 0.616, 0.67)
        from tensorpotts import classify_point

        s = classify_point(spec).witness.s_values[0]
        gen = rng(5)
        for _ in range(100):
            t = gen.standard_normal(3)
            t -= t.mean()
            assert quadratic_form(spec, s, t) < 0


class TestSigmaMatrix:
    def test_rows_sum_to_zero_and_psd(self):
        spec = ModelSpec(4, 3, 0.616, 0.67)
        from tensorpotts import classify_point

        s = classify_point(spec).witness.s_values[0]
        sigma = sigma_matrix(spec, s)
        assert np.allclose(sigma.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(sigma, sigma.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= -1e-10
        assert np.sum(eigs > 1e-10) == spec.q - 1

    def test_q2_pattern_at_uniform(self):
        spec = ModelSpec(2, 2, 0.5, 0.0)
        sigma = sigma_matrix(spec, 0.0)
        scaled = sigma / sigma[0, 0]
        assert np.allclose(scaled, [[1, -1], [-1, 1]], atol=1e-12)

    def test_rejects_nonnegative_curvature(self):
        spec = ModelSpec(4, 2, 2 / 3, 0.0)  # f''(0) = 0 exactly
        with pytest.raises(ClassificationError):
            sigma_matrix(spec, 0.0)


@given(specs_st, st.floats(0.0, 0.9))
@settings(max_examples=40, deadline=None)
def test_free_energy_ray_consistency_property(spec, s):
    assert f_deriv(spec, s, 0) == pytest.approx(
        negative_free_energy(spec, x_of_s(spec.q, s)), abs=1e-11)
