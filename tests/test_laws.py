"""Limit-law constructors: normalization, symmetry, composition, mixtures."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpotts import (
    ModelSpec,
    PointTag,
    classify_point,
    compute_beta_c,
    compute_special_point,
    f_deriv,
    k_deriv,
    bhat_limit,
    critical_mixture_law,
    gaussian_limit_regular,
    gamma1_weight,
    hhat_limit,
    ks_distance,
    mixture_weights,
    norm_p_limit,
    quartic_law,
    sextic_law,
    sigma_matrix,
    v_limit_covariance,
    x_of_s,
)
from tensorpotts.errors import ClassificationError, DomainError
from tensorpotts.laws import (
    Atom,
    ComposedLaw,
    GridLaw,
    HalfNormalLaw,
    MixtureLaw,
    NormalLaw,
    SquaredGridLaw,
    SEXTIC_COEF,
    TAIL_LOG_EPS,
    _quartic_coefs,
    _tilted_means,
    density_table,
)

from conftest import trapezoid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def special43():
    sp = compute_special_point(4, 3)
    spec = ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde)
    return spec, classify_point(spec)


@pytest.fixture(scope="module")
def regular_pc(fig_regular_spec):
    return classify_point(fig_regular_spec)


def trapezoid_mass(law) -> float:
    x = law.x
    return trapezoid(law.pdf(x), x)


class TestGridLaws:
    def test_quartic_normalizes(self, special43):
        spec, pc = special43
        law = quartic_law(spec, point_class=pc)
        assert trapezoid_mass(law) == pytest.approx(1.0, abs=1e-8)
        assert law.normalization_error < 1e-10

    def test_quartic_zero_tilt_symmetric(self, special43):
        spec, pc = special43
        law = quartic_law(spec, point_class=pc)
        assert law.mean() == pytest.approx(0.0, abs=1e-12)
        for x in (0.1, 0.3, 0.6):
            assert law.cdf(-x) + law.cdf(x) == pytest.approx(1.0, abs=1e-8)

    def test_quartic_variance_grid_stable(self, special43):
        spec, pc = special43
        a = quartic_law(spec, point_class=pc)
        coef4 = spec.q ** 4 * f_deriv(spec, pc.witness.s_values[0], 4) / 24.0
        b = GridLaw("QuarticTilt", lambda x: coef4 * x ** 4, -a.x[-1], a.x[-1], n_points=8193)
        assert a.var() == pytest.approx(b.var(), abs=1e-8)
        assert a.var() > 0

    def test_quartic_mean_decreasing_in_field_tilt(self, special43):
        spec, pc = special43
        means = [quartic_law(spec, 0.0, h_bar, pc).mean() for h_bar in (-1.0, 0.0, 1.0)]
        assert means[0] > means[1] > means[2]

    def test_quartic_requires_type_i(self, fig_regular_spec, regular_pc):
        with pytest.raises(ClassificationError):
            quartic_law(fig_regular_spec, point_class=regular_pc)

    def test_sextic_symmetric_and_stable(self):
        law = sextic_law(0.0)
        assert trapezoid_mass(law) == pytest.approx(1.0, abs=1e-8)
        assert law.mean() == pytest.approx(0.0, abs=1e-12)
        for x in (0.2, 0.6, 1.1):
            assert law.cdf(-x) + law.cdf(x) == pytest.approx(1.0, abs=1e-8)
        double = GridLaw("SexticTilt", lambda x: -32 / 15 * x ** 6, -law.x[-1], law.x[-1], 8193)
        assert law.second_moment() == pytest.approx(double.second_moment(), abs=1e-8)

    def test_sample_cdf_uniform(self, special43):
        # draws pushed through the cdf are uniform (KS at 1e-3 level): grid laws
        # drawn by their quantile, the normal laws drawn by numpy
        spec, pc = special43
        n = 10_000
        for i, (law, draw) in enumerate((
                (sextic_law(0.5), None),
                (quartic_law(spec, 0.3, -0.2, pc), None),
                (NormalLaw(0.4, 2.0), lambda rng: rng.normal(0.4, math.sqrt(2.0), n)),
                (HalfNormalLaw(-1, 0.7),
                 lambda rng: -np.abs(rng.normal(0.0, math.sqrt(0.7), n))))):
            rng = np.random.Generator(np.random.Philox(9 + i))
            x = law.quantile(rng.random(n)) if draw is None else draw(rng)
            ks = ks_distance(law.cdf(x), _UniformLaw())
            assert ks <= 1.95 / math.sqrt(n), law.kind  # asymptotic 1e-3 KS quantile


class _UniformLaw:
    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)


class TestScalarBasics:
    def test_normal_quantile_roundtrip(self):
        law = NormalLaw(0.3, 2.0)
        for u in (0.1, 0.5, 0.9):
            assert law.cdf(law.quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_half_normal_signs(self):
        plus = HalfNormalLaw(+1, 1.5)
        minus = HalfNormalLaw(-1, 1.5)
        assert plus.mean() > 0 > minus.mean()
        assert plus.cdf(-0.1) == 0.0
        assert minus.cdf(0.0) == 1.0
        draws = np.abs(np.random.Generator(np.random.Philox(1)).normal(0.0, math.sqrt(1.5), 1000))
        assert plus.mean() == pytest.approx(draws.mean(), abs=4 * math.sqrt(plus.var() / 1000))

    def test_mixture_masses_must_sum(self):
        with pytest.raises(DomainError):
            MixtureLaw([(0.5, NormalLaw(0, 1))], atoms=[Atom(0.0, 0.4)])

    def test_mixture_atom_cdf_and_quantile(self):
        law = MixtureLaw([(0.5, NormalLaw(0, 1))], atoms=[Atom(0.0, 0.5)])
        assert law.cdf(-1e-9) < 0.5 < law.cdf(0.0)
        assert law.quantile(0.6) == pytest.approx(0.0, abs=1e-9)
        assert law.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_infinite_atoms(self):
        law = MixtureLaw([], atoms=[], neg_inf_mass=0.3, pos_inf_mass=0.7)
        assert law.cdf(0.0) == pytest.approx(0.3)
        assert law.quantile(0.2) == -math.inf
        assert law.quantile(0.9) == math.inf
        with pytest.raises(DomainError):
            law.mean()


class TestGaussianLimits:
    def test_centered_without_perturbation(self, fig_regular_spec, regular_pc):
        g = gaussian_limit_regular(fig_regular_spec, point_class=regular_pc)
        assert np.allclose(g.mean, 0.0)
        assert g.rank() == 2

    def test_mean_in_zero_sum_hyperplane(self, fig_regular_spec, regular_pc):
        g = gaussian_limit_regular(fig_regular_spec, 0.7, -0.4, regular_pc)
        assert abs(g.mean.sum()) < 1e-12

    def test_projection_variance(self, fig_regular_spec, regular_pc):
        g = gaussian_limit_regular(fig_regular_spec, point_class=regular_pc)
        v = np.array([0.157, 0.396, 0.323])
        proj = g.project(v)
        assert proj.var() == pytest.approx(float(v @ g.cov @ v), rel=1e-12)

    def test_rejects_non_regular(self, special43):
        spec, pc = special43
        with pytest.raises(ClassificationError):
            gaussian_limit_regular(spec, point_class=pc)


class TestMixtureWeights:
    def test_weakly_critical_uniform_weights(self):
        spec = ModelSpec(7, 5, 2.0, 0.0)
        w = mixture_weights(spec)
        assert np.allclose(w, 0.2, atol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_critical(self, fig_regular_spec, regular_pc):
        with pytest.raises(ClassificationError):
            mixture_weights(fig_regular_spec, regular_pc)

    def test_critical_mixture_projection_masses(self):
        spec = ModelSpec(4, 2, 0.9, 0.0)
        pc = classify_point(spec)
        law = critical_mixture_law(spec, point_class=pc)
        proj = law.project(np.array([1.0, 0.0]))
        assert proj.total_mass == pytest.approx(1.0, abs=1e-12)


class TestConditionalCovariances:
    def test_permuted_components_match_exact_basin_covariance(self):
        # the P Sigma P^T blocks of the critical mixture against the exact
        # finite-N covariance conditioned on each permutation basin
        from tensorpotts import exact_sample, magnetization_law

        spec = ModelSpec(4, 3, 1.25, 0.0)
        pc = classify_point(spec)
        mix = critical_mixture_law(spec, point_class=pc)
        N = 400
        law = magnetization_law(spec, N)
        x = law.magnetizations()
        probs = law.probs()
        mats = np.stack(pc.witness.vectors)
        nearest = np.argmin(((x[:, None, :] - mats[None, :, :]) ** 2).sum(axis=2), axis=1)
        for k in range(3):
            mask = nearest == k
            pk = probs[mask] / probs[mask].sum()
            w = math.sqrt(N) * (x[mask] - mats[k])
            emp = (w * pk[:, None]).T @ w
            assert np.abs(emp - mix.components[k].cov).max() < 0.005

    def test_v_limit_second_moment_at_special_point(self, special43):
        # exact E[V_2^2] at finite N against the rank-(q-2) limit covariance
        from tensorpotts import magnetization_law, u_vector

        spec, pc = special43
        vlim = v_limit_covariance(spec, pc)
        N = 800
        law = magnetization_law(spec, N)
        m = x_of_s(3, pc.witness.s_values[0])
        d = law.magnetizations() - m
        u = u_vector(3)
        coef = (d @ u) / float(u @ u)
        v2 = math.sqrt(N) * (d[:, 1] - coef * u[1])
        second = float(law.probs() @ (v2 * v2))
        assert second == pytest.approx(vlim.cov[1, 1], rel=0.05)


class TestVLimit:
    def test_structure_q3(self, special43):
        spec, pc = special43
        v = v_limit_covariance(spec, pc)
        assert np.allclose(v.cov[0, :], 0.0)
        assert np.allclose(v.cov[:, 0], 0.0)
        assert v.rank() == spec.q - 2
        s = pc.witness.s_values[0]
        expected = (spec.q - 2.0) / (-(spec.q - 1.0) * k_deriv(spec, (1 - s) / spec.q, 2))
        assert v.cov[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_q2_zero_matrix(self):
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        pc = classify_point(spec)
        # type II at (2/3, 0); build the V covariance at a type-I q=2 point instead
        sp = compute_special_point(2, 2)
        spec2 = ModelSpec(2, 2, sp.beta_tilde, 0.0)
        pc2 = classify_point(spec2)
        assert pc2.tag is PointTag.SPECIAL_TYPE_I
        v = v_limit_covariance(spec2, pc2)
        assert np.allclose(v.cov, 0.0)


class TestEstimatorLimits:
    def test_hhat_regular_variance(self, fig_regular_spec, regular_pc):
        law = hhat_limit(fig_regular_spec, regular_pc)
        s = regular_pc.witness.s_values[0]
        assert law.var() == pytest.approx(-(9.0 / 4.0) * f_deriv(fig_regular_spec, s, 2),
                                          rel=1e-12)

    def test_g1_valid_cdf(self, special43):
        spec, pc = special43
        g1 = hhat_limit(spec, pc)
        ts = np.linspace(-40, 40, 200)
        vals = g1.cdf(ts)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 0.01 and vals[-1] > 0.99
        assert np.all((vals >= 0) & (vals <= 1))

    def test_g2_valid_cdf(self):
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        g2 = hhat_limit(spec, classify_point(spec))
        ts = np.linspace(-30, 30, 200)
        vals = g2.cdf(ts)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 0.01 and vals[-1] > 0.99

    def test_hhat_weakly_critical_mixture(self):
        spec = ModelSpec(7, 5, 2.0, 0.0)
        law = hhat_limit(spec, classify_point(spec))
        assert isinstance(law, MixtureLaw)
        assert law.total_mass == pytest.approx(1.0, abs=1e-12)
        assert law.atoms[0].mass == pytest.approx(0.5)

    def test_hhat_axis_transition_weights_identity(self):
        # (1-p_q)(q-1)/(2q) + (1-p_q)/(2q) + (1+p_q)/2 = 1
        bc = compute_beta_c(7, 5)
        spec = ModelSpec(7, 5, bc, 0.0)
        law = hhat_limit(spec, classify_point(spec))
        assert law.total_mass == pytest.approx(1.0, abs=1e-12)
        w_minus, w_plus = (w for w, _ in law.components)
        atom = law.atoms[0].mass
        p_q = 2 * atom - 1
        q = 5
        assert w_minus == pytest.approx((1 - p_q) * (q - 1) / (2 * q), rel=1e-10)
        assert w_plus == pytest.approx((1 - p_q) / (2 * q), rel=1e-10)

    def test_hhat_strongly_critical_on_curve(self):
        from tensorpotts.inference import critical_slice_beta

        beta = critical_slice_beta(4, 3, 0.2)[0]
        spec = ModelSpec(4, 3, beta, 0.2)
        law = hhat_limit(spec, classify_point(spec))
        assert isinstance(law, MixtureLaw)
        assert len(law.components) == 2
        assert law.atoms[0].mass == pytest.approx(0.5)

    def test_bhat_regular_field_on(self, fig_regular_spec, regular_pc):
        law = bhat_limit(fig_regular_spec, regular_pc)
        s = regular_pc.witness.s_values[0]
        m = x_of_s(3, s)
        expected = (-(9.0) * f_deriv(fig_regular_spec, s, 2) / (16.0 * 4.0)
                    * (m[0] ** 3 - m[1] ** 3) ** -2)
        assert law.var() == pytest.approx(expected, rel=1e-12)

    def test_bhat_regular_uniform_inconsistent(self):
        spec = ModelSpec(4, 3, 0.5, 0.0)  # below beta_c(4,3): maximizer is uniform
        law = bhat_limit(spec, classify_point(spec))
        assert law.neg_inf_mass + law.pos_inf_mass == pytest.approx(1.0)
        assert 0 < law.gamma1 < 1

    def test_gamma1_threshold_equals_mean(self):
        # the threshold (1-q)/k''(1/q) is E W'W = tr Sigma at s = 0
        spec = ModelSpec(4, 3, 0.5, 0.0)
        from tensorpotts import sigma_matrix

        thresh = (1 - 3) / k_deriv(spec, 1 / 3, 2)
        assert thresh == pytest.approx(np.trace(sigma_matrix(spec, 0.0)), rel=1e-12)

    def test_bhat_weakly_critical_is_normal(self):
        spec = ModelSpec(7, 5, 2.0, 0.0)
        law = bhat_limit(spec, classify_point(spec))
        assert isinstance(law, NormalLaw)
        assert law.var() > 0

    def test_bhat_type_ii_gamma2(self):
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        law = bhat_limit(spec, classify_point(spec))
        assert 0 < law.gamma2 < 1
        base_fine = sextic_law(0.0)
        coarse = GridLaw("SexticTilt", lambda x: -32 / 15 * x ** 6,
                         -base_fine.x[-1], base_fine.x[-1], n_points=2049)
        b = math.sqrt(coarse.second_moment())
        gamma2_coarse = float(coarse.cdf(b) - coarse.cdf(-b))
        assert law.gamma2 == pytest.approx(gamma2_coarse, abs=1e-3)

    def test_bhat_alpha_small_pq(self):
        sp = compute_special_point(2, 2)
        spec = ModelSpec(2, 2, sp.beta_tilde, 0.0)
        law = bhat_limit(spec, classify_point(spec))
        assert 0 < law.alpha < 1

    def test_l1_valid_cdf(self, special43):
        spec, pc = special43
        l1 = bhat_limit(spec, pc)
        assert isinstance(l1, ComposedLaw)
        ts = np.linspace(-60, 60, 200)
        vals = l1.cdf(ts)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 0.02 and vals[-1] > 0.98


def _symmetric_grid_law(coef_high, degree, c):
    """Reference law: GRID_POINTS nodes on [-R, R], R where the plain exponent
    falls |TAIL_LOG_EPS| below its mode value (12 fixed-point steps); an
    independent window, accurate for |c| <= 1e3."""
    r = (TAIL_LOG_EPS / coef_high) ** (1.0 / degree)
    for _ in range(12):
        r = ((-TAIL_LOG_EPS + abs(c) * r) / -coef_high) ** (1.0 / degree)
    return GridLaw("Tilt", lambda x: coef_high * x ** degree + c * x, -r, r)


@given(degree=st.sampled_from([4, 6]), coef_high=st.floats(-100.0, -0.01),
       tilts=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_tilted_means_match_scalar_grid_law(degree, coef_high, tilts):
    means = _tilted_means(coef_high, degree, np.array(tilts))
    for c, mean in zip(tilts, means):
        assert abs(mean - _symmetric_grid_law(coef_high, degree, c).mean()) <= 1e-12


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("tilt", [-1e3, 1e3])
def test_tilted_means_narrow_peak(degree, tilt):
    # a flat high-order term and a large tilt: the peak is a small fraction of [-R, R]
    coef_high = -0.01
    law = _symmetric_grid_law(coef_high, degree, tilt)
    assert abs(_tilted_means(coef_high, degree, np.array([tilt]))[0] - law.mean()) <= 1e-12


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("coef_high", [-0.01, -1.0, -100.0])
def test_tilted_means_odd_in_tilt(degree, coef_high):
    tilts = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40)])
    means = _tilted_means(coef_high, degree, np.concatenate([tilts, -tilts]))
    plus, minus = means[:len(tilts)], means[len(tilts):]
    assert np.all(np.abs(plus + minus) <= 1e-14 * np.maximum(1.0, np.abs(plus)))


def _composed_law(name, special43):
    if name == "G2":
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        return hhat_limit(spec, classify_point(spec))
    spec, pc = special43
    return hhat_limit(spec, pc) if name == "G1" else bhat_limit(spec, pc)


# quantiles at u = 0.025, 0.5, 0.975 under the earlier rule (GRID_POINTS nodes
# on all of [-R_c, R_c] for every tilt), at the (4,3) special point and (4,2,2/3,0)
COMPOSED_QUANTILES = {
    "G1": (-7.998887950016444, 3.183623668748079e-15, 7.998887950016474),
    "L1": (-4.90857808964973, 1.9536815624793144e-15, 4.90857808964976),
    "G2": (-8.450072230801293, 5.234057488394146e-15, 8.450072230801375),
}


@pytest.mark.parametrize("name", ["G1", "L1", "G2"])
def test_composed_quantiles_pinned(name, special43):
    law = _composed_law(name, special43)
    for u, expected in zip((0.025, 0.5, 0.975), COMPOSED_QUANTILES[name]):
        assert abs(law.quantile(u) - expected) <= 1e-12


@pytest.mark.parametrize("name", ["G1", "L1", "G2"])
def test_composed_means_strictly_decrease(name, special43):
    law = _composed_law(name, special43)
    assert np.all(np.diff(law._mu_grid) < 0)


def _reference_grid_law(name, special43):
    spec, pc = special43
    if name == "quartic-0":
        return quartic_law(spec, point_class=pc)
    if name == "quartic-tilted":
        return quartic_law(spec, 0.7, -0.4, pc)
    if name == "sextic-0":
        return sextic_law(0.0)
    if name == "sextic-1.3":
        return sextic_law(1.3)
    if name == "hand-quartic":
        return GridLaw("Tilted", lambda x: -x ** 4 / 4 + 1.5 * x, -8.0, 8.0)
    return GridLaw("Tilted", lambda x: -x ** 6 / 6 - 2.0 * x * x - 3.0 * x, -5.0, 5.0,
                   n_points=2049)


@pytest.mark.parametrize("name", ["quartic-0", "quartic-tilted", "sextic-0", "sextic-1.3",
                                  "hand-quartic", "hand-sextic"])
def test_grid_law_matches_scipy_simpson(name, special43):
    # scipy's rules, with their unequal-spacing formulas, are the reference
    from scipy.integrate import cumulative_simpson, simpson

    law = _reference_grid_law(name, special43)
    x, f = law.x, law.pdf_values
    assert simpson(f, x=x) == pytest.approx(1.0, rel=1e-12)
    ref_cdf = cumulative_simpson(f, x=x, initial=0.0)
    assert np.max(np.abs(law.cdf_values - np.clip(ref_cdf / ref_cdf[-1], 0.0, 1.0))) <= 1e-12
    second = simpson(f * x * x, x=x)
    assert law.second_moment() == pytest.approx(second, rel=1e-12)
    assert abs(law.mean() - simpson(f * x, x=x)) <= 1e-12 * math.sqrt(second)
    # even nodes: composite-Simpson partial sums, one panel of two intervals at a time
    panels = np.cumsum(f[:-2:2] + 4.0 * f[1::2] + f[2::2])
    assert np.max(np.abs(law.cdf_values[2::2] - panels / panels[-1])) <= 1e-14


def test_grid_law_cdf_exact_for_quadratic():
    law = GridLaw("Quadratic", lambda x: np.log(3.0 + x + x * x), -1.0, 1.0, n_points=9)

    def antiderivative(x):
        return 3.0 * x + x * x / 2.0 + x ** 3 / 3.0

    mass = antiderivative(1.0) - antiderivative(-1.0)
    x = law.x
    assert np.max(np.abs(law.pdf_values - (3.0 + x + x * x) / mass)) <= 1e-14
    assert np.max(np.abs(law.cdf_values - (antiderivative(x) - antiderivative(-1.0)) / mass)) <= 1e-14
    # x f(x) is cubic, so Simpson integrates the mean exactly: (2/3) / (20/3)
    assert law.mean() == pytest.approx(0.1, abs=1e-15)
    assert law.normalization_error <= 1e-15


@pytest.mark.parametrize("family", ["quartic", "sextic"])
def test_tilted_grid_laws_follow_their_mode(family, special43):
    # the window follows the mode, so the peak stays resolved at every tilt
    # (a symmetric [-R, R] grid misses it from 2^16 on)
    spec, pc = special43
    quartic = family == "quartic"
    coef_high, degree = (_quartic_coefs(spec, pc)[0], 4) if quartic else (SEXTIC_COEF, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(0, 61, 4):
            for c in (2.0 ** k, -(2.0 ** k)):
                # c = h_bar (1 - q) at q = 3, and c = -h_bar for the sextic
                law = quartic_law(spec, 0.0, -c / 2, pc) if quartic else sextic_law(-c)
                expected = _tilted_means(coef_high, degree, np.array([c]))[0]
                assert abs(law.mean() - expected) <= 1e-12 * abs(expected)
                if k <= 48:
                    assert law.normalization_error <= 1e-8


def test_zero_tilt_windows_are_symmetric(special43):
    spec, pc = special43
    sp = compute_special_point(2, 2)
    small = ModelSpec(2, 2, sp.beta_tilde, 0.0)
    small_pc = classify_point(small)
    for law, coef_high, degree in (
            (quartic_law(spec, point_class=pc), _quartic_coefs(spec, pc)[0], 4),
            (quartic_law(small, point_class=small_pc), _quartic_coefs(small, small_pc)[0], 4),
            (sextic_law(0.0), SEXTIC_COEF, 6)):
        r = (TAIL_LOG_EPS / coef_high) ** (1.0 / degree)
        assert (law.x[0], law.x[-1]) == (-r, r)


def test_grid_law_needs_odd_half_grid():
    with pytest.raises(DomainError):
        GridLaw("T", lambda x: -x * x, -1.0, 1.0, n_points=7)
    with pytest.raises(DomainError):
        GridLaw("T", lambda x: -x * x, 1.0, -1.0)


def _scalar_oracle(law, scalar_mean):
    """The composed law rebuilt with one scalar grid law per tilt."""
    def tilted_mean(ts):
        return np.array([scalar_mean(float(t)) for t in ts])

    return ComposedLaw(law.name, law.outer, tilted_mean)


@pytest.mark.parametrize("name", ["G1", "L1", "G2"])
def test_composed_laws_match_scalar_oracle(name, special43):
    if name == "G2":
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        law = hhat_limit(spec, classify_point(spec))
        oracle = _scalar_oracle(law, lambda t: sextic_law(t).mean())
    else:
        spec, pc = special43
        if name == "G1":
            law = hhat_limit(spec, pc)
            oracle = _scalar_oracle(law, lambda t: quartic_law(spec, 0.0, t, pc).mean())
        else:
            law = bhat_limit(spec, pc)
            oracle = _scalar_oracle(law, lambda t: quartic_law(spec, t, 0.0, pc).mean())
    assert law.name == name
    ts = np.linspace(-60, 60, 200)
    assert np.max(np.abs(law.cdf(ts) - oracle.cdf(ts))) <= 1e-10
    for u in (0.025, 0.975):
        assert law.quantile(u) == pytest.approx(oracle.quantile(u), abs=1e-10)


@pytest.mark.parametrize("name", ["G1", "L1", "G2"])
def test_composed_mean_matches_quantile_average(name, special43):
    law = _composed_law(name, special43)
    us = np.linspace(0.0005, 0.9995, 999)
    assert law.mean() == pytest.approx(np.mean([law.quantile(u) for u in us]), abs=1e-9)


@pytest.mark.parametrize("name", ["G1", "L1", "G2"])
def test_composed_mean_grid_is_the_union(name, special43):
    law = _composed_law(name, special43)
    crossings = np.interp(law.outer.x, -law._mu_grid, law._t_grid)
    t = np.union1d(law._t_grid, crossings)
    assert law._mean_grid().tobytes() == t.tobytes()
    f = law.cdf(t)
    assert law.mean() == float(t[-1] - np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))


def test_composed_mean_loads_no_numpy_ma():
    script = (
        "import json, sys\n"
        "import numpy\n"
        "ma_with_numpy = 'numpy.ma' in sys.modules\n"
        "from tensorpotts import ModelSpec, classify_point, compute_special_point, hhat_limit\n"
        "sp = compute_special_point(4, 3)\n"
        "spec = ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde)\n"
        "hhat_limit(spec, classify_point(spec)).mean()\n"
        "print(json.dumps([ma_with_numpy, 'numpy.ma' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ma_with_numpy, ma_after = json.loads(proc.stdout.strip().splitlines()[-1])
    # an older numpy may import numpy.ma with numpy itself
    assert ma_with_numpy or not ma_after


@pytest.mark.parametrize("shift,slope", [(2.0, 3.0), (-5.0, 0.5), (0.3, 40.0)])
def test_composed_mean_of_affine_law(shift, slope):
    # mu(t) = -slope (t - shift) makes T = shift + X / slope, X ~ outer; the mean
    # of X under its piecewise-linear cdf is a sum over the outer grid cells
    outer = GridLaw("Tilted", lambda x: -x ** 4 / 4 + 1.5 * x, -8.0, 8.0)
    law = ComposedLaw("Affine", outer, lambda t: -slope * (t - shift))
    x, cdf = outer.x, outer.cdf_values
    outer_mean = float(np.sum(0.5 * (x[1:] + x[:-1]) * np.diff(cdf)))
    assert outer_mean > 0.8
    assert law.mean() == pytest.approx(shift + outer_mean / slope, abs=1e-12)


class TestNormPLimit:
    def test_gaussian_mean_variance_relation(self, fig_regular_spec, regular_pc):
        beta_bar = 0.7
        law = norm_p_limit(fig_regular_spec, regular_pc, beta_bar=beta_bar)
        assert law.mean() == pytest.approx(beta_bar * law.var(), rel=1e-12)

    def test_q2_variance_closed_form(self):
        # with m1 + m2 = 1, the variance is -p^2 (m1^{p-1}-m2^{p-1})^2 / (4 f''(s))
        spec = ModelSpec(4, 2, 0.9, 0.3)
        pc = classify_point(spec)
        s = pc.witness.s_values[0]
        m = x_of_s(2, s)
        law = norm_p_limit(spec, pc)
        expected = -(16.0 / 4.0) * (m[0] ** 3 - m[1] ** 3) ** 2 / f_deriv(spec, s, 2)
        assert law.var() == pytest.approx(expected, rel=1e-12)

    def test_uniform_case_chi_square(self):
        spec = ModelSpec(4, 3, 0.5, 0.0)
        law = norm_p_limit(spec, classify_point(spec))
        assert law.kind == "GeneralizedChiSq"
        assert law.mean() > 0
        # nonnegative support: no mass below 0, and the 0-quantile is 0
        assert law.cdf(-1e-9) == 0.0 and law.cdf(0.0) == 0.0
        assert law.quantile(0.0) == 0.0

    def test_sextic_squared_normalizes(self):
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        law = norm_p_limit(spec, classify_point(spec))
        assert isinstance(law, SquaredGridLaw)
        # integrate in y = sqrt(t), where the t^{-1/2} edge becomes smooth
        ys = np.linspace(1e-9, math.sqrt(10.0), 20001)
        mass = trapezoid(2 * ys * law.pdf(ys ** 2), ys)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert law.cdf(10.0) == pytest.approx(1.0, abs=1e-10)
        assert law.mean() == pytest.approx(3.0 * sextic_law(0.0).second_moment(), rel=1e-12)
        # density shape t^{-1/2} exp(-32/405 t^3)
        ts = np.array([0.4, 1.0, 2.0])
        ratio = law.pdf(ts) / (ts ** -0.5 * np.exp(-32.0 / 405.0 * ts ** 3))
        assert np.allclose(ratio, ratio[0], rtol=1e-6)

    def test_quartic_squared_at_small_pq(self):
        sp = compute_special_point(2, 2)
        spec = ModelSpec(2, 2, sp.beta_tilde, 0.0)
        law = norm_p_limit(spec, classify_point(spec))
        assert isinstance(law, SquaredGridLaw)
        # direct change of variables: density of c T^2 prop to t^{-1/2} exp(kappa t^2)
        c = law.c
        kappa = 16.0 * f_deriv(spec, 0.0, 4) / (24.0 * c * c)
        ts = np.array([0.3, 0.8, 1.5])
        ratio = law.pdf(ts) / (ts ** -0.5 * np.exp(kappa * ts ** 2))
        assert np.allclose(ratio, ratio[0], rtol=1e-6)

    def test_type_i_scaled_quartic(self, special43):
        spec, pc = special43
        law = norm_p_limit(spec, pc, beta_bar=0.0)
        base = quartic_law(spec, point_class=pc)
        s = pc.witness.s_values[0]
        m = x_of_s(3, s)
        scale = -4 * 2 * (m[0] ** 3 - m[1] ** 3)
        assert law.var() == pytest.approx(scale ** 2 * base.var(), rel=1e-12)
        assert law.mean() == pytest.approx(0.0, abs=1e-12)


def _simplex_draws(spec, n, seed):
    """n draws of W ~ N(0, Sigma(0)), the rank-(q-1) simplex Gaussian."""
    return np.random.Generator(np.random.Philox(seed)).multivariate_normal(
        np.zeros(spec.q), sigma_matrix(spec, 0.0), n, method="eigh")


def _gamma1_monte_carlo(spec, n_draws, seed, chunk=250_000):
    """gamma_1 = P(W'W <= (1-q)/k''(1/q)) estimated from simplex-Gaussian draws,
    with its binomial standard error."""
    q = spec.q
    thresh = (1.0 - q) / k_deriv(spec, 1.0 / q, 2)
    hits = 0
    for k in range(n_draws // chunk):
        w = _simplex_draws(spec, chunk, seed + k)
        hits += int(np.count_nonzero(np.sum(w * w, axis=1) <= thresh))
    gamma = hits / n_draws
    return gamma, math.sqrt(gamma * (1.0 - gamma) / n_draws)


class TestClosedFormUniformLaws:
    """The uniform-point laws in closed form against Monte-Carlo draws of W."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("beta", [0.1, 0.4])
    def test_gamma1_within_4_sigma_of_monte_carlo(self, p, q, beta):
        spec = ModelSpec(p, q, beta, 0.0)
        seed = 1000 * p + 100 * q + int(10 * beta)
        estimate, se = _gamma1_monte_carlo(spec, 1_000_000, seed)
        assert abs(gamma1_weight(spec) - estimate) <= 4 * se

    def test_gamma1_known_values(self):
        # P(chi^2_{q-1} <= q-1): 1 - e^{-1} at q = 3, 1 - 3 e^{-2} at q = 5
        gamma_q3 = gamma1_weight(ModelSpec(4, 3, 0.5, 0.0))
        assert isinstance(gamma_q3, float)
        assert gamma_q3 == pytest.approx(1 - math.exp(-1), rel=1e-14)
        assert gamma1_weight(ModelSpec(3, 5, 0.2, 0.0)) == pytest.approx(1 - 3 * math.exp(-2),
                                                                        rel=1e-14)

    @pytest.mark.parametrize("p,q,beta", [(4, 3, 0.5), (3, 5, 0.2), (5, 2, 0.3)])
    def test_chi_square_law_ks_against_draws(self, p, q, beta):
        spec = ModelSpec(p, q, beta, 0.0)
        law = norm_p_limit(spec, classify_point(spec))
        n = 100_000
        w = _simplex_draws(spec, n, 31 + q)
        stat = p * (p - 1.0) / (2.0 * q ** (p - 2)) * np.sum(w * w, axis=1)
        assert ks_distance(stat, law) <= 1.95 / math.sqrt(n)  # asymptotic 1e-3 KS quantile
        assert law.mean() == pytest.approx(stat.mean(), rel=0.02)
        assert law.var() == pytest.approx(stat.var(), rel=0.05)

    def test_chi_square_quantile_inverts_cdf(self):
        spec = ModelSpec(4, 3, 0.5, 0.0)
        law = norm_p_limit(spec, classify_point(spec))
        for u in (1e-6, 0.025, 0.1, 0.5, 0.9, 0.975, 1 - 1e-6):
            assert abs(law.cdf(law.quantile(u)) - u) <= 1e-12


def _fixed_steps(cdf, u, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if cdf(mid) >= u:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _old_quantile(law, u):
    """The fixed-step bisection loops that the shared quantile helper replaced."""
    if isinstance(law, ComposedLaw):
        return _fixed_steps(law.cdf, u, float(law._t_grid[0]), float(law._t_grid[-1]), 120)
    if isinstance(law, SquaredGridLaw):
        return _fixed_steps(law.cdf, u, 0.0, law.c * law.base.x[-1] ** 2, 120)
    if u <= law.neg_inf_mass:
        return -math.inf
    if u > 1.0 - law.pos_inf_mass:
        return math.inf
    lo, hi = -1.0, 1.0
    while law.cdf(lo) > u - 1e-15 and lo > -1e12:
        lo *= 4
    while law.cdf(hi) < u and hi < 1e12:
        hi *= 4
    return _fixed_steps(law.cdf, u, lo, hi, 200)


def _in_atom(law, u):
    return any(float(law.cdf(a.location)) - a.mass < u <= float(law.cdf(a.location))
               for a in getattr(law, "atoms", ()))


def _quantile_cases():
    cases = []
    for p, q in ((4, 3), (4, 4)):
        sp = compute_special_point(p, q)
        spec = ModelSpec(p, q, sp.beta_tilde, sp.h_tilde)
        pc = classify_point(spec)
        cases += [(f"G1({p},{q})", hhat_limit(spec, pc)), (f"L1({p},{q})", bhat_limit(spec, pc))]
    type_ii = ModelSpec(4, 2, 2 / 3, 0.0)
    cases.append(("G2", hhat_limit(type_ii)))
    cases.append(("SexticSquared", norm_p_limit(type_ii)))
    sp22 = compute_special_point(2, 2)
    cases.append(("QuarticSquared", norm_p_limit(ModelSpec(2, 2, sp22.beta_tilde, 0.0))))
    from tensorpotts.inference import critical_slice_beta

    critical = [ModelSpec(7, 5, 2.0, 0.0), ModelSpec(4, 3, 1.3 * compute_beta_c(4, 3), 0.0)]
    cases += [(f"hhat{s}", hhat_limit(s)) for s in critical]
    for p, q, h in ((7, 5, 0.0), (4, 3, 0.0), (4, 3, 0.2), (7, 5, 0.5)):
        beta = compute_beta_c(p, q) if h == 0.0 else critical_slice_beta(p, q, h)[0]
        s = ModelSpec(p, q, beta, h)
        cases += [(f"hhat{s}", hhat_limit(s)), (f"bhat{s}", bhat_limit(s))]
    for s in (ModelSpec(4, 2, 0.9, 0.0), ModelSpec(4, 3, 1.25, 0.0)):
        direction = np.linspace(1.0, -0.5, s.q)
        cases.append((f"projection{s}", critical_mixture_law(s).project(direction)))
    return cases


_QUANTILE_US = (1e-6, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 1 - 1e-6)


def test_quantile_helper_matches_fixed_step_loops():
    cases = _quantile_cases()
    assert sum(isinstance(law, MixtureLaw) for _, law in cases) == 12
    compared = 0
    for name, law in cases:
        for u in _QUANTILE_US:
            if _in_atom(law, u):
                continue
            old, new = _old_quantile(law, u), law.quantile(u)
            assert new == old, (name, u, new, old)
            compared += 1
    assert compared >= 140  # 162 (law, u) pairs, the atom ones skipped


def test_quantile_inside_an_atom_is_the_atom():
    # weakly critical h-hat law: half-normals plus mass 1/2 at 0
    law = hhat_limit(ModelSpec(4, 3, 1.3 * compute_beta_c(4, 3), 0.0))
    atom = law.atoms[0]
    top = float(law.cdf(atom.location))
    for u in (0.5, top, top - atom.mass + 1e-9):
        assert law.quantile(u) == 0.0
    assert law.quantile(top - atom.mass - 1e-6) < 0.0 < law.quantile(top + 1e-6)
    # the atom is found by one cdf call, not by bisecting down to the floats
    # around 0 (about 1075 steps)
    calls = []
    cdf = law.cdf
    law.cdf = lambda x: calls.append(x) or cdf(x)
    assert law.quantile(0.5) == 0.0 and len(calls) == 1


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    from tensorpotts.laws import _ndtr

    x = np.concatenate([np.linspace(-37.0, 8.3, 200_001),
                        np.random.default_rng(3).uniform(-37.0, 8.3, 100_000)])
    ref = ndtr(x)
    got = _ndtr(x)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    # a scalar runs the same operations as an array entry
    assert all(_ndtr(v) == g for v, g in zip(x[::997], got[::997]))
    assert _ndtr(0.0) == 0.5 and np.array_equal(_ndtr([-np.inf, np.inf]), [0.0, 1.0])


def test_normal_quantile_matches_scipy_ndtri():
    from scipy.special import ndtri

    from tensorpotts.laws import _ndtri

    u = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20_001),
                        np.random.default_rng(4).uniform(1e-6, 1.0 - 1e-6, 20_000)])
    ref = ndtri(u)
    # AS241 and ndtri each sit a few ulp from mpmath, and up to 7 ulp apart
    assert np.all(np.abs(_ndtri(u) - ref) <= 8 * np.spacing(np.abs(ref)))
    assert _ndtri(0.975) == 1.9599639845400536
    assert np.array_equal(_ndtri([0.0, 1.0]), [-np.inf, np.inf])


class TestKsDistance:
    def test_exact_quantiles_give_small_ks(self):
        law = NormalLaw(0.0, 1.0)
        n = 1000
        xs = law.quantile((np.arange(n) + 0.5) / n)
        assert ks_distance(xs, law) <= 0.5 / n + 1e-9

    def test_shifted_sample_flags(self):
        law = NormalLaw(0.0, 1.0)
        xs = law.quantile((np.arange(500) + 0.5) / 500) + 1.0
        assert ks_distance(xs, law) > 0.3


class TestSerialization:
    def test_density_table(self, special43):
        spec, pc = special43
        x, pdf, cdf = density_table(quartic_law(spec, point_class=pc))
        assert len(x) == len(pdf) == len(cdf)
        assert np.all(np.diff(cdf) >= 0)
