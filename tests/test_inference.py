"""ML root-finding, confidence intervals, and the two-step procedure."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from tensorpotts import (
    ModelSpec,
    augment_ci,
    ci_beta,
    ci_h,
    compute_beta_c,
    compute_special_point,
    critical_slice_beta,
    critical_slice_h,
    draw_magnetizations,
    exact_sample,
    f_deriv,
    magnetization_law,
    mle_beta,
    mle_h,
    two_step_ci,
)
from tensorpotts.errors import DegenerateIntervalError, DomainError, PreconditionError
from tensorpotts.exact import BProfile, HProfile
from tensorpotts import inference

from conftest import OrbitSum, rng


class TestRootRecovery:
    def test_self_consistency_random_points(self):
        gen = rng(23)
        N = 80
        for _ in range(10):
            p = int(gen.integers(2, 5))
            q = int(gen.integers(2, 4))
            beta0 = float(gen.uniform(0.05, 1.2))
            h0 = float(gen.uniform(0.05, 1.0))
            spec = ModelSpec(p, q, beta0, h0)
            est_h = mle_h(spec, HProfile(spec, N).u1(h0), N)
            assert est_h.converged and abs(est_h.estimate - h0) < 1e-9
            est_b = mle_beta(spec, BProfile(spec, N).up(beta0), N)
            assert est_b.converged and abs(est_b.estimate - beta0) < 1e-9

    def test_residual_bound(self):
        spec = ModelSpec(4, 3, 0.7, 0.4)
        N = 120
        est = mle_h(spec, 0.52, N)
        assert est.converged and est.residual <= 1e-10

    def test_bracket_sign_pattern(self):
        # the profile is increasing across the final bracket
        spec = ModelSpec(4, 3, 0.7, 0.4)
        N = 100
        prof = HProfile(spec, N)
        est = mle_h(spec, 0.55, N, profile=prof)
        lo, hi = est.bracket
        assert prof.u1(lo) <= 0.55 <= prof.u1(hi)

    def test_boundary_flag(self):
        spec = ModelSpec(4, 3, 0.5, 0.0)
        N = 60
        floor = HProfile(spec, N).u1(spec.h)
        est = mle_h(spec, floor - 0.01, N)
        assert est.boundary and est.estimate == 0.0

    def test_symmetric_independence_case(self):
        est = mle_h(ModelSpec(2, 2, 0.0, 0.0), 0.5, 40)
        assert est.estimate == 0.0 and est.boundary

    def test_boundary_of_range_saturates(self):
        # u_{N,p} < 1 for finite beta, but saturates to 1.0 in double precision;
        # the root returned is where the statistic becomes indistinguishable
        spec = ModelSpec(4, 3, 0.0, 0.1)
        est = mle_beta(spec, 1.0, 30)
        assert est.converged and est.residual == 0.0
        assert est.estimate < 64.0

    def test_domain_checks(self):
        spec = ModelSpec(4, 3, 0.5, 0.1)
        with pytest.raises(DomainError):
            mle_h(spec, 1.5, 30)
        with pytest.raises(DomainError):
            mle_beta(spec, 0.01, 30)  # below q^{1-p}

    def test_exact_zero_observation_hits_boundary(self):
        # an empty first color has positive probability in the ordered phase
        spec = ModelSpec(4, 3, 1.3, 0.0)
        est = mle_h(spec, 0.0, 60)
        assert est.boundary and est.estimate == 0.0
        est_b = mle_beta(ModelSpec(4, 3, 0.0, 0.2), 3 ** (1 - 4), 60)
        assert est_b.boundary and est_b.estimate == 0.0


def _reference_root(u, observed: float) -> float:
    """Doubling + plain bisection to a 1e-13 bracket, as an independent oracle."""
    lo, hi = 0.0, 1.0
    while u(hi) < observed:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if u(mid) < observed:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _CountingBProfile(BProfile):
    """BProfile that counts its reweightings (every evaluation is one moments
    call) and its up calls."""

    calls = 0
    value_calls = 0

    def moments(self, beta):
        self.calls += 1
        return super().moments(beta)

    def up(self, beta):
        self.value_calls += 1
        return super().up(beta)


class _CountingHProfile(HProfile):
    """HProfile that counts its reweightings and its u1 calls."""

    calls = 0
    value_calls = 0

    def moments(self, h):
        self.calls += 1
        return super().moments(h)

    def u1(self, h):
        self.value_calls += 1
        return super().u1(h)


class TestNewtonSolver:
    @given(p=st.integers(2, 5), q=st.integers(2, 4), fixed=st.floats(0.0, 1.5),
           target=st.floats(0.05, 2.0), N=st.integers(2, 80),
           param=st.sampled_from(["h", "beta"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bisection(self, p, q, fixed, target, N, param):
        if param == "h":
            spec = ModelSpec(p, q, fixed, 0.0)
            profile = HProfile(spec, N)
            u = profile.u1
            est = mle_h(spec, u(target), N, profile=profile)
        else:
            spec = ModelSpec(p, q, 0.0, fixed)
            profile = BProfile(spec, N)
            u = profile.up
            est = mle_beta(spec, u(target), N, profile=profile)
        assert est.converged and not est.boundary
        assert est.residual <= 1e-12
        assert est.residual == abs(u(est.estimate) - est.observed_statistic)
        assert est.estimate == pytest.approx(_reference_root(u, est.observed_statistic),
                                             abs=1e-11)

    def test_few_reweightings_at_coverage_point(self, fig_regular_spec):
        N = 1000
        profile = _CountingBProfile(fig_regular_spec, N)
        data = exact_sample(magnetization_law(fig_regular_spec, N), 20, seed=71)
        for x in data:
            profile.calls = 0
            est = mle_beta(fig_regular_spec, float(np.sum(x ** 4)), N, profile=profile)
            assert est.converged
            assert profile.calls <= 12

    def test_pruned_solve_matches_unpruned_at_coverage_point(self, fig_regular_spec):
        N = 1000
        pruned, full = BProfile(fig_regular_spec, N), OrbitSum(fig_regular_spec, N)
        # the rows of exact_sample(magnetization_law(...), 20, seed=72)
        for x in draw_magnetizations(fig_regular_spec, N, 20, seed=72):
            observed = float(np.sum(x ** 4))
            got = mle_beta(fig_regular_spec, observed, N, profile=pruned)
            ref = mle_beta(fig_regular_spec, observed, N, profile=full)
            assert got.converged and ref.converged
            assert abs(got.estimate - ref.estimate) <= 1e-13
            assert got.iterations == ref.iterations

    def test_upper_boundary_flagged(self):
        spec = ModelSpec(4, 3, 0.5, 0.1)
        est_h = mle_h(spec, 1.0, 40)
        est_b = mle_beta(spec, 1.0, 40)
        for est in (est_h, est_b):
            assert est.boundary and est.converged
            assert math.isfinite(est.estimate) and est.residual == 0.0


def _ladder_observations(profile_cls, value, stat):
    """50 observations at the coverage point, N = 300: 44 drawn statistics,
    values whose roots lie in later doubling cells, and the supremum 1."""
    spec, N = ModelSpec(4, 3, 0.616, 0.67), 300
    data = exact_sample(magnetization_law(spec, N), 44, seed=81)
    profile = profile_cls(spec, N)
    far = [value(profile, t) for t in (1.5, 3.0, 5.5, 12.0, 40.0)]
    return spec, N, [float(stat(x)) for x in data] + far + [1.0]


LADDER_CASES = [
    (HProfile, mle_h, HProfile.u1, lambda x: x[0]),
    (BProfile, mle_beta, BProfile.up, lambda x: np.sum(x ** 4)),
]


def _solution(est):
    return (est.estimate, est.residual, est.converged, est.boundary, est.bracket)


class TestLadder:
    @pytest.mark.parametrize("profile_cls, mle, value, stat", LADDER_CASES)
    def test_warm_solves_match_fresh_ones(self, profile_cls, mle, value, stat):
        spec, N, observations = _ladder_observations(profile_cls, value, stat)
        gen = rng(82)
        for i, observed in enumerate(observations):
            fresh = mle(spec, observed, N, profile=profile_cls(spec, N))
            warm = profile_cls(spec, N)
            for j in gen.permutation(len(observations)):
                if j != i:
                    mle(spec, observations[j], N, profile=warm)
            got = mle(spec, observed, N, profile=warm)
            assert _solution(got) == _solution(fresh)
            assert got.iterations == fresh.iterations

    @pytest.mark.parametrize("profile_cls, mle, value, stat", LADDER_CASES)
    def test_roots_match_reference_bisection(self, profile_cls, mle, value, stat):
        spec, N, observations = _ladder_observations(profile_cls, value, stat)
        profile = profile_cls(spec, N)
        for observed in observations:
            est = mle(spec, observed, N, profile=profile)
            if est.boundary:
                continue
            assert est.converged
            ref = _reference_root(lambda x: value(profile, x), observed)
            # 1e-13 where u climbs at unit rate or faster; where u is flatter,
            # the width in x of a 1e-13 step in u
            du = profile.moments(est.estimate)[1]
            assert abs(est.estimate - ref) <= 1e-13 / min(1.0, du)

    def test_boundary_paths(self):
        spec, N = ModelSpec(4, 3, 0.616, 0.67), 300
        # at or below u(0): the estimate 0 after the boundary test alone
        for est in (mle_h(spec, 0.0, N, profile=HProfile(spec, N)),
                    mle_beta(spec, 3.0 ** -3, N, profile=BProfile(spec, N))):
            assert (est.estimate, est.iterations, est.bracket) == (0.0, 0, (0.0, 0.0))
            assert est.converged and est.boundary
        # observed = 1: the first ladder node where u rounds to 1, in the bracket
        spec = ModelSpec(4, 3, 0.5, 0.1)
        for mle, profile, value, bracket in (
                (mle_h, HProfile(spec, 40), HProfile.u1, (32.0, 64.0)),
                (mle_beta, BProfile(spec, 40), BProfile.up, (8.0, 16.0))):
            est = mle(spec, 1.0, 40, profile=profile)
            assert est.converged and est.boundary and est.residual == 0.0
            assert est.bracket == bracket
            assert value(profile, est.estimate) == 1.0
            cell = (bracket[1] - bracket[0]) * 2.0 ** -inference._LADDER_DEPTH
            assert value(profile, est.estimate - cell) < 1.0
        # a root above BRACKET_CAP: u(x) = x / (1 + x) reaches 0.99 at x = 99
        got = inference._solve_increasing(lambda x: x / (1.0 + x),
                                          lambda x: (x / (1.0 + x), (1.0 + x) ** -2), {}, 0.99)
        assert got[:5] == (128.0, 7, (64.0, 128.0), False, False) and math.isnan(got[5])

    def test_fresh_solve_calls_value(self, fig_regular_spec):
        for observed in (0.606, 0.9):
            profile = _CountingHProfile(fig_regular_spec, 200)
            mle_h(fig_regular_spec, observed, 200, profile=profile)
            assert profile.value_calls >= 1
        for observed in (0.2, 0.9):
            profile = _CountingBProfile(fig_regular_spec, 200)
            mle_beta(fig_regular_spec, observed, 200, profile=profile)
            assert profile.value_calls >= 1

    def test_warm_profile_needs_few_reweightings(self, fig_regular_spec):
        N = 1000
        data = exact_sample(magnetization_law(fig_regular_spec, N), 40, seed=83)
        h_profile = _CountingHProfile(fig_regular_spec, N)
        b_profile = _CountingBProfile(fig_regular_spec, N)
        for x in data:
            assert mle_h(fig_regular_spec, float(x[0]), N, profile=h_profile).converged
            assert mle_beta(fig_regular_spec, float(np.sum(x ** 4)), N,
                            profile=b_profile).converged
        assert h_profile.calls <= 3 * len(data)
        assert b_profile.calls <= 3 * len(data)


def _closed_form(family: str, a: float, k: float, m: float):
    """(u, u') of an increasing closed-form u on [0, inf) with values below 1."""
    if family == "flat":  # slope 1e-12 .. 3e-8: u' is far below the stop test
        return lambda x: (a + k * 1e-9 * x, k * 1e-9)
    if family == "saturating":  # rounds to 1 at finite x, where u' decays to 0
        return lambda x: (1.0 - (1.0 - a) * math.exp(-k * x), k * (1.0 - a) * math.exp(-k * x))
    if family == "logistic":  # flat, then steep, then saturating; no overflow either side

        def logistic(x):
            t = k * (x - m)
            e = math.exp(-abs(t))
            u = 1.0 / (1.0 + e) if t >= 0 else e / (1.0 + e)
            return u, k * u * (1.0 - u)

        return logistic
    if family == "cubic":  # u'(0) = 0: no slope at the ladder's first node
        return lambda x: (a + (1.0 - a) * x ** 3 / (1.0 + x ** 3),
                          (1.0 - a) * 3.0 * x * x / (1.0 + x ** 3) ** 2)
    return lambda x: (x / (1.0 + x), (1.0 + x) ** -2)  # "cap": u(64) = 64/65


class TestInverseHermiteSteps:
    @given(family=st.sampled_from(["flat", "saturating", "logistic", "cubic", "cap"]),
           a=st.floats(0.0, 0.9), k=st.floats(0.001, 30.0), m=st.floats(0.0, 80.0),
           root=st.one_of(st.floats(0.0, 100.0), st.none()))
    # iterates a few ulps from the root with equal u: no interpolant exists
    @example(family="cubic", a=0.3472548001880606, k=1.0, m=0.0, root=61.48841853177408)
    @example(family="cap", a=0.0, k=1.0, m=0.0, root=63.56090202280688)
    @example(family="logistic", a=0.0, k=0.0029138326263203856, m=2.1644760771728855,
             root=39.58442449493745)
    # u(0) - observed = -2.00000006e-22 misses -tol u'(0) = -2e-22, while
    # observed - tol u'(0) rounds to u(0): the oracle must round as the solver does
    @example(family="flat", a=1e-13, k=2.0, m=0.0, root=1e-13)
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_match_reference_bisection(self, family, a, k, m, root):
        moments = _closed_form(family, a, k, m)

        def value(x):
            return moments(x)[0]

        observed = 1.0 if root is None else value(root)
        got = inference._solve_increasing(value, moments, {}, observed)
        est, _, bracket, converged, boundary, residual = got
        if observed >= 1.0:
            assert boundary
        elif value(0.0) - observed >= -inference.ROOT_STOP_TOL * min(1.0, moments(0.0)[1]):
            assert (est, converged, boundary) == (0.0, True, True)
        elif value(inference.BRACKET_CAP) < observed:
            assert (est, bracket, converged) == (128.0, (64.0, 128.0), False)
        else:
            assert converged and not boundary
            assert residual == abs(value(est) - observed)
            ref = _reference_root(value, observed)
            assert abs(est - ref) <= 1e-13 / min(1.0, moments(est)[1])

    def test_start_is_the_cubic_through_the_cell_ends(self):
        # u = x^3 + x on the cell [0.53125, 0.546875]: the secant point misses
        # the root by 5e-5, the inverse cubic start by 3e-9
        moments = lambda x: (x ** 3 + x, 3.0 * x * x + 1.0)
        calls = []

        def counted(x):
            calls.append(x)
            return moments(x)

        got = inference._solve_increasing(lambda x: moments(x)[0], counted, {}, 0.7)
        assert got[3] and not got[4]
        ref = _reference_root(lambda x: moments(x)[0], 0.7)
        assert abs(got[0] - ref) <= 1e-13
        ladder_nodes = 1 + inference._LADDER_DEPTH  # 0 and the midpoints of [0, 1]
        assert abs(calls[ladder_nodes] - ref) <= 1e-8
        assert len(calls) == ladder_nodes + 2

    def test_interpolant_stays_in_range_at_tiny_u(self):
        # u = 1e-200 e^x: divided differences taken in u itself would reach
        # 1e200^5 and overflow; in u scaled to the nodes' spread they do not
        points = [(x, 1e-200 * math.exp(x), 1e-200 * math.exp(x)) for x in (1.01, 1.0, 1.02)]
        got = inference._inverse_hermite(points, 1e-200 * math.exp(1.005))
        assert abs(got - 1.005) <= 1e-12
        assert inference._inverse_hermite(points[:2], 1e-200 * math.exp(1.005)) == \
            pytest.approx(1.005, abs=1e-9)

    @pytest.mark.parametrize("k", [0.0005, 0.0029, 0.01])
    @pytest.mark.parametrize("x0", [-50.0, 0.0, 20.0])
    def test_flat_logistic_solves_stay_short(self, k, x0):
        # the halving test compares a step with the step before last (rtsafe):
        # against the last step alone, two rounding-level steps in a row on a
        # flat u sent the solve back to bisection, 59 evaluations for the
        # observation 0.538443796849915 at k = 0.0029, x0 = 0
        moments = _closed_form("logistic", 0.0, k, x0)
        lo, hi = moments(0.0)[0], moments(inference.BRACKET_CAP)[0]
        observed = (lo + (hi - lo) * np.linspace(0.01, 0.99, 50)).tolist()
        if (k, x0) == (0.0029, 0.0):
            observed.append(0.538443796849915)
        for obs in observed:
            calls = []

            def counted(x):
                calls.append(x)
                return moments(x)

            got = inference._solve_increasing(lambda x: counted(x)[0], counted, {}, obs)
            assert got[3] and not got[4]
            assert len(calls) <= 25
            ref = _reference_root(lambda x: moments(x)[0], obs)
            assert abs(got[0] - ref) <= 1e-13 / min(1.0, moments(got[0])[1])

    def test_saturated_slopes_fall_back(self):
        # u' = 0 at nodes where u has rounded to 1: no inverse slope, no raise
        moments = lambda x: (min(1.0, 0.5 + x / 10.0), 0.1 if x < 5.0 else 0.0)
        got = inference._solve_increasing(lambda x: moments(x)[0], moments, {}, 1.0)
        assert got[3] and got[4] and moments(got[0])[0] == 1.0


class TestPlainIntervals:
    def test_z_quantile_value(self):
        assert inference._z_quantile(0.05) == 1.9599639845400536
        assert inference._z_quantile(1e-17) == math.inf

    def test_interval_centers_on_estimate(self, fig_regular_spec):
        N = 200
        law = magnetization_law(fig_regular_spec, N)
        data = exact_sample(law, 1, seed=31)[0]
        est = mle_h(fig_regular_spec, float(data[0]), N)
        cs = ci_h(fig_regular_spec, data, N, 0.05, estimate=est)
        assert cs.method == "plain"
        lo, hi = cs.interval
        assert (lo + hi) / 2 == pytest.approx(est.estimate, abs=1e-12)
        # explicit width: (q/(q-1)) sqrt(-f''(s_plug)/N) z
        s_plug = 1 - 3 * float(data[-1])
        half = 1.5 * math.sqrt(-f_deriv(fig_regular_spec.with_params(h=0.0), s_plug, 2) / N)
        assert hi - lo == pytest.approx(2 * half * ndtri(0.975), rel=1e-12)

    def test_width_scales_as_sqrt_n(self, fig_regular_spec):
        widths = {}
        for N in (500, 1000, 2000, 4000):
            law = magnetization_law(fig_regular_spec, N)
            data = exact_sample(law, 1, seed=41)[0]
            widths[N] = ci_h(fig_regular_spec, data, N, 0.05).width()
        assert widths[500] > widths[1000] > widths[2000] > widths[4000]
        # quadrupling N halves the width (up to plug-in noise)
        assert widths[1000] / widths[4000] == pytest.approx(2.0, rel=0.10)

    def test_ci_beta_formula(self):
        spec, N = ModelSpec(4, 2, 0.7, 0.4), 150
        cases = [(spec, N, exact_sample(magnetization_law(spec, N), 1, seed=43)[0]),
                 # colour 2 leads: xbar_1^{p-1} - xbar_2^{p-1} is negative
                 (ModelSpec(4, 3, 0.616, 0.05), 1000, np.array([0.30, 0.40, 0.30]))]
        for spec, N, data in cases:
            p, q = spec.p, spec.q
            est = mle_beta(spec, float(np.sum(data ** p)), N)
            lo, hi = ci_beta(spec, data, N, 0.05, estimate=est).interval
            assert lo <= est.estimate <= hi
            denom = p * (q - 1) * abs(data[0] ** (p - 1) - data[1] ** (p - 1))
            curv = -f_deriv(spec.with_params(beta=est.estimate, h=0.0), 1 - q * data[-1], 2)
            half = q * math.sqrt(curv / N) / denom * ndtri(0.975)
            assert hi - lo == pytest.approx(2 * half, rel=1e-12)

    def test_ci_beta_requires_field(self):
        spec = ModelSpec(4, 2, 0.7, 0.0)
        with pytest.raises(PreconditionError):
            ci_beta(spec, np.array([0.8, 0.2]), 50, 0.05)

    def test_degenerate_plugin_curvature(self):
        # at (4,2) with beta above 2/3, the plug-in f'' at s = 0 is positive
        spec = ModelSpec(4, 2, 0.9, 0.2)
        with pytest.raises(DegenerateIntervalError):
            ci_h(spec, np.array([0.5, 0.5]), 50, 0.05,
                 estimate=mle_h(spec, 0.5, 50))

    def test_ci_beta_degenerate_denominator(self):
        spec = ModelSpec(4, 3, 0.6, 0.2)
        data = np.array([1 / 3, 1 / 3, 1 / 3])
        est = mle_beta(spec, float(np.sum(data ** 4)) + 1e-6, 40)
        with pytest.raises(DegenerateIntervalError):
            ci_beta(spec, data, 40, 0.05, estimate=est)


class TestCriticalSlices:
    def test_h_slice_geometry_7_5(self):
        bc = compute_beta_c(7, 5)
        sp = compute_special_point(7, 5)
        assert critical_slice_h(7, 5, bc + 0.5) == [0.0]
        assert critical_slice_h(7, 5, sp.beta_tilde - 0.05) == []
        mid = 0.5 * (sp.beta_tilde + bc)
        pts = critical_slice_h(7, 5, mid)
        assert len(pts) == 1 and 0 < pts[0] < sp.h_tilde

    def test_h_slice_q2(self):
        assert critical_slice_h(4, 2, 0.8) == [0.0]
        assert critical_slice_h(4, 2, 0.5) == []

    def test_beta_slice(self):
        sp = compute_special_point(4, 3)
        assert critical_slice_beta(4, 3, sp.h_tilde + 0.1) == []
        pts = critical_slice_beta(4, 3, 0.2)
        assert len(pts) == 1 and pts[0] == pytest.approx(0.965, abs=5e-4)
        with pytest.raises(DomainError):
            critical_slice_beta(4, 3, 0.0)

    def test_beta_slice_q2_empty(self):
        assert critical_slice_beta(4, 2, 0.3) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p,q", [(4, 3), (4, 2)])
    def test_non_finite_slice_inputs_raise(self, p, q, value):
        # a nan reaching the curve continuation would halve its step forever
        for slice_fn in (critical_slice_h, critical_slice_beta):
            with pytest.raises(DomainError):
                slice_fn(p, q, value)

    @pytest.mark.parametrize("p,q", [(4, 3), (4, 2)])
    def test_negative_slice_inputs_raise(self, p, q):
        # the curve continuation starts at h = 0 and cannot reach h < 0, and no
        # beta < 0 is a parameter point: both are domain errors (exit 2)
        for slice_fn, value in ((critical_slice_h, -1.0), (critical_slice_beta, -0.1),
                                (critical_slice_h, -1e-300), (critical_slice_beta, -1e-300)):
            with pytest.raises(DomainError):
                slice_fn(p, q, value)

    def test_slice_point_is_critical(self):
        from tensorpotts import PointTag, classify_point

        beta = critical_slice_beta(4, 3, 0.2)[0]
        tag = classify_point(ModelSpec(4, 3, beta, 0.2)).tag
        assert tag is PointTag.STRONGLY_CRITICAL


class TestAugmented:
    def test_appends_outside_point(self):
        from tensorpotts.inference import ConfidenceSet

        cs = ConfidenceSet(interval=(0.4, 0.6), level=0.95, method="plain")
        aug = augment_ci(cs, [0.0])
        assert aug.method == "augmented"
        assert aug.appended_points == [0.0]
        assert aug.contains(0.0) and aug.contains(0.5)

    def test_swallows_inside_point(self):
        from tensorpotts.inference import ConfidenceSet

        cs = ConfidenceSet(interval=(-0.1, 0.6), level=0.95, method="plain")
        aug = augment_ci(cs, [0.0])
        assert aug.appended_points == []


class TestTwoStep:
    def test_regular_slice_empty_returns_plain_interval(self, fig_regular_spec):
        N = 150
        data = exact_sample(magnetization_law(fig_regular_spec, N), 1, seed=51)[0]
        cs = two_step_ci(fig_regular_spec, data, N, 0.05, param="h")
        assert cs.method == "two_step"
        assert cs.width() > 0

    def test_accepts_axis_null_at_h0_data(self):
        # beta above beta_c(4,3): S(beta) = {0}; data simulated at h = 0 should
        # accept the null and return the singleton
        bc = compute_beta_c(4, 3)
        spec = ModelSpec(4, 3, bc + 0.1, 0.0)
        N = 200
        data = exact_sample(magnetization_law(spec, N), 1, seed=53)[0]
        cs = two_step_ci(spec, data, N, 0.05, param="h")
        assert cs.interval == (0.0, 0.0)

    def test_rejects_axis_null_for_extreme_data(self):
        # a first coordinate this extreme forces a large field estimate, so the
        # test statistic escapes the mixture law's acceptance region
        bc = compute_beta_c(4, 3)
        spec = ModelSpec(4, 3, bc + 0.1, 0.6)
        N = 200
        data = np.array([0.995, 0.003, 0.002])
        cs = two_step_ci(spec, data, N, 0.05, param="h")
        assert cs.width() > 0  # plain interval, not the singleton

    def test_i_accepts_moderate_ordered_data(self):
        # above beta_c a strongly ordered sample is compatible with h = 0: the
        # likelihood in h is nearly flat past the basin flip, so the null stands
        bc = compute_beta_c(4, 3)
        spec = ModelSpec(4, 3, bc + 0.1, 0.6)
        N = 200
        data = exact_sample(magnetization_law(spec, N), 1, seed=55)[0]
        cs = two_step_ci(spec, data, N, 0.05, param="h")
        assert cs.interval == (0.0, 0.0)


class TestConfidenceSet:
    """``confidence_set`` gives what the per-parameter calls give, for every
    parameter and method."""

    N = 1000
    METHODS = ("plain", "augmented", "two_step")

    @staticmethod
    def _direct(spec, data, N, param, method):
        if param == "h":
            est = mle_h(spec, float(data[0]), N)
            cs = ci_h(spec, data, N, 0.05, estimate=est)
            slice_pts = critical_slice_h(spec.p, spec.q, spec.beta)
        else:
            est = mle_beta(spec, float(np.sum(data ** spec.p)), N)
            cs = ci_beta(spec, data, N, 0.05, estimate=est)
            slice_pts = critical_slice_beta(spec.p, spec.q, spec.h)
        if method == "augmented":
            cs = augment_ci(cs, slice_pts)
        elif method == "two_step":
            cs = two_step_ci(spec, data, N, 0.05, param=param)
        return est, cs

    # the README point, where both slices are empty; T(0.3) = {0.8966...},
    # which the augmented beta set appends; S(1.3) = {0}, which the two-step
    # h set accepts on data drawn at h = 0
    @pytest.mark.parametrize("spec, param", [
        (ModelSpec(4, 3, 0.616, 0.67), "h"), (ModelSpec(4, 3, 0.616, 0.67), "beta"),
        (ModelSpec(4, 3, 1.3, 0.3), "beta"), (ModelSpec(4, 3, 1.3, 0.0), "h"),
    ], ids=["regular-h", "regular-beta", "curve-slice-beta", "axis-slice-h"])
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_the_per_parameter_calls(self, spec, param, method):
        data = draw_magnetizations(spec, self.N, 1, 5)[0]
        est, cs = inference.confidence_set(spec, data, self.N, 0.05, param, method)
        want_est, want = self._direct(spec, data, self.N, param, method)
        assert est == want_est
        assert (cs.interval, cs.appended_points, cs.method, cs.level) == (
            want.interval, want.appended_points, want.method, want.level)
        assert cs.method == method

    def test_bad_param_or_method(self, fig_regular_spec):
        data = np.array([0.6, 0.2, 0.2])
        for param, method in (("gamma", "plain"), ("h", "exact"), ("beta", None)):
            with pytest.raises(DomainError):
                inference.confidence_set(fig_regular_spec, data, 100, 0.05, param, method)
        with pytest.raises(DomainError):
            two_step_ci(fig_regular_spec, data, 100, 0.05, param="gamma")

    def test_alpha_outside_the_unit_interval(self):
        # S(1.3) = {0} accepts on this data, where alpha = 0 gave the
        # singleton at level 1 with no error
        spec = ModelSpec(4, 3, 1.3, 0.0)
        data = draw_magnetizations(spec, 500, 1, 5)[0]
        for alpha in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError):
                two_step_ci(spec, data, 500, alpha, param="h")
