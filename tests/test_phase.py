"""Maximizer structure, classification, and phase-diagram landmarks.

Benchmark points quoted to three decimals (0.965, 0.2), (0.778, 0.485) are
rounded figure locations: the exact strongly-critical/special points sit
within about 1e-3 of them, so tests at the literal points use loosened tie and
classification tolerances sized to that rounding.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorpotts import (
    ModelSpec,
    PointTag,
    classify_point,
    compute_beta_c,
    compute_special_point,
    critical_curve,
    f_deriv,
    find_stationary_points,
    full_maximizer_set,
    global_maximizers_1d,
    phase_diagram,
)
from tensorpotts import phase
from tensorpotts.errors import DomainError
from tensorpotts.inference import critical_slice_beta, critical_slice_h
from tensorpotts.phase import (
    TIE_TOL,
    CriticalCurveSample,
    _beaten,
    curve_to_csv,
    trace_critical_curve,
)

from conftest import central_difference, grid_argmax_f, rng

FIGURE_TIE_TOL = 1e-4  # absorbs 3-decimal rounding of the published points
FIGURE_CLASS_TOL = 1e-2
DENSE_GRID = np.linspace(0.0, 1.0 - 1e-9, 200_001)


class TestStationaryPoints:
    def test_subcritical_ising_single_root(self):
        pts = find_stationary_points(ModelSpec(2, 2, 0.5, 0.0))
        assert len(pts) == 1 and pts[0].s == 0.0
        s_grid, _ = grid_argmax_f(ModelSpec(2, 2, 0.5, 0.0), 100_001)
        assert s_grid == pytest.approx(0.0, abs=1e-4)

    def test_three_roots_near_strongly_critical(self):
        pts = find_stationary_points(ModelSpec(4, 3, 0.965, 0.2))
        assert len(pts) == 3
        f2 = [pt.f2 for pt in pts]
        assert f2[0] < 0 and f2[1] > 0 and f2[2] < 0

    def test_type_ii_point_single_root(self):
        pts = find_stationary_points(ModelSpec(4, 2, 2 / 3, 0.0))
        assert len(pts) == 1 and pts[0].s == 0.0

    @pytest.mark.parametrize("h", [1e-16, 2e-16, 1e-15])
    def test_sign_flips_below_the_noise_floor_are_not_roots(self, h):
        # next to the type-II point f' = h/2 - s^5/5 + rounding stays below
        # SIGN_NOISE_FLOOR up to s ~ 0.01, and its sign flips there are noise
        pts = find_stationary_points(ModelSpec(4, 2, 2 / 3, h))
        assert [pt.s for pt in pts] == [0.0]

    def test_residuals_polished(self):
        for spec in (ModelSpec(4, 3, 0.965, 0.2), ModelSpec(7, 5, 1.7, 0.4)):
            for pt in find_stationary_points(spec):
                assert abs(f_deriv(spec, pt.s, 1)) <= 1e-10

    @pytest.mark.parametrize("beta, h", [(2.97, 1.54), (3.135, 0.385), (2.4753, 0.385)])
    def test_residuals_polished_near_the_guard(self, beta, h):
        # maximizers within 1e-6 of s = 1, where |f''| reaches 1e9: one ulp of
        # s moves f' by about 1e-16 |f''|
        spec = ModelSpec(7, 5, beta, h)
        pts = find_stationary_points(spec)
        assert pts[-1].s > 1.0 - 1e-6
        for pt in pts:
            assert abs(f_deriv(spec, pt.s, 1)) <= 1e-12 + 1e-15 * abs(pt.f2)


def _sign_change(fn, lo, hi):
    """The sign change of fn on [lo, hi] (fn(lo) < 0 < fn(hi)), bisected to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid


# the (p, q) with an interior special point, each at beta = beta_tilde (1 + eps)
NEAR_SPECIAL_PQ = [(4, 3), (7, 5), (3, 4), (5, 3), (6, 4)]
NEAR_SPECIAL_EPS = np.geomspace(1e-9, 1e-5, 41)


class TestMonotoneInversion:
    """f' = (q-1)/q (h - H(s)) and f'' = (q-1)/(q^2 ab) (beta R(s) - 1): the
    roots come from the monotone branches of H, split where beta R = 1."""

    @pytest.mark.parametrize("p, q", NEAR_SPECIAL_PQ)
    def test_three_roots_next_to_the_special_point(self, p, q):
        # h at 1/4, 1/2 and 3/4 of the window (H(t2), H(t1)) between the
        # turning points t1 < t2, where f'' = 0; the window is about 6e-14 at
        # eps = 1e-9, and the two maxima tie to rounding
        sp = compute_special_point(p, q)
        for eps in NEAR_SPECIAL_EPS:
            spec0 = ModelSpec(p, q, sp.beta_tilde * (1.0 + eps), 0.0)
            t1 = _sign_change(lambda s: f_deriv(spec0, s, 2), 0.0, sp.s_pq)
            t2 = _sign_change(lambda s: -f_deriv(spec0, s, 2), sp.s_pq, 1.0 - 1e-9)
            big_h = [-q / (q - 1.0) * f_deriv(spec0, t, 1) for t in (t1, t2)]
            assert big_h[0] > big_h[1], (p, q, eps)
            for frac in (0.25, 0.5, 0.75):
                spec = spec0.with_params(h=big_h[1] + frac * (big_h[0] - big_h[1]))
                roots = phase._stationary(spec)
                assert [is_min for _, is_min in roots] == [False, True, False], spec
                assert roots[0][0] < t1 < roots[1][0] < t2 < roots[2][0], spec
                pc = phase._classify(spec, roots, phase.CLASS_TOL, TIE_TOL)
                assert pc.tag is PointTag.STRONGLY_CRITICAL, spec

    def test_r_has_at_most_one_interior_critical_point(self):
        # R'(s) = p (p-1)/q b^(p-1) N(a/b), N(t) = (q-1) - (p-1) t +
        # (q-1) t^(p-2) ((p-1)(q-1) - t), and s in (0, 1) is t = 1 + u with
        # u > 0: the sign changes of the exact coefficients of N(1 + u) bound
        # the interior critical points of R (Descartes); R(1) = 0 < R(s)
        # makes a single one a maximum
        nodes = rng(3).uniform(0.01, 0.99, 5)
        for p in range(2, 41):
            for q in range(2, 9):
                coef = [0] * p
                coef[0] += (q - 1) - (p - 1)
                coef[1] -= p - 1
                for k in range(p - 1):
                    coef[k] += (q - 1) ** 2 * (p - 1) * math.comb(p - 2, k)
                for k in range(p):
                    coef[k] -= (q - 1) * math.comb(p - 1, k)
                signs = [c for c in coef if c != 0]
                changes = sum(x * y < 0 for x, y in zip(signs, signs[1:]))
                s_c = phase._r_peak(p, q)[0]
                assert changes == (0 if s_c is None else 1), (p, q)
                assert (s_c is None) == (q == 2 and p <= 4), (p, q)
                if s_c is not None:
                    assert phase._r(p, q, s_c - 1e-6)[1] > 0 > phase._r(p, q, s_c + 1e-6)[1]
                for s in nodes:
                    a, b = (1 + (q - 1) * s) / q, (1 - s) / q
                    t = a / b
                    n = (q - 1) - (p - 1) * t + (q - 1) * t ** (p - 2) * ((p - 1) * (q - 1) - t)
                    r1 = phase._r(p, q, s)[1]
                    scale = p * p * (q * a ** (p - 2) + b ** (p - 2))
                    assert abs(r1 - p * (p - 1.0) / q * b ** (p - 1) * n) <= 1e-12 * scale
                    fd = central_difference(lambda x: phase._r(p, q, x)[0], s, 1e-6)
                    assert abs(r1 - fd) <= 1e-7 * scale

    @pytest.mark.parametrize("p, q", [(2, 3), (4, 2), (4, 3), (7, 5), (12, 8)])
    def test_h_and_r_give_the_first_two_f_derivatives(self, p, q):
        for beta in (0.3, 1.1):
            for h in (0.0, 0.7):
                spec = ModelSpec(p, q, beta, h)
                for s in (0.0, 0.2, 0.61, 0.93):
                    a, b = (1 + (q - 1) * s) / q, (1 - s) / q
                    big_h, slope = phase._big_h(p, q, beta, s)
                    f2 = (q - 1) / (q * q * a * b) * (beta * phase._r(p, q, s)[0] - 1)
                    assert f_deriv(spec, s, 1) == pytest.approx((q - 1) / q * (h - big_h),
                                                                rel=1e-12, abs=1e-13)
                    assert f_deriv(spec, s, 2) == pytest.approx(f2, rel=1e-12, abs=1e-13)
                    assert slope == pytest.approx(-q / (q - 1) * f2, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("p, q", [(4, 3), (4, 4), (7, 5), (5, 3), (6, 4)])
    def test_special_witness_is_s_pq(self, p, q):
        # f' is cubic at s_pq, and H is flat to rounding over ~1e-5 around it:
        # the floor rule makes s_pq itself the root
        sp = compute_special_point(p, q)
        pc = classify_point(ModelSpec(p, q, sp.beta_tilde, sp.h_tilde))
        assert pc.tag is PointTag.SPECIAL_TYPE_I
        assert pc.witness.s_values == (sp.s_pq,)


class TestGlobalMaximizers:
    def test_figure_strongly_critical_two_values(self):
        winners = global_maximizers_1d(ModelSpec(4, 3, 0.965, 0.2), tie_tol=FIGURE_TIE_TOL)
        assert len(winners) == 2
        assert abs(winners[0].f_value - winners[1].f_value) <= FIGURE_TIE_TOL

    def test_regular_single_value(self):
        winners = global_maximizers_1d(ModelSpec(4, 3, 0.616, 0.67))
        assert len(winners) == 1

    def test_small_beta_uniform(self):
        winners = global_maximizers_1d(ModelSpec(7, 5, 0.2, 0.0))
        assert len(winners) == 1 and winners[0].s == 0.0

    def test_grid_oracle_agreement(self):
        spec = ModelSpec(5, 3, 1.1, 0.15)
        winners = global_maximizers_1d(spec)
        s_grid, _ = grid_argmax_f(spec, 400_001)
        assert min(abs(w.s - s_grid) for w in winners) < 1e-5


class TestFullMaximizerSet:
    def test_ordered_phase_has_q_vectors(self):
        ms = full_maximizer_set(ModelSpec(7, 5, 2.0, 0.0))
        assert len(ms.vectors) == 5
        assert len(ms.s_values) == 1 and ms.s_values[0] > 0

    def test_axis_transition_has_q_plus_one(self):
        bc = compute_beta_c(7, 5)
        ms = full_maximizer_set(ModelSpec(7, 5, bc, 0.0))
        assert len(ms.vectors) == 6

    def test_field_on_unique(self):
        ms = full_maximizer_set(ModelSpec(4, 3, 0.616, 0.67))
        assert len(ms.vectors) == 1

    def test_field_dominant_first_coordinate(self):
        for spec in (ModelSpec(4, 3, 0.9, 0.3), ModelSpec(7, 5, 1.2, 0.8)):
            for m in full_maximizer_set(spec).vectors:
                assert np.all(m[0] > m[1:])

    def test_min_coordinate_bounds(self):
        spec = ModelSpec(7, 5, 1.7, 0.4)
        bound = (spec.beta * spec.p * (spec.p - 1)) ** (-1.0 / (spec.p - 1))
        for m in full_maximizer_set(spec).vectors:
            assert 0 < np.min(m) <= bound + 1e-12


class TestClassification:
    def test_type_ii_point(self):
        pc = classify_point(ModelSpec(4, 2, 2 / 3, 0.0))
        assert pc.tag is PointTag.SPECIAL_TYPE_II

    def test_figure_special_point(self):
        pc = classify_point(ModelSpec(4, 3, 0.778, 0.485), tol_class=FIGURE_CLASS_TOL)
        assert pc.tag is PointTag.SPECIAL_TYPE_I

    def test_figure_regular_point(self):
        pc = classify_point(ModelSpec(4, 3, 0.616, 0.67))
        assert pc.tag is PointTag.REGULAR
        assert not pc.warnings

    def test_exact_special_point(self):
        sp = compute_special_point(4, 3)
        pc = classify_point(ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde))
        assert pc.tag is PointTag.SPECIAL_TYPE_I

    @pytest.mark.parametrize("h", [0.4834744202549601, 0.48347442025654663])
    def test_next_to_the_special_point_strongly_critical(self, h):
        # beta = beta_tilde (1 + 2e-8), h inside the three-root window
        pc = classify_point(ModelSpec(4, 3, 0.7788818178799327, h))
        assert pc.tag is PointTag.STRONGLY_CRITICAL
        assert len(pc.witness.s_values) == 2

    def test_weakly_critical(self):
        pc = classify_point(ModelSpec(7, 5, 2.0, 0.0))
        assert pc.tag is PointTag.WEAKLY_CRITICAL
        assert len(pc.witness.vectors) == 5

    def test_axis_transition_strongly_critical(self):
        bc = compute_beta_c(7, 5)
        pc = classify_point(ModelSpec(7, 5, bc, 0.0))
        assert pc.tag is PointTag.STRONGLY_CRITICAL

    def test_beta_zero_regular(self):
        pc = classify_point(ModelSpec(4, 3, 0.0, 0.0))
        assert pc.tag is PointTag.REGULAR
        assert np.allclose(pc.witness.vectors[0], 1 / 3)

    def test_nearness_warning(self):
        sp = compute_special_point(4, 3)
        spec = ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde + 2e-4)
        f2 = classify_point(spec).witness.s_values[0]
        f2 = f_deriv(spec, f2, 2)
        # pick the tolerance so |f''| lands inside the (tol, 10 tol) band
        pc = classify_point(spec, tol_class=abs(f2) / 5.0)
        assert pc.tag is PointTag.REGULAR
        assert pc.warnings

    def test_tolerances_must_be_positive(self):
        spec = ModelSpec(4, 3, 0.616, 0.67)
        for call in (lambda: classify_point(spec, tol_class=0.0),
                     lambda: classify_point(spec, tie_tol=0.0),
                     lambda: global_maximizers_1d(spec, tie_tol=-1e-9),
                     lambda: phase_diagram(4, 3, (0.5, 1.0), (0.0, 0.5), 2, tol_class=0.0)):
            with pytest.raises(DomainError):
                call()
        # and finite: nan and inf gave wrong tags or raw errors
        for bad in (math.nan, math.inf):
            for call in (lambda: classify_point(spec, tol_class=bad),
                         lambda: classify_point(spec, tie_tol=bad),
                         lambda: global_maximizers_1d(spec, tie_tol=bad),
                         lambda: phase_diagram(4, 3, (0.5, 1.0), (0.0, 1.0), 3, tol_class=bad)):
                with pytest.raises(DomainError):
                    call()

    def test_json_dict(self):
        d = classify_point(ModelSpec(4, 3, 0.616, 0.67)).to_json_dict()
        assert set(d) == {"tag", "s_values", "f_values", "warnings"}

    def test_random_points_regular_off_critical_set(self):
        # the critical set is Lebesgue-null: random points classify regular
        # unless they happen to sit within tolerance of the curve or the axis ray
        gen = rng(17)
        bc = compute_beta_c(7, 5)
        for _ in range(100):
            beta = float(gen.uniform(1e-3, 2 * bc))
            h = float(gen.uniform(1e-6, 1.0))
            tag = classify_point(ModelSpec(7, 5, beta, h)).tag
            assert tag in (PointTag.REGULAR, PointTag.STRONGLY_CRITICAL)


class TestLandmarks:
    def test_beta_c_closed_forms_q2(self):
        for p in (2, 3, 4):
            assert compute_beta_c(p, 2) == pytest.approx(2 ** (p - 1) / (p * (p - 1)), abs=1e-8)

    def test_beta_c_grid_oracle_bracket(self):
        bc = compute_beta_c(7, 5)
        eps = 1e-7
        below = ModelSpec(7, 5, bc - eps, 0.0)
        above = ModelSpec(7, 5, bc + eps, 0.0)
        s_b, f_b = grid_argmax_f(below, 200_001)
        s_a, f_a = grid_argmax_f(above, 200_001)
        assert s_b == pytest.approx(0.0, abs=1e-4)
        assert s_a > 0.5

    def test_special_point_4_2(self):
        sp = compute_special_point(4, 2)
        assert sp.beta_tilde == pytest.approx(2 / 3, abs=1e-8)
        assert sp.h_tilde == 0.0
        assert sp.s_pq == 0.0
        assert sp.type == "II"

    def test_special_point_small_p_q2_type_i(self):
        for p in (2, 3):
            sp = compute_special_point(p, 2)
            assert sp.beta_tilde == pytest.approx(2 ** (p - 1) / (p * (p - 1)), abs=1e-8)
            assert sp.h_tilde == 0.0
            assert sp.type == "I"

    def test_special_point_7_5(self):
        sp = compute_special_point(7, 5)
        assert sp.h_tilde > 0
        assert sp.type == "I"
        spec = ModelSpec(7, 5, sp.beta_tilde, sp.h_tilde)
        assert abs(f_deriv(spec, sp.s_pq, 1)) < 1e-9
        assert abs(f_deriv(spec, sp.s_pq, 2)) < 1e-7

    def test_sup_f2_increasing_in_beta(self):
        s = np.linspace(0.0, 1.0 - 1e-9, 400_001)
        sups = [f_deriv(ModelSpec(7, 5, b, 0.0), s, 2).max() for b in np.linspace(0.1, 2.0, 8)]
        assert np.all(np.diff(sups) > 0)

    def test_beta_c_large_p_approaches_log_q(self):
        # the tied ordered state approaches the pure coloring, where f = beta,
        # so beta_c decreases in p toward log q
        bcs = [compute_beta_c(p, 6) for p in (3, 5, 7)]
        assert bcs[0] > bcs[1] > bcs[2] > np.log(6)
        assert bcs[2] == pytest.approx(np.log(6), abs=5e-5)

    @pytest.mark.xfail(strict=True, reason=(
        "large p: at q = 3 the ordered maximizer lies inside the 1e-9 boundary "
        "guard, so _axis_tie returns the guard edge 1 - s = 1e-9, where "
        "f' = 0.100, 3.76, 7.42 at p = 20, 25, 30"))
    @pytest.mark.parametrize("p", [20, 25, 30])
    def test_axis_tie_is_stationary_at_large_p(self, p):
        tie = phase._axis_tie(p, 3)
        spec = ModelSpec(p, 3, tie.beta, 0.0)
        assert abs(f_deriv(spec, tie.s_high, 1)) <= phase.STATIONARY_TOL

    def test_landmark_sweep_consistency(self):
        # beta_tilde < beta_c and h_tilde > 0 off the q=2, p<=4 axis cases;
        # the computed special point classifies special at default tolerance
        for p, q in ((5, 2), (2, 3), (6, 4), (3, 6)):
            bc = compute_beta_c(p, q)
            sp = compute_special_point(p, q)
            assert sp.h_tilde > 0 and sp.type == "I"
            assert sp.beta_tilde < bc
            tag = classify_point(ModelSpec(p, q, sp.beta_tilde, sp.h_tilde)).tag
            assert tag is PointTag.SPECIAL_TYPE_I


class TestCriticalCurve:
    def test_empty_for_small_p_q2(self):
        assert critical_curve(4, 2, 50) == []
        assert critical_curve(2, 2, 50) == []

    def test_curve_4_3(self):
        bc = compute_beta_c(4, 3)
        sp = compute_special_point(4, 3)
        curve = critical_curve(4, 3, 60, special=sp)
        assert len(curve) == 60
        betas = np.array([c.beta for c in curve])
        assert betas[0] == pytest.approx(bc, abs=1e-8)
        assert np.all(np.diff(betas) < 0)
        for c in curve[::10]:
            spec = ModelSpec(4, 3, c.beta, c.h)
            assert c.s_low < c.s_high
            assert abs(f_deriv(spec, c.s_low, 0) - f_deriv(spec, c.s_high, 0)) < 1e-9

    def test_figure_point_on_curve(self):
        # phi(0.2) for (4, 3) rounds to the published 0.965
        beta = critical_slice_beta(4, 3, 0.2)[0]
        assert beta == pytest.approx(0.965, abs=5e-4)

    def test_csv_schema(self, tmp_path):
        samples = [CriticalCurveSample(h=0.1, beta=1.0, s_low=0.05, s_high=0.7)]
        path = tmp_path / "curve.csv"
        curve_to_csv(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "h,beta,s_low,s_high"
        vals = [float(v) for v in lines[1].split(",")]
        assert vals == [0.1, 1.0, 0.05, 0.7]


class TestPhaseDiagram:
    def test_grid_classification(self):
        diagram = phase_diagram(4, 2, (0.3, 1.2), (0.0, 0.5), (7, 5), curve_samples=8)
        assert diagram.tags.shape == (5, 7)
        tags = set(t.value for t in diagram.tags.ravel())
        assert "Regular" in tags
        assert diagram.beta_c == pytest.approx(2 / 3, abs=1e-8)
        assert diagram.curve == []

    # (p, q, beta range, h range, beta nodes, h nodes); every box has a row at h = 0
    COLUMN_BOXES = [
        (4, 2, (0.3, 1.2), (0.0, 0.5), 41, 41),  # the README grid
        (4, 3, (0.74, 0.82), (0.42, 0.52), 13, 13),  # across the curve near the special point
        (4, 2, (0.0, 4 / 3), (0.0, 0.5), 21, 11),  # (2/3, 0) on a node: type II
        (7, 5, (1e-3, 3.3), (0.0, 2.2), 13, 13),
        (2, 3, (0.0, 60.0), (0.0, 3.0), 11, 11),  # maximizers at the guard edge
    ]

    @pytest.mark.parametrize("p, q, b_range, h_range, n_b, n_h", COLUMN_BOXES)
    def test_column_scan_equals_single_points(self, p, q, b_range, h_range, n_b, n_h):
        hs = np.linspace(*h_range, n_h)
        tags, most_roots = set(), 0
        for b in np.linspace(*b_range, n_b):
            column = phase._stationary_column(p, q, float(b), hs)
            assert len(column) == n_h
            for h, roots in zip(hs, column):
                spec = ModelSpec(p, q, float(b), float(h))
                assert roots == phase._stationary(spec), spec
                got = phase._classify(spec, roots, phase.CLASS_TOL, TIE_TOL)
                want = classify_point(spec)
                assert (got.tag, got.witness.s_values, got.f_values, got.warnings) == (
                    want.tag, want.witness.s_values, want.f_values, want.warnings), spec
                tags.add(want.tag)
                most_roots = max(most_roots, len(roots))
        if (p, q, n_b) == (4, 2, 21):
            assert PointTag.SPECIAL_TYPE_II in tags
        if (p, q) == (4, 3):
            assert most_roots == 3  # two local maxima: the box reaches across the curve

    def test_readme_grid_tags_pinned(self):
        diagram = phase_diagram(4, 2, (0.3, 1.2), (0.0, 0.5), 41, curve_samples=1)
        tags = ",".join(t.value for t in diagram.tags.ravel())
        assert hashlib.sha256(tags.encode()).hexdigest() == (
            "ac6a8a41879cbf1cd212344155effd8068e71411650f151e654bd72f04005e49")

    def test_resolution_errors_are_typed(self):
        args = (4, 2, (0.3, 1.2), (0.0, 0.5))
        diagram = phase_diagram(*args, np.int64(3), curve_samples=1)
        assert diagram.tags.shape == (3, 3)
        assert phase_diagram(*args, (np.int64(2), 3), curve_samples=1).tags.shape == (3, 2)
        for bad in (2.5, (3,), (3, 3, 3), (2, 2.5), "33", None, 0, (1, 0)):
            with pytest.raises(DomainError):
                phase_diagram(*args, bad, curve_samples=1)


class TestCandidateRule:
    """Strong coupling at h = 0: s = 0 is a local minimum, the maximizer sits
    in the boundary guard, and the point is weakly critical."""

    @pytest.mark.parametrize("p, q, beta", [(4, 3, 10.0), (2, 3, 50.0), (3, 2, 40.0)])
    def test_strong_coupling_weakly_critical(self, p, q, beta):
        pc = classify_point(ModelSpec(p, q, beta, 0.0))
        assert pc.tag is PointTag.WEAKLY_CRITICAL
        assert len(pc.witness.s_values) == 1 and pc.witness.s_values[0] > 0.5
        assert len(pc.witness.vectors) == q

    def test_degenerate_maxima_kept(self):
        # f'' = 0 at the special maximizers: the rising branch of H through
        # s_pq keeps them
        for p, q in ((4, 2), (2, 2), (4, 3)):
            sp = compute_special_point(p, q)
            winners = global_maximizers_1d(ModelSpec(p, q, sp.beta_tilde, sp.h_tilde))
            assert [w.s for w in winners] == pytest.approx([sp.s_pq], abs=1e-4)

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(2, 8), q=st.integers(2, 7),
           beta=st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 60.0)),
           h=st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    def test_reported_maximizers_reach_dense_grid_max(self, p, q, beta, h):
        spec = ModelSpec(p, q, beta, h)
        pc = classify_point(spec)
        best = float(np.max(f_deriv(spec, DENSE_GRID, 0)))
        assert min(pc.f_values) >= best - TIE_TOL
        assert pc.witness.s_values == tuple(
            pt.s for pt in global_maximizers_1d(spec))


# Landmarks, curve samples and slices from the bisection and Brent solvers
# that Newton continuation replaced (beta_c: bisection to 1e-10; special
# point: bisection on sup f'' to 1e-10 and a golden-section argmax; curve and
# T(h): brentq to 1e-12; S(beta): bisection in h to 1e-10).
BISECTION_LANDMARKS = {
    # (p, q): (beta_c, beta_tilde, h_tilde, s_pq, type)
    (2, 2): (1.0000000000291038, 0.9999999999708962, 0.0, 0.0, "I"),
    (3, 2): (0.6666666666569654, 0.6666666666569654, 0.0, 0.0, "I"),
    (4, 2): (0.6666666666569654, 0.6666666666569654, 0.0, 0.0, "II"),
    (5, 2): (0.6941014051844832, 0.6000000000058208, 0.16225735853436318, 0.5773502664076833, "I"),
    (2, 3): (1.3862943611165974, 1.3333333333430346, 0.026480513888428092, 0.24999999564070646, "I"),
    (4, 3): (1.111412010533968, 0.7788818023109343, 0.4834744456250928, 0.6139032821069477, "I"),
    (4, 4): (1.395583139063092, 0.7868492795096245, 0.8712376586828023, 0.6638731127641426, "I"),
    (6, 4): (1.3869078991410788, 0.4976607230200898, 1.508059683007093, 0.7777719260754712, "I"),
    (3, 6): (1.8179433562036138, 1.102614772011293, 0.8471306178946658, 0.5919216889389687, "I"),
    (7, 5): (1.6094896507856902, 0.42027104875887744, 2.0113872064240477, 0.8214285472960225, "I"),
}

BISECTION_CURVES = {
    # critical_curve(p, q, 20): (h, beta, s_low, s_high)
    (4, 3): [
        (0.0, 1.1114120105312322, 0.0, 0.9461685675202991),
        (0.02417372228125464, 1.0930638020312557, 0.01616805129056571, 0.9422108364351726),
        (0.04834744456250928, 1.0748973706627034, 0.03284406154406156, 0.9379396052265896),
        (0.07252116684376392, 1.0569128885112802, 0.05005935139052231, 0.9333234181684577),
        (0.09669488912501856, 1.039110456101757, 0.06785000565345917, 0.9283261661223711),
        (0.12086861140627318, 1.0214901054712398, 0.08625790079024567, 0.9229060673141734),
        (0.14504233368752784, 1.0040518032529588, 0.10533204026815207, 0.9170143394160915),
        (0.16921605596878248, 0.9867954537517806, 0.12513032104823368, 0.9105934398026764),
        (0.19338977825003711, 0.9697209019946575, 0.14572191715540805, 0.9035746880488217),
        (0.21756350053129175, 0.9528279367411813, 0.16719056932093387, 0.8958749817349249),
        (0.24173722281254637, 0.9361162934418047, 0.18963924485183484, 0.8873921414598227),
        (0.26591094509380103, 0.9195856571305202, 0.21319694255420021, 0.8779981102884693),
        (0.29008466737505567, 0.9032356652473101, 0.23802899652857817, 0.8675286538795336),
        (0.3142583896563103, 0.8870659103769147, 0.26435337766702793, 0.8557670625138788),
        (0.33843211193756495, 0.8710759429018755, 0.2924679264983653, 0.8424169214393886),
        (0.3626058342188196, 0.8552652735639124, 0.32279912236406605, 0.8270533446053479),
        (0.38677955650007423, 0.8396333759277099, 0.35599786636684166, 0.8090271943903578),
        (0.4109532787813289, 0.8241796887496646, 0.3931536326430753, 0.7872509328394566),
        (0.4351270010625835, 0.8089036182446532, 0.4363785329924186, 0.7596145594102988),
        (0.45930072334383815, 0.793804540253628, 0.4910935820701039, 0.7206993480797831),
    ],
    (7, 5): [
        (0.0, 1.6094896507915215, 0.0, 0.9999358040094319),
        (0.10056936032120238, 1.5298286717913883, 0.020828444176069234, 0.9998984331855355),
        (0.20113872064240476, 1.4518781213513574, 0.042923349047967796, 0.9998410984194493),
        (0.30170808096360713, 1.375732379111338, 0.06629936553411027, 0.9997542608171855),
        (0.4022774412848095, 1.301483527989613, 0.09096764049396447, 0.9996244482275604),
        (0.5028468016060119, 1.2292200742533521, 0.11693791250154478, 0.9994329189153413),
        (0.6034161619272143, 1.159025636525968, 0.1442213921797766, 0.9991539591179188),
        (0.7039855222484167, 1.0909776536709448, 0.1728344659406155, 0.9987527095012969),
        (0.804554882569619, 1.025146165331837, 0.20280328093197436, 0.9981823555206384),
        (0.9051242428908214, 0.9615927177461937, 0.2341693487582822, 0.9973804107855638),
        (1.0056936032120238, 0.9003694410508978, 0.2669964850945159, 0.9962636372514533),
        (1.1062629635332262, 0.8415183333916951, 0.3013797468054162, 0.9947208167085931),
        (1.2068323238544285, 0.785070773291123, 0.3374576685470699, 0.9926019791258738),
        (1.3074016841756309, 0.7310472668962935, 0.3754303346726415, 0.989701499517332),
        (1.4079710444968334, 0.6794574228575148, 0.4155883867002072, 0.9857299506123943),
        (1.5085404048180358, 0.6303001361773126, 0.45836396334979024, 0.9802637353178908),
        (1.609109765139238, 0.5835639542583373, 0.5044299504799284, 0.9726461658058264),
        (1.7096791254604404, 0.5392275937511524, 0.5549212764952898, 0.9617663100394758),
        (1.8102484857816428, 0.49726057530871304, 0.6120378864255066, 0.9454560317493966),
        (1.910817846102845, 0.45762394436411025, 0.6814036532117062, 0.9181310206645182),
    ],
}

# S(beta) and T(h): (p, q, argument, slice point)
BISECTION_S = [(4, 3, 0.8, 0.449347500870826), (4, 3, 1.0, 0.1506955136871199),
               (7, 5, 0.6, 1.573145852692012), (7, 5, 1.4, 0.2693892349885475)]
BISECTION_T = [(4, 3, 0.1, 1.0366905982878356), (4, 3, 0.4, 0.8311598168668065),
               (7, 5, 0.5, 1.2312375511444886), (7, 5, 1.9, 0.46177699754012586)]


class TestAgainstBisectionSolvers:
    @pytest.mark.parametrize("pq", sorted(BISECTION_LANDMARKS))
    def test_landmarks(self, pq):
        beta_c, beta_tilde, h_tilde, s_pq, kind = BISECTION_LANDMARKS[pq]
        sp = compute_special_point(*pq)
        assert abs(compute_beta_c(*pq) - beta_c) <= 1e-9
        assert abs(sp.beta_tilde - beta_tilde) <= 1e-9
        assert abs(sp.h_tilde - h_tilde) <= 1e-9
        assert sp.type == kind
        # the golden-section argmax of the flat sup of f'' was good to ~1e-8
        # only; Newton on f''' = 0 pins s_pq to rounding (checked below)
        assert abs(sp.s_pq - s_pq) <= 1e-8

    def test_special_maximizer_solves_f3(self):
        for pq in BISECTION_LANDMARKS:
            sp = compute_special_point(*pq)
            spec = ModelSpec(*pq, sp.beta_tilde, sp.h_tilde)
            assert abs(f_deriv(spec, sp.s_pq, 1)) <= 1e-12
            assert abs(f_deriv(spec, sp.s_pq, 2)) <= 1e-12
            assert abs(f_deriv(spec, sp.s_pq, 3)) <= 1e-12

    def test_q2_closed_forms(self):
        for p in (2, 3, 4):
            closed = 2 ** (p - 1) / (p * (p - 1))
            assert abs(compute_beta_c(p, 2) - closed) <= 1e-10
            assert abs(compute_special_point(p, 2).beta_tilde - closed) <= 1e-10

    @pytest.mark.parametrize("pq", sorted(BISECTION_CURVES))
    def test_curve_samples(self, pq):
        curve = critical_curve(*pq, 20)
        assert curve[0].s_low == 0.0
        got = np.array([(c.h, c.beta, c.s_low, c.s_high) for c in curve])
        assert np.max(np.abs(got - np.array(BISECTION_CURVES[pq]))) <= 1e-9

    def test_slices(self):
        for p, q, beta, h in BISECTION_S:
            assert abs(critical_slice_h(p, q, beta)[0] - h) <= 1e-9
        for p, q, h, beta in BISECTION_T:
            assert abs(critical_slice_beta(p, q, h)[0] - beta) <= 1e-9

    def test_slice_h_scans_the_axis_once(self, monkeypatch):
        calls = []
        axis_tie = phase._axis_tie

        def counted(p, q):
            calls.append((p, q))
            return axis_tie(p, q)

        monkeypatch.setattr(phase, "_axis_tie", counted)
        bc = compute_beta_c(4, 3)
        for beta, expect in ((0.8, 0.449347500870826), (bc, 0.0), (bc + 0.5, 0.0)):
            calls.clear()
            assert abs(critical_slice_h(4, 3, beta)[0] - expect) <= 1e-9
            assert len(calls) == 1
        assert critical_slice_h(4, 3, 0.5) == []
        # beta at or above beta_c is the axis start of the continuation
        assert trace_critical_curve(4, 3, "beta", [bc + 0.5])[0].h == 0.0


class TestContinuationInvariants:
    # up to q = 5 at p = 7 the h = 0 maximizer stays >= 6e-5 from the guard;
    # closer to it one ulp of s moves f' by more than 1e-12
    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 7), q=st.integers(2, 5), frac=st.floats(0.0, 0.999, exclude_max=True),
           by_beta=st.booleans())
    def test_tie_invariants(self, p, q, frac, by_beta):
        assume(not (q == 2 and p <= 4))
        bc = compute_beta_c(p, q)
        sp = compute_special_point(p, q)
        if by_beta:
            c = trace_critical_curve(p, q, "beta", [bc - frac * (bc - sp.beta_tilde)])[0]
        else:
            c = trace_critical_curve(p, q, "h", [frac * sp.h_tilde])[0]
        spec = ModelSpec(p, q, c.beta, c.h)
        assert abs(f_deriv(spec, c.s_low, 1)) <= 1e-12
        assert abs(f_deriv(spec, c.s_high, 1)) <= 1e-12
        f_tie = f_deriv(spec, c.s_high, 0)
        assert abs(f_tie - f_deriv(spec, c.s_low, 0)) <= 1e-12
        assert c.s_low < c.s_high
        assert float(np.max(f_deriv(spec, DENSE_GRID, 0))) <= f_tie + TIE_TOL
        if c.h == 0.0:
            assert c.s_low == 0.0

    def test_certificate_flags_a_higher_third_maximum(self):
        c = trace_critical_curve(4, 3, "h", [0.2])[0]
        assert not _beaten(c, 4, 3)
        # at a larger beta the high branch beats the low one by far more than
        # TIE_TOL; a claimed tie that skips it must be rejected
        fake = CriticalCurveSample(h=0.2, beta=c.beta + 0.05, s_low=c.s_low, s_high=c.s_low + 0.01)
        assert _beaten(fake, 4, 3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("param", ["h", "beta"])
    def test_non_finite_targets_raise(self, param, value):
        # halving the step toward a nan target would never reach it
        with pytest.raises(DomainError):
            trace_critical_curve(4, 3, param, [{"h": 0.2, "beta": 1.0}[param], value])
