"""Exact sampler and the rescaled statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from tensorpotts import (
    HProfile,
    ModelSpec,
    classify_point,
    compute_special_point,
    draw_magnetizations,
    exact_sample,
    ks_distance,
    magnetization_law,
    quartic_law,
    rescale,
    u_vector,
    x_of_s,
)
from tensorpotts import exact, sampling
from tensorpotts.errors import DomainError
from tensorpotts.sampling import RescaledSamples, write_samples_csv

from conftest import law_marginal


def rescale_rows(samples, spec, pc, N):
    """Reference: the per-row formulas of the row-at-a-time rescale, as
    (raw, w, t_n, v_n) tuples (t_n and v_n None at the sqrt(N) scalings)."""
    expo = {"SpecialTypeI": 0.25, "SpecialTypeII": 1 / 6}.get(pc.tag.value, 0.5)
    mats = np.stack(pc.witness.vectors, axis=0)
    u = u_vector(spec.q)
    uu = float(u @ u)
    rows = []
    for x in np.asarray(samples, dtype=float):
        k = int(np.argmin(((x[None, :] - mats) ** 2).sum(axis=1)))
        d = x - mats[k]
        w = math.sqrt(N) * d
        if expo == 0.5:
            rows.append((x, w, None, None))
        else:
            coef = float(d @ u) / uu
            rows.append((x, w, N ** expo * coef, math.sqrt(N) * (d - coef * u)))
    return expo, rows


def special_point(p, q):
    sp = compute_special_point(p, q)
    return ModelSpec(p, q, sp.beta_tilde, sp.h_tilde)


class TestExactSampler:
    def test_determinism(self):
        law = magnetization_law(ModelSpec(4, 3, 0.9, 0.4), 40)
        a = exact_sample(law, 500, seed=5)
        b = exact_sample(law, 500, seed=5)
        assert np.array_equal(a, b)
        c = exact_sample(law, 500, seed=6)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("spec, N", [
        (ModelSpec(4, 3, 0.9, 0.4), 40),
        (ModelSpec(2, 2, 0.5, 0.0), 200),
        (ModelSpec(4, 4, 0.6, 0.5), 25),
    ])
    def test_sorted_search_equals_plain_inversion(self, spec, N):
        # the reference searches the uniforms in draw order
        law = magnetization_law(spec, N)
        cum = np.cumsum(law.probs())
        cum[-1] = 1.0
        for seed in (0, 1, 17):
            u = np.random.Generator(np.random.Philox(seed)).random(5000)
            rows = law.support[np.searchsorted(cum, u, side="left")] / N
            assert np.array_equal(exact_sample(law, 5000, seed), rows)

    def test_empty(self):
        law = magnetization_law(ModelSpec(2, 2, 0.5, 0.0), 10)
        assert exact_sample(law, 0, seed=0).shape == (0, 2)

    def test_mean_matches_expectation(self):
        spec = ModelSpec(4, 3, 0.9, 0.4)
        N = 60
        law = magnetization_law(spec, N)
        draws = exact_sample(law, 100_000, seed=1)
        u1 = HProfile(spec, N).u1(spec.h)
        probs = law.probs()
        x1 = law.support[:, 0] / N
        se = math.sqrt(float(probs @ (x1 - u1) ** 2) / len(draws))
        assert abs(draws[:, 0].mean() - u1) <= 4 * se

    def test_chi_square_goodness_of_fit(self):
        # composition counts against the exact pmf, level 1e-3
        spec = ModelSpec(4, 2, 0.8, 0.1)
        N = 40
        law = magnetization_law(spec, N)
        n = 100_000
        draws = exact_sample(law, n, seed=12)
        counts = np.bincount((draws[:, 0] * N).round().astype(int), minlength=N + 1)
        expected = law_marginal(law, 0) * n
        mask = expected >= 5
        stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum()) - 1
        assert stat <= chi2.ppf(1 - 1e-3, dof)


def assert_rows_match_inversion(spec, N, n, seed):
    """``draw_magnetizations`` against ``exact_sample`` on the full support.

    A row may differ only where the uniform lies on a cumulative edge up to
    rounding: every edge between the two rows' support ranks is then within
    1e-12 of it.  Returns the number of differing rows.
    """
    law = magnetization_law(spec, N)
    got = draw_magnetizations(spec, N, n, seed)
    want = exact_sample(law, n, seed)
    assert got.shape == want.shape == (n, spec.q)
    assert np.isfinite(got).all()
    differ = np.flatnonzero((got != want).any(axis=1))
    if len(differ):
        rank = {tuple(c): i for i, c in enumerate(law.support.tolist())}
        cum = np.cumsum(law.probs())
        u = np.random.Generator(np.random.Philox(seed)).random(n)
        for i in differ:
            a, b = sorted(rank[tuple(np.rint(x * N).astype(int).tolist())] for x in (got[i], want[i]))
            assert np.abs(cum[a:b] - u[i]).max() <= 1e-12
    return len(differ)


class TestDrawMagnetizations:
    # Over 700 random points (p <= 6, q <= 5, N <= 40, beta up to 60, h up to
    # 40) and 1.09e6 rows, 0 rows differed from the support inversion.
    @given(p=st.integers(2, 6), q=st.integers(2, 5), N=st.integers(1, 40),
           beta=st.floats(0.0, 4.0), h=st.floats(0.0, 2.0), n=st.integers(0, 1500),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_support_inversion(self, p, q, N, beta, h, n, seed):
        assert assert_rows_match_inversion(ModelSpec(p, q, beta, h), N, n, seed) <= 1e-3 * n

    @pytest.mark.parametrize("spec, N", [
        (ModelSpec(4, 3, 0.616, 0.67), 300),
        (special_point(4, 3), 300),
        (ModelSpec(4, 4, 0.6, 0.5), 60),
        (ModelSpec(2, 3, 60.0, 0.0), 40),
    ], ids=["regular", "type-i", "q4", "zero-mass-cells"])
    def test_small_blocks_leave_rows_unchanged(self, spec, N, monkeypatch):
        # exact._log_convolve in blocks of one row each and of a few rows per
        # block: the partial convolutions, and so the rows drawn, do not change
        for cells in (1, 200):
            monkeypatch.setattr(exact, "CONV_CELLS", cells)
            assert assert_rows_match_inversion(spec, N, 3000, seed=8) == 0

    def test_errors_match_exact_sample(self):
        spec = ModelSpec(4, 3, 0.9, 0.4)
        law = magnetization_law(spec, 20)
        for n, seed in ((-1, 0), (5, -1)):
            for draw in (lambda: exact_sample(law, n, seed),
                         lambda: draw_magnetizations(spec, 20, n, seed)):
                with pytest.raises(DomainError):
                    draw()
        for seed in (0, -1):
            assert draw_magnetizations(spec, 20, 0, seed).shape == (0, 3)
            assert exact_sample(law, 0, seed).shape == (0, 3)
        with pytest.raises(DomainError):
            draw_magnetizations(spec, 0, 5, 0)

    @pytest.mark.parametrize("spec", [
        ModelSpec(4, 3, 0.616, 0.67), ModelSpec(4, 4, 0.6, 0.5), ModelSpec(2, 3, 60.0, 0.0),
    ], ids=["q3", "q4", "strong"])
    def test_exponent_floor_leaves_profile_and_rows_unchanged(self, spec, monkeypatch):
        # the profile spans far more than 700 nats, so the floor is active; terms
        # below e^-700 of a row's largest move neither its sum nor its cumulative row
        N = 3000
        profile = HProfile(spec, N)._L
        rows = draw_magnetizations(spec, N, 5000, seed=3)
        assert profile.max() - profile.min() > 700.0
        monkeypatch.setattr(exact, "EXP_FLOOR", -np.inf)
        assert HProfile(spec, N)._L.tobytes() == profile.tobytes()
        assert np.array_equal(draw_magnetizations(spec, N, 5000, seed=3), rows)

    def test_zero_width_cell_rescales_to_zero(self):
        # exp(-800) is floored to exp(-700): column 0 has mass e^-700 / total,
        # and u = 0 picks it
        base = np.array([-800.0, 0.0, 0.0])
        c, u = sampling._invert_colour(base, np.zeros(3), np.array([2, 2, 1, 0]), np.zeros(4))
        assert c.tolist() == [0, 0, 0, 0]
        assert u.tolist() == [0.0, 0.0, 0.0, 0.0]
        c, u = sampling._invert_colour(base, np.zeros(3), np.array([2, 1]), np.array([0.5, 1.0]))
        assert c.tolist() == [1, 1] and np.isfinite(u).all() and 0.0 <= u.min() <= u.max() <= 1.0

    def test_type_i_limit_beyond_the_support(self):
        # (4,4) special point at N = 4000: 1.07e10 compositions, 2.8e11 support
        # bytes.  KS 0.0168 here against 0.0237 at N = 1000 (seed 1); the
        # N^{1/2} scaling gives 0.41.  Bound 0.03: a margin of 0.013, twice the
        # 0.006 median KS of 20 000 draws from the limit itself.
        spec = special_point(4, 4)
        pc = classify_point(spec)
        assert pc.tag.value == "SpecialTypeI"
        N = 4000
        assert exact.n_compositions(N, 4) > 1e10
        t_n = rescale(draw_magnetizations(spec, N, 20_000, seed=1), spec, pc, N).t_n
        assert ks_distance(t_n, quartic_law(spec, point_class=pc)) <= 0.03


class TestRescale:
    def test_reconstruction_identity_type_i(self):
        sp = compute_special_point(4, 3)
        spec = ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde)
        pc = classify_point(spec)
        N = 150
        draws = exact_sample(magnetization_law(spec, N), 400, seed=2)
        m = x_of_s(3, pc.witness.s_values[0])
        u = u_vector(3)
        for r in rescale(draws, spec, pc, N):
            assert r.scale_exponent == 0.25
            rebuilt = m + N ** -0.25 * r.t_n * u + N ** -0.5 * r.v_n
            assert np.abs(rebuilt - r.raw).max() <= 1e-12
            assert abs(r.v_n.sum()) <= 1e-12
            assert abs(r.v_n @ u) <= 1e-12

    def test_type_ii_scalar_statistic(self):
        spec = ModelSpec(4, 2, 2 / 3, 0.0)
        pc = classify_point(spec)
        assert pc.tag.value == "SpecialTypeII"
        N = 200
        draws = exact_sample(magnetization_law(spec, N), 100, seed=4)
        for r in rescale(draws, spec, pc, N):
            assert r.scale_exponent == pytest.approx(1 / 6)
            assert r.t_n == pytest.approx(N ** (1 / 6) * (r.raw[1] - 0.5), abs=1e-12)

    def test_regular_sqrt_scaling(self, fig_regular_spec):
        pc = classify_point(fig_regular_spec)
        N = 100
        draws = exact_sample(magnetization_law(fig_regular_spec, N), 50, seed=5)
        m = x_of_s(3, pc.witness.s_values[0])
        for r in rescale(draws, fig_regular_spec, pc, N):
            assert r.scale_exponent == 0.5
            assert r.t_n is None and r.v_n is None
            assert np.allclose(r.w, 10.0 * (r.raw - m))

    def test_nearest_maximizer_centering(self):
        # weakly critical: samples center at whichever permutation is closest
        spec = ModelSpec(4, 2, 0.9, 0.0)
        pc = classify_point(spec)
        assert len(pc.witness.vectors) == 2
        N = 80
        draws = exact_sample(magnetization_law(spec, N), 500, seed=6)
        rs = rescale(draws, spec, pc, N)
        dists = [min(np.linalg.norm(r.raw - m) for m in pc.witness.vectors) for r in rs]
        for r, d in zip(rs, dists):
            assert np.linalg.norm(r.w) / math.sqrt(N) == pytest.approx(d, abs=1e-12)


class TestColumns:
    @pytest.mark.parametrize("spec, N, tag", [
        (ModelSpec(4, 3, 0.616, 0.67), 100, "Regular"),
        (ModelSpec(4, 3, 1.2, 0.0), 60, "WeaklyCritical"),
        (special_point(4, 3), 150, "SpecialTypeI"),
        (ModelSpec(4, 2, 2 / 3, 0.0), 200, "SpecialTypeII"),
    ], ids=["regular", "weakly-critical", "type-i", "type-ii"])
    def test_columns_equal_per_row_formulas(self, spec, N, tag):
        pc = classify_point(spec)
        assert pc.tag.value == tag
        draws = exact_sample(magnetization_law(spec, N), 2000, seed=3)
        rs = rescale(draws, spec, pc, N)
        expo, ref = rescale_rows(draws, spec, pc, N)
        if tag == "WeaklyCritical":
            # every one of the q basins is visited, so the nearest-maximizer
            # choice is exercised
            nearest = {int(np.argmax(r.raw)) for r in rs}
            assert nearest == set(range(spec.q))
        assert isinstance(rs, RescaledSamples)
        assert rs.scale_exponent == expo and len(rs) == len(ref) == 2000
        assert np.array_equal(rs.raw, np.array([r[0] for r in ref]))
        assert np.array_equal(rs.w, np.array([r[1] for r in ref]))
        if expo == 0.5:
            assert rs.t_n is None and rs.v_n is None
        else:
            assert rs.t_n.shape == (2000,) and rs.v_n.shape == (2000, spec.q)
            assert np.array_equal(rs.t_n, np.array([r[2] for r in ref]))
            assert np.array_equal(rs.v_n, np.array([r[3] for r in ref]))
        for i, row in enumerate(rs):
            for got in (row, rs[i], rs[i - len(rs)]):
                assert np.array_equal(got.raw, rs.raw[i]) and np.array_equal(got.w, rs.w[i])
                assert got.scale_exponent == expo
                if expo == 0.5:
                    assert got.t_n is None and got.v_n is None
                else:
                    assert type(got.t_n) is float and got.t_n == rs.t_n[i]
                    assert np.array_equal(got.v_n, rs.v_n[i])
        with pytest.raises(IndexError):
            rs[len(rs)]

    @pytest.mark.parametrize("spec", [ModelSpec(4, 3, 0.616, 0.67), special_point(4, 3)],
                             ids=["regular", "type-i"])
    def test_no_samples(self, spec, tmp_path):
        pc = classify_point(spec)
        rs = rescale(np.empty((0, spec.q)), spec, pc, 100)
        assert len(rs) == 0 and not rs and list(rs) == []
        assert rs.raw.shape == rs.w.shape == (0, spec.q)
        special = pc.tag.value == "SpecialTypeI"
        assert (rs.t_n is not None) == (rs.v_n is not None) == special
        if special:
            assert rs.t_n.shape == (0,) and rs.v_n.shape == (0, spec.q)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, rs, spec, 100, seed=0)
        header = "x1,x2,x3,t_n,v_2,v_3" if special else "x1,x2,x3"
        assert path.read_text().splitlines()[1:] == [header]


class TestCsv:
    def test_header_and_columns(self, tmp_path):
        sp = compute_special_point(4, 3)
        spec = ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde)
        pc = classify_point(spec)
        N = 100
        draws = exact_sample(magnetization_law(spec, N), 5, seed=7)
        rs = rescale(draws, spec, pc, N)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, rs, spec, N, seed=7)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#") and "seed=7" in lines[0]
        assert lines[1] == "x1,x2,x3,t_n,v_2,v_3"
        assert len(lines) == 2 + 5
        row = [float(v) for v in lines[2].split(",")]
        assert row[:3] == list(rs[0].raw)
