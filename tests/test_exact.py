"""Exact enumeration engine against configuration-space brute force."""

import gc
import itertools
import math
import time

import numpy as np
import pytest

from tensorpotts import (
    ModelSpec,
    colour_marginals,
    critical_curve,
    full_maximizer_set,
    log_partition,
    magnetization_law,
    tail_prob,
)
from tensorpotts import exact
from tensorpotts.exact import (
    SUPPORT_BYTES,
    BProfile,
    HProfile,
    _n_partitions,
    composition_blocks,
    n_compositions,
)
from tensorpotts.inference import mle_h
from tensorpotts.errors import DomainError, SupportSizeError
from scipy.special import gammaln

from conftest import (
    OrbitSum,
    brute_force_log_partition,
    central_difference,
    log_weights,
    rng,
    stream_expectation,
    stream_tail_prob,
    support,
)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(N=st.integers(1, 25), q=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_composition_enumeration_properties(N, q):
    rows = [tuple(c) for c in support(N, q)]
    assert len(rows) == n_compositions(N, q)
    assert rows == sorted(set(rows))
    assert all(sum(r) == N and min(r) >= 0 for r in rows)


class TestCompositions:
    def test_small_case_exact(self):
        assert [tuple(c) for c in support(2, 2)] == [(0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        assert len(support(4, 3)) == 15
        assert n_compositions(1000, 3) == 501501
        total = sum(b.shape[0] for b in composition_blocks(1000, 3))
        assert total == 501501

    def test_lexicographic_unique(self):
        rows = [tuple(c) for c in support(6, 3)]
        assert rows == sorted(set(rows))
        assert all(sum(r) == 6 for r in rows)

    def test_q4_blocks(self):
        rows = [tuple(c) for c in support(5, 4)]
        assert len(rows) == n_compositions(5, 4)
        assert rows == sorted(set(rows))

    def test_cap(self, monkeypatch):
        # the byte budget: (q + 1) * 8 bytes per composition, 16 per orbit of colours 2..q
        spec = ModelSpec(4, 3, 0.6, 0.5)
        law_bytes = n_compositions(100, 3) * 4 * 8
        orbit_bytes = int(_n_partitions(100, 2).sum()) * 16
        monkeypatch.setattr(exact, "SUPPORT_BYTES", law_bytes)
        assert len(magnetization_law(spec, 100).log_probs) == n_compositions(100, 3)
        monkeypatch.setattr(exact, "SUPPORT_BYTES", law_bytes - 1)
        with pytest.raises(SupportSizeError) as err:
            magnetization_law(spec, 100)
        assert (err.value.needed, err.value.budget) == (law_bytes, law_bytes - 1)
        monkeypatch.setattr(exact, "SUPPORT_BYTES", orbit_bytes)
        BProfile(spec, 100)
        monkeypatch.setattr(exact, "SUPPORT_BYTES", orbit_bytes - 1)
        with pytest.raises(SupportSizeError):
            BProfile(spec, 100)
        # tail_prob reads the same orbit rows, at 9 bytes each
        monkeypatch.setattr(exact, "SUPPORT_BYTES", orbit_bytes * 9 // 16)
        tail_prob(spec, 100, 0.1)
        monkeypatch.setattr(exact, "SUPPORT_BYTES", orbit_bytes * 9 // 16 - 1)
        with pytest.raises(SupportSizeError):
            tail_prob(spec, 100, 0.1)

    def test_first_block_beyond_int64_counts(self):
        # C(2009, 9) = 1.3e23 compositions: the blocks themselves have no size
        # check, so the row counts that split them must not wrap
        block = next(composition_blocks(2000, 10))
        assert 0 < len(block) <= exact.BLOCK_ROWS
        assert np.array_equal(block[0], [0] * 9 + [2000])
        assert np.all(block.sum(axis=1) == 2000)
        step = np.diff(block, axis=0)  # strictly increasing: first nonzero step > 0
        assert np.all(step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0)

    @pytest.mark.parametrize("N,q,block_rows", [(6, 2, 1), (7, 3, 1), (7, 3, 4), (5, 4, 3),
                                                (5, 4, 20), (4, 5, 2), (4, 5, 11)])
    def test_small_blocks_match_product(self, N, q, block_rows, monkeypatch):
        # block_rows below the rows of one leading count forces the split by the next count
        monkeypatch.setattr(exact, "BLOCK_ROWS", block_rows)
        blocks = list(composition_blocks(N, q))
        assert all(0 < len(b) <= block_rows for b in blocks)
        expected = [c for c in itertools.product(range(N + 1), repeat=q) if sum(c) == N]
        assert [tuple(r) for r in np.concatenate(blocks)] == expected


class TestLogWeight:
    def test_free_case_sums_to_q_pow_n(self):
        # at beta = h = 0 the law is multinomial(N; 1/3, 1/3, 1/3)
        spec = ModelSpec(3, 3, 0.0, 0.0)
        N = 7
        assert log_partition(spec, N) == pytest.approx(N * math.log(3), rel=1e-14)
        law = magnetization_law(spec, N)
        multinomial = [math.factorial(N) / math.prod(math.factorial(int(k)) for k in c) / 3 ** N
                       for c in law.support]
        assert np.allclose(law.probs(), multinomial, rtol=1e-13, atol=0)

    def test_pure_coloring(self):
        spec = ModelSpec(4, 3, 0.8, 0.3)
        N = 9
        law = magnetization_law(spec, N)
        assert np.array_equal(law.support[-1], [N, 0, 0])
        assert law.log_probs[-1] + log_partition(spec, N) == pytest.approx(
            N * (spec.beta + spec.h), abs=1e-12)

    def test_brute_force_partition(self):
        gen = rng(2)
        for q in (2, 3):
            for _ in range(3):
                spec = ModelSpec(int(gen.integers(2, 5)), q,
                                 float(gen.uniform(0, 2)), float(gen.uniform(0, 1)))
                N = int(gen.integers(3, 9))
                mine = log_partition(spec, N)
                brute = brute_force_log_partition(spec, N)
                assert abs(mine - brute) / abs(brute) < 1e-12

    @pytest.mark.parametrize("q", range(2, 10))
    def test_column_sums_match_row_sums(self, q):
        # conftest's log_weights reduces the (M, q) gathers with .sum(axis=1);
        # numpy adds fewer than 8 terms left to right and 8 or more pairwise
        spec = ModelSpec(3, q, 0.7, 0.3)
        N = 9
        block = support(N, q)
        mine = exact._log_weights(spec, N, block, exact._weight_tables(spec.p, N))
        reference = log_weights(spec, N, block)
        if q <= 7:
            assert mine.tobytes() == reference.tobytes()
        else:
            assert np.max(np.abs(mine - reference) / np.abs(reference)) <= 1e-12

    @pytest.mark.parametrize("q", range(2, 8))
    def test_orbit_block_sums_match_row_sums(self, q):
        # the per-row .sum(axis=1) expressions the orbit blocks were built with
        spec, N = ModelSpec(4, q, 0.616, 0.67), 14
        lgam, xp, x = exact._weight_tables(spec.p, N)
        count, blocks = exact._orbit_blocks(spec, N, 2 * 8)
        rows = 0
        for block, base, pnorm in blocks:
            want = (math.lgamma(N + 1.0) - lgam[block].sum(axis=1)
                    + N * spec.h * x[block[:, 0]] + exact._log_orbit_size(block[:, 1:]))
            assert np.array_equal(base, want)
            assert np.array_equal(pnorm, xp[block].sum(axis=1))
            rows += len(block)
        assert rows == count


class TestPartitionMonotone:
    def test_increasing_in_each_parameter(self):
        N = 40
        base = [log_partition(ModelSpec(4, 3, b, 0.2), N) for b in (0.2, 0.5, 0.9)]
        assert base[0] < base[1] < base[2]
        in_h = [log_partition(ModelSpec(4, 3, 0.5, h), N) for h in (0.0, 0.3, 0.8)]
        assert in_h[0] < in_h[1] < in_h[2]


class TestExactLaw:
    def test_normalization(self):
        law = magnetization_law(ModelSpec(4, 3, 0.9, 0.4), 60)
        assert np.logaddexp.reduce(law.log_probs) == pytest.approx(0.0, abs=1e-10)
        assert len(law.log_probs) == n_compositions(60, 3)

    def test_permutation_symmetry_at_h0(self):
        law = magnetization_law(ModelSpec(3, 3, 1.1, 0.0), 11)
        log_prob = dict(zip(map(tuple, law.support.tolist()), law.log_probs))
        for c in ([4, 5, 2], [0, 11, 0], [7, 3, 1]):
            base = log_prob[tuple(c)]
            for perm in itertools.permutations(c):
                assert log_prob[perm] == base

    @pytest.mark.parametrize("p,q,beta,h,N", [(4, 3, 0.9, 0.4, 60), (2, 2, 1.3, 0.1, 200),
                                              (4, 4, 0.6, 0.2, 40), (3, 5, 1.1, 0.7, 15)])
    def test_log_probs_bit_identical_to_lgamma_formula(self, p, q, beta, h, N):
        law = magnetization_law(ModelSpec(p, q, beta, h), N)
        support = np.array([c for c in itertools.product(range(N + 1), repeat=q)
                            if sum(c) == N]) if q <= 3 else law.support
        assert np.array_equal(law.support, support)
        x = support / N
        log_fact = np.array([math.lgamma(c + 1.0) for c in range(N + 1)])
        lw = math.lgamma(N + 1.0) - log_fact[support].sum(axis=1)
        lw += N * (beta * np.sum(x ** p, axis=1) + h * x[:, 0])
        top = lw.max()
        assert np.array_equal(law.log_probs, lw - (top + math.log(np.exp(lw - top).sum())))

    def test_marginal_sums(self):
        spec = ModelSpec(4, 2, 0.6, 0.1)
        *pmfs, log_z = colour_marginals(spec, 50)
        for pmf in pmfs:
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert len(pmf) == 51
        assert log_z == log_partition(spec, 50)


class TestExpectations:
    def test_free_case_u1(self):
        for q in (2, 3, 4):
            u1 = HProfile(ModelSpec(3, q, 0.0, 0.0), 20).u1(0.0)
            assert u1 == pytest.approx(1 / q, abs=1e-12)

    def test_monotone_grid(self):
        # strict in both parameters on the open quadrant; at h = 0 exactly,
        # exchangeability kills the cross-covariances and u_{N,1} is flat in beta
        N, q = 60, 3
        betas = np.linspace(0.1, 1.1, 4)
        hs = np.linspace(0.1, 0.9, 4)
        u1 = np.array([[HProfile(ModelSpec(4, q, b, h), N).u1(h) for b in betas] for h in hs])
        up = np.array([[BProfile(ModelSpec(4, q, b, h), N).up(b) for b in betas] for h in hs])
        assert np.all(np.diff(u1, axis=0) > 0) and np.all(np.diff(u1, axis=1) > 0)
        assert np.all(np.diff(up, axis=0) > 0) and np.all(np.diff(up, axis=1) > 0)

    def test_h0_axis_cross_flatness(self):
        # the symmetry identity behind the open-quadrant restriction above
        vals = [HProfile(ModelSpec(4, 3, b, 0.0), 40).u1(0.0) for b in (0.2, 0.8, 1.4)]
        assert np.allclose(vals, 1 / 3, atol=1e-12)

    def test_ranges(self):
        spec = ModelSpec(4, 3, 0.9, 0.4)
        N = 80
        assert 1 / 3 - 1e-9 < HProfile(spec, N).u1(spec.h) < 1.0
        assert 3 ** (1 - 4) - 1e-9 < BProfile(spec, N).up(spec.beta) < 1.0

    def test_u1_converges_to_maximizer(self, fig_regular_spec):
        from tensorpotts import classify_point, x_of_s

        pc = classify_point(fig_regular_spec)
        m1 = x_of_s(3, pc.witness.s_values[0])[0]
        gaps = []
        for N in (250, 500, 1000):
            gaps.append(abs(HProfile(fig_regular_spec, N).u1(fig_regular_spec.h) - m1))
        assert gaps[0] > gaps[1] > gaps[2]
        # C/sqrt(N) envelope with a common constant
        c = gaps[0] * math.sqrt(250)
        assert gaps[1] <= 1.2 * c / math.sqrt(500)
        assert gaps[2] <= 1.2 * c / math.sqrt(1000)

    def test_expect_functional(self):
        # the streaming full-support oracle against the c_1 profile
        spec = ModelSpec(4, 3, 0.9, 0.4)
        N = 40
        via_g = stream_expectation(spec, N, lambda x: x[:, 0])
        assert via_g == pytest.approx(HProfile(spec, N).u1(spec.h), abs=1e-14)


class TestTailProb:
    def test_decreasing_in_n(self, fig_regular_spec):
        tails = [tail_prob(fig_regular_spec, N, 0.1) for N in (100, 200, 400)]
        assert tails[0] > tails[1] > tails[2] > 0

    def test_large_eps_zero(self, fig_regular_spec):
        assert tail_prob(fig_regular_spec, 50, 3.0) == 0.0

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_eps_not_positive_raises(self, fig_regular_spec, eps):
        with pytest.raises(DomainError):
            tail_prob(fig_regular_spec, 50, eps)

    def test_log_slope_roughly_constant(self, fig_regular_spec):
        rates = [math.log(tail_prob(fig_regular_spec, N, 0.1)) / N for N in (200, 400)]
        assert all(r < 0 for r in rates)
        assert max(rates) / min(rates) <= 2.0 and min(rates) / max(rates) >= 0.5

    @pytest.mark.parametrize("p,q,beta,h,N", [(4, 3, 0.616, 0.67, 300), (4, 4, 0.6, 0.5, 80),
                                              (4, 4, 1.3, 0.0, 80), (4, 5, 0.6, 0.3, 40)])
    def test_orbits_match_streaming_oracle(self, p, q, beta, h, N):
        spec = ModelSpec(p, q, beta, h)
        maximizers = full_maximizer_set(spec).vectors
        for eps in (0.02, 0.1, 0.3, 3.0):
            got = tail_prob(spec, N, eps)
            want = stream_tail_prob(spec, N, eps, maximizers)
            assert (got == 0.0) == (want == 0.0)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("maximizers", [[(0.5, 0.3, 0.2)], [(0.5, 0.5)]],
                             ids=["not-closed-under-colour-swaps", "wrong-length"])
    def test_bad_maximizers_raise(self, maximizers):
        with pytest.raises(DomainError):
            tail_prob(ModelSpec(4, 3, 0.616, 0.67), 50, 0.1, maximizers=maximizers)

    @pytest.mark.parametrize("point", ["regular", "weakly-critical", "strongly-critical"])
    def test_full_maximizer_sets_are_closed(self, point):
        if point == "strongly-critical":
            sample = critical_curve(4, 3, 5)[2]
            spec = ModelSpec(4, 3, sample.beta, sample.h)
        else:
            spec = {"regular": ModelSpec(4, 3, 0.616, 0.67),
                    "weakly-critical": ModelSpec(4, 3, 1.3, 0.0)}[point]
        maximizers = full_maximizer_set(spec).vectors
        assert 0.0 < tail_prob(spec, 60, 0.05, maximizers=maximizers) < 1.0


class TestProfiles:
    def test_h_profile_matches_direct(self):
        spec = ModelSpec(4, 3, 0.9, 0.0)
        N = 50
        prof = HProfile(spec, N)
        for h in (0.0, 0.2, 0.7):
            assert prof.u1(h) == pytest.approx(
                HProfile(spec.with_params(h=h), N).u1(h), abs=1e-12)

    def test_b_profile_matches_direct(self):
        spec = ModelSpec(4, 3, 0.0, 0.3)
        N = 50
        prof = BProfile(spec, N)
        for b in (0.1, 0.6, 1.2):
            assert prof.up(b) == pytest.approx(
                BProfile(spec.with_params(beta=b), N).up(b), abs=1e-12)

    @pytest.mark.parametrize("p,q,beta,h", [(4, 3, 0.616, 0.67), (2, 2, 1.2, 0.1), (5, 4, 0.3, 0.5)])
    def test_moment_derivatives_match_finite_differences(self, p, q, beta, h):
        spec = ModelSpec(p, q, beta, h)
        N = 60
        hprof, bprof = HProfile(spec, N), BProfile(spec, N)
        assert hprof.moments(h)[0] == hprof.u1(h)
        assert bprof.moments(beta)[0] == bprof.up(beta)
        assert hprof.moments(h)[1] == pytest.approx(
            central_difference(hprof.u1, h, 1e-4), rel=1e-6)
        assert bprof.moments(beta)[1] == pytest.approx(
            central_difference(bprof.up, beta, 1e-4), rel=1e-6)


# (p, q, beta, h), N: the coverage point and beyond, q = 4, strong coupling,
# exact ties at h = 0, and q = 2
PRUNING_POINTS = [((4, 3, 0.616, 0.67), 1000), ((4, 3, 0.616, 0.67), 3000),
                  ((4, 4, 0.6, 0.5), 300), ((4, 3, 2.0, 0.3), 500),
                  ((4, 3, 1.3, 0.0), 500), ((2, 2, 0.5, 0.1), 2000)]
PRUNING_BETAS = np.append(np.linspace(0.0, 2.0, 9),
                          [0.616, 1.3, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0, 1000.0])


@pytest.fixture(scope="module", params=PRUNING_POINTS,
                ids=[f"{p}-{q}-{beta}-{h}-{N}" for (p, q, beta, h), N in PRUNING_POINTS])
def pruned_and_full(request):
    point, N = request.param
    spec = ModelSpec(*point)
    return BProfile(spec, N), OrbitSum(spec, N)


class TestOrbitPruning:
    def test_moments_match_unpruned_sum(self, pruned_and_full):
        profile, full = pruned_and_full
        for beta in PRUNING_BETAS:
            mean, var = profile.moments(beta)
            ref_mean, ref_var = full.moments(beta)
            assert abs(mean - ref_mean) <= 1e-14 * ref_mean, beta
            assert abs(var - ref_var) <= full.N * 1e-14, beta

    def test_dropped_rows_lie_below_cut(self, pruned_and_full):
        profile, full = pruned_and_full
        keep = exact._certified_rows(full.base, full.pnorm)
        assert np.array_equal(profile._rest, full.base[keep])
        assert np.array_equal(profile._pnorm, full.pnorm[keep])
        if keep.all():
            return
        for beta in PRUNING_BETAS:
            lw = full.log_weights(beta)
            assert lw[~keep].max() < lw.max() - exact.CUT, beta

    def test_keeps_a_quarter_at_the_coverage_point(self, fig_regular_spec):
        profile, full = BProfile(fig_regular_spec, 1000), OrbitSum(fig_regular_spec, 1000)
        assert len(full.base) == 251_001
        assert len(profile._rest) < 0.26 * len(full.base)

    def test_build_leaves_no_reference_cycle(self, fig_regular_spec):
        # a cycle would keep the unpruned columns alive until the collector runs
        BProfile(fig_regular_spec, 50)
        gc.collect()
        gc.disable()
        try:
            BProfile(fig_regular_spec, 200).moments(0.6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("beta", [-0.1, -1e-300, math.nan, math.inf])
    def test_moments_outside_the_certificate_raise(self, beta):
        profile = BProfile(ModelSpec(4, 3, 0.616, 0.67), 40)
        with pytest.raises(DomainError):
            profile.moments(beta)


def _compositions(N, q):
    """Compositions of N into q parts by plain recursion: the test oracle."""
    if q == 1:
        yield (N,)
        return
    for c in range(N + 1):
        for rest in _compositions(N - c, q - 1):
            yield (c,) + rest


def _oracle_moments(spec, N, stat):
    """(log Z, E[stat], N Var[stat]) by direct summation over every composition."""
    c = np.array(list(_compositions(N, spec.q)))
    x = c / N
    lw = (gammaln(N + 1) - gammaln(c + 1).sum(axis=1)
          + N * (spec.beta * np.sum(x ** spec.p, axis=1) + spec.h * x[:, 0]))
    top = lw.max()
    w = np.exp(lw - top)
    z = w.sum()
    values = stat(x)
    mean = float(w @ values / z)
    return top + math.log(z), mean, N * float(w @ (values - mean) ** 2 / z)


@given(p=st.integers(2, 6), q=st.integers(2, 5), N=st.integers(1, 14),
       beta=st.floats(0.0, 3.0), h=st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_colour_profile_matches_enumeration(p, q, N, beta, h):
    spec = ModelSpec(p, q, beta, h)
    logz, u1, var1 = _oracle_moments(spec, N, lambda x: x[:, 0])
    assert abs(log_partition(spec, N) - logz) <= 1e-10
    assert abs(HProfile(spec, N).u1(h) - u1) <= 1e-10
    mean, var = HProfile(spec, N).moments(h)
    assert abs(mean - u1) <= 1e-10 and abs(var - var1) <= 1e-10


@given(p=st.integers(2, 6), q=st.integers(2, 6), N=st.integers(1, 14),
       beta=st.floats(0.0, 3.0), h=st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_collapsed_b_profile_matches_full_support(p, q, N, beta, h):
    spec = ModelSpec(p, q, beta, h)
    _, up, var = _oracle_moments(spec, N, lambda x: np.sum(x ** p, axis=1))
    mean, got_var = BProfile(spec, N).moments(beta)
    assert abs(mean - up) <= 1e-12 and abs(got_var - var) <= 1e-10


def test_log_factorials_match_mpmath():
    import mpmath

    log_fact = exact._weight_tables(2, 10 ** 5)[0]
    ks = np.unique(np.concatenate([np.arange(40), [10 ** 5],
                                   rng(5).integers(40, 10 ** 5, 400)]))
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.loggamma(int(k) + 1)) for k in ks])
    assert np.all(np.abs(log_fact[ks] - ref) <= 4 * np.spacing(np.abs(ref)))


def test_log_factorials_are_one_read_only_table():
    ref = np.array([math.lgamma(c + 1.0) for c in range(3001)])
    assert exact._log_factorials(50).tobytes() == ref[:51].tobytes()
    table = exact._log_factorials(3000)
    assert table.tobytes() == ref.tobytes()
    assert not table.flags.writeable
    # a shorter table is a prefix of the same one, not a rebuild
    assert np.shares_memory(exact._weight_tables(4, 100)[0], exact._log_factorials(2000))
    with pytest.raises(ValueError):
        exact._weight_tables(4, 100)[0][0] = 1.0


class TestSupportBudget:
    @pytest.mark.parametrize("q", [4, 5])
    def test_convolution_paths_reach_large_n(self, q):
        # no support is kept: the c_1 profile and the MLE are O(N) at any q
        N = 2000
        spec = ModelSpec(4, q, 0.6, 0.5)
        assert log_partition(spec.with_params(beta=0.0, h=0.0), N) == pytest.approx(
            N * math.log(q), rel=1e-12)
        est = mle_h(spec, HProfile(spec, N).u1(0.5), N)
        assert est.converged and not est.boundary
        assert est.estimate == pytest.approx(0.5, abs=1e-9)
        assert math.isfinite(log_partition(spec, N))

    @pytest.mark.parametrize("build,q,N", [(magnetization_law, 4, 1000),
                                           (magnetization_law, 10, 2000),
                                           (BProfile, 10, 2000)],
                             ids=["law-4-1000", "law-10-2000", "BProfile-10-2000"])
    def test_over_budget_raises_before_allocating(self, build, q, N):
        # (4, 4) at N = 1000 needs 6.7 GB of support; at (4, 10), N = 2000 the
        # orbit and composition counts are beyond int64
        t0 = time.perf_counter()
        with pytest.raises(SupportSizeError) as err:
            build(ModelSpec(4, q, 0.6, 0.5), N)
        assert time.perf_counter() - t0 < 1.0
        assert err.value.budget == SUPPORT_BYTES < err.value.needed
        assert "\n" not in str(err.value)

    def test_expect_up_over_budget_raises_at_once(self):
        # 4.2e10 compositions, 28 GB of orbit rows
        t0 = time.perf_counter()
        with pytest.raises(SupportSizeError):
            BProfile(ModelSpec(4, 5, 0.6, 0.5), 1000).up(0.6)
        assert time.perf_counter() - t0 < 1.0

    def test_tail_prob_over_budget_raises_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(SupportSizeError):
            tail_prob(ModelSpec(4, 5, 0.6, 0.3), 1000, 0.1)
        assert time.perf_counter() - t0 < 1.0
