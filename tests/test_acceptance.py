"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not calibrated; statistical criteria use
the declared seeds.
"""

import math
import time

import numpy as np
import pytest

import tensorpotts as tp
from tensorpotts import laws
from tensorpotts.exact import HProfile

from conftest import trapezoid

REPORT = "ACCEPTANCE {n:>2} [{status}] {desc} ({elapsed:.2f}s)"


def report(n, desc, ok, elapsed):
    print(REPORT.format(n=n, status="PASS" if ok else "FAIL", desc=desc, elapsed=elapsed))
    assert ok, f"criterion {n}: {desc}"


@pytest.fixture(scope="module")
def fig1_setting():
    """(4,3) at the regular benchmark point, with its classification."""
    spec = tp.ModelSpec(4, 3, 0.616, 0.67)
    return spec, tp.classify_point(spec)


@pytest.fixture(scope="module")
def landmarks43():
    return tp.compute_beta_c(4, 3), tp.compute_special_point(4, 3)


def ks_of_projection(draws, m_star, direction, law, N):
    w = (math.sqrt(N) * (draws - m_star)) @ direction
    return tp.ks_distance(w, law)


def test_criterion_1_landmark_exactness():
    t0 = time.time()
    sp = tp.compute_special_point(4, 2)
    ok = (abs(sp.beta_tilde - 2 / 3) <= 1e-8 and abs(sp.h_tilde) <= 1e-8
          and sp.type == "II")
    for p in (2, 3, 4):
        ok &= abs(tp.compute_beta_c(p, 2) - 2 ** (p - 1) / (p * (p - 1))) <= 1e-8
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, "special point (4,2) = (2/3, 0) type II; beta_c(p,2) closed forms", ok, elapsed)


def test_criterion_2_phase_structure_7_5():
    t0 = time.time()
    bc = tp.compute_beta_c(7, 5)
    sp = tp.compute_special_point(7, 5)
    curve = tp.critical_curve(7, 5, 2000, special=sp)
    betas = np.array([c.beta for c in curve])
    ok = (np.isfinite(bc) and bc > 0
          and sp.h_tilde > 0 and sp.type == "I"
          and len(curve) >= 100
          and bool(np.all(np.diff(betas) < 0))
          and abs(betas[0] - bc) <= 1e-6
          and abs(betas[-1] - sp.beta_tilde) <= 1e-3)
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(2, "(7,5): beta_c, type-I special point with h>0, decreasing curve "
              f"phi(0)->beta_c, terminal->beta_tilde [{len(curve)} samples]", ok, elapsed)


def test_criterion_3_oracle_equivalence():
    from conftest import brute_force_log_partition, rng

    t0 = time.time()
    gen = rng(101)
    ok = True
    for q in (2, 3):
        for N in (3, 5, 8):
            for _ in range(5):
                spec = tp.ModelSpec(4, q, float(gen.uniform(0, 2)), float(gen.uniform(0, 1)))
                mine = tp.log_partition(spec, N)
                brute = brute_force_log_partition(spec, N)
                ok &= abs(mine - brute) / abs(brute) <= 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(3, "composition log-partition matches q^N brute force to 1e-12", ok, elapsed)


def test_criterion_4_monotone_likelihood():
    t0 = time.time()
    N, q = 200, 3
    betas = np.linspace(0.1, 1.3, 5)
    hs = np.linspace(0.1, 0.9, 5)
    u1 = np.array([[tp.HProfile(tp.ModelSpec(4, q, float(b), float(h)), N).u1(float(h))
                    for b in betas] for h in hs])
    up = np.array([[tp.BProfile(tp.ModelSpec(4, q, float(b), float(h)), N).up(float(b))
                    for b in betas] for h in hs])
    ok = (bool(np.all(np.diff(u1, axis=0) > 0)) and bool(np.all(np.diff(u1, axis=1) > 0))
          and bool(np.all(np.diff(up, axis=0) > 0)) and bool(np.all(np.diff(up, axis=1) > 0)))
    elapsed = time.time() - t0
    ok &= elapsed < 20.0
    report(4, "u_{N,1}, u_{N,p} strictly increasing on a 5x5 grid, N=200, q=3", ok, elapsed)


def test_criterion_5_derivative_suite():
    from conftest import central_difference, rng

    t0 = time.time()
    gen = rng(7)
    ok = True
    for _ in range(50):
        spec = tp.ModelSpec(int(gen.integers(2, 7)), int(gen.integers(2, 6)),
                            float(gen.uniform(0.05, 2.0)), float(gen.uniform(0.0, 1.0)))
        s = float(gen.uniform(0.02, 0.93))
        for n in range(6):
            fd = central_difference(lambda x, n=n: tp.f_deriv(spec, x, n), s, 1e-5)
            an = tp.f_deriv(spec, s, n + 1)
            ok &= abs(fd - an) <= 1e-6 * max(abs(an), 1e-6)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(5, "f^(n) vs central differences, n <= 5, 50 random (spec, s)", ok, elapsed)


def test_criterion_6_sigma_properties():
    from conftest import rng

    t0 = time.time()
    gen = rng(13)
    checked = 0
    ok = True
    while checked < 20:
        spec = tp.ModelSpec(int(gen.integers(2, 6)), int(gen.integers(2, 6)),
                            float(gen.uniform(0.05, 1.5)), float(gen.uniform(0.05, 1.0)))
        pc = tp.classify_point(spec)
        if pc.tag is not tp.PointTag.REGULAR:
            continue
        sigma = tp.sigma_matrix(spec, pc.witness.s_values[0])
        eigs = np.linalg.eigvalsh(sigma)
        ok &= bool(np.allclose(sigma.sum(axis=1), 0.0, atol=1e-10))
        ok &= eigs.min() >= -1e-10
        ok &= int(np.sum(eigs > 1e-10 * max(eigs.max(), 1.0))) == spec.q - 1
        checked += 1
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(6, "Sigma: zero row sums, PSD, rank q-1 at 20 random regular points", ok, elapsed)


def test_criterion_7_clt_reproduction(fig1_setting):
    """KS of 2e4 exact draws at the declared seed, plus the seed-free
    population-level KS of the full finite-N law against the Gaussian.

    The population KS at N = 1000 is ~0.016, so i.i.d. sampling noise at
    n = 2e4 (~ +/-0.006) makes the sampled statistic seed-sensitive near the
    0.02 tolerance; both the declared-seed statistic and the stronger
    population bound are checked.
    """
    t0 = time.time()
    spec, pc = fig1_setting
    N = 1000
    law = tp.magnetization_law(spec, N)
    m_star = tp.x_of_s(3, pc.witness.s_values[0])
    v = np.array([0.157, 0.396, 0.323])
    proj_law = laws.gaussian_limit_regular(spec, point_class=pc).project(v)
    draws = tp.exact_sample(law, 20_000, seed=1)
    ks_sample = ks_of_projection(draws, m_star, v, proj_law, N)
    proj_all = (math.sqrt(N) * (law.magnetizations() - m_star)) @ v
    order = np.argsort(proj_all)
    cum = np.cumsum(law.probs()[order])
    F = proj_law.cdf(proj_all[order])
    ks_pop = float(np.max(np.maximum(np.abs(F - cum),
                                     np.abs(F - (cum - law.probs()[order])))))
    ok = ks_sample <= 0.02 and ks_pop <= 0.02
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(7, f"CLT at (0.616, 0.67): KS sample = {ks_sample:.4f}, "
              f"population = {ks_pop:.4f} <= 0.02", ok, elapsed)


def test_criterion_8_mixture_weights(landmarks43):
    t0 = time.time()
    bc, sp = landmarks43
    beta_star = tp.critical_slice_beta(4, 3, 0.2, beta_c=bc, special=sp)[0]
    # the strongly critical point at h = 0.2 is the figure's (0.965, 0.2)
    ok = abs(beta_star - 0.965) <= 1e-3
    spec = tp.ModelSpec(4, 3, beta_star, 0.2)
    pc = tp.classify_point(spec)
    weights = tp.mixture_weights(spec, pc)
    N = 800
    law = tp.magnetization_law(spec, N)
    mats = np.stack(pc.witness.vectors)
    d2 = ((law.magnetizations()[:, None, :] - mats[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    probs = law.probs()
    masses = np.array([probs[nearest == k].sum() for k in range(len(mats))])
    ok &= bool(np.all(np.abs(masses - weights) <= 0.02))
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(8, f"basin masses at N=800 vs tau weights: max gap = "
              f"{np.abs(masses - weights).max():.4f} <= 0.02", ok, elapsed)


def test_criterion_9_type_ii_scaling():
    t0 = time.time()
    spec = tp.ModelSpec(4, 2, 2 / 3, 0.0)
    pc = tp.classify_point(spec)
    N = 4000
    law = tp.magnetization_law(spec, N)
    draws = tp.exact_sample(law, 20_000, seed=9)
    t_stat = N ** (1 / 6) * (draws[:, 1] - 0.5)
    ks = tp.ks_distance(t_stat, laws.sextic_law(0.0))
    ok = pc.tag is tp.PointTag.SPECIAL_TYPE_II and ks <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(9, f"type-II scaling at (2/3, 0): KS = {ks:.4f} <= 0.05", ok, elapsed)


def test_criterion_10_type_i_scaling(landmarks43):
    t0 = time.time()
    _, sp = landmarks43
    # the special point of (4,3) is the figure's (0.778, 0.485)
    ok = abs(sp.beta_tilde - 0.778) <= 1e-3 and abs(sp.h_tilde - 0.485) <= 2e-3
    spec = tp.ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde)
    pc = tp.classify_point(spec)
    N = 1000
    law = tp.magnetization_law(spec, N)
    draws = tp.exact_sample(law, 20_000, seed=10)
    rescaled = tp.rescale(draws, spec, pc, N)
    t_stat = np.array([r.t_n for r in rescaled])
    ks = tp.ks_distance(t_stat, laws.quartic_law(spec, point_class=pc))
    ok &= pc.tag is tp.PointTag.SPECIAL_TYPE_I and ks <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(10, f"type-I T_N scaling at the (4,3) special point: KS = {ks:.4f} <= 0.05",
           ok, elapsed)


def test_criterion_11_estimator_consistency_and_coverage(fig1_setting):
    t0 = time.time()
    spec, pc = fig1_setting
    N = 1000
    law = tp.magnetization_law(spec, N)
    profile = HProfile(spec, N)
    s_star = pc.witness.s_values[0]
    sd_theory = math.sqrt(-(9.0 / 4.0) * tp.f_deriv(spec, s_star, 2))
    z = 1.959963984540054
    draws = tp.exact_sample(law, 500, seed=11)
    hhats = np.empty(500)
    covered = 0
    for i, x in enumerate(draws):
        est = tp.mle_h(spec, float(x[0]), N, profile=profile)
        hhats[i] = est.estimate
        s_plug = 1.0 - 3.0 * float(x[2])
        half = 1.5 * math.sqrt(-tp.f_deriv(spec.with_params(h=0.0), s_plug, 2) / N) * z
        covered += (hhats[i] - half <= spec.h <= hhats[i] + half)
    sd_emp = float(np.std(hhats)) * math.sqrt(N)
    coverage = covered / 500.0
    ok = abs(sd_emp - sd_theory) <= 0.15 * sd_theory and 0.92 <= coverage <= 0.98
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    report(11, f"500 replicates at N=1000: sd ratio = {sd_emp / sd_theory:.3f} "
               f"(within 15%), coverage = {coverage:.3f} in [0.92, 0.98]", ok, elapsed)


def test_criterion_12_lln_ldp_decay(fig1_setting):
    t0 = time.time()
    spec, pc = fig1_setting
    maximizers = pc.witness.vectors
    tails = [tp.tail_prob(spec, N, 0.1, maximizers=maximizers) for N in (100, 200, 400)]
    rates = [math.log(t) / N for t, N in zip(tails[1:], (200, 400))]
    ok = (tails[0] > tails[1] > tails[2] > 0
          and all(r < 0 for r in rates)
          and max(rates) / min(rates) <= 2.0
          and min(rates) / max(rates) <= 2.0)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(12, f"tail P(d >= 0.1) decays: {tails[0]:.3g} > {tails[1]:.3g} > "
               f"{tails[2]:.3g}; slope ratio <= 2", ok, elapsed)


def test_criterion_13_law_sanity(fig1_setting, landmarks43):
    t0 = time.time()
    spec_reg, pc_reg = fig1_setting
    bc, sp = landmarks43
    spec_sp = tp.ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde)
    pc_sp = tp.classify_point(spec_sp)
    spec_ii = tp.ModelSpec(4, 2, 2 / 3, 0.0)
    pc_ii = tp.classify_point(spec_ii)
    bc75 = tp.compute_beta_c(7, 5)
    ok = True

    # grid laws integrate to 1 under an independent trapezoid rule
    for law in (laws.quartic_law(spec_sp, point_class=pc_sp),
                laws.quartic_law(spec_sp, 0.5, -0.7, pc_sp),
                laws.sextic_law(0.0), laws.sextic_law(1.2)):
        mass = trapezoid(law.pdf(law.x), law.x)
        ok &= abs(mass - 1.0) <= 1e-8

    # squared laws: substitution y = sqrt(t) smooths the edge
    for law in (laws.norm_p_limit(spec_ii, pc_ii),):
        ys = np.linspace(1e-9, math.sqrt(float(law.c) * law.base.x[-1] ** 2), 40001)
        mass = trapezoid(2 * ys * law.pdf(ys ** 2), ys)
        ok &= abs(mass - 1.0) <= 1e-6

    # composed estimator laws are monotone cdfs on a 200-point grid
    g1 = laws.hhat_limit(spec_sp, pc_sp)
    g2 = laws.hhat_limit(spec_ii, pc_ii)
    l1 = laws.bhat_limit(spec_sp, pc_sp)
    for law in (g1, g2, l1):
        ts = np.linspace(-50.0, 50.0, 200)
        vals = law.cdf(ts)
        ok &= bool(np.all(np.diff(vals) >= -1e-12))
        ok &= bool(np.all((vals >= 0) & (vals <= 1)))

    # mixture masses sum to one
    mixtures = [
        laws.hhat_limit(tp.ModelSpec(7, 5, 2.0, 0.0)),
        laws.hhat_limit(tp.ModelSpec(7, 5, bc75, 0.0)),
        laws.bhat_limit(tp.ModelSpec(7, 5, bc75, 0.0)),
        laws.bhat_limit(tp.ModelSpec(4, 3, 0.5, 0.0)),
        laws.bhat_limit(spec_ii, pc_ii),
    ]
    hml_curve = tp.critical_slice_beta(4, 3, 0.2, beta_c=bc, special=sp)[0]
    mixtures.append(laws.hhat_limit(tp.ModelSpec(4, 3, hml_curve, 0.2)))
    for law in mixtures:
        ok &= abs(law.total_mass - 1.0) <= 1e-12

    # normal laws used at regular points are proper too
    reg = laws.hhat_limit(spec_reg, pc_reg)
    xs = np.linspace(reg.mean() - 8 * math.sqrt(reg.var()),
                     reg.mean() + 8 * math.sqrt(reg.var()), 20001)
    ok &= abs(trapezoid(reg.pdf(xs), xs) - 1.0) <= 1e-8

    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(13, "laws normalize to 1; G1, G2, L1 monotone; mixture masses sum to 1",
           ok, elapsed)
