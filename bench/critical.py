"""critical: limit checks and two-step confidence sets at critical points.

Points: the (4,3) and (4,4) special points, one seeded point on each of their
critical curves, the weakly critical points (p, q, 1.3 beta_c, 0) and the
(4,2) type-II point.  Each point is visited once, then the two special points
once more: those second visits are the only repeats, 6 of the 24 ops of a pass
(25%), so a cache keyed by point has something to hit here and nothing on
atlas or coverage.

Near-critical data can put the plain plug-in interval outside its documented
domain; ``two_step_ci`` then raises ``DegenerateIntervalError`` on rejection.
That op is correct only when the benchmark's own test of the domain agrees;
it is reported among the expected errors.
"""

from __future__ import annotations

import numpy as np

from common import (
    GUARD_EDGE,
    Op,
    Raised,
    check_draws,
    check_law,
    check_maximizers,
    close,
    draw_data,
    traced_profile,
)

# The plain interval's documented precondition error (a PreconditionError).
PLAIN_DOMAIN_ERROR = "DegenerateIntervalError"
CURVES = [(4, 3), (4, 4)]
N_BY_Q = {2: 4000, 3: 500, 4: 120}
DRAWS = 20_000
ALPHA = 0.05
TINY_N, TINY_DRAWS = 60, 2_000
REVISITED = ["special(4,3)", "special(4,4)"]


def setup(tp, rng, tiny):
    points = {}
    for p, q in CURVES[:1] if tiny else CURVES:
        n = TINY_N if tiny else N_BY_Q[q]
        bc, sp = tp.compute_beta_c(p, q), tp.compute_special_point(p, q)
        h = float(rng.uniform(0.2, 0.8)) * sp.h_tilde
        beta = tp.critical_slice_beta(p, q, h, beta_c=bc, special=sp)[0]
        if not tiny:
            points[f"special({p},{q})"] = (tp.ModelSpec(p, q, sp.beta_tilde, sp.h_tilde), n)
        points[f"curve({p},{q})"] = (tp.ModelSpec(p, q, beta, h), n)
        points[f"weak({p},{q})"] = (tp.ModelSpec(p, q, 1.3 * bc, 0.0), n)
    if not tiny:
        points["special(4,2)"] = (tp.ModelSpec(4, 2, 2 / 3, 0.0), N_BY_Q[2])
    laws = {label: tp.magnetization_law(spec, n) for label, (spec, n) in points.items()}
    labels = list(points) + ([] if tiny else REVISITED)
    # one data vector and one sampler seed per visit
    visits = [(label, draw_data(laws[label], rng, 1)[0], int(rng.integers(2 ** 31)))
              for label in labels]
    return {"points": points, "visits": visits, "refs": {},
            "draws": TINY_DRAWS if tiny else DRAWS}


def _params(spec):
    return ("h", "beta") if spec.h > 0 else ("h",)


def _mle(tp, tr, spec, n, x, param):
    cls_name, method = ("HProfile", "u1") if param == "h" else ("BProfile", "up")
    cls = traced_profile(tp, tr, cls_name, method) if tr.enabled else getattr(tp, cls_name)
    profile = tr.call(f"exact.{cls_name}", cls, spec, n)
    if param == "h":
        est = tr.call("inference.mle_h", tp.mle_h, spec, float(x[0]), n, profile=profile)
    else:
        est = tr.call("inference.mle_beta", tp.mle_beta, spec, float(np.sum(x ** spec.p)), n,
                      profile=profile)
    tr.count(f"inference.mle_{param}.iterations", est.iterations)
    return est


def prepare(tp, state, tr):
    """Reference slice points and plain intervals for the two-step checks.

    These are the constituent public calls of ``two_step_ci`` on the same
    inputs; in the traced run they are its labelled probes.
    """
    slices = {}
    for i, (label, x, _) in enumerate(state["visits"]):
        spec, n = state["points"][label]
        for param in _params(spec):
            if (label, param) not in slices:
                slice_fn = tp.critical_slice_h if param == "h" else tp.critical_slice_beta
                slices[label, param] = tr.call(f"inference.critical_slice_{param}", slice_fn,
                                               spec.p, spec.q, spec.beta if param == "h" else spec.h)
            est = _mle(tp, tr, spec, n, x, param)
            ci_fn = tp.ci_h if param == "h" else tp.ci_beta
            try:
                plain = tr.call(f"inference.ci_{param}", ci_fn, spec, x, n, ALPHA, estimate=est).interval
            except Exception as exc:  # two_step_ci raises the same error on rejection
                plain = type(exc).__name__
            state["refs"][i, param] = (slices[label, param], plain, est.estimate)


def _plain_domain_violated(tp, spec, x, param, estimate) -> bool:
    """The benchmark's own test of the plain interval's domain: the plug-in
    s = 1 - q xbar_q must lie in [0, 1 - 1e-9] with f''_{beta,0}(s) < 0 (beta
    known for h, the estimate for beta), and for beta
    p (q-1) (xbar_1^(p-1) - xbar_2^(p-1)) must reach 1e-9."""
    p, q = spec.p, spec.q
    if param == "beta" and abs(p * (q - 1) * (x[0] ** (p - 1) - x[1] ** (p - 1))) < 1e-9:
        return True
    s_plug = 1.0 - q * float(x[-1])
    if not 0.0 <= s_plug <= GUARD_EDGE:
        return True
    beta = spec.beta if param == "h" else estimate
    return float(tp.f_deriv(tp.ModelSpec(p, q, beta, 0.0), s_plug, 2)) >= 0.0


def probes(tp, state, tr):
    """One classify and one build of each estimator limit law per point."""
    for spec, _ in state["points"].values():
        pc = tr.call("phase.classify_point", tp.classify_point, spec)
        tr.call("laws.hhat_limit", tp.hhat_limit, spec, pc)
        tr.call("laws.bhat_limit", tp.bhat_limit, spec, pc)


def _limit_law(tp, tr, spec, pc, rescaled):
    tag = pc.tag
    if tag in (tp.PointTag.SPECIAL_TYPE_I, tp.PointTag.SPECIAL_TYPE_II):
        stat = np.array([r.t_n for r in rescaled])
        if tag is tp.PointTag.SPECIAL_TYPE_I:
            return stat, tr.call("laws.limit_law", tp.quartic_law, spec, point_class=pc)
        return stat, tr.call("laws.limit_law", tp.sextic_law, 0.0)
    direction = np.eye(spec.q)[0]
    stat = np.array([r.w @ direction for r in rescaled])
    build = tp.gaussian_limit_regular if tag is tp.PointTag.REGULAR else tp.critical_mixture_law
    return stat, tr.call("laws.limit_law",
                         lambda: build(spec, point_class=pc).project(direction))


def _limit_check_op(tp, state, spec, n, seed):
    draws_n = state["draws"]

    def fn(tr):
        pc = tr.call("phase.classify_point", tp.classify_point, spec)
        law = tr.call("exact.magnetization_law", tp.magnetization_law, spec, n)
        tr.count("exact.magnetization_law.support_rows", len(law.log_probs))
        draws = tr.call("sampling.exact_sample", tp.exact_sample, law, draws_n, seed)
        tr.count("sampling.exact_sample.draws", len(draws))
        rescaled = tr.call("sampling.rescale", tp.rescale, draws, spec, pc, n)
        tr.count("sampling.rescale.rows", len(rescaled))
        stat, target = _limit_law(tp, tr, spec, pc, rescaled)
        ks = tr.call("laws.ks_distance", tp.ks_distance, stat, target)
        return pc, law, draws, rescaled, ks

    def check(out):
        pc, law, draws, rescaled, ks = out
        reason = (check_maximizers(tp, spec, pc) or check_law(law, n)
                  or check_draws(draws, n))
        if reason:
            return reason
        if len(draws) != draws_n or len(rescaled) != draws_n:
            return f"sampling.rescale: {len(rescaled)} rows for {draws_n} draws"
        if not 0.0 <= ks <= 1.0:
            return f"laws.ks_distance: {ks} outside [0, 1]"
        return None

    return Op("limit_check", fn, check)


def _two_step_op(tp, state, visit, spec, n, x, param):
    def fn(tr):
        try:
            return tr.call("inference.two_step_ci", tp.two_step_ci, spec, x, n, ALPHA, param=param)
        except Exception as exc:
            if type(exc).__name__ != PLAIN_DOMAIN_ERROR:
                raise
            return Raised(PLAIN_DOMAIN_ERROR)

    def check(cs):
        slice_pts, plain, estimate = state["refs"][visit, param]
        if isinstance(cs, Raised):
            if plain == cs.error and _plain_domain_violated(tp, spec, x, param, estimate):
                return None
            return (f"inference.two_step_ci: raised {cs.error} on data inside the plain "
                    f"interval's domain (plain interval {plain})")
        lo, hi = cs.interval
        if cs.method == "two_step":
            if slice_pts and lo == hi and close(lo, slice_pts[0]):
                return None
            if isinstance(plain, tuple) and close(lo, plain[0]) and close(hi, plain[1]):
                return None
        return (f"inference.two_step_ci: {cs.method} interval {cs.interval} is neither "
                f"the singleton at {slice_pts} nor the plain interval {plain}")

    return Op(f"two_step_ci_{param}", fn, check)


def ops(tp, state):
    out = []
    for i, (label, x, seed) in enumerate(state["visits"]):
        spec, n = state["points"][label]
        out.append(_limit_check_op(tp, state, spec, n, seed))
        out += [_two_step_op(tp, state, i, spec, n, x, param) for param in _params(spec)]
    return out
