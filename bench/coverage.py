"""coverage: the coverage-study use case at a regular point.

The exact law and both profiles are built once per pass; then one op per
replicate runs mle_h, ci_h, mle_beta and ci_beta on a benchmark-drawn data
vector.  Profile evaluations dominate: every bisection step reweights the
full support.
"""

from __future__ import annotations

import numpy as np

from common import Op, check_law, draw_data, traced_profile

P, Q, BETA, H = 4, 3, 0.616, 0.67
N, REPLICATES = 1000, 100
TINY_N, TINY_REPLICATES = 100, 3
RESIDUAL_TOL = 1e-10


def setup(tp, rng, tiny):
    spec = tp.ModelSpec(P, Q, BETA, H)
    n = TINY_N if tiny else N
    law = tp.magnetization_law(spec, n)
    data = draw_data(law, rng, TINY_REPLICATES if tiny else REPLICATES)
    return {"spec": spec, "N": n, "data": data, "built": {}}


def _profile_op(tp, state, cls_name, method, stat):
    """Build a profile; check it against the exact law's expectation of stat."""
    spec, n, built = state["spec"], state["N"], state["built"]

    def fn(tr):
        cls = traced_profile(tp, tr, cls_name, method) if tr.enabled else getattr(tp, cls_name)
        built[cls_name] = tr.call(f"exact.{cls_name}", cls, spec, n)
        return built[cls_name]

    def check(profile):
        law = built.get("law")
        if law is None:
            return f"exact.{cls_name}: no exact law to check against"
        expected = float(np.exp(law.log_probs) @ stat(law.support / n))
        param = spec.h if cls_name == "HProfile" else spec.beta
        got = getattr(getattr(tp, cls_name), method)(profile, param)
        if abs(got - expected) > RESIDUAL_TOL:
            return f"exact.{cls_name}: {method} differs from the exact law by {got - expected:.3g}"
        return None

    return Op(f"build_{cls_name}", fn, check)


def _replicate_op(tp, state, x):
    spec, n, built = state["spec"], state["N"], state["built"]
    pnorm = float(np.sum(x ** spec.p))

    def fn(tr):
        est_h = tr.call("inference.mle_h", tp.mle_h, spec, float(x[0]), n, profile=built["HProfile"])
        tr.count("inference.mle_h.iterations", est_h.iterations)
        ci_h = tr.call("inference.ci_h", tp.ci_h, spec, x, n, estimate=est_h)
        est_b = tr.call("inference.mle_beta", tp.mle_beta, spec, pnorm, n, profile=built["BProfile"])
        tr.count("inference.mle_beta.iterations", est_b.iterations)
        ci_b = tr.call("inference.ci_beta", tp.ci_beta, spec, x, n, estimate=est_b)
        return est_h, ci_h, est_b, ci_b

    def check(out):
        est_h, ci_h, est_b, ci_b = out
        checks = (("inference.mle_h", est_h, ci_h, tp.HProfile.u1, built["HProfile"], float(x[0])),
                  ("inference.mle_beta", est_b, ci_b, tp.BProfile.up, built["BProfile"], pnorm))
        for layer, est, cs, fn_, profile, observed in checks:
            residual = abs(fn_(profile, est.estimate) - observed)
            if not est.converged or residual > RESIDUAL_TOL:
                return f"{layer}: residual {residual:.3g} (converged={est.converged})"
            lo, hi = cs.interval
            if not lo <= est.estimate <= hi:
                return f"{layer}: interval {cs.interval} misses the estimate {est.estimate}"
        return None

    return Op("replicate", fn, check)


def ops(tp, state):
    spec, n, built = state["spec"], state["N"], state["built"]

    def build_law(tr):
        built.clear()
        law = tr.call("exact.magnetization_law", tp.magnetization_law, spec, n)
        tr.count("exact.magnetization_law.support_rows", len(law.log_probs))
        built["law"] = law
        return law

    return ([Op("magnetization_law", build_law, lambda law: check_law(law, n)),
             _profile_op(tp, state, "HProfile", "u1", lambda x: x[:, 0]),
             _profile_op(tp, state, "BProfile", "up", lambda x: np.sum(x ** spec.p, axis=1))]
            + [_replicate_op(tp, state, x) for x in state["data"]])
