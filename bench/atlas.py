"""atlas: the phase layer over wide (beta, h) boxes, landmarks, curve and slices.

One op per grid cell calls ``classify_point``.  The boxes reach strong
coupling on purpose: at the seed commit those cells raise, come back with a
maximizer whose f is below the max of f, or come back tagged special, and the
checks count them.
"""

from __future__ import annotations

import math

import numpy as np

from common import DENSE_GRID, Op, check_curve_sample, check_maximizers, check_tie

# (p, q, beta_max, h_max); every box starts at beta = h = 0.  (7,5) reaches
# h = 2.5 so the box covers h_tilde ~ 2.01.
BOXES = [(4, 3, 12.0, 1.0), (7, 5, 12.0, 2.5), (2, 3, 60.0, 1.0), (3, 2, 60.0, 1.0)]
LANDMARKS = [(2, 3), (3, 2), (4, 2), (4, 3), (4, 4), (5, 2), (7, 5)]
CURVE = (7, 5, 48)
SLICE_CURVES = [(4, 3), (7, 5)]
SLICES_PER_CURVE = 2

# q = 2 closed forms: beta_c(p, 2) = 2^(p-1) / (p (p-1)) for p <= 4, where the
# special point sits on the axis at beta_c; (5,2) has s = 1/sqrt(3).
Q2_SPECIAL = {
    3: (2 / 3, 0.0, 0.0, "I"),
    4: (2 / 3, 0.0, 0.0, "II"),
    5: (0.6, math.log(2 + math.sqrt(3)) - 2 / math.sqrt(3), 1 / math.sqrt(3), "I"),
}


def setup(tp, rng, tiny):
    n_beta, n_h = (4, 3) if tiny else (24, 12)
    cells = []
    for p, q, beta_max, h_max in BOXES:
        u_beta, u_h = rng.random(2)
        betas = (np.arange(n_beta) + u_beta) * beta_max / n_beta
        hs = np.concatenate([[0.0], (np.arange(n_h - 1) + u_h) * h_max / (n_h - 1)])
        cells += [tp.ModelSpec(p, q, float(b), float(h)) for h in hs for b in betas]
    slices = []
    for p, q in SLICE_CURVES[:1] if tiny else SLICE_CURVES:
        bc, sp = tp.compute_beta_c(p, q), tp.compute_special_point(p, q)
        for _ in range(1 if tiny else SLICES_PER_CURVE):
            u_beta, u_h = rng.uniform(0.1, 0.9, 2)
            slices.append((p, q, sp.beta_tilde + u_beta * (bc - sp.beta_tilde),
                           u_h * sp.h_tilde))
    return {"cells": cells, "slices": slices,
            "landmarks": LANDMARKS[-1:] if tiny else LANDMARKS,
            "curve": (7, 5, 4) if tiny else CURVE}


def _check_beta_c(tp, p, q, bc):
    def gain(beta):
        spec = tp.ModelSpec(p, q, beta, 0.0)
        f = tp.f_deriv(spec, DENSE_GRID, 0)
        return float(f[1:].max() - f[0]), float(tp.f_deriv(spec, 0.0, 2))

    gain_below, f2_below = gain(bc * (1 - 1e-6))
    gain_above, f2_above = gain(bc * (1 + 1e-6))
    if gain_below > 1e-12 or f2_below > 0:
        return f"phase.compute_beta_c: s > 0 already wins just below beta_c = {bc:.10g}"
    if gain_above <= 0 and f2_above <= 0:
        return f"phase.compute_beta_c: no s > 0 wins just above beta_c = {bc:.10g}"
    if q == 2 and p <= 4 and abs(bc - 2 ** (p - 1) / (p * (p - 1))) > 1e-8:
        return f"phase.compute_beta_c: ({p},2) misses the closed form by {bc - 2 ** (p - 1) / (p * (p - 1)):.3g}"
    return None


def _check_special(tp, p, q, sp):
    spec = tp.ModelSpec(p, q, sp.beta_tilde, sp.h_tilde)
    f1, f2 = (abs(float(tp.f_deriv(spec, sp.s_pq, k))) for k in (1, 2))
    if f1 > 1e-8 or f2 > 1e-6:
        return f"phase.compute_special_point: |f'| = {f1:.3g}, |f''| = {f2:.3g} at s_pq"
    if q == 2 and p in Q2_SPECIAL:
        beta, h, s, kind = Q2_SPECIAL[p]
        if (abs(sp.beta_tilde - beta) > 1e-8 or abs(sp.h_tilde - h) > 1e-8
                or abs(sp.s_pq - s) > 1e-6 or sp.type != kind):
            return f"phase.compute_special_point: ({p},2) misses the closed form: {sp}"
    return None


def _check_cell(tp, spec, pc):
    """A seeded grid cell never lies on an isolated special point (within the
    library's f'' tolerance), so a special tag there is wrong."""
    if pc.tag in (tp.PointTag.SPECIAL_TYPE_I, tp.PointTag.SPECIAL_TYPE_II):
        return (f"phase.classify_point: grid cell ({spec.beta:.6g}, {spec.h:.6g}) "
                f"tagged {pc.tag.value}")
    return check_maximizers(tp, spec, pc)


def _curve_op(tp, p, q, n):
    def fn(tr):
        samples = tr.call("phase.critical_curve", tp.critical_curve, p, q, n)
        tr.count("phase.critical_curve.samples", len(samples))
        return samples

    def check(samples):
        if len(samples) != n:
            return f"phase.critical_curve: {len(samples)} samples, asked for {n}"
        for c in samples:
            reason = check_curve_sample(tp, p, q, c)
            if reason:
                return reason
        return None

    return Op("critical_curve", fn, check)


def _slice_check(tp, p, q, layer, point):
    def check(result):
        if len(result) != 1:
            return f"{layer}: expected one curve point, got {result}"
        beta, h = point(result[0])
        return check_tie(tp, tp.ModelSpec(p, q, beta, h), layer)

    return check


def ops(tp, state):
    out = []
    for spec in state["cells"]:
        out.append(Op("classify_point",
                      lambda tr, spec=spec: tr.call("phase.classify_point", tp.classify_point, spec),
                      lambda pc, spec=spec: _check_cell(tp, spec, pc)))
    for p, q in state["landmarks"]:
        out.append(Op("compute_beta_c",
                      lambda tr, p=p, q=q: tr.call("phase.compute_beta_c", tp.compute_beta_c, p, q),
                      lambda bc, p=p, q=q: _check_beta_c(tp, p, q, bc)))
        out.append(Op("compute_special_point",
                      lambda tr, p=p, q=q: tr.call("phase.compute_special_point",
                                                   tp.compute_special_point, p, q),
                      lambda sp, p=p, q=q: _check_special(tp, p, q, sp)))
    out.append(_curve_op(tp, *state["curve"]))
    for p, q, beta, h in state["slices"]:
        out.append(Op("critical_slice_h",
                      lambda tr, p=p, q=q, beta=beta: tr.call(
                          "inference.critical_slice_h", tp.critical_slice_h, p, q, beta),
                      _slice_check(tp, p, q, "inference.critical_slice_h",
                                   lambda hh, beta=beta: (beta, hh))))
        out.append(Op("critical_slice_beta",
                      lambda tr, p=p, q=q, h=h: tr.call(
                          "inference.critical_slice_beta", tp.critical_slice_beta, p, q, h),
                      _slice_check(tp, p, q, "inference.critical_slice_beta",
                                   lambda bb, h=h: (bb, h))))
    return out
