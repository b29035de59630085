#!/usr/bin/env python3
"""Monte-Carlo coverage study of the plug-in interval for the field estimate.

Draws replicates from the exact law at a regular point, estimates h by the
likelihood equation at known beta, and reports the empirical standard
deviation of sqrt(N)(hhat - h) against its theoretical value together with
the coverage of the (1 - alpha) interval.
"""

import argparse
import math

import numpy as np

import tensorpotts as tp
from tensorpotts.errors import DegenerateIntervalError
from tensorpotts.exact import HProfile


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=4)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--beta", type=float, default=0.616)
    ap.add_argument("--h", type=float, default=0.67)
    ap.add_argument("--N", type=int, default=1000)
    ap.add_argument("--replicates", type=int, default=500)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    spec = tp.ModelSpec(args.p, args.q, args.beta, args.h)
    pc = tp.classify_point(spec)
    if pc.tag is not tp.PointTag.REGULAR:
        raise SystemExit(f"point classifies {pc.tag.value}; pick a regular point")
    sd_theory = tp.hhat_limit(spec, pc).sigma

    profile = HProfile(spec, args.N)
    draws = tp.draw_magnetizations(spec, args.N, args.replicates, args.seed)

    hhats = np.empty(args.replicates)
    covered = 0
    degenerate = 0
    for i, x in enumerate(draws):
        est = tp.mle_h(spec, float(x[0]), args.N, profile=profile)
        hhats[i] = est.estimate
        try:
            cs = tp.ci_h(spec, x, args.N, args.alpha, estimate=est)
        except DegenerateIntervalError:
            degenerate += 1
            continue
        covered += cs.contains(args.h)

    sd_emp = float(np.std(hhats)) * math.sqrt(args.N)
    print(f"replicates        : {args.replicates} (degenerate intervals: {degenerate})")
    print(f"sd sqrtN(hhat - h): {sd_emp:.4f}  theory {sd_theory:.4f}  "
          f"ratio {sd_emp / sd_theory:.3f}")
    print(f"coverage at {1 - args.alpha:.0%} : {covered / args.replicates:.3f}")


if __name__ == "__main__":
    main()
