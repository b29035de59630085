#!/usr/bin/env python3
"""Rescaled magnetization samples with theoretical density overlays.

Reproduces the three (4,3) benchmark settings: the regular point
(0.616, 0.67) with its projected Gaussian, the strongly critical point on
the tie curve at h = 0.2 with the tau-weighted Gaussian mixture, and the
special point with the quartic T_N limit.  Each setting emits a sample CSV
and a density-table CSV for plotting.
"""

import argparse
import pathlib

import numpy as np

import tensorpotts as tp
from tensorpotts import laws
from tensorpotts.sampling import write_samples_csv

PROJECTION = np.array([0.157, 0.396, 0.323])


def emit(name, spec, N, n_samples, seed, outdir, project=None):
    pc = tp.classify_point(spec)
    draws = tp.draw_magnetizations(spec, N, n_samples, seed)
    rescaled = tp.rescale(draws, spec, pc, N)
    write_samples_csv(outdir / f"samples_{name}.csv", rescaled, spec, N, seed)

    overlay, _ = laws.limit_law(spec, pc, project)
    laws.density_table_csv(overlay, outdir / f"density_{name}.csv")
    print(f"{name}: tag = {pc.tag.value}, N = {N}, samples = {n_samples}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("out"))
    ap.add_argument("--N", type=int, default=1000)
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    emit("regular", tp.ModelSpec(4, 3, 0.616, 0.67), args.N, args.samples,
         args.seed, args.outdir, project=PROJECTION)

    beta_star = tp.critical_slice_beta(4, 3, 0.2)[0]
    emit("strongly_critical", tp.ModelSpec(4, 3, beta_star, 0.2), args.N,
         args.samples, args.seed, args.outdir, project=PROJECTION)

    sp = tp.compute_special_point(4, 3)
    emit("special_type_i", tp.ModelSpec(4, 3, sp.beta_tilde, sp.h_tilde),
         args.N, args.samples, args.seed, args.outdir)

    emit("special_type_ii", tp.ModelSpec(4, 2, 2 / 3, 0.0), 4 * args.N,
         args.samples, args.seed, args.outdir)


if __name__ == "__main__":
    main()
