#!/usr/bin/env python3
"""Emit plot-ready phase-diagram data for the (7,5) and (4,2) benchmark models.

Writes, per model, a classified grid CSV, the strongly-critical curve CSV
(when non-empty), and a landmarks JSON into the output directory.
"""

import argparse
import json
import pathlib

import tensorpotts as tp
from tensorpotts.phase import curve_to_csv
from tensorpotts.tables import write_table


def emit(p, q, beta_max, h_max, resolution, curve_samples, outdir):
    tag = f"p{p}_q{q}"
    diagram = tp.phase_diagram(p, q, (1e-3, beta_max), (0.0, h_max), resolution,
                               curve_samples=curve_samples)
    bc, sp, curve = diagram.beta_c, diagram.special, diagram.curve

    write_table(outdir / f"phase_grid_{tag}.csv", ["beta", "h", "tag"],
                [(b, h, diagram.tags[i, j].value) for i, h in enumerate(diagram.h_values)
                 for j, b in enumerate(diagram.beta_values)])

    landmarks = {
        "beta_c": bc,
        "beta_tilde": sp.beta_tilde,
        "h_tilde": sp.h_tilde,
        "s_pq": sp.s_pq,
        "type": sp.type,
    }
    (outdir / f"landmarks_{tag}.json").write_text(json.dumps(landmarks, indent=2))

    if curve:
        curve_to_csv(curve, outdir / f"critical_curve_{tag}.csv")
    print(f"({p},{q}): beta_c = {bc:.8f}, special = ({sp.beta_tilde:.8f}, "
          f"{sp.h_tilde:.8f}) type {sp.type}, curve samples = {len(curve)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("out"))
    ap.add_argument("--resolution", type=int, default=41)
    ap.add_argument("--curve-samples", type=int, default=400)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    emit(7, 5, beta_max=3.3, h_max=2.2, resolution=args.resolution,
         curve_samples=args.curve_samples, outdir=args.outdir)
    emit(4, 2, beta_max=1.4, h_max=0.7, resolution=args.resolution,
         curve_samples=args.curve_samples, outdir=args.outdir)


if __name__ == "__main__":
    main()
