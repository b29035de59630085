"""Command-line front end: plot-ready phase diagrams, exact and simulated laws,
limit-law comparisons, estimates and confidence sets.

Commands emit CSV density/sample tables and JSON summaries; no rendering.
All floats are printed with 17 significant digits so files round-trip exactly,
and identical invocations (including seeds) produce byte-identical output.

Exit codes: 0 success, 2 precondition violation, 3 numeric non-convergence.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set, or numpy was loaded before this module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

# Set before numpy loads, or OpenBLAS starts a worker per extra core.  The
# library keeps its reductions off BLAS (small q x q products and one 64-row
# gemv at most), so those workers only spin and burn CPU after each call.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

# The phase-only commands need no more than this; the other layers are
# imported inside the commands that use them.
from . import phase
from .errors import DomainError, NonConvergenceError, PreconditionError, TensorPottsError
from .model import ModelSpec
from .phase import PointTag
from .tables import write_table

EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _spec(args) -> ModelSpec:
    return ModelSpec(args.p, args.q, args.beta, args.h)


def _direction(args, q: int):
    """The --project direction as an array (None when not given), length q."""
    if args.project is None:
        return None
    if len(args.project) != q:
        raise DomainError(f"--project needs q={q} components, got {len(args.project)}")
    return np.asarray(args.project)


def _check_draw_flags(args, min_samples=None) -> None:
    """Reject a negative --seed, or fewer --samples than the command needs,
    before any law is built."""
    if args.seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {args.seed}")
    if min_samples is not None and args.samples < min_samples:
        raise DomainError(f"--samples must be at least {min_samples}, got {args.samples}")


def cmd_classify(args) -> None:
    pc = phase.classify_point(_spec(args), tol_class=args.tol_class)
    _emit(pc.to_json_dict())


def cmd_landmarks(args) -> None:
    sp = phase.compute_special_point(args.p, args.q)
    bc = phase.compute_beta_c(args.p, args.q)
    _emit({
        "beta_c": bc,
        "beta_tilde": sp.beta_tilde,
        "h_tilde": sp.h_tilde,
        "s_pq": sp.s_pq,
        "type": sp.type,
    })


def cmd_curve(args) -> None:
    samples = phase.critical_curve(args.p, args.q, args.samples)
    if args.out:
        phase.curve_to_csv(samples, args.out, args.format)
    _emit({"n_samples": len(samples),
           "h_range": [samples[0].h, samples[-1].h] if samples else [],
           "beta_range": [samples[-1].beta, samples[0].beta] if samples else [],
           "out": args.out})


def cmd_phase_diagram(args) -> None:
    diagram = phase.phase_diagram(
        args.p, args.q, (args.beta_min, args.beta_max), (args.h_min, args.h_max),
        args.resolution, tol_class=args.tol_class, curve_samples=args.samples)
    if args.out:
        rows = [(float(b), float(h), diagram.tags[i, j].value)
                for i, h in enumerate(diagram.h_values)
                for j, b in enumerate(diagram.beta_values)]
        write_table(args.out, ["beta", "h", "tag"], rows, args.format)
    _emit({
        "beta_c": diagram.beta_c,
        "special": {"beta_tilde": diagram.special.beta_tilde,
                    "h_tilde": diagram.special.h_tilde,
                    "s_pq": diagram.special.s_pq,
                    "type": diagram.special.type},
        "curve": [{"h": c.h, "beta": c.beta, "s_low": c.s_low, "s_high": c.s_high}
                  for c in diagram.curve],
        "grid": {"beta": [args.beta_min, args.beta_max],
                 "h": [args.h_min, args.h_max],
                 "resolution": args.resolution},
        "out": args.out,
    })


def cmd_exact(args) -> None:
    from . import exact

    spec = _spec(args)
    pmf1, pmf_rest, log_z = exact.colour_marginals(spec, args.N)
    x = np.arange(args.N + 1) / args.N
    xp = x ** spec.p
    u1 = float(np.einsum("i,i", pmf1, x))
    up = float(np.einsum("i,i", pmf1, xp) + (spec.q - 1) * np.einsum("i,i", pmf_rest, xp))
    if args.out:
        cols = ["x"] + [f"pmf_x{r + 1}" for r in range(spec.q)]
        rows = [(float(v), float(a)) + (float(b),) * (spec.q - 1)
                for v, a, b in zip(x, pmf1, pmf_rest)]
        write_table(args.out, cols, rows, args.format)
    _emit({"u_N1": u1, "u_Np": up,
           "log_partition": log_z,
           "support_size": exact.n_compositions(args.N, spec.q), "out": args.out})


def _exact_draws(args, spec: ModelSpec, samples: int) -> np.ndarray:
    """``samples`` rows drawn with --seed from the exact law at --N."""
    from . import sampling

    return sampling.draw_magnetizations(spec, args.N, samples, args.seed)


def _rescaled_draws(args, spec: ModelSpec):
    """The point's class and --samples exact draws rescaled to its limit scaling."""
    from . import sampling

    pc = phase.classify_point(spec, tol_class=args.tol_class)
    return pc, sampling.rescale(_exact_draws(args, spec, args.samples), spec, pc, args.N)


def _limit_law(spec: ModelSpec, pc, direction):
    """(law, name) of the limit: the T_N law at the special points, else the
    simplex law projected on ``direction`` ((None, None) without one)."""
    from . import laws

    if pc.tag is PointTag.SPECIAL_TYPE_I:
        return laws.quartic_law(spec, point_class=pc), "quartic T_N limit"
    if pc.tag is PointTag.SPECIAL_TYPE_II:
        return laws.sextic_law(0.0), "sextic T_N limit"
    if direction is None:
        return None, None
    if pc.tag is PointTag.REGULAR:
        simplex_law, name = laws.gaussian_limit_regular, "projected Gaussian limit"
    else:
        simplex_law, name = laws.critical_mixture_law, "projected Gaussian-mixture limit"
    return simplex_law(spec, point_class=pc).project(direction), name


def cmd_simulate(args) -> None:
    _check_draw_flags(args, min_samples=0)
    from . import laws, sampling

    spec = _spec(args)
    direction = _direction(args, spec.q)
    pc, rescaled = _rescaled_draws(args, spec)
    if args.out:
        sampling.write_samples_csv(args.out, rescaled, spec, args.N, args.seed)
    overlay, _ = _limit_law(spec, pc, direction)
    density_out = None
    if overlay is not None and args.out:
        density_out = args.out + ".density.csv"
        laws.density_table_csv(overlay, density_out)
    _emit({"tag": pc.tag.value, "n_samples": int(len(rescaled)),
           "scale_exponent": rescaled.scale_exponent if rescaled else None,
           "out": args.out, "density_out": density_out})


def _load_data_vector(args, spec: ModelSpec):
    if args.data:
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, as a precondition violation
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                raw = np.loadtxt(args.data, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise PreconditionError(f"--data {args.data} is not a numeric CSV: {exc}") from None
        if raw.size == 0:
            raise PreconditionError(f"--data {args.data} has no data row")
        vec = raw[0]
        if vec.shape[0] != spec.q:
            raise PreconditionError(f"data row has {vec.shape[0]} columns, expected q={spec.q}")
        return vec
    if args.simulate:
        return _exact_draws(args, spec, 1)[0]
    raise PreconditionError("provide --data FILE or --simulate")


def _estimate_payload(args, method: str) -> dict:
    _check_draw_flags(args)
    from . import inference

    spec = _spec(args)
    data = _load_data_vector(args, spec)
    if args.param == "h":
        est = inference.mle_h(spec, float(data[0]), args.N)
        ci, critical_slice, other = inference.ci_h, inference.critical_slice_h, spec.beta
    else:
        est = inference.mle_beta(spec, float(np.sum(data ** spec.p)), args.N)
        ci, critical_slice, other = inference.ci_beta, inference.critical_slice_beta, spec.h
    if method == "two_step":
        cs = inference.two_step_ci(spec, data, args.N, args.alpha, param=args.param,
                                   estimate=est)
    else:
        cs = ci(spec, data, args.N, args.alpha, estimate=est)
        if method == "augmented":
            cs = inference.augment_ci(cs, critical_slice(spec.p, spec.q, other))
    payload = est.to_json_dict()
    payload["ci"] = cs.to_json_dict()
    payload["param"] = args.param
    if not est.converged:
        raise NonConvergenceError("maximum-likelihood root-finding did not converge")
    return payload


def cmd_estimate(args) -> None:
    _emit(_estimate_payload(args, "plain"))


def cmd_ci(args) -> None:
    _emit(_estimate_payload(args, args.method))


def cmd_limit_check(args) -> None:
    # the KS distance needs at least one sample
    _check_draw_flags(args, min_samples=1)
    from . import laws

    spec = _spec(args)
    direction = _direction(args, spec.q)
    if direction is None:
        direction = np.eye(spec.q)[0]
    pc, rescaled = _rescaled_draws(args, spec)
    target, descriptor = _limit_law(spec, pc, direction)
    # t_n is set exactly at the special points, whose laws are on T_N
    stat = rescaled.t_n
    if stat is None:
        stat = np.einsum("ij,j->i", rescaled.w, direction)
    ks = laws.ks_distance(stat, target)
    _emit({"ks_distance": ks, "pass": bool(ks <= args.ks_tol),
           "law": descriptor, "tag": pc.tag.value, "n_samples": int(len(stat))})


def _add_common(sub):
    sub.add_argument("--p", type=int, required=True, help="interaction order (>= 2)")
    sub.add_argument("--q", type=int, required=True, help="number of colors (>= 2)")
    return sub


def _add_point(sub):
    sub.add_argument("--beta", type=float, required=True, help="interaction strength (>= 0)")
    sub.add_argument("--h", type=float, default=0.0, help="external field (>= 0)")
    return sub


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tensorpotts",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("classify", help="classify a parameter point; JSON {tag, s_values, f_values, warnings}")
    _add_point(_add_common(sp))
    sp.add_argument("--tol-class", dest="tol_class", type=float, default=phase.CLASS_TOL,
                    help="|f''| tolerance for the special tags (widen for figure-rounded points)")
    sp.set_defaults(func=cmd_classify)

    sp = subs.add_parser("landmarks", help="beta_c and the special point; JSON")
    _add_common(sp)
    sp.set_defaults(func=cmd_landmarks)

    sp = subs.add_parser("curve", help="strongly-critical curve samples; CSV h,beta,s_low,s_high")
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=256)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_curve)

    sp = subs.add_parser("phase-diagram", help="per-cell tags over a rectangle; CSV beta,h,tag + landmark JSON")
    _add_common(sp)
    sp.add_argument("--beta-min", type=float, required=True)
    sp.add_argument("--beta-max", type=float, required=True)
    sp.add_argument("--h-min", type=float, default=0.0)
    sp.add_argument("--h-max", type=float, required=True)
    sp.add_argument("--resolution", type=int, default=33)
    sp.add_argument("--samples", type=int, default=128, help="curve samples for the overlay")
    sp.add_argument("--tol-class", dest="tol_class", type=float, default=phase.CLASS_TOL)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_phase_diagram)

    sp = subs.add_parser("exact", help="exact law marginals and u_{N,1}, u_{N,p}; CSV columns x,pmf_x1..pmf_xq")
    _add_point(_add_common(sp))
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_exact)

    sp = subs.add_parser("simulate", help="rescaled exact samples (columns x1..xq[,t_n,v_2..v_q]) + density table (x,pdf,cdf)")
    _add_point(_add_common(sp))
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--project", type=float, nargs="+", default=None,
                    help="projection direction for the density overlay")
    sp.add_argument("--tol-class", dest="tol_class", type=float, default=phase.CLASS_TOL)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_simulate)

    for name, fn in (("estimate", cmd_estimate), ("ci", cmd_ci)):
        sp = subs.add_parser(name, help="ML estimate and confidence set; JSON")
        _add_point(_add_common(sp))
        sp.add_argument("--param", choices=["h", "beta"], required=True,
                        help="which parameter to estimate (the other is fixed at its flag value)")
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--data", type=str, default=None,
                        help="CSV whose first row is the observed magnetization x1..xq")
        sp.add_argument("--simulate", action="store_true",
                        help="draw the data vector from the exact law at (beta, h)")
        sp.add_argument("--seed", type=int, default=0)
        if name == "ci":
            sp.add_argument("--method", choices=["plain", "augmented", "two_step"],
                            default="plain")
        sp.set_defaults(func=fn)

    sp = subs.add_parser("limit-check", help="KS distance of rescaled exact samples to the limit law; JSON")
    _add_point(_add_common(sp))
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ks-tol", dest="ks_tol", type=float, default=0.05)
    sp.add_argument("--project", type=float, nargs="+", default=None)
    sp.add_argument("--tol-class", dest="tol_class", type=float, default=phase.CLASS_TOL)
    sp.set_defaults(func=cmd_limit_check)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NonConvergenceError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGENCE
    except (PreconditionError, TensorPottsError) as exc:
        sys.stderr.write(f"precondition violation: {exc}\n")
        return EXIT_PRECONDITION
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return EXIT_PRECONDITION
    return 0


if __name__ == "__main__":
    sys.exit(main())
