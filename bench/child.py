"""Run one workload in this fresh interpreter and print its raw result as JSON.

Started by run.py.  The clock for ``setup_s`` starts before the library is
imported; ``--setup-only`` stops after set-up, so run.py can take the median
of several fresh set-ups.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

T0 = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("atlas", "coverage", "critical", "readme-cli")


def workload_module(name: str):
    return importlib.import_module(name.replace("-", "_"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import tensorpotts as tp
    import tensorpotts.cli  # noqa: F401  (CLI users pay this import too)
    import_s = time.perf_counter() - t_import
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(tp.__file__), src]) != src:
        sys.stderr.write(f"tensorpotts was imported from {tp.__file__}, not from {src}\n")
        return 2

    from common import seeded_rng

    workload = workload_module(args.workload)
    state = workload.setup(tp, seeded_rng(args.seed, args.workload), args.tiny)
    setup_s = time.perf_counter() - T0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        result = measure(tp, workload, state, args)
    finally:
        getattr(workload, "cleanup", _skip)(state)
    result.update(setup_s=setup_s, import_s=import_s, env=environment(tp))
    print(json.dumps(result))
    return 0


def _skip(*args):
    pass


def measure(tp, workload, state, args) -> dict:
    from common import NULL_TRACER, Recorder, Tracer

    tracer = Tracer() if args.trace else NULL_TRACER
    getattr(workload, "prepare", _skip)(tp, state, tracer)
    rec = Recorder(workload.ops(tp, state))
    # Untraced passes fill --seconds (leaving room for one traced pass when
    # tracing); there is always at least one.
    start = time.perf_counter()
    while True:
        rec.run_pass(NULL_TRACER)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rec.passes * (1 + args.trace) > args.seconds:
            break
    untraced, n = rec.passes, len(rec.ops)
    latencies = list(rec.latency)
    wall_s = statistics.median(rec.pass_sum(rec.latency, k) for k in range(untraced))
    result = {
        "passes": untraced,
        "wall_s": wall_s,
        "cpu_s": statistics.median(rec.pass_sum(rec.cpu, k) for k in range(untraced)),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "kind_p50_s": {kind: statistics.median(latencies[j] for j in range(len(latencies))
                                               if rec.ops[j % n].kind == kind)
                       for kind in {op.kind for op in rec.ops}},
    }
    if len(latencies) >= 100:  # at least ten samples lie beyond the 90th percentile
        result["op_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    if args.trace:
        traced_pass(tp, workload, state, rec, tracer)
        result["overhead_frac"] = rec.pass_sum(rec.latency, untraced) / wall_s - 1.0
        result.update(layers(tp, tracer, args))
    rss_source = getattr(workload, "RSS_SOURCE", resource.RUSAGE_SELF)
    result["peak_rss_mb"] = resource.getrusage(rss_source).ru_maxrss / 1024.0
    failures, expected = {}, {}
    for error in rec.errors.values():
        kind = error.split(":", 1)[0]  # exception name, or "check <layer>"
        count, example = failures.get(kind, (0, error))
        failures[kind] = [count + 1, example]
    for error in rec.expected.values():
        expected[error] = expected.get(error, 0) + 1
    result.update(
        attempted=rec.passes * n,
        failed=len(rec.errors),
        failures=failures,
        expected_errors=expected,
        correct=not rec.errors,
        # ops whose outcome (ok or which error) differed between passes
        inconsistent=sum(len({rec.errors.get((k, i)) for k in range(rec.passes)}) > 1
                         for i in range(n)))
    if hasattr(workload, "report"):
        result["command_peak_rss_mb"] = workload.report(state)
    return result


def traced_pass(tp, workload, state, rec, tracer) -> None:
    """One traced pass of the workload's ops, then its labelled probes."""
    rec.run_pass(tracer)
    getattr(workload, "probes", _skip)(tp, state, tracer)


def layers(tp, tracer, args) -> dict:
    """Per-layer values from the traced pass and probes.

    A layer this workload never calls is measured by a tiny-size traced run of
    the workload that does (its donor), so that every traced run reports every
    per-layer metric; ``donors`` names the metrics measured that way.
    """
    import numpy as np

    from common import Recorder, Tracer, seeded_rng
    from metrics import donor_of, layer_value, self_times, span_of

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    rng = seeded_rng(args.seed, "probes")
    spec = tp.ModelSpec(4, 3, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0)))
    grid = np.linspace(0.0, 1.0 - 1e-9, 4097)  # the library's 4096-cell scan grid
    for _ in range(50):
        tracer.call("model.f_deriv", tp.f_deriv, spec, grid, 1)

    present = {s[0] for s in tracer.spans}
    missing = {span_of(n) for n in names} - present - {None}
    for donor in sorted({donor_of(span) for span in missing}):
        module = workload_module(donor)
        donor_tracer = Tracer()
        donor_state = module.setup(tp, seeded_rng(args.seed, donor), True)
        getattr(module, "prepare", _skip)(tp, donor_state, donor_tracer)
        traced_pass(tp, module, donor_state, Recorder(module.ops(tp, donor_state)), donor_tracer)
        getattr(module, "cleanup", _skip)(donor_state)
        tracer.merge(donor_tracer, missing)
    donors = {n: donor_of(span_of(n)) for n in names if span_of(n) in missing}
    values = {n: layer_value(n, tracer.spans, tracer.counters)
              for n in names if span_of(n) is not None}
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return {"layers": values, "donors": donors, "self_s": self_times(tracer.spans),
            "trace_file": path}


def environment(tp) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS") or k.startswith("OMP_")},
        "tensorpotts": tp.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
