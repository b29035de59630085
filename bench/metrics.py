"""How each metric is computed, and which end-to-end metric a layer metric moves.

Names and units live in BENCHMARK.json.  A per-layer metric is named
``<span>.<aggregate>``; the aggregate says how the spans named ``<span>`` in
the traced run (traced pass plus labelled probes) become a number:

* ``calls``                   number of spans
* ``busy_s``, ``build_s``     summed inclusive span time
* ``p50_us``, ``scan_us``     median span time
* ``mean_us``                 mean span time
* ``ms_per_sample``           summed span time over the ``<span>.samples`` count
* anything else               the work counter of that name (iterations,
                              support_rows, draws, rows, check_failed)

``cli.import_s`` and ``trace.overhead_frac`` are measured by the run itself.
"""

from __future__ import annotations

import statistics

# Workload that probes a layer when the traced workload never calls it, so
# that every traced run reports every per-layer metric (longest prefix wins).
DONORS = {
    "phase": "atlas",
    "inference.critical_slice": "atlas",
    "exact": "coverage",
    "inference.mle": "coverage",
    "inference.ci": "coverage",
    "inference.two_step_ci": "critical",
    "sampling": "critical",
    "laws": "critical",
}

# layer metric -> {workload: end-to-end metrics it should move there}.
# An empty mapping for a workload means no change is expected there.
_CLI_ROWS = ["wall_s", "op_p50_ms"]
MOVES = {
    "model.f_deriv.scan_us": {"atlas": ["wall_s", "op_p50_ms"]},
    "phase.classify_point.calls": {"atlas": ["wall_s", "op_p50_ms", "op_p90_ms"], "coverage": []},
    "phase.classify_point.busy_s": {"atlas": ["wall_s", "op_p50_ms", "op_p90_ms"], "coverage": []},
    "phase.classify_point.p50_us": {"atlas": ["op_p50_ms", "op_p90_ms"], "coverage": []},
    "phase.classify_point.check_failed": {"atlas": ["failed_frac"], "coverage": []},
    "phase.compute_beta_c.busy_s": {"atlas": ["wall_s"], "readme-cli": _CLI_ROWS},
    "phase.compute_special_point.busy_s": {"atlas": ["wall_s"], "readme-cli": _CLI_ROWS},
    "phase.critical_curve.ms_per_sample": {"atlas": ["wall_s"], "readme-cli": _CLI_ROWS},
    "inference.critical_slice_h.busy_s": {"atlas": ["wall_s"], "critical": ["wall_s"]},
    "inference.critical_slice_beta.busy_s": {"atlas": ["wall_s"], "critical": ["wall_s"]},
    "inference.mle_h.busy_s": {"coverage": ["op_p50_ms", "op_p90_ms", "wall_s"]},
    "inference.mle_h.iterations": {"coverage": ["op_p50_ms", "op_p90_ms", "wall_s"]},
    "inference.mle_beta.busy_s": {"coverage": ["op_p50_ms", "op_p90_ms", "wall_s"]},
    "inference.mle_beta.iterations": {"coverage": ["op_p50_ms", "op_p90_ms", "wall_s"]},
    "inference.ci_h.busy_s": {"coverage": ["op_p50_ms", "op_p90_ms", "wall_s"]},
    "inference.ci_beta.busy_s": {"coverage": ["op_p50_ms", "op_p90_ms", "wall_s"]},
    "inference.two_step_ci.calls": {"critical": ["wall_s", "op_p50_ms"]},
    "inference.two_step_ci.busy_s": {"critical": ["wall_s", "op_p50_ms"]},
    "exact.magnetization_law.busy_s": {"critical": ["wall_s", "peak_rss_mb"],
                                       "coverage": ["peak_rss_mb"]},
    "exact.magnetization_law.support_rows": {"critical": ["wall_s", "peak_rss_mb"],
                                             "coverage": ["peak_rss_mb"]},
    "exact.HProfile.build_s": {"coverage": ["wall_s"], "critical": ["wall_s"]},
    "exact.BProfile.build_s": {"coverage": ["wall_s"], "critical": ["wall_s"]},
    "exact.HProfile.u1.calls": {"coverage": ["op_p90_ms", "wall_s", "cpu_s"]},
    "exact.HProfile.u1.mean_us": {"coverage": ["op_p90_ms", "wall_s", "cpu_s"]},
    "exact.BProfile.up.calls": {"coverage": ["op_p90_ms", "wall_s", "cpu_s"]},
    "exact.BProfile.up.mean_us": {"coverage": ["op_p90_ms", "wall_s", "cpu_s"]},
    "sampling.exact_sample.busy_s": {"critical": ["wall_s"], "readme-cli": _CLI_ROWS},
    "sampling.exact_sample.draws": {"critical": ["wall_s"], "readme-cli": _CLI_ROWS},
    "sampling.rescale.busy_s": {"critical": ["wall_s"], "readme-cli": _CLI_ROWS},
    "sampling.rescale.rows": {"critical": ["wall_s"], "readme-cli": _CLI_ROWS},
    "laws.hhat_limit.build_s": {"critical": ["wall_s", "op_p50_ms"], "atlas": [], "coverage": []},
    "laws.bhat_limit.build_s": {"critical": ["wall_s", "op_p50_ms"], "atlas": [], "coverage": []},
    "laws.limit_law.busy_s": {"critical": ["wall_s", "op_p50_ms"], "atlas": [], "coverage": []},
    "laws.ks_distance.busy_s": {"critical": ["wall_s", "op_p50_ms"], "atlas": [], "coverage": []},
    "cli.import_s": {w: ["setup_s"] for w in ("atlas", "coverage", "critical", "readme-cli")},
    "cli.<command>.wall_s": {"readme-cli": ["wall_s"]},
    "cli.<command>.peak_rss_mb": {"readme-cli": ["peak_rss_mb"]},
    "trace.overhead_frac": {},
}

_MEASURED_BY_RUN = ("cli.import_s", "trace.overhead_frac")


def span_of(metric: str) -> str | None:
    """The span a per-layer metric aggregates, or None for run-level ones."""
    return None if metric in _MEASURED_BY_RUN else metric.rsplit(".", 1)[0]


def donor_of(span: str) -> str:
    return DONORS[max((k for k in DONORS if span.startswith(k)), key=len)]


def layer_value(metric: str, spans, counters) -> float:
    span, aggregate = metric.rsplit(".", 1)
    times = [t1 - t0 for name, t0, t1, _, _ in spans if name == span]
    if aggregate == "calls":
        return len(times)
    if aggregate in ("busy_s", "build_s"):
        return sum(times)
    if aggregate in ("p50_us", "scan_us"):
        return statistics.median(times) * 1e6
    if aggregate == "mean_us":
        return statistics.fmean(times) * 1e6
    if aggregate == "ms_per_sample":
        return sum(times) * 1e3 / counters[span + ".samples"]
    return counters.get(metric, 0)


def self_times(spans) -> dict:
    """Per span name: inclusive time minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = {}
    for (name, t0, t1, _, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    return out
