"""Metric names and units, and the per-layer metrics derived from the spans
of one traced grid.

Each per-layer metric names a layer boundary recorded by :mod:`mbench.tracer`:
``<span>.calls`` counts spans, ``<span>.s`` sums their durations,
``<span>.self_s`` sums their self times, and ``<span>.rows`` sums the
observations passed in.  NOTES.md maps each metric to the end-to-end metric
it should move.
"""

from __future__ import annotations

import math
import statistics

from .tracer import END, NAME, PARENT, ROWS, START, self_times

STEP_SPANS = ("engine.batch_em_step", "engine.minibatch_step", "engine.truncated_minibatch_step")
EVAL_SPANS = (
    "metrics.dataset_loglik",
    "metrics.map_labels",
    "metrics.adjusted_rand_index",
    "metrics.squared_error",
)

#: Every end-to-end metric, in report order, with its unit.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Every per-layer metric, in report order, with its unit.
LAYER_UNITS = {
    "engine.step.calls": "count",
    "engine.step.us_p50": "us",
    "engine.step.us_p99": "us",
    "engine.step.self_s": "s",
    "engine.region_contains.calls": "count",
    "engine.region_contains.s": "s",
    "engine.polyak_update.calls": "count",
    "engine.polyak_update.s": "s",
    "families.theta_bar.calls": "count",
    "families.theta_bar.s": "s",
    "families.theta_bar.self_s": "s",
    "families.blend.calls": "count",
    "families.blend.s": "s",
    "families.gaussian_built": "count",
    "families.mixture_built": "count",
    "families.objects.s": "s",
    "families.mean_sbar.calls": "count",
    "families.mean_sbar.rows": "count",
    "families.mean_sbar.s": "s",
    "families.mean_sbar.self_s": "s",
    "families.mean_sbar.ns_per_row": "ns",
    "families.responsibilities_batch.estep.calls": "count",
    "families.responsibilities_batch.estep.rows": "count",
    "families.responsibilities_batch.estep.s": "s",
    "families.responsibilities_batch.eval.calls": "count",
    "families.responsibilities_batch.eval.rows": "count",
    "families.responsibilities_batch.eval.s": "s",
    "families.estep.gflops_computed": "GFLOP/s",
    "metrics.dataset_loglik.s": "s",
    "metrics.map_labels.s": "s",
    "metrics.adjusted_rand_index.s": "s",
    "metrics.squared_error.s": "s",
    "families.log_densities.s": "s",
    "metrics.share": "frac",
    "engine.reset_stat.calls": "count",
    "engine.reset_stat.s": "s",
    "engine.accept_ratio": "frac",
    "engine.run.calls": "count",
    "engine.run.self_s": "s",
    "experiment.resolve_source.s": "s",
    "families.sample.s": "s",
    "data.random_partition_init.s": "s",
    "data.kmeans.s": "s",
    "experiment.run_experiment.self_s": "s",
    "experiment.writers.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
    "quality.nll_per_obs": "nats",
    "quality.se": "sq",
    "quality.ari": "index",
}


def _median_ok(rows: list, column: str) -> float:
    values = [float(r[column]) for r in rows if r["status"] == "ok"]
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def quality(rows: list) -> dict:
    """Fit quality of one grid: medians over its ``ok`` runs of the negated
    per-observation log-likelihood, the squared parameter error and the ARI."""
    return {
        "quality.nll_per_obs": -_median_ok(rows, "loglik_per_obs"),
        "quality.se": _median_ok(rows, "se"),
        "quality.ari": _median_ok(rows, "ari"),
    }


def estep_flops(rows: int, d: int, g: int) -> float:
    """Computed floating-point operations of one Gaussian ``mean_sbar`` call.

    Per component: a Cholesky factor (d^3/3), then per row a triangular
    solve (d^2), the scatter product (2 d^2) and O(d) work for the centring,
    quadratic form, weighting and first moment (6 d).
    """
    return g * (d**3 / 3.0 + rows * (3.0 * d * d + 6.0 * d))


def layer_metrics(spans: list, d: int, g: int) -> dict:
    """Metric name -> value for one traced grid, except ``trace.overhead_frac``
    and the ``quality.*`` metrics, which need the untraced runs and the rows."""
    selfs = self_times(spans)
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    rows: dict = {}
    for span, self_ns in zip(spans, selfs):
        name = span[NAME]
        if name == "families.responsibilities_batch":
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            name += ".estep" if parent == "families.mean_sbar" else ".eval"
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + span[END] - span[START]
        own[name] = own.get(name, 0) + self_ns
        rows[name] = rows.get(name, 0) + max(span[ROWS], 0)

    def s(name):
        return total.get(name, 0) / 1e9

    step_us = [(sp[END] - sp[START]) / 1e3 for sp in spans if sp[NAME] in STEP_SPANS]
    sbar_rows = [sp[ROWS] for sp in spans if sp[NAME] == "families.mean_sbar"]
    truncated = calls.get("engine.truncated_minibatch_step", 0)
    out = {
        "engine.step.calls": sum(calls.get(n, 0) for n in STEP_SPANS),
        "engine.step.us_p50": statistics.median(step_us) if step_us else 0.0,
        "engine.step.us_p99": (
            statistics.quantiles(step_us, n=100, method="inclusive")[98]
            if len(step_us) > 1 else 0.0
        ),
        "engine.step.self_s": sum(own.get(n, 0) for n in STEP_SPANS) / 1e9,
        "families.gaussian_built": calls.get("families.gaussian", 0),
        "families.mixture_built": calls.get("families.mixture", 0),
        "families.objects.s": s("families.gaussian") + s("families.mixture"),
        "families.mean_sbar.ns_per_row": (
            total.get("families.mean_sbar", 0) / rows["families.mean_sbar"]
            if rows.get("families.mean_sbar") else 0.0
        ),
        "families.estep.gflops_computed": (
            sum(estep_flops(r, d, g) for r in sbar_rows) / total["families.mean_sbar"]
            if sbar_rows else 0.0
        ),
        "metrics.share": sum(s(n) for n in EVAL_SPANS) / s("cli.main") if s("cli.main") else 0.0,
        "engine.accept_ratio": (
            (truncated - calls.get("engine.reset_stat", 0)) / truncated if truncated else 1.0
        ),
    }
    for name in LAYER_UNITS:
        if name in out or name == "trace.overhead_frac" or name.startswith("quality."):
            continue
        span, _, stat = name.rpartition(".")
        out[name] = {
            "calls": calls.get(span, 0),
            "rows": rows.get(span, 0),
            "s": s(span),
            "self_s": own.get(span, 0) / 1e9,
        }[stat]
    return out
