"""Experiment harness: variant grids, repetition loops, metric aggregation,
and machine-readable outputs.

Every repetition draws one randomized initialization that is shared by all
variants, and every (variant, repetition) pair gets a sub-seed derived from
the master seed by a 64-bit mixing function, so reruns and multi-worker runs
reproduce the same table byte for byte (timing columns aside).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from . import __version__
from .data import (
    drop_constant_pixels,
    fit_pca,
    kmeans,
    project,
    random_partition_init,
    read_idx,
    read_labeled_csv,
    template_from_labeled_data,
)
from .engine import DEFAULT_LEARNING_RATE, LearningRate, RunConfig, TruncationRegion, run
from .errors import EngineRunError, EstimationError, InvalidInputError
from .families import MixtureParams, _log_weighted_rows, params_from_dict, params_to_dict, sample
from .metrics import MetricReport, _loglik, _map_labels, adjusted_rand_index, squared_error

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64

SEED_DERIVATION = "splitmix64 folded over master seed, then each token (utf-8 bytes or integer)"


def derive_seed(master: int, *parts: Union[str, int]) -> int:
    """Pure 64-bit sub-seed from the master seed and identifying tokens."""
    h = _splitmix64(master & _MASK64)
    for part in parts:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                h = _splitmix64(h ^ byte)
        else:
            h = _splitmix64(h ^ (int(part) & _MASK64))
    return h


# ---------------------------------------------------------------------------
# experiment description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariantSpec:
    """One grid cell: algorithm kind, batch fraction, averaging flag."""

    algorithm: str  # "em" | "mb" | "mb-trunc" | "kmeans"
    fraction: float | None = None
    polyak: bool = False

    def __post_init__(self):
        if self.algorithm not in ("em", "mb", "mb-trunc", "kmeans"):
            raise InvalidInputError(f"unknown variant algorithm {self.algorithm!r}")
        if self.algorithm in ("mb", "mb-trunc") and not self.fraction:
            raise InvalidInputError("mini-batch variants need a batch fraction")

    @property
    def vid(self) -> str:
        if self.algorithm in ("em", "kmeans"):
            return self.algorithm
        tag = f"mb-{self.fraction:g}"
        if self.algorithm == "mb-trunc":
            tag += "-trunc"
        if self.polyak:
            tag += "-polyak"
        return tag


@dataclass(frozen=True)
class TemplateSource:
    """Synthesize data from a mixture fitted to a labeled CSV (one Gaussian per class)."""

    csv_path: str
    n: int


@dataclass(frozen=True)
class ThetaSource:
    """Synthesize data from an explicit parameter file (JSON)."""

    theta_path: str
    n: int


@dataclass(frozen=True)
class IdxSource:
    """IDX image files -> constant-pixel filter -> PCA projection."""

    images: tuple
    labels: tuple
    d_pc: int


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment grid."""

    source: Union[TemplateSource, ThetaSource, IdxSource]
    g: int
    variants: tuple
    repetitions: int
    master_seed: int
    epochs: int = RunConfig.epochs
    learning_rate: LearningRate = DEFAULT_LEARNING_RATE
    truncation: TruncationRegion = field(default_factory=TruncationRegion)
    workers: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise InvalidInputError("repetitions must be >= 1")
        if not self.variants:
            raise InvalidInputError("variant list is empty")


def template_theta(source) -> MixtureParams | None:
    """Generative parameters of a synthetic source; None for file corpora."""
    if isinstance(source, TemplateSource):
        features, classes = read_labeled_csv(source.csv_path)
        return template_from_labeled_data(features, classes)
    if isinstance(source, ThetaSource):
        with open(source.theta_path) as f:
            return params_from_dict(json.load(f))
    return None


def resolve_source(spec: ExperimentSpec, theta_true: MixtureParams | None = None):
    """Materialize (data, true_labels, true_theta) for a spec's data source.

    A synthetic source samples from ``theta_true`` when given (the caller's
    :func:`template_theta` of the same source), else builds it.
    """
    src = spec.source
    if isinstance(src, (TemplateSource, ThetaSource)):
        theta = template_theta(src) if theta_true is None else theta_true
        rng = np.random.default_rng(derive_seed(spec.master_seed, "data"))
        data, labels = sample(theta, src.n, rng)
        return data, labels, theta
    images = read_idx(src.images[0], src.labels[0] if src.labels else None)
    pixels, labels = images.pixels, images.labels
    for k in range(1, len(src.images)):
        extra = read_idx(src.images[k], src.labels[k] if len(src.labels) > k else None)
        pixels = np.vstack([pixels, extra.pixels])
        if labels is not None and extra.labels is not None:
            labels = np.concatenate([labels, extra.labels])
    dense, _ = drop_constant_pixels(pixels)
    model = fit_pca(dense, src.d_pc)
    return project(model, dense), labels, None


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

@dataclass
class RunRow:
    variant: str
    rep: int
    seed: int
    status: str
    loglik: float
    loglik_per_obs: float
    se: float
    ari: float
    iterations: int
    truncation_events: int
    wall_time_s: float
    cpu_time_s: float


#: ``results.csv`` columns: the fields of :class:`RunRow`, in order.
RESULTS_COLUMNS = tuple(f.name for f in fields(RunRow))

#: Excluded from determinism comparisons.
TIMING_COLUMNS = ("wall_time_s", "cpu_time_s")

METRIC_COLUMNS = ("loglik", "loglik_per_obs", "se", "ari", "truncation_events", "wall_time_s")

RESULTS_SCHEMA_VERSION = 1


@dataclass
class ResultsTable:
    rows: list


# Heavy arrays live in a per-process context so worker pools pickle them once.
_CTX = None


def _init_worker(data, labels, theta_true):
    global _CTX
    _CTX = (data, labels, theta_true)


def _evaluate(theta, data, labels, theta_true, runtime: float) -> MetricReport:
    # One density pass at theta gives both the log-likelihood and the MAP
    # labels; they equal dataset_loglik and map_labels bit for bit.
    rows = _log_weighted_rows(data, theta)
    loglik = _loglik(rows)
    se = float("nan")
    if theta_true is not None and theta_true.g == theta.g and theta_true.dim == theta.dim:
        se = squared_error(theta, theta_true)
    ari = float("nan")
    if labels is not None:
        ari = adjusted_rand_index(_map_labels(rows), labels)
    return MetricReport(loglik=loglik, se=se, ari=ari, runtime_seconds=runtime)


def _run_task(args) -> RunRow:
    """One grid cell from ``(variant, rep, init_theta, init_labels, config)``;
    k-means takes its epoch budget from ``config``."""
    variant, rep, init_theta, init_labels, config = args
    data, labels, theta_true = _CTX
    n = data.shape[0]
    wall0, cpu0 = time.perf_counter(), time.process_time()

    if variant.algorithm == "kmeans":
        fitted, _ = kmeans(data, init_theta.g, config.epochs, init_labels=init_labels)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        ari = adjusted_rand_index(fitted, labels) if labels is not None else float("nan")
        return RunRow(
            variant.vid, rep, config.seed, "ok",
            float("nan"), float("nan"), float("nan"), ari,
            config.epochs, 0, wall, cpu,
        )

    try:
        record = run(data, config, init_theta)
        theta = record.polyak_theta if variant.polyak else record.final_theta
        report = _evaluate(theta, data, labels, theta_true, record.wall_time)
        return RunRow(
            variant.vid, rep, config.seed, "ok",
            report.loglik, report.loglik / n, report.se, report.ari,
            record.iterations, record.truncation_events,
            report.runtime_seconds, record.cpu_time,
        )
    except EstimationError as exc:
        iteration = exc.iteration if isinstance(exc, EngineRunError) else 0
        return RunRow(
            variant.vid, rep, config.seed, f"error:{type(exc).__name__}",
            float("nan"), float("nan"), float("nan"), float("nan"),
            iteration, 0,
            time.perf_counter() - wall0, time.process_time() - cpu0,
        )


def run_experiment(spec: ExperimentSpec, theta_true: MixtureParams | None = None) -> ResultsTable:
    """Execute the full grid and return one row per (variant, repetition).

    Each repetition's randomized initialization is consumed by every variant;
    per-run failures are recorded in the row rather than aborting the grid.
    ``theta_true`` is passed on to :func:`resolve_source`.  A variant's
    :class:`RunConfig` carries its batch size (``mb`` and ``mb-trunc``; ``em``
    is batch EM) and its region (``mb-trunc`` only), which choose the EM
    variant.
    """
    data, labels, theta_true = resolve_source(spec, theta_true)
    n = data.shape[0]
    inits = []
    for rep in range(spec.repetitions):
        rng = np.random.default_rng(derive_seed(spec.master_seed, "init", rep))
        inits.append(random_partition_init(data, spec.g, rng, return_labels=True))
    tasks = []
    for variant in spec.variants:
        minibatch = variant.algorithm in ("mb", "mb-trunc")
        for rep in range(spec.repetitions):
            config = RunConfig(
                epochs=spec.epochs,
                batch_size=min(n, max(1, int(round(variant.fraction * n)))) if minibatch else None,
                learning_rate=spec.learning_rate,
                truncation=spec.truncation if variant.algorithm == "mb-trunc" else None,
                polyak=variant.polyak,
                seed=derive_seed(spec.master_seed, variant.vid, rep),
            )
            tasks.append((variant, rep, *inits[rep], config))
    if spec.workers <= 1:
        _init_worker(data, labels, theta_true)
        rows = [_run_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=spec.workers,
            initializer=_init_worker,
            initargs=(data, labels, theta_true),
        ) as pool:
            rows = list(pool.map(_run_task, tasks))
    return ResultsTable(rows=rows)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _ok_values(table: ResultsTable, metrics: tuple):
    """Yield ``(variant, metric, values)``: the finite values of each metric
    over a variant's ok rows, variants in first-seen order."""
    for variant in dict.fromkeys(row.variant for row in table.rows):
        rows = [r for r in table.rows if r.variant == variant and r.status == "ok"]
        for metric in metrics:
            values = np.array([getattr(r, metric) for r in rows], dtype=float)
            yield variant, metric, values[np.isfinite(values)]


def summarize(table: ResultsTable) -> list:
    """Per-variant mean/median/standard-error rows for every metric column.

    The standard error is the sample standard deviation over the square root
    of the run count (0 for a single run).  Failed runs are excluded.
    """
    if not table.rows:
        raise InvalidInputError("empty results table")
    out = []
    for variant, metric, values in _ok_values(table, METRIC_COLUMNS):
        if values.size == 0:
            mean = median = se = float("nan")
        else:
            mean = float(values.mean())
            median = float(np.median(values))
            se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        out.append(
            {
                "variant": variant,
                "metric": metric,
                "count": int(values.size),
                "mean": mean,
                "median": median,
                "se": se,
            }
        )
    return out


#: Stated in every boxplot file header.
QUANTILE_RULE = "linear-interpolation quantiles; whiskers at 1.5*IQR (Tukey)"


def emit_boxplot_data(table: ResultsTable, metric: str) -> list:
    """Per-variant five-number summaries plus Tukey outliers for one metric."""
    if metric not in METRIC_COLUMNS:
        raise InvalidInputError(f"unknown metric {metric!r}")
    out = []
    for variant, _, values in _ok_values(table, (metric,)):
        if values.size == 0:
            continue
        q1, med, q3 = (float(np.quantile(values, q)) for q in (0.25, 0.5, 0.75))
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = values[(values >= lo_fence) & (values <= hi_fence)]
        outliers = np.sort(values[(values < lo_fence) | (values > hi_fence)])
        out.append(
            {
                "variant": variant,
                "min": float(inside.min()),
                "q1": q1,
                "median": med,
                "q3": q3,
                "max": float(inside.max()),
                "outliers": outliers.tolist(),
            }
        )
    return out


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(table: ResultsTable, path) -> None:
    lines = [",".join(RESULTS_COLUMNS)]
    for row in table.rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in RESULTS_COLUMNS))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_summary(table: ResultsTable, csv_path, json_path) -> None:
    records = summarize(table)
    cols = ("variant", "metric", "count", "mean", "median", "se")
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in cols))
    with open(csv_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(json_path, "w") as f:
        json.dump(records, f, indent=2)
        f.write("\n")


def write_boxplot_csv(table: ResultsTable, metric: str, path) -> None:
    records = emit_boxplot_data(table, metric)
    lines = [f"# {QUANTILE_RULE}", "variant,min,q1,median,q3,max,outliers"]
    for rec in records:
        outliers = ";".join(repr(v) for v in rec["outliers"])
        lines.append(
            ",".join(
                [rec["variant"]]
                + [repr(rec[k]) for k in ("min", "q1", "median", "q3", "max")]
                + [outliers]
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_meta(spec: ExperimentSpec, path, theta_true: MixtureParams | None = None) -> None:
    src = spec.source
    if isinstance(src, TemplateSource):
        source = {"kind": "template-csv", "csv_path": str(src.csv_path), "n": src.n}
    elif isinstance(src, ThetaSource):
        source = {"kind": "theta-json", "theta_path": str(src.theta_path), "n": src.n}
    else:
        source = {
            "kind": "idx",
            "images": [str(p) for p in src.images],
            "labels": [str(p) for p in src.labels],
            "d_pc": src.d_pc,
        }
    meta = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "schema_version": RESULTS_SCHEMA_VERSION,
        "seed_derivation": SEED_DERIVATION,
        "timing_columns_excluded_from_determinism": list(TIMING_COLUMNS),
        "master_seed": spec.master_seed,
        "epochs": spec.epochs,
        "repetitions": spec.repetitions,
        "g": spec.g,
        "learning_rate": {"gamma0": spec.learning_rate.gamma0, "alpha": spec.learning_rate.alpha},
        "truncation": [spec.truncation.c1, spec.truncation.c2, spec.truncation.c3],
        "variants": [v.vid for v in spec.variants],
        "workers": spec.workers,
        "source": source,
    }
    if theta_true is not None:
        meta["template_theta"] = params_to_dict(theta_true)
    with open(path, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
