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
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Union

import numpy as np
import scipy

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
from .families import MixtureParams, _density_pass, params_from_dict, params_to_dict, sample
from .metrics import _exact_sum, adjusted_rand_index, squared_error

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

#: Variant names.  ``em`` is batch EM and ``kmeans`` the Lloyd baseline;
#: the ``mb`` names are mini-batch EM, truncated when the name holds
#: ``trunc`` and reporting the Polyak average when it ends in ``-polyak``.
VARIANTS = ("em", "mb", "mb-polyak", "mb-trunc", "mb-trunc-polyak", "kmeans")


@dataclass(frozen=True)
class VariantSpec:
    """One grid cell: a name from :data:`VARIANTS` and, for the ``mb``
    names only, the batch fraction of n in (0, 1]."""

    name: str
    fraction: float | None = None

    def __post_init__(self):
        if self.name not in VARIANTS:
            raise InvalidInputError(f"unknown variant {self.name!r}")
        if self.name in ("em", "kmeans"):
            if self.fraction is not None:
                raise InvalidInputError(f"variant {self.name!r} takes no batch fraction")
        elif self.fraction is None or not 0.0 < self.fraction <= 1.0:
            raise InvalidInputError(
                f"variant {self.name!r} needs a batch fraction in (0, 1], got {self.fraction!r}"
            )

    @property
    def vid(self) -> str:
        if self.fraction is None:
            return self.name
        return f"mb-{self.fraction:g}{self.name[2:]}"


@contextmanager
def _reading(path: str):
    """Raise a failure to open or parse the file ``path`` as an
    :class:`InvalidInputError` whose message names the file."""
    try:
        yield
    except (OSError, ValueError, LookupError, TypeError) as exc:
        message = str(exc) if isinstance(exc, (OSError, ValueError)) else repr(exc)
        raise InvalidInputError(message if path in message else f"{path}: {message}") from exc


@dataclass(frozen=True)
class TemplateSource:
    """Synthesize ``n`` rows from a mixture fitted to a labeled CSV, one
    Gaussian per class; the fit is made once, when :attr:`theta` is first read."""

    csv_path: str
    n: int

    @cached_property
    def theta(self) -> MixtureParams:
        with _reading(self.csv_path):
            return template_from_labeled_data(*read_labeled_csv(self.csv_path))

    def meta(self) -> dict:
        return {"kind": "template-csv", **asdict(self)}


@dataclass(frozen=True)
class ThetaSource:
    """Synthesize ``n`` rows from the mixture in a parameter file (JSON), read
    once, when :attr:`theta` is first read.  The grid starts every cell from
    a partition of Gaussian blocks, so the mixture must be Gaussian."""

    theta_path: str
    n: int

    @cached_property
    def theta(self) -> MixtureParams:
        with _reading(self.theta_path), open(self.theta_path) as f:
            theta = params_from_dict(json.load(f))
        if theta.family_tag != "gaussian":
            raise InvalidInputError(
                f"{self.theta_path}: the grid fits Gaussian mixtures, "
                f"got family {theta.family_tag!r}"
            )
        return theta

    def meta(self) -> dict:
        return {"kind": "theta-json", **asdict(self)}


@dataclass(frozen=True)
class IdxSource:
    """IDX image files -> constant-pixel filter -> PCA projection.  ``labels``
    is empty or pairs with ``images`` one to one; no mixture generated the
    rows, so :attr:`theta` is None."""

    images: tuple
    labels: tuple
    d_pc: int

    theta = None

    def __post_init__(self):
        if not self.images:
            raise InvalidInputError("need at least one IDX image file")
        if self.labels and len(self.labels) != len(self.images):
            raise InvalidInputError("IDX label files must pair with the image files one to one")

    def meta(self) -> dict:
        return {"kind": "idx", **asdict(self)}

    def load(self):
        """The projected rows and the labels (None without label files)."""
        labels = self.labels or (None,) * len(self.images)
        sets = []
        for files in zip(self.images, labels):
            with _reading(", ".join(filter(None, files))):
                sets.append(read_idx(*files))
        labels = np.concatenate([lab for _, lab in sets]) if self.labels else None
        pixels = np.vstack([pix for pix, _ in sets])
        # Free the per-file arrays once stacked, and the stack once filtered.
        del sets
        dense, _ = drop_constant_pixels(pixels)
        del pixels
        return project(fit_pca(dense, self.d_pc), dense), labels


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
        if self.g < 1:
            raise InvalidInputError(f"need at least one component, got g={self.g}")
        if self.repetitions < 1:
            raise InvalidInputError("repetitions must be >= 1")
        if not self.variants:
            raise InvalidInputError("variant list is empty")
        vids = [v.vid for v in self.variants]
        if len(set(vids)) < len(vids):
            raise InvalidInputError(f"two variants share the id {max(vids, key=vids.count)!r}")
        if self.workers < 1:
            raise InvalidInputError(f"workers must be >= 1, got {self.workers}")


def resolve_source(spec: ExperimentSpec):
    """Materialize (data, true_labels, true_theta) for a spec's data source:
    a source with a mixture is sampled from it with the grid's data seed."""
    src = spec.source
    if src.theta is None:
        return (*src.load(), None)
    rng = np.random.default_rng(derive_seed(spec.master_seed, "data"))
    return (*sample(src.theta, src.n, rng), src.theta)


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


# Heavy arrays live in a per-process context so pool workers load them once.
_CTX = None

#: Thread-count variables that NumPy's and SciPy's OpenBLAS builds (and MKL
#: or OpenMP builds) read when they load.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _init_worker(data, labels, theta_true):
    global _CTX
    _CTX = (data, labels, theta_true)


def _map_worker(root: str) -> None:
    # A pool worker's context: the arrays its launcher saved in ``root``,
    # mapped read-only, and the pickled true mixture.
    import pickle

    def mapped(name):
        path = os.path.join(root, name)
        return np.asarray(np.load(path, mmap_mode="r")) if os.path.exists(path) else None

    with open(os.path.join(root, "theta_true.pkl"), "rb") as f:
        _init_worker(mapped("data.npy"), mapped("labels.npy"), pickle.load(f))


def _evaluate(theta, data, labels, theta_true) -> tuple[float, float, float]:
    # (loglik, se, ari) of a fitted theta; se and ari are nan without a true
    # mixture of its shape or without labels.  One density pass at theta
    # gives the log-likelihood and, for a labelled source, the MAP labels;
    # they equal dataset_loglik and map_labels bit for bit.  Without labels a
    # zero-density row only makes the loglik -inf.
    dens, fitted = _density_pass(data, theta, labels=labels is not None)
    loglik = _exact_sum(dens)
    se = float("nan")
    if theta_true is not None and theta_true.g == theta.g and theta_true.dim == theta.dim:
        se = squared_error(theta, theta_true)
    ari = float("nan")
    if labels is not None:
        ari = adjusted_rand_index(fitted, labels)
    return loglik, se, ari


def _run_task(args) -> list:
    """The rows of one grid task ``(variants, rep, init_theta, configs)``:
    one ``em`` or ``kmeans`` cell, or the ``mb`` cells of one batch
    fraction, whose runs go through :func:`run` in lockstep.  Every row,
    ok or failed, reports the task's wall and CPU time up to the return of
    :func:`run` or :func:`kmeans`.  ``config.polyak`` picks the reported
    parameters, and k-means starts from ``init_theta.means()`` with its
    epoch budget from ``config``."""
    variants, rep, init_theta, configs = args
    data, labels, theta_true = _CTX
    n = data.shape[0]
    wall0, cpu0 = time.perf_counter(), time.process_time()

    if variants[0].name == "kmeans":
        (config,) = configs
        fitted, _ = kmeans(data, init_theta.means(), config.epochs)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        ari = adjusted_rand_index(fitted, labels) if labels is not None else float("nan")
        return [RunRow(
            variants[0].vid, rep, config.seed, "ok",
            float("nan"), float("nan"), float("nan"), ari,
            config.epochs, 0, wall, cpu,
        )]

    try:
        records = run(data, configs, init_theta)
    except EstimationError as exc:
        records = (exc,) * len(configs)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    # Only what each row reports outlives the records, so the evaluation
    # passes do not hold a run's unreported parameters.
    outcomes = [
        record if isinstance(record, Exception) else (
            record.polyak_theta if config.polyak else record.final_theta,
            record.iterations, record.truncation_events,
        )
        for config, record in zip(configs, records)
    ]
    del records
    rows = []
    for variant, config, outcome in zip(variants, configs, outcomes):
        if not isinstance(outcome, Exception):
            theta, iterations, events = outcome
            try:
                loglik, se, ari = _evaluate(theta, data, labels, theta_true)
                rows.append(RunRow(
                    variant.vid, rep, config.seed, "ok",
                    loglik, loglik / n, se, ari, iterations, events, wall, cpu,
                ))
                continue
            except EstimationError as exc:
                outcome = exc
        iteration = outcome.iteration if isinstance(outcome, EngineRunError) else 0
        rows.append(RunRow(
            variant.vid, rep, config.seed, f"error:{type(outcome).__name__}",
            float("nan"), float("nan"), float("nan"), float("nan"),
            iteration, 0, wall, cpu,
        ))
    return rows


def run_experiment(spec: ExperimentSpec) -> list[RunRow]:
    """Execute the full grid and return one row per (variant, repetition),
    variant-major.

    Each repetition's randomized initialization is consumed by every variant;
    per-run failures are recorded in the row rather than aborting the grid.
    A variant's name and fraction give its :class:`RunConfig`: a batch size
    when it has a fraction, the region when the name holds ``trunc``, and
    averaging when it ends in ``-polyak``.  The ``mb`` variants of one batch
    fraction share a repetition's init, epochs, batch size and schedule, so
    each repetition runs them as one task, in lockstep through :func:`run`,
    and their rows report the task's wall and CPU time.  ``em`` and
    ``kmeans`` are one task per cell.

    The data is the only data-sized array the grid holds: the sample is drawn
    in place, and k-means and the evaluation pass work by row blocks; a
    repetition keeps only its init mixture, never its partition labels.  A
    serial grid clears its per-process context when it ends, also on error,
    so the data is released with the grid.  A pool's launcher saves the
    data, the labels and the true mixture in a temporary directory that
    outlives the pool, and each worker maps the arrays read-only.

    Pool workers are spawned, not forked, with one BLAS thread each whatever
    the launching environment sets, since the E-step's last bits can depend
    on the thread count; the parent's environment is restored afterwards.
    """
    data, labels, theta_true = resolve_source(spec)
    n = data.shape[0]
    inits = []
    for rep in range(spec.repetitions):
        rng = np.random.default_rng(derive_seed(spec.master_seed, "init", rep))
        inits.append(random_partition_init(data, spec.g, rng))
    groups = {}  # task key -> [(variant, config)], in order of first cell
    for variant in spec.variants:
        frac = variant.fraction
        for rep in range(spec.repetitions):
            config = RunConfig(
                epochs=spec.epochs,
                batch_size=None if frac is None else max(1, int(round(frac * n))),
                learning_rate=spec.learning_rate,
                truncation=spec.truncation if "trunc" in variant.name else None,
                polyak=variant.name.endswith("-polyak"),
                seed=derive_seed(spec.master_seed, variant.vid, rep),
            )
            key = (rep, variant.vid if frac is None else frac)
            groups.setdefault(key, []).append((variant, config))
    tasks = [
        (tuple(v for v, _ in cells), rep, inits[rep], tuple(c for _, c in cells))
        for (rep, _), cells in groups.items()
    ]
    if spec.workers <= 1:
        _init_worker(data, labels, theta_true)
        try:
            done = [_run_task(task) for task in tasks]
        finally:
            # Release the data, so the next grid does not sample beside it.
            global _CTX
            _CTX = None
    else:
        # Imported here, so that serial grids do not load the pool machinery.
        import multiprocessing
        import pickle
        import tempfile
        from concurrent.futures import ProcessPoolExecutor

        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            # Files, not initargs: a spawned worker's start-up pipe would
            # carry the pickled data, and block the launcher if it dies early.
            with tempfile.TemporaryDirectory() as root:
                np.save(os.path.join(root, "data.npy"), data)
                if labels is not None:
                    np.save(os.path.join(root, "labels.npy"), labels)
                with open(os.path.join(root, "theta_true.pkl"), "wb") as f:
                    pickle.dump(theta_true, f)
                with ProcessPoolExecutor(
                    max_workers=spec.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_map_worker,
                    initargs=(root,),
                ) as pool:
                    done = list(pool.map(_run_task, tasks))
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
    rows = {(row.variant, row.rep): row for task_rows in done for row in task_rows}
    return [rows[v.vid, rep] for v in spec.variants for rep in range(spec.repetitions)]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _ok_values(rows: list, metrics: tuple):
    """Yield ``(variant, metric, values)``: the finite values of each metric
    over a variant's ok rows, variants in first-seen order."""
    for variant in dict.fromkeys(row.variant for row in rows):
        ok = [r for r in rows if r.variant == variant and r.status == "ok"]
        for metric in metrics:
            values = np.array([getattr(r, metric) for r in ok], dtype=float)
            yield variant, metric, values[np.isfinite(values)]


def summarize(rows: list) -> list:
    """Per-variant mean/median/standard-error rows for every metric column.

    The standard error is the sample standard deviation over the square root
    of the run count (0 for a single run).  Failed runs are excluded.
    """
    if not rows:
        raise InvalidInputError("empty results table")
    out = []
    for variant, metric, values in _ok_values(rows, METRIC_COLUMNS):
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


def emit_boxplot_data(rows: list, metric: str) -> list:
    """Per-variant five-number summaries plus Tukey outliers for one metric."""
    if metric not in METRIC_COLUMNS:
        raise InvalidInputError(f"unknown metric {metric!r}")
    out = []
    for variant, _, values in _ok_values(rows, (metric,)):
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


def _finite_or_none(value):
    """``value`` with each non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def write_json(value, f) -> None:
    """Write ``value`` to the open text file ``f`` as indented JSON and a
    newline.  RFC 8259 has no NaN or infinity, so an undefined metric or an
    infinite constant is written as ``null``."""
    json.dump(_finite_or_none(value), f, indent=2, allow_nan=False)
    f.write("\n")


def write_results_csv(rows: list, path) -> None:
    lines = [",".join(RESULTS_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in RESULTS_COLUMNS))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_summary(rows: list, csv_path, json_path) -> None:
    records = summarize(rows)
    cols = ("variant", "metric", "count", "mean", "median", "se")
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in cols))
    with open(csv_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(json_path, "w") as f:
        write_json(records, f)


def write_boxplot_csv(rows: list, metric: str, path) -> None:
    records = emit_boxplot_data(rows, metric)
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


def write_meta(spec: ExperimentSpec, path) -> None:
    # Result bits depend on NumPy, on SciPy's LAPACK and on the BLAS
    # thread count, so the versions and this process's thread variables
    # (null when unset) are recorded.
    meta = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas_thread_vars": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
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
        "source": spec.source.meta(),
    }
    if spec.source.theta is not None:
        meta["template_theta"] = params_to_dict(spec.source.theta)
    with open(path, "w") as f:
        write_json(meta, f)
