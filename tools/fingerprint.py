r"""Bit fingerprint of mbem's results, for checking that a change keeps them.

Prints one JSON object that maps each case to sha256 digests of its arrays:

* ``sample/...``, ``init/...`` and ``kmeans/...``: :func:`mbem.sample`,
  :func:`mbem.data.random_partition_init` and :func:`mbem.data.kmeans`
  (started from the init's component means) at row counts on both sides of
  one, two and five row chunks of ``_block_rows(1, d)`` rows (1 MiB), at
  d = 1, 4 and 50.  At g = 3, ``kmeans/...-emptied`` starts from the same
  means with the last one at 1e6 in every coordinate, so that the first
  sweep empties that cluster and reseeds it from the farthest row;
* ``run/...``: every field of a :class:`mbem.RunRecord` but its timings,
  over 54 runs: d = 1, 4 and 50; batch EM and batch sizes 1, 2, 10 and
  500; truncated or not (mini-batch only) and Polyak-averaged or not.  A
  run that fails records its error type and message instead;
* ``grid/<variant>/<rep>``: every non-timing ``results.csv`` column of
  one row of ``mbem simulate --variant all`` on the iris template
  (n = 1000, 2 epochs, 2 repetitions) at batch sizes 1, 2 and 10, where
  the grid runs the ``mb`` cells of each batch size in lockstep.  The
  untruncated batch-size-1 cells fail at iteration 1 while their truncated
  twins run on;
* ``dataset_loglik/...``, ``map_labels/...``, ``log_densities/...`` and
  ``responsibilities_batch/...``: the evaluation pass of
  :mod:`mbem.metrics` and :mod:`mbem.families` at the generating mixture,
  at d = 1, 4 and 50 and g = 3 and 10, on ``k * _block_rows(g, d)`` rows
  and one row more, for k = 1 and 2.  The extra row is a one-row last
  block, which carries a stale second column so that NumPy does not sum a
  lone column pairwise (it does from g = 8 on).

Run it from a checkout, on that checkout's ``src``, and diff the outputs of
two commits; equal outputs mean no result bit moved::

    python tools/fingerprint.py > before.json   # at the parent commit
    python tools/fingerprint.py > after.json    # at the change
    diff before.json after.json

``--src DIR`` runs this tool on another commit's sources instead, say a
``git archive`` of the parent's ``src``.  The ``grid/...`` cases reach the
package through the command line alone, so this tool runs on sources from
before they existed::

    mkdir base && git archive HEAD^ src | tar -x -C base
    python tools/fingerprint.py --src base/src > before.json
    python tools/fingerprint.py > after.json

Across a change of what a case digests, compare the common part instead.
At commits where :func:`mbem.data.kmeans` still took partition labels,
``init/...`` held a pair: the init's digest and the digest of its labels,
from which ``kmeans/...`` started.  Now ``init/...`` is the init's digest
alone, and k-means starts from the init's means, which are the partition's
block means.  With ``before.json`` from the older tool at such a commit
and ``after.json`` from this tool, no bit moved when this exits with 0::

    python -c "import json,sys; a,b=(json.load(open(p)) for p in sys.argv[1:]); \
a={k:(v[0] if k.startswith('init/') else v) for k,v in a.items()}; sys.exit(a!=b)" \
        before.json after.json

BLAS is pinned to one thread, since a grid's bits depend on the thread
count at some shapes.  It takes about 15 seconds on one core.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
_parser = argparse.ArgumentParser(description="Bit fingerprint of mbem's results.")
_parser.add_argument("--src", type=Path, default=ROOT / "src",
                     help="the sources to fingerprint (default: this checkout's src)")
sys.path.insert(0, str(_parser.parse_args().src.resolve()))

import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

from mbem import Gaussian, MixtureParams, RunConfig, TruncationRegion  # noqa: E402
from mbem import run, sample  # noqa: E402
from mbem.cli import main as mbem_main  # noqa: E402
from mbem.data import kmeans, random_partition_init  # noqa: E402
from mbem.errors import EngineRunError  # noqa: E402
from mbem.families import _block_rows, log_densities, responsibilities_batch  # noqa: E402
from mbem.metrics import dataset_loglik, map_labels  # noqa: E402

#: (d, g, n) of the engine runs; n leaves every batch size at most n.
RUN_SHAPES = ((1, 3, 2000), (4, 3, 2000), (50, 3, 1000))
BATCH_SIZES = (1, 2, 10, 500)

#: Rows of the grid cases, and their batch sizes (fraction * n).
GRID_N = 1000
GRID_BATCHES = (1, 2, 10)
#: Columns that differ between reruns of one grid (``TIMING_COLUMNS``).
GRID_TIMING = ("wall_time_s", "cpu_time_s")


def digest(*arrays) -> str:
    """sha256 of the dtypes, shapes and bytes of ``arrays``."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def theta_digest(theta: MixtureParams | None) -> str | None:
    if theta is None:
        return None
    return digest(theta.weights, theta.means(), theta.covariances())


def mixture(d: int, g: int, seed: int) -> MixtureParams:
    """A well-conditioned Gaussian mixture: means from N(0, 3^2), covariances
    A A^T + cI, weights from Dirichlet(2, ..., 2) floored at 0.15."""
    rng = np.random.default_rng([seed, d, g])
    comps = []
    for _ in range(g):
        a = rng.normal(0.0, 1.0, (d, d))
        cov = a @ a.T + np.eye(d) * rng.uniform(0.5, 1.5)
        comps.append(Gaussian(rng.normal(0.0, 3.0, d), (cov + cov.T) / 2.0))
    w = np.maximum(rng.dirichlet(np.full(g, 2.0)), 0.15)
    return MixtureParams(w / w.sum(), tuple(comps))


def setup_cases() -> dict:
    out = {}
    for d in (1, 4, 50):
        b = _block_rows(1, d)
        for g in (1, 3):
            theta = mixture(d, g, 0)
            for n in (b - 1, b + 1, 2 * b + 5, 5 * b + 3):
                key = f"{d}-{g}-{n}"
                data, labels = sample(theta, n, np.random.default_rng(n))
                out[f"sample/{key}"] = digest(data, labels)
                init = random_partition_init(data, g, np.random.default_rng(1))
                out[f"init/{key}"] = theta_digest(init)
                found, centers = kmeans(data, init.means(), 5)
                out[f"kmeans/{key}"] = digest(found, centers)
                if g > 1:
                    far = init.means()
                    far[-1] = 1e6
                    found, centers = kmeans(data, far, 5)
                    out[f"kmeans/{key}-emptied"] = digest(found, centers)
    return out


def record_digest(config: RunConfig, data: np.ndarray, init: MixtureParams):
    try:
        rec = run(data, config, init)
    except EngineRunError as exc:
        return f"{type(exc).__name__}: {exc}"
    return {
        "final_theta": theta_digest(rec.final_theta),
        "polyak_theta": theta_digest(rec.polyak_theta),
        "trace": [theta_digest(t) for t in rec.trace],
        "polyak_trace": [theta_digest(t) for t in rec.polyak_trace],
        "iterations": rec.iterations,
        "truncation_events": rec.truncation_events,
    }


def run_cases() -> dict:
    out = {}
    for d, g, n in RUN_SHAPES:
        data, _ = sample(mixture(d, g, 1), n, np.random.default_rng(2))
        init = random_partition_init(data, g, np.random.default_rng(3))
        variants = [(None, False)] + [(b, t) for b in BATCH_SIZES for t in (False, True)]
        for batch_size, truncated in variants:
            for polyak in (False, True):
                config = RunConfig(
                    epochs=2,
                    batch_size=batch_size,
                    truncation=TruncationRegion() if truncated else None,
                    polyak=polyak,
                    seed=4,
                )
                name = "em" if batch_size is None else f"mb{batch_size}" + "-trunc" * truncated
                out[f"run/{d}/{name}" + "-polyak" * polyak] = record_digest(config, data, init)
    return out


def eval_cases() -> dict:
    out = {}
    for d in (1, 4, 50):
        for g in (3, 10):
            theta = mixture(d, g, 5)
            b = _block_rows(g, d)
            for n in (b, b + 1, 2 * b, 2 * b + 1):
                key = f"{d}-{g}-{n}"
                data, _ = sample(theta, n, np.random.default_rng(n))
                out[f"dataset_loglik/{key}"] = digest(np.float64(dataset_loglik(data, theta)))
                out[f"map_labels/{key}"] = digest(map_labels(data, theta))
                out[f"log_densities/{key}"] = digest(log_densities(data, theta))
                out[f"responsibilities_batch/{key}"] = digest(responsibilities_batch(data, theta))
    return out


def grid_cases() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--template", str(ROOT / "tests" / "data" / "iris.csv"),
                "--n", str(GRID_N), "--epochs", "2", "--reps", "2", "--seed", "1",
                "--variant", "all", "--out-dir", tmp]
        for batch in GRID_BATCHES:
            argv += ["--batch-frac", repr(batch / GRID_N)]
        with redirect_stdout(io.StringIO()):
            mbem_main(argv)
        with open(Path(tmp) / "results.csv", newline="") as f:
            for row in csv.DictReader(f):
                kept = [f"{k}={v}" for k, v in row.items() if k not in GRID_TIMING]
                out[f"grid/{row['variant']}/{row['rep']}"] = hashlib.sha256(
                    ";".join(kept).encode()).hexdigest()
    return out


def main() -> None:
    cases = {**setup_cases(), **run_cases(), **grid_cases(), **eval_cases()}
    print(json.dumps(cases, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
