"""Benchmark of the mbem variant-grid command, run from the repository root:

    python3 benchmarks/run.py --workload iris-grid --seed 1 --seconds 36 --trace 0

Each repetition runs one grid of a workload (see NOTES.md) in-process through
``mbem.cli.main(["simulate", ...])``: one client, one grid at a time, one
worker, one BLAS thread.  Each grid is preceded by set-up-only probes and a
garbage collection, so every grid starts from the same interpreter state.
Repetitions continue until ``--seconds`` is spent (at least three).  Every
repetition's results.csv is checked.  With ``--trace 0`` the end-to-end
metrics are medians over the repetitions; with
``--trace 1`` untraced and traced repetitions alternate and the per-layer
metrics come from the traced ones.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` grid cells, and
``metrics``.  Details, the environment and the spans of the last traced
repetition are written under ``.mbench/results/``.
"""

from __future__ import annotations

import os

from mbench.envinfo import THREAD_VARS

# One BLAS thread, pinned before NumPy loads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from mbench.check import (  # noqa: E402
    mismatches,
    read_results,
    reference_failures,
    reference_of,
    row_failures,
)
from mbench.envinfo import environment  # noqa: E402
from mbench.report import E2E_UNITS, LAYER_UNITS, layer_metrics, quality  # noqa: E402
from mbench.tracer import ENTRY_SITES, NAME, SITES, START, Tracer, installed  # noqa: E402
from mbench.workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
MIN_REPS = 3
#: Set-up-only probes before each grid, so ``setup_s`` is a median of many samples.
SETUP_PROBES = 3


@dataclass
class Rep:
    """One measured grid."""

    traced: bool
    wall: float
    cpu: float
    setup: list
    rows: list


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    peaks = (resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(peaks) / 1024.0


def run_rep(argv: list, out_dir: Path, traced: bool) -> tuple:
    """One grid through ``mbem.cli.main``, as ``(Rep, tracer, start_ns)``.

    Untraced grids wrap only the engine entries, to time the set-up.
    """
    import mbem.cli

    tracer = Tracer()
    main = tracer.wrap(mbem.cli.main, "cli.main")
    with installed(tracer, SITES if traced else ENTRY_SITES) as missing, redirect_stdout(
        io.StringIO()
    ):
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter_ns()
        status = main(argv)
        t1 = time.perf_counter_ns()
        cpu1 = _cpu_seconds()
    if status != 0:
        raise RuntimeError(f"mbem simulate exited with {status}")
    if missing:
        print(f"warning: call sites not found, their metrics read 0: {missing}", file=sys.stderr)
    entries = [sp[START] for sp in tracer.spans if sp[NAME] in ("engine.run", "data.kmeans")]
    setup_ns = (min(entries) if entries else t1) - t0
    rep = Rep(traced, (t1 - t0) / 1e9, cpu1 - cpu0, [setup_ns / 1e9],
              read_results(out_dir / "results.csv"))
    return rep, tracer, t0


class _EngineEntered(Exception):
    """Ends a set-up probe at the first engine entry."""


def probe_setup(argv: list) -> float:
    """Seconds from ``mbem.cli.main`` entry to the first engine entry; the
    grid is abandoned there."""
    import mbem.cli
    import mbem.experiment

    def stop(*args, **kwargs):
        raise _EngineEntered

    saved = {name: vars(mbem.experiment)[name] for name in ("run", "kmeans")}
    try:
        for name in saved:
            setattr(mbem.experiment, name, stop)
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            try:
                mbem.cli.main(argv)
            except _EngineEntered:
                return (time.perf_counter_ns() - t0) / 1e9
    finally:
        for name, fn in saved.items():
            setattr(mbem.experiment, name, fn)
    raise RuntimeError("the grid finished without entering the engine")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run one grid and store its quality metrics in reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.write_reference and args.trace:
        parser.error("--write-reference needs --trace 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mbem" / "__init__.py").is_file():
        print(f"error: no mbem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mbem

    if Path(mbem.__file__).resolve().parent != SRC / "mbem":
        print(f"error: imported mbem from {mbem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment(ROOT, workload.name, args.seed)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = None if args.write_reference else references.get(workload.name, {}).get(
        str(args.seed)
    )
    expected = workload.expected_iterations()

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".mbench" / "work" / stem
    results_dir = ROOT / ".mbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    reps: list = []
    layers: list = []
    failures: dict = {}
    try:
        argv_grid = workload.argv(args.seed, work)
        start = lap = time.perf_counter()
        laps = []
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            probes = [] if args.write_reference else [
                probe_setup(argv_grid) for _ in range(SETUP_PROBES)
            ]
            gc.collect()
            rep, tracer, origin_ns = run_rep(argv_grid, work / "out", traced)
            rep.setup += probes
            if traced:
                layers.append(layer_metrics(tracer.spans, workload.d, workload.g))
                last_trace = tracer, origin_ns
            bad = row_failures(rep.rows, expected)
            if reps:
                bad.update(mismatches(rep.rows, reps[0].rows))
            if reference is not None:
                bad.update(reference_failures(rep.rows, reference))
            for vid, reasons in bad.items():
                failures[f"rep{len(reps)}:{vid}"] = reasons
            reps.append(rep)
            laps.append(time.perf_counter() - lap)
            lap = time.perf_counter()
            if args.write_reference or (
                len(reps) >= MIN_REPS and lap - start + statistics.median(laps) > args.seconds
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(expected) * len(reps)
    failed = len(failures)
    for cell, reasons in failures.items():
        print(f"check failed: {cell}: {'; '.join(reasons)}", file=sys.stderr)
    plain = [r for r in reps if not r.traced]
    rows = reps[0].rows
    if args.trace:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        traced_wall = statistics.median(r.wall for r in reps if r.traced)
        values["trace.overhead_frac"] = traced_wall / statistics.median(r.wall for r in plain) - 1
        values.update(quality(rows))
        steps = sum(v for k, v in expected.items() if k != "kmeans")
        if any(m["engine.step.calls"] != steps for m in layers):
            print(f"warning: traced engine steps differ from the configured {steps}",
                  file=sys.stderr)
        tracer, origin_ns = last_trace
        tracer.write(results_dir / f"{stem}-spans.csv.gz", origin_ns)
        units = LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(t for r in plain for t in r.setup),
            "wall_s": statistics.median(r.wall for r in plain),
            "cpu_s": statistics.median(r.cpu for r in plain),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    report = {
        "env": env,
        "argv": argv_grid,
        "reps": [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu, "setup_s": r.setup}
                 for r in reps],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.write_reference and not failures:
        references.setdefault(workload.name, {})[str(args.seed)] = reference_of(rows)
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"{len(reps)} grids ({len(reps) - len(plain)} traced), "
          f"fail_frac = {failed}/{attempted} grid cells")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, value in quality(rows).items():
            print(f"{name:48s} {value:.6g} {LAYER_UNITS[name]} (reported with --trace 1)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
