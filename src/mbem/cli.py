"""Command-line experiment runner.

Subcommands:

* ``simulate`` — fit a template mixture to a labeled CSV (or load a theta
  JSON file), synthesize data, and run the variant grid.
* ``mnist`` — ingest IDX image/label files, filter constant pixels, project
  with PCA, and run the grid plus a k-means baseline.
* ``bench`` — one single run, metrics printed as JSON.

A variant (``--variant``, repeatable) is one of ``all``, ``em``, ``mb``,
``mb-polyak``, ``mb-trunc``, ``mb-trunc-polyak`` and ``kmeans``; each ``mb``
name runs once per batch fraction (``--batch-frac``, repeatable, in (0, 1]).
Every option resolves the same way from ``_DEFAULTS``: the flag if given,
else the JSON config file (``--config``), else the default.

Outputs: results.csv, summary.csv, summary.json, boxplot_<metric>.csv, and
meta.json in the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import DEFAULT_LEARNING_RATE, LearningRate, RunConfig, TruncationRegion
from .experiment import (
    ExperimentSpec,
    IdxSource,
    TemplateSource,
    ThetaSource,
    VARIANTS,
    VariantSpec,
    run_experiment,
    template_theta,
    write_boxplot_csv,
    write_meta,
    write_results_csv,
    write_summary,
)

VARIANT_CHOICES = ("all",) + VARIANTS

#: Every option and its default; None where there is none.
_DEFAULTS = {
    "seed": 0,
    "epochs": RunConfig.epochs,
    "batch_frac": [0.1, 0.2],
    "variant": ["all"],
    "reps": 1,
    "n": 100_000,
    "g": None,
    "gamma0": DEFAULT_LEARNING_RATE.gamma0,
    "alpha": DEFAULT_LEARNING_RATE.alpha,
    "c1": TruncationRegion.c1,
    "c2": TruncationRegion.c2,
    "c3": TruncationRegion.c3,
    "workers": 1,
    "d_pc": 10,
    "template": None,
    "theta": None,
    "out_dir": None,
    "images": None,
    "labels": None,
    "per_obs_loglik": None,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--epochs", type=int, help="epoch budget per run")
    p.add_argument("--batch-frac", type=float, action="append", dest="batch_frac",
                   help="mini-batch fraction of n; repeatable")
    p.add_argument("--variant", action="append", choices=VARIANT_CHOICES,
                   help="variant to run; repeatable")
    p.add_argument("--out-dir", type=Path, help="output directory")
    p.add_argument("--reps", type=int, help="repetitions per variant")
    p.add_argument("--g", type=int, help="number of mixture components")
    p.add_argument("--gamma0", type=float, help="learning-rate scale in (0,1)")
    p.add_argument("--alpha", type=float, help="learning-rate decay in (1/2,1]")
    p.add_argument("--c1", type=float, help="truncation weight constant")
    p.add_argument("--c2", type=float, help="truncation mean constant")
    p.add_argument("--c3", type=float, help="truncation eigenvalue constant")
    p.add_argument("--workers", type=int, help="parallel workers over repetitions")
    p.add_argument("--per-obs-loglik", action="store_true", default=None,
                   help="also emit the per-observation log-likelihood boxplot")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mbem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="template synthesis + variant grid")
    sim.add_argument("--template", type=Path, help="labeled CSV to fit the template from")
    sim.add_argument("--theta", type=Path, help="JSON parameter file to sample from")
    sim.add_argument("--n", type=int, help="synthetic sample size")
    _add_common(sim)

    mni = sub.add_parser("mnist", help="IDX -> PCA -> grid with k-means baseline")
    mni.add_argument("--images", type=Path, action="append",
                     help="IDX image file; repeatable (sets are concatenated)")
    mni.add_argument("--labels", type=Path, action="append",
                     help="IDX label file matching --images order")
    mni.add_argument("--d-pc", type=int, dest="d_pc", help="principal components to keep")
    _add_common(mni)

    ben = sub.add_parser("bench", help="single run, metrics printed as JSON")
    ben.add_argument("--template", type=Path)
    ben.add_argument("--theta", type=Path)
    ben.add_argument("--n", type=int)
    _add_common(ben)
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    config = {}
    if args.config:
        with open(args.config) as f:
            config = json.load(f)
    opts = {}
    for key, default in _DEFAULTS.items():
        value = getattr(args, key, None)
        opts[key] = config.get(key, default) if value is None else value
    return opts


def _expand_variants(names, fractions) -> tuple:
    variants = []
    for name in names:
        if name == "all":
            variants.append(VariantSpec("em"))
            for kind in ("mb", "mb-trunc"):
                for frac in fractions:
                    variants += [VariantSpec(kind, frac), VariantSpec(kind + "-polyak", frac)]
        elif name in ("em", "kmeans"):
            variants.append(VariantSpec(name))
        else:
            variants += [VariantSpec(name, frac) for frac in fractions]
    return tuple(dict.fromkeys(variants))


def _synthetic_source(opts):
    if opts["template"]:
        return TemplateSource(str(opts["template"]), int(opts["n"]))
    if opts["theta"]:
        return ThetaSource(str(opts["theta"]), int(opts["n"]))
    raise SystemExit("one of --template or --theta is required")


def _default_g(theta_true, opts) -> int:
    if opts["g"] is not None:
        return int(opts["g"])
    return 10 if theta_true is None else theta_true.g


def _build_spec(source, opts, variants, theta_true) -> ExperimentSpec:
    return ExperimentSpec(
        source=source,
        g=_default_g(theta_true, opts),
        variants=variants,
        repetitions=int(opts["reps"]),
        master_seed=int(opts["seed"]),
        epochs=int(opts["epochs"]),
        learning_rate=LearningRate(float(opts["gamma0"]), float(opts["alpha"])),
        truncation=TruncationRegion(float(opts["c1"]), float(opts["c2"]), float(opts["c3"])),
        workers=int(opts["workers"]),
    )


def _write_outputs(spec: ExperimentSpec, table, out_dir: Path, per_obs: bool, theta_true) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(table, out_dir / "results.csv")
    write_summary(table, out_dir / "summary.csv", out_dir / "summary.json")
    metrics = ["loglik", "se", "ari"]
    if per_obs:
        metrics.insert(1, "loglik_per_obs")
    for metric in metrics:
        write_boxplot_csv(table, metric, out_dir / f"boxplot_{metric}.csv")
    write_meta(spec, out_dir / "meta.json", theta_true)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    opts = _resolve_options(args)

    if args.command == "simulate":
        source = _synthetic_source(opts)
        variants = _expand_variants(opts["variant"], opts["batch_frac"])
    elif args.command == "mnist":
        if not opts["images"]:
            raise SystemExit("--images is required (flag or config)")
        labels = opts["labels"] or []
        if labels and len(labels) != len(opts["images"]):
            raise SystemExit("--labels must pair with --images one to one")
        source = IdxSource(
            images=tuple(str(p) for p in opts["images"]),
            labels=tuple(str(p) for p in labels),
            d_pc=int(opts["d_pc"]),
        )
        names = opts["variant"]
        if names == ["all"]:
            names = ["em", "mb-trunc", "mb-trunc-polyak", "kmeans"]
        variants = _expand_variants(names, opts["batch_frac"])
    else:  # bench
        source = _synthetic_source(opts)
        names = [n for n in opts["variant"] if n != "all"] or ["mb"]
        variants = _expand_variants(names[:1], opts["batch_frac"][:1])[:1]

    # Built once: the default g, the sampled data and meta.json all use it.
    theta_true = template_theta(source)
    spec = _build_spec(source, opts, variants, theta_true)

    if args.command == "bench":
        table = run_experiment(spec, theta_true)
        row = table.rows[0]
        print(json.dumps({col: getattr(row, col) for col in row.__dataclass_fields__}, indent=2))
        if opts["out_dir"]:
            _write_outputs(spec, table, Path(opts["out_dir"]), bool(opts["per_obs_loglik"]), theta_true)
        return 0

    if not opts["out_dir"]:
        raise SystemExit("--out-dir is required")
    table = run_experiment(spec, theta_true)
    _write_outputs(spec, table, Path(opts["out_dir"]), bool(opts["per_obs_loglik"]), theta_true)
    ok = sum(1 for r in table.rows if r.status == "ok")
    print(f"{len(table.rows)} runs ({ok} ok) -> {opts['out_dir']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
