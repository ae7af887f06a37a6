"""Command-line experiment runner.

Subcommands:

* ``simulate`` — fit a template mixture to a labeled CSV (or load a theta
  JSON file), synthesize data, and run the variant grid.
* ``mnist`` — ingest IDX image/label files, filter constant pixels, project
  with PCA, and run the grid; by default batch EM, truncated mini-batch EM
  with and without averaging, and a k-means baseline, with g = 10.
* ``bench`` — one grid cell (by default ``mb`` at batch fraction 0.1), its
  result row printed as JSON; any other cell count is rejected.

The three build their grid on one path and differ only in their data source
and in ``_COMMAND_DEFAULTS``.  A variant (``--variant``, repeatable) is one
of ``all``, ``em``, ``mb``, ``mb-polyak``, ``mb-trunc``, ``mb-trunc-polyak``
and ``kmeans``; ``all`` is the nine-variant grid of ``em`` and the four
``mb`` names, and each ``mb`` name runs once per batch fraction
(``--batch-frac``, repeatable, in (0, 1]).  Every option resolves the same
way: the flag if given, else the JSON config file (``--config``), else the
subcommand's default, else ``_DEFAULTS``; the flags' parser reads the
config file too.  A value the parser or the grid rejects, including an
unknown or unreadable config file, a data file (``--template``,
``--theta``, ``--images``, ``--labels``) that cannot be read or parsed, and
a single-valued option given twice, is a usage error with exit status 2.

Outputs: results.csv, summary.csv, summary.json, boxplot_<metric>.csv for
loglik, loglik_per_obs, se and ari, and meta.json in the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .engine import DEFAULT_LEARNING_RATE, LearningRate, RunConfig, TruncationRegion
from .errors import InvalidInputError
from .experiment import (
    ExperimentSpec,
    IdxSource,
    TemplateSource,
    ThetaSource,
    VARIANTS,
    VariantSpec,
    run_experiment,
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
}

#: Where a subcommand's defaults differ from ``_DEFAULTS``.
_COMMAND_DEFAULTS = {
    "mnist": {"variant": ["em", "mb-trunc", "mb-trunc-polyak", "kmeans"], "g": 10},
    "bench": {"variant": ["mb"], "batch_frac": [0.1]},
}


class _StoreOnce(argparse.Action):
    """Store an option's value, refusing a second one: a single-valued option
    given twice, by flags or as a list in the config file, is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is not None:
            parser.error(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mbem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="template synthesis + variant grid")
    mni = sub.add_parser("mnist", help="IDX -> PCA -> grid with k-means baseline")
    ben = sub.add_parser("bench", help="single run, metrics printed as JSON")
    for p in (sim, mni, ben):
        # Every option without an explicit action is single-valued.
        p.register("action", None, _StoreOnce)
    for p in (sim, ben):
        p.add_argument("--template", type=Path, help="labeled CSV to fit the template from")
        p.add_argument("--theta", type=Path, help="JSON parameter file to sample from")
        p.add_argument("--n", type=int, help="synthetic sample size")
    mni.add_argument("--images", type=Path, action="append",
                     help="IDX image file; repeatable (sets are concatenated)")
    mni.add_argument("--labels", type=Path, action="append",
                     help="IDX label file matching --images order")
    mni.add_argument("--d-pc", type=int, dest="d_pc", help="principal components to keep")
    for p in (sim, mni, ben):
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
    return parser


def _resolve_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Each option: the flag, else the config file, else the default.  The
    flags' parser reads the config file: a key names a flag, a list repeats it."""
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                items = json.load(f).items()
        except (OSError, ValueError, AttributeError) as exc:
            parser.error(f"--config {args.config}: {exc}")
        tokens = []
        for key, value in items:
            if key not in _DEFAULTS:
                parser.error(f"unknown config key {key!r}")
            for item in value if isinstance(value, list) else [value]:
                tokens += ["--" + key.replace("_", "-"), str(item)]
        config = vars(parser.parse_args([args.command, *tokens]))
    opts = {}
    for key, default in {**_DEFAULTS, **_COMMAND_DEFAULTS.get(args.command, {})}.items():
        value = getattr(args, key, None)
        value = config.get(key) if value is None else value
        opts[key] = default if value is None else value
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    opts = _resolve_options(parser, args)
    bench = args.command == "bench"
    if not (bench or opts["out_dir"]):
        parser.error("--out-dir is required")
    try:
        if args.command == "mnist":
            source = IdxSource(
                images=tuple(str(p) for p in opts["images"] or ()),
                labels=tuple(str(p) for p in opts["labels"] or ()),
                d_pc=opts["d_pc"],
            )
        elif bool(opts["template"]) == bool(opts["theta"]):
            parser.error("give exactly one of --template or --theta")
        elif opts["template"]:
            source = TemplateSource(str(opts["template"]), opts["n"])
        else:
            source = ThetaSource(str(opts["theta"]), opts["n"])
        spec = ExperimentSpec(
            source=source,
            g=source.theta.g if opts["g"] is None else opts["g"],
            variants=_expand_variants(opts["variant"], opts["batch_frac"]),
            repetitions=opts["reps"],
            master_seed=opts["seed"],
            epochs=opts["epochs"],
            learning_rate=LearningRate(opts["gamma0"], opts["alpha"]),
            truncation=TruncationRegion(opts["c1"], opts["c2"], opts["c3"]),
            workers=opts["workers"],
        )
        if bench and len(spec.variants) * spec.repetitions != 1:
            parser.error("bench runs one cell: one variant, one batch fraction and one repetition")
        rows = run_experiment(spec)
    except InvalidInputError as exc:
        parser.error(str(exc))
    if opts["out_dir"]:
        out_dir = Path(opts["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(rows, out_dir / "results.csv")
        write_summary(rows, out_dir / "summary.csv", out_dir / "summary.json")
        for metric in ("loglik", "loglik_per_obs", "se", "ari"):
            write_boxplot_csv(rows, metric, out_dir / f"boxplot_{metric}.csv")
        write_meta(spec, out_dir / "meta.json")
    if bench:
        print(json.dumps(asdict(rows[0]), indent=2))
    else:
        ok = sum(1 for r in rows if r.status == "ok")
        print(f"{len(rows)} runs ({ok} ok) -> {opts['out_dir']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
