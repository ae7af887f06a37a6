import csv
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mbem.cli import main as cli_main
from mbem.data import kmeans, random_partition_init
from mbem.engine import LearningRate, RunConfig, run
from mbem.experiment import (
    RESULTS_COLUMNS,
    TIMING_COLUMNS,
    ExperimentSpec,
    IdxSource,
    RunRow,
    TemplateSource,
    ThetaSource,
    VariantSpec,
    _evaluate,
    _init_worker,
    _run_task,
    derive_seed,
    emit_boxplot_data,
    resolve_source,
    run_experiment,
    summarize,
    write_boxplot_csv,
    write_results_csv,
    write_summary,
)
from mbem.errors import DegeneratePointError, InvalidInputError
from mbem.families import Exponential, Gaussian, MixtureParams, Poisson, params_to_dict
from mbem.metrics import adjusted_rand_index, dataset_loglik, map_labels

from conftest import make_gaussian_mixture, write_idx

IRIS_CSV = Path(__file__).parent / "data" / "iris.csv"


def _small_spec(n=600, reps=2, variants=None, seed=11, workers=1):
    variants = variants or (VariantSpec("em"), VariantSpec("mb", 0.25))
    return ExperimentSpec(
        source=TemplateSource(str(IRIS_CSV), n),
        g=3,
        variants=variants,
        repetitions=reps,
        master_seed=seed,
        epochs=3,
        workers=workers,
    )


def _strip_timing(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    drop = [rows[0].index(c) for c in TIMING_COLUMNS]
    kept = [[v for i, v in enumerate(row) if i not in drop] for row in rows]
    return "\n".join(",".join(row) for row in kept)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_is_pure_and_distinct():
    a = derive_seed(42, "mb-0.1", 3)
    assert a == derive_seed(42, "mb-0.1", 3)
    assert a != derive_seed(42, "mb-0.1", 4)
    assert a != derive_seed(42, "mb-0.2", 3)
    assert a != derive_seed(43, "mb-0.1", 3)
    assert 0 <= a < 2**64


def test_variant_ids():
    assert VariantSpec("em").vid == "em"
    assert VariantSpec("kmeans").vid == "kmeans"
    assert VariantSpec("mb", 0.1).vid == "mb-0.1"
    assert VariantSpec("mb-polyak", 0.1).vid == "mb-0.1-polyak"
    assert VariantSpec("mb-trunc", 0.2).vid == "mb-0.2-trunc"
    assert VariantSpec("mb-trunc-polyak", 0.2).vid == "mb-0.2-trunc-polyak"


def test_variant_spec_rejects_cells_it_cannot_run():
    # a fraction on a full-data variant, a missing or out-of-range fraction
    # on a mini-batch one, and a name outside VARIANTS
    for args in (("em", 0.1), ("kmeans", 0.5), ("mb", None), ("mb", -0.5), ("mb", 0.0),
                 ("mb", 1.5), ("em-polyak",)):
        with pytest.raises(InvalidInputError):
            VariantSpec(*args)
    with pytest.raises(TypeError):
        VariantSpec("em", polyak=True)  # averaging is spelled in the name
    assert VariantSpec("mb", 1.0).vid == "mb-1"


def test_experiment_spec_rejects_no_components():
    for g in (0, -1):
        with pytest.raises(InvalidInputError):
            ExperimentSpec(
                source=TemplateSource(str(IRIS_CSV), 600), g=g,
                variants=(VariantSpec("em"),), repetitions=1, master_seed=0,
            )


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

def test_grid_row_count_and_order():
    spec = _small_spec(reps=3)
    rows = run_experiment(spec)
    assert len(rows) == 2 * 3
    assert [(r.variant, r.rep) for r in rows] == [
        ("em", 0), ("em", 1), ("em", 2),
        ("mb-0.25", 0), ("mb-0.25", 1), ("mb-0.25", 2),
    ]
    assert all(r.status == "ok" for r in rows)


def test_nine_variant_grid_shape():
    variants = [VariantSpec("em")]
    for kind in ("mb", "mb-trunc"):
        for frac in (0.1, 0.2):
            variants.append(VariantSpec(kind, frac))
            variants.append(VariantSpec(kind + "-polyak", frac))
    spec = _small_spec(reps=2, variants=tuple(variants))
    rows = run_experiment(spec)
    assert len(rows) == 9 * 2


@pytest.mark.parametrize(
    "variant", [VariantSpec("em"), VariantSpec("mb-polyak", 0.25), VariantSpec("kmeans")],
    ids=lambda v: v.vid,
)
def test_single_em_row_matches_manual_run(variant):
    spec = _small_spec(reps=1, variants=(variant,), seed=5)
    rows = run_experiment(spec)
    assert len(rows) == 1
    row = rows[0]
    # redo the run from the derived seeds: the recorded loglik and ARI must
    # match the public metrics bit for bit
    data, labels, theta_true = resolve_source(spec)
    init = random_partition_init(data, 3, np.random.default_rng(derive_seed(5, "init", 0)))
    if variant.name == "kmeans":
        # k-means starts from the shared init's means, its partition's block means
        assert row.status == "ok"
        assert row.ari == adjusted_rand_index(kmeans(data, init.means(), 3)[0], labels)
        return
    if variant.name == "em":
        config = RunConfig(epochs=3, seed=derive_seed(5, "em", 0))
    else:
        config = RunConfig(
            epochs=3, batch_size=len(data) // 4, polyak=True,
            seed=derive_seed(5, variant.vid, 0),
        )
    rec = run(data, config, init)
    theta = rec.polyak_theta if config.polyak else rec.final_theta
    assert row.status == "ok"
    assert row.loglik == dataset_loglik(data, theta)
    assert row.loglik_per_obs == row.loglik / len(data)
    assert row.ari == adjusted_rand_index(map_labels(data, theta), labels)


def test_grid_runs_each_fractions_mb_cells_in_lockstep(monkeypatch):
    # one run call per (repetition, batch fraction) holds every mb variant of
    # that fraction; em is one cell per call; rows stay variant-major, equal
    # the cells run one by one, and the rows of a group share its timings
    import mbem.experiment

    variants = (
        VariantSpec("em"),
        VariantSpec("mb", 0.25), VariantSpec("mb", 0.5),
        VariantSpec("mb-trunc-polyak", 0.25), VariantSpec("mb-trunc-polyak", 0.5),
        VariantSpec("kmeans"),
    )
    spec = _small_spec(reps=2, variants=variants)
    calls = []

    def counted(data, config, init):
        calls.append(config)
        return run(data, config, init)

    monkeypatch.setattr(mbem.experiment, "run", counted)
    rows = run_experiment(spec)
    assert [len(c) for c in calls] == [1, 1, 2, 2, 2, 2]
    assert all(isinstance(c, tuple) for c in calls)
    assert [(r.variant, r.rep) for r in rows] == [
        (v.vid, rep) for v in variants for rep in range(2)
    ]
    by_cell = {(r.variant, r.rep): r for r in rows}
    for rep in range(2):
        for frac in ("0.25", "0.5"):
            a, b = by_cell[f"mb-{frac}", rep], by_cell[f"mb-{frac}-trunc-polyak", rep]
            assert (a.wall_time_s, a.cpu_time_s) == (b.wall_time_s, b.cpu_time_s)
    monkeypatch.undo()
    for variant in variants:
        alone = run_experiment(replace(spec, variants=(variant,)))
        for row in alone:
            assert _strip_row(row) == _strip_row(by_cell[row.variant, row.rep])


def _strip_row(row):
    return [repr(getattr(row, c)) for c in RESULTS_COLUMNS if c not in TIMING_COLUMNS]


def test_evaluate_zero_density_row():
    # a negative observation has zero density under every exponential
    # component: the log-likelihood is -inf, and only a labelled source asks
    # for MAP labels, which then fail
    theta = MixtureParams([0.5, 0.5], (Exponential(1.0), Exponential(3.0)))
    data = np.array([[0.5], [-1.0], [2.0]])
    with pytest.raises(DegeneratePointError):
        _evaluate(theta, data, np.array([0, 1, 0]), theta)
    loglik, se, ari = _evaluate(theta, data, None, theta)
    assert loglik == -math.inf == dataset_loglik(data, theta)
    assert se == 0.0
    assert math.isnan(ari)


def test_serial_grid_releases_its_data(tmp_path):
    # d = 20: sampling sets the grid's peak, so data a finished grid kept
    # would sit beside the next grid's sample and raise its peak by the data
    import mbem.experiment

    d, n = 20, 20_000
    theta = MixtureParams(
        [0.5, 0.5], (Gaussian(np.zeros(d), np.eye(d)), Gaussian(np.full(d, 4.0), 2.0 * np.eye(d)))
    )
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(params_to_dict(theta)))
    spec = ExperimentSpec(
        source=ThetaSource(str(path), n), g=2, variants=(VariantSpec("em"),),
        repetitions=1, master_seed=2, epochs=1,
    )
    # slack for caches the first grid fills after its peak (a few kB)
    slack = 0.01 * n * d * 8
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            run_experiment(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
            assert mbem.experiment._CTX is None
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + slack


def test_serial_grid_memory_does_not_grow_with_repetitions():
    # iris template, batch EM for one epoch: a grid that kept each
    # repetition's partition labels (8 bytes per row) would peak about 19
    # label vectors higher at 20 repetitions than at one
    n = 20_000
    peaks = []
    tracemalloc.start()
    try:
        for reps in (1, 20):
            spec = ExperimentSpec(
                source=TemplateSource(str(IRIS_CSV), n), g=3, variants=(VariantSpec("em"),),
                repetitions=reps, master_seed=1, epochs=1,
            )
            tracemalloc.reset_peak()
            run_experiment(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    bound = peaks[0] + 2 * 8 * n  # two label vectors, fixed before measuring
    assert peaks[1] <= bound


def test_shared_initialization_across_variants():
    # both variants consume the same per-rep initialization, so the batch-EM
    # trajectory is identical whether or not other variants run
    alone = run_experiment(_small_spec(reps=2, variants=(VariantSpec("em"),)))
    paired = run_experiment(_small_spec(reps=2))
    em_alone = [r.loglik for r in alone]
    em_paired = [r.loglik for r in paired if r.variant == "em"]
    assert em_alone == em_paired


def test_theta_json_source(tmp_path):
    theta = MixtureParams(
        [0.5, 0.5], (Gaussian([-3.0], [[1.0]]), Gaussian([3.0], [[1.0]]))
    )
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(params_to_dict(theta)))
    spec = ExperimentSpec(
        source=ThetaSource(str(path), 400),
        g=2,
        variants=(VariantSpec("mb", 0.25),),
        repetitions=1,
        master_seed=3,
        epochs=3,
    )
    rows = run_experiment(spec)
    row = rows[0]
    assert row.status == "ok"
    assert math.isfinite(row.se)  # true parameters known -> SE defined
    assert math.isfinite(row.ari)


def test_failed_run_recorded_not_fatal():
    spec = _small_spec(reps=1)
    data, labels, theta_true = resolve_source(spec)
    _init_worker(data, labels, theta_true)
    bad_init = MixtureParams(
        [0.5, 0.5],
        (Gaussian(np.zeros(4), np.eye(4) * 1e-9), Gaussian(np.ones(4), np.eye(4))),
    )
    config = RunConfig(
        epochs=3, batch_size=round(0.25 * len(data)), learning_rate=LearningRate(0.9, 0.6), seed=7
    )
    (row,) = _run_task(((VariantSpec("mb", 0.25),), 0, bad_init, (config,)))
    assert row.status.startswith("error:")
    assert math.isnan(row.loglik)


def test_kmeans_variant_row():
    spec = _small_spec(reps=1, variants=(VariantSpec("kmeans"),))
    rows = run_experiment(spec)
    row = rows[0]
    assert row.status == "ok"
    assert math.isnan(row.loglik)
    assert math.isfinite(row.ari)


def test_epoch_budget_fairness():
    # every variant's data-point visits stay within one batch of epochs * n
    n, epochs = 600, 3
    spec = _small_spec(n=n, reps=1, variants=(VariantSpec("em"), VariantSpec("mb", 0.25)))
    rows = run_experiment(spec)
    for row in rows:
        if row.variant == "em":
            assert row.iterations == epochs  # one sweep (n visits) per epoch
        else:
            batch = int(round(0.25 * n))
            visits = (row.iterations + 1) * batch  # +1 for the initialization batch
            assert abs(visits - epochs * n) <= batch


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_results_csv_deterministic_across_reruns_and_workers(tmp_path):
    environ = dict(os.environ)
    texts = []
    for attempt, workers in ((0, 1), (1, 1), (2, 2)):
        spec = _small_spec(reps=3, workers=workers, variants=(
            VariantSpec("em"), VariantSpec("mb", 0.25), VariantSpec("mb-trunc-polyak", 0.25),
            VariantSpec("kmeans"),
        ))
        rows = run_experiment(spec)
        path = tmp_path / f"results_{attempt}.csv"
        write_results_csv(rows, path)
        texts.append(_strip_timing(path.read_text()))
    assert texts[0] == texts[1] == texts[2]
    assert dict(os.environ) == environ  # the pool's BLAS pins are undone


def test_pool_workers_run_one_blas_thread_whatever_the_shell_sets(tmp_path, rng):
    # d = 50, g = 10: each 500-row batch spans two E-step blocks (262 rows),
    # whose scatter GEMMs OpenBLAS splits across threads, so a worker that
    # took the launching shell's default thread count would move the bits
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(params_to_dict(make_gaussian_mixture(rng, 50, 10))))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(__file__).resolve().parents[1] / "src")
    texts = []
    for workers, threads in (("1", {var: "1" for var in blas}), ("2", {})):
        env = {k: v for k, v in os.environ.items() if k not in blas} | threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = tmp_path / f"workers_{workers}"
        subprocess.run(
            [sys.executable, "-m", "mbem.cli", "simulate", "--theta", str(theta), "--n", "2000",
             "--epochs", "1", "--batch-frac", "0.25", "--variant", "em", "--variant", "mb",
             "--reps", "2", "--workers", workers, "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        texts.append(_strip_timing((out / "results.csv").read_text()))
    assert texts[0] == texts[1]


def test_pool_whose_workers_die_at_start_fails_instead_of_hanging(tmp_path):
    # A script without a __main__ guard: each spawned worker reruns it on
    # import and dies bootstrapping.  The launcher must see the broken pool;
    # a worker that dies before reading a start-up payload larger than the
    # pipe holds (20 000 iris rows) would leave it blocked in the write.
    script = tmp_path / "no_guard.py"
    argv = ["simulate", "--template", str(IRIS_CSV), "--n", "20000", "--epochs", "1",
            "--variant", "em", "--reps", "2", "--workers", "2", "--out-dir", str(tmp_path / "out")]
    script.write_text(f"import mbem.cli\n\nmbem.cli.main({argv!r})\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, str(script)], env=env, cwd=tmp_path, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the launcher hung on a pool whose workers died at start")
    assert proc.returncode != 0
    assert "BrokenProcessPool" in err


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _table_from_metric(values_by_variant):
    rows = []
    for variant, values in values_by_variant.items():
        for rep, v in enumerate(values):
            rows.append(
                RunRow(variant, rep, 0, "ok", v, v, float("nan"), float("nan"),
                       1, 0, 0.0, 0.0)
            )
    return rows


def test_summarize_constant_column_has_zero_se():
    rows = _table_from_metric({"em": [5.0, 5.0, 5.0, 5.0]})
    rec = [r for r in summarize(rows) if r["metric"] == "loglik"][0]
    assert rec["se"] == 0.0
    assert rec["mean"] == 5.0


def test_summarize_mean_and_se_formulas():
    rows = _table_from_metric({"em": [1.0, 2.0, 3.0]})
    rec = [r for r in summarize(rows) if r["metric"] == "loglik"][0]
    assert rec["mean"] == pytest.approx(2.0, abs=1e-15)
    assert rec["median"] == pytest.approx(2.0, abs=1e-15)
    assert rec["se"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


def test_summarize_se_scale_check():
    # sd 0.04 over 100 runs -> standard error 0.004
    rng = np.random.default_rng(0)
    values = rng.normal(0.4, 0.04, 100)
    rows = _table_from_metric({"mb": list(values)})
    rec = [r for r in summarize(rows) if r["metric"] == "loglik"][0]
    sd = values.std(ddof=1)
    assert rec["se"] == pytest.approx(sd / 10.0, rel=1e-12)
    assert rec["se"] == pytest.approx(0.004, rel=0.3)


def test_summarize_single_run_se_zero():
    rows = _table_from_metric({"em": [7.0]})
    rec = [r for r in summarize(rows) if r["metric"] == "loglik"][0]
    assert rec["se"] == 0.0


def test_boxplot_single_value_variant():
    rows = _table_from_metric({"em": [4.0]})
    rec = emit_boxplot_data(rows, "loglik")[0]
    assert rec["min"] == rec["q1"] == rec["median"] == rec["q3"] == rec["max"] == 4.0
    assert rec["outliers"] == []


def test_boxplot_quantiles_linear_interpolation():
    rows = _table_from_metric({"em": list(range(1, 101))})
    rec = emit_boxplot_data(rows, "loglik")[0]
    assert rec["q1"] == 25.75
    assert rec["median"] == 50.5
    assert rec["q3"] == 75.25
    assert rec["min"] == 1.0 and rec["max"] == 100.0
    assert rec["outliers"] == []


def test_boxplot_outlier_detection():
    rows = _table_from_metric({"em": [1.0, 2.0, 3.0, 4.0, 100.0]})
    rec = emit_boxplot_data(rows, "loglik")[0]
    assert rec["outliers"] == [100.0]
    assert rec["max"] == 4.0


def test_boxplot_unknown_metric():
    with pytest.raises(InvalidInputError):
        emit_boxplot_data(_table_from_metric({"em": [1.0]}), "nonsense")


# ---------------------------------------------------------------------------
# writers and schema
# ---------------------------------------------------------------------------

def test_results_csv_schema(tmp_path):
    rows = run_experiment(_small_spec(reps=1))
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader)
        assert header == list(RESULTS_COLUMNS)
        rows = list(reader)
    assert len(rows) == 2


def test_summary_and_boxplot_files(tmp_path):
    rows = run_experiment(_small_spec(reps=2))
    write_summary(rows, tmp_path / "summary.csv", tmp_path / "summary.json")
    with open(tmp_path / "summary.json") as f:
        records = json.load(f)
    assert {r["variant"] for r in records} == {"em", "mb-0.25"}
    write_boxplot_csv(rows, "loglik", tmp_path / "boxplot_loglik.csv")
    text = (tmp_path / "boxplot_loglik.csv").read_text()
    assert text.startswith("#")  # quantile rule stated in the header
    assert "variant,min,q1,median,q3,max,outliers" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_simulate_end_to_end(tmp_path):
    out = tmp_path / "out"
    rc = cli_main([
        "simulate", "--template", str(IRIS_CSV), "--n", "600", "--reps", "2",
        "--seed", "4", "--epochs", "3", "--batch-frac", "0.25",
        "--variant", "em", "--variant", "mb", "--out-dir", str(out),
    ])
    assert rc == 0
    for name in ("results.csv", "summary.csv", "summary.json", "boxplot_loglik.csv",
                 "boxplot_loglik_per_obs.csv", "boxplot_se.csv", "boxplot_ari.csv", "meta.json"):
        assert (out / name).exists(), name
    meta = json.loads((out / "meta.json").read_text())
    assert meta["master_seed"] == 4
    assert meta["variants"] == ["em", "mb-0.25"]
    assert "splitmix64" in meta["seed_derivation"]
    with open(out / "results.csv") as f:
        assert sum(1 for _ in f) == 1 + 2 * 2


def test_cli_config_file_with_flag_override(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "template": str(IRIS_CSV), "n": 600, "reps": 1, "epochs": 3,
        "seed": 9, "batch_frac": [0.25], "variant": ["em"],
    }))
    rc = cli_main(["simulate", "--config", str(cfg), "--seed", "12", "--out-dir", str(out)])
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["master_seed"] == 12  # flag wins
    assert meta["epochs"] == 3  # config value survives


def test_cli_bench_prints_json(tmp_path, capsys):
    rc = cli_main([
        "bench", "--template", str(IRIS_CSV), "--n", "600", "--seed", "2",
        "--epochs", "2", "--batch-frac", "0.25", "--variant", "mb",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "mb-0.25"
    assert payload["status"] == "ok"


def _strict_json(text):
    """Parse JSON as RFC 8259 has it: no NaN or infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_cli_json_outputs_are_strict(tmp_path, capsys, command):
    # k-means has no log-likelihood, and --c3 inf is an infinite constant:
    # both are null in every JSON output, and nan stays in the CSV files
    out = tmp_path / "out"
    rc = cli_main([
        command, "--template", str(IRIS_CSV), "--n", "300", "--epochs", "1",
        "--variant", "kmeans", "--c3", "inf", "--out-dir", str(out),
    ])
    assert rc == 0
    summary = _strict_json((out / "summary.json").read_text())
    assert {r["mean"] for r in summary if r["metric"] == "loglik"} == {None}
    assert _strict_json((out / "meta.json").read_text())["truncation"] == [1000.0, 1000.0, None]
    assert "kmeans,loglik,0,nan,nan,nan" in (out / "summary.csv").read_text()
    printed = capsys.readouterr().out
    if command == "bench":
        row = _strict_json(printed)
        assert row["variant"] == "kmeans" and row["loglik"] is None
        assert row["ari"] is not None


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_cli_builds_the_template_once(tmp_path, monkeypatch, command):
    # the default g, the sampled data and meta.json share one template fit
    import mbem.experiment

    reads = []
    original = mbem.experiment.read_labeled_csv
    monkeypatch.setattr(mbem.experiment, "read_labeled_csv", lambda path: reads.append(path) or original(path))
    out = tmp_path / "out"
    rc = cli_main([
        command, "--template", str(IRIS_CSV), "--n", "200", "--epochs", "1",
        "--variant", "em", "--out-dir", str(out),
    ])
    assert rc == 0
    assert reads == [str(IRIS_CSV)]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["g"] == 3 and meta["template_theta"]["family"] == "gaussian"


def test_cli_simulate_defaults_n(tmp_path):
    # with no --n and no config file, the sample size comes from the defaults
    out = tmp_path / "out"
    rc = cli_main([
        "simulate", "--template", str(IRIS_CSV), "--epochs", "1", "--variant", "kmeans",
        "--out-dir", str(out),
    ])
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["source"]["n"] == 100_000


def test_cli_simulate_requires_out_dir():
    with pytest.raises(SystemExit):
        cli_main(["simulate", "--template", str(IRIS_CSV), "--n", "100"])


@pytest.mark.parametrize("bad", [
    ["--batch-frac", "-0.5"], ["--g", "0"], ["--gamma0", "1.5"], ["--c1", "0.5"],
    ["--epochs", "0"], ["--n", "2"], ["--workers", "0"],
    ["--theta", "theta.json"],  # a second data source is refused, not ignored
], ids=lambda bad: bad[0])
def test_cli_rejected_value_is_a_usage_error(tmp_path, capsys, bad):
    # a value the spec or the grid rejects exits like argparse's own bad
    # values: status 2 and a usage line, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli_main([
            "simulate", "--template", str(IRIS_CSV), "--n", "600", "--variant", "mb",
            "--out-dir", str(tmp_path / "out"), *bad,
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mbem") and "error:" in err
    assert not (tmp_path / "out").exists()


def test_cli_colliding_variant_ids_are_a_usage_error(tmp_path, capsys):
    # 0.1 and 0.1000001 both print as mb-0.1, the id that seeds a cell and
    # keys summary.csv
    with pytest.raises(SystemExit) as exc:
        cli_main([
            "simulate", "--template", str(IRIS_CSV), "--n", "600", "--variant", "mb",
            "--batch-frac", "0.1", "--batch-frac", "0.1000001", "--out-dir", str(tmp_path / "out"),
        ])
    assert exc.value.code == 2
    assert "mb-0.1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    '{"varaint": ["em"]}', '{"config": "other.json"}', '{"batch_frac": "x"}',
    '{"n": 600.5}', '{"variant": "e"}', '{"batch_frac": [0.1, "x"]}',
    '{"template": "iris.csv"', '[["variant", "em"]]', None,
], ids=["unknown-key", "config-key", "bad-scalar", "float-int", "bad-variant",
        "bad-list-item", "malformed", "not-an-object", "missing"])
def test_cli_rejected_config_is_a_usage_error(tmp_path, capsys, config):
    # config values go through the flags' parser: what it or the grid
    # rejects, an unknown key and an unreadable file exit with status 2
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config)
    with pytest.raises(SystemExit) as exc:
        cli_main([
            "simulate", "--template", str(IRIS_CSV), "--n", "600", "--config", str(cfg),
            "--out-dir", str(tmp_path / "out"),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mbem") and "error:" in err
    assert not (tmp_path / "out").exists()


def test_cli_config_scalar_is_one_flag_value(tmp_path):
    # a scalar reads as one flag value: "mb" is one variant, 0.25 one fraction
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "template": str(IRIS_CSV), "n": 600, "epochs": 1, "variant": "mb", "batch_frac": 0.25,
    }))
    assert cli_main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["variants"] == ["mb-0.25"]


@pytest.mark.parametrize("extra, option", [
    (["--seed", "1", "--seed", "2"], "--seed"),
    (["--out-dir", "other"], "--out-dir"),
    (["--config", "cfg.json"], "--seed"),
], ids=["flag", "path-flag", "config-list"])
def test_cli_single_valued_option_given_twice_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                               extra, option):
    # a second value is refused, not silently kept; the repeatable options
    # (--variant, --batch-frac, --images, --labels) still append
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"seed": [1, 2]}')
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--template", str(IRIS_CSV), "--n", "600", "--variant", "em",
                  "--out-dir", "out", *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mbem") and f"{option} given more than once" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "other").exists()


def _write_corpus(directory, n=200):
    """``n`` labelled 4x4 images in two brightness classes, as IDX files."""
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(2, dtype=np.uint8), n // 2)
    pixels = rng.integers(0, 60, size=(n, 16)) + 120 * labels[:, None]
    images, label_file = directory / "images.idx", directory / "labels.idx"
    write_idx(images, pixels.reshape(n, 4, 4))
    write_idx(label_file, labels)
    return images, label_file


def test_idx_load_holds_one_float_chunk(tmp_path):
    # two full 4096-row PCA chunks of 784 noisy pixels (none constant): the
    # load may hold the stacked uint8 pixels twice, one float chunk and the
    # d x d scatter with its product, not the per-file arrays or a second chunk
    from mbem.data import _CHUNK_ROWS

    n, d = 2 * _CHUNK_ROWS, 784
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
    write_idx(tmp_path / "images.idx", pixels.reshape(n, 28, 28))
    del pixels
    bound = 2 * n * d + 8 * d * (1.25 * _CHUNK_ROWS + 2 * d)  # fixed before measuring
    source = IdxSource((str(tmp_path / "images.idx"),), (), d_pc=10)
    tracemalloc.start()
    try:
        rows, labels = source.load()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (n, 10) and labels is None
    assert peak < bound


@pytest.mark.parametrize("command, option, content", [
    ("simulate", "--template", None), ("simulate", "--template", "a,b,cls\n1.0,oops,0\n"),
    ("simulate", "--template", "a,b,cls\n1,2,0\n3,1,0\n2,5,0\n4,4,0.5\n"),
    ("simulate", "--theta", None), ("simulate", "--theta", '{"family": "gaussian"}'),
    ("simulate", "--theta", '{"family": "gaussian",'), ("simulate", "--theta", "[1, 2]"),
    ("simulate", "--theta", json.dumps(
        params_to_dict(MixtureParams([0.5, 0.5], (Poisson(2.0), Poisson(9.0)))))),
    ("simulate", "--theta", json.dumps(
        params_to_dict(MixtureParams([0.5, 0.5], (Exponential(0.5), Exponential(4.0)))))),
    ("mnist", "--images", None), ("mnist", "--images", "not an idx file"),
    ("mnist", "--labels", None),
], ids=["template-missing", "template-malformed", "template-fractional-class", "theta-missing",
        "theta-no-components", "theta-not-json", "theta-not-object", "theta-poisson",
        "theta-exponential", "images-missing", "images-malformed", "labels-missing"])
def test_cli_unreadable_data_file_is_a_usage_error(tmp_path, capsys, command, option, content):
    # a data file that cannot be opened or parsed exits with status 2 and a
    # message that names it, not with a traceback
    bad = tmp_path / "bad-file"
    if content is not None:
        bad.write_text(content)
    if command == "simulate":
        args = [option, str(bad), "--n", "600", "--variant", "em"]
    else:
        images, labels = _write_corpus(tmp_path)
        files = {"--images": images, "--labels": labels, option: bad}
        args = ["--images", str(files["--images"]), "--labels", str(files["--labels"]),
                "--d-pc", "2", "--g", "2"]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *args, "--epochs", "1", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mbem") and "error:" in err and str(bad) in err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def idx_corpus(tmp_path):
    """200 labelled 4x4 images in two brightness classes, as IDX files."""
    images, label_file = _write_corpus(tmp_path)
    return ["--images", str(images), "--labels", str(label_file),
            "--d-pc", "2", "--g", "2", "--epochs", "1"]


@pytest.mark.parametrize("variants, vids", [
    (["--variant", "all"], [
        "em", "mb-0.1", "mb-0.1-polyak", "mb-0.2", "mb-0.2-polyak",
        "mb-0.1-trunc", "mb-0.1-trunc-polyak", "mb-0.2-trunc", "mb-0.2-trunc-polyak",
    ]),
    ([], [
        "em", "mb-0.1-trunc", "mb-0.2-trunc", "mb-0.1-trunc-polyak", "mb-0.2-trunc-polyak",
        "kmeans",
    ]),
], ids=["all", "default"])
def test_cli_mnist_variants(tmp_path, idx_corpus, variants, vids):
    # `all` is the nine-variant grid under every subcommand; without
    # --variant, mnist runs its own default list
    out = tmp_path / "out"
    rc = cli_main(["mnist", *idx_corpus, *variants, "--out-dir", str(out)])
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["variants"] == vids
    assert meta["source"]["kind"] == "idx" and "template_theta" not in meta


@pytest.mark.parametrize("extra", [
    ["--variant", "em", "--variant", "mb"], ["--reps", "2"],
    ["--batch-frac", "0.1", "--batch-frac", "0.2"],
], ids=["two-variants", "two-reps", "two-fractions"])
def test_cli_bench_runs_one_cell(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        cli_main(["bench", "--template", str(IRIS_CSV), "--n", "200", "--epochs", "1", *extra])
    assert exc.value.code == 2
    assert "bench runs one cell" in capsys.readouterr().err
