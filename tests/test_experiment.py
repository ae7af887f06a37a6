import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mbem.cli import main as cli_main
from mbem.data import random_partition_init
from mbem.engine import LearningRate, RunConfig, run
from mbem.experiment import (
    RESULTS_COLUMNS,
    TIMING_COLUMNS,
    ExperimentSpec,
    RunRow,
    ResultsTable,
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
from mbem.errors import DegeneratePointError
from mbem.families import Exponential, Gaussian, MixtureParams, params_to_dict
from mbem.metrics import adjusted_rand_index, dataset_loglik, map_labels

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
    assert VariantSpec("mb", 0.1, polyak=True).vid == "mb-0.1-polyak"
    assert VariantSpec("mb-trunc", 0.2).vid == "mb-0.2-trunc"
    assert VariantSpec("mb-trunc", 0.2, polyak=True).vid == "mb-0.2-trunc-polyak"


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

def test_grid_row_count_and_order():
    spec = _small_spec(reps=3)
    table = run_experiment(spec)
    assert len(table.rows) == 2 * 3
    assert [(r.variant, r.rep) for r in table.rows] == [
        ("em", 0), ("em", 1), ("em", 2),
        ("mb-0.25", 0), ("mb-0.25", 1), ("mb-0.25", 2),
    ]
    assert all(r.status == "ok" for r in table.rows)


def test_nine_variant_grid_shape():
    variants = [VariantSpec("em")]
    for kind in ("mb", "mb-trunc"):
        for frac in (0.1, 0.2):
            variants.append(VariantSpec(kind, frac))
            variants.append(VariantSpec(kind, frac, polyak=True))
    spec = _small_spec(reps=2, variants=tuple(variants))
    table = run_experiment(spec)
    assert len(table.rows) == 9 * 2


@pytest.mark.parametrize(
    "variant", [VariantSpec("em"), VariantSpec("mb", 0.25, polyak=True)], ids=lambda v: v.vid
)
def test_single_em_row_matches_manual_run(variant):
    spec = _small_spec(reps=1, variants=(variant,), seed=5)
    table = run_experiment(spec)
    assert len(table.rows) == 1
    row = table.rows[0]
    # redo the run from the derived seeds: the recorded loglik and ARI must
    # match the public metrics bit for bit
    data, labels, theta_true = resolve_source(spec)
    init = random_partition_init(data, 3, np.random.default_rng(derive_seed(5, "init", 0)))
    if variant.algorithm == "em":
        config = RunConfig(epochs=3, seed=derive_seed(5, "em", 0))
    else:
        config = RunConfig(
            epochs=3, batch_size=len(data) // 4, polyak=True,
            seed=derive_seed(5, variant.vid, 0),
        )
    rec = run(data, config, init)
    theta = rec.polyak_theta if variant.polyak else rec.final_theta
    assert row.status == "ok"
    assert row.loglik == dataset_loglik(data, theta)
    assert row.loglik_per_obs == row.loglik / len(data)
    assert row.ari == adjusted_rand_index(map_labels(data, theta), labels)


def test_evaluate_zero_density_row():
    # a negative observation has zero density under every exponential
    # component: the log-likelihood is -inf, and only a labelled source asks
    # for MAP labels, which then fail
    theta = MixtureParams([0.5, 0.5], (Exponential(1.0), Exponential(3.0)))
    data = np.array([[0.5], [-1.0], [2.0]])
    with pytest.raises(DegeneratePointError):
        _evaluate(theta, data, np.array([0, 1, 0]), theta, 0.0)
    report = _evaluate(theta, data, None, theta, 0.0)
    assert report.loglik == -math.inf == dataset_loglik(data, theta)
    assert report.se == 0.0
    assert math.isnan(report.ari)


def test_shared_initialization_across_variants():
    # both variants consume the same per-rep initialization, so the batch-EM
    # trajectory is identical whether or not other variants run
    alone = run_experiment(_small_spec(reps=2, variants=(VariantSpec("em"),)))
    paired = run_experiment(_small_spec(reps=2))
    em_alone = [r.loglik for r in alone.rows]
    em_paired = [r.loglik for r in paired.rows if r.variant == "em"]
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
    table = run_experiment(spec)
    row = table.rows[0]
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
    row = _run_task((VariantSpec("mb", 0.25), 0, bad_init, None, config))
    assert row.status.startswith("error:")
    assert math.isnan(row.loglik)


def test_kmeans_variant_row():
    spec = _small_spec(reps=1, variants=(VariantSpec("kmeans"),))
    table = run_experiment(spec)
    row = table.rows[0]
    assert row.status == "ok"
    assert math.isnan(row.loglik)
    assert math.isfinite(row.ari)


def test_epoch_budget_fairness():
    # every variant's data-point visits stay within one batch of epochs * n
    n, epochs = 600, 3
    spec = _small_spec(n=n, reps=1, variants=(VariantSpec("em"), VariantSpec("mb", 0.25)))
    table = run_experiment(spec)
    for row in table.rows:
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
    texts = []
    for attempt, workers in ((0, 1), (1, 1), (2, 2)):
        spec = _small_spec(reps=3, workers=workers, variants=(
            VariantSpec("em"), VariantSpec("mb", 0.25), VariantSpec("mb-trunc", 0.25, polyak=True),
            VariantSpec("kmeans"),
        ))
        table = run_experiment(spec)
        path = tmp_path / f"results_{attempt}.csv"
        write_results_csv(table, path)
        texts.append(_strip_timing(path.read_text()))
    assert texts[0] == texts[1] == texts[2]


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
    return ResultsTable(rows=rows)


def test_summarize_constant_column_has_zero_se():
    table = _table_from_metric({"em": [5.0, 5.0, 5.0, 5.0]})
    rec = [r for r in summarize(table) if r["metric"] == "loglik"][0]
    assert rec["se"] == 0.0
    assert rec["mean"] == 5.0


def test_summarize_mean_and_se_formulas():
    table = _table_from_metric({"em": [1.0, 2.0, 3.0]})
    rec = [r for r in summarize(table) if r["metric"] == "loglik"][0]
    assert rec["mean"] == pytest.approx(2.0, abs=1e-15)
    assert rec["median"] == pytest.approx(2.0, abs=1e-15)
    assert rec["se"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


def test_summarize_se_scale_check():
    # sd 0.04 over 100 runs -> standard error 0.004
    rng = np.random.default_rng(0)
    values = rng.normal(0.4, 0.04, 100)
    table = _table_from_metric({"mb": list(values)})
    rec = [r for r in summarize(table) if r["metric"] == "loglik"][0]
    sd = values.std(ddof=1)
    assert rec["se"] == pytest.approx(sd / 10.0, rel=1e-12)
    assert rec["se"] == pytest.approx(0.004, rel=0.3)


def test_summarize_single_run_se_zero():
    table = _table_from_metric({"em": [7.0]})
    rec = [r for r in summarize(table) if r["metric"] == "loglik"][0]
    assert rec["se"] == 0.0


def test_boxplot_single_value_variant():
    table = _table_from_metric({"em": [4.0]})
    rec = emit_boxplot_data(table, "loglik")[0]
    assert rec["min"] == rec["q1"] == rec["median"] == rec["q3"] == rec["max"] == 4.0
    assert rec["outliers"] == []


def test_boxplot_quantiles_linear_interpolation():
    table = _table_from_metric({"em": list(range(1, 101))})
    rec = emit_boxplot_data(table, "loglik")[0]
    assert rec["q1"] == 25.75
    assert rec["median"] == 50.5
    assert rec["q3"] == 75.25
    assert rec["min"] == 1.0 and rec["max"] == 100.0
    assert rec["outliers"] == []


def test_boxplot_outlier_detection():
    table = _table_from_metric({"em": [1.0, 2.0, 3.0, 4.0, 100.0]})
    rec = emit_boxplot_data(table, "loglik")[0]
    assert rec["outliers"] == [100.0]
    assert rec["max"] == 4.0


def test_boxplot_unknown_metric():
    from mbem.errors import InvalidInputError

    with pytest.raises(InvalidInputError):
        emit_boxplot_data(_table_from_metric({"em": [1.0]}), "nonsense")


# ---------------------------------------------------------------------------
# writers and schema
# ---------------------------------------------------------------------------

def test_results_csv_schema(tmp_path):
    table = run_experiment(_small_spec(reps=1))
    path = tmp_path / "results.csv"
    write_results_csv(table, path)
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader)
        assert header == list(RESULTS_COLUMNS)
        rows = list(reader)
    assert len(rows) == 2


def test_summary_and_boxplot_files(tmp_path):
    table = run_experiment(_small_spec(reps=2))
    write_summary(table, tmp_path / "summary.csv", tmp_path / "summary.json")
    with open(tmp_path / "summary.json") as f:
        records = json.load(f)
    assert {r["variant"] for r in records} == {"em", "mb-0.25"}
    write_boxplot_csv(table, "loglik", tmp_path / "boxplot_loglik.csv")
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
                 "boxplot_se.csv", "boxplot_ari.csv", "meta.json"):
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


def test_cli_simulate_requires_out_dir():
    with pytest.raises(SystemExit):
        cli_main(["simulate", "--template", str(IRIS_CSV), "--n", "100"])
