"""End-to-end acceptance suite.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to see them
stream).  The long-running image-pipeline check is skipped unless
MBEM_MNIST_DIR points at a directory holding the four standard IDX files.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

import mbem
from mbem.data import drop_constant_pixels, random_partition_init, read_idx
from mbem.engine import (
    EmState,
    LearningRate,
    RunConfig,
    TruncationRegion,
    batch_em_step,
    minibatch_step,
    run,
)
from mbem.experiment import (
    TIMING_COLUMNS,
    ExperimentSpec,
    IdxSource,
    TemplateSource,
    VariantSpec,
    resolve_source,
    run_experiment,
    write_results_csv,
)
from mbem.families import (
    Gaussian,
    MixtureParams,
    SuffStats,
    mean_sbar,
    sample,
    theta_bar,
)
from mbem.metrics import adjusted_rand_index, dataset_loglik, map_labels, squared_error

from conftest import make_gaussian_mixture

IRIS_CSV = Path(__file__).parent / "data" / "iris.csv"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _params_close(a, b, rtol):
    def close(x, y):
        return np.all(np.abs(x - y) <= rtol * np.maximum(1.0, np.abs(y)))

    return (
        close(a.weights, b.weights)
        and close(a.means(), b.means())
        and close(a.covariances(), b.covariances())
    )


def _params_equal(a, b):
    return (
        np.array_equal(a.weights, b.weights)
        and np.array_equal(a.means(), b.means())
        and np.array_equal(a.covariances(), b.covariances())
    )


# ---------------------------------------------------------------------------
# shared fixtures: the desk-scale simulation grid
# ---------------------------------------------------------------------------

GRID_VARIANTS = (
    VariantSpec("em"),
    VariantSpec("mb", 0.1),
    VariantSpec("mb", 0.1, polyak=True),
    VariantSpec("mb", 0.2),
    VariantSpec("mb", 0.2, polyak=True),
    VariantSpec("mb-trunc", 0.1),
    VariantSpec("mb-trunc", 0.1, polyak=True),
    VariantSpec("mb-trunc", 0.2),
    VariantSpec("mb-trunc", 0.2, polyak=True),
)


@pytest.fixture(scope="module")
def iris_spec():
    return ExperimentSpec(
        source=TemplateSource(str(IRIS_CSV), 100_000),
        g=3,
        variants=GRID_VARIANTS,
        repetitions=20,
        master_seed=20260810,
        epochs=10,
    )


@pytest.fixture(scope="module")
def iris_data(iris_spec):
    data, labels, theta_true = resolve_source(iris_spec)
    return data, labels, theta_true


@pytest.fixture(scope="module")
def iris_grid(iris_spec):
    t0 = time.perf_counter()
    table = run_experiment(iris_spec)
    return table, time.perf_counter() - t0


def _median_loglik(table, vid):
    values = [r.loglik for r in table.rows if r.variant == vid and r.status == "ok"]
    assert len(values) == 20
    return float(np.median(values))


# ---------------------------------------------------------------------------
# criterion 1: unit-step full-batch equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_batch_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_ok = True
    for _ in range(50):
        d = int(rng.integers(1, 4))
        g = int(rng.integers(1, 4))
        theta = make_gaussian_mixture(rng, d, g)
        data, _ = sample(theta, int(rng.integers(50, 201)), rng)
        init = random_partition_init(data, g, rng)
        t_batch = init
        state = EmState(stats=mean_sbar(data, init), theta=init)
        for _ in range(4):
            t_batch = batch_em_step(data, t_batch)
            state = minibatch_step(state, data, 1.0)
            worst_ok = worst_ok and _params_close(state.theta, t_batch, 1e-10)
    elapsed = time.perf_counter() - t0
    _report(1, worst_ok and elapsed < 5.0,
            f"gamma=1 full-batch steps match batch EM on 50 instances in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: batch EM ascent
# ---------------------------------------------------------------------------

def test_criterion_2_batch_em_ascent():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        g = int(rng.integers(1, 4))
        theta = make_gaussian_mixture(rng, d, g)
        data, _ = sample(theta, 60, rng)
        t = random_partition_init(data, g, rng)
        prev = dataset_loglik(data, t)
        for _ in range(100):
            t = batch_em_step(data, t)
            cur = dataset_loglik(data, t)
            if cur < prev - 1e-8:
                violations += 1
            prev = cur
    elapsed = time.perf_counter() - t0
    _report(2, violations == 0 and elapsed < 30.0,
            f"{violations} ascent violations over 10000 sweeps in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: parameter recovery on the separated two-component template
# ---------------------------------------------------------------------------

def test_criterion_3_parameter_recovery():
    theta_true = MixtureParams(
        [0.5, 0.5], (Gaussian([-4.0], [[1.0]]), Gaussian([4.0], [[1.0]]))
    )
    t0 = time.perf_counter()
    good = 0
    for seed in range(10):
        data, labels = sample(theta_true, 100_000, np.random.default_rng(1000 + seed))
        # spread start: quantile-separated means with the global variance
        lo, hi = np.quantile(data[:, 0], [0.25, 0.75])
        gvar = np.atleast_2d(np.cov(data.T))
        init = MixtureParams([0.5, 0.5], (Gaussian([lo], gvar), Gaussian([hi], gvar)))
        cfg = RunConfig(
            epochs=10,
            batch_size=10_000,
            learning_rate=LearningRate(1.0 - 1e-10, 0.6),
            seed=3000 + seed,
        )
        rec = run(data, cfg, init)
        se = squared_error(rec.final_theta, theta_true)
        ari = adjusted_rand_index(map_labels(data, rec.final_theta), labels)
        if se <= 0.05 and ari >= 0.95:
            good += 1
    elapsed = time.perf_counter() - t0
    _report(3, good >= 9 and elapsed < 60.0,
            f"{good}/10 seeds recovered (SE<=0.05, ARI>=0.95) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: simulation-protocol direction check
# ---------------------------------------------------------------------------

def test_criterion_4_iris_direction(iris_grid):
    table, elapsed = iris_grid
    em = _median_loglik(table, "em")
    mb10 = _median_loglik(table, "mb-0.1")
    mb20 = _median_loglik(table, "mb-0.2")
    ok = mb10 >= em and mb10 >= mb20 and elapsed < 600.0
    _report(4, ok,
            f"median loglik mb-0.1={mb10:.0f} >= em={em:.0f} and >= mb-0.2={mb20:.0f}; "
            f"grid in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: truncation neutrality plus forced reset
# ---------------------------------------------------------------------------

def test_criterion_5_truncation_neutrality(iris_data):
    data, labels, theta_true = iris_data
    init = random_partition_init(data, 3, np.random.default_rng(9))
    plain_cfg = RunConfig(epochs=10, batch_size=10_000, seed=55)
    trunc_cfg = RunConfig(
        epochs=10, batch_size=10_000, seed=55,
        truncation=TruncationRegion(1000.0, 1000.0, 1000.0),
    )
    plain = run(data, plain_cfg, init)
    trunc = run(data, trunc_cfg, init)
    neutral = (
        trunc.truncation_events == 0
        and len(plain.trace) == len(trunc.trace)
        and all(_params_equal(a, b) for a, b in zip(plain.trace, trunc.trace))
        and _params_equal(plain.final_theta, trunc.final_theta)
    )

    # forced reset: a start whose covariance eigenvalue sits at 1e-9, with a
    # small step size so the first candidates stay outside the base region
    theta = MixtureParams([0.5, 0.5], (Gaussian([-4.0], [[1.0]]), Gaussian([4.0], [[1.0]])))
    ydata, _ = sample(theta, 20_000, np.random.default_rng(7))
    bad_init = MixtureParams(
        [0.5, 0.5], (Gaussian([0.0], [[1e-9]]), Gaussian([1.0], [[1.0]]))
    )
    forced_cfg = RunConfig(
        epochs=2, batch_size=2_000,
        learning_rate=LearningRate(0.01, 0.6), seed=11,
        truncation=TruncationRegion(1000.0, 1000.0, 1000.0),
    )
    forced = run(ydata, forced_cfg, bad_init)
    fired = forced.truncation_events > 0 and math.isfinite(dataset_loglik(ydata, forced.final_theta))

    _report(5, neutral and fired,
            f"bit-exact neutral traces (events={trunc.truncation_events}); "
            f"forced case fired {forced.truncation_events} reset(s) and stayed finite")


# ---------------------------------------------------------------------------
# criterion 6: Polyak averaging correctness and direction
# ---------------------------------------------------------------------------

def test_criterion_6_polyak(iris_data, iris_grid):
    data, labels, theta_true = iris_data
    init = random_partition_init(data, 3, np.random.default_rng(21))
    cfg = RunConfig(epochs=10, batch_size=10_000, polyak=True, seed=33)
    rec = run(data, cfg, init, keep_iterates=True)
    per_epoch = rec.iterations // 10
    exact = True
    for e, acc in enumerate(rec.polyak_trace):
        upto = rec.iterates[: (e + 1) * per_epoch]
        exact = exact and np.max(np.abs(acc.weights - np.mean([t.weights for t in upto], axis=0))) <= 1e-12
        exact = exact and np.max(np.abs(acc.means() - np.mean([t.means() for t in upto], axis=0))) <= 1e-12
        exact = exact and np.max(np.abs(acc.covariances() - np.mean([t.covariances() for t in upto], axis=0))) <= 1e-12

    table, _ = iris_grid
    direction = (
        _median_loglik(table, "mb-0.1-polyak") <= _median_loglik(table, "mb-0.1")
        and _median_loglik(table, "mb-0.2-polyak") <= _median_loglik(table, "mb-0.2")
    )
    _report(6, exact and direction,
            "accumulator matches trace mean to 1e-12 at every epoch boundary; "
            "averaging trails the plain variant")


# ---------------------------------------------------------------------------
# criterion 7: count-family M-step against a derivative-free maximizer
# ---------------------------------------------------------------------------

def _maximize_rate(neg_q, rough):
    res = minimize_scalar(neg_q, bounds=(rough / 50.0, rough * 50.0), method="bounded",
                          options={"xatol": 1e-13})
    fine = minimize_scalar(neg_q, bounds=(res.x * 0.9, res.x * 1.1), method="bounded",
                           options={"xatol": 1e-13})
    return fine.x


def _maximize_weights(mass):
    g = len(mass)
    if g == 1:
        return np.array([1.0])

    def neg(logits):
        z = np.concatenate([logits, [0.0]])
        p = np.exp(z - z.max())
        p /= p.sum()
        return -(mass * np.log(p)).sum()

    res = minimize(neg, np.zeros(g - 1), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20_000})
    z = np.concatenate([res.x, [0.0]])
    p = np.exp(z - z.max())
    return p / p.sum()


def test_criterion_7_count_family_mstep_oracle():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        g = int(rng.integers(1, 5))
        mass = rng.dirichlet(np.ones(g) * 2.0)
        mass = np.maximum(mass, 0.02)
        mass /= mass.sum()
        m1 = rng.uniform(0.05, 5.0, g) * mass
        stats = SuffStats(mass, m1[:, None])
        t_exp = theta_bar(stats, "exponential")
        t_poi = theta_bar(stats, "poisson")
        for z in range(g):
            s1, s2 = mass[z], m1[z]
            exp_hat = _maximize_rate(lambda lam: -(s1 * math.log(lam) - lam * s2), s1 / s2)
            poi_hat = _maximize_rate(lambda lam: -(s2 * math.log(lam) - lam * s1), s2 / s1)
            worst = max(worst, abs(t_exp.rates()[z] - exp_hat), abs(t_poi.rates()[z] - poi_hat))
        worst = max(worst, float(np.max(np.abs(t_exp.weights - _maximize_weights(mass)))))
    elapsed = time.perf_counter() - t0
    _report(7, worst <= 1e-6 and elapsed < 30.0,
            f"worst M-step/maximizer gap {worst:.2e} over 100 statistics in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: metric properties
# ---------------------------------------------------------------------------

def test_criterion_8_metric_properties():
    rng = np.random.default_rng(88)
    ok = adjusted_rand_index([0, 1, 1, 2], [0, 1, 1, 2]) == 1.0

    # relabel invariance, exact
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a, b = rng.integers(0, 4, n), rng.integers(0, 4, n)
        perm = rng.permutation(4)
        ok = ok and adjusted_rand_index(perm[a], b) == adjusted_rand_index(a, b)

    # pair-enumeration oracle agreement
    from itertools import combinations

    def oracle(a, b):
        n11 = n10 = n01 = 0
        for i, j in combinations(range(len(a)), 2):
            sa, sb = a[i] == a[j], b[i] == b[j]
            n11 += sa and sb
            n10 += sa and not sb
            n01 += sb and not sa
        pairs = len(a) * (len(a) - 1) // 2
        expected = (n11 + n10) * (n11 + n01) / pairs
        maximum = (2 * n11 + n10 + n01) / 2.0
        return 1.0 if maximum == expected else (n11 - expected) / (maximum - expected)

    for _ in range(100):
        n = int(rng.integers(2, 13))
        a, b = rng.integers(0, 4, n), rng.integers(0, 4, n)
        ok = ok and abs(adjusted_rand_index(a, b) - oracle(a, b)) <= 1e-12

    # squared-error permutation invariance, exact
    theta = make_gaussian_mixture(rng, 2, 3)
    ref = make_gaussian_mixture(rng, 2, 3)
    base = squared_error(theta, ref)
    from itertools import permutations

    for perm in permutations(range(3)):
        shuffled = MixtureParams(theta.weights[list(perm)], tuple(theta.components[z] for z in perm))
        ok = ok and squared_error(shuffled, ref) == base
    _report(8, ok, "ARI identity/relabeling/oracle and SE permutation invariance hold")


# ---------------------------------------------------------------------------
# criterion 9: image pipeline (optional, user-supplied IDX files)
# ---------------------------------------------------------------------------

def _mnist_files():
    root = os.environ.get("MBEM_MNIST_DIR")
    if not root:
        return None
    root = Path(root)
    found = {}
    for key, stem in (
        ("train_images", "train-images-idx3-ubyte"),
        ("train_labels", "train-labels-idx1-ubyte"),
        ("test_images", "t10k-images-idx3-ubyte"),
        ("test_labels", "t10k-labels-idx1-ubyte"),
    ):
        for cand in (root / stem, root / (stem + ".gz")):
            if cand.exists():
                found[key] = cand
                break
        else:
            return None
    return found


@pytest.mark.skipif(_mnist_files() is None,
                    reason="MBEM_MNIST_DIR with the four IDX files not provided")
def test_criterion_9_image_pipeline():
    files = _mnist_files()
    t0 = time.perf_counter()
    train = read_idx(files["train_images"], files["train_labels"])
    test = read_idx(files["test_images"], files["test_labels"])
    pixels = np.vstack([train.pixels, test.pixels])
    dense, kept = drop_constant_pixels(pixels)
    assert pixels.shape[0] == 70_000
    assert dense.shape[1] == 719

    spec = ExperimentSpec(
        source=IdxSource(
            images=(str(files["train_images"]), str(files["test_images"])),
            labels=(str(files["train_labels"]), str(files["test_labels"])),
            d_pc=10,
        ),
        g=10,
        variants=(VariantSpec("em"), VariantSpec("mb-trunc", 0.1), VariantSpec("kmeans")),
        repetitions=10,
        master_seed=505,
        epochs=10,
    )
    table = run_experiment(spec)
    mb = {r.rep: r for r in table.rows if r.variant == "mb-0.1-trunc"}
    km = {r.rep: r for r in table.rows if r.variant == "kmeans"}
    em = [r.loglik for r in table.rows if r.variant == "em" and r.status == "ok"]
    wins = sum(1 for rep in mb if mb[rep].ari > km[rep].ari)
    mb_ll = [mb[rep].loglik for rep in mb if mb[rep].status == "ok"]
    elapsed = time.perf_counter() - t0
    _report(9, wins >= 7 and np.mean(mb_ll) >= np.mean(em) and elapsed < 1800.0,
            f"mini-batch beat k-means ARI in {wins}/10 seeds; "
            f"mean loglik mb={np.mean(mb_ll):.3e} >= em={np.mean(em):.3e}; {elapsed:.0f}s")


def test_criterion_9_skip_notice():
    if _mnist_files() is None:
        print("ACCEPTANCE 9: SKIP - image pipeline needs MBEM_MNIST_DIR with the IDX files")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical experiment reruns
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    def strip_timing(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        drop = [rows[0].index(c) for c in TIMING_COLUMNS]
        return "\n".join(
            ",".join(v for i, v in enumerate(row) if i not in drop) for row in rows
        )

    texts = []
    for attempt, workers in ((0, 1), (1, 1), (2, 3)):
        spec = ExperimentSpec(
            source=TemplateSource(str(IRIS_CSV), 2_000),
            g=3,
            variants=(
                VariantSpec("em"),
                VariantSpec("mb", 0.1),
                VariantSpec("mb-trunc", 0.1, polyak=True),
                VariantSpec("kmeans"),
            ),
            repetitions=3,
            master_seed=99,
            epochs=4,
            workers=workers,
        )
        table = run_experiment(spec)
        path = tmp_path / f"results_{attempt}.csv"
        write_results_csv(table, path)
        texts.append(strip_timing(path.read_text()))
    # BLAS threads: the same grid in fresh processes at 1 and 2 threads.  Its
    # 5000-row batches exceed the E-step's row block (families._BLOCK), so
    # the blocked GEMMs are large enough for OpenBLAS to split.
    src = str(Path(mbem.__file__).resolve().parents[1])
    threaded = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-m", "mbem.cli", "simulate", "--template", str(IRIS_CSV),
             "--n", "20000", "--batch-frac", "0.25", "--epochs", "2", "--reps", "2",
             "--seed", "99", "--variant", "em", "--variant", "mb",
             "--variant", "mb-trunc-polyak", "--out-dir", str(out_dir)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        threaded.append(strip_timing((out_dir / "results.csv").read_text()))
    ok = texts[0] == texts[1] == texts[2] and threaded[0] == threaded[1]
    _report(10, ok, "results.csv byte-identical across reruns, 1/3 workers and 1/2 BLAS threads")
