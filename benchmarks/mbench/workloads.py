"""Benchmark workloads: each one is a ``mbem simulate`` grid built from a seed.

The benchmark generates every input from the workload seed; the program
receives only the generated files and flags.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IRIS_CSV = Path(__file__).resolve().parent.parent / "data" / "iris.csv"


@dataclass(frozen=True)
class Workload:
    """One variant grid, described independently of the program's own parsing."""

    name: str
    why: str
    source: str  # "iris" (template CSV) or "wide" (generated theta file)
    n: int
    epochs: int
    fractions: tuple
    variants: tuple  # CLI variant names
    d: int
    g: int

    def argv(self, seed: int, work_dir: Path) -> list:
        """``mbem simulate`` arguments for ``seed``; writes any generated input."""
        if self.source == "iris":
            argv = ["simulate", "--template", str(IRIS_CSV)]
        else:
            theta_path = work_dir / "theta.json"
            theta_path.write_bytes(wide_theta_bytes(seed, self.d, self.g))
            argv = ["simulate", "--theta", str(theta_path)]
        argv += ["--n", str(self.n), "--epochs", str(self.epochs), "--seed", str(seed)]
        for frac in self.fractions:
            argv += ["--batch-frac", repr(frac)]
        for variant in self.variants:
            argv += ["--variant", variant]
        return argv + ["--reps", "1", "--workers", "1", "--out-dir", str(work_dir / "out")]

    def expected_iterations(self) -> dict:
        """Iteration count per results.csv variant id: epochs * ceil(n / N)."""
        out = {}
        names = self.variants
        if "all" in names:
            names = ("em", "mb", "mb-polyak", "mb-trunc", "mb-trunc-polyak")
        for name in names:
            if name in ("em", "kmeans"):
                out[name] = self.epochs
                continue
            for frac in self.fractions:
                batch = min(self.n, max(1, round(frac * self.n)))
                out[f"mb-{frac:g}{name[2:]}"] = self.epochs * math.ceil(self.n / batch)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iris-grid",
            "nine-variant grid at d=4, g=3, batch sizes 1e4 and 2e4: per-row E-step passes "
            "and the batch gather dominate",
            "iris", 100_000, 10, (0.1, 0.2), ("all",), 4, 3,
        ),
        Workload(
            "online",
            "truncated EM at batch sizes 1 and 10: per-iteration fixed cost (objects, M-step, "
            "region test, Polyak) dominates",
            "iris", 5_000, 1, (1 / 5000, 10 / 5000), ("mb-trunc", "mb-trunc-polyak"), 4, 3,
        ),
        Workload(
            "wide",
            "d=50, g=10 generated mixture: triangular solves, scatter products, evaluation, "
            "resets and k-means are real arithmetic",
            "wide", 100_000, 1, (0.01,), ("em", "mb", "mb-trunc-polyak", "kmeans"), 50, 10,
        ),
    )
}


def wide_theta(seed: int, d: int, g: int) -> dict:
    """Seeded Gaussian mixture in the program's theta-file format.

    Means are drawn per coordinate from N(0, 3^2); covariances are
    A A^T + c I with A standard normal (d x d) and c ~ U(0.5, 1.5); weights
    are Dirichlet(2, ..., 2), floored at 0.15 and renormalised.
    """
    rng = np.random.default_rng([seed, d, g])
    components = []
    for _ in range(g):
        mean = rng.normal(0.0, 3.0, d)
        a = rng.standard_normal((d, d))
        cov = a @ a.T + np.eye(d) * rng.uniform(0.5, 1.5)
        cov = (cov + cov.T) / 2.0
        components.append({"mean": mean.tolist(), "cov": cov.tolist()})
    weights = np.maximum(rng.dirichlet(np.full(g, 2.0)), 0.15)
    weights /= weights.sum()
    return {"family": "gaussian", "weights": weights.tolist(), "components": components}


def wide_theta_bytes(seed: int, d: int, g: int) -> bytes:
    return json.dumps(wide_theta(seed, d, g)).encode()
