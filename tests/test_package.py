import os
import re
import subprocess
import sys
from pathlib import Path

import mbem

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_star_import_and_all_names_resolve():
    # a name left in __all__ after its object is deleted breaks the star import
    namespace = {}
    exec("from mbem import *", namespace)
    for name in mbem.__all__:
        assert namespace[name] is getattr(mbem, name)


def test_readme_quick_start_runs(capsys):
    # the first python block of the README is the library quick start: it
    # spells the public API, so a renamed or deleted name fails here
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    loglik, ari = (float(line) for line in capsys.readouterr().out.split())
    assert loglik < 0.0
    assert ari > 0.99


_SCIPY_PARTS_SCRIPT = """
import sys
import numpy as np
from mbem.cli import main

def loaded():
    return {m for m in ("scipy.optimize", "scipy.special") if m in sys.modules}

assert loaded() == set(), ("import", loaded())
argv = ["simulate", "--template", sys.argv[1], "--n", "600", "--variant", "all",
        "--epochs", "1", "--out-dir", sys.argv[2]]
assert main(argv) == 0
assert loaded() == set(), ("gaussian grid", loaded())
from mbem import MixtureParams, Poisson
from mbem.metrics import dataset_loglik
dataset_loglik(np.array([[0.0], [3.0]]), MixtureParams([1.0], (Poisson(2.0),)))
assert loaded() == {"scipy.special"}, ("poisson density", loaded())
"""


def test_gaussian_grid_loads_neither_scipy_optimize_nor_special(tmp_path):
    # a fresh interpreter, because the test modules import both themselves:
    # the package needs scipy.linalg only, and scipy.special for Poisson
    # densities alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PARTS_SCRIPT, str(ROOT / "tests" / "data" / "iris.csv"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
