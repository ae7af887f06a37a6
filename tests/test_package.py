import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mbem

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_star_import_and_all_names_resolve():
    # a name left in __all__ after its object is deleted breaks the star import
    namespace = {}
    exec("from mbem import *", namespace)
    for name in mbem.__all__:
        assert namespace[name] is getattr(mbem, name)


def test_readme_documents_every_public_name():
    # each name the star import gives appears in README's code: an inline
    # code span or a fenced block
    code = re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), re.DOTALL)
    named = set(re.findall(r"\w+", " ".join(code)))
    assert sorted(set(mbem.__all__) - named) == []


def test_readme_quick_start_runs(capsys):
    # the first python block of the README is the library quick start: it
    # spells the public API, so a renamed or deleted name fails here
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    loglik, ari, kmeans_ari = (float(line) for line in capsys.readouterr().out.split())
    assert loglik < 0.0
    assert ari > 0.99
    assert kmeans_ari > 0.99


_SCIPY_PARTS_SCRIPT = """
import sys
import numpy as np
from mbem.cli import main

PARTS = ("scipy.linalg", "scipy.linalg._flapack", "scipy.optimize", "scipy.special",
         "concurrent.futures.process")

def loaded():
    return {m for m in PARTS if m in sys.modules}

assert loaded() == {"scipy.linalg._flapack"}, ("import", loaded())
argv = ["simulate", "--template", sys.argv[1], "--n", "600", "--variant", "all",
        "--epochs", "1", "--out-dir", sys.argv[2]]
assert main(argv) == 0
assert loaded() == {"scipy.linalg._flapack"}, ("gaussian grid", loaded())
from mbem import MixtureParams, Poisson
from mbem.metrics import dataset_loglik
dataset_loglik(np.array([[0.0], [3.0]]), MixtureParams([1.0], (Poisson(2.0),)))
assert loaded() == {"scipy.linalg._flapack", "scipy.special"}, ("poisson density", loaded())
"""


def _run_fresh(*args):
    """Run ``python -c args[0] args[1:]`` with the package's source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True)


def test_gaussian_grid_loads_only_scipy_lapack_and_no_pool(tmp_path):
    # a fresh interpreter, because the test modules import SciPy themselves:
    # a serial Gaussian grid needs SciPy's compiled LAPACK module alone, not
    # the scipy.linalg package nor the process pool, and Poisson densities
    # add scipy.special
    proc = _run_fresh(_SCIPY_PARTS_SCRIPT, str(ROOT / "tests" / "data" / "iris.csv"),
                      str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr


# VmHWM, the peak resident set of this process image: ru_maxrss would carry
# the peak of the spawning test process across exec
_PEAK_RSS_SCRIPT = """
import {}
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_package_import_costs_little_memory_beyond_numpy():
    # the scipy.linalg package init alone was about 24 MB of a 31 MB import
    bound_kib = 12 * 1024  # fixed before measuring
    peaks = []
    for module in ("numpy", "mbem.cli"):
        proc = _run_fresh(_PEAK_RSS_SCRIPT.format(module))
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout))  # kB
    assert peaks[1] - peaks[0] < bound_kib


def test_lapack_kernels_are_scipy_linalg_own():
    # the same function objects scipy.linalg.lapack hands out, so loading the
    # extension on its own cannot move a result bit
    import scipy.linalg.lapack

    from mbem import families

    assert families._TRTRS is scipy.linalg.lapack.dtrtrs
    assert families._TRTRI is scipy.linalg.lapack.dtrtri
