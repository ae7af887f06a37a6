import re
from pathlib import Path

import mbem

README = Path(__file__).resolve().parent.parent / "README.md"


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
