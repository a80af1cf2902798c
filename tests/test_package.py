import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from symrich import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, types.ModuleType))
    assert modules == []


def test_all_names_resolve():
    import symrich

    assert all(hasattr(symrich, name) for name in symrich.__all__)
    assert {"verify", "repro_octa", "repro_hexa", "reversal_group"} <= set(symrich.__all__)


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    """Every demo runs to the end, so every name it imports resolves, and
    writes nothing to stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
