import os
import subprocess
import sys
import types
import warnings
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


@pytest.mark.parametrize("category", [DeprecationWarning, UserWarning, RuntimeWarning])
def test_warnings_are_errors(category):
    """The suite's warning filter turns every warning into an error; it ignores
    only the deprecation that hypothesis's failure report triggers, so that
    the falsifying example is printed."""
    with pytest.raises(category):
        warnings.warn("any other warning", category)
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)
