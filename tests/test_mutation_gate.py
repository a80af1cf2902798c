"""The mutation gate, run with ``pytest -m slow``.

The source tree, the tests and ``pyproject.toml`` are copied to a temporary
directory.  The unmutated copy must pass every test named in
:data:`mutants.MUTANTS`; then each row's mutant is applied on its own and its
named test, run in a subprocess, must fail.  The gate prints how many rows
were killed.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent


def _passes(tree: Path, tests) -> bool:
    # the copy's pyproject puts its own src first on the path; no bytecode, since a
    # mutant of the same size written within the second of its original would
    # otherwise import the original's cached bytecode
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True, env={**env, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc.returncode == 0


def test_every_mutant_fails_its_test(tmp_path):
    tree = tmp_path / "tree"
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    assert _passes(tree, sorted({m.test for m in MUTANTS})), "the unmutated tree fails a named test"
    survivors = []
    for m in MUTANTS:
        path = tree / "src" / "symrich" / m.file
        original = path.read_text()
        assert original.count(m.snippet) == 1, f"{m.what}: the snippet no longer occurs once in {m.file}"
        path.write_text(original.replace(m.snippet, m.mutant))
        if _passes(tree, [m.test]):
            survivors.append(m.what)
        path.write_text(original)
    print(f"mutation gate: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} rows killed")
    assert not survivors, f"mutants that pass their test: {survivors}"
