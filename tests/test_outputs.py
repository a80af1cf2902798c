"""Default outputs stay byte-identical.

``outputs.json`` holds the sha256 of stdout and of stderr and the exit code of
every ``repro`` preset at its default sizes and of the analysis commands on
the Thue-Morse config of ``test_cli``, all run in-process through
``cli.main``, and the sha256 of each demo's stdout (read by
``test_package.test_demo_runs``).  ``--help`` is left out, since argparse
formats it differently across Python versions.

After a deliberate change of output, re-record with
``PYTHONPATH=src python tests/test_outputs.py`` and say why in the change.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symrich.cli import REPRO_PRESETS, main
from test_cli import TM_CONFIG

OUTPUTS = Path(__file__).resolve().parent / "outputs.json"
ROOT = Path(__file__).resolve().parents[1]

CONFIG_COMMANDS = [
    ["word"],
    ["group"],
    ["complexity"],
    ["defect"],
    ["returns", "010"],
    ["lps", "11"],
    ["graph", "rauzy", "--n", "3"],
    ["graph", "sym-directed", "--n", "3"],
    ["graph", "sym-undirected", "--n", "3"],
    ["verify"],
]
REPRO_COMMANDS = [["repro", preset] for preset in sorted(REPRO_PRESETS)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str], config: Path) -> dict:
    """Exit code and output digests of one in-process CLI run."""
    if argv[0] != "repro":
        argv = ["--config", str(config), *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}


def demo_stdout(path: Path) -> str:
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return digest(proc.stdout)


def recorded() -> dict:
    return json.loads(OUTPUTS.read_text())


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "tm.yaml"
    path.write_text(TM_CONFIG)
    return path


@pytest.mark.parametrize("argv", REPRO_COMMANDS + CONFIG_COMMANDS, ids=" ".join)
def test_cli_output_unchanged(argv, config):
    assert run_cli(argv, config) == recorded()["cli"][" ".join(argv)]


def test_every_recorded_command_runs():
    assert sorted(recorded()["cli"]) == sorted(" ".join(a) for a in REPRO_COMMANDS + CONFIG_COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tm.yaml"
        path.write_text(TM_CONFIG)
        cli = {" ".join(a): run_cli(a, path) for a in REPRO_COMMANDS + CONFIG_COMMANDS}
    demos = {p.name: demo_stdout(p) for p in sorted((ROOT / "demos").glob("*.py"))}
    OUTPUTS.write_text(json.dumps({"cli": cli, "demos": demos}, indent=1, sort_keys=True) + "\n")
