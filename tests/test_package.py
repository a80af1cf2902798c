import ast
import importlib
import types
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from symrich import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, types.ModuleType))
    assert modules == []


def test_all_names_resolve():
    import symrich

    assert all(hasattr(symrich, name) for name in symrich.__all__)
    assert {"verify", "repro_octa", "repro_hexa", "reversal_group"} <= set(symrich.__all__)


def test_demo_imports_resolve():
    """Every name a demo imports from symrich or one of its modules exists."""
    assert DEMOS
    imported = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "symrich":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = [entry for entry in imported
               if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []
