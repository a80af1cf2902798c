import types


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from symrich import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, types.ModuleType))
    assert modules == []


def test_all_names_resolve():
    import symrich

    assert all(hasattr(symrich, name) for name in symrich.__all__)
    assert {"verify", "repro_octa", "repro_hexa", "reversal_group"} <= set(symrich.__all__)
