import dataclasses
import importlib

import pytest

from symrich import LanguageIndex
from symrich.presets import (
    BINARY,
    binary_full_group,
    fibonacci_source,
    generalized_thue_morse,
    reversal_group,
    thue_morse_source,
)
from symrich.symmetry import dihedral_group


@pytest.fixture(scope="session")
def tm_text():
    return thue_morse_source().prefix(2000)


@pytest.fixture(scope="session")
def fib_text():
    return fibonacci_source().prefix(2000)


@pytest.fixture(scope="session")
def t33_text():
    return generalized_thue_morse(3, 3).prefix(2000)


@pytest.fixture(scope="session")
def i2_2():
    return binary_full_group()


@pytest.fixture(scope="session")
def i2_3():
    return dihedral_group(3)


@pytest.fixture(scope="session")
def id_r():
    return reversal_group(BINARY)


@pytest.fixture(scope="session")
def tm_index(tm_text, i2_2):
    return LanguageIndex(tm_text, 14, i2_2)


@pytest.fixture(scope="session")
def tm_index_r(tm_text, id_r):
    return LanguageIndex(tm_text, 14, id_r)


@pytest.fixture(scope="session")
def fib_index(fib_text, id_r):
    return LanguageIndex(fib_text, 14, id_r)


@pytest.fixture(scope="session")
def t33_index(t33_text, i2_3):
    return LanguageIndex(t33_text, 14, i2_3)


@pytest.fixture
def corrupted_defect_head(monkeypatch):
    """Make ``symrich.verify`` read defect profiles whose entry 5, inside the
    head the dual defect computation checks, is one too high."""
    module = importlib.import_module("symrich.verify")  # the package's ``verify`` is the function
    real = module.defect_profile

    def corrupted(group, text):
        profile = real(group, text)
        defect = list(profile.defect)
        defect[5] += 1
        return dataclasses.replace(profile, defect=tuple(defect))

    monkeypatch.setattr(module, "defect_profile", corrupted)
