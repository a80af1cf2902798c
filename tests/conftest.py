import dataclasses

import pytest

from symrich import LanguageIndex
from symrich.palindromes import TextPalindromes
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


def corrupt_profiles(monkeypatch, affected):
    """Make the defect profiles that ``verify_text`` reads off its index
    (``TextPalindromes.profile``) one too high at entry 5, inside the head the
    dual defect computation checks, for the groups that ``affected`` accepts."""
    real = TextPalindromes.profile

    def corrupted(self, group):
        profile = real(self, group)
        if not affected(group):
            return profile
        defect = list(profile.defect)
        defect[5] += 1
        return dataclasses.replace(profile, defect=tuple(defect))

    monkeypatch.setattr(TextPalindromes, "profile", corrupted)


@pytest.fixture
def corrupted_defect_head(monkeypatch):
    """Corrupt the profile of every group (see :func:`corrupt_profiles`)."""
    corrupt_profiles(monkeypatch, lambda group: True)


@pytest.fixture
def corrupt_one_group(monkeypatch):
    """Call with a group to corrupt its profile only (see :func:`corrupt_profiles`)."""
    return lambda target: corrupt_profiles(monkeypatch, lambda group: group == target)
