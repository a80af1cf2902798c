"""Stress runs at long prefix lengths, kept out of the default suite.

Run with ``pytest -m slow``.  They catch faults that only show at scale: the
per-step defect identity, the dual defect head and the complexity identity
chain are all checked inside these runs.
"""

import pytest

from symrich import defect_profile, verify
from symrich.presets import BINARY, binary_full_group, fibonacci_source, reversal_group, thue_morse_source
from symrich.verify import RICH

pytestmark = pytest.mark.slow


def test_thue_morse_order_four_verify():
    # verify raises ConsistencyError if the dual defect head disagrees with the profile
    report = verify(binary_full_group(), thue_morse_source(), 64000, 60)
    assert report.overall == RICH
    assert report.identity and all(record.holds for record in report.identity)


def test_fibonacci_reversal_defect():
    assert defect_profile(reversal_group(BINARY), fibonacci_source().prefix(64000)).final == 0
