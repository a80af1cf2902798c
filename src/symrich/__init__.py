"""Palindromic richness analysis for words invariant under finite symmetry groups.

The package analyzes infinite words (through deterministic prefix
generators) whose languages are closed under a finite group of morphisms
and antimorphisms of the free monoid: factor and palindromic complexity,
generalized palindromes and their return words, defect profiles, Rauzy and
symmetry graphs, and cross-verified richness verdicts.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AlphabetError,
    ClosureError,
    ConfigError,
    ConsistencyError,
    GroupError,
    IndexRangeError,
    InsufficientPrefixError,
    SourceError,
    SymrichError,
)
from .graphs import (
    BispecialRecord,
    ComplexityIdentityRecord,
    RauzyGraph,
    SymmetryGraph,
    TlsVerdict,
    bispecial_check,
    complexity_identity,
    directed_symmetry_graph,
    rauzy_graph,
    tls_verdict,
    undirected_symmetry_graph,
)
from .index import ComplexityTable, LanguageIndex, stability_check
from .palindromes import (
    DefectProfile,
    defect_profile,
    g_defect,
    g_lps,
    prefix_palindrome_table,
    prefix_table_csv,
)
from .repro import CaseStudyReport, repro_hexa, repro_octa
from .symmetry import SymmetryGroup, SymmetryMap, dihedral_group, reversal_group
from .verify import (
    DefectSumCheck,
    RichnessReport,
    SubgroupResult,
    defect_sum_check,
    subgroup_scan,
    verify,
    verify_text,
)
from .words import (
    Alphabet,
    DigitSumSource,
    FixedPointSource,
    LiteralSource,
    PeriodicSource,
    WordSource,
    apply_morphism,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
