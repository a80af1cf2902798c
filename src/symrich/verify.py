"""Cross-characterization richness verification.

A verify run checks one word against one group through every bounded
characterization at once: tree-like structure of the symmetry graphs,
palindromicity of complete return words, unioccurrence of longest
palindromic suffixes, the defect profile, the palindromic complexity
balance, and the bilateral orders of bispecial factors.  The verdicts must
agree; any disagreement is reported as an inconsistency rather than being
papered over.

Bounded semantics: "rich up to n_max" means every check passed on the
indexed range; the properties quantify over all lengths, so a finite prefix
can refute but never fully certify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (
    ConsistencyError,
    GroupError,
    IndexRangeError,
    InsufficientPrefixError,
    SymrichError,
)
from .graphs import (
    BispecialRecord,
    ComplexityIdentityRecord,
    TlsVerdict,
    bispecial_check,
    complexity_identity,
    tls_verdict,
)
from .index import LanguageIndex, _stable_under_doubling
from .palindromes import DefectProfile, defect_profile, g_defect
from .symmetry import SymmetryGroup, reversal_group
from .words import WordSource

RICH = "rich-up-to-nmax"
ALMOST = "almost-rich-candidate"
REFUTED = "refuted"
INCONSISTENT = "inconsistent"

#: prefix length of the quadratic dual defect computation run on every verify
DEFECT_CROSSCHECK_HEAD = 160


def min_distinguishing(group: SymmetryGroup, index: LanguageIndex, n_max: int) -> int | None:
    """Smallest indexed order at which distinct antimorphisms act distinctly."""
    for n in range(n_max + 1):
        if group.is_distinguishing(index.factors(n)):
            return n
    return None


@dataclass(frozen=True)
class CrwRecord:
    """Complete return words of one orbit class of factors."""

    n: int
    representative: str
    return_words: tuple[str, ...]
    violations: tuple[str, ...]


def crw_records(group: SymmetryGroup, index: LanguageIndex, text: str,
                n_lo: int, n_hi: int) -> list[CrwRecord]:
    """Complete return words of every orbit class of factors of length n_lo..n_hi.

    The complete return words of a class C are the factors ``text[i:j + n]``
    for consecutive occurrences i < j of members of C.  Slicing them costs
    about |text| slices per order, so the orders are walked top-down and a
    class with no special member is derived from order n + 2 instead.

    Lemma.  Let the factor sets of orders n + 1 and n + 2 be closed under
    ``group``, and let C be a class of order n whose representative m has
    exactly one left extension b and one right extension c, with b·m·c a
    factor.  (When b·m·c is no factor, C occurs only at 0 and |text| - n.)
    Then:

    1. Every member g(m) has exactly one left extension and one right
       extension, and the words b'·m'·c' (m' in C, b' and c' its extensions)
       form one class C2 of order n + 2, the class of b·m·c.
    2. The occurrences p of C with 1 <= p <= |text| - n - 1 are the
       occurrences of C2 shifted by one.
    3. crw(C) is {v[1:-1] : v in crw(C2)}, plus the return word that starts
       at position 0 when C occurs there, plus the one that ends the text
       when C occurs at |text| - n.

    Proof.  (1) The middle n letters of g(x·m·y) are g(m), and g(x·m·y) is
    a factor whenever x·m·y is, by closure; for a morphism g with letter map
    s it is s(x)·g(m)·s(y), for an antimorphism with letter map s it is
    s(y)·g(m)·s(x).  So g maps the two-sided extensions of m one-to-one onto
    those of g(m), and g^-1 maps them back: g(m) has exactly one of each, and
    g(b·m·c) is b'·g(m)·c'.  The orbit of b·m·c is therefore the set of the
    words b'·m'·c'.  (2) An occurrence p of a member m' with 1 <= p <=
    |text| - n - 1 has a letter on each side, and these must be the unique
    extensions of m', so b'·m'·c' occurs at p - 1; conversely every
    occurrence q of b'·m'·c' puts m' at q + 1 inside that range.  (3) The
    occurrences of C are those of (2) plus possibly 0 and |text| - n.
    Consecutive inner occurrences i < j are consecutive occurrences i - 1,
    j - 1 of C2, whose return word ``text[i - 1:j + n + 1]`` is the one of C
    with one letter added on each side.  The remaining consecutive pairs
    touch position 0 or |text| - n.

    The first and last occurrences follow from those of C2 and the two
    boundary occurrences, while the violations are recomputed on the derived
    words.  Classes with a special member or with no inner occurrence, the
    two top orders, and languages not known to be closed under ``group`` (an
    index built without a group, with closure additions, or for a group not
    containing ``group``) are sliced directly.  ``text`` must be ``index.text``.
    """
    if text != index.text:  # O(1) when both are one object
        raise SymrichError(f"text of length {len(text)} is not the indexed text "
                           f"(length {len(index.text)})")
    derive = index.g_closed and all(g in index.group for g in group.elements)
    size = len(text)
    # per order: class representative -> (record, first occurrence, last occurrence)
    levels: dict[int, dict[str, tuple[CrwRecord, int, int]]] = {}
    for n in range(n_hi, n_lo - 1, -1):
        classes: dict[str, list[str]] = {}
        for w in index.sorted_factors(n):
            classes.setdefault(group.class_representative(w), []).append(w)
        up = levels.get(n + 2) if derive else None
        head = group.class_representative(text[:n])
        tail = group.class_representative(text[size - n:])
        level = levels[n] = {}
        for rep in sorted(classes):
            entry = _outer_entry(group, index, up, rep) if up else None
            if entry:
                outer, first, last = entry
                first, last = first + 1, last + 1
                returns = {v[1:-1] for v in outer.return_words}
                if rep == head:
                    returns.add(text[:first + n])
                    first = 0
                if rep == tail:
                    returns.add(text[last:])
                    last = size - n
            else:
                # distinct factors of one length never share a start position
                occ = sorted(chain.from_iterable(map(index.occurrences, classes[rep])))
                returns = {text[i:j + n] for i, j in zip(occ, occ[1:])}
                first, last = (occ[0], occ[-1]) if occ else (-1, -1)
            words = tuple(sorted(returns))
            violations = tuple(v for v in words if not group.is_g_palindrome(v))
            level[rep] = (CrwRecord(n, rep, words, violations), first, last)
    return [record for n in range(n_lo, n_hi + 1) for record, _, _ in levels[n].values()]


def _outer_entry(group: SymmetryGroup, index: LanguageIndex,
                 up: dict[str, tuple[CrwRecord, int, int]], rep: str):
    """The entry in ``up`` (order n + 2) of the class of b·rep·c, when rep has
    exactly one left extension b and one right extension c and b·rep·c is a
    factor; None otherwise."""
    left, right = index.lext(rep), index.rext(rep)
    if len(left) != 1 or len(right) != 1:
        return None
    (b,), (c,) = left, right
    return up.get(group.class_representative(b + rep + c))


@dataclass(frozen=True)
class RichnessReport:
    word_id: str
    group_id: str
    length: int
    n_max: int
    threshold: int
    stability: bool | None
    closed: bool
    missing_closure_witness: str | None
    min_distinguishing_n: int | None
    involutively_generated: bool
    tls: tuple[TlsVerdict, ...]
    crw: tuple[CrwRecord, ...]
    identity: tuple[ComplexityIdentityRecord, ...]
    bispecials: tuple[BispecialRecord, ...]
    profile: DefectProfile | None
    verdicts: dict[str, bool]
    witnesses: dict[str, str]
    agreement_ok: bool
    bound_ok: bool
    candidate_threshold: int | None
    contradiction: str | None
    overall: str

    def to_keyvalues(self) -> list[tuple[str, str]]:
        kv: list[tuple[str, str]] = [
            ("word", self.word_id),
            ("group", self.group_id),
            ("length", str(self.length)),
            ("n_max", str(self.n_max)),
            ("threshold", str(self.threshold)),
            ("stability", str(self.stability).lower()),
            ("closed", str(self.closed).lower()),
            ("min_distinguishing_n", str(self.min_distinguishing_n)),
            ("involutively_generated", str(self.involutively_generated).lower()),
            ("agreement", str(self.agreement_ok).lower()),
            ("bound", str(self.bound_ok).lower()),
            ("candidate_threshold", str(self.candidate_threshold)),
            ("contradiction", self.contradiction or "none"),
            ("overall", self.overall),
        ]
        for name in sorted(self.verdicts):
            kv.append((f"verdict.{name}", str(self.verdicts[name]).lower()))
        for name in sorted(self.witnesses):
            kv.append((f"witness.{name}", self.witnesses[name]))
        if self.profile is not None:
            kv.append(("defect.final", str(self.profile.final)))
            kv.append(("defect.lacunas", ",".join(map(str, self.profile.lacunas)) or "none"))
        return kv

    def to_text(self) -> str:
        lines = [
            f"richness report: word={self.word_id} group={self.group_id}",
            f"  prefix length {self.length}, orders checked {self.threshold}..{self.n_max}"
            " (bounded verification; the properties quantify over all orders)",
            f"  stability={self.stability} closed={self.closed}"
            f" min_distinguishing_n={self.min_distinguishing_n}"
            f" involutively_generated={self.involutively_generated}",
        ]
        if not self.closed:
            lines.append(f"  missing closure: {self.missing_closure_witness}")
        for name in sorted(self.verdicts):
            status = "pass" if self.verdicts[name] else "FAIL"
            line = f"  {name:<12} {status}"
            if name in self.witnesses:
                line += f"  [{self.witnesses[name]}]"
            lines.append(line)
        if self.profile is not None:
            lines.append(
                f"  defect profile: final={self.profile.final}"
                f" lacunas={list(self.profile.lacunas[:12])}"
                + ("..." if len(self.profile.lacunas) > 12 else "")
            )
        lines.append(f"  agreement={self.agreement_ok} bound={self.bound_ok}")
        if self.contradiction:
            lines.append(f"  CONTRADICTION: {self.contradiction}")
        lines.append(f"  overall: {self.overall}"
                     + (f" (threshold {self.candidate_threshold})" if self.overall == ALMOST else ""))
        lines.append("[data]")
        lines += [f"{k} = {v}" for k, v in self.to_keyvalues()]
        return "\n".join(lines) + "\n"


def verify_text(
    group: SymmetryGroup,
    index: LanguageIndex,
    *,
    threshold: int = 1,
    stability: bool | None = None,
    word_id: str = "word",
    group_id: str | None = None,
) -> RichnessReport:
    """Run every bounded richness characterization of ``index.text`` against ``group``.

    The orders checked are 1..n_max with n_max = ``index.n_max`` - 2, since
    extension data at order n reads level n + 2.  The index must be built
    with a group containing ``group``.  When closure added factors to it,
    that group must be ``group`` itself, since additions under a larger group
    say nothing about closure under ``group``.
    """
    text, n_max = index.text, index.n_max - 2
    group.alphabet.check_word(text)
    if not group.has_antimorphism:
        raise GroupError("richness analysis requires a group containing an antimorphism")
    if threshold < 1:
        raise GroupError(f"threshold must be >= 1, got {threshold}")
    if n_max < 0:
        raise IndexRangeError(f"index of order {index.n_max} cannot support verification; "
                              f"it needs order >= 2")
    if index.group is None or any(g not in index.group for g in group.elements):
        raise GroupError(f"index group {index.group!r} does not contain the verified group {group!r}")
    if index.closure_added and index.group != group:
        raise GroupError(f"closure under index group {index.group!r} added factors at lengths "
                         f"{sorted(index.closure_added)}; index the text with the verified group")
    if group_id is None:
        group_id = f"order{group.order}"

    base = dict(
        word_id=word_id, group_id=group_id, length=len(text), n_max=n_max,
        threshold=threshold, stability=stability,
        involutively_generated=group.is_involutively_generated(),
    )

    if index.closure_added:
        n_bad = min(index.closure_added)
        witness = sorted(index.closure_added[n_bad])[0]
        if stability is not True:
            # cannot separate truncation from genuine non-closure without stability
            raise InsufficientPrefixError(
                f"group closure added factor {witness!r} at length {n_bad} and the prefix "
                f"is not known to be stable; extend the prefix"
            )
        detail = f"image {witness!r} (length {n_bad}) never occurs in the stable prefix"
        return RichnessReport(
            **base,
            closed=False,
            missing_closure_witness=detail,
            min_distinguishing_n=None,
            tls=(), crw=(), identity=(), bispecials=(), profile=None,
            verdicts={"closure": False},
            witnesses={"closure": detail},
            agreement_ok=True,
            bound_ok=True,
            candidate_threshold=None,
            contradiction=None,
            overall=REFUTED,
        )

    tls_results = tuple(tls_verdict(group, index, n) for n in range(1, n_max + 1))
    crw = tuple(crw_records(group, index, text, 1, n_max))
    identity = tuple(complexity_identity(group, index, range(0, n_max + 1)))
    bisp = tuple(bispecial_check(group, index, range(1, n_max + 1)))
    profile = defect_profile(group, text)
    _crosscheck_defect_head(group, text, profile)
    n0 = next((r.n for r in identity if r.distinguishing), None)

    distinguishing_at = {r.n: r.distinguishing for r in identity}

    fail_points: list[int] = []
    witnesses: dict[str, str] = {}

    tls_fails = [v for v in tls_results if not v.satisfied]
    if tls_fails:
        first = tls_fails[0]
        witnesses["tls"] = f"order {first.order}: {first.witness}"
        fail_points += [v.order for v in tls_fails]

    crw_bad = [r for r in crw if r.violations]
    if crw_bad:
        first = crw_bad[0]
        witnesses["return-words"] = (
            f"class [{first.representative}] has non-palindromic return word {first.violations[0]!r}"
        )
        fail_points += [r.n for r in crw_bad]

    if profile.lacunas:
        witnesses["lps"] = f"first lacuna at position {profile.lacunas[0]}"
        witnesses["defect"] = f"defect reaches {profile.final}"
        fail_points += list(profile.lacunas)

    ceq_bad = [r for r in identity if r.distinguishing and r.n >= threshold and not r.equal]
    if ceq_bad:
        first = ceq_bad[0]
        witnesses["complexity"] = f"order {first.n}: {first.lhs} != {first.rhs}"
        fail_points += [r.n for r in ceq_bad]

    # The bilateral-order conditions characterize richness only together with
    # the complexity equality anchored at one distinguishing order.
    anchor = next(
        (r for r in identity if r.distinguishing and r.n >= threshold), None,
    )
    anchor_ok = anchor.equal if anchor is not None else True

    bisp_bad = [r for r in bisp if distinguishing_at.get(r.n, False)
                and r.n >= threshold and not r.ok]
    if bisp_bad:
        first = bisp_bad[0]
        witnesses["bispecial"] = (
            f"{first.factor!r}: b={first.bilateral}, fixers={list(first.fixer_names)},"
            f" pext sizes={list(first.pext_sizes)}"
        )
        fail_points += [r.n for r in bisp_bad]
    elif not anchor_ok:
        witnesses["bispecial"] = (
            f"anchor equality at order {anchor.n} fails: {anchor.lhs} != {anchor.rhs}"
        )
        fail_points.append(anchor.n)

    at = threshold
    verdicts = {
        "tls": all(v.satisfied for v in tls_results if v.order >= at),
        "return-words": not any(r.violations for r in crw if r.n >= at),
        "lps": not any(pos >= at for pos in profile.lacunas),
        "defect": profile.final == 0 if at == 1 else profile.stabilized,
        "complexity": all(r.equal for r in identity if r.distinguishing and r.n >= at),
        "bispecial": anchor_ok and all(
            r.ok for r in bisp if distinguishing_at.get(r.n, False) and r.n >= at
        ),
    }
    agreement_ok = len(set(verdicts.values())) == 1
    bound_ok = all(r.holds for r in identity if r.distinguishing)

    candidate: int | None
    if fail_points:
        candidate = max(fail_points) + 1
        if candidate > n_max:
            candidate = None
    else:
        candidate = threshold

    contradiction = None
    all_pass = all(verdicts.values())
    if all_pass and not base["involutively_generated"]:
        contradiction = (
            "all characterizations pass but the group is not generated by its involutive "
            "antimorphisms, which richness would force"
        )

    if not agreement_ok:
        overall = INCONSISTENT
    elif contradiction:
        overall = INCONSISTENT
    elif all_pass:
        overall = RICH
    elif candidate is not None and candidate <= n_max:
        overall = ALMOST
    else:
        overall = REFUTED

    return RichnessReport(
        **base,
        closed=True,
        missing_closure_witness=None,
        min_distinguishing_n=n0,
        tls=tls_results,
        crw=crw,
        identity=identity,
        bispecials=bisp,
        profile=profile,
        verdicts=verdicts,
        witnesses=witnesses,
        agreement_ok=agreement_ok,
        bound_ok=bound_ok,
        candidate_threshold=candidate,
        contradiction=contradiction,
        overall=overall,
    )


def _crosscheck_defect_head(group: SymmetryGroup, text: str, profile: DefectProfile) -> None:
    """Run the quadratic dual defect computation on a head of the text."""
    head = text[:DEFECT_CROSSCHECK_HEAD]
    dual = g_defect(group, head)
    if dual.defect != profile.defect[:len(head) + 1]:
        raise ConsistencyError("incremental defect profile disagrees with the dual computation")


def verify(
    group: SymmetryGroup,
    source: WordSource,
    length: int,
    n_max: int,
    threshold: int = 1,
    *,
    word_id: str | None = None,
    group_id: str | None = None,
) -> RichnessReport:
    """Generate a prefix, run the stability guard, and verify it.

    When the factor sets of prefix(L) and prefix(2L) disagree the prefix is
    doubled (up to six times); persistent instability raises.
    """
    text, stability = _stable_prefix(source, length, n_max)
    return verify_text(
        group, LanguageIndex(text, n_max + 2, group), threshold=threshold, stability=stability,
        word_id=word_id or repr(source), group_id=group_id,
    )


def _stable_prefix(source: WordSource, length: int, n_max: int) -> tuple[str, bool | None]:
    """The prefix :func:`verify` analyses, and its stability under doubling.

    Each stability step generates prefix(2L) once and reads prefix(L) as its
    head, since a source's prefixes agree; a doubling step reuses the long
    prefix as its short one.  The stability is None when a bounded source
    cannot produce the doubled prefix, as in :func:`stability_check`.
    """
    if length < n_max + 2:
        raise InsufficientPrefixError(f"length {length} cannot support n_max={n_max}")
    attempts = 6
    bound = source.max_prefix()
    short = None  # prefix(length) once generated: the long prefix of the step before
    while bound is None or 2 * length <= bound:
        long_ = source.prefix(2 * length)
        if short is None:
            short = long_[:length]
        if _stable_under_doubling(short, long_, n_max + 2):
            return short, True
        if attempts == 0:
            raise InsufficientPrefixError(
                f"factor sets up to length {n_max + 2} still change when doubling the prefix "
                f"beyond {length} letters"
            )
        attempts -= 1
        length, short = 2 * length, long_
    return (source.prefix(length) if short is None else short), None


# -- subgroup scan -------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupResult:
    group_id: str
    order: int
    proper: bool
    overall: str
    identity_ok: bool | None  # None when not applicable (not proper or not rich)
    identity_values: tuple[tuple[int, int], ...]  # (n, sum over complement antimorphisms)

    def render(self) -> str:
        out = f"subgroup {self.group_id} (order {self.order}): {self.overall}"
        if self.identity_ok is not None:
            out += f", index-2 identity {'holds' if self.identity_ok else 'FAILS'}"
        return out


def subgroup_scan(group: SymmetryGroup, text: str, n_max: int) -> list[SubgroupResult]:
    """Verify every subgroup containing an antimorphism and, for proper rich
    subgroups, check the half-order palindromic-complexity identity.

    A ``text`` that does not close under ``group`` up to order n_max + 2
    raises, so no subgroup's report depends on the stability of ``text``
    under doubling.
    """
    group.alphabet.check_word(text)
    if len(text) < n_max + 2:
        raise InsufficientPrefixError(f"prefix of length {len(text)} cannot support n_max={n_max}")
    index = LanguageIndex(text, n_max + 2, group)
    if index.closure_added:
        raise InsufficientPrefixError(
            f"prefix does not close under the full group at lengths {sorted(index.closure_added)}"
        )
    n0 = min_distinguishing(group, index, n_max)
    p = {t: index.palindromic_complexity(t) for t in group.involutive_antimorphisms}

    results = []
    for sub in group.subgroups():
        if not sub.has_antimorphism:
            continue
        sub_id = "{" + ",".join(e.name for e in sub.elements) + "}"
        report = verify_text(sub, index, word_id="scan", group_id=sub_id)
        identity_ok: bool | None = None
        values: tuple[tuple[int, int], ...] = ()
        if len(sub) < group.order and report.overall == RICH and n0 is not None:
            complement = [t for t in group.involutive_antimorphisms
                          if t not in sub.involutive_antimorphisms]
            vals = []
            ok = 2 * sub.order == group.order
            for n in range(n0, n_max):
                s = sum(p[t][n] + p[t][n + 1] for t in complement)
                vals.append((n, s))
                if s != group.order // 2:
                    ok = False
            identity_ok = ok
            values = tuple(vals)
        results.append(SubgroupResult(sub_id, sub.order, len(sub) < group.order,
                                      report.overall, identity_ok, values))
    return results


# -- classical defect vs complexity sum ----------------------------------------------


@dataclass(frozen=True)
class DefectSumCheck:
    """2 D(prefix) against the running sum of T(n) = dC(n) + 2 - P(n) - P(n+1)."""

    defect: int
    t_values: tuple[int, ...]
    partial_sum: int
    defect_stable: bool
    tail_zero: bool

    @property
    def matching(self) -> bool | None:
        if not (self.defect_stable and self.tail_zero):
            return None
        return 2 * self.defect == self.partial_sum


def defect_sum_check(source: WordSource, length: int, n_max: int) -> DefectSumCheck:
    group = reversal_group(source.alphabet)
    text = source.prefix(length)
    index = LanguageIndex(text, n_max + 1, group)
    c = index.complexities()
    rev = group.involutive_antimorphisms[0]
    p = index.palindromic_complexity(rev)
    t_values = tuple((c[n + 1] - c[n]) + 2 - p[n] - p[n + 1] for n in range(n_max))
    profile = defect_profile(group, text)
    tail = t_values[-3:] if len(t_values) >= 3 else t_values
    return DefectSumCheck(
        defect=profile.final,
        t_values=t_values,
        partial_sum=sum(t_values),
        defect_stable=profile.stabilized,
        tail_zero=all(v == 0 for v in tail),
    )
