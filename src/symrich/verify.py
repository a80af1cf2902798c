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

Each characterization lists its failing entries by order, lps by the prefix
length of each lacuna.  Its verdict fails when an entry is at or above the
threshold, and its witness, shown only beside a failing verdict, is the
first such entry.  The defect fails at threshold 1 when it is not 0 and
above it when a lacuna falls in the second half of the prefix.  The
candidate threshold is one above the last failing entry (for complexity and
bispecials, at distinguishing orders from the threshold up), the threshold
itself when none fails, and None above n_max.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple

from .errors import (
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
from .palindromes import DEFECT_CROSSCHECK_HEAD, DefectProfile, defect_profile
from .symmetry import SymmetryGroup, reversal_group
from .words import WordSource

RICH = "rich-up-to-nmax"
ALMOST = "almost-rich-candidate"
REFUTED = "refuted"
INCONSISTENT = "inconsistent"

_log = logging.getLogger("symrich")


def min_distinguishing(group: SymmetryGroup, index: LanguageIndex, n_max: int) -> int | None:
    """Smallest indexed order at which distinct antimorphisms act distinctly."""
    for n in range(n_max + 1):
        if index.is_distinguishing(group, n):
            return n
    return None


class CrwRecord(NamedTuple):
    """One orbit class of factors of length ``n`` that has violations: its
    complete return words that are no G-palindromes, sorted, all that the
    return-word characterization reads.  Classes with violations only;
    :func:`complete_return_words` gives all of a class's return words."""

    n: int
    representative: str
    violations: tuple[str, ...]


def complete_return_words(group: SymmetryGroup, text: str, word: str) -> tuple[str, ...]:
    """The sorted complete return words of the orbit class of ``word``
    (nonempty) in ``text``: ``text[i:j + n]``, n = |word|, for consecutive
    occurrences i < j of members of the class, each member found by
    ``str.find``.  No index is built."""
    n = len(word)
    occ = []
    for m in group.equivalence_class(word):
        i = text.find(m)
        while i >= 0:
            occ.append(i)
            i = text.find(m, i + 1)
    occ.sort()  # distinct factors of one length never share a start position
    return tuple(sorted({text[i:j + n] for i, j in zip(occ, occ[1:])}))


def crw_records(group: SymmetryGroup, index: LanguageIndex, text: str,
                n_lo: int, n_hi: int) -> list[CrwRecord]:
    """The records of the orbit classes of factors of length n_lo..n_hi that
    have violations, complete return words that are no G-palindromes.

    The complete return words of a class C are the factors ``text[i:j + n]``
    for consecutive occurrences i < j of members of C.  Slicing them costs
    about |text| slices per order, so the orders are walked top-down, only
    the classes that can have violations are visited (Candidates, below),
    and one that is not bispecial is derived from order n + 1 (Lemma 1).
    Return words change only at bispecial factors (Balkova, Pelantova and
    Steiner, Monatsh. Math. 2008; Glen, Justin, Widmer and Zamboni, Eur. J.
    Combin. 2009).

    Lemma 1 (order n + 1).  Let the factor sets of orders n and n + 1 be
    closed under ``group``, and let C be a class of order n whose
    representative m is not bispecial and has an extension on each side:
    #Lext(m) >= 1 and #Rext(m) = 1, or #Lext(m) = 1 and #Rext(m) >= 2.
    Call a member u right-unique when Rext(u) = {c} and left-unique when
    Lext(u) = {b}; its extension words are u·c with shift 0 and b·u with
    shift 1 (the position of u in it).  The extension word e of m is m·c
    when m is right-unique, else b·m.  Then:

    1. No member is bispecial, and a morphism keeps the two sides of a
       member, an antimorphism swaps them.
    2. g(e) is an extension word of g(m), with the shift s0 of m in e for a
       morphism g and 1 - s0 for an antimorphism.  The words g(e) form one
       class C1 of order n + 1, the class of e; let S(w) be the set of the
       shifts that the maps g with g(e) = w give.  S(w) is {0}, {1} or
       {0, 1}.
    3. Every occurrence p of C with 0 < p < |text| - n is q + s for an
       occurrence q of a w in C1 and an s in S(w), and every such q + s is
       an occurrence of C.  The pair (q, s) is unique, but when m is unique
       on both sides: then e = m·c, and a member u = g(m) = g'(m), g a
       morphism and g' an antimorphism, is reached at p as (p, 0) and as
       (p - 1, 1).
    4. crw(C) is {v[max S(v[:n+1]) : |v| - 1 + min S(v[-n-1:])] : v in
       crw(C1)} but for its words of n letters, plus every w with
       S(w) = {0, 1} (C occurs at q and q + 1 for each occurrence q of w),
       plus the return word from 0 and the one to the end of the text when
       C occurs there.

    Proof.  (1) For a morphism g with letter map s, g(x·u) is s(x)·g(u) and
    g(u·y) is g(u)·s(y); for an antimorphism g(x·u) is g(u)·s(x) and g(u·y)
    is s(y)·g(u); and these are factors whenever x·u and u·y are, since the
    factor set of order n + 1 is closed.  So g maps the one-letter
    extensions of m one-to-one onto those of g(m), on the same side for a
    morphism and on the other side for an antimorphism, and g^-1 maps them
    back: #Lext and #Rext of g(m) are those of m, swapped for an
    antimorphism.  (2) For a morphism g, g(m·c) is g(m)·s(c) and g(b·m) is
    s(b)·g(m), the extension word of g(m) with the same shift, by (1); for
    an antimorphism g(m·c) is s(c)·g(m) and g(b·m) is g(m)·s(b), the one
    with the other shift.  (3) A member u at p is g(m) for some g, and g(e)
    is u·c, Rext(u) = {c}, which occurs at p, or b·u, Lext(u) = {b}, which
    occurs at p - 1.  Conversely an occurrence q of w puts the member of
    shift s at q + s for each s in S(w).  A member unique on one side only
    has one extension word, of one shift, so (q, s) is unique.  (4) The
    occurrence q + s grows with q, and within one q with s, except that
    q + 1 = q' + 0 for occurrences q < q' of C1 when a member reached twice
    is at q + 1.  So consecutive occurrences of C come from one
    occurrence q of a w with S(w) = {0, 1}, with return word w, or from
    consecutive occurrences q < q' of C1, with return word v =
    ``text[q:q' + n + 1]``, from q + max S(v[:n+1]) to q' + min S(v[-n-1:])
    + n, or touch 0 or |text| - n.  Such a strip has n letters only for
    q' = q + 1 around a member reached twice (|v| = n + 2,
    max S(v[:n+1]) = 1 and min S(v[-n-1:]) = 0); it is that member, no
    return word.

    The boundary words are found by search.  A derived class has a member
    with both extensions, so it occurs after 0 and before |text| - n.
    Holding ``text[:n]``, its return word from 0 is ``text[:j + n]``, j >= 1
    the least occurrence of a member (``text.find(m, 1)``); holding
    ``text[-n:]``, its return word to the end is ``text[i:]``,
    i <= |text| - n - 1 the greatest (``text.rfind(m, 0, |text| - 1)``).
    Adding one that (4) gave from C1 is harmless.

    A derived class tests only its suspects, its boundary words and the
    strips of its source's violations, as its other return words are
    G-palindromes:

    * theta(a·u·b) = a·u·b implies theta(u) = u, so a word stripped on both
      sides (or on neither) from a G-palindrome is one again;
    * a G-palindrome v is never stripped on one side only: an antimorphism
      theta with theta(v) = v maps v[:n+1] to v[-n-1:], and S(theta(w)) is
      {1 - s : s in S(w)} by (2), so max S(v[:n+1]) is 1 - min S(v[-n-1:]);
    * a w with S(w) = {0, 1} is a G-palindrome: by (2) it is g(e) = h(e)
      for a morphism g and an antimorphism h, and h·g^-1 fixes it;
    * a strip of n letters is a member u = g(m) = g'(m), which g'·g^-1
      fixes, so it is never a violation, and the strips need no filter.

    Lemma 2 (a walk on the index).  Let C be a class of order n.  A word f
    with |f| > n is a complete return word of C iff f is a factor, f[:n] and
    f[-n:] are members of C, and no other length-n window of f is a member.
    On the index, level m is the set of length-m factors of the text for
    every m <= n_max, as closure added nothing to it.

    Proof.  The return word ``text[i:j + n]`` of consecutive occurrences
    i < j is a factor longer than n that starts and ends with a member; a
    member at offset k of it, 0 < k < j - i, would occur at i + k, between
    i and j.  Conversely, if f occurs at p, then p and p + |f| - n are
    occurrences of C, and no window of f between them is a member, so they
    are consecutive and f is their return word.

    So crw(C) is found by a depth-first walk from every member: a word s
    whose only member window is its first is extended by each letter a of
    ``index.rext(s)``, and s·a is recorded when its last n letters are a
    member and extended when not.  The walk falls back to slicing when it
    would extend a word of ``index.n_max`` letters, beyond the index, or has
    visited more words than C has occurrences, so it never costs more than
    slicing.

    Candidates.  Below the top order, only these classes of order n are
    visited: those of the head ``text[:n]``, of the tail ``text[-n:]`` and
    of the bispecial factors, and those of r[:n] and r[1:] for each
    representative r of a class of order n + 1 with violations.  Every other
    class C has none.  Proof.  Its representative m has a left extension,
    else it occurs only at 0 and is the head, and a right one, else it is the
    tail, and is not bispecial.  So Lemma 1 applies to C: as C holds neither
    the head nor the tail, its return words are G-palindromes w with
    S(w) = {0, 1} and strips of the return words of the class C1 of e, and a
    strip of a G-palindrome is one.  So a violation of C strips one of C1,
    whose representative is an extension word u·c or b·u of a member u of C,
    and C is a candidate.

    The candidates that Lemma 1 does not derive, bispecial classes and
    classes with a side with no extension, are walked; the top order and the
    walks that fall back are sliced.  The index must pass
    :meth:`LanguageIndex.check_closed` for ``group``, which the lemmas need,
    and ``text`` must be ``index.text``.  Each order maps each factor to its
    class's representative (:meth:`LanguageIndex.representatives`), so that
    the head, the tail and, one order down, e find their classes by the
    factor itself, and keeps the violations of its classes that have any for
    the order below.
    """
    found = dict(_crw_orders(group, index, text, n_lo, n_hi))
    return [CrwRecord(n, *item) for n in range(n_lo, n_hi + 1) for item in found[n].items()]


def _crw_orders(group: SymmetryGroup, index: LanguageIndex, text: str, n_lo: int, n_hi: int):
    """The orders of :func:`crw_records` from n_hi down to n_lo, each as
    (n, its classes with violations: representative -> violations, sorted by
    representative), made when asked for, so that a reader can stop at the
    first order with a violation, the highest.  The suspects of one order are
    filtered in one call; each violation v starts with a member of its class,
    so ``v[:n]`` names that class."""
    if text != index.text:  # O(1) when both are one object
        raise SymrichError(f"text of length {len(text)} is not the indexed text "
                           f"(length {len(index.text)})")
    index.check_closed(group)
    above: dict[str, str] = {}  # order n + 1: factor -> its class's representative
    found: dict[str, tuple[str, ...]] = {}  # order n + 1: representative -> violations
    for n in range(n_hi, n_lo - 1, -1):
        rep_of = dict(zip(index.sorted_factors(n), index.representatives(group, n)))
        head, tail = rep_of[text[:n]], rep_of[text[len(text) - n:]]
        below = n < n_hi
        candidates = {head, tail, *map(rep_of.get, index.bispecials(n)), *(  # the candidate rule
            rep_of[w] for r in found for w in (r[:n], r[1:]))} if below else set(rep_of.values())
        classes: dict[str, list[str]] = {}  # the candidates' members
        for w, rep in compress(rep_of.items(), map(candidates.__contains__, rep_of.values())):
            classes.setdefault(rep, []).append(w)
        suspects = []  # a set per class, each word starting with a member: none repeats
        for rep, members in classes.items():
            if below and (source := _outer_entry(group, index, above, found, rep)):  # Lemma 1
                outer, starts, ends = source
                words = {v[v[:n + 1] in starts:len(v) - (v[-n - 1:] in ends)]
                         for v in found.get(outer, ())}
                if rep == head:  # rep has a left extension, so the class occurs after 0
                    words.add(text[:min(j for m in members if (j := text.find(m, 1)) > 0) + n])
                if rep == tail:  # and a right one, so it occurs before |text| - n
                    words.add(text[max(text.rfind(m, 0, len(text) - 1) for m in members):])
            else:
                words = _walk_returns(index, members) if below else None  # Lemma 2
                if words is None:
                    # distinct factors of one length never share a start position
                    occ = sorted(chain.from_iterable(map(index.occurrences, members)))
                    words = {text[i:j + n] for i, j in zip(occ, occ[1:])}
            suspects += words
        violations: dict[str, list[str]] = {}
        for v in group.non_g_palindromes(suspects):
            violations.setdefault(rep_of[v[:n]], []).append(v)
        above, found = rep_of, {rep: tuple(sorted(violations[rep])) for rep in sorted(violations)}
        yield n, found


def _outer_entry(group: SymmetryGroup, index: LanguageIndex, above: dict[str, str],
                 found: dict[str, tuple[str, ...]], rep: str):
    """Where :func:`crw_records` derives the class of ``rep`` (order n) from
    by Lemma 1: the representative of the class of its extension word e at
    order n + 1, read from ``above`` (factor -> representative at n + 1),
    and that class's shift table as two sets, the words w with 1 in S(w)
    (max S(w) = 1) and those with 0 in S(w) (min S(w) = 0), read off e:
    g(e) takes the shift s0 of rep in e for a morphism g and 1 - s0 for an
    antimorphism.  The sets are empty when ``found`` gives that class no
    violations.  None when rep is bispecial or has no extension on a side."""
    left, right = index.lext(rep), index.rext(rep)
    if left and len(right) == 1:  # special on the left only, or unique on both sides
        (c,) = right
        e, s0 = rep + c, 0
    elif len(left) == 1 and len(right) >= 2:
        (b,) = left
        e, s0 = b + rep, 1
    else:
        return None
    outer = above[e]
    starts: set[str] = set()
    ends: set[str] = set()
    for g in group.elements if outer in found else ():  # a clean class strips nothing
        (starts if s0 != g.antimorphic else ends).add(g.apply(e))
    return outer, starts, ends


def _walk_returns(index: LanguageIndex, members: list[str]) -> set[str] | None:
    """The complete return words of the class with these ``members`` (factors
    of one length n), by the walk of Lemma 2 in :func:`crw_records`, or None
    when the walk must fall back to slicing."""
    n = len(members[0])
    inside = set(members)
    budget = sum(map(index.occurrence_count, members))
    found: set[str] = set()
    stack = list(members)
    while stack:
        s = stack.pop()
        budget -= 1
        if budget < 0 or len(s) == index.n_max:
            return None
        for a in index.rext(s):
            t = s + a
            if t[-n:] in inside:
                found.add(t)
            else:
                stack.append(t)
    return found


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
    crw: tuple[CrwRecord, ...]  # classes with violations only
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

    The defect profile and its dual check read the scan and the dual head
    table that the index keeps (:class:`palindromes.TextPalindromes`: one
    scan per index, read by every subgroup); every group is still checked
    against the dual at every prefix of the head.
    """
    text, n_max = index.text, index.n_max - 2
    if n_max < 0:
        raise IndexRangeError(f"index of order {index.n_max} cannot support verification; "
                              f"it needs order >= 2")
    _check_inputs(group, text, threshold, n_max)
    if group_id is None:
        group_id = f"order{group.order}"

    base = dict(
        word_id=word_id, group_id=group_id, length=len(text), n_max=n_max,
        threshold=threshold, stability=stability,
        involutively_generated=group.is_involutively_generated(),
    )

    if index.closure_added:
        if index.group != group:
            raise GroupError(f"closure under index group {index.group!r} added factors at lengths "
                             f"{sorted(index.closure_added)}; index the text with the verified group")
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
    index.check_closed(group)

    tls_results = tuple(tls_verdict(group, index, n) for n in range(1, n_max + 1))
    crw = tuple(crw_records(group, index, text, 1, n_max))
    identity, bisp, profile, rows = _other_checks(group, index, threshold, n_max)
    # One row per characterization: its failing entries as (order, or prefix
    # length for lps, record), and the witness of one entry.
    table = (
        ("tls", [(v.order, v) for v in tls_results if not v.satisfied],
         lambda v: f"order {v.order}: {v.witness}"),
        ("return-words", [(r.n, r) for r in crw if r.violations],
         lambda r: f"class [{r.representative}] has non-palindromic return word {r.violations[0]!r}"),
        *rows,
    )
    verdicts, agreement_ok, candidate, contradiction, overall = _decide(
        {name: _highest(entries) for name, entries, _ in table},
        threshold, n_max, base["involutively_generated"])
    witnesses = {name: witness(next(record for at, record in entries if at >= threshold))
                 for name, entries, witness in table if not verdicts[name]}
    return RichnessReport(
        **base,
        closed=True,
        missing_closure_witness=None,
        min_distinguishing_n=next((r.n for r in identity if r.distinguishing), None),
        tls=tls_results,
        crw=crw,
        identity=identity,
        bispecials=bisp,
        profile=profile,
        verdicts=verdicts,
        witnesses=witnesses,
        agreement_ok=agreement_ok,
        bound_ok=all(r.holds for r in identity if r.distinguishing),
        candidate_threshold=candidate,
        contradiction=contradiction,
        overall=overall,
    )


def _other_checks(group: SymmetryGroup, index: LanguageIndex, threshold: int, n_max: int):
    """The complexity identity, the bispecial records and the defect profile
    (checked against the dual head) of ``group`` on ``index`` at orders up to
    n_max, and the rows of :func:`verify_text`'s table for lps, defect,
    complexity and bispecials."""
    identity = tuple(complexity_identity(group, index, range(0, n_max + 1)))
    bisp = tuple(bispecial_check(group, index, range(1, n_max + 1)))
    shared = index._palindromes
    profile = shared.profile(group)
    shared.check_head(group, profile)
    checked = {r.n for r in identity if r.distinguishing and r.n >= threshold}
    # The bilateral-order conditions characterize richness only together with
    # the complexity equality anchored at one distinguishing order.
    anchor = next((r for r in identity if r.n in checked), None)
    bisp_fails = [(r.n, r) for r in bisp if r.n in checked and not r.ok]
    if not bisp_fails and anchor is not None and not anchor.equal:
        bisp_fails = [(anchor.n, anchor)]
    defect_ok = profile.final == 0 if threshold == 1 else profile.stabilized
    return identity, bisp, profile, (
        ("lps", [(p, p) for p in profile.lacunas], "first lacuna at position {}".format),
        ("defect", [] if defect_ok else [(threshold, profile)], lambda p: f"defect reaches {p.final}"),
        ("complexity", [(r.n, r) for r in identity if r.n in checked and not r.equal],
         lambda r: f"order {r.n}: {r.lhs} != {r.rhs}"),
        ("bispecial", bisp_fails, _bispecial_witness),
    )


def _highest(entries) -> int | None:
    """The highest order, or prefix length, of a row's failing entries."""
    return max((at for at, _ in entries), default=None)


def _decide(highest: dict[str, int | None], threshold: int, n_max: int,
            involutively_generated: bool) -> tuple[dict[str, bool], bool, int | None, str | None, str]:
    """The verdicts, agreement, candidate threshold, contradiction and overall
    decision of a report from the highest failing entry of each
    characterization (None when it has none; the defect's one entry is the
    threshold): a verdict fails when that entry is at or above the
    threshold, and the candidate threshold is one above the highest entry of
    all but the defect, whose entry stands for its own rule."""
    verdicts = {name: at is None or at < threshold for name, at in highest.items()}
    agreement_ok = len(set(verdicts.values())) == 1
    fails = [at for name, at in highest.items() if name != "defect" and at is not None]
    candidate: int | None = max(fails, default=threshold - 1) + 1
    if candidate > n_max:
        candidate = None

    contradiction = None
    all_pass = all(verdicts.values())
    if all_pass and not involutively_generated:
        contradiction = (
            "all characterizations pass but the group is not generated by its involutive "
            "antimorphisms, which richness would force"
        )

    if not agreement_ok or contradiction:
        overall = INCONSISTENT
    elif all_pass:
        overall = RICH
    elif candidate is not None:
        overall = ALMOST
    else:
        overall = REFUTED
    return verdicts, agreement_ok, candidate, contradiction, overall


def _bispecial_witness(record: BispecialRecord | ComplexityIdentityRecord) -> str:
    if isinstance(record, ComplexityIdentityRecord):
        return f"anchor equality at order {record.n} fails: {record.lhs} != {record.rhs}"
    return (f"{record.factor!r}: b={record.bilateral}, fixers={list(record.fixer_names)},"
            f" pext sizes={list(record.pext_sizes)}")


def _check_inputs(group: SymmetryGroup, text: str, threshold: int, n_max: int) -> None:
    """The checks of :func:`verify_text` that need no index, so that
    :func:`verify` runs them before it builds one.  The orders checked,
    threshold..n_max, must not be empty."""
    group.alphabet.check_word(text)
    if not group.has_antimorphism:
        raise GroupError("richness analysis requires a group containing an antimorphism")
    if threshold < 1:
        raise GroupError(f"threshold must be >= 1, got {threshold}")
    if threshold > n_max:
        raise GroupError(f"threshold {threshold} exceeds n_max={n_max}, so no order is checked")


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
    _check_inputs(group, text, threshold, n_max)
    return verify_text(
        group, LanguageIndex(text, n_max + 2, group), threshold=threshold, stability=stability,
        word_id=word_id or repr(source), group_id=group_id,
    )


def _stable_prefix(source: WordSource, length: int, n_max: int) -> tuple[str, bool | None]:
    """The prefix :func:`verify` analyses, and its stability under doubling.

    Each stability step generates prefix(2L) once and reads prefix(L) as its
    head, since a source's prefixes agree; a doubling step reuses the long
    prefix as its short one and logs it at INFO on the ``symrich`` logger.  The
    stability is None when a bounded source cannot produce the doubled prefix.
    """
    if length < n_max + 2:
        raise InsufficientPrefixError(f"length {length} cannot support n_max={n_max}")
    source._check_length(length)  # so that a refusal names L, not 2L
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
        _log.info("prefix doubled from %d to %d letters: its factors up to length %d changed",
                  length, 2 * length, n_max + 2)
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


def subgroup_scan(index: LanguageIndex) -> list[SubgroupResult]:
    """Verify every subgroup of ``index.group`` containing an antimorphism on
    ``index`` and, for proper rich subgroups, check the half-order
    palindromic-complexity identity.

    The index must be built with the full group, at order n_max + 2 for the
    orders 1..n_max, as for :func:`verify_text`, so at order 3 or more; a
    lower order raises :class:`IndexRangeError`.  The index must pass
    :meth:`LanguageIndex.check_closed`, so no subgroup's report depends on the
    stability of the text under doubling.

    A result keeps only the overall verdict.  The index group G gets its
    full :func:`verify_text` report, first, so every check runs at every
    order once: closure, the edge walks, the dual head, the identity chain.
    A proper subgroup H gets only its decision: the tree-like structure and
    the return words are read from order n_max down to their highest
    failing order (:func:`_highest_failures`), the other characterizations
    in full.  A check skipped for H is implied by the one run for G, as an
    H-orbit is a subset of a G-orbit and the edge walks ignore the group.
    """
    group, n_max = index.group, index.n_max - 2
    if group is None:
        raise GroupError("subgroup scan needs an index built with a group")
    if index.n_max < 3:
        raise IndexRangeError(f"index of order {index.n_max} cannot support a subgroup scan; "
                              f"it needs order >= 3")
    group.alphabet.check_word(index.text)
    index.check_closed(group)
    p = {t: index.palindromic_complexity(t) for t in group.involutive_antimorphisms}

    subs = [(sub, "{" + ",".join(e.name for e in sub.elements) + "}")
            for sub in group.subgroups() if sub.has_antimorphism]
    full = n0 = None  # of the index group: last in the list, of the largest order, reported first
    if subs:
        report = verify_text(subs[-1][0], index, word_id="scan", group_id=subs[-1][1])
        full, n0 = report.overall, report.min_distinguishing_n
    results = []
    for sub, sub_id in subs:
        proper = len(sub) < group.order
        if proper:
            *_, overall = _decide(_highest_failures(sub, index), 1, n_max,
                                  sub.is_involutively_generated())
        else:
            overall = full
        identity_ok: bool | None = None
        values: tuple[tuple[int, int], ...] = ()
        if proper and overall == RICH and n0 is not None:
            complement = [t for t in group.involutive_antimorphisms
                          if t not in sub.involutive_antimorphisms]
            values = tuple((n, sum(p[t][n] + p[t][n + 1] for t in complement))
                           for n in range(n0, n_max))
            identity_ok = 2 * sub.order == group.order and all(
                s == group.order // 2 for _, s in values)
        results.append(SubgroupResult(sub_id, sub.order, proper, overall, identity_ok, values))
    return results


def _highest_failures(group: SymmetryGroup, index: LanguageIndex) -> dict[str, int | None]:
    """What :func:`_decide` reads of ``verify_text(group, index)`` at
    threshold 1, with no report: the highest failing entry of each
    characterization.  The tree-like structure and the return words
    (:func:`_crw_orders`) are read from order n_max down to their first
    failing order, the highest; the other characterizations run in full."""
    n_max = index.n_max - 2
    highest = {
        "tls": next((n for n in range(n_max, 0, -1) if not tls_verdict(group, index, n).satisfied),
                    None),
        "return-words": next((n for n, found in _crw_orders(group, index, index.text, 1, n_max)
                              if found), None),
    }
    *_, rows = _other_checks(group, index, 1, n_max)
    highest.update((name, _highest(entries)) for name, entries, _ in rows)
    return highest


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
