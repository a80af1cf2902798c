"""Reproduction reports of the two bundled case studies.

Each report verifies one case-study word against its order-8 group and
replays the structural facts behind the verdict: complexity differences,
palindromic letters and classes, bispecial recursions, and (for the
6-letter image word) palindrome transport from the 8-letter word and the
subgroup scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .index import LanguageIndex
from .presets import (
    HEXA_ETA,
    HEXA_MU,
    OCTA_PI,
    OCTA_RULES,
    _HexaSource,
    hexa_group,
    hexa_psi,
    hexa_text,
    octa_group,
    octa_source,
    octa_theta,
)
from .verify import (
    RICH,
    RichnessReport,
    SubgroupResult,
    _stable_prefix,
    subgroup_scan,
    verify_text,
)
from .words import apply_morphism


@dataclass(frozen=True)
class CheckLine:
    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        return f"  [{'ok' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class CaseStudyReport:
    title: str
    richness: RichnessReport
    subgroup_results: tuple[SubgroupResult, ...]
    checks: tuple[CheckLine, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return (
            self.richness.overall == RICH
            and all(c.ok for c in self.checks)
            and all(r.identity_ok is not False for r in self.subgroup_results)
        )

    def to_text(self) -> str:
        lines = [f"case study: {self.title}", f"overall ok: {self.ok}"]
        lines += [c.render() for c in self.checks]
        for r in self.subgroup_results:
            lines.append("  " + r.render())
        lines.append(self.richness.to_text())
        return "\n".join(lines) + "\n"


def repro_octa(length: int = 2000, n_max: int = 30) -> CaseStudyReport:
    """The 8-letter fixed point against its order-8 symmetry group.

    Beyond the richness verification this replays the structural facts that
    drive it: the bilateral orders of bispecials, the last-letter recursion
    that maps a bispecial w to phi(w)pi(last) with equal bilateral order, and
    the first-letter commutation identity between the generators and phi.
    """
    source = octa_source()
    group = octa_group()
    # the prefix may have been doubled; the checks read the text the report analyses
    text, stability = _stable_prefix(source, length, n_max)
    index = LanguageIndex(text, n_max + 2, group)
    report = verify_text(group, index, stability=stability, word_id="octa", group_id="octa-group")
    checks: list[CheckLine] = []

    c = index.complexities()
    checks.append(CheckLine("first complexity difference at 1", c[2] - c[1] == 4,
                            f"dC(1) = {c[2] - c[1]}"))
    expected_l2 = {"54", "62", "47", "12", "04", "76", "65", "40", "01", "23", "30", "26"}
    checks.append(CheckLine("length-2 factor set", set(index.factors(2)) == expected_l2,
                            f"{len(index.factors(2))} factors"))
    pal1 = [w for w in index.sorted_factors(1) if group.is_g_palindrome(w)]
    pal2 = [w for w in index.sorted_factors(2) if group.is_g_palindrome(w)]
    checks.append(CheckLine("palindromic letters", len(pal1) == 8, f"{len(pal1)} of 8"))
    checks.append(CheckLine("palindromic length-2 classes", len(pal2) == 4, f"{pal2}"))

    records = report.bispecials  # orders 1..n_max, as the verification recorded them
    bs_ok = all(
        r.bilateral == 0 and len(index.lext(r.factor)) == 2 and len(index.rext(r.factor)) == 2
        for r in records
    )
    checks.append(CheckLine("bispecial bilateral orders", bs_ok,
                            f"{len(records)} bispecials, all b=0 with 2+2 extensions"))
    pal_ext_ok = all(r.pext_sizes == (1,) for r in records)
    checks.append(CheckLine("bispecials are palindromic with one palindromic extension",
                            pal_ext_ok, f"checked {len(records)}"))

    recursion_bad = []
    for r in records:
        w, last = r.factor, r.factor[-1]
        if last not in OCTA_PI:
            recursion_bad.append((w, "last letter not in 0/2/4/6"))
            continue
        image = apply_morphism(OCTA_RULES, w) + OCTA_PI[last]
        if len(image) > n_max:
            continue
        if not (index.is_factor(image) and index.is_bispecial(image)
                and index.bilateral_order(image) == r.bilateral):
            recursion_bad.append((w, image))
    checks.append(CheckLine("bispecial image recursion", not recursion_bad,
                            f"violations: {recursion_bad[:3]}" if recursion_bad else "holds"))

    commutation_bad = _octa_commutation_violations(index, n_max)
    checks.append(CheckLine("generator commutation identity", not commutation_bad,
                            f"violations: {commutation_bad[:3]}" if commutation_bad else
                            "holds for every indexed factor and i in Z3"))

    return CaseStudyReport("octa word / order-8 group", report, (), tuple(checks))


def _octa_commutation_violations(index: LanguageIndex, n_max: int) -> list[tuple[str, int]]:
    thetas = [octa_theta(i) for i in range(3)]
    phi = OCTA_RULES
    bad = []
    for n in range(1, n_max + 1):
        for w in index.sorted_factors(n):
            phi_w = apply_morphism(phi, w)
            for i in range(3):
                theta_i, theta_prev = thetas[i], thetas[(i - 1) % 3]
                x = apply_morphism(phi, theta_prev.image_of(w[-1]))[0]
                y = theta_i.image_of(apply_morphism(phi, w[0])[0])
                if x + theta_i.apply(phi_w) != apply_morphism(phi, theta_prev.apply(w)) + y:
                    bad.append((w, i))
    return bad


def repro_hexa(length: int = 2000, n_max: int = 30) -> CaseStudyReport:
    """The 6-letter image word against its order-8 group and its subgroups."""
    group = hexa_group()
    # the prefix may have been doubled, as in repro_octa
    text, stability = _stable_prefix(_HexaSource(), length, n_max)
    index = LanguageIndex(text, n_max + 2, group)
    report = verify_text(group, index, stability=stability, word_id="hexa", group_id="hexa-group")
    checks: list[CheckLine] = []

    c = index.complexities()
    checks.append(CheckLine("first complexity differences", (c[2] - c[1], c[3] - c[2]) == (2, 4),
                            f"dC(1) = {c[2] - c[1]}, dC(2) = {c[3] - c[2]}"))
    p = {i: index.palindromic_complexity(hexa_psi(i)) for i in range(3)}
    total = {n: sum(index.palindromic_complexity(t)[n] for t in group.involutive_antimorphisms)
             for n in (2, 3)}
    checks.append(CheckLine("palindromic complexity sums", (total[2], total[3]) == (0, 12),
                            f"sum P(2) = {total[2]}, sum P(3) = {total[3]}"))
    checks.append(CheckLine("length-3 palindromes per generator",
                            (p[0][3], p[1][3], p[2][3]) == (4, 4, 4),
                            f"P0(3)={p[0][3]} P1(3)={p[1][3]} P2(3)={p[2][3]}"))
    checks.append(CheckLine(
        "palindromic letters per generator",
        (p[0][1], p[2][1], p[1][1]) == (2, 2, 4),
        f"P0(1)={p[0][1]} P2(1)={p[2][1]} P1(1)={p[1][1]}",
    ))

    # one octa index for both checks (bispecials up to u read level u + 2,
    # transported palindromes up to t read level t), on a prefix stable up to
    # that order, so closure adds no factor it lacks.  On 3,000 octa letters the
    # image of a palindrome w first occurring at p ends by hexa position
    # 2(p + |w|) + 3, so the images are searched in the image of the prefix.
    u = (n_max - 3) // 2
    t = max(u, 4)
    order = max(t, u + 2)
    octa_text, _ = _stable_prefix(octa_source(), max(len(text), 8 * u, 4 * t, order), order - 2)
    u_index = LanguageIndex(octa_text, order, octa_group())
    transport_bad = _hexa_transport_violations(u_index, t, hexa_text(2 * len(octa_text) + 4))
    checks.append(CheckLine("palindrome transport", not transport_bad,
                            f"violations: {transport_bad[:3]}" if transport_bad else "holds"))

    corr_ok, corr_detail = _hexa_bispecial_correspondence(u_index, u, index, n_max)
    checks.append(CheckLine("bispecial correspondence", corr_ok, corr_detail))

    scan = subgroup_scan(LanguageIndex(text, min(n_max, 20) + 2, group))
    return CaseStudyReport("hexa word / order-8 group", report, tuple(scan), tuple(checks))


def _hexa_transport_violations(u_index: LanguageIndex, u_max: int,
                               v_text: str) -> list[tuple[str, int]]:
    """theta_i-palindromic factors of the octa word up to length u_max map to
    psi_i-palindromic factors of the image word."""
    bad = []
    for i in range(3):
        theta, psi = octa_theta(i), hexa_psi(i)
        for n in range(1, u_max + 1):
            for w in u_index.theta_palindromes(theta, n):
                image = apply_morphism(HEXA_MU, w) + HEXA_ETA[w[-1]]
                if v_text.find(image) == -1 or psi.apply(image) != image:
                    bad.append((w, i))
    return bad


def _hexa_bispecial_correspondence(u_index: LanguageIndex, u_max: int,
                                   v_index: LanguageIndex, n_max: int) -> tuple[bool, str]:
    """Bispecials of the image word of length 5..n_max are exactly the mapped
    bispecials of the octa word up to length u_max, one each."""
    mapped = {}
    for n in range(1, u_max + 1):
        for w in u_index.bispecials(n):
            image = apply_morphism(HEXA_MU, w) + HEXA_ETA[w[-1]]
            if image in mapped:
                return False, f"images collide: {mapped[image]!r} and {w!r}"
            mapped[image] = w
    v_bispecials = {
        w for n in range(5, n_max + 1) for w in v_index.bispecials(n)
    }
    expected = {img for img in mapped if 5 <= len(img) <= n_max}
    if v_bispecials != expected:
        extra = sorted(v_bispecials - expected)[:3]
        missing = sorted(expected - v_bispecials)[:3]
        return False, f"mismatch; unexpected {extra}, missing {missing}"
    return True, f"{len(v_bispecials)} bispecials of length 5..{n_max} all correspond"
