"""The four benchmark workloads, each a fixed job list run through symrich's public API.

A workload is set up once per process (``setup`` imports symrich and builds
the inputs), then ``run`` executes one job inside the timed region and
``check`` compares that job's output with reference values outside it.
Every call into symrich resolves its function through the module attribute
at call time, so the tracer's rebinding (see ``tracer.py``) takes effect.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

REFERENCE_PATH = Path(__file__).with_name("reference.json")

MODULES = ("palindromes", "index", "graphs", "verify", "symmetry", "words", "presets")


def import_symrich(*extra: str) -> SimpleNamespace:
    """Import the symrich modules by name; ``symrich.verify`` is the module, not the function."""
    importlib.import_module("symrich")
    names = MODULES + extra
    return SimpleNamespace(**{n: importlib.import_module(f"symrich.{n}") for n in names})


@functools.cache
def reference() -> dict:
    """Outputs recorded when the benchmark was introduced, keyed by workload and job."""
    return json.loads(REFERENCE_PATH.read_text())


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def digest(self, job, output):
        """The part of an output compared with the reference."""
        raise NotImplementedError

    def check(self, job, output) -> bool:
        return self.digest(job, output) == reference()[self.name][job]


class VerifyRef(Workload):
    """The four acceptance-suite runs of ``symrich.verify``."""

    name = "verify-ref"
    why = ("four long-text verify runs whose time is mostly defect_profile, where an "
           "lps/defect engine must show")

    def setup(self, seed: int) -> None:
        sr = self.sr = import_symrich()
        p = sr.presets
        reversal = p.reversal_group(p.BINARY)
        # name -> (group, source, n_max, word id, group id), as in the acceptance suite
        self.cases = {
            "tm/order-4": (p.binary_full_group(), p.thue_morse_source(), 30, "tm", "order4-full"),
            "tm/reversal": (reversal, p.thue_morse_source(), 30, "tm", "reversal"),
            "fib/reversal": (reversal, p.fibonacci_source(), 50, "fib", "reversal"),
            "t33/dihedral-3": (sr.symmetry.dihedral_group(3), p.generalized_thue_morse(3, 3),
                               30, "t33", "dihedral3"),
        }
        self.jobs = list(self.cases)

    def run(self, job):
        group, source, n_max, word_id, group_id = self.cases[job]
        return self.sr.verify.verify(group, source, 2000, n_max, word_id=word_id, group_id=group_id)

    def digest(self, job, report):
        return {
            "overall": report.overall,
            "verdicts": report.verdicts,
            "lacunas": list(report.profile.lacunas),
            "first_tls_failure": next((v.order for v in report.tls if not v.satisfied), None),
        }


class SubgroupScan(Workload):
    """``symrich repro subgroups`` at length 1000, through the CLI entry point."""

    name = "subgroup-scan"
    why = ("one text re-verified under 11 subgroups through the CLI, where per-text context "
           "sharing shows and a defect gain is multiplied")
    ARGV = ["--length", "1000", "repro", "subgroups"]

    def setup(self, seed: int) -> None:
        self.sr = import_symrich("cli")
        self.jobs = ["repro-subgroups"]

    def run(self, job):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.sr.cli.main(list(self.ARGV))
        return code, out.getvalue().encode()

    def digest(self, job, output):
        code, data = output
        return {"exit": code, "sha256": sha256(data)}


class DeepIndex(Workload):
    """One long Thue-Morse prefix indexed to order 62 and analysed without defect work."""

    name = "deep-index"
    why = ("a 32000-letter prefix at orders up to 62 with no defect work, where index, graphs "
           "and return words do everything and a defect change predicts no change")
    LENGTH, N_MAX, ORDERS = 32000, 62, 60

    def setup(self, seed: int) -> None:
        sr = self.sr = import_symrich()
        self.group = sr.presets.binary_full_group()
        self.text = sr.presets.thue_morse_source().prefix(self.LENGTH)
        self.jobs = ["tm-32000"]

    def run(self, job):
        sr, group, text, top = self.sr, self.group, self.text, self.ORDERS
        index = sr.index.LanguageIndex(text, self.N_MAX, group)
        csv = index.complexity().to_csv()
        tls = [sr.graphs.tls_verdict(group, index, n) for n in range(1, top + 1)]
        sr.graphs.complexity_identity(group, index, range(0, top + 1))
        sr.graphs.bispecial_check(group, index, range(1, top + 1))
        sr.verify.crw_records(group, index, text, 1, top)
        return csv, tls

    def digest(self, job, output):
        csv, tls = output
        return {"csv_sha256": sha256(csv), "tls": [v.satisfied for v in tls]}


class SmallBatch(Workload):
    """A seeded batch of short random words against small random groups."""

    name = "small-batch"
    why = ("many short words against small groups, the layers of verify-ref with the opposite "
           "size profile, where per-call set-up cost shows")
    # 31 pool groups x lengths 0..48: every (group, length) pair once
    CASES, MAX_LENGTH, INDEX_ORDER = 1519, 48, 6

    def __init__(self) -> None:
        self._oracle: dict[int, int] = {}

    def setup(self, seed: int) -> None:
        self.sr = import_symrich()
        self.cases = generate_cases(self.sr, seed, self.CASES, self.MAX_LENGTH)
        self.jobs = range(len(self.cases))
        self._oracle.clear()

    def run(self, job):
        group, words = self.cases[job][0], self.cases[job][1:]
        pal = self.sr.palindromes
        profiles = [pal.defect_profile(group, w) for w in words]
        w = words[0]
        index = self.sr.index.LanguageIndex(w, min(self.INDEX_ORDER, len(w)), group)
        return profiles, pal.g_lps(group, w), [index.factors(n) for n in range(index.n_max + 1)]

    def check(self, job, output) -> bool:
        profiles, lps, factors = output
        group, words = self.cases[job][0], self.cases[job][1:]
        if job not in self._oracle:
            self._oracle[job] = _oracle_digest(self.sr, group, words)
        final, grown, grown_left, image = (p.final for p in profiles)
        return (
            all(p.final == len(p.lacunas) for p in profiles)
            and grown - final in (0, 1)
            and grown_left - final in (0, 1)
            and image == final
            and _case_digest([(p.defect, p.lacunas) for p in profiles], lps, factors)
            == self._oracle[job]
        )


def _case_digest(profiles, lps: str, factors) -> int:
    """A hash that is only compared within one process, where string hashes are stable."""
    return hash((tuple(profiles), lps, tuple(frozenset(f) for f in factors)))


def _oracle_digest(sr: SimpleNamespace, group, words) -> str:
    """Digest of the reference outputs of one case, by the brute-force routines."""
    w = words[0]
    # g_defect raises when its quadratic formula side disagrees with the lacuna count
    profiles = [sr.palindromes.g_defect(group, x) for x in words]
    lps = next((w[i:] for i in range(len(w)) if group.is_g_palindrome(w[i:])), "")
    factors = []
    for n in range(min(SmallBatch.INDEX_ORDER, len(w)) + 1):
        base = {w[i:i + n] for i in range(len(w) - n + 1)}
        factors.append({u for b in base for u in group.equivalence_class(b)} | base)
    return _case_digest([(p.defect, p.lacunas) for p in profiles], lps, factors)


def group_pool(sr: SimpleNamespace, rng: random.Random) -> list:
    """Dihedral subgroups with an antimorphism plus random involution-generated groups.

    Mirrors the pool of the acceptance fuzz test.
    """
    sym, words = sr.symmetry, sr.words
    pool = []
    for m in (1, 2, 3, 4):
        full = sym.dihedral_group(m)
        pool.append(full)
        pool += [s for s in full.subgroups() if s.has_antimorphism and s.order <= 8]
    for _ in range(12):
        k = rng.randint(2, 5)
        alphabet = words.Alphabet.from_size(k)
        generators = []
        for _ in range(rng.randint(1, 2)):
            glyphs = list(alphabet.glyphs)
            rng.shuffle(glyphs)
            images = {g: g for g in alphabet.glyphs}
            for i in range(rng.randint(0, k // 2)):
                a, b = glyphs[2 * i], glyphs[2 * i + 1]
                images[a], images[b] = b, a
            generators.append(sym.SymmetryMap.from_mapping(alphabet, images, True))
        group = sym.SymmetryGroup.close(generators)
        if group.order <= 8:
            pool.append(group)
    return pool


def generate_cases(sr: SimpleNamespace, seed: int, count: int, max_length: int) -> list[tuple]:
    """Cases (group, w, w+a, a+w, mu(w)) for random letters w and a and group element mu.

    The group pool and the (group, length) pairs are the same for every seed:
    case k takes the k-th of all pool x 0..max_length pairs in a fixed
    shuffled order, so that seeds differ only in the letters and elements
    drawn and the work per pass varies little between them.
    """
    fixed = random.Random(POOL_SEED)
    pool = group_pool(sr, fixed)
    pairs = [(group, n) for group in pool for n in range(max_length + 1)]
    fixed.shuffle(pairs)
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        group, n = pairs[k % len(pairs)]
        glyphs = group.alphabet.glyphs
        w = "".join(rng.choice(glyphs) for _ in range(n))
        a = rng.choice(glyphs)
        mu = rng.choice(group.elements)
        cases.append((group, w, w + a, a + w, mu.apply(w)))
    return cases


POOL_SEED = 0

WORKLOADS = {cls.name: cls for cls in (VerifyRef, SubgroupScan, DeepIndex, SmallBatch)}
