"""Span tracing of symrich's layers from outside the program.

``Tracer.install`` wraps the public functions below and rebinds each one in
its defining module and in every symrich module that imported it by name
(methods are replaced on their class).  While a job is open every wrapped
call records a span ``[name, start, end, parent, job]``; spans stay in
memory and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

JOB = "job"


def _prefix_doublings(args, kwargs, report):
    return {"prefix_doublings": (report.length // args[2]).bit_length() - 1}


def _letters(args, kwargs, result):
    return {"letters": len(result)}


#: (span name, module under symrich, attribute, counter of work done by one call)
TIMED = (
    ("palindromes.defect_profile", "palindromes", "defect_profile",
     lambda a, k, r: {"letters": len(a[1]), "lacunas": len(r.lacunas)}),
    ("palindromes.g_defect", "palindromes", "g_defect", None),
    ("palindromes.g_lps", "palindromes", "g_lps", None),
    ("index.LanguageIndex", "index", "LanguageIndex.__init__",
     lambda a, k, r: {"factors": sum(a[0].complexities())}),
    ("index.complexity", "index", "LanguageIndex.complexity", None),
    ("index.stability_check", "index", "stability_check", None),
    ("graphs.tls_verdict", "graphs", "tls_verdict", None),
    ("graphs.complexity_identity", "graphs", "complexity_identity", None),
    ("graphs.bispecial_check", "graphs", "bispecial_check", lambda a, k, r: {"records": len(r)}),
    ("verify.crw_records", "verify", "crw_records", lambda a, k, r: {"classes": len(r)}),
    ("verify.verify_text", "verify", "verify_text", None),
    ("verify.subgroup_scan", "verify", "subgroup_scan", None),
    ("verify.verify", "verify", "verify", _prefix_doublings),
    ("symmetry.close", "symmetry", "SymmetryGroup.close", None),
    ("symmetry.subgroups", "symmetry", "SymmetryGroup.subgroups", None),
    ("words.prefix", "words", "FixedPointSource.prefix", _letters),
    ("words.prefix", "words", "DigitSumSource.prefix", _letters),
    ("words.prefix", "words", "PeriodicSource.prefix", _letters),
    ("words.prefix", "words", "LiteralSource.prefix", _letters),
    ("cli.main", "cli", "main", None),
)

#: hot methods whose calls are counted but not timed
COUNTED = (
    ("symmetry.equivalence_class", "symmetry", "SymmetryGroup.equivalence_class"),
    ("symmetry.class_representative", "symmetry", "SymmetryGroup.class_representative"),
)

#: a call made directly from the named span is part of that span: the dual
#: defect head runs defect_profile on its 160 letters
ABSORBED = {"palindromes.defect_profile": "palindromes.g_defect"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tallies: dict[tuple, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._tally: Counter = Counter()
        self._undo: list[tuple] = []

    # -- jobs -------------------------------------------------------------------

    def begin_job(self, job: tuple) -> None:
        self._tally = self.tallies[job]
        self._stack.append(len(self.spans))
        self.spans.append([JOB, perf_counter(), 0.0, None, job])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, counter in TIMED:
            self._patch(module, attr, functools.partial(self._timed, name, counter))
        for name, module, attr in COUNTED:
            self._patch(module, attr, functools.partial(self._counted, f"{name}.calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _patch(self, module: str, attr: str, wrap) -> None:
        mod = sys.modules.get(f"symrich.{module}")
        if mod is None:  # e.g. the CLI, which only one workload imports
            return
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            cls = getattr(mod, cls_name)
            raw = vars(cls)[fn_name]
            new = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
            self._undo.append((cls, fn_name, raw))
            setattr(cls, fn_name, new)
            return
        original = getattr(mod, fn_name)
        wrapper = wrap(original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").partition(".")[0] != "symrich":
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, key, original))
                    setattr(other, key, wrapper)

    def _timed(self, name: str, counter, fn):
        absorbed_by = ABSORBED.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or spans[stack[-1]][0] == absorbed_by:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], spans[stack[-1]][4]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                self._tally.update({f"{name}.{k}": v for k, v in counter(args, kwargs, result).items()})
            return result

        return wrapper

    def _counted(self, key: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                self._tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------------

    def pass_totals(self) -> list[Counter]:
        """Per traced pass: self time and calls per span name, plus the counters.

        Jobs are ``(pass, job)`` tuples; the job span's self time is the part
        of a job that no layer span covers.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[int, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            acc = totals[job[0]]
            acc[f"{name}.self_s"] += end - start - child[i]
            acc[f"{name}.calls"] += 1
        for job, tally in self.tallies.items():
            totals[job[0]].update(tally)
        return [totals[p] for p in sorted(totals)]

    def dump(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
