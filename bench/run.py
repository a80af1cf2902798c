"""Benchmark of symrich: four workloads, end-to-end metrics, and a traced per-layer run.

Run from anywhere; the program is imported from ``src/`` next to this directory:

    python3 bench/run.py --workload verify-ref --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                  # each workload in a fresh interpreter
    PYTHONPATH=src python3 -m pytest bench               # the benchmark's own tests

Each run is one process, single-threaded.  It sets the workload up several
times (importing symrich afresh each time) and reports the median as
``setup_s``, then runs whole passes of the workload's job list until
``--seconds`` of wall time are spent in passes, checking every output
against reference values outside the timed region.  Set-up and job times are
wall times rescaled for the host's speed drift by ``speed.SpeedProbe``; the
plain wall time is printed alongside.  With ``--trace 1`` it alternates
untraced and traced passes, all in plain wall time, reports per-layer self
times and counts (medians over traced passes), fits scaling exponents for
``defect_profile`` and ``LanguageIndex``, and writes the spans to
``bench/out/``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import SAMPLE_REF_S, SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 15

END_TO_END = {"setup_s": "s", "pass_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "palindromes.defect_profile.self_s": "s",
    "palindromes.defect_profile.calls": "count",
    "palindromes.defect_profile.letters": "count",
    "palindromes.defect_profile.lacunas": "count",
    "palindromes.defect_profile.share": "%",
    "palindromes.defect_profile.exponent": "1",
    "palindromes.g_defect.self_s": "s",
    "palindromes.g_lps.self_s": "s",
    "index.LanguageIndex.self_s": "s",
    "index.LanguageIndex.calls": "count",
    "index.LanguageIndex.factors": "count",
    "index.LanguageIndex.exponent": "1",
    "index.complexity.self_s": "s",
    "index.stability_check.self_s": "s",
    "index.stability_check.calls": "count",
    "graphs.tls_verdict.self_s": "s",
    "graphs.tls_verdict.calls": "count",
    "graphs.complexity_identity.self_s": "s",
    "graphs.bispecial_check.self_s": "s",
    "graphs.bispecial_check.records": "count",
    "verify.crw_records.self_s": "s",
    "verify.crw_records.classes": "count",
    "verify.verify_text.self_s": "s",
    "verify.verify_text.calls": "count",
    "verify.subgroup_scan.self_s": "s",
    "verify.verify.self_s": "s",
    "verify.verify.prefix_doublings": "count",
    "symmetry.close.self_s": "s",
    "symmetry.subgroups.self_s": "s",
    "symmetry.equivalence_class.calls": "count",
    "symmetry.class_representative.calls": "count",
    "words.prefix.self_s": "s",
    "words.prefix.letters": "count",
    "cli.main.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: prefix lengths and repetitions (the fastest counts) of the scaling series, on the
#: Thue-Morse word with the order-4 group; the index needs longer prefixes than the
#: defect profile before its per-length work dominates
SCALING = {"palindromes.defect_profile": ((1000, 2000, 4000), 1),
           "index.LanguageIndex": ((8000, 16000, 32000), 3)}
SCALING_ORDER = 62


def load_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "symrich" / "__init__.py").is_file():
        sys.exit(f"bench: no symrich sources under {src}")
    sys.path.insert(0, str(src))


@dataclass
class Measured:
    pass_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)
    wall_pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure_setup(workload, seed: int, probe: SpeedProbe) -> float:
    """Median of several set-ups, each importing symrich afresh."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.partition(".")[0] == "symrich"]:
            del sys.modules[name]
        mark, start = probe.mark(), perf_counter()
        workload.setup(seed)
        times.append(probe.rescale(mark, perf_counter() - start))
    return median(times)


def measure(workload, budget: float, probe: SpeedProbe | None = None) -> Measured:
    """Run whole passes until ``budget`` seconds of wall time are spent in passes."""
    m = Measured()
    while not m.pass_s or sum(m.wall_pass_s) < budget:
        run_pass(workload, m, probe)
    return m


def run_pass(workload, m: Measured, probe: SpeedProbe | None = None,
             tracer: Tracer | None = None) -> None:
    """Run the job list once and add its times and failures to ``m``.

    A pass's time is the sum of its job times, rescaled by ``probe`` when one
    is given.  Each output is checked right after its job, outside the timed
    region, so that only one output is alive.
    """
    gc.collect()
    pass_time = wall_time = 0.0
    for j, job in enumerate(workload.jobs):
        if tracer:
            tracer.begin_job((len(m.pass_s), j))
        mark = probe.mark() if probe else None
        start = perf_counter()
        try:
            out = workload.run(job)
        except Exception:
            out = _FAILED
            _report_failure(m, job)
        elapsed = perf_counter() - start
        if tracer:
            tracer.end_job()
        wall_time += elapsed
        if probe:
            elapsed = probe.rescale(mark, elapsed)
        m.job_s.append(elapsed)
        pass_time += elapsed
        m.attempted += 1
        m.failed += not _passes(workload, job, out, m)
    m.pass_s.append(pass_time)
    m.wall_pass_s.append(wall_time)


_FAILED = object()


def _passes(workload, job, out, m: Measured) -> bool:
    if out is _FAILED:
        return False
    try:
        ok = workload.check(job, out)
    except Exception:
        _report_failure(m, job)
        return False
    if not ok and not m.failed:
        print(f"bench: job {job!r} produced a wrong output", file=sys.stderr)
    return ok


def _report_failure(m: Measured, job) -> None:
    """Print the traceback of the first failing job only."""
    if not m.failed:
        print(f"bench: job {job!r} raised", file=sys.stderr)
        traceback.print_exc()


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        beyond = math.floor(len(ordered) * (100 - p) / 100)
        if beyond >= 10:
            return p, ordered[len(ordered) - beyond - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def loglog_slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def scaling_exponents(sr) -> dict[str, float]:
    """Fitted log-log exponents of defect_profile and LanguageIndex over prefix length."""
    group = sr.presets.binary_full_group()
    text = sr.presets.thue_morse_source().prefix(max(max(s[0]) for s in SCALING.values()))
    calls = {
        "palindromes.defect_profile": lambda t: sr.palindromes.defect_profile(group, t),
        "index.LanguageIndex": lambda t: sr.index.LanguageIndex(t, SCALING_ORDER, group),
    }
    out = {}
    for name, (lengths, reps) in SCALING.items():
        times = []
        for length in lengths:
            runs = []
            for _ in range(reps):
                start = perf_counter()
                calls[name](text[:length])
                runs.append(perf_counter() - start)
            times.append(min(runs))
        print(f"scaling {name}: " + ", ".join(f"L={n} {t:.4f} s" for n, t in zip(lengths, times)))
        out[f"{name}.exponent"] = loglog_slope(lengths, times)
    return out


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int) -> dict:
    return {
        "git_sha": git_sha(), "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "workload": workload.name, "seed": seed, "why": workload.why,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    load_program()
    workload = WORKLOADS[name]()
    info = provenance(workload, seed)
    print("provenance " + json.dumps(info))
    if not trace:
        with SpeedProbe() as probe:
            setup_s = measure_setup(workload, seed, probe)
            m = measure(workload, seconds, probe)
        metrics = {
            "setup_s": setup_s,
            "pass_s": median(m.pass_s),
            "job_p50_s": median(m.job_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        print(f"passes {len(m.pass_s)}, job samples {len(m.job_s)}, set-ups {SETUP_REPS}; "
              f"wall pass median {median(m.wall_pass_s):.4f} s, calibration sample median "
              f"{probe.median_sample() * 1e3:.4f} ms (times rescaled to {SAMPLE_REF_S * 1e3:g} ms)")
        tail = tail_percentile(m.job_s)
        if tail:
            print(f"job_p{tail[0]:g}_s {tail[1]:.6f} s (n={len(m.job_s)})")
    else:
        # Wall times throughout: the probe's interruptions would land inside layer
        # spans.  Untraced and traced passes alternate, so drift hits both alike.
        workload.setup(seed)
        plain, traced, tracer = Measured(), Measured(), Tracer()
        while not traced.pass_s or sum(plain.wall_pass_s + traced.wall_pass_s) < seconds:
            run_pass(workload, plain)
            tracer.install()
            try:
                run_pass(workload, traced, tracer=tracer)
            finally:
                tracer.uninstall()
        totals = tracer.pass_totals()
        layers = {key: median(t[key] for t in totals) for key in set().union(*totals)}
        metrics = {key: layers.get(key, 0) for key in PER_LAYER}
        metrics["trace.pass_s"] = median(traced.pass_s)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - median(plain.pass_s)
        metrics["trace.unattributed_s"] = layers["job.self_s"]
        metrics["palindromes.defect_profile.share"] = (
            100 * metrics["palindromes.defect_profile.self_s"] / metrics["trace.pass_s"])
        metrics.update(scaling_exponents(workload.sr))
        units = PER_LAYER
        m = Measured(attempted=plain.attempted + traced.attempted,
                     failed=plain.failed + traced.failed)
        uncovered = sum(t["job.self_s"] for t in totals) / sum(traced.job_s)
        print(f"passes {len(plain.pass_s)} untraced, {len(traced.pass_s)} traced; "
              f"{len(tracer.spans)} spans; layer self times cover {100 * (1 - uncovered):.2f}% "
              "of traced job time")
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.dump(trace_file, {"provenance": info, "metrics": metrics})
        print(f"spans written to {trace_file}")

    print(f"failed_ratio {m.failed / m.attempted:.6f} ({m.failed} of {m.attempted} jobs)")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own interpreter, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.workload == "all":
        load_program()
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
