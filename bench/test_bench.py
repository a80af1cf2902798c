"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run with ``PYTHONPATH=src python3 -m pytest bench``.  Nothing here asserts a timing.
"""

import dataclasses
import json

import pytest

import run
import speed
import workloads
from workloads import SmallBatch, SubgroupScan, WORKLOADS

run.load_program()


@pytest.fixture
def small_batch(monkeypatch):
    monkeypatch.setattr(SmallBatch, "CASES", 12)
    workload = SmallBatch()
    workload.setup(seed=3)
    return workload


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_exactly_the_declared_metrics(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(SmallBatch, "CASES", 8)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SCALING", {"palindromes.defect_profile": ((40, 80, 160), 1),
                                         "index.LanguageIndex": ((200, 400, 800), 1)})
    result = run.run_workload("small-batch", seed=5, seconds=0, trace=trace)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["palindromes.defect_profile.calls"] == 4 * 8
        assert metrics["index.LanguageIndex.calls"] == 8
        assert metrics["verify.verify_text.calls"] == 0
        assert list(tmp_path.glob("trace-small-batch-seed5.json"))


def test_small_batch_generator_is_deterministic_per_seed():
    sr = workloads.import_symrich()

    def cases(seed):
        return [(tuple(e.name for e in c[0].elements),) + c[1:]
                for c in workloads.generate_cases(sr, seed, 40, 48)]

    assert cases(11) == cases(11)
    assert cases(11) != cases(12)
    assert all(len(c[1]) <= 48 for c in cases(11))


def test_corrupted_output_raises_failed_ratio(small_batch, monkeypatch):
    clean = run.measure(small_batch, budget=0)
    assert (clean.attempted, clean.failed) == (12, 0)

    honest_run = small_batch.run

    def corrupted(job):
        profiles, lps, factors = honest_run(job)
        if job == 4:
            lps += small_batch.cases[job][0].alphabet.glyphs[0]
        return profiles, lps, factors

    monkeypatch.setattr(small_batch, "run", corrupted)
    dirty = run.measure(small_batch, budget=0)
    assert (dirty.attempted, dirty.failed) == (12, 1)


def test_checkers_reject_a_wrong_defect_profile_and_changed_cli_bytes(small_batch):
    profiles, lps, factors = small_batch.run(0)
    assert small_batch.check(0, (profiles, lps, factors))
    first = profiles[0]
    wrong = dataclasses.replace(first, lacunas=first.lacunas + (len(first.word),))
    assert not small_batch.check(0, ([wrong] + profiles[1:], lps, factors))

    scan = SubgroupScan()
    expected = workloads.reference()["subgroup-scan"]["repro-subgroups"]
    assert scan.digest("repro-subgroups", (0, b"tampered")) != expected
    assert not scan.check("repro-subgroups", (4, b""))


def test_speed_probe_removes_its_interruptions_and_rescales():
    ref, window = speed.SAMPLE_REF_S, speed.WINDOW
    probe = speed.SpeedProbe()
    probe.samples = [2 * ref] * window
    mark = probe.mark()
    probe.samples += [4 * ref] * window
    probe.spent += 0.25
    # 1.25 s of wall time, 0.25 s of it in the probe, at a quarter of reference speed
    assert probe.rescale(mark, 1.25) == pytest.approx(0.25)
    # a job with fewer samples than the window borrows the latest earlier ones
    mark = probe.mark()
    probe.samples.append(2 * ref)
    assert probe.rescale(mark, 0.38) == pytest.approx(0.1)
