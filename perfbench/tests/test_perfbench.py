"""Tests of the benchmark itself (not part of the program's test suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import itertools
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_names_match_benchmark_json(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_names_match_benchmark_json(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if workload == "sweep_grid":    # counts are per grid point
        assert result["metrics"]["potential.numeric.calls"]["value"] == 1.0


def test_same_seed_same_inputs():
    def first(stream, n=60):
        return list(itertools.islice(stream, n))

    assert first(gen.sweep_chunks(7)) == first(gen.sweep_chunks(7))
    assert first(gen.sweep_chunks(7)) != first(gen.sweep_chunks(8))
    assert first(gen.cli_calls(7)) == first(gen.cli_calls(7))
    assert gen.cli_atoms(7) == gen.cli_atoms(7)


def _patched_attributes():
    plan = tracing.SPANS + tracing.LEAVES + tracing.COUNTS + [tracing.QUAD]
    return {(m, a): getattr(import_module(m), a) for m, a, _ in plan}


@pytest.mark.parametrize("workload", ["sweep_grid", "report_default"])
def test_traced_run_restores_attributes_and_values(workload, tmp_path):
    import workloads

    wl = workloads.WORKLOADS[workload](5, tmp_path)
    inputs = list(itertools.islice(wl.inputs(), 3 if workload == "sweep_grid" else 1))
    before = _patched_attributes()
    plain = [wl.fingerprint(wl.run(inp)) for inp in inputs]
    tracer = tracing.Tracer()
    with tracer:
        assert all(getattr(import_module(m), a) is not orig for (m, a), orig in before.items())
        traced = [wl.fingerprint(wl.run(inp)) for inp in inputs]
    assert not tracer.missing
    assert all(getattr(import_module(m), a) is orig for (m, a), orig in before.items())
    assert traced == plain
    assert tracer.counts["potential.numeric.calls"] > 0 and tracer.spans


def test_corrupted_reference_is_caught(tmp_path):
    import workloads

    wl = workloads.SweepGrid(11, tmp_path)
    inp = next(wl.inputs())
    rows, _ = wl.run(inp)
    samples = [(inp[0]["atom"], inp[1].atom, row) for row in rows[:2]]
    assert checks.check_sweep_samples(samples).failed == 0
    corrupted = checks.check_sweep_samples(
        samples, vacuum_ref=lambda R, doc: checks.vacuum_reference(R, doc) * (1 + 1e-5))
    assert corrupted.failed == len(samples)

    report = {"overall_pass": True, "flagged_discrepancies": list(checks.REPORT_FLAGS),
              "dual_method": {"max_rel_diff": 1e-9}}
    assert checks.check_report(report).failed == 0
    report["dual_method"]["max_rel_diff"] = 1e-3
    assert checks.check_report(report).failed == 1


def test_gauge_scales_by_the_nearest_readings():
    gauge = speed.Gauge("fake", lambda: None, nominal_s=2.0, every_s=1.0, near=2)
    gauge.stamps = [0.0, 1.0, 2.0, 3.0, 4.0]
    gauge.readings = [1.0, 1.0, 4.0, 4.0, 4.0]
    assert gauge.factor_at(0.2) == 2.0              # readings at 0 and 1
    assert gauge.factor_at(3.4) == 0.5              # readings at 3 and 4
    assert gauge.factor_at(1.4) == 2.0 / 2.5        # readings at 1 and 2
    assert gauge.factor_at(99.0) == 0.5             # past the last reading


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
