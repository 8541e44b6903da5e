"""Benchmark of the unruhcp working tree.

    python3 perfbench/run.py --workload {sweep_grid,report_default,cli_cold}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is not installed, the tree's
src/ is used. Inputs come from --seed. All load comes from this process, a
closed loop with one client: the next operation starts when the previous
one has returned. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separately traced replay with
--trace 1. End-to-end times are scaled to a nominal machine speed by the
gauges of speed.py; the measured seconds are in the line before. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep_grid", "report_default", "cli_cold")
SETUP_REPEATS = 5          # one in this process, the others in fresh processes
# operations replayed by a traced run, per second of --seconds; sized so the
# untraced replay takes a fifth to a third of --seconds at the baseline commit
TRACE_OPS_PER_S = {"sweep_grid": 14.0, "report_default": 0.34, "cli_cold": 0.34}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print {\"setup_s\": ...} and exit")
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, build the workload's inputs and warm up; (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, time.perf_counter() - t0


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Phase:
    """Timings and failures of a sequence of operations."""

    def __init__(self):
        self.seconds = []      # per operation
        self.stamps = []       # mid-time of each operation (perf_counter)
        self.weights = []      # points per operation (1 for a report or a call)
        self.failed = 0
        self.fingerprints = []

    @property
    def attempted(self) -> int:
        return sum(self.weights)


def run_ops(wl, inputs, phase: Phase, deadline=None, run=None, keep_fingerprints=False,
            expect=None, gauge=None):
    """Closed loop: prepare the next input, time the call, validate outside the timer.

    A speed gauge (speed.py) is read before the first operation and then
    between operations, every gauge.every_s seconds.
    """
    run = run or wl.run
    if gauge is not None:
        gauge.read()
    for i, inp in enumerate(inputs):
        weight = wl.weight(inp)
        t0 = time.perf_counter()
        try:
            out = run(inp)
        except Exception:          # a failing operation is counted, the run goes on
            t1 = time.perf_counter()
            phase.seconds.append(t1 - t0)
            phase.stamps.append(0.5 * (t0 + t1))
            phase.weights.append(weight)
            phase.failed += weight
            traceback.print_exc()
            continue
        t1 = time.perf_counter()
        phase.seconds.append(t1 - t0)
        phase.stamps.append(0.5 * (t0 + t1))
        phase.weights.append(weight)
        phase.failed += wl.record(inp, out)
        fp = wl.fingerprint(out)
        if keep_fingerprints:
            phase.fingerprints.append(fp)
        if expect is not None and fp != expect[i]:
            print(f"{wl.name}: traced output {i} differs from the untraced one", file=sys.stderr)
            phase.failed += weight
        if gauge is not None and time.perf_counter() - gauge.stamps[-1] >= gauge.every_s:
            gauge.read()
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return phase


def timing_metrics(seconds: list[float], weights: list[int]) -> dict:
    from tracing import tail

    per_unit = [s / w for s, w in zip(seconds, weights)]
    tail_value, tail_pct, n = tail(per_unit)
    return {"ops_per_s": sum(weights) / sum(seconds),
            "op_p50_s": statistics.median(per_unit),
            "op_tail_s": tail_value, "_tail_percentile": tail_pct, "_samples": n}


def peak_rss_mb(source: str) -> float:
    who = resource.RUSAGE_SELF if source == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "unruhcp" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'unruhcp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir: Path) -> int:
    wl, setup0 = set_up(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup0}))
        return 0

    import checks
    import speed    # after set_up(), whose time must include importing scipy
    import tracing
    if args.trace:
        n_ops = max(1, round(TRACE_OPS_PER_S[wl.name] * args.seconds))
        if wl.name == "cli_cold":     # whole rounds of the five subcommands
            n_ops = 5 * max(1, round(n_ops / 5))
        plain = run_ops(wl, itertools.islice(wl.inputs(), n_ops), Phase(),
                        keep_fingerprints=True)
        tracer = tracing.Tracer()
        run = (lambda inp: wl.run_traced(inp, tracer)) if hasattr(wl, "run_traced") else None
        with tracer:
            traced = run_ops(wl, itertools.islice(wl.inputs(), n_ops), Phase(), run=run,
                             expect=plain.fingerprints)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"spans-{wl.name}-{args.seed}.jsonl")
        inputs = tracer.input_properties()
        if hasattr(wl, "input_properties"):
            inputs.update(wl.input_properties())
        info = {"trace_ops": traced.attempted, "inputs": inputs}
        values = {"trace.overhead_ratio": sum(traced.seconds) / sum(plain.seconds)}
        if tracer.missing:
            print(f"perfbench: attributes not found, not traced: {tracer.missing}",
                  file=sys.stderr)
        phases = [plain, traced]
    else:
        gauge = {"compute": speed.compute_gauge, "start": speed.start_gauge}[wl.gauge]()
        main_phase = run_ops(wl, wl.inputs(), Phase(),
                             deadline=time.perf_counter() + args.seconds, gauge=gauge)
        rss = peak_rss_mb(wl.rss)
        raw = timing_metrics(main_phase.seconds, main_phase.weights)
        timing = timing_metrics([s * gauge.factor_at(t) for s, t
                                 in zip(main_phase.seconds, main_phase.stamps)],
                                main_phase.weights)
        # each set-up is scaled by a start-gauge reading taken right after it
        setups, setup_gauge = [setup0], speed.start_gauge()
        setup_gauge.read()
        for _ in range(SETUP_REPEATS - 1):
            setups.append(setup_in_fresh_process(wl.name, args.seed))
            setup_gauge.read()
        phases = [main_phase]
        values = {"setup_s": statistics.median(
                      s * setup_gauge.nominal_s / g for s, g in zip(setups, setup_gauge.readings)),
                  "peak_rss_mb": rss,
                  **{k: timing[k] for k in ("ops_per_s", "op_p50_s", "op_tail_s")}}
        # the measured figures under the names a user of each workload knows them by
        named = {"sweep_grid": {"sweep_points_per_s": raw["ops_per_s"]},
                 "report_default": {"report_s": raw["op_p50_s"]},
                 "cli_cold": {"cli_p50_s": raw["op_p50_s"],
                              "cli_tail_s": raw["op_tail_s"]}}[wl.name]
        info = {"operation": wl.unit, **named,
                "raw": {k: raw[k] for k in ("ops_per_s", "op_p50_s", "op_tail_s")},
                "tail_percentile": timing["_tail_percentile"], "samples": timing["_samples"],
                "gauge": {"name": gauge.name, "readings": len(gauge.readings),
                          "median_s": statistics.median(gauge.readings)},
                "setup_raw_s": setups, "setup_gauge_s": setup_gauge.readings}

    chk = checks.Check()
    info.update(wl.check(chk))
    attempted = sum(p.attempted for p in phases) + chk.checked
    failed = sum(p.failed for p in phases) + chk.failed
    for problem in chk.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if args.trace:
        values.update(tracer.layer_metrics(traced.attempted))
        units = dict(tracing.PER_LAYER)
    else:
        units = dict(END_TO_END)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "error_rate": failed / attempted, "max_rel_err": chk.max_rel_err,
                      "oracle_declined": chk.oracle_declined, **info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
