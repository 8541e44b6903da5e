"""The three workloads: set-up, the timed operation, its cheap per-operation
validation, and the reference check run after the timed phase.

Importing this module imports the program, so run.py times the import as
part of set-up. Operations go through module attributes (``sweep.run_sweep``)
so that the tracer's wrappers see them.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from unruhcp import asymptotics, sweep
from unruhcp.atoms import load_atom
from unruhcp.occupation import mode_occupation
from unruhcp.potential import potential_numeric, potential_oracle
from unruhcp.sweep import SweepConfig

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 120


class SweepGrid:
    """run_sweep + rows_to_csv over seeded (R, a) grids; one operation is one grid."""

    name = "sweep_grid"
    gauge = "compute"      # speed gauge of the timed loop, see speed.py
    unit = "point"
    rss = "self"
    KEEP_GRIDS = 40       # outputs of the first grids are kept for the reference check
    ORACLE_SAMPLES = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.kept = []    # (atom_doc, atom, rows)
        warm = SweepConfig.from_dict({
            "atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
            "R_grid": {"min": 1.0, "max": 10.0, "count": 2},
            "a_grid": {"min": 1e-3, "max": 0.5, "count": 2},   # both contour branches
            "methods": ["contour", "asymptotic"]})
        sweep.rows_to_csv(sweep.run_sweep(warm))

    def inputs(self):
        for doc in gen.sweep_chunks(self.seed):
            yield doc, SweepConfig.from_dict(doc)

    def run(self, inp):
        rows = sweep.run_sweep(inp[1], max_workers=1)
        return rows, sweep.rows_to_csv(rows)

    @staticmethod
    def fingerprint(out):
        return out[1]

    @staticmethod
    def weight(inp):
        return inp[1].R_grid.count * inp[1].a_grid.count

    def record(self, inp, out) -> int:
        """Number of failed grid points."""
        doc, cfg = inp
        rows, text = out
        n = self.weight(inp)
        if len(rows) != n or text.count("\n") != n + 1:
            return n
        if len(self.kept) < self.KEEP_GRIDS:
            self.kept.append((doc["atom"], cfg.atom, rows))
        return sum(1 for r in rows if not _row_ok(r))

    def check(self, chk: checks.Check) -> dict:
        """One sampled point per R decade against mpmath, a few in the oracle domain."""
        rng = random.Random(f"sweep_check:{self.seed}")
        by_decade = defaultdict(list)
        in_domain = []
        for atom_doc, atom, rows in self.kept:
            for row in rows:
                if _row_ok(row):
                    by_decade[math.floor(math.log10(row.R))].append((atom_doc, atom, row))
                    if checks.in_oracle_domain(row.R, row.a):
                        in_domain.append((atom_doc, atom, row))
        samples = [rng.choice(by_decade[d]) for d in sorted(by_decade)]
        samples += rng.sample(in_domain, min(self.ORACLE_SAMPLES, len(in_domain)))
        checks.check_sweep_samples(samples, check=chk)
        R, a = checks.ORACLE_KNOWN_POINT
        atom = load_atom({"two_level": {"omega0": 1.0, "alpha0": 1.0}})
        dev = checks.rel_err(potential_oracle(R, a, atom).value,
                             potential_numeric(R, a, atom).value)
        return {"check.oracle_dev_R1e3": dev}


def _row_ok(row) -> bool:
    return (row.V_contour is not None and math.isfinite(row.V_contour)
            and not any(w.startswith("contour:") for w in row.warnings))


class ReportDefault:
    """compare_report(default_config()), repeated; the config is fixed, not seeded."""

    name = "report_default"
    gauge = "compute"      # speed gauge of the timed loop, see speed.py
    unit = "report"
    rss = "self"

    def __init__(self, seed: int, workdir: Path):
        self.config = sweep.default_config()
        self.first_text = None
        self.reports = []
        potential_numeric(1.0, 0.01, self.config.atom)
        potential_oracle(1.0, 0.01, self.config.atom)

    def inputs(self):
        while True:
            yield self.config

    def run(self, config):
        report = sweep.compare_report(config)
        return report, json.dumps(report, indent=2)

    @staticmethod
    def fingerprint(out):
        return out[1]

    @staticmethod
    def weight(inp):
        return 1

    def record(self, inp, out) -> int:
        report, text = out
        if self.first_text is None:
            self.first_text = text
            self.reports.append(report)
        elif text != self.first_text:    # the report is deterministic
            self.reports.append(report)
            return 1
        return 0

    def check(self, chk: checks.Check) -> dict:
        for report in self.reports:
            checks.check_report(report, check=chk)
        return {}


class CliCold:
    """Sequential fresh `python -m unruhcp.cli` processes with seeded arguments."""

    name = "cli_cold"
    gauge = "start"      # speed gauge of the timed loop, see speed.py
    unit = "call"
    rss = "children"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.atom_docs = gen.cli_atoms(seed)
        self.atom_paths = []
        for k, doc in enumerate(self.atom_docs):
            path = workdir / f"atom{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.atom_paths.append(str(path))
        self.fit_csv = workdir / "fit.csv"
        fit_cfg = SweepConfig.from_dict({
            "atom": self.atom_docs[0], "R_grid": {"min": 50.0, "max": 500.0, "count": 8},
            "a_grid": {"value": 1e-3}, "methods": ["contour"]})
        self.fit_csv.write_text(sweep.rows_to_csv(sweep.run_sweep(fit_cfg)), encoding="utf-8")
        self.sweep_cfg = workdir / "sweep.json"
        self.atom_b = workdir / "atom_b.json"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.calls = []    # (subcommand, params, stdout) of every successful call
        warm = self._spawn([sys.executable, "-m", "unruhcp.cli", "occupation",
                            "--omega", "1.0", "--accel", "1.0"])
        if warm.returncode != 0:
            raise RuntimeError(f"CLI warm-up call failed: {warm.stderr}")

    def _spawn(self, cmd):
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)

    def _argv(self, sub, p):
        if sub == "occupation":
            return [sub, "--omega", repr(p["omega"]), "--accel", repr(p["accel"])]
        if sub == "eval":
            return [sub, "--R", repr(p["R"]), "--accel", repr(p["accel"]),
                    "--atom", self.atom_paths[p["atom"]], "--method", "contour"]
        if sub == "asymptotic":
            argv = [sub, "--law", p["law"], "--R", repr(p["R"]), "--accel", repr(p["accel"]),
                    "--atom", self.atom_paths[p["atom"]]]
            if "atom_b" in p:
                self.atom_b.write_text(json.dumps(p["atom_b"]), encoding="utf-8")
                argv += ["--atom-b", str(self.atom_b)]
            return argv
        if sub == "fit":
            lo, hi = p["window"]
            return [sub, "--input", str(self.fit_csv), "--x", "R", "--y", "V_contour",
                    "--window", f"{lo!r},{hi!r}"]
        self.sweep_cfg.write_text(json.dumps(self._sweep_doc(p)), encoding="utf-8")
        return [sub, "--config", str(self.sweep_cfg), "--out", "-"]

    def _sweep_doc(self, p):
        return {**p, "atom": self.atom_docs[p["atom"]]}

    def input_properties(self) -> dict:
        return {"atom_lines": [len(doc["transitions"]) for doc in self.atom_docs]}

    def inputs(self):
        for sub, params in gen.cli_calls(self.seed):
            yield sub, params, self._argv(sub, params)

    def run(self, inp):
        return self._spawn([sys.executable, "-m", "unruhcp.cli", *inp[2]])

    def run_traced(self, inp, tracer):
        """The same call through cli_probe.py, which times import and command."""
        proc = self._spawn([sys.executable, "-X", "importtime", str(HERE / "cli_probe.py"),
                            *inp[2]])
        probe, scipy_integrate_us = None, 0
        for line in proc.stderr.splitlines():
            if line.startswith("perfbench-probe "):
                probe = json.loads(line.split(" ", 1)[1])
            elif line.startswith("import time:"):
                fields = line.split("|")
                if fields[-1].strip() == "scipy.integrate":
                    scipy_integrate_us = int(fields[1])
        if probe is not None:
            tracer.cli_record(inp[0], probe["import_s"], scipy_integrate_us * 1e-6,
                              probe["command_s"])
        return proc

    @staticmethod
    def fingerprint(out):
        return out.stdout

    @staticmethod
    def weight(inp):
        return 1

    def record(self, inp, proc) -> int:
        sub, params, _ = inp
        if proc.returncode != 0:
            print(f"cli_cold: {sub} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
            return 1
        try:
            if sub == "sweep":
                rows = list(csv.reader(io.StringIO(proc.stdout)))
                if rows[0] != list(sweep.CSV_COLUMNS) or len(rows) != 9:
                    raise ValueError(f"unexpected sweep CSV shape {len(rows)}")
            else:
                json.loads(proc.stdout)
        except (ValueError, IndexError) as exc:
            print(f"cli_cold: {sub} output does not parse: {exc}", file=sys.stderr)
            return 1
        self.calls.append((sub, params, proc.stdout))
        return 0

    def expected(self, sub, p):
        """The in-process API value of one call, as the CLI prints it."""
        if sub == "occupation":
            return {"omega": p["omega"], "accel": p["accel"], "units": "natural",
                    **mode_occupation(p["omega"], p["accel"]).as_dict()}
        if sub == "fit":
            fit = sweep.fit_slope(sweep.read_rows_csv(self.fit_csv), "R", "V_contour",
                                  tuple(p["window"]))
            return {"x": "R", "y": "V_contour", "window": list(p["window"]), **fit.as_dict()}
        if sub == "sweep":
            return sweep.rows_to_csv(sweep.run_sweep(SweepConfig.from_dict(self._sweep_doc(p))))
        atom = load_atom(self.atom_docs[p["atom"]])
        R, a = p["R"], p["accel"]
        if sub == "eval":
            return potential_numeric(R, a, atom).as_dict()
        law = {"near": lambda: asymptotics.near_zone_value(R, atom),
               "far-low": lambda: asymptotics.far_low_acc(R, a, atom),
               "high-ar": lambda: asymptotics.high_aR(R, a, atom),
               "high-acc": lambda: asymptotics.potential_high_acc(R, a, atom,
                                                             load_atom(p["atom_b"]))}
        return law[p["law"]]()

    def check(self, chk: checks.Check) -> dict:
        for sub, params, stdout in self.calls:
            want = self.expected(sub, params)
            if sub == "sweep":
                chk.require("cli sweep CSV equals the in-process CSV", stdout == want)
                continue
            doc = json.loads(stdout)
            if sub == "eval":
                chk.compare("cli eval value", doc["contour"]["value"], want["value"], 0.0)
                chk.require("cli eval result equals the in-process result", doc["contour"] == want)
            elif sub == "asymptotic":
                chk.compare(f"cli asymptotic {params['law']} value", doc["value"], want, 0.0)
            else:
                chk.require(f"cli {sub} output {doc!r} equals the in-process {want!r}",
                            doc == want)
        return {}


WORKLOADS = {w.name: w for w in (SweepGrid, ReportDefault, CliCold)}
