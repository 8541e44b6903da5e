"""Spans and counters around the calls into each layer of the program.

The tracer wraps module attributes of the program from the benchmark's own
files; nothing under src/ is edited, and every attribute is put back when
the traced phase ends. `from X import f` binds f in the caller's module, so
a function is wrapped in each namespace that calls it. Spans are kept in
memory and written out once, after the run.

A span's self time is its duration minus the time of its child spans and of
the timed leaf calls made inside it. Leaf calls (many per grid point) are
counted and timed without a span record each; per-node calls, made once per
quadrature node, are only counted.
"""
from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from importlib import import_module

_SECTIONS = ("inertial_far", "inertial_near", "far_a2", "near_a2", "high_aR",
             "high_acc", "occupation", "dual_method", "determinism")
# report keys of the sections, used in the metric names
SECTION_KEYS = ("inertial_far", "inertial_near", "far_zone_a2", "near_zone_a2", "high_aR",
                "high_acc", "occupation", "dual_method", "determinism")
_CLOSED_FORMS = ("near_zone_value", "far_low_acc", "high_aR", "potential_high_acc")

# (module, attribute, layer)
SPANS = [
    ("unruhcp.sweep", "compare_report", "sweep.compare_report"),
    ("unruhcp.sweep", "run_sweep", "sweep.run_sweep"),
    ("unruhcp.sweep", "_eval_point", "sweep.eval_point"),
    ("unruhcp.sweep", "rows_to_csv", "sweep.rows_to_csv"),
    *[("unruhcp.sweep", f"_section_{s}", f"sweep.section.{k}")
      for s, k in zip(_SECTIONS, SECTION_KEYS)],
    ("unruhcp.sweep", "potential_numeric", "potential.numeric"),
    ("unruhcp.asymptotics", "potential_numeric", "potential.numeric"),
    ("unruhcp.sweep", "potential_inertial", "potential.inertial"),
    ("unruhcp.asymptotics", "potential_inertial", "potential.inertial"),
    ("unruhcp.sweep", "potential_oracle", "potential.oracle"),
    ("unruhcp.potential", "_inertial_integral", "potential.inertial_integral"),
    ("unruhcp.potential", "_origin_subtracted_integral", "potential.origin_subtracted"),
    ("unruhcp.potential", "_pole_sum", "potential.pole_sum"),
    ("unruhcp.potential", "_bose_real_axis_integral", "potential.bose_real_axis"),
    ("unruhcp.potential", "_oracle_piece", "potential.oracle_piece"),
    ("unruhcp.asymptotics", "fit_a2_near_coefficient", "asymptotics.fit_a2_near"),
    *[("unruhcp.asymptotics", f, "asymptotics.closed_form") for f in _CLOSED_FORMS],
]
LEAVES = [
    ("unruhcp.sweep", "classify_regime", "kinematics.classify_regime"),
    ("unruhcp.potential", "classify_regime", "kinematics.classify_regime"),
    ("unruhcp.sweep", "mode_occupation", "occupation.mode_occupation"),
]
COUNTS = [
    ("unruhcp.sweep", "units_for", "units.units_for"),
    ("unruhcp.potential", "units_for", "units.units_for"),
    ("unruhcp.asymptotics", "units_for", "units.units_for"),
    ("unruhcp.potential", "osc_imag_part", "retardation.osc_imag_part"),
    ("unruhcp.potential", "quartic_weight", "retardation.quartic_weight"),
    ("unruhcp.potential", "_alpha2_iu", "atoms.alpha2"),
    ("unruhcp.potential", "_alpha2_real0", "atoms.alpha2"),
]
QUAD = ("unruhcp.potential", "_scipy_quad", "potential.quad")
# a grid point or a report starts its own trace id; spans below it share it
TRACE_ROOTS = {"sweep.eval_point", "sweep.compare_report"}
DENSE_LADDER_AR = 1e-3
CLI_SUBCOMMANDS = ("occupation", "eval", "asymptotic", "fit", "sweep")

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.import_scipy_integrate_s", "s"),
    *[(f"cli.command_s.{sub}", "s") for sub in CLI_SUBCOMMANDS],
    ("potential.numeric.calls", "count"),
    ("potential.numeric.p50_ms", "ms"),
    ("potential.numeric.tail_ms", "ms"),
    ("potential.inertial_integral.self_s", "s"),
    ("potential.inertial_integral.neval", "count"),
    ("potential.origin_subtracted.self_s", "s"),
    ("potential.origin_subtracted.neval", "count"),
    ("potential.pole_sum.self_s", "s"),
    ("potential.pole_sum.calls", "count"),
    ("potential.bose_real_axis.self_s", "s"),
    ("potential.bose_real_axis.neval", "count"),
    ("potential.quad.calls", "count"),
    ("potential.quad.neval", "count"),
    ("potential.oracle.calls", "count"),
    ("potential.oracle.p50_ms", "ms"),
    ("potential.oracle.tail_ms", "ms"),
    ("potential.oracle.failures", "count"),
    ("potential.oracle_piece.self_s", "s"),
    ("potential.oracle_piece.neval", "count"),
    ("sweep.run_sweep_s", "s"),
    ("sweep.eval_point.self_s", "s"),
    ("sweep.rows_to_csv_s", "s"),
    *[(f"sweep.section_s.{k}", "s") for k in SECTION_KEYS],
    ("asymptotics.closed_form.calls", "count"),
    ("asymptotics.closed_form.self_s", "s"),
    ("asymptotics.fit_a2_near_s", "s"),
    ("kinematics.classify_regime.calls", "count"),
    ("kinematics.classify_regime.self_s", "s"),
    ("units.units_for.calls", "count"),
    ("occupation.mode_occupation.calls", "count"),
    ("occupation.mode_occupation.self_s", "s"),
    ("retardation.osc_imag_part.calls", "count"),
    ("retardation.quartic_weight.calls", "count"),
    ("atoms.alpha2.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def tail(values):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no such percentile exists and the maximum is
    returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class _Frame:
    __slots__ = ("sid", "layer", "trace", "child")

    def __init__(self, sid, layer, trace):
        self.sid, self.layer, self.trace, self.child = sid, layer, trace, 0.0


class Tracer:
    def __init__(self):
        self.spans = []                       # (id, parent, trace, layer, start, end)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)    # per-call seconds of selected layers
        self.counts = defaultdict(int)
        self.numeric_args = []                # (R, a, atom) of potential_numeric calls
        self.cli = defaultdict(list)          # cli layer -> seconds per call
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    # -- bookkeeping -------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _leaf_time(self, layer, dt):
        stack = self._stack()
        if stack:
            stack[-1].child += dt
        with self._lock:
            self.counts[layer + ".calls"] += 1
            self.self_s[layer] += dt

    # -- wrappers ----------------------------------------------------------
    def _span(self, fn, layer):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            trace = parent.trace if parent is not None and parent.trace else (
                sid if layer in TRACE_ROOTS else 0)
            frame = _Frame(sid, layer, trace)
            if layer == "potential.numeric":
                with self._lock:
                    self.numeric_args.append(tuple(_arg(args, kwargs, i, name) for i, name
                                                   in enumerate(("R", "a", "atom"))))
            elif layer == "potential.pole_sum" and (
                    _arg(args, kwargs, 0, "Rt") * _arg(args, kwargs, 1, "at") < DENSE_LADDER_AR):
                self._add("potential.pole_sum.dense")
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._add(layer + ".failures")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent.child += dur
                with self._lock:
                    self.spans.append((sid, parent.sid if parent else 0, trace, layer,
                                       start, end))
                    self.counts[layer + ".calls"] += 1
                    self.total_s[layer] += dur
                    self.self_s[layer] += dur - frame.child
                    if layer in ("potential.numeric", "potential.oracle"):
                        self.durations[layer].append(dur)
        return wrapper

    def _leaf(self, fn, layer):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf_time(layer, time.perf_counter() - start)
        return wrapper

    def _count(self, fn, layer):
        def wrapper(*args, **kwargs):
            self._add(layer + ".calls")
            return fn(*args, **kwargs)
        return wrapper

    def _quad(self, fn, layer):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            neval = out[2]["neval"] if kwargs.get("full_output") else 0
            stack = self._stack()
            with self._lock:
                self.counts[layer + ".calls"] += 1
                self.counts[layer + ".neval"] += neval
                if stack:
                    self.counts[stack[-1].layer + ".neval"] += neval
            return out
        return wrapper

    # -- install / restore ---------------------------------------------------
    def install(self):
        plan = ([(m, a, layer, self._span) for m, a, layer in SPANS]
                + [(m, a, layer, self._leaf) for m, a, layer in LEAVES]
                + [(m, a, layer, self._count) for m, a, layer in COUNTS]
                + [(*QUAD, self._quad)])
        for mod_name, attr, layer, make in plan:
            mod = import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:   # renamed or removed by a later change
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, make(orig, layer))

    def restore(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- cli layer (measured in the child process, see cli_probe.py) ---------
    def cli_record(self, sub, import_s, scipy_integrate_s, command_s):
        self.cli["cli.import_s"].append(import_s)
        self.cli["cli.import_scipy_integrate_s"].append(scipy_integrate_s)
        self.cli[f"cli.command_s.{sub}"].append(command_s)

    # -- results -------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": trace,
                                     "name": layer, "start": start, "end": end}) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer figures; counts and times are per operation of the workload."""
        c, s, t = self.counts, self.self_s, self.total_s

        def per_op(x):
            return x / ops if ops else 0.0

        def ms(layer, pick):
            d = self.durations.get(layer)
            return 1e3 * pick(d) if d else 0.0

        def p50(d):
            return statistics.median(d)

        m = {}
        for layer in ("cli.import_s", "cli.import_scipy_integrate_s",
                      *[f"cli.command_s.{sub}" for sub in CLI_SUBCOMMANDS]):
            m[layer] = statistics.median(self.cli[layer]) if self.cli.get(layer) else 0.0
        m["potential.numeric.calls"] = per_op(c["potential.numeric.calls"])
        m["potential.numeric.p50_ms"] = ms("potential.numeric", p50)
        m["potential.numeric.tail_ms"] = ms("potential.numeric", lambda d: tail(d)[0])
        for piece in ("inertial_integral", "origin_subtracted", "bose_real_axis"):
            m[f"potential.{piece}.self_s"] = per_op(s[f"potential.{piece}"])
            m[f"potential.{piece}.neval"] = per_op(c[f"potential.{piece}.neval"])
        m["potential.pole_sum.self_s"] = per_op(s["potential.pole_sum"])
        m["potential.pole_sum.calls"] = per_op(c["potential.pole_sum.calls"])
        m["potential.quad.calls"] = per_op(c["potential.quad.calls"])
        m["potential.quad.neval"] = per_op(c["potential.quad.neval"])
        m["potential.oracle.calls"] = per_op(c["potential.oracle.calls"])
        m["potential.oracle.p50_ms"] = ms("potential.oracle", p50)
        m["potential.oracle.tail_ms"] = ms("potential.oracle", lambda d: tail(d)[0])
        m["potential.oracle.failures"] = per_op(c["potential.oracle.failures"])
        m["potential.oracle_piece.self_s"] = per_op(s["potential.oracle_piece"])
        m["potential.oracle_piece.neval"] = per_op(c["potential.oracle_piece.neval"])
        m["sweep.run_sweep_s"] = per_op(t["sweep.run_sweep"])
        m["sweep.eval_point.self_s"] = per_op(s["sweep.eval_point"])
        m["sweep.rows_to_csv_s"] = per_op(t["sweep.rows_to_csv"])
        for key in SECTION_KEYS:
            m[f"sweep.section_s.{key}"] = per_op(t[f"sweep.section.{key}"])
        m["asymptotics.closed_form.calls"] = per_op(c["asymptotics.closed_form.calls"])
        m["asymptotics.closed_form.self_s"] = per_op(s["asymptotics.closed_form"])
        m["asymptotics.fit_a2_near_s"] = per_op(t["asymptotics.fit_a2_near"])
        for layer in ("kinematics.classify_regime", "occupation.mode_occupation"):
            m[f"{layer}.calls"] = per_op(c[f"{layer}.calls"])
            m[f"{layer}.self_s"] = per_op(s[layer])
        for layer in ("units.units_for", "retardation.osc_imag_part",
                      "retardation.quartic_weight", "atoms.alpha2"):
            m[f"{layer}.calls"] = per_op(c[f"{layer}.calls"])
        return m

    def input_properties(self) -> dict:
        """Branch shares, zone mix (from classify_regime) and atom line counts of the
        points given to potential_numeric."""
        from unruhcp.kinematics import classify_regime

        c = self.counts
        branch_calls = c["potential.pole_sum.calls"] + c["potential.bose_real_axis.calls"]
        zones = defaultdict(int)
        lines = defaultdict(int)
        for R, a, atom in self.numeric_args:
            zones[classify_regime(R, a, atom).zone] += 1
            lines[min(len(atom.transitions), 4)] += 1
        n = len(self.numeric_args)
        if not n:
            return {}

        def share(x, base):
            return x / base if base else 0.0

        out = {"ladder_share": share(c["potential.pole_sum.calls"], branch_calls),
               "dense_ladder_share": share(c["potential.pole_sum.dense"], branch_calls)}
        out.update({f"zone_{z}_share": share(zones[z], n) for z in ("near", "crossover", "far")})
        out.update({f"atom_lines_{k}_share": share(lines[k], n) for k in (1, 2, 3, 4)})
        return out
