"""Batch evaluation over (R, a) grids, power-law fits and the comparison report.

Rows are produced in lexicographic (a, R) order, in the calling thread
(run_sweep starts no thread: each evaluator takes the whole grid in one
call), straight from the evaluators' acceptance gate (potential._gate), whose
restored tuples give their values, parts and warnings; PotentialResult
objects are built only for the API calls that return them.  Numbers are
serialized with shortest round-trip precision, and a fixed configuration
yields byte-identical CSV and report output.

Each report section that needs contour values declares its (R, a) product
grid, and compare_report evaluates the union of those points in one gated
contour call (_contour_pass); the dual-method section takes its oracle values
from one gated oracle call on its grid.  Both give bit for bit the entries
of point-by-point calls, and a section raises an entry that is an error
where it reads it, as the point call raises it.  The near-zone a^2 section
is the package's one fit of that coefficient.  The occupation section checks
its sampled (omega, a) points in one array pass.
"""
from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics
from .atoms import AtomSpec, Transition, _reduce_atom, load_atom, two_level
from .errors import (
    InconsistentRegimeError,
    InputError,
    RegimeError,
    UnruhCPError,
    read_real,
)
from .kinematics import _acceleration, _aR, _zone, validity_check
from .occupation import _occupation_parts, mode_occupation, occupation_highacc
from .potential import _gate, _gate_grid, _result
from .units import UnitSystem, units_for

CSV_COLUMNS = ("R", "a", "regime", "V_contour", "V_oracle", "V_asymptotic",
               "part_vacuum", "part_a2", "part_residue", "rel_diff", "warnings")
METHODS = ("contour", "oracle", "asymptotic")
CONFIG_KEYS = ("atom", "R_grid", "a_grid", "methods", "units", "output_path")


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GridSpec:
    """Log-spaced grid {min, max, count} or the single value {value}; a grid
    object with any other set of keys is an InputError."""

    min: float = 0.0
    max: float = 0.0
    count: int = 1
    value: float | None = None

    @classmethod
    def from_obj(cls, obj) -> "GridSpec":
        try:
            if isinstance(obj, dict) and set(obj) not in ({"value"}, {"min", "max", "count"}):
                raise ValueError("a grid gives either 'value' or 'min', 'max' and 'count'")
            if isinstance(obj, dict) and "value" in obj:
                g = cls(value=read_real(obj["value"]))
            elif isinstance(obj, (int, float)):
                g = cls(value=read_real(obj))
            else:
                count = obj["count"]
                if int(count) != read_real(count):
                    raise ValueError(f"count {count!r} is not an integer")
                g = cls(min=read_real(obj["min"]), max=read_real(obj["max"]), count=int(count))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad grid spec {obj!r}: {exc}") from exc
        if g.value is None and (g.count < 2 or not 0.0 < g.min < g.max):
            raise InputError(f"grid needs 0 < min < max and count >= 2, got {obj!r}")
        ends = (g.min, g.max) if g.value is None else (g.value,)
        if not all(math.isfinite(x) for x in ends):
            raise InputError(f"grid values must be finite, got {obj!r}")
        return g

    def points(self) -> list[float]:
        """The grid; a log-spaced one starts at min and ends at max exactly.
        A count whose array numpy cannot build is an InputError."""
        if self.value is not None:
            return [float(self.value)]
        try:
            pts = np.logspace(math.log10(self.min), math.log10(self.max), self.count)
        except (ValueError, MemoryError) as exc:
            raise InputError(f"grid count {self.count} is too large: {exc}") from exc
        pts[0], pts[-1] = self.min, self.max
        return pts.tolist()

    def as_dict(self) -> dict:
        if self.value is not None:
            return {"value": self.value}
        return {"min": self.min, "max": self.max, "count": self.count}


@dataclass(frozen=True)
class SweepConfig:
    atom: AtomSpec
    R_grid: GridSpec
    a_grid: GridSpec
    methods: tuple[str, ...] = ("contour",)
    units: str = "natural"
    output_path: str | None = None
    atom_source: dict | str | None = None

    def __post_init__(self):
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise InputError(f"unknown methods {bad}; allowed: {METHODS}")
        if not self.methods:
            raise InputError("at least one method is required")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise InputError(f"sweep config must be a JSON object, got {doc!r}")
        # 'quad' is unknown too: the accuracy is the fixed potential.REL_TOL
        for key in doc:
            if key not in CONFIG_KEYS:
                raise InputError(f"sweep config has unknown key {key!r}; allowed: {CONFIG_KEYS}")
        try:
            atom_source = doc["atom"]
        except KeyError as exc:
            raise InputError("sweep config needs an 'atom' entry") from exc
        units = doc.get("units", "natural")
        atom = load_atom(atom_source, units=units)
        methods = doc.get("methods", ["contour"])
        if not isinstance(methods, list):
            raise InputError(f"sweep config 'methods' must be a list, got {methods!r}")
        output_path = doc.get("output_path")
        if output_path is not None and not isinstance(output_path, str):
            raise InputError(f"sweep config 'output_path' must be a string, got {output_path!r}")
        return cls(
            atom=atom,
            R_grid=GridSpec.from_obj(doc.get("R_grid", {"value": 1.0})),
            a_grid=GridSpec.from_obj(doc.get("a_grid", {"value": 0.0})),
            methods=tuple(methods),
            units=units,
            output_path=output_path,
            atom_source=atom_source,
        )

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read sweep config {path!r}: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class SweepRow:
    R: float
    a: float
    regime: str
    V_contour: float | None = None
    V_oracle: float | None = None
    V_asymptotic: float | None = None
    part_vacuum: float | None = None
    part_a2: float | None = None
    part_residue: float | None = None
    rel_diff: float | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def as_csv_fields(self) -> list[str]:
        def num(x):
            return "" if x is None else repr(x)

        return [num(self.R), num(self.a), self.regime,
                num(self.V_contour), num(self.V_oracle), num(self.V_asymptotic),
                num(self.part_vacuum), num(self.part_a2), num(self.part_residue),
                num(self.rel_diff), ";".join(self.warnings)]


# --------------------------------------------------------------------------
# sweep execution
# --------------------------------------------------------------------------
def _asymptotic_value(R: float, a: float, zone: str, aR: str, excited: bool,
                      config: SweepConfig):
    """Closed-form value at (R, a) for its regime classes, or (None, note)."""
    atom, units = config.atom, config.units
    if excited:
        return None, "the high-acceleration law needs atom B"
    if a == 0.0 or aR == "small":
        if zone == "near":
            return asymptotics.near_zone_value(R, atom, units=units), None
        if zone == "far":
            return asymptotics.far_low_acc(R, a, atom, units=units), None
        return None, "no closed form applies in the crossover zone"
    if aR == "large":
        return asymptotics.high_aR(R, a, atom, units=units), None
    return None, "no closed form applies for crossover aR/c^2"


def relative_difference(values) -> float:
    """(max - min) / max |v| of two or more values of one quantity; 0.0 when
    every value is zero."""
    scale = max(abs(v) for v in values)
    return (max(values) - min(values)) / scale if scale > 0 else 0.0


def run_sweep(config: SweepConfig, max_workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid point in the calling thread; row order is
    lexicographic (a, R).

    The contour evaluator and the oracle each take the whole grid in one
    call.  Per-point failures (an error entry of the gate or of a closed
    form) become row warnings and never abort the sweep.  max_workers must
    be the integer 1, since the sweep starts no thread; any other value (a
    bool included) is an InputError.
    """
    if isinstance(max_workers, bool) or not (isinstance(max_workers, numbers.Integral)
                                             and max_workers == 1):
        raise InputError(f"max_workers must be 1, since the sweep runs in the calling "
                         f"thread; got {max_workers!r}")
    c, atom, methods = UnitSystem(mode=config.units).c, config.atom, config.methods
    Rs, As = config.R_grid.points(), config.a_grid.points()
    absent = [[None] * len(Rs)] * len(As)
    contour, oracle = (_gate_grid(m, Rs, As, atom, config.units) if m in methods else absent
                       for m in ("contour", "oracle"))
    # classified after the gate, so that a value outside the domain raises
    # the gate's error; the zone once per separation, the acceleration's
    # class and whether it is excited once per acceleration
    zones = [_zone(R, atom, c)[1] for R in Rs]
    classes = [(_acceleration(a, atom, c)[1], validity_check(a, atom, c=c).excited) for a in As]
    rows = []
    for a, (acc, excited), c_row, o_row in zip(As, classes, contour, oracle):
        for R, zone, v, o in zip(Rs, zones, c_row, o_row):
            aR = _aR(R, a, c)[1]
            v_contour, parts, warnings = ((v[0], v[2:5], [*v[5]]) if isinstance(v, tuple)
                                          else (None, (None,) * 3, []))
            if isinstance(v, UnruhCPError):
                kind = "regime error" if isinstance(v, RegimeError) else "numerical failure"
                warnings.append(f"contour: {kind}: {v}")
            v_oracle = o[0] if isinstance(o, tuple) else None
            if isinstance(o, UnruhCPError):
                warnings.append(f"oracle: {o}")
            v_asymptotic = None
            if "asymptotic" in methods:
                try:
                    v_asymptotic, note = _asymptotic_value(R, a, zone, aR, excited, config)
                    if note:
                        warnings.append(f"asymptotic: {note}")
                except UnruhCPError as exc:
                    warnings.append(f"asymptotic: {exc}")
            present = [x for x in (v_contour, v_oracle, v_asymptotic) if x is not None]
            rows.append(SweepRow(
                R=R, a=a, regime=f"{zone}/{acc}/{aR}",
                V_contour=v_contour, V_oracle=v_oracle, V_asymptotic=v_asymptotic,
                part_vacuum=parts[0], part_a2=parts[1], part_residue=parts[2],
                rel_diff=relative_difference(present) if len(present) >= 2 else None,
                warnings=tuple(warnings)))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_fields())
    return buf.getvalue()


def read_rows_csv(path) -> list[dict]:
    """Read a sweep CSV back into dicts with floats (empty fields -> None).

    Blank lines are skipped.  A header that repeats a column, or a row whose
    field count differs from the header's, is an InputError.
    """
    out = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for key in header:
                if header.count(key) > 1:
                    raise ValueError(f"the header repeats the column {key!r}")
            for rec in reader:
                if not rec:
                    continue
                if len(rec) != len(header):
                    raise ValueError(f"line {reader.line_num}: expected the header's "
                                     f"{len(header)} fields, got {len(rec)}")
                out.append({key: raw if key in ("regime", "warnings")
                            else (float(raw) if raw else None)
                            for key, raw in zip(header, rec)})
    except (OSError, ValueError, csv.Error) as exc:   # UnicodeDecodeError is a ValueError
        raise InputError(f"cannot read rows CSV {path!r}: {exc}") from exc
    return out


# --------------------------------------------------------------------------
# power-law fitting
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def as_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared, "n_points": self.n_points}


def fit_slope(rows, x_field: str, y_field: str,
              window: tuple[float, float] | None = None) -> SlopeFit:
    """Ordinary least squares of log|y| against log x.

    rows may be SweepRow objects or dicts.  Points with a missing or zero x
    or y are dropped; a value that is not a number (a text column), is not
    finite or is a negative x, fewer than three usable points, fewer than
    two distinct x or a sign change inside the window is an error (the
    logarithm or the slope would be undefined), and so is a field that no
    row has.
    """
    for name in (x_field, y_field):
        if rows and not any(name in row if isinstance(row, dict) else hasattr(row, name)
                            for row in rows):
            raise InputError(f"no row has the field {name!r}")
    xs, ys = [], []
    for row in rows:
        get = row.get if isinstance(row, dict) else lambda k, _r=row: getattr(_r, k)
        x, y = get(x_field), get(y_field)
        if x is None or y is None:
            continue
        for name, v in ((x_field, x), (y_field, y)):
            if not isinstance(v, numbers.Real):
                raise InputError(f"{name} is not a numeric field: {v!r}")
        if x == 0.0 or y == 0.0:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"non-finite value in the fit: {x_field}={x}, {y_field}={y}")
        if x < 0.0:
            raise InputError(f"negative {x_field} = {x} in the fit; log {x_field} undefined")
        if window is not None and not window[0] <= x <= window[1]:
            continue
        xs.append(float(x))
        ys.append(float(y))
    if len(xs) < 3:
        raise InputError(f"slope fit needs >= 3 usable points, got {len(xs)}")
    if len(set(xs)) < 2:
        raise InputError(f"slope fit needs >= 2 distinct {x_field} values")
    signs = {math.copysign(1.0, y) for y in ys}
    if len(signs) > 1:
        raise InputError("sign change inside the fit window; log|y| undefined")
    lx = np.log(np.array(xs))
    ly = np.log(np.abs(np.array(ys)))
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    r_squared=r2, n_points=len(xs))


# --------------------------------------------------------------------------
# comparison report
# --------------------------------------------------------------------------
def default_config() -> SweepConfig:
    """Bundled two-level configuration used by the acceptance report."""
    return SweepConfig(
        atom=two_level(1.0, 1.0),
        R_grid=GridSpec(min=0.1, max=100.0, count=5),
        a_grid=GridSpec(min=1e-3, max=0.1, count=5),
        methods=METHODS,
        units="natural",
        atom_source={"two_level": {"omega0": 1.0, "alpha0": 1.0}},
    )


def _contour_pass(grids, atom, units):
    """One gated contour call on the union of the product grids (Rs, As) of
    the report's sections, each point evaluated once.  Returns contour(Rs, As):
    the entries of one of those grids, one row per acceleration as _gate_grid
    gives them; a section raises an error entry where it reads it."""
    R_at, a_at, pair_at = {}, {}, {}
    for Rs, As in grids:
        cols = [R_at.setdefault(R, len(R_at)) for R in map(float, Rs)]
        for j in [a_at.setdefault(a, len(a_at)) for a in map(float, As)]:
            for i in cols:
                pair_at.setdefault((i, j), len(pair_at))
    entries = _gate("contour", list(R_at), list(a_at), [i for i, _ in pair_at],
                    [j for _, j in pair_at], atom, units)

    def contour(Rs, As):
        return [[entries[pair_at[R_at[float(R)], a_at[float(a)]]] for R in Rs] for a in As]

    return contour


# the reduced separations of the inertial far-zone and far-zone a^2 sections,
# and the a R / c^2 of the large-aR section
_INERTIAL_FAR_R = (50.0, 100.0, 200.0)
_FAR_A2_R = tuple(np.logspace(math.log10(50.0), math.log10(500.0), 8))
_HIGH_AR = (50.0, 100.0, 200.0)


def _inertial_far_grid(u):
    return [Rt * u.restore_length(1.0) for Rt in _INERTIAL_FAR_R], [0.0]


def _section_inertial_far(atom, units, contour):
    u = units_for(atom, units)
    alpha0 = _reduce_atom(atom, u).alpha0
    lit = -23.0 * alpha0**2 / (4.0 * math.pi)
    printed = -23.0 * alpha0**2 / 4.0
    grid = list(_INERTIAL_FAR_R)
    (row,) = contour(*_inertial_far_grid(u))
    vals = []
    rows = []
    for Rt, entry in zip(grid, row):
        v = _result(entry)[0]
        vals.append(u.reduce_energy(v) * Rt**7)
        rows.append({"R": Rt, "V": u.reduce_energy(v)})
    slope = fit_slope(rows, "R", "V").slope
    # limit estimate: Richardson in 1/R^2 from the two largest R
    c = (vals[-1] * grid[-1] ** 2 - vals[-2] * grid[-2] ** 2) / (grid[-1] ** 2 - grid[-2] ** 2)
    return {
        "R_grid_omega0_over_c": grid,
        "R7_V": vals,
        "slope": slope,
        "limit_estimate": c,
        "literature_with_4pi": lit,
        "printed_without_4pi": printed,
        "ratio_to_literature": c / lit,
        "ratio_to_printed": c / printed,
        "pass": abs(c / lit - 1.0) <= 0.005 and abs(slope + 7.0) <= 0.05,
    }


def _inertial_near_grid(u):
    return [Rt * u.restore_length(1.0) for Rt in (0.01, 0.005)], [0.0]


def _section_inertial_near(atom, units, contour):
    u = units_for(atom, units)
    Rs, As = _inertial_near_grid(u)
    (row,) = contour(Rs, As)
    vals = [_result(entry)[0] / asymptotics.near_zone_value(R, atom, units=units)
            for R, entry in zip(Rs, row)]
    return {
        "C6": asymptotics.near_zone_inertial(atom, hbar=u.hbar_atomic),
        "ratio_to_C6_law": vals,
        "pass": all(abs(r - 1.0) <= 0.005 for r in vals),
    }


def _far_a2_grid(u):
    return ([Rt * u.restore_length(1.0) for Rt in _FAR_A2_R],
            [0.0, 1e-3 * u.restore_acceleration(1.0)])


def _section_far_a2(atom, units, contour):
    u = units_for(atom, units)
    Rs, As = _far_a2_grid(u)
    a, grid = As[1], list(_FAR_A2_R)
    inertial, accel = contour(Rs, As)
    rows = [{"R": Rt, "dV": u.reduce_energy(_result(e)[0] - _result(e0)[0])}
            for Rt, e0, e in zip(grid, inertial, accel)]
    fit = fit_slope(rows, "R", "dV")
    at = u.reduce_acceleration(a)
    alpha0 = _reduce_atom(atom, u).alpha0
    k_meas = [-r["dV"] * r["R"] ** 5 / (at**2 * alpha0**2) for r in rows]
    k_mean = float(np.exp(np.mean(np.log(k_meas))))
    printed = 1.0 / (4.0 * math.pi)
    printed_no_pi = 0.25
    ratios = {"printed_with_4pi": k_mean / printed,
              "printed_without_pi": k_mean / printed_no_pi}
    selected = min(ratios, key=lambda k: abs(ratios[k] - 1.0))
    return {
        "a_over_omega0c": 1e-3,
        "slope": fit.slope,
        "slope_pass": abs(fit.slope + 5.0) <= 0.1,
        "K_measured": k_mean,
        "K_printed_with_4pi": printed,
        "K_printed_without_pi": printed_no_pi,
        "ratio_to_printed_with_4pi": ratios["printed_with_4pi"],
        "ratio_to_printed_without_pi": ratios["printed_without_pi"],
        "selected_normalization": selected,
        "coefficient_pass": abs(ratios[selected] - 1.0) <= 0.05,
        "note": ("measured coefficient is 11/(4 pi) in units of "
                 "hbar a^2 alpha0^2 / (c^3 R^5); both printed normalizations "
                 "disagree with the direct evaluation of the integral"),
    }


EXPONENT_TOL = 0.05   # how far the near-zone fit's exponents may lie from (2, -6)


def _near_a2_grid(u):
    # R in [1e-3, 1e-2] c/omega0 and a in {0} and [1e-5, 1e-3] omega0 c,
    # 4 log-spaced values each
    return ((np.logspace(-3, -2, 4) * u.restore_length(1.0)).tolist(),
            [0.0, *(np.logspace(-5, -3, 4) * u.restore_acceleration(1.0)).tolist()])


def _section_near_a2(atom, units, contour):
    # fits |dV| = K a^2 R^-6 to the correction at a > 0; a correction that is
    # not attractive, exponents off (2, -6) by more than EXPONENT_TOL or an
    # error entry fail the section with the message
    Rs, As = _near_a2_grid(units_for(atom, units))
    try:
        inertial, *accel = contour(Rs, As)
        rows = []
        for i, R in enumerate(Rs):
            v0 = _result(inertial[i])[0]
            for a, row in zip(As[1:], accel):
                dv = _result(row[i])[0] - v0
                if not dv < 0.0:
                    raise InconsistentRegimeError(
                        f"near-zone correction is not attractive at R={R}, a={a}: {dv}")
                rows.append((a, R, dv))
        A = np.array([[1.0, math.log(a), math.log(R)] for a, R, _ in rows])
        y = np.array([math.log(-dv) for _, _, dv in rows])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        exp_a, exp_R = float(coef[1]), float(coef[2])
        if abs(exp_a - 2.0) > EXPONENT_TOL or abs(exp_R + 6.0) > EXPONENT_TOL:
            raise InconsistentRegimeError(
                f"fitted exponents ({exp_a:.4f}, {exp_R:.4f}) deviate from (2, -6) "
                f"beyond +-{EXPONENT_TOL}")
    except UnruhCPError as exc:
        return {"pass": False, "error": str(exc)}
    return {
        "K": float(np.exp(np.mean(np.log([-dv * R**6 / a**2 for a, R, dv in rows])))),
        "exponent_a": exp_a,
        "exponent_R": exp_R,
        "log_residual_rms": float(np.sqrt(np.mean((A @ coef - y) ** 2))),
        "pass": True,
    }


def _high_aR_grid(u):
    return ([aR / 0.01 * u.restore_length(1.0) for aR in _HIGH_AR],
            [0.01 * u.restore_acceleration(1.0)])


def _section_high_aR(atom, units, contour):
    u = units_for(atom, units)
    Rs, As = _high_aR_grid(u)
    (a,), (row,) = As, contour(Rs, As)
    points = []
    rows = []
    ok = True
    for aR, R, entry in zip(_HIGH_AR, Rs, row):
        v = _result(entry)[0]
        law = asymptotics.high_aR(R, a, atom, units=units)
        ratio = v / law
        ok = ok and abs(ratio - 1.0) <= 0.05
        points.append({"aR_over_c2": aR, "ratio_to_closed_form": ratio})
        rows.append({"R": aR / 0.01, "V": u.reduce_energy(v)})
    slope = fit_slope(rows, "R", "V").slope
    return {
        "a_over_omega0c": 0.01,
        "points": points,
        "slope_measured": slope,
        "slope_closed_form": -6.0,
        "pass": ok,
        "note": ("the integral carries an additional a^3/R^4 origin term "
                 "(measured slope ~ -4) that dominates the printed a/R^6 "
                 "law once (aR/c^2)^2 exceeds pi^2/3 + 1"),
    }


def _section_high_acc():
    # frozen closed-form cases use their own minimal atoms (natural units):
    # atom A has mu^2 = 1 at omega0 = 1, atom B has alpha_B(1) = 1 exactly
    atom_a = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=1.0),))
    atom_b = AtomSpec(transitions=(Transition(omega=math.sqrt(2.0),
                                              mu_sq=0.75 * math.sqrt(2.0)),))
    cases = [
        (1.0, 1.0, -10.0 / (3.0 * math.pi)),
        (10.0, 1.0, -(2.0 / (3.0 * math.pi)) * 1e-2 * (1.0 + 1e-2 + 3e-4)),
        (1.0, 3.0, 27.0 * (-10.0 / (3.0 * math.pi))),
    ]
    errs = []
    for R, a, expect in cases:
        v = asymptotics.potential_high_acc(R, a, atom_a, atom_b, units="natural")
        errs.append(abs(v / expect - 1.0))
    grid = list(np.logspace(1, 2, 6))
    rows = [{"R": R, "V": asymptotics.potential_high_acc(R, 1.0, atom_a, atom_b,
                                                         units="natural")}
            for R in grid]
    fit = fit_slope(rows, "R", "V")
    return {
        "example_rel_errors": errs,
        "slope_far": fit.slope,
        "pass": max(errs) <= 1e-12 and abs(fit.slope + 2.0) <= 0.05,
    }


def _section_occupation():
    rng = np.random.default_rng(20240811)
    n = 10_000
    omegas = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), n))
    accs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    # one array pass; the first 100 points also serve the thermality identity
    value, bose, _ = _occupation_parts(omegas, accs)
    min_value = float(np.min(value))
    ok_floor = min_value >= 0.5
    bound_ok = True
    ratios = []
    for y in (10.0, 30.0, 100.0, 1000.0):
        exact = mode_occupation(1.0, y).value
        approx = occupation_highacc(1.0, y)
        ratios.append(abs(approx / exact - 1.0) * y * y)
        bound_ok = bound_ok and abs(approx / exact - 1.0) <= 5.0 / y**2
    # thermality-breaking identity: value / (planck part) == 1 + a^2/(c w)^2
    w, a = omegas[:100], accs[:100]
    planck = 0.5 + bose[:100]
    ident_ok = bool(np.all(np.abs(value[:100] / planck / (1 + (a / w) ** 2) - 1.0) <= 1e-12))
    return {
        "floor_pass": min_value > 0.5,
        "highacc_bound_pass": bound_ok,
        "highacc_scaled_errors": ratios,
        "thermality_identity_pass": ident_ok,
        "pass": ok_floor and bound_ok and ident_ok,
    }


def _dual_method_grid(u):
    # Python floats, so that an oracle failure's message shows their reprs
    return ((np.logspace(-1, 2, 5) * u.restore_length(1.0)).tolist(),
            (np.logspace(-3, -1, 5) * u.restore_acceleration(1.0)).tolist())


def _section_dual_method(atom, units, contour):
    Rs, As = _dual_method_grid(units_for(atom, units))
    oracle = _gate_grid("oracle", Rs, As, atom, units)
    worst = 0.0
    failures = []
    for a, c_row, o_row in zip(As, contour(Rs, As), oracle):
        for R, entry, o in zip(Rs, c_row, o_row):
            v = _result(entry)[0]
            if isinstance(o, UnruhCPError):
                failures.append({"R": R, "a": a, "error": str(o)})
                continue
            worst = max(worst, abs(o[0] - v) / abs(v))
    return {
        "grid": {"R_omega0_over_c": [0.1, "...", 100.0], "a_over_omega0c": [1e-3, "...", 0.1]},
        "max_rel_diff": worst,
        "oracle_failures": failures,
        "pass": worst <= 1e-4 and not failures,
    }


def _section_determinism(config: SweepConfig):
    small = SweepConfig(atom=config.atom,
                        R_grid=GridSpec(min=0.5, max=5.0, count=3),
                        a_grid=GridSpec(min=1e-3, max=1e-2, count=2),
                        methods=("contour",), units=config.units)
    csv1, csv2 = (rows_to_csv(run_sweep(small)) for _ in range(2))
    return {"repeat_identical": csv1 == csv2, "pass": csv1 == csv2}


def compare_report(config: SweepConfig) -> dict:
    """Structured pass/fail report for every acceptance-grade check.

    Sections that need a nonzero acceleration are marked skipped when the
    configuration restricts the sweep to a = 0.
    """
    atom, units = config.atom, config.units
    a_points = config.a_grid.points()
    has_acceleration = any(a > 0.0 for a in a_points)

    report: dict = {"config": {
        "atom": config.atom_source if config.atom_source is not None else "inline",
        "R_grid": config.R_grid.as_dict(),
        "a_grid": config.a_grid.as_dict(),
        "methods": list(config.methods),
        "units": config.units,
    }}
    # every section that reads contour values takes them from one pass
    u = units_for(atom, units)
    grids = [_inertial_far_grid(u), _inertial_near_grid(u)]
    if has_acceleration:
        grids += [_far_a2_grid(u), _near_a2_grid(u), _high_aR_grid(u)]
        if "oracle" in config.methods:
            grids.append(_dual_method_grid(u))
    contour = _contour_pass(grids, atom, units)
    report["inertial_far"] = _section_inertial_far(atom, units, contour)
    report["inertial_near"] = _section_inertial_near(atom, units, contour)
    skipped = {"status": "skipped", "reason": "configuration restricts a to 0"}
    if has_acceleration:
        report["far_zone_a2"] = _section_far_a2(atom, units, contour)
        report["near_zone_a2"] = _section_near_a2(atom, units, contour)
        report["high_aR"] = _section_high_aR(atom, units, contour)
        report["high_acc"] = _section_high_acc()
        report["occupation"] = _section_occupation()
        if "oracle" in config.methods:
            report["dual_method"] = _section_dual_method(atom, units, contour)
        else:
            report["dual_method"] = {"status": "skipped", "reason": "oracle not requested"}
    else:
        for key in ("far_zone_a2", "near_zone_a2", "high_aR", "high_acc",
                    "occupation", "dual_method"):
            report[key] = dict(skipped)
    report["determinism"] = _section_determinism(config)

    def section_pass(sec):
        return sec.get("status") == "skipped" or bool(sec.get("pass"))

    hard_keys = ["inertial_far", "inertial_near", "near_zone_a2", "high_acc",
                 "occupation", "dual_method", "determinism"]
    flagged = []
    if has_acceleration:
        if not report["far_zone_a2"].get("coefficient_pass", True):
            flagged.append("far_zone_a2.coefficient")
        if not report["high_aR"].get("pass", True):
            flagged.append("high_aR")
        if not report["far_zone_a2"].get("slope_pass", True):
            hard_keys.append("far_zone_a2")  # slope failing is a hard failure
    report["flagged_discrepancies"] = flagged
    report["overall_pass"] = all(section_pass(report[k]) for k in hard_keys)
    report["acceptance_pass"] = report["overall_pass"] and not flagged
    return report
