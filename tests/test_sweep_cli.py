import contextlib
import io
import json
import math
import os
import pathlib
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

from unruhcp import (
    DomainError,
    GridSpec,
    InputError,
    NumericalFailure,
    SweepConfig,
    compare_report,
    default_config,
    fit_slope,
    rows_to_csv,
    run_sweep,
    two_level,
    units_for,
)
from unruhcp import cli, load_atom, sweep
from unruhcp.constants import HBAR_CGS
from unruhcp.sweep import CSV_COLUMNS, read_rows_csv


def _config(atom=None, **kw):
    defaults = dict(atom=atom or two_level(1.0, 1.0),
                    R_grid=GridSpec(min=0.5, max=5.0, count=3),
                    a_grid=GridSpec(value=0.0),
                    methods=("contour",))
    defaults.update(kw)
    return SweepConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
def test_grid_spec_validation():
    with pytest.raises(InputError):
        GridSpec.from_obj({"min": 1.0, "max": 0.5, "count": 3})
    with pytest.raises(InputError):
        GridSpec.from_obj({"min": 1.0, "max": 2.0, "count": 1})
    with pytest.raises(InputError):
        GridSpec.from_obj({"max": 2.0})
    # a fractional count was once truncated and a boolean read as 1.0
    for bad in ({"value": math.nan}, {"min": 1.0, "max": math.inf, "count": 3},
                {"min": 1, "max": 2, "count": "x"}, {"value": "x"},
                {"min": 1, "max": 2, "count": 2.9}, {"value": True}, True):
        with pytest.raises(InputError):
            GridSpec.from_obj(bad)
    # a grid that gave both forms once took value silently, and a misspelt
    # range key is refused too
    for bad in ({"value": 0.01, "min": 1.0, "max": 2.0, "count": 5}, {"value": 0.01, "count": 3},
                {"min": 1.0, "max": 2.0, "cuont": 3}):
        with pytest.raises(InputError, match="either 'value' or"):
            GridSpec.from_obj(bad)
    # a count numpy cannot build once ended in a bare ValueError or a
    # MemoryError; numpy refuses both before it allocates anything
    for count in (1e15, 1e20):
        with pytest.raises(InputError, match=f"grid count {int(count)} "):
            GridSpec.from_obj({"min": 1, "max": 2, "count": count}).points()
    g = GridSpec.from_obj({"value": 0.0})
    assert g.points() == [0.0]
    g = GridSpec.from_obj({"min": 1.0, "max": 100.0, "count": 3})
    assert g.points() == pytest.approx([1.0, 10.0, 100.0])


def test_grid_spec_points_end_at_min_and_max():
    # np.logspace once gave 49.99999999999999 ... 499.99999999999994 here, so
    # a fit window of 50,500 held 7 of the 8 points
    pts = GridSpec.from_obj({"min": 50.0, "max": 500.0, "count": 8}).points()
    assert len(pts) == 8 and pts[0] == 50.0 and pts[-1] == 500.0
    assert all(a < b for a, b in zip(pts, pts[1:]))
    rows = [{"R": R, "V": R**-7} for R in pts]
    assert fit_slope(rows, "R", "V", window=(50.0, 500.0)).n_points == 8


def test_sweep_config_validation():
    with pytest.raises(InputError):
        _config(methods=("contour", "sorcery"))
    with pytest.raises(InputError):
        SweepConfig.from_dict({})
    with pytest.raises(InputError):
        SweepConfig.from_dict([])
    with pytest.raises(InputError, match="list"):   # not split into characters
        SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                               "methods": "contour"})
    # the accuracy is the fixed potential.REL_TOL: a quad entry is refused
    for dropped in ({"origin_cutoff": 1e-3}, {"max_subdivisions": 200},
                    {"damping_schedule": [1e-2, 3e-3, 1e-3]}, {"abs_tol": 1e-30},
                    {"matsubara_rel_cutoff": 1e-12}, {"matsubara_hard_cap": 50_000},
                    {"rel_tol": 1e-6}):
        with pytest.raises(InputError):
            SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                                   "quad": dropped})
    # any other top-level key is refused: a misspelt a_grid once swept a = 0
    # only, and exited 0
    with pytest.raises(InputError, match="unknown key 'a_gird'"):
        SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                               "a_gird": {"value": 0.01}})
    with pytest.raises(InputError, match="output_path"):   # once wrote to fd 2 and closed it
        SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                               "output_path": 2})
    # an atom is an object or a path: these once ended in a TypeError (and an
    # integer was taken for a file descriptor)
    for atom in (None, 2.5, ["x"]):
        with pytest.raises(InputError, match="file path"):
            SweepConfig.from_dict({"atom": atom})
    # units is a mode name: null once meant "natural" with explicit transitions
    for atom in ({"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                 {"transitions": [{"omega": 1.0, "mu_sq": 1.5}]}):
        with pytest.raises(InputError, match="unknown unit mode"):
            SweepConfig.from_dict({"atom": atom, "units": None})
    with pytest.raises(InputError):   # no contour run to catch the nan
        SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                               "a_grid": {"value": math.nan},
                               "methods": ["asymptotic"]})
    cfg = SweepConfig.from_dict({
        "atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
        "R_grid": {"min": 1.0, "max": 2.0, "count": 2},
        "a_grid": {"value": 0.0},
        "methods": ["contour"],
    })
    assert cfg.units == "natural"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------
def test_sweep_inertial_monotone_rows():
    rows = run_sweep(_config())
    assert len(rows) == 3
    vals = [r.V_contour for r in rows]
    assert all(v < 0 for v in vals)
    assert all(abs(a) > abs(b) for a, b in zip(vals, vals[1:]))


def test_sweep_row_order_and_completeness():
    cfg = _config(R_grid=GridSpec(min=1.0, max=2.0, count=2),
                  a_grid=GridSpec(min=1e-3, max=1e-2, count=2))
    rows = run_sweep(cfg)
    keys = [(r.a, r.R) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == 4


def test_sweep_excited_regime_degrades_to_warning():
    cfg = _config(R_grid=GridSpec(value=1.0), a_grid=GridSpec(value=100.0),
                  methods=("contour", "asymptotic"))
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].V_contour is None
    assert any("regime error" in w for w in rows[0].warnings)
    # the high-acceleration law needs an atom B the config does not name (it
    # once paired the atom with itself, whose line sits at k_A)
    assert rows[0].V_asymptotic is None
    assert "asymptotic: the high-acceleration law needs atom B" in rows[0].warnings
    # closed forms beyond the range of a double once raised a bare
    # OverflowError or ZeroDivisionError out of run_sweep, losing every row:
    # at R = 1e50, a = 0 the far-zone law underflows to -0.0, at R = 1e-60
    # the near-zone law overflows and the row carries the warning; log-spaced
    # grids hand the laws numpy scalars, value grids Python floats
    for R_grid in (GridSpec(value=1e50), GridSpec(min=1e50, max=1e51, count=2)):
        rows = run_sweep(_config(R_grid=R_grid, methods=("contour", "asymptotic")))
        assert len(rows) == R_grid.count
        assert rows[0].V_contour == 0.0 and rows[0].V_asymptotic == 0.0
        assert math.copysign(1.0, rows[0].V_asymptotic) == -1.0
    for R_grid in (GridSpec(value=1e-60), GridSpec(min=1e-60, max=1e-3, count=2)):
        rows = run_sweep(_config(R_grid=R_grid, methods=("contour", "asymptotic")))
        assert len(rows) == R_grid.count
        assert rows[0].V_contour is None and rows[0].V_asymptotic is None
        assert any(w.startswith("contour: numerical failure") for w in rows[0].warnings)
        assert ("asymptotic: the closed-form value lies beyond the range of a double"
                in rows[0].warnings)
        assert all(row.V_asymptotic is not None for row in rows[1:])


def test_sweep_dual_method_rel_diff():
    cfg = _config(R_grid=GridSpec(min=1.0, max=10.0, count=2),
                  a_grid=GridSpec(min=1e-3, max=1e-2, count=2),
                  methods=("contour", "oracle"))
    rows = run_sweep(cfg)
    assert all(r.rel_diff is not None and r.rel_diff < 1e-4 for r in rows)


def test_sweep_determinism():
    cfg = _config(R_grid=GridSpec(min=0.5, max=5.0, count=3),
                  a_grid=GridSpec(min=1e-3, max=1e-2, count=2))
    assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(run_sweep(cfg))


# Runs in a fresh interpreter; prints the live thread count after importing
# the package and after serial potential_grid, potential_oracle_grid and
# run_sweep calls; then makes the same calls from eight threads of its own at
# once, with a short switch interval, and prints whether any of the eight is
# still running, the live thread count after they are joined and whether
# every concurrent result has the serial result's bytes.
THREAD_PROBE = r"""
import json, sys, threading
import unruhcp as u
counts = [threading.active_count()]
atom = u.two_level(1.0, 1.0)
Rs, As = [1e-3, 0.7, 40.0], [0.0, 0.02, 0.6, 50.0]
cfg = u.SweepConfig(atom=atom, R_grid=u.GridSpec(min=0.5, max=5.0, count=5),
                    a_grid=u.GridSpec(min=1e-3, max=1e-2, count=2),
                    methods=("contour", "oracle", "asymptotic"))
calls = [lambda: repr(u.potential_grid(Rs, As, atom)),
         lambda: repr(u.potential_oracle_grid(Rs, As, atom)),
         lambda: u.rows_to_csv(u.run_sweep(cfg))]
serial = [call() for call in calls]
counts.append(threading.active_count())
same = []
def caller(k):
    for j in range(len(calls)):
        i = (j + k) % len(calls)
        same.append(calls[i]() == serial[i])
callers = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
alive = any(t.is_alive() for t in callers)
counts.append(threading.active_count())
print(json.dumps({"counts": counts, "alive": alive, "same": same}))
"""


def test_package_calls_from_caller_threads_match_serial():
    # the evaluators and the sweep start no thread, at import or per call,
    # and calls made at once from the caller's own threads return the serial
    # calls' bytes (the "safe for concurrent use" contract of potential.py)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    seen = json.loads(proc.stdout)
    assert seen["counts"] == [1, 1, 1] and not seen["alive"]
    assert seen["same"] == [True] * 24


def test_csv_round_trip(tmp_path):
    rows = run_sweep(_config())
    path = tmp_path / "rows.csv"
    path.write_text(rows_to_csv(rows))
    back = read_rows_csv(str(path))
    assert len(back) == len(rows)
    assert back[0]["V_contour"] == rows[0].V_contour  # shortest-repr round trip
    assert back[0]["V_asymptotic"] is None


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------
def test_fit_slope_exact_power_law():
    rows = [{"x": x, "y": 7.3 * x**-7} for x in (1.0, 2.0, 3.7, 5.0, 8.0, 13.0)]
    fit = fit_slope(rows, "x", "y")
    assert fit.slope == pytest.approx(-7.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(7.3), abs=1e-10)


def test_fit_slope_mixture_bound():
    rows = [{"x": x, "y": 2.0 * x**-7 + 1e-3 * x**-5} for x in
            (1.0, 1.8, 3.2, 5.6, 10.0)]
    fit = fit_slope(rows, "x", "y", window=(1.0, 10.0))
    assert -7.0 < fit.slope < -5.0


def test_fit_slope_errors():
    rows = [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 0.5}]
    with pytest.raises(InputError):
        fit_slope(rows, "x", "y")
    rows = [{"x": x, "y": y} for x, y in [(1.0, 1.0), (2.0, -0.5), (3.0, 0.1)]]
    with pytest.raises(InputError):
        fit_slope(rows, "x", "y")


def test_fit_slope_names_a_missing_field():
    # a typo was once an AttributeError on sweep rows; the missing_column case
    # of test_cli_fit_bad_csv_is_an_input_error covers the dicts of a CSV
    with pytest.raises(InputError, match="no row has the field 'V_contuor'"):
        fit_slope(run_sweep(_config()), "R", "V_contuor")
    # a column that exists but is empty everywhere keeps its message
    empty = [{"x": x, "y": None} for x in (1.0, 2.0, 4.0)]
    with pytest.raises(InputError, match="needs >= 3 usable points, got 0"):
        fit_slope(empty, "x", "y")


def test_fit_slope_window_and_missing():
    rows = [{"x": x, "y": None if x > 8 else x**-2.0} for x in
            (1.0, 2.0, 4.0, 6.0, 10.0)]
    fit = fit_slope(rows, "x", "y", window=(1.0, 8.0))
    assert fit.n_points == 4
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def test_report_inertial_only_sections_skipped():
    cfg = _config(a_grid=GridSpec(value=0.0))
    report = compare_report(cfg)
    assert report["inertial_far"]["pass"] is True
    assert report["far_zone_a2"]["status"] == "skipped"
    assert report["high_aR"]["status"] == "skipped"
    assert report["flagged_discrepancies"] == []
    assert report["acceptance_pass"] is True


def test_report_byte_identical():
    def plain(x):   # Python types only: the report is serialised as it is
        if isinstance(x, dict):
            return all(type(k) is str and plain(v) for k, v in x.items())
        if isinstance(x, list):
            return all(map(plain, x))
        return type(x) in (bool, int, float, str, type(None))

    for cfg in (_config(a_grid=GridSpec(value=0.0)), default_config()):
        report = compare_report(cfg)
        assert plain(report)
        d1 = json.dumps(report, indent=2)
        d2 = json.dumps(compare_report(cfg), indent=2)
        assert d1 == d2


def test_near_a2_section_reports_a_grid_failure(atom, monkeypatch):
    # the report, whose one contour pass holds every point of the near-zone
    # fit's grid, turns a failed entry into a failed near_zone_a2 check with
    # the message
    failure = NumericalFailure("contour quadrature missed its tolerance (injected)")
    Rs, As = sweep._near_a2_grid(units_for(atom))
    gate = sweep._gate

    def failing_gate(method, R_list, A_list, ri, aj, *args):
        entries = gate(method, R_list, A_list, ri, aj, *args)
        for p, (i, j) in enumerate(zip(ri, aj)):
            if (R_list[i], A_list[j]) == (Rs[2], As[1]):
                entries[p] = failure
        return entries

    monkeypatch.setattr(sweep, "_gate", failing_gate)
    config = SweepConfig(atom=atom, R_grid=GridSpec(value=1.0), a_grid=GridSpec(value=1e-3))
    assert compare_report(config)["near_zone_a2"] == {"pass": False, "error": str(failure)}


def test_near_a2_section_smoke(atom):
    # the section on a contour pass over its own grid alone
    grid = sweep._near_a2_grid(units_for(atom))
    sec = sweep._section_near_a2(atom, "natural", sweep._contour_pass([grid], atom, "natural"))
    assert sec["pass"] is True
    assert sec["exponent_a"] == pytest.approx(2.0, abs=0.05)
    assert sec["exponent_R"] == pytest.approx(-6.0, abs=0.05)
    # two-level closed-form cross-check: K = (3/pi) * (3 pi/4) alpha0^2 = 9/4
    assert sec["K"] == pytest.approx(2.25, rel=1e-3)


def _near_a2_section(atom, value):
    """The near_zone_a2 section on a contour reader whose entry at (R, a)
    has the value value(R, a)."""
    def contour(Rs, As):
        return [[(value(R, a),) for R in Rs] for a in As]

    return sweep._section_near_a2(atom, "natural", contour)


def test_near_a2_section_fits_the_a2_law(atom):
    # the reader of the two failing cases below, on the law itself
    sec = _near_a2_section(atom, lambda R, a: -2.25 * a * a / R**6)
    assert sec["pass"] is True
    assert sec["K"] == pytest.approx(2.25, rel=1e-12)
    assert (sec["exponent_a"], sec["exponent_R"]) == pytest.approx((2.0, -6.0), abs=1e-12)


def test_near_a2_section_fails_on_a_correction_that_is_not_attractive(atom):
    Rs, As = sweep._near_a2_grid(units_for(atom))
    sec = _near_a2_section(atom, lambda R, a: -1.0 / R**6)    # dV = 0
    assert sec == {"pass": False, "error": "near-zone correction is not attractive at "
                                           f"R={Rs[0]}, a={As[1]}: 0.0"}


def test_near_a2_section_fails_on_exponents_off_the_law(atom):
    sec = _near_a2_section(atom, lambda R, a: -a**3 / R**6)
    assert sec == {"pass": False, "error": "fitted exponents (3.0000, -6.0000) deviate "
                                           f"from (2, -6) beyond +-{sweep.EXPONENT_TOL}"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _cli(*args):
    """Run cli.main in process; the result has a subprocess's fields."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(["unruhcp", *args], code,
                                       out.getvalue(), err.getvalue())


def _cli_process(*args):
    """Run ``python -m unruhcp.cli`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "unruhcp.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def atom_file(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({"two_level": {"omega0": 1.0, "alpha0": 1.0}}))
    return str(path)


@pytest.fixture()
def config_file(tmp_path, atom_file):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "atom": atom_file,
        "R_grid": {"min": 0.5, "max": 5.0, "count": 3},
        "a_grid": {"value": 0.0},
        "methods": ["contour"],
    }))
    return str(path)


def test_cli_occupation():
    proc = _cli("occupation", "--omega", "1", "--accel", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == pytest.approx(1.0 + 2.0 / math.expm1(2 * math.pi), rel=1e-12)
    assert doc["value"] == pytest.approx(doc["thermal_part"] + doc["nonthermal_part"] + 0.5)


def test_cli_eval_fixed_field_order(atom_file):
    proc = _cli("eval", "--R", "1.0", "--accel", "0.01", "--atom", atom_file)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert list(doc) == ["R", "a", "units", "method", "contour"]
    assert list(doc["contour"]) == ["value", "error_estimate", "parts", "regime", "warnings"]


def test_cli_eval_exit_codes(atom_file, tmp_path):
    assert _cli("eval", "--R", "1.0", "--accel", "100.0",
                "--atom", atom_file).returncode == 2  # regime error
    assert _cli("eval", "--R", "1.0", "--accel", "0.0",
                "--atom", str(tmp_path / "nope.json")).returncode == 1
    # a dense pole ladder just above the switch, which once missed the gate,
    # evaluates on both methods
    dense = ("eval", "--R", "1e-9", "--accel", "0.13", "--atom", atom_file)
    assert _cli(*dense, "--method", "contour").returncode == 0
    assert _cli(*dense, "--method", "oracle").returncode == 0
    # a separation whose powers leave the range of doubles once ended in an
    # OverflowError traceback: a numerical failure or a value that underflows
    for method in ("contour", "oracle", "both"):
        far = _cli("eval", "--R", "1e100", "--accel", "0.01", "--atom", atom_file,
                   "--method", method)
        assert far.returncode in (0, 3)
    # both values underflow to -0.0: their relative difference is 0, as in a
    # sweep row, where the CLI once divided by zero
    zero = _cli("eval", "--R", "1e50", "--accel", "0.0", "--atom", atom_file,
                "--method", "both")
    assert zero.returncode == 0
    assert json.loads(zero.stdout)["rel_diff"] == 0.0


def test_cli_rejects_non_finite_arguments(atom_file, tmp_path, capsys):
    # in process: a nan acceleration once passed as a = 0, an infinite
    # separation returned -0.0 and an infinite acceleration crashed occupation
    assert cli.main(["eval", "--R", "1", "--accel", "nan", "--atom", atom_file]) == 1
    assert cli.main(["eval", "--R", "inf", "--accel", "0.01", "--atom", atom_file]) == 1
    assert cli.main(["occupation", "--omega", "1", "--accel", "inf"]) == 1
    # an occupation beyond a double once printed Infinity, which is not JSON
    assert cli.main(["occupation", "--omega", "1e-160", "--accel", "1e160"]) == 1
    # the near law once printed "a": NaN, which is not JSON, and took a < 0
    for accel in ("nan", "-1"):
        assert cli.main(["asymptotic", "--law", "near", "--R", "0.01", "--accel", accel,
                         "--atom", atom_file]) == 1
    # an asymptotic-only sweep once ran a nan acceleration through
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"atom": atom_file, "a_grid": {"value": math.nan},
                               "methods": ["asymptotic"]}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    # an infinite tolerance once exited 0 with every tolerance gate off, and a
    # quad entry is now refused whatever it holds; a malformed grid once
    # escaped as a traceback and a fractional count was truncated
    for doc in ({"atom": atom_file, "quad": {"rel_tol": math.inf}},
                {"atom": atom_file, "R_grid": {"min": 1, "max": 2, "count": "x"}},
                {"atom": atom_file, "R_grid": {"min": 1, "max": 2, "count": 2.9}}):
        cfg.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().out == ""
    # the sweep runs in the calling thread: --workers is an unknown flag, and
    # max_workers is the integer 1 alone (2.0, "2" and None once escaped as a
    # bare TypeError, and True ran on one worker); a numpy integer is an
    # integer
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["sweep", "--config", "default", "--workers", "1"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    for workers in (0, -3, 2, 4, np.int64(2), 1.0, 2.0, "1", "2", None, True, False):
        with pytest.raises(InputError, match="max_workers must be 1, since the sweep runs "
                                             "in the calling thread"):
            run_sweep(_config(), max_workers=workers)
    assert (rows_to_csv(run_sweep(_config(), max_workers=np.int64(1)))
            == rows_to_csv(run_sweep(_config(), max_workers=1))
            == rows_to_csv(run_sweep(_config())))
    # a separation or acceleration outside the domain raises the gate's
    # DomainError before the classifiers' InputError, which a sweep without
    # a gated method raises
    for grids in ({"R_grid": GridSpec(value=-1.0)}, {"a_grid": GridSpec(value=-0.5)}):
        with pytest.raises(DomainError, match="must be finite"):
            run_sweep(_config(**grids))
        with pytest.raises(InputError, match="must be finite"):
            run_sweep(_config(methods=("asymptotic",), **grids))
    # a negative frequency is the occupation's domain error in both unit
    # modes; in si mode it was once refused as a unit anchor
    for units in ("natural", "si"):
        assert cli.main(["occupation", "--omega", "-1", "--accel", "1", "--units", units]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "mode frequency" in captured.err


def test_cli_eval_both(atom_file):
    proc = _cli("eval", "--R", "2.0", "--accel", "0.01", "--atom", atom_file,
                "--method", "both")
    doc = json.loads(proc.stdout)
    assert doc["rel_diff"] < 1e-4


def test_cli_asymptotic(atom_file):
    proc = _cli("asymptotic", "--law", "far-low", "--R", "1.0", "--accel", "1.0",
                "--atom", atom_file)
    doc = json.loads(proc.stdout)
    assert doc["law"] == "far-low"
    assert doc["value"] == pytest.approx(-5.75 - 1.0 / (4 * math.pi), rel=1e-12)
    assert "parts" in doc
    proc = _cli("asymptotic", "--law", "near", "--R", "0.01", "--accel", "0",
                "--atom", atom_file)
    doc = json.loads(proc.stdout)
    assert doc["value"] == pytest.approx(-0.75 / 1e-12, rel=1e-12)
    assert doc["slope"] == -6.0
    # beyond the range of a double: the law underflows to -0.0, or is an
    # error (exit 1); both once ended in a traceback
    proc = _cli("asymptotic", "--law", "far-low", "--R", "1e50", "--atom", atom_file)
    doc = json.loads(proc.stdout)
    assert doc["value"] == 0.0 and doc["slope"] == -7.0
    proc = _cli("asymptotic", "--law", "near", "--R", "1e-60", "--atom", atom_file)
    assert proc.returncode == 1 and proc.stdout == ""
    # the far-low value is far_low_acc's: a sum of the two parts beyond the
    # largest double is an error, where it once printed "value": -Infinity
    proc = _cli("asymptotic", "--law", "far-low", "--R", "1.2508705599405717e-44",
                "--accel", "6.7955792741606375e+44", "--atom", atom_file)
    assert proc.returncode == 1 and proc.stdout == ""
    # the high-acceleration law needs atom B: an input error, not a traceback
    proc = _cli("asymptotic", "--law", "high-acc", "--R", "1.0", "--accel", "50",
                "--atom", atom_file)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "--atom-b" in proc.stderr


def test_si_two_level_shorthand_equals_its_explicit_transition(tmp_path):
    # in si mode the shorthand's alpha0 is in cm^3, so mu^2 = 1.5 hbar_cgs
    # omega0 alpha0; it was once expanded with hbar = 1, 9.5e26 times too large
    omega0, alpha0 = 4e15, 1e-24
    short = {"two_level": {"omega0": omega0, "alpha0": alpha0}}
    explicit = {"transitions": [{"omega": omega0, "mu_sq": 1.5 * HBAR_CGS * omega0 * alpha0}]}
    paths = []
    for name, doc in (("short", short), ("explicit", explicit)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    for argv in (("eval", "--R", "1e-7", "--accel", "1e22"),
                 ("asymptotic", "--law", "near", "--R", "1e-9"),
                 ("asymptotic", "--law", "far-low", "--R", "1e-5", "--accel", "1e22")):
        procs = [_cli(*argv, "--atom", str(path), "--units", "si") for path in paths]
        assert procs[0].returncode == 0 and procs[0].stdout == procs[1].stdout
    config = SweepConfig.from_dict({"atom": short, "units": "si"})
    assert config.atom == load_atom(explicit) != load_atom(short)


def test_cli_sweep_and_fit(atom_file, config_file, tmp_path):
    out = tmp_path / "rows.csv"
    proc = _cli("sweep", "--config", config_file, "--out", str(out))
    assert proc.returncode == 0
    text1 = out.read_text()
    assert text1.splitlines()[0].startswith("R,a,regime,V_contour")
    proc = _cli("sweep", "--config", config_file, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == text1  # byte-identical across processes

    proc = _cli("fit", "--input", str(out), "--x", "R", "--y", "V_contour",
                "--window", "0.4,6.0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert -7.0 < doc["slope"] < -5.0  # crossover-zone slope between the limits


def test_cli_unwritable_output_is_an_input_error(tmp_path, capsys):
    # a missing output directory once escaped as a traceback
    for command in ("sweep", "report"):
        out = tmp_path / "missing" / f"{command}.out"
        assert cli.main([command, "--config", "default", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot write {str(out)!r}")


def test_cli_fit_bad_window(atom_file, config_file, tmp_path):
    out = tmp_path / "rows.csv"
    _cli("sweep", "--config", config_file, "--out", str(out))
    assert _cli("fit", "--input", str(out), "--x", "R", "--y", "V_contour",
                "--window", "oops").returncode == 1


_TEXT_COLUMNS = b"R,regime,V,warnings\n1,near,1,\n2,near,2,\n3,near,3,\n"


@pytest.mark.parametrize("body, x, y, message", [
    # non-numeric field: once a ValueError traceback
    (b"R,V\n1,abc\n2,3\n3,4\n", "R", "V", "could not convert string to float: 'abc'"),
    # x = 0 is dropped: once a LinAlgError traceback
    (b"R,V\n0,1\n1,2\n2,3\n", "R", "V", "needs >= 3 usable points, got 2"),
    # not UTF-8: once a UnicodeDecodeError traceback
    (b"R,V\n1,1\n2,\xff\xfe\n3,2\n", "R", "V", "can't decode byte 0xff"),
    # one distinct x: once slope 0.0 and exit 0
    (b"R,V\n2,1\n2,2\n2,3\n", "R", "V", "needs >= 2 distinct R values"),
    # non-finite value: once a nan fit and exit 0
    (b"R,V\n1,inf\n2,2\n3,3\n", "R", "V", "non-finite value in the fit"),
    # negative x: once a fit of log|x|, slope -2.0
    (b"R,V\n-1,1\n2,0.25\n-4,0.0625\n", "R", "V", "negative R = -1.0"),
    # text columns of a sweep CSV: once a TypeError traceback
    (_TEXT_COLUMNS, "R", "regime", "regime is not a numeric field"),
    (_TEXT_COLUMNS, "warnings", "V", "warnings is not a numeric field"),
    # a row longer than the header: once a TypeError traceback from float(list)
    (b"R,V\n1,1\n2,0.015625,7\n4,0.000244140625\n", "R", "V",
     "line 3: expected the header's 2 fields, got 3"),
    # a row shorter than the header: once dropped from the fit without a word
    (b"R,V\n1,1\n2\n4,0.000244140625\n8,3.814697265625e-06\n", "R", "V",
     "line 3: expected the header's 2 fields, got 1"),
    # a repeated column: the last one was once fitted, exit 0
    (b"R,V,V\n1,1,1\n2,0.015625,2\n4,0.000244140625,3\n", "R", "V",
     "the header repeats the column 'V'"),
    # a typo in a column name: once "needs >= 3 usable points, got 0"
    (b"R,V\n1,1\n2,0.015625\n4,0.000244140625\n", "R", "V_contuor",
     "no row has the field 'V_contuor'"),
], ids=["non_numeric", "zero_x", "not_utf8", "equal_x", "non_finite", "negative_x",
        "text_y", "text_x", "long_row", "short_row", "repeated_column", "missing_column"])
def test_cli_fit_bad_csv_is_an_input_error(tmp_path, body, x, y, message):
    path = tmp_path / "rows.csv"
    path.write_bytes(body)
    proc = _cli("fit", "--input", str(path), "--x", x, "--y", y)
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr.startswith("input error")
    assert message in proc.stderr


def test_fit_slope_drops_zero_x():
    rows = [{"x": x, "y": 3.0 * x**-6 if x else 1.0} for x in (0.0, 1.0, 2.0, 4.0)]
    fit = fit_slope(rows, "x", "y")
    assert fit.n_points == 3
    assert fit.slope == pytest.approx(-6.0, abs=1e-12)


def test_cli_report_inertial_config_passes(config_file, tmp_path):
    out = tmp_path / "report.json"
    proc = _cli("report", "--config", config_file, "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["acceptance_pass"] is True
    assert doc["far_zone_a2"]["status"] == "skipped"


def test_cli_eval_custom_quad(atom_file, tmp_path, capsys):
    # the accuracy is the fixed potential.REL_TOL: --quad is an unknown flag
    quad_file = tmp_path / "quad.json"
    quad_file.write_text(json.dumps({"rel_tol": 1e-5}))
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["eval", "--R", "1.0", "--accel", "0.01", "--atom", atom_file,
                  "--quad", str(quad_file), "--method", "both"])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --quad" in captured.err


def test_cli_eval_si_units(tmp_path):
    # the same reduced physics expressed in SI/cgs quantities
    from unruhcp.constants import C_SI, HBAR_CGS, HBAR_SI

    omega = 2.45e15
    alpha0_cm3 = (C_SI / omega) ** 3 * 1e6
    atom = {"transitions": [{"omega": omega,
                             "mu_sq": 1.5 * HBAR_CGS * omega * alpha0_cm3}]}
    path = tmp_path / "atom_si.json"
    path.write_text(json.dumps(atom))
    R = 1.0 * C_SI / omega
    a = 0.05 * omega * C_SI
    proc = _cli("eval", "--R", repr(R), "--accel", repr(a), "--atom", str(path),
                "--units", "si")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    reduced = doc["contour"]["value"] / (HBAR_SI * omega)
    assert reduced == pytest.approx(-0.6574139244876018, rel=1e-9)


def test_cli_report_default_flags_discrepancies(tmp_path):
    # the one real process: covers the exit code through sys.exit(main())
    out = tmp_path / "report.json"
    proc = _cli_process("report", "--config", "default", "--out", str(out))
    assert proc.returncode == 4  # honest acceptance failure on flagged checks
    doc = json.loads(out.read_text())
    assert "far_zone_a2.coefficient" in doc["flagged_discrepancies"]
    assert "high_aR" in doc["flagged_discrepancies"]
    assert doc["overall_pass"] is True


def test_run_report_script(tmp_path, capsys):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_report.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--out-dir", str(tmp_path)]) == 4
    assert (tmp_path / "sweep.csv").read_text().startswith(",".join(CSV_COLUMNS) + "\n")
    report = json.loads((tmp_path / "report.json").read_text())
    lines = capsys.readouterr().out.splitlines()
    # one status line per section, far_zone_a2 (no single pass flag) included
    sections = [k for k, v in report.items() if isinstance(v, dict) and k != "config"]
    assert [line.split()[0] for line in lines[:len(sections)]] == sections
    assert "far_zone_a2        slope PASS, coefficient FAIL" in lines
    # each measured law carries its report section's numbers as printed
    far, near, far_a2 = report["inertial_far"], report["inertial_near"], report["far_zone_a2"]
    near_a2, high = report["near_zone_a2"], report["high_aR"]
    laws = {
        "inertial far zone": [f"{far['slope']:+.4f}", f"{far['limit_estimate']:.5f}",
                              f"{far['literature_with_4pi']:.5f}"],
        "inertial near zone": [f"{near['ratio_to_C6_law'][0]:.5f}", "0.01",
                               f"{near['C6']:.5f}"],
        "far-zone a^2 term": [f"{far_a2['slope']:+.4f}", f"{far_a2['K_measured']:.5f}",
                              f"{far_a2['ratio_to_printed_with_4pi']:.3f}"],
        "near-zone a^2 term": [f"{near_a2['exponent_a']:+.4f}", f"{near_a2['exponent_R']:+.4f}",
                               f"{near_a2['K']:.5f}"],
        "large aR/c^2": [f"{high['slope_measured']:+.4f}",
                         f"{high['points'][0]['ratio_to_closed_form']:.1f}"],
    }
    for prefix, numbers in laws.items():
        (line,) = [line for line in lines if line.startswith(prefix)]
        assert re.findall(r"[-+]?\d+\.\d+", line) == numbers
