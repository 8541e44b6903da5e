import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

from unruhcp import (
    GridSpec,
    InputError,
    SweepConfig,
    compare_report,
    default_config,
    fit_slope,
    rows_to_csv,
    run_sweep,
    two_level,
)
from unruhcp import cli, load_atom
from unruhcp.constants import HBAR_CGS
from unruhcp.sweep import read_rows_csv


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
    g = GridSpec.from_obj({"value": 0.0})
    assert g.points() == [0.0]
    g = GridSpec.from_obj({"min": 1.0, "max": 100.0, "count": 3})
    assert g.points() == pytest.approx([1.0, 10.0, 100.0])


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
    # not QuadratureSpec fields
    for dropped in ({"origin_cutoff": 1e-3}, {"max_subdivisions": 200},
                    {"damping_schedule": [1e-2, 3e-3, 1e-3]}, {"abs_tol": 1e-30},
                    {"matsubara_rel_cutoff": 1e-12}, {"matsubara_hard_cap": 50_000}):
        with pytest.raises(InputError):
            SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                                   "quad": dropped})
    with pytest.raises(InputError, match="output_path"):   # once wrote to fd 2 and closed it
        SweepConfig.from_dict({"atom": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
                               "output_path": 2})
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


def test_sweep_determinism_and_concurrency():
    cfg = _config(R_grid=GridSpec(min=0.5, max=5.0, count=3),
                  a_grid=GridSpec(min=1e-3, max=1e-2, count=2))
    text1 = rows_to_csv(run_sweep(cfg, max_workers=1))
    text2 = rows_to_csv(run_sweep(cfg, max_workers=1))
    text4 = rows_to_csv(run_sweep(cfg, max_workers=4))
    assert text1 == text2 == text4


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


def test_cli_rejects_non_finite_arguments(atom_file, tmp_path, capsys):
    # in process: a nan acceleration once passed as a = 0, an infinite
    # separation returned -0.0 and an infinite acceleration crashed occupation
    assert cli.main(["eval", "--R", "1", "--accel", "nan", "--atom", atom_file]) == 1
    assert cli.main(["eval", "--R", "inf", "--accel", "0.01", "--atom", atom_file]) == 1
    assert cli.main(["occupation", "--omega", "1", "--accel", "inf"]) == 1
    # an occupation beyond a double once printed Infinity, which is not JSON
    assert cli.main(["occupation", "--omega", "1e-160", "--accel", "1e160"]) == 1
    # an asymptotic-only sweep once ran a nan acceleration through
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"atom": atom_file, "a_grid": {"value": math.nan},
                               "methods": ["asymptotic"]}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    # an infinite tolerance once exited 0 with every tolerance gate off; a
    # malformed grid once escaped as a traceback and a fractional count was truncated
    for doc in ({"atom": atom_file, "quad": {"rel_tol": math.inf}},
                {"atom": atom_file, "R_grid": {"min": 1, "max": 2, "count": "x"}},
                {"atom": atom_file, "R_grid": {"min": 1, "max": 2, "count": 2.9}}):
        cfg.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().out == ""


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
    proc = _cli("sweep", "--config", config_file, "--out", str(out), "--workers", "4")
    assert out.read_text() == text1  # byte-identical across concurrency

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


@pytest.mark.parametrize("body", [
    b"R,V\n1,abc\n2,3\n3,4\n",          # non-numeric field: once a ValueError traceback
    b"R,V\n0,1\n1,2\n2,3\n",            # x = 0 is dropped: once a LinAlgError traceback
    b"R,V\n1,1\n2,\xff\xfe\n3,2\n",     # not UTF-8: once a UnicodeDecodeError traceback
    b"R,V\n2,1\n2,2\n2,3\n",            # one distinct x: once slope 0.0 and exit 0
    b"R,V\n1,inf\n2,2\n3,3\n",          # non-finite value: once a nan fit and exit 0
    b"R,V\n-1,1\n2,0.25\n-4,0.0625\n",  # negative x: once a fit of log|x|, slope -2.0
], ids=["non_numeric", "zero_x", "not_utf8", "equal_x", "non_finite", "negative_x"])
def test_cli_fit_bad_csv_is_an_input_error(tmp_path, body):
    path = tmp_path / "rows.csv"
    path.write_bytes(body)
    proc = _cli("fit", "--input", str(path), "--x", "R", "--y", "V")
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr.startswith("input error")


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


def test_cli_eval_custom_quad(atom_file, tmp_path):
    quad_file = tmp_path / "quad.json"
    quad_file.write_text(json.dumps({"rel_tol": 1e-5}))
    proc = _cli("eval", "--R", "1.0", "--accel", "0.01", "--atom", atom_file,
                "--quad", str(quad_file), "--method", "both")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rel_diff"] < 1e-4
    # a removed QuadratureSpec field is an input error, not silently ignored
    quad_file.write_text(json.dumps({"rel_tol": 1e-5, "matsubara_hard_cap": 50_000}))
    proc = _cli("eval", "--R", "1.0", "--accel", "0.01", "--atom", atom_file,
                "--quad", str(quad_file))
    assert proc.returncode == 1 and "input error" in proc.stderr


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
