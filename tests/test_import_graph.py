"""The package needs numpy alone: importing the CLI, and running it, loads
none of the heavy scientific packages (a cold start once spent most of its
time importing scipy.integrate, which nothing called)."""
import json
import os
import subprocess
import sys
from pathlib import Path

import unruhcp

HEAVY = ("scipy", "mpmath", "sympy")

# Runs in a fresh interpreter; prints, after the import and after each CLI
# call, which of HEAVY sys.modules holds.
PROBE = r"""
import contextlib, io, json, sys
heavy = set(sys.argv[1].split(","))
atom, rows = sys.argv[2], sys.argv[3]

def loaded():
    return sorted({name.partition(".")[0] for name in sys.modules} & heavy)

import unruhcp.cli
seen = {"import unruhcp.cli": loaded()}
calls = {
    "eval": ["eval", "--R", "1.0", "--accel", "0.01", "--atom", atom, "--method", "both"],
    "sweep": ["sweep", "--config", "default", "--out", "-"],
    "fit": ["fit", "--input", rows, "--x", "R", "--y", "V"],
}
for name, argv in calls.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = unruhcp.cli.main(argv)
    seen[name] = (code, loaded())
print(json.dumps(seen))
"""


def test_cli_loads_no_heavy_package(tmp_path):
    atom = tmp_path / "atom.json"
    atom.write_text(json.dumps({"two_level": {"omega0": 1.0, "alpha0": 1.0}}))
    rows = tmp_path / "rows.csv"
    rows.write_text("R,V\n1,1\n2,0.015625\n4,0.000244140625\n")
    env = {**os.environ, "PYTHONPATH": str(Path(unruhcp.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", PROBE, ",".join(HEAVY), str(atom), str(rows)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == {
        "import unruhcp.cli": [],
        "eval": [0, []],
        "sweep": [0, []],
        "fit": [0, []],
    }


def test_public_surface():
    # nothing but their own tests called integrand, alpha_real, alpha_imag,
    # imag_axis_weight or potential_inertial; the package no longer exports them
    assert sorted(unruhcp.__all__) == [
        "A2FitResult", "AtomSpec", "DomainError", "GridSpec", "InconsistentRegimeError",
        "InputError", "NumericalFailure", "OccupationValue", "OracleUnreliableError",
        "PotentialResult", "Regime", "RegimeError", "SlopeFit", "SweepConfig", "SweepRow",
        "Transition", "UnitSystem", "UnruhCPError", "ValidityReport", "alpha_static",
        "asymptotics", "atoms", "classify_regime", "compare_report", "constants",
        "default_config", "errors", "far_low_acc", "far_low_acc_parts",
        "fit_a2_near_coefficient", "fit_slope", "high_aR", "kinematics", "load_atom",
        "mode_occupation", "near_zone_inertial", "near_zone_value", "occupation",
        "occupation_highacc", "osc_imag_part", "potential", "potential_grid",
        "potential_high_acc", "potential_numeric", "potential_oracle",
        "potential_oracle_grid", "retardation", "rows_to_csv", "run_sweep", "sweep",
        "two_level", "u_factor", "units", "units_for", "validity_check",
    ]
