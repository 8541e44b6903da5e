"""The package needs numpy alone: importing the CLI, and running it, loads
none of the heavy scientific packages (a cold start once spent most of its
time importing scipy.integrate, which nothing called).  The closed-form
subcommands need not even numpy: importing the package or the CLI, and
running occupation or asymptotic, loads none."""
import json
import os
import subprocess
import sys
from pathlib import Path

import unruhcp
import unruhcp.cli

HEAVY = ("scipy", "mpmath", "sympy")
SRC = str(Path(unruhcp.__file__).resolve().parents[1])

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


# Runs in a fresh interpreter, apart from PROBE because eval loads numpy;
# prints, after each import and each numpy-free CLI call, whether
# sys.modules holds numpy.
NUMPY_FREE_PROBE = r"""
import contextlib, io, json, sys
atom, atom_b = sys.argv[1:3]
import unruhcp
seen = {"import unruhcp": "numpy" in sys.modules}
import unruhcp.cli
seen["import unruhcp.cli"] = "numpy" in sys.modules
calls = {
    "occupation": ["occupation", "--omega", "1.0", "--accel", "0.5"],
    **{law: ["asymptotic", "--law", law, "--R", "300.0", "--accel", "2.0", "--atom", atom]
       for law in ("near", "far-low", "high-ar")},
    "high-acc": ["asymptotic", "--law", "high-acc", "--R", "3.0", "--accel", "20.0",
                 "--atom", atom, "--atom-b", atom_b],
}
for name, argv in calls.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = unruhcp.cli.main(argv)
    seen[name] = (code, "numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_closed_form_cli_loads_no_numpy(tmp_path):
    atom = tmp_path / "atom.json"
    atom.write_text(json.dumps({"two_level": {"omega0": 1.0, "alpha0": 1.0}}))
    atom_b = tmp_path / "atom_b.json"
    atom_b.write_text(json.dumps({"two_level": {"omega0": 2.0, "alpha0": 1.0}}))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_PROBE, str(atom), str(atom_b)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          check=True)
    assert json.loads(proc.stdout) == {
        "import unruhcp": False,
        "import unruhcp.cli": False,
        "occupation": [0, False],
        "near": [0, False],
        "far-low": [0, False],
        "high-ar": [0, False],
        "high-acc": [0, False],
    }


def test_main_pins_openblas_threads_unless_set(monkeypatch):
    argv = ["occupation", "--omega", "1.0", "--accel", "0.5"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert unruhcp.cli.main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert unruhcp.cli.main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_public_surface():
    # nothing but their own tests called integrand, alpha_real, alpha_imag,
    # imag_axis_weight or potential_inertial; the package no longer exports
    # them.  __all__ lists API names only, not the submodules
    assert sorted(unruhcp.__all__) == [
        "A2FitResult", "AtomSpec", "DomainError", "GridSpec", "InconsistentRegimeError",
        "InputError", "NumericalFailure", "OccupationValue", "OracleUnreliableError",
        "PotentialResult", "Regime", "RegimeError", "SlopeFit", "SweepConfig", "SweepRow",
        "Transition", "UnitSystem", "UnruhCPError", "ValidityReport", "alpha_static",
        "classify_regime", "compare_report", "default_config", "far_low_acc",
        "far_low_acc_parts", "fit_a2_near_coefficient", "fit_slope", "high_aR", "load_atom",
        "mode_occupation", "near_zone_inertial", "near_zone_value", "occupation_highacc",
        "osc_imag_part", "potential_grid", "potential_high_acc", "potential_numeric",
        "potential_oracle", "potential_oracle_grid", "rows_to_csv", "run_sweep",
        "two_level", "u_factor", "units_for", "validity_check",
    ]
    # each name resolves on first access, and in a fresh interpreter a
    # submodule does on attribute access
    for name in unruhcp.__all__:
        assert getattr(unruhcp, name) is not None
    proc = subprocess.run([sys.executable, "-c", "import unruhcp; print(unruhcp.sweep.__name__)"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          check=True)
    assert proc.stdout == "unruhcp.sweep\n"
