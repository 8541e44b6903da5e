"""Dispersion forces between two uniformly accelerating atoms.

Numerical evaluators for the acceleration-modified two-atom dispersion
potential, its closed-form regime laws, the field-mode occupation of the
accelerated frame, and a deterministic sweep/report CLI.

The names below are imported on first use (PEP 562), so `import unruhcp`
loads no submodule and no numpy; `unruhcp.sweep` and the other submodules
listed are imported on first access too.
"""
from importlib import import_module as _import_module

# submodule -> the API names it exports
_EXPORTS = {
    "atoms": ("AtomSpec", "Transition", "alpha_static", "load_atom", "two_level"),
    "asymptotics": (
        "A2FitResult", "far_low_acc", "far_low_acc_parts", "fit_a2_near_coefficient",
        "high_aR", "near_zone_inertial", "near_zone_value", "potential_high_acc",
    ),
    "errors": (
        "DomainError", "InconsistentRegimeError", "InputError", "NumericalFailure",
        "OracleUnreliableError", "RegimeError", "UnruhCPError",
    ),
    "kinematics": ("Regime", "ValidityReport", "classify_regime", "validity_check"),
    "occupation": ("OccupationValue", "mode_occupation", "occupation_highacc"),
    "potential": (
        "PotentialResult", "potential_grid", "potential_numeric", "potential_oracle",
        "potential_oracle_grid",
    ),
    "retardation": ("osc_imag_part", "u_factor"),
    "sweep": (
        "GridSpec", "SlopeFit", "SweepConfig", "SweepRow", "compare_report",
        "default_config", "fit_slope", "rows_to_csv", "run_sweep",
    ),
    "units": ("UnitSystem", "units_for"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
