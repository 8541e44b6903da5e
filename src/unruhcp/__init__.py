"""Dispersion forces between two uniformly accelerating atoms.

Numerical evaluators for the acceleration-modified two-atom dispersion
potential, its closed-form regime laws, the field-mode occupation of the
accelerated frame, and a deterministic sweep/report CLI.
"""

from .atoms import (
    AtomSpec,
    Transition,
    alpha_static,
    load_atom,
    two_level,
)
from .asymptotics import (
    A2FitResult,
    far_low_acc,
    far_low_acc_parts,
    fit_a2_near_coefficient,
    high_aR,
    near_zone_inertial,
    near_zone_value,
    potential_high_acc,
)
from .errors import (
    DomainError,
    InconsistentRegimeError,
    InputError,
    NumericalFailure,
    OracleUnreliableError,
    RegimeError,
    UnruhCPError,
)
from .kinematics import (
    Regime,
    ValidityReport,
    classify_regime,
    validity_check,
)
from .occupation import OccupationValue, mode_occupation, occupation_highacc
from .potential import (
    PotentialResult,
    potential_grid,
    potential_numeric,
    potential_oracle,
    potential_oracle_grid,
)
from .retardation import osc_imag_part, u_factor
from .sweep import (
    GridSpec,
    SlopeFit,
    SweepConfig,
    SweepRow,
    compare_report,
    default_config,
    fit_slope,
    rows_to_csv,
    run_sweep,
)
from .units import UnitSystem, units_for

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
