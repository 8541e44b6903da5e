"""Conversion between caller units and the reduced units used internally.

Every evaluator works in reduced units anchored on the atom's lowest
transition frequency omega0: hbar = c = 1, frequencies in omega0, lengths
in c/omega0, accelerations in omega0*c, energies in hbar*omega0, and
polarizability volumes in (c/omega0)^3.

``natural`` callers already use hbar = c = 1 (with any frequency scale);
``si`` callers use metres, seconds and joules, with atomic polarizabilities
kept in Gaussian-cgs cm^3.  Both reduce through the same formulas, so the
round trip reduce -> restore is the identity to machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass

from .constants import C_SI, CM3_TO_M3, HBAR_CGS, HBAR_SI
from .errors import InputError

MODES = ("natural", "si")


@dataclass(frozen=True)
class UnitSystem:
    """Unit mode plus the anchor frequency omega0 (rad/s in ``si`` mode)."""

    mode: str = "natural"
    omega0: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown unit mode {self.mode!r}; expected one of {MODES}")
        if not self.omega0 > 0.0:
            raise InputError("unit anchor frequency must be strictly positive")

    @property
    def c(self) -> float:
        return C_SI if self.mode == "si" else 1.0

    @property
    def hbar(self) -> float:
        """hbar for energies (J s in si mode)."""
        return HBAR_SI if self.mode == "si" else 1.0

    @property
    def hbar_atomic(self) -> float:
        """hbar for the cgs dipole sums (erg s in si mode; mu^2 is erg cm^3)."""
        return HBAR_CGS if self.mode == "si" else 1.0

    @property
    def _alpha_scale(self) -> float:
        # polarizability volume unit (c/omega0)^3; si-mode input is cm^3
        unit = (self.c / self.omega0) ** 3
        return CM3_TO_M3 / unit if self.mode == "si" else 1.0 / unit

    # --- into reduced units -------------------------------------------------
    def reduce_length(self, R: float) -> float:
        return R * self.omega0 / self.c

    def reduce_acceleration(self, a: float) -> float:
        return a / (self.omega0 * self.c)

    def reduce_frequency(self, omega: float) -> float:
        return omega / self.omega0

    def reduce_alpha(self, alpha: float) -> float:
        return alpha * self._alpha_scale

    def reduce_energy(self, value: float) -> float:
        return value / (self.hbar * self.omega0)

    # --- back out -----------------------------------------------------------
    def restore_length(self, R: float) -> float:
        return R * self.c / self.omega0

    def restore_acceleration(self, a: float) -> float:
        return a * self.omega0 * self.c

    def restore_frequency(self, omega: float) -> float:
        return omega * self.omega0

    def restore_alpha(self, alpha: float) -> float:
        return alpha / self._alpha_scale

    def restore_energy(self, value: float) -> float:
        return value * self.hbar * self.omega0


NATURAL = UnitSystem()


def units_for(atom, units: UnitSystem | str | None = None) -> UnitSystem:
    """Unit system anchored on an atom's lowest transition frequency.

    units is a mode name ("natural" when None) or a UnitSystem, returned as is.
    """
    if isinstance(units, UnitSystem):
        return units
    return UnitSystem(mode="natural" if units is None else units, omega0=atom.omega0)
