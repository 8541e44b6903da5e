"""Mode occupation of the electromagnetic field seen by an accelerated atom.

The average field energy per mode divided by hbar*omega is

    <n(omega)>_a = 1/2 (1 + a^2/(c^2 omega^2)) (1 + 2/(e^{2 pi c omega / a} - 1))

The second factor alone would be an exactly thermal (Planck) occupation at
the temperature hbar a / (2 pi c k_B); the first factor is the non-thermal
part specific to the electromagnetic field.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, check_domain

EXP_OVERFLOW = 700.0  # beyond this the Bose factor underflows double precision


@dataclass(frozen=True)
class OccupationValue:
    """Occupation with its additive thermal / non-thermal breakdown.

    value = 1/2 + thermal_part + nonthermal_part exactly, with
    thermal_part the bare Bose factor and nonthermal_part the
    acceleration-squared correction (including its Bose cross term).
    """

    value: float
    thermal_part: float
    nonthermal_part: float

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "thermal_part": self.thermal_part,
            "nonthermal_part": self.nonthermal_part,
            "vacuum_part": 0.5,
        }


def _bose(t):
    """1 / (e^t - 1) for a float t or a real or complex array t, 0 where
    Re t > EXP_OVERFLOW.

    expm1 keeps t accurate down to t -> 0; the cut-off entries are never
    exponentiated, so no overflow is raised or warned about.  Only the array
    branch imports numpy, so the occupation CLI starts without it.
    """
    if isinstance(t, float):
        return 0.0 if t > EXP_OVERFLOW else 1.0 / math.expm1(t)
    import numpy as np

    cut = t.real > EXP_OVERFLOW
    return np.where(cut, 0.0, 1.0 / np.expm1(np.where(cut, 1.0, t)))


def _occupation_parts(omega, a, c: float = 1.0):
    """(value, thermal_part, nonthermal_part) at a > 0, for floats or for
    arrays of omega and a; no domain checks."""
    x2 = (a / (c * omega)) ** 2
    bose = _bose(2.0 * math.pi * c * omega / a)
    nonthermal = 0.5 * x2 * (1.0 + 2.0 * bose)
    return 0.5 + bose + nonthermal, bose, nonthermal


def mode_occupation(omega: float, a: float, c: float = 1.0) -> OccupationValue:
    """Exact mode occupation; 1/2 at a = 0 and continuous in both arguments."""
    check_domain("mode frequency", omega)
    check_domain("acceleration", a, strict=False)
    if a == 0.0:
        return OccupationValue(value=0.5, thermal_part=0.0, nonthermal_part=0.0)
    try:
        value, bose, nonthermal = _occupation_parts(omega, a, c)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"occupation at omega = {omega}, a = {a} "
                          "is not a finite double")
    return OccupationValue(value=value, thermal_part=bose, nonthermal_part=nonthermal)


def occupation_highacc(omega: float, a: float, c: float = 1.0) -> float:
    """Leading resonant occupation a^3 / (2 pi c^3 omega^3), valid for a >> c*omega."""
    check_domain("mode frequency", omega)
    check_domain("acceleration", a, strict=False)
    if a == 0.0:
        warnings.warn("high-acceleration occupation requested at a = 0; "
                      "the approximation is invalid there", RuntimeWarning, stacklevel=2)
        return 0.0
    return a**3 / (2.0 * math.pi * (c * omega) ** 3)

