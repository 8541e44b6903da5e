"""The evaluation-validity window and regime tags.

All classifications realize "much less / much greater" conditions with the
thresholds 0.1 and 10 and an explicit crossover band in between, so no
asymptotic statement is silently applied near 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .atoms import AtomSpec
from .errors import InputError, check_domain

LOW, HIGH = 0.1, 10.0


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the timescale-window check c/a >> tau >> 1/omega0."""

    ratio: float              # omega0 * c / a (inf at a = 0)
    status: str               # "valid" | "marginal" | "excited"

    @property
    def excited(self) -> bool:
        return self.status == "excited"


def validity_check(a: float, atom: AtomSpec, c: float = 1.0) -> ValidityReport:
    """Check that a common interaction timescale exists.

    The evaluation window must fit between the atomic transition time
    1/omega0 and the non-relativistic horizon time c/a.  For
    omega0*c/a below 0.1 spontaneous excitation dominates and the
    high-acceleration evaluator must be used instead.
    """
    check_domain("acceleration", a, strict=False, error=InputError)
    if a == 0.0:
        return ValidityReport(ratio=math.inf, status="valid")
    ratio = atom.omega0 * c / a
    if ratio >= HIGH:
        status = "valid"
    elif ratio > LOW:
        status = "marginal"
    else:
        status = "excited"
    return ValidityReport(ratio=ratio, status=status)


def _classify(ratio: float, labels=("low", "crossover", "high"), inclusive: bool = False) -> str:
    # the zone thresholds are inclusive (near if <= 0.1, far if >= 10);
    # the acceleration and aR classifications keep the boundary in crossover
    if (ratio <= LOW) if inclusive else (ratio < LOW):
        return labels[0]
    if (ratio >= HIGH) if inclusive else (ratio > HIGH):
        return labels[2]
    return labels[1]


@dataclass(frozen=True)
class Regime:
    """The three dimensionless regime parameters and their classifications."""

    zone: str            # near | far | crossover        from R omega0 / c
    acceleration: str    # low | high | crossover        from a / (omega0 c)
    aR_class: str        # small | large | crossover     from a R / c^2
    R_omega0_over_c: float
    a_over_omega0_c: float
    aR_over_c2: float

    def as_dict(self) -> dict:
        return {
            "zone": self.zone,
            "acceleration": self.acceleration,
            "aR_class": self.aR_class,
            "R_omega0_over_c": self.R_omega0_over_c,
            "a_over_omega0_c": self.a_over_omega0_c,
            "aR_over_c2": self.aR_over_c2,
        }

    def tag(self) -> str:
        return f"{self.zone}/{self.acceleration}/{self.aR_class}"


def _zone(R: float, atom: AtomSpec, c: float = 1.0) -> tuple[float, str]:
    """R omega0 / c and the zone it gives (near, crossover or far)."""
    check_domain("separation", R, error=InputError)
    ratio = R * atom.omega0 / c
    return ratio, _classify(ratio, ("near", "crossover", "far"), inclusive=True)


def _acceleration(a: float, atom: AtomSpec, c: float = 1.0) -> tuple[float, str]:
    """a / (omega0 c) and its class (low, crossover or high)."""
    check_domain("acceleration", a, strict=False, error=InputError)
    ratio = a / (atom.omega0 * c)
    return ratio, _classify(ratio) if a > 0.0 else "low"


def _aR(R: float, a: float, c: float = 1.0) -> tuple[float, str]:
    """a R / c^2 and its class (small, crossover or large)."""
    ratio = a * R / c**2
    return ratio, _classify(ratio, ("small", "crossover", "large")) if a > 0.0 else "small"


def classify_regime(R: float, a: float, atom: AtomSpec, c: float = 1.0) -> Regime:
    """Classify (R, a) against the atom's lowest transition frequency."""
    (r_zone, zone), (r_acc, acc) = _zone(R, atom, c), _acceleration(a, atom, c)
    r_aR, aR = _aR(R, a, c)
    return Regime(zone=zone, acceleration=acc, aR_class=aR,
                  R_omega0_over_c=r_zone, a_over_omega0_c=r_acc, aR_over_c2=r_aR)
