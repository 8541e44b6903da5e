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
    window: tuple[float, float]  # (1/omega0, c/a)
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
    omega0 = atom.omega0
    if a == 0.0:
        return ValidityReport(ratio=math.inf, window=(1.0 / omega0, math.inf), status="valid")
    ratio = omega0 * c / a
    if ratio >= HIGH:
        status = "valid"
    elif ratio > LOW:
        status = "marginal"
    else:
        status = "excited"
    return ValidityReport(ratio=ratio, window=(1.0 / omega0, c / a), status=status)


def _classify(ratio: float, inclusive: bool = False) -> str:
    # the zone thresholds are inclusive (near if <= 0.1, far if >= 10);
    # the acceleration and aR classifications keep the boundary in crossover
    low_hit = ratio <= LOW if inclusive else ratio < LOW
    high_hit = ratio >= HIGH if inclusive else ratio > HIGH
    if low_hit:
        return "low"
    if high_hit:
        return "high"
    return "crossover"


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


def classify_regime(R: float, a: float, atom: AtomSpec, c: float = 1.0) -> Regime:
    """Classify (R, a) against the atom's lowest transition frequency."""
    check_domain("separation", R, error=InputError)
    check_domain("acceleration", a, strict=False, error=InputError)
    omega0 = atom.omega0
    r_zone = R * omega0 / c
    r_acc = a / (omega0 * c)
    r_aR = a * R / c**2

    zone = {"low": "near", "high": "far",
            "crossover": "crossover"}[_classify(r_zone, inclusive=True)]
    acc = _classify(r_acc) if a > 0.0 else "low"
    aR = ({"low": "small", "high": "large", "crossover": "crossover"}[_classify(r_aR)]
          if a > 0.0 else "small")
    return Regime(zone=zone, acceleration=acc, aR_class=aR,
                  R_omega0_over_c=r_zone, a_over_omega0_c=r_acc, aR_over_c2=r_aR)
