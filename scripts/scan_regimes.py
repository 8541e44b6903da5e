#!/usr/bin/env python3
"""Measure the power laws of the accelerated-pair potential from the integral.

Scans R at fixed accelerations in the four regimes, fits log-log slopes and
extracts the leading coefficients, printing measured vs closed-form values.
Natural units (hbar = c = 1, omega0 = 1, alpha0 = 1).
"""
import math
import sys

import numpy as np

from unruhcp import (
    fit_a2_near_coefficient,
    high_aR,
    potential_inertial,
    potential_numeric,
    two_level,
)
from unruhcp.sweep import fit_slope

POINTS = 8   # separations per scan


def scan(atom, a, r_lo, r_hi, differential):
    rows = []
    for R in np.logspace(math.log10(r_lo), math.log10(r_hi), POINTS):
        v = potential_numeric(float(R), a, atom).value
        if differential:
            v -= potential_inertial(float(R), atom).value
        rows.append({"R": float(R), "V": v})
    return rows, fit_slope(rows, "R", "V")


def main() -> int:
    atom = two_level(1.0, 1.0)

    rows, fit = scan(atom, 0.0, 50.0, 500.0, differential=False)
    c = rows[-1]["V"] * rows[-1]["R"] ** 7
    print(f"inertial far zone : slope {fit.slope:+.4f} (law -7), "
          f"R^7 V -> {c:.5f} (literature -23/4pi = {-23/(4*math.pi):.5f})")

    rows, fit = scan(atom, 0.0, 1e-3, 1e-2, differential=False)
    c = rows[0]["V"] * rows[0]["R"] ** 6
    print(f"inertial near zone: slope {fit.slope:+.4f} (law -6), "
          f"R^6 V -> {c:.5f} (London -3/4)")

    a = 1e-3
    rows, fit = scan(atom, a, 50.0, 500.0, differential=True)
    k = float(np.exp(np.mean(np.log(
        [-r["V"] * r["R"] ** 5 / a**2 for r in rows]))))
    print(f"far-zone a^2 term : slope {fit.slope:+.4f} (law -5), "
          f"coefficient {k:.5f} = {k*4*math.pi:.3f}/(4pi) "
          f"(printed closed form: 1/(4pi))")

    fit2 = fit_a2_near_coefficient(atom)
    print(f"near-zone a^2 term: exponents ({fit2.exponent_a:+.4f}, "
          f"{fit2.exponent_R:+.4f}) (laws +2, -6), K = {fit2.K:.5f}")

    a = 0.01
    rows, fit = scan(atom, a, 50.0 / a, 200.0 / a, differential=False)
    ratio = rows[0]["V"] / high_aR(rows[0]["R"], a, atom)
    print(f"large aR/c^2      : slope {fit.slope:+.4f} "
          f"(printed law -6; the a^3/R^4 origin term gives -4), "
          f"V / printed law = {ratio:.1f} at aR/c^2 = 50")
    return 0


if __name__ == "__main__":
    sys.exit(main())
