#!/usr/bin/env python3
"""Map where the contour evaluator and the oracle fail their accuracy gate.

Evaluates a two-level and a 3-line atom on the product grid of POINTS
log-spaced separations R in [1e-10, 1e5] c/omega0 and a = 0 plus POINTS
log-spaced accelerations in [1e-6, 9.9] omega0 c (the whole non-excited
domain), one potential_grid and one potential_oracle_grid call per atom,
and prints for each atom and route its count of results and numerical
failures with every failing (R, a), and the largest error_estimate/|V|
among the results with its (R, a): the margin of the route's fixed rules
(the contour evaluator's nested pairs, the oracle's G10K21 panels) to the
10 REL_TOL gate.  Natural units.

Exit code 1 on any NumericalFailure of either route, else 0.
"""
import math
import sys

import numpy as np

from unruhcp import (AtomSpec, NumericalFailure, PotentialResult, Transition, potential_grid,
                     potential_oracle_grid, two_level)

ATOMS = {
    "two-level": two_level(1.0, 1.0),
    "3-line": AtomSpec(transitions=(Transition(omega=1.0, mu_sq=1.0),
                                    Transition(omega=2.3, mu_sq=0.4),
                                    Transition(omega=6.1, mu_sq=3.0))),
}
ROUTES = {"contour": potential_grid, "oracle": potential_oracle_grid}
POINTS = 31   # R values, and a values above 0


def main() -> int:
    Rs = np.logspace(-10.0, 5.0, POINTS).tolist()
    As = [0.0, *np.logspace(-6.0, math.log10(9.9), POINTS).tolist()]
    failed = False
    for name, atom in ATOMS.items():
        for route, evaluate in ROUTES.items():
            grid = evaluate(Rs, As, atom)
            failures = [(R, a) for a, row in zip(As, grid) for R, entry in zip(Rs, row)
                        if isinstance(entry, NumericalFailure)]
            results = [(entry.error_estimate / abs(entry.value), R, a)
                       for a, row in zip(As, grid) for R, entry in zip(Rs, row)
                       if isinstance(entry, PotentialResult)]
            print(f"{name:9s} {route:7s}: {len(results)} results, {len(failures)} numerical "
                  f"failures on {len(Rs)} R x {len(As)} a")
            if results:
                worst, R, a = max(results)
                print(f"  largest error_estimate/|V| = {worst:.3e} at R={R!r}, a={a!r}")
            for R, a in failures:
                print(f"  failure at R={R!r}, a={a!r}")
            failed |= bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
