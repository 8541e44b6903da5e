"""Seeded inputs for the benchmark workloads.

Only the standard library is used, so a seed gives the same inputs on every
machine and before the program under test is imported.
"""
from __future__ import annotations

import math
import random

R_RANGE = (1e-4, 1e4)       # separations, units c/omega0
A_RANGE = (1e-5, 5.0)       # accelerations, units omega0 c (marginal above 0.1)
SUBCOMMANDS = ("occupation", "eval", "asymptotic", "fit", "sweep")
LAWS = ("near", "far-low", "high-ar", "high-acc")
CLI_ATOMS = 3               # atom files written in the cli_cold set-up


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def atom_doc(rng: random.Random) -> dict:
    """1 to 4 lines; the lowest is omega0 = 1, the others lie above it."""
    n_lines = rng.randint(1, 4)
    omegas = [1.0] + sorted(_log_uniform(rng, 1.0, 10.0) for _ in range(n_lines - 1))
    return {"transitions": [{"omega": w, "mu_sq": _log_uniform(rng, 0.1, 10.0)}
                            for w in omegas]}


def sweep_chunk(rng: random.Random) -> dict:
    """One sweep config: a product (R, a) grid jittered inside R_RANGE x A_RANGE."""
    r_min = _log_uniform(rng, R_RANGE[0], R_RANGE[1] / 10.0)
    r_max = min(R_RANGE[1], r_min * _log_uniform(rng, 3.0, 100.0))
    a_min = _log_uniform(rng, A_RANGE[0], A_RANGE[1] / 3.0)
    a_max = min(A_RANGE[1], a_min * _log_uniform(rng, 2.0, 30.0))
    return {
        "atom": atom_doc(rng),
        "R_grid": {"min": r_min, "max": r_max, "count": rng.randint(3, 6)},
        "a_grid": {"min": a_min, "max": a_max, "count": rng.randint(2, 3)},
        "methods": ["contour", "asymptotic"],
    }


def sweep_chunks(seed: int):
    """Endless, seed-determined stream of sweep_grid configs."""
    rng = random.Random(f"sweep_grid:{seed}")
    while True:
        yield sweep_chunk(rng)


def cli_atoms(seed: int) -> list[dict]:
    rng = random.Random(f"cli_atoms:{seed}")
    return [atom_doc(rng) for _ in range(CLI_ATOMS)]


def far_zone_sweep(rng: random.Random, atom: int) -> dict:
    """8-point far-zone sweep config (4 R values x 2 accelerations)."""
    r_min = _log_uniform(rng, 10.0, 50.0)
    a_min = _log_uniform(rng, 1e-4, 1e-3)
    return {
        "atom": atom,
        "R_grid": {"min": r_min, "max": r_min * _log_uniform(rng, 3.0, 10.0), "count": 4},
        "a_grid": {"min": a_min, "max": a_min * _log_uniform(rng, 2.0, 10.0), "count": 2},
        "methods": ["contour", "asymptotic"],
    }


def asymptotic_args(rng: random.Random) -> dict:
    law = rng.choice(LAWS)
    if law == "near":
        R, a = _log_uniform(rng, 1e-3, 1e-1), 0.0
    elif law == "far-low":
        R, a = _log_uniform(rng, 10.0, 1e3), _log_uniform(rng, 1e-4, 1e-2)
    elif law == "high-ar":
        R, a = _log_uniform(rng, 1e3, 1e4), _log_uniform(rng, 1e-2, 0.1)
    else:   # atom B is detuned from atom A's line, which sets k_A = omega0 / c
        R, a = _log_uniform(rng, 0.1, 100.0), _log_uniform(rng, 20.0, 200.0)
        atom_b = {"transitions": [{"omega": _log_uniform(rng, 1.2, 3.0),
                                   "mu_sq": _log_uniform(rng, 0.1, 10.0)}]}
        return {"law": law, "R": R, "accel": a, "atom_b": atom_b}
    return {"law": law, "R": R, "accel": a}


def cli_calls(seed: int):
    """Endless stream of (subcommand, parameters), cycling through SUBCOMMANDS.

    Atoms are referred to by index into cli_atoms(seed); the fit window always
    holds at least four points of the set-up CSV (R = 50..500, 8 points).
    """
    rng = random.Random(f"cli_cold:{seed}")
    i = 0
    while True:
        sub = SUBCOMMANDS[i % len(SUBCOMMANDS)]
        i += 1
        if sub == "occupation":
            params = {"omega": _log_uniform(rng, 1e-2, 1e2),
                      "accel": _log_uniform(rng, 1e-3, 1e3)}
        elif sub == "eval":
            params = {"R": _log_uniform(rng, 1e-2, 1e3), "accel": _log_uniform(rng, 1e-4, 1.0),
                      "atom": rng.randrange(CLI_ATOMS)}
        elif sub == "asymptotic":
            params = dict(asymptotic_args(rng), atom=rng.randrange(CLI_ATOMS))
        elif sub == "fit":
            params = {"window": (rng.uniform(50.0, 90.0), rng.uniform(270.0, 500.0))}
        else:
            params = far_zone_sweep(rng, rng.randrange(CLI_ATOMS))
        yield sub, params
