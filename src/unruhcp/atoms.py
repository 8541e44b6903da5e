"""Atomic transition data and dynamic polarizability models.

An atom is a list of electric-dipole transitions (omega_r, mu_r^2) in
Gaussian-cgs conventions.  The polarizability attached to them is the
standard oscillator sum

    alpha(k)   = sum_r alpha_r * omega_r^2 / (omega_r^2 - c^2 k^2 - i gamma c k)
    alpha(i u) = sum_r alpha_r * omega_r^2 / (omega_r^2 + c^2 u^2)
    alpha_r    = 2 mu_r^2 / (3 hbar omega_r)

The damping gamma regularizes the resonance poles.  It is read only by
potential_high_acc, for alpha_B within a linewidth of k_A; the evaluators
and every other closed form take gamma = 0.

Both sums are oscillator_sum at z2 = (c k)^2 + i gamma c k or z2 = -(c u)^2
(or their reduced-unit forms), the one oscillator sum of the package.  The
only other copy is the contour evaluator's hot loop, potential._alpha_iu,
which fuses alpha(iu) with a second sum over the same denominators.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, check_domain, read_real
from .units import UnitSystem

DEFAULT_DAMPING_FRACTION = 1e-6  # gamma = fraction * lowest transition frequency
MAX_DAMPING_FRACTION = 1e-3
ATOM_KEYS = ("transitions", "two_level", "damping")


@dataclass(frozen=True)
class Transition:
    """One dipole transition: angular frequency and squared matrix element."""

    omega: float
    mu_sq: float

    def __post_init__(self):
        check_domain("transition frequency", self.omega, error=InputError)
        check_domain("squared dipole element", self.mu_sq, strict=False, error=InputError)


@dataclass(frozen=True)
class AtomSpec:
    """Ordered transitions plus the linewidth gamma, read only by potential_high_acc."""

    transitions: tuple[Transition, ...]
    damping: float | None = None  # None: DEFAULT_DAMPING_FRACTION * omega0

    def __post_init__(self):
        if not self.transitions:
            raise InputError("an atom needs at least one transition")
        transitions = tuple(self.transitions)
        object.__setattr__(self, "transitions", transitions)
        omega0 = min(t.omega for t in transitions)
        if self.damping is None:
            object.__setattr__(self, "damping", DEFAULT_DAMPING_FRACTION * omega0)
        if not 0.0 < self.damping <= MAX_DAMPING_FRACTION * omega0:
            raise InputError(
                f"damping must lie in (0, {MAX_DAMPING_FRACTION} * omega0]; "
                f"got {self.damping} with omega0 = {omega0}"
            )
        if not alpha_static(self) > 0.0:
            raise InputError("static polarizability must be strictly positive")

    @property
    def omega0(self) -> float:
        """Lowest transition frequency; anchors natural units and the zones."""
        return min(t.omega for t in self.transitions)


def two_level(omega0: float = 1.0, alpha0: float = 1.0, hbar: float = 1.0,
              damping: float | None = None) -> AtomSpec:
    """Single-transition atom with prescribed static polarizability."""
    mu_sq = 1.5 * hbar * omega0 * alpha0
    return AtomSpec(transitions=(Transition(omega=omega0, mu_sq=mu_sq),), damping=damping)


def oscillator_weights(atom: AtomSpec, hbar: float = 1.0) -> list[float]:
    """Per-transition static polarizability contributions alpha_r."""
    return [2.0 * t.mu_sq / (3.0 * hbar * t.omega) for t in atom.transitions]


def alpha_static(atom: AtomSpec, hbar: float = 1.0) -> float:
    """Static polarizability alpha(0) = (2/3 hbar) sum_r mu_r^2 / omega_r."""
    return sum(oscillator_weights(atom, hbar))


def _c6(mu_sq, omegas, hbar: float) -> float:
    """(2/3) sum_{r,s} mu_r^2 mu_s^2 / (hbar (omega_r + omega_s)), the exact
    double sum over transitions."""
    c6 = 0.0
    for mr, o_r in zip(mu_sq, omegas):
        for ms, o_s in zip(mu_sq, omegas):
            c6 += mr * ms / (hbar * (o_r + o_s))
    return 2.0 / 3.0 * c6


@dataclass(frozen=True)
class _ReducedAtom:
    omegas: tuple[float, ...]    # transition frequencies in omega0 (min = 1)
    weights: tuple[float, ...]   # oscillator strengths alpha_r in (c/omega0)^3
    alpha0: float                # static polarizability
    alpha_curv: float            # k^2 coefficient of alpha^2(k) about k = 0
    alpha_quart: float           # k^4 coefficient of alpha^2(k) about k = 0
    alpha_sext: float            # k^6 coefficient of alpha^2(k) about k = 0
    gamma: float                 # linewidth in omega0
    c6: float                    # London coefficient, with mu_r^2 = 1.5 omega_r w_r


@lru_cache(maxsize=64)
def _reduce_atom(atom: AtomSpec, units: UnitSystem) -> _ReducedAtom:
    """The atom in the reduced units, where every evaluator, closed form and
    report section reads alpha0, C6 and the weights; cached."""
    omegas = tuple(units.reduce_frequency(t.omega) for t in atom.transitions)
    weights = tuple(units.reduce_alpha(w)
                    for w in oscillator_weights(atom, hbar=units.hbar_atomic))
    alpha0 = sum(weights)
    s2 = sum(w / o**2 for w, o in zip(weights, omegas))
    s4 = sum(w / o**4 for w, o in zip(weights, omegas))
    s6 = sum(w / o**6 for w, o in zip(weights, omegas))
    return _ReducedAtom(omegas=omegas, weights=weights, alpha0=alpha0,
                        alpha_curv=2.0 * alpha0 * s2, alpha_quart=s2 * s2 + 2.0 * alpha0 * s4,
                        alpha_sext=2.0 * (s2 * s4 + alpha0 * s6),
                        gamma=units.reduce_frequency(atom.damping),
                        c6=_c6([1.5 * o * w for w, o in zip(weights, omegas)], omegas, 1.0))


def oscillator_sum(z2, weights, omegas):
    """sum_r w_r o_r^2 / (o_r^2 - z2) for a float, complex or array z2.

    z2 = (c k)^2 + i gamma c k gives alpha(k), z2 = -(c xi)^2 gives alpha(i xi).
    """
    s = 0.0
    for w, o in zip(weights, omegas):
        s += w * o * o / (o * o - z2)
    return s


def _read_entry(entry: dict, keys: tuple[str, ...], name: str) -> tuple[float, ...]:
    """The numbers under `keys` of an atom document's entry, which holds no other key."""
    for key in entry:
        if key not in keys:
            raise InputError(f"{name} has unknown key {key!r}; allowed: {keys}")
    return tuple(read_real(entry[key]) for key in keys)


def load_atom(source, units: str = "natural") -> AtomSpec:
    """Build an AtomSpec from a dict or the path of a JSON file.

    Accepts either the explicit form
        {"transitions": [{"omega": ..., "mu_sq": ...}, ...], "damping": ...}
    or the two-level shorthand
        {"two_level": {"omega0": ..., "alpha0": ...}, "damping": ...}
    which expands to one transition with mu^2 = 3 hbar omega0 alpha0 / 2,
    hbar being that of the unit mode `units` ("natural" or "si", where
    alpha0 is in cm^3 and mu^2 in erg cm^3).  A damping left out is the
    default linewidth.  Any other key, at the top or inside an entry, or
    both forms at once, is an InputError.
    """
    hbar = UnitSystem(mode=units).hbar_atomic
    if isinstance(source, dict):
        doc = source
    elif not isinstance(source, (str, os.PathLike)):
        raise InputError(f"an atom is a JSON object or a file path, got {source!r}")
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read atom file {source!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("atom document must be a JSON object")
    for key in doc:
        if key not in ATOM_KEYS:
            raise InputError(f"atom document has unknown key {key!r}; allowed: {ATOM_KEYS}")
    if "two_level" in doc and "transitions" in doc:
        raise InputError("an atom document gives either 'two_level' or 'transitions', not both")
    # the numbers are converted apart from the checks of Transition and
    # AtomSpec, whose InputError is a ValueError too
    try:
        damping = read_real(doc["damping"]) if "damping" in doc else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad damping: {exc}") from exc
    if "two_level" in doc:
        try:
            omega0, alpha0 = _read_entry(doc["two_level"], ("omega0", "alpha0"), "two_level")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad two_level shorthand: {exc}") from exc
        return two_level(omega0, alpha0, hbar=hbar, damping=damping)
    try:
        lines = [_read_entry(t, ("omega", "mu_sq"), "a transition") for t in doc["transitions"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad transitions list: {exc}") from exc
    return AtomSpec(transitions=tuple(Transition(omega=o, mu_sq=m) for o, m in lines),
                    damping=damping)
