"""Atomic transition data and dynamic polarizability models.

An atom is a list of electric-dipole transitions (omega_r, mu_r^2) in
Gaussian-cgs conventions.  The polarizability attached to them is the
standard oscillator sum

    alpha(k)   = sum_r alpha_r * omega_r^2 / (omega_r^2 - c^2 k^2 - i gamma c k)
    alpha(i u) = sum_r alpha_r * omega_r^2 / (omega_r^2 + c^2 u^2)
    alpha_r    = 2 mu_r^2 / (3 hbar omega_r)

The damping gamma regularizes the resonance poles and is used only by
real-axis evaluation; imaginary-axis quantities and closed forms take
gamma = 0.

Both sums are oscillator_sum at z2 = (c k)^2 + i gamma c k or z2 = -(c u)^2
(or their reduced-unit forms), the one oscillator sum of the package.  The
only other copy is the contour evaluator's hot loop, potential._alpha_iu,
which fuses alpha(iu) with a second sum over the same denominators.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DomainError, InputError
from .units import UnitSystem

DEFAULT_DAMPING_FRACTION = 1e-6  # gamma = fraction * lowest transition frequency
MAX_DAMPING_FRACTION = 1e-3


@dataclass(frozen=True)
class Transition:
    """One dipole transition: angular frequency and squared matrix element."""

    omega: float
    mu_sq: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise InputError(f"transition frequency must be positive, got {self.omega}")
        if self.mu_sq < 0.0:
            raise InputError(f"squared dipole element must be >= 0, got {self.mu_sq}")


@dataclass(frozen=True)
class AtomSpec:
    """Ordered transitions plus the linewidth used for real-axis evaluation."""

    transitions: tuple[Transition, ...]
    damping: float = field(default=-1.0)  # sentinel: default to fraction of omega0

    def __post_init__(self):
        if not self.transitions:
            raise InputError("an atom needs at least one transition")
        transitions = tuple(self.transitions)
        object.__setattr__(self, "transitions", transitions)
        omega0 = min(t.omega for t in transitions)
        if self.damping < 0.0:
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

    @property
    def mu_sq_dominant(self) -> float:
        """Squared dipole element of the lowest-frequency transition."""
        return min(self.transitions, key=lambda t: t.omega).mu_sq


def two_level(omega0: float = 1.0, alpha0: float = 1.0, hbar: float = 1.0,
              damping: float = -1.0) -> AtomSpec:
    """Single-transition atom with prescribed static polarizability."""
    mu_sq = 1.5 * hbar * omega0 * alpha0
    return AtomSpec(transitions=(Transition(omega=omega0, mu_sq=mu_sq),), damping=damping)


def oscillator_weights(atom: AtomSpec, hbar: float = 1.0) -> list[float]:
    """Per-transition static polarizability contributions alpha_r."""
    return [2.0 * t.mu_sq / (3.0 * hbar * t.omega) for t in atom.transitions]


def alpha_static(atom: AtomSpec, hbar: float = 1.0) -> float:
    """Static polarizability alpha(0) = (2/3 hbar) sum_r mu_r^2 / omega_r."""
    return sum(oscillator_weights(atom, hbar))


def oscillator_sum(z2, weights, omegas):
    """sum_r w_r o_r^2 / (o_r^2 - z2) for a float, complex or array z2.

    z2 = (c k)^2 + i gamma c k gives alpha(k), z2 = -(c xi)^2 gives alpha(i xi).
    """
    s = 0.0
    for w, o in zip(weights, omegas):
        s += w * o * o / (o * o - z2)
    return s


def alpha_imag(xi: float, atom: AtomSpec, c: float = 1.0, hbar: float = 1.0) -> float:
    """Polarizability at imaginary wavenumber, alpha(i xi).

    Real, positive and strictly decreasing in xi; equals alpha_static at
    xi = 0.  Raises DomainError for negative xi.
    """
    if xi < 0.0:
        raise DomainError(f"imaginary-axis wavenumber must be >= 0, got {xi}")
    return oscillator_sum(-(c * xi) ** 2, oscillator_weights(atom, hbar),
                          [t.omega for t in atom.transitions])


def alpha_real(k: float, atom: AtomSpec, c: float = 1.0, hbar: float = 1.0) -> complex:
    """Complex dynamic polarizability at real wavenumber k.

    The atom's linewidth shifts the resonance poles below the real axis.
    """
    if k < 0.0:
        raise DomainError(f"wavenumber must be >= 0, got {k}")
    z2 = (c * k) ** 2 + 1j * atom.damping * c * k
    return oscillator_sum(z2, oscillator_weights(atom, hbar), [t.omega for t in atom.transitions])


def load_atom(source, units: str = "natural") -> AtomSpec:
    """Build an AtomSpec from a JSON file path, file object or dict.

    Accepts either the explicit form
        {"transitions": [{"omega": ..., "mu_sq": ...}, ...], "damping": ...}
    or the two-level shorthand
        {"two_level": {"omega0": ..., "alpha0": ...}, "damping": ...}
    which expands to one transition with mu^2 = 3 hbar omega0 alpha0 / 2,
    hbar being that of the unit mode `units` ("natural" or "si", where
    alpha0 is in cm^3 and mu^2 in erg cm^3).
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read atom file {source!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("atom document must be a JSON object")
    damping = float(doc.get("damping", -1.0))
    if "two_level" in doc:
        tl = doc["two_level"]
        try:
            return two_level(float(tl["omega0"]), float(tl["alpha0"]),
                             hbar=UnitSystem(mode=units).hbar_atomic, damping=damping)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad two_level shorthand: {exc}") from exc
    try:
        transitions = tuple(
            Transition(omega=float(t["omega"]), mu_sq=float(t["mu_sq"]))
            for t in doc["transitions"]
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad transitions list: {exc}") from exc
    return AtomSpec(transitions=transitions, damping=damping)
