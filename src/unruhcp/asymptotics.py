"""Closed-form regime laws.

The four laws, in the notation V(R) with alpha0 = alpha(0):

* near zone, inertial:    V = -C6 / R^6 with the exact double transition sum
* far zone, low a:        V = -23 hbar c alpha0^2/(4 R^7)
                              - hbar a^2 alpha0^2/(4 pi c^3 R^5)
* large aR/c^2:           V = -(6 hbar a alpha0^2 / (pi R^6 c)) (1/4 + pi^2/12)
* high acceleration:      V = -(2/3) mu_A^2 alpha_B(k_A) a^3 k_A/(pi R^2 c^6)
                              * [1 + 1/(k_A R)^2 + 3/(k_A R)^4]

The two acceleration-dependent low-a forms are implemented exactly in
their conventional printed normalization.  Direct evaluation of the
underlying integral
reproduces the large-aR coefficient (1/4 + pi^2/12) exactly but finds two
deviations, quantified by the comparison report: the far-zone a^2
coefficient measures 11/(4 pi c^3), eleven times the printed value, and for
aR/c^2 >> 1 an additional a^3/R^4 origin term dominates the printed law.
The near-zone a^2 term has no printed closed form; the comparison report
fits its coefficient (sweep.compare_report's near_zone_a2).

Each law is evaluated by _rounded on one of two paths.  When every argument
is 0 or lies in [2^-60, 2^60], and hbar and omega0 in [2^-114, 2^114], no
step of a law can under- or overflow and it runs on Python floats.
Otherwise, as at R = 1e-60 or 1e50 c/omega0 or at a laboratory acceleration
in si mode, it is evaluated exactly, in rationals, and rounded once: a value
that underflows is -0.0, and one beyond the largest double is a
DomainError.  The module imports no numpy at any argument.
"""
from __future__ import annotations

import math
import warnings as _warnings

from .atoms import AtomSpec, _c6, _reduce_atom, oscillator_sum
from .errors import DomainError, check_domain
from .units import UnitSystem, units_for

# Python floats are safe for a law when every argument is 0 or has a
# magnitude in [FLOAT_MIN, FLOAT_MAX], and hbar and omega0 (si hbar is about
# 2^-113) lie in [RESTORE_MIN, RESTORE_MAX]: a law has degree at most 13 in
# its arguments (potential_high_acc) and integer constants below 2^5, so its
# steps before the restore stay within 2^(+-(13 * 60 + 5)); hbar and omega0
# add 2^(+-228) and the far-low slope 2^4 after them, so every step stays
# within 2^(+-1017), inside the normal range [2^-1022, 2^1024).
FLOAT_MIN, FLOAT_MAX = 2.0**-60, 2.0**60
RESTORE_MIN, RESTORE_MAX = 2.0**-114, 2.0**114


def _rounded(law, *args, units: UnitSystem):
    """law(restore, *args), restore being units.restore_energy, in doubles.

    When every argument is 0 or lies in [FLOAT_MIN, FLOAT_MAX], and
    units.hbar and units.omega0 in [RESTORE_MIN, RESTORE_MAX], no step can
    under- or overflow: the law runs on Python floats, unless it divides by
    a zero argument.  Otherwise the law is evaluated exactly, in rationals,
    and rounded once: a value that underflows is a zero of its sign, and one
    beyond the largest double (or a zero divisor) is a DomainError, as is an
    argument that is not finite.  law is built from +, -, *, / and integer
    powers of its arguments, so a float constant it needs is one of args; it
    returns a value or a tuple of values.
    """
    def rounded(out):
        return tuple(map(float, out)) if isinstance(out, tuple) else float(out)

    if (all(x == 0.0 or FLOAT_MIN <= abs(x) <= FLOAT_MAX for x in args)
            and all(RESTORE_MIN <= x <= RESTORE_MAX for x in (units.hbar, units.omega0))):
        try:
            return rounded(law(units.restore_energy, *args))
        except ZeroDivisionError:   # a zero divisor: the exact path raises DomainError
            pass
    if not all(map(math.isfinite, args)):   # a reduction overflowed: R omega0 / c, say
        raise DomainError("a reduced argument of the closed form lies beyond the range of a double")
    from fractions import Fraction   # only outside the float range: 3 ms off the CLI's start

    scale = Fraction(units.hbar) * Fraction(units.omega0)   # restore_energy, exactly
    try:
        return rounded(law(lambda v: v * scale, *map(Fraction, args)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError("the closed-form value lies beyond the range of a double") from exc


def near_zone_inertial(atom: AtomSpec, hbar: float = 1.0) -> float:
    """London coefficient C6 >= 0 with V(R) = -C6 / R^6 in the near zone."""
    return _c6([t.mu_sq for t in atom.transitions], [t.omega for t in atom.transitions], hbar)


def near_zone_value(R: float, atom: AtomSpec, units: str = "natural") -> float:
    """-C6 / R^6 evaluated in the caller's units via the reduced system."""
    u = units_for(atom, units)
    check_domain("separation", R)
    return _rounded(lambda restore, c6, Rt: restore(-c6 / Rt**6),
                    _reduce_atom(atom, u).c6, u.reduce_length(float(R)), units=u)


def _far_low_terms(restore, Rt, at, alpha0, pi):
    """The (R^-7, R^-5) terms of the printed far-zone law, a law of _rounded."""
    return (restore(-23 * alpha0**2 / (4 * Rt**7)),
            restore(-at * at * alpha0**2 / (4 * pi * Rt**5)))


def _far_low_args(R: float, a: float, atom: AtomSpec, u: UnitSystem) -> tuple:
    """The arguments of _far_low_terms after the domain checks."""
    check_domain("separation", R)
    check_domain("acceleration", a, strict=False)
    return (u.reduce_length(float(R)), u.reduce_acceleration(float(a)),
            _reduce_atom(atom, u).alpha0, math.pi)


def far_low_acc_parts(R: float, a: float, atom: AtomSpec,
                      units: str = "natural") -> tuple[float, float]:
    """(inertial R^-7 term, acceleration R^-5 term) of the printed far-zone law."""
    u = units_for(atom, units)
    return _rounded(_far_low_terms, *_far_low_args(R, a, atom, u), units=u)


def far_low_acc(R: float, a: float, atom: AtomSpec, units: str = "natural") -> float:
    """Printed far-zone low-acceleration law (both terms, as printed)."""
    def law(restore, *args):
        t7, t5 = _far_low_terms(restore, *args)
        return t7 + t5

    u = units_for(atom, units)
    return _rounded(law, *_far_low_args(R, a, atom, u), units=u)


def high_aR(R: float, a: float, atom: AtomSpec, units: str = "natural") -> float:
    """Printed large-aR law, linear in a > 0 and falling as R^-6."""
    u = units_for(atom, units)
    check_domain("separation", R)
    check_domain("acceleration", a)
    return _rounded(
        lambda restore, Rt, at, alpha0, pi, k: restore(-(6 * at * alpha0**2 / (pi * Rt**6)) * k),
        u.reduce_length(float(R)), u.reduce_acceleration(float(a)), _reduce_atom(atom, u).alpha0,
        math.pi, 0.25 + math.pi**2 / 12.0, units=u)


def _alpha_b_at_resonance(atom_b: AtomSpec, k_a: float, u: UnitSystem):
    """alpha_B(k_A) at gamma = 0, with a proximity warning near B's resonances.

    Within B's linewidth of a line the damped real part is used instead.  On
    a line (within 1e-12 of k_A) the gamma = 0 sum diverges and that line's
    damped real part is 0, so there is no value: DomainError.
    """
    rb = _reduce_atom(atom_b, u)
    z2 = k_a * k_a
    gap = min(abs(o - k_a) for o in rb.omegas)
    if gap <= 1e-12:
        raise DomainError(
            f"alpha_B(k_A) is undefined: atom B has a line within {gap:.3e} of k_A; "
            "pair atom A with a detuned atom B")
    if gap <= rb.gamma:
        _warnings.warn(
            f"alpha_B evaluated within {gap:.3e} of a resonance; "
            "using the damped value", RuntimeWarning, stacklevel=3)
        return oscillator_sum(z2 + 1j * rb.gamma * k_a, rb.weights, rb.omegas).real
    return oscillator_sum(z2, rb.weights, rb.omegas)


def potential_high_acc(R: float, a: float, atom_a: AtomSpec, atom_b: AtomSpec,
                       units: str = "natural") -> float:
    """Closed-form potential in the spontaneously excited regime (a >> omega0 c).

    Atom A emits at its dominant transition k_A = omega0/c with squared
    dipole element mu_A^2; atom B responds through alpha_B(k_A).  Falls as
    R^-6 in the near zone and R^-2 in the far zone.  Atom B must be detuned
    from k_A: a line of B at k_A (atom_a paired with itself, say) is a
    DomainError.
    """
    u = units_for(atom_a, units)
    check_domain("separation", R)
    check_domain("acceleration", a)
    # the dominant transition of atom A anchors the reduced units: k_A = 1
    ra = _reduce_atom(atom_a, u)
    mu_sq = 1.5 * ra.weights[ra.omegas.index(1.0)]
    alpha_b = _alpha_b_at_resonance(atom_b, 1.0, u)
    return _rounded(
        lambda restore, Rt, at, mu_sq, alpha_b, m, pi: restore(
            m * mu_sq * alpha_b * at**3 / (pi * Rt**2) * _high_acc_bracket(Rt)),
        u.reduce_length(float(R)), u.reduce_acceleration(float(a)), mu_sq, alpha_b,
        -(2.0 / 3.0), math.pi, units=u)


def _high_acc_bracket(x):
    # retardation bracket 1 + 1/x^2 + 3/x^4 (>= 1), a step of the laws of _rounded
    x2 = x**2
    return 1 + 1 / x2 + 3 / (x2 * x2)


def closed_form_slope(law: str, R: float, a: float, atom: AtomSpec,
                      units: str = "natural") -> float:
    """Exact d ln|V| / d ln R of a closed-form law at (R, a), with the
    domain checks of the law's value."""
    u = units_for(atom, units)
    if law == "far-low":
        def slope(restore, *args):
            t7, t5 = _far_low_terms(restore, *args)
            return (-7 * t7 - 5 * t5) / (t7 + t5)

        return _rounded(slope, *_far_low_args(R, a, atom, u), units=u)
    check_domain("separation", R)
    if law == "near":
        return -6.0
    if law == "high-ar":
        check_domain("acceleration", a)
        return -6.0
    if law == "high-acc":
        check_domain("acceleration", a)
        def slope(restore, Rt):
            x2 = Rt * Rt  # k_A = 1 in reduced units
            return -2 + (-2 / x2 - 12 / (x2 * x2)) / _high_acc_bracket(Rt)

        return _rounded(slope, u.reduce_length(float(R)), units=u)
    raise DomainError(f"unknown law {law!r}")
