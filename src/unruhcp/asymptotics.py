"""Closed-form regime laws and the numeric extraction of the near-zone
acceleration coefficient.

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
The near-zone a^2 term has no printed closed form; its coefficient is
extracted numerically by fit_a2_near_coefficient.

Each law is evaluated in doubles (_rounded).  When every argument is 0 or
lies in [2^-60, 2^60], and hbar and omega0 in [2^-114, 2^114], no step of a
law can under- or overflow and it runs on Python floats, without numpy; the
closed-form CLI subcommands start without importing numpy.  Otherwise it
runs on numpy doubles that raise on under- and overflow, and where a step
does, as at R = 1e-60 or 1e50 c/omega0, it is evaluated again exactly and
rounded once: a value that underflows is -0.0, and one beyond the largest
double is a DomainError.
"""
from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

from .atoms import AtomSpec, _c6, _reduce_atom, oscillator_sum
from .errors import DomainError, InconsistentRegimeError, check_domain
from .units import UnitSystem, units_for

EXPONENT_TOL = 0.05
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
    under- or overflow: the law runs on Python floats and gives the bits of
    the numpy path, unless it divides by a zero argument.  Otherwise it runs
    on np.float64 under np.errstate(all="raise"), numpy being imported only
    then, and where a step under- or overflows, or a value is not finite,
    the law is evaluated again exactly, in rationals, and rounded once: a
    value that underflows is a zero of its sign, and one beyond the largest
    double is a DomainError.  law is built from +, -, *, / and integer powers
    of its arguments, so a float constant it needs is one of args; it
    returns a value or a tuple of values.
    """
    def rounded(out):
        return tuple(map(float, out)) if isinstance(out, tuple) else float(out)

    if (all(x == 0.0 or FLOAT_MIN <= abs(x) <= FLOAT_MAX for x in args)
            and all(RESTORE_MIN <= x <= RESTORE_MAX for x in (units.hbar, units.omega0))):
        try:
            return rounded(law(units.restore_energy, *args))
        except ZeroDivisionError:   # a zero divisor: the paths below raise DomainError
            pass
    import numpy as np

    try:
        with np.errstate(all="raise"):
            out = rounded(law(units.restore_energy, *map(np.float64, args)))
        if all(map(math.isfinite, out if isinstance(out, tuple) else (out,))):
            return out
    except FloatingPointError:
        pass
    from fractions import Fraction   # only at the domain edge: 3 ms off the CLI's start

    scale = Fraction(units.hbar) * Fraction(units.omega0)   # restore_energy, exactly
    try:
        return rounded(law(lambda v: v * scale, *map(Fraction, args)))
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
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


@dataclass(frozen=True)
class A2FitResult:
    """Outcome of the near-zone acceleration-squared coefficient extraction."""

    K: float              # V correction = -K a^2 / R^6
    exponent_a: float
    exponent_R: float
    log_residual_rms: float
    n_points: int


def _a2_near_grid(u: UnitSystem):
    """The separations and accelerations of fit_a2_near_coefficient's grid, in
    the units of u: R in [1e-3, 1e-2] c/omega0 and a in {0} and [1e-5, 1e-3]
    omega0 c, 4 log-spaced values each."""
    import numpy as np

    a_grid = np.logspace(-5, -3, 4) * u.restore_acceleration(1.0)
    return np.logspace(-3, -2, 4) * u.restore_length(1.0), [0.0, *a_grid]


def _a2_near_fit(R_grid, a_values, entries) -> A2FitResult:
    """fit_a2_near_coefficient's fit on the contour entries of its grid
    (R_grid, a_values), one row per acceleration as _gate_grid returns them;
    an error entry is raised."""
    import numpy as np

    from .potential import _result

    inertial, *accel = entries
    rows = []
    for i, R in enumerate(R_grid):
        v0 = _result(inertial[i])[0]
        for a, row in zip(a_values[1:], accel):
            dv = _result(row[i])[0] - v0
            if not dv < 0.0:
                raise InconsistentRegimeError(
                    f"near-zone correction is not attractive at R={R}, a={a}: {dv}")
            rows.append((float(a), float(R), dv))

    A = np.array([[1.0, math.log(a), math.log(R)] for a, R, _ in rows])
    y = np.array([math.log(-dv) for _, _, dv in rows])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    exp_a, exp_R = float(coef[1]), float(coef[2])
    if abs(exp_a - 2.0) > EXPONENT_TOL or abs(exp_R + 6.0) > EXPONENT_TOL:
        raise InconsistentRegimeError(
            f"fitted exponents ({exp_a:.4f}, {exp_R:.4f}) deviate from (2, -6) "
            f"beyond +-{EXPONENT_TOL}")
    k_vals = [-dv * R**6 / a**2 for a, R, dv in rows]
    k_geo = float(np.exp(np.mean(np.log(k_vals))))
    return A2FitResult(K=k_geo, exponent_a=exp_a, exponent_R=exp_R,
                       log_residual_rms=resid, n_points=len(rows))


def fit_a2_near_coefficient(atom: AtomSpec, units: str = "natural") -> A2FitResult:
    """Extract the near-zone coefficient K of the a^2/R^6 correction.

    Runs the contour evaluator, in one gated call, on a 4 x 4 log grid
    a in [1e-5, 1e-3] omega0 c and R in [1e-3, 1e-2] c/omega0, subtracts the inertial value, and fits
    |dV| = K a^2 R^-6.  An entry that is an error is raised as the point call
    raises it.  The fitted exponents must match (2, -6) within
    0.05 or InconsistentRegimeError is raised.
    """
    from .potential import _gate_grid

    R_grid, a_values = _a2_near_grid(units_for(atom, units))
    rows = _gate_grid("contour", [float(R) for R in R_grid], [float(a) for a in a_values],
                      atom, units)
    return _a2_near_fit(R_grid, a_values, rows)
