import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhcp import (
    AtomSpec,
    DomainError,
    Transition,
    far_low_acc,
    far_low_acc_parts,
    high_aR,
    near_zone_inertial,
    near_zone_value,
    potential_high_acc,
    two_level,
)
from unruhcp import asymptotics
from unruhcp.asymptotics import (
    FLOAT_MAX,
    FLOAT_MIN,
    RESTORE_MAX,
    RESTORE_MIN,
    _high_acc_bracket,
    closed_form_slope,
)
from unruhcp.units import units_for


def test_near_zone_inertial_two_level(atom):
    # mu^2 = 3/2: C6 = (2/3)(9/4)/2 = 3/4
    assert near_zone_inertial(atom) == pytest.approx(0.75, rel=1e-15)


def test_near_zone_quartic_in_dipole():
    base = AtomSpec(transitions=(Transition(1.0, 1.0),))
    double = AtomSpec(transitions=(Transition(1.0, 2.0),))
    assert near_zone_inertial(double) == pytest.approx(4.0 * near_zone_inertial(base))


def test_near_zone_split_transition_invariance():
    single = AtomSpec(transitions=(Transition(1.0, 1.0),))
    split = AtomSpec(transitions=(Transition(1.0, 0.5), Transition(1.0, 0.5)))
    assert near_zone_inertial(split) == pytest.approx(near_zone_inertial(single), rel=1e-15)


def test_near_zone_value(atom):
    assert near_zone_value(2.0, atom) == pytest.approx(-0.75 / 2.0**6, rel=1e-14)


@pytest.mark.parametrize("units", ["natural", "si"])
def test_near_zone_value_bits_of_the_reduced_double_sum(units):
    # one C6 kernel for both laws: routing the reduced sum through it
    # (hbar = 1.0) keeps near_zone_value bit for bit
    from unruhcp import units_for
    from unruhcp.atoms import _reduce_atom

    atom = AtomSpec(transitions=(Transition(1.3e15, 2.1e-58), Transition(2.9e15, 0.7e-58),
                                 Transition(5.3e15, 1.9e-58)))
    if units == "natural":
        atom = AtomSpec(transitions=(Transition(1.0, 1.5), Transition(2.2, 0.7),
                                     Transition(4.1, 3.0)))
    u = units_for(atom, units)
    ra = _reduce_atom(atom, u)
    for R in (0.37, 2.0, 11.0):
        R = u.restore_length(R)
        c6 = 0.0
        for wr, o_r in zip(ra.weights, ra.omegas):
            for ws, o_s in zip(ra.weights, ra.omegas):
                c6 += (1.5 * o_r * wr) * (1.5 * o_s * ws) / (o_r + o_s)
        c6 *= 2.0 / 3.0
        assert near_zone_value(R, atom, units=units) == u.restore_energy(
            -c6 / u.reduce_length(R)**6)


def test_closed_forms_use_the_evaluators_alpha0():
    # alpha0 is the sum of the reduced weights, as in the evaluators, not
    # the reduced sum of the weights: the two differ in the last bits when
    # omega0 != 1
    from unruhcp import units_for
    from unruhcp.atoms import _reduce_atom

    atom = AtomSpec(transitions=(Transition(3.0, 1.0), Transition(4.5, 0.3),
                                 Transition(11.0, 2.0)))
    ra = _reduce_atom(atom, units_for(atom))
    # R = 4 c/omega0 is Rt = 12, whose seventh power is exact
    assert far_low_acc_parts(4.0, 0.0, atom)[0] == -23 * ra.alpha0**2 / (4 * 12.0**7) * 1.0 * 3.0


def test_far_low_acc_frozen_values(atom):
    assert far_low_acc(1.0, 0.0, atom) == pytest.approx(-5.75, rel=1e-14)
    assert far_low_acc(1.0, 1.0, atom) == pytest.approx(-5.75 - 1.0 / (4 * math.pi), rel=1e-12)
    assert far_low_acc(1.0, 1.0, atom) == pytest.approx(-5.829577, rel=1e-6)
    assert far_low_acc(2.0, 0.0, atom) == pytest.approx(-5.75 / 128.0, rel=1e-14)
    assert far_low_acc(2.0, 0.0, atom) == pytest.approx(-0.0449219, rel=1e-5)


def test_far_low_acc_subdominance_bound(atom):
    # |term5 / term7| = a^2 R^2 / (23 pi) < 1/(23 pi) whenever aR < 1
    for R, a in [(10.0, 0.05), (100.0, 0.009), (1000.0, 0.0005)]:
        assert a * R < 1.0
        t7, t5 = far_low_acc_parts(R, a, atom)
        ratio = abs(t5 / t7)
        assert ratio == pytest.approx(a**2 * R**2 / (23.0 * math.pi), rel=1e-12)
        assert ratio < 1.0 / (23.0 * math.pi)


def test_high_aR_frozen_values(atom):
    expect = -(6.0 / math.pi) * (0.25 + math.pi**2 / 12.0)
    assert high_aR(1.0, 1.0, atom) == pytest.approx(expect, rel=1e-14)
    assert high_aR(1.0, 1.0, atom) == pytest.approx(-2.0482612, rel=1e-7)
    assert high_aR(2.0, 1.0, atom) == pytest.approx(expect / 64.0, rel=1e-14)
    assert high_aR(2.0, 1.0, atom) == pytest.approx(-0.0320041, rel=1e-5)


def test_high_aR_linear_in_a(atom):
    assert high_aR(3.0, 2.0, atom) == pytest.approx(2.0 * high_aR(3.0, 1.0, atom), rel=1e-14)


def test_high_aR_zero_acceleration_warns(atom):
    # a = 0 lies outside the a R >> 1 law: high_aR once warned and returned
    # 0.0 there; it now refuses the input, without a warning, like high_acc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            high_aR(1.0, 0.0, atom)
        with pytest.raises(DomainError):
            closed_form_slope("high-ar", 1.0, 0.0, atom)


@pytest.fixture(scope="module")
def highacc_atoms():
    # atom A: mu_A^2 = 1 at omega0 = 1; atom B tuned so alpha_B(1) = 1 exactly
    atom_a = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=1.0),))
    atom_b = AtomSpec(transitions=(Transition(omega=math.sqrt(2.0),
                                              mu_sq=0.75 * math.sqrt(2.0)),))
    return atom_a, atom_b


def test_potential_high_acc_frozen(highacc_atoms):
    atom_a, atom_b = highacc_atoms
    v = potential_high_acc(1.0, 1.0, atom_a, atom_b)
    assert v == pytest.approx(-10.0 / (3.0 * math.pi), rel=1e-12)
    v10 = potential_high_acc(10.0, 1.0, atom_a, atom_b)
    assert v10 == pytest.approx(-(2.0 / (3.0 * math.pi)) * 1e-2 * 1.0103, rel=1e-4)
    # cubic in a
    assert potential_high_acc(1.0, 3.0, atom_a, atom_b) == \
        pytest.approx(27.0 * v, rel=1e-12)


def test_potential_high_acc_self_resonant_raises(atom):
    # identical atoms: B's line sits at k_A, where the value was once -0.0
    with pytest.raises(DomainError):
        potential_high_acc(1.0, 50.0, atom, atom)
    with pytest.raises(TypeError):
        potential_high_acc(1.0, 50.0, atom)   # atom B is required; it once defaulted to A


def test_potential_high_acc_damped_value(atom):
    # atom B's line lies within its linewidth of k_A = 1, so alpha_B(k_A)
    # takes the damped value Re alpha_B(1)
    o, gamma = 1.0 + 5e-7, 1e-6
    atom_b = AtomSpec(transitions=(Transition(omega=o, mu_sq=1.5),), damping=gamma)
    R, a = 2.0, 50.0
    # B's one line: alpha_r = 2 mu^2/(3 o) = 1/o, and
    # Re alpha_B(1) = alpha_r o^2 (o^2 - 1)/((o^2 - 1)^2 + gamma^2)
    d = o * o - 1.0
    alpha_b = (1.0 / o) * o * o * d / (d * d + gamma * gamma)
    assert alpha_b != 0.0
    expect = -(2.0 / 3.0) * 1.5 * alpha_b * a**3 / (math.pi * R**2) * (1 + 1 / R**2 + 3 / R**4)
    with pytest.warns(RuntimeWarning):
        assert potential_high_acc(R, a, atom, atom_b) == pytest.approx(expect, rel=1e-12)


def test_closed_form_domain_errors(atom, highacc_atoms):
    def high_acc(R, a, atom_a):
        return potential_high_acc(R, a, atom_a, highacc_atoms[1])

    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            near_zone_value(bad, atom)
        for law in (far_low_acc, high_aR, high_acc):
            with pytest.raises(DomainError):
                law(bad, 50.0, atom)
            if bad != 0.0:
                with pytest.raises(DomainError):
                    law(1.0, bad, atom)
        # the slope checks what its law's value checks; at R = -1 it once
        # returned -6.0 (near, high-ar) and -4.8 (high-acc)
        for law in ("near", "far-low", "high-ar", "high-acc"):
            with pytest.raises(DomainError):
                closed_form_slope(law, bad, 20.0, atom)
            if bad != 0.0 and law != "near":
                with pytest.raises(DomainError):
                    closed_form_slope(law, 1.0, bad, atom)
    # the high-acceleration law needs a > 0 (high_aR: see
    # test_high_aR_zero_acceleration_warns)
    for law in (high_acc,
                lambda R, a, atom: closed_form_slope("high-acc", R, a, atom)):
        with pytest.raises(DomainError):
            law(1.0, 0.0, atom)
    # beyond the range of a double: a value that overflows is a DomainError,
    # one that underflows is -0.0 (each once a bare OverflowError or
    # ZeroDivisionError)
    for law, R, a in ((lambda R, a, atom: near_zone_value(R, atom), 1e-60, 0.0),
                      (far_low_acc, 1e-100, 1e-3), (high_aR, 1e-60, 1e-3),
                      (high_acc, 1e-200, 20.0)):
        with pytest.raises(DomainError):
            law(R, a, atom)
    for law, R, a in ((far_low_acc, 1e50, 0.0), (high_aR, 1e60, 1e-3),
                      (high_acc, 1e200, 20.0)):
        value = law(R, a, atom)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
    assert closed_form_slope("far-low", 1e50, 0.0, atom) == -7.0
    # a reduced argument beyond the largest double (R omega0 / c at 1e300 m
    # in si mode) has no exact value: a DomainError that says so, for the
    # value and the slope alike
    si = two_level(4e15, 1e-24)
    for law in (lambda: near_zone_value(1e300, si, "si"),
                lambda: closed_form_slope("far-low", 1e300, 9.8, si, "si")):
        with pytest.raises(DomainError, match="reduced argument"):
            law()


def _tuple_or_float(out):
    return tuple(map(float, out)) if isinstance(out, tuple) else float(out)


def _exact_rounded(law, args, units):
    """The reference outside the float range: the law's exact rational value
    rounded once; DomainError stands for a value beyond the largest double,
    a zero divisor or an argument that is not finite."""
    scale = Fraction(units.hbar) * Fraction(units.omega0)
    try:
        return _tuple_or_float(law(lambda v: v * scale, *map(Fraction, args)))
    except (OverflowError, ValueError, ZeroDivisionError):
        return DomainError


def _bits(out):
    if out is DomainError:
        return out
    return tuple(v.hex() for v in out) if isinstance(out, tuple) else out.hex()


def test_rounded_float_path_bits_and_exact_path_rounded_once(monkeypatch):
    # every law of _rounded on a seeded sample of inputs: inside the float
    # range np.float64 steps raise nothing and the float path has their
    # bits; elsewhere the value is the exact one rounded once, or the
    # DomainError where that overflows or divides by zero
    calls = []
    rounded = asymptotics._rounded

    def recording(law, *args, units):
        calls.append((law, args, units))
        return rounded(law, *args, units=units)

    monkeypatch.setattr(asymptotics, "_rounded", recording)
    rng = random.Random(22)
    lo, hi = math.log2(FLOAT_MIN), math.log2(FLOAT_MAX)
    edges = (FLOAT_MIN, FLOAT_MAX, math.nextafter(FLOAT_MIN, 0.0),
             math.nextafter(FLOAT_MAX, math.inf), 1e-60, 1e50)

    def magnitude():
        pick = rng.random()
        if pick < 0.6:
            return 2.0 ** rng.uniform(lo, hi)
        if pick < 0.8:
            return rng.choice(edges)
        return 2.0 ** rng.choice((rng.uniform(lo - 20, lo), rng.uniform(hi, hi + 20)))

    seen = {}
    for _ in range(400):
        omega0 = 1.0 if rng.random() < 0.7 else magnitude()
        units = "si" if rng.random() < 0.1 else "natural"
        atom, atom_b = two_level(omega0, magnitude()), two_level(2.0 * omega0, magnitude())
        R, a = magnitude(), 0.0 if rng.random() < 0.1 else magnitude()
        for name, call in (
                ("near", lambda: near_zone_value(R, atom, units)),
                ("far-low terms", lambda: far_low_acc_parts(R, a, atom, units)),
                ("far-low", lambda: far_low_acc(R, a, atom, units)),
                ("far-low slope", lambda: closed_form_slope("far-low", R, a, atom, units)),
                ("high_aR", lambda: high_aR(R, a, atom, units)),
                ("high_acc", lambda: potential_high_acc(R, a, atom, atom_b, units)),
                ("high_acc slope", lambda: closed_form_slope("high-acc", R, a, atom, units))):
            calls.clear()
            try:
                out = call()
            except DomainError:
                out = DomainError
            if not calls:   # refused by the law's domain check (a = 0)
                continue
            [(law, args, u)] = calls
            inside = (all(x == 0.0 or FLOAT_MIN <= abs(x) <= FLOAT_MAX for x in args)
                      and all(RESTORE_MIN <= x <= RESTORE_MAX for x in (u.hbar, u.omega0)))
            if inside:
                with np.errstate(all="raise"):
                    want = _tuple_or_float(law(u.restore_energy, *map(np.float64, args)))
            else:
                want = _exact_rounded(law, args, u)
            assert _bits(out) == _bits(want), (name, args, u)
            seen.setdefault(name, [0, 0])[not inside] += 1
    assert len(seen) == 7
    assert all(min(counts) >= 20 for counts in seen.values()), seen
    # a zero divisor (R * omega0 underflows to 0) leaves the float path
    with pytest.raises(DomainError):
        near_zone_value(5e-324, two_level(0.5, 1.0))


@given(st.floats(min_value=1e-2, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_high_acc_bracket_floor(x):
    assert _high_acc_bracket(x) >= 1.0


def test_closed_form_slopes(atom):
    assert closed_form_slope("far-low", 7.0, 0.0, atom) == pytest.approx(-7.0, rel=1e-15)
    assert closed_form_slope("high-ar", 7.0, 1.0, atom) == -6.0
    assert closed_form_slope("near", 1e-3, 0.0, atom) == -6.0
    # high-acceleration law tends to -2 in the far zone
    assert closed_form_slope("high-acc", 100.0, 50.0, atom) == pytest.approx(-2.0, abs=3e-4)
    assert closed_form_slope("high-acc", 1e-2, 50.0, atom) == pytest.approx(-6.0, abs=1e-3)
