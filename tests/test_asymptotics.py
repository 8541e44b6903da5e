import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhcp import (
    AtomSpec,
    DomainError,
    NumericalFailure,
    Transition,
    alpha_real,
    far_low_acc,
    far_low_acc_parts,
    fit_a2_near_coefficient,
    high_aR,
    near_zone_inertial,
    near_zone_value,
    potential_grid,
    potential_high_acc,
    two_level,
)
from unruhcp import asymptotics
from unruhcp.asymptotics import _high_acc_bracket, closed_form_slope
from unruhcp.potential import DEFAULT_QUAD
from unruhcp.sweep import _section_near_a2


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
    from unruhcp.potential import _reduce_atom

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
    with pytest.warns(RuntimeWarning):
        assert high_aR(1.0, 0.0, atom) == 0.0


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
    atom_b = AtomSpec(transitions=(Transition(omega=1.0 + 5e-7, mu_sq=1.5),), damping=1e-6)
    R, a = 2.0, 50.0
    alpha_b = alpha_real(1.0, atom_b).real
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
    for law in (high_acc, lambda R, a, atom: closed_form_slope("high-acc", R, a, atom)):
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


def test_fit_a2_near_coefficient_smoke(atom):
    fit = fit_a2_near_coefficient(atom)
    assert fit.exponent_a == pytest.approx(2.0, abs=0.05)
    assert fit.exponent_R == pytest.approx(-6.0, abs=0.05)
    assert fit.K > 0
    # two-level closed-form cross-check: K = (3/pi) * (3 pi/4) alpha0^2 = 9/4
    assert fit.K == pytest.approx(2.25, rel=1e-3)


def test_fit_a2_near_coefficient_raises_grid_failure(atom, monkeypatch):
    # a failed grid entry is raised as the point call raised it, and the
    # report section turns it into a failed check with the message
    failure = NumericalFailure("contour quadrature missed its tolerance (injected)")

    def failing_grid(*args, **kwargs):
        grid = potential_grid(*args, **kwargs)
        grid[1][2] = failure
        return grid

    monkeypatch.setattr(asymptotics, "potential_grid", failing_grid)
    with pytest.raises(NumericalFailure) as info:
        fit_a2_near_coefficient(atom)
    assert info.value is failure
    section = _section_near_a2(atom, DEFAULT_QUAD, "natural")
    assert section == {"pass": False, "error": str(failure)}
