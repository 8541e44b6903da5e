import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhcp import (
    InputError,
    UnitSystem,
    classify_regime,
    potential_high_acc,
    potential_numeric,
    potential_oracle,
    two_level,
    units_for,
    validity_check,
)

positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)


@given(positive, st.sampled_from(["natural", "si"]))
@settings(max_examples=60, deadline=None)
def test_unit_round_trips(value, mode):
    u = UnitSystem(mode=mode, omega0=2.45e15 if mode == "si" else 3.0)
    for reduce_, restore in [
        (u.reduce_length, u.restore_length),
        (u.reduce_acceleration, u.restore_acceleration),
        (u.reduce_frequency, u.restore_frequency),
        (u.reduce_alpha, u.restore_alpha),
        (u.reduce_energy, u.restore_energy),
    ]:
        back = restore(reduce_(value))
        assert abs(back - value) <= 1e-12 * value


def test_si_reduction_scales():
    u = UnitSystem(mode="si", omega0=1e15)
    # R = c/omega0 reduces to 1
    assert u.reduce_length(299792458.0 / 1e15) == pytest.approx(1.0, rel=1e-12)
    # a = omega0 * c reduces to 1
    assert u.reduce_acceleration(1e15 * 299792458.0) == pytest.approx(1.0, rel=1e-12)


def test_unit_system_validation():
    with pytest.raises(InputError):
        UnitSystem(mode="imperial")
    with pytest.raises(InputError):
        UnitSystem(omega0=0.0)


def test_validity_inertial(atom):
    rep = validity_check(0.0, atom)
    assert rep.status == "valid"


def test_validity_examples(atom):
    rep = validity_check(0.01, atom)  # a = 0.01 omega0 c
    assert rep.ratio == pytest.approx(100.0)
    assert rep.status == "valid"
    assert validity_check(100.0, atom).status == "excited"
    assert validity_check(1.0, atom).status == "marginal"


def test_classify_regime_examples(atom):
    r = classify_regime(0.01, 0.0, atom)
    assert (r.zone, r.acceleration, r.aR_class) == ("near", "low", "small")
    r = classify_regime(100.0, 1e-3, atom)
    assert (r.zone, r.acceleration, r.aR_class) == ("far", "low", "crossover")
    r = classify_regime(1.0, 5.0, atom)
    assert r.zone == "crossover"
    r = classify_regime(1.0, 0.0, atom)
    assert r.zone == "crossover"


def test_regime_rejects_non_finite(atom):
    for R, a in [(1.0, math.nan), (math.inf, 0.01), (1.0, math.inf)]:
        with pytest.raises(InputError):
            classify_regime(R, a, atom)
    for a in (math.nan, math.inf):
        with pytest.raises(InputError):
            validity_check(a, atom)


def test_regime_consistency_with_ratios(atom):
    r = classify_regime(25.0, 0.05, atom)
    assert r.R_omega0_over_c == pytest.approx(25.0)
    assert r.a_over_omega0_c == pytest.approx(0.05)
    assert r.aR_over_c2 == pytest.approx(1.25)
    assert (r.zone, r.acceleration, r.aR_class) == ("far", "low", "crossover")


def test_units_for(atom):
    u = units_for(atom, "natural")
    assert u.omega0 == atom.omega0 == 1.0
    assert units_for(atom) == u
    assert units_for(atom, "si") == UnitSystem(mode="si", omega0=atom.omega0)
    # the anchor is the atom's lowest line: units is a mode name, never a
    # caller's UnitSystem, and None does not stand for "natural"
    for units in (UnitSystem(mode="si", omega0=2.45e15), UnitSystem(), None):
        with pytest.raises(InputError):
            units_for(atom, units)


@pytest.mark.parametrize("evaluate, args, units", [
    # alpha_B read at reduced k = 1, which is omega = 2 above atom B's line
    # at 1.7: the high-acceleration law with the wrong sign
    (potential_high_acc, (1.0, 20.0), UnitSystem(omega0=2.0)),
    # the Bose route's cut crosses the line: off by 3e-7 with an estimate of 1.7e-7
    (potential_numeric, (1.0, 0.3), UnitSystem(omega0=3.0)),
    # a NumericalFailure at a point the oracle evaluates
    (potential_oracle, (1.0, 0.3), UnitSystem(omega0=3.0)),
    # once silently "natural"
    (potential_numeric, (1.0, 0.3), None),
], ids=["high_acc_anchor", "contour_anchor", "oracle_anchor", "none"])
def test_evaluators_refuse_anything_but_a_mode_name(atom, evaluate, args, units):
    atoms = (atom, two_level(1.7)) if evaluate is potential_high_acc else (atom,)
    with pytest.raises(InputError, match="unknown unit mode"):
        evaluate(*args, *atoms, units=units)


def test_si_and_natural_describe_same_physics(atom):
    # the same two-level atom expressed in SI/cgs quantities must reduce to
    # the identical dimensionless potential
    from unruhcp import AtomSpec, Transition, potential_numeric
    from unruhcp.constants import C_SI, HBAR_CGS

    omega_si = 2.45e15  # rad/s
    alpha0_cm3 = (C_SI / omega_si) ** 3 * 1e6  # alpha0 = 1 in reduced units
    mu_sq = 1.5 * HBAR_CGS * omega_si * alpha0_cm3
    atom_si = AtomSpec(transitions=(Transition(omega=omega_si, mu_sq=mu_sq),))

    u = UnitSystem(mode="si", omega0=omega_si)
    for Rt, at in [(1.0, 0.05), (10.0, 0.01)]:
        R_si = u.restore_length(Rt)
        a_si = u.restore_acceleration(at)
        v_si = potential_numeric(R_si, a_si, atom_si, units="si").value
        v_nat = potential_numeric(Rt, at, atom, units="natural").value
        assert u.reduce_energy(v_si) == pytest.approx(v_nat, rel=1e-10)
