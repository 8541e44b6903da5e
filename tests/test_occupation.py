import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhcp import DomainError, mode_occupation, occupation_highacc
from unruhcp.occupation import EXP_OVERFLOW, _bose, _occupation_parts


def test_vacuum_limit():
    occ = mode_occupation(1.0, 0.0)
    assert occ.value == 0.5
    assert occ.thermal_part == 0.0
    assert occ.nonthermal_part == 0.0


def test_unit_acceleration_value():
    # 1/2 * 2 * (1 + 2/(e^{2 pi} - 1))
    expect = 1.0 + 2.0 / math.expm1(2.0 * math.pi)
    occ = mode_occupation(1.0, 1.0)
    assert occ.value == pytest.approx(expect, rel=1e-14)
    assert occ.value == pytest.approx(1.003742, rel=1e-6)


def test_two_pi_acceleration_value():
    expect = 0.5 * (1.0 + 4.0 * math.pi**2) * (1.0 + 2.0 / math.expm1(1.0))
    occ = mode_occupation(1.0, 2.0 * math.pi)
    assert occ.value == pytest.approx(expect, rel=1e-14)
    assert occ.value == pytest.approx(43.797, rel=1e-4)


def test_domain_errors():
    with pytest.raises(DomainError):
        mode_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        mode_occupation(1.0, -1.0)
    with pytest.raises(DomainError):
        occupation_highacc(-1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            mode_occupation(bad, 1.0)
        with pytest.raises(DomainError):
            mode_occupation(1.0, bad)
        with pytest.raises(DomainError):
            occupation_highacc(bad, 1.0)
        with pytest.raises(DomainError):
            occupation_highacc(1.0, bad)
    # finite inputs whose occupation is not a finite double
    for omega, a in [(1e-200, 1e200), (1.0, 1e300), (1e-300, 1.0), (1e-160, 1e160)]:
        with pytest.raises(DomainError):
            mode_occupation(omega, a)


def test_decomposition_exact():
    occ = mode_occupation(0.7, 2.3)
    assert occ.value == occ.thermal_part + occ.nonthermal_part + 0.5


def test_overflow_guard():
    # 2 pi c omega / a > 700: Bose branch returns the a -> 0 limit of that factor
    occ = mode_occupation(1000.0, 1e-3)
    x2 = (1e-3 / 1000.0) ** 2
    assert occ.thermal_part == 0.0
    assert occ.value == pytest.approx(0.5 * (1.0 + x2), rel=1e-15)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=80, deadline=None)
def test_floor_and_equality_only_at_zero(omega, a):
    assert mode_occupation(omega, a).value > 0.5
    assert mode_occupation(omega, 0.0).value == 0.5


@given(st.floats(min_value=1e-2, max_value=1e2))
@settings(max_examples=30, deadline=None)
def test_monotone_in_acceleration(omega):
    accs = [0.0, 0.1, 0.5, 2.0, 10.0, 100.0]
    vals = [mode_occupation(omega, a).value for a in accs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=1e-2, max_value=1e2))
@settings(max_examples=30, deadline=None)
def test_monotone_decreasing_in_frequency(a):
    omegas = [0.01, 0.1, 1.0, 10.0, 100.0]
    vals = [mode_occupation(w, a).value for w in omegas]
    assert all(b < a_ for a_, b in zip(vals, vals[1:]))


def test_thermality_breaking_factor():
    # value / (1/2 + Bose) must equal 1 + a^2 / (c omega)^2 exactly
    for omega, a in [(1.0, 0.3), (2.0, 5.0), (0.2, 0.9)]:
        occ = mode_occupation(omega, a)
        planck = 0.5 + occ.thermal_part + 0.0
        # Planck form: 1/2 (1 + 2 Bose) = 1/2 + Bose
        assert occ.value / planck == pytest.approx(1.0 + (a / omega) ** 2, rel=1e-14)


def test_highacc_examples():
    assert occupation_highacc(1.0, 10.0) == pytest.approx(1000.0 / (2 * math.pi), rel=1e-14)
    exact = mode_occupation(1.0, 10.0).value
    assert exact == pytest.approx(165.99, rel=1e-4)
    assert occupation_highacc(1.0, 10.0) / exact == pytest.approx(0.959, rel=1e-3)


def test_highacc_bound_and_limit():
    for y in (10.0, 30.0, 100.0, 1000.0):
        exact = mode_occupation(1.0, y).value
        approx = occupation_highacc(1.0, y)
        assert abs(approx / exact - 1.0) <= 5.0 / y**2
    assert occupation_highacc(1.0, 1e6) / mode_occupation(1.0, 1e6).value == \
        pytest.approx(1.0, abs=1e-11)


def test_highacc_zero_acceleration_warns():
    with pytest.warns(RuntimeWarning):
        assert occupation_highacc(1.0, 0.0) == 0.0


def test_occupation_kernel_on_arrays_matches_scalar():
    # t = 2 pi omega / a spans 1e-5 .. 1e6, so some entries take the t > 700 cut
    rng = np.random.default_rng(7)
    omegas = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2000))
    accs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2000))
    assert (2.0 * math.pi * omegas / accs > EXP_OVERFLOW).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, thermal, nonthermal = _occupation_parts(omegas, accs)
    for k, (w, a) in enumerate(zip(omegas.tolist(), accs.tolist())):
        occ = mode_occupation(w, a)
        assert value[k] == pytest.approx(occ.value, rel=1e-15, abs=0.0)
        assert thermal[k] == pytest.approx(occ.thermal_part, rel=1e-15, abs=0.0)
        assert nonthermal[k] == pytest.approx(occ.nonthermal_part, rel=1e-15, abs=0.0)


def test_bose_factor_on_arrays():
    real = np.array([1e-8, 0.5, 30.0, EXP_OVERFLOW, EXP_OVERFLOW + 1.0, 1e5])
    cplx = real + 3.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, c = _bose(real), _bose(cplx)
    assert r[-2:].tolist() == [0.0, 0.0] and c[-2:].tolist() == [0.0, 0.0]
    for t, v in zip(real[:-2], r[:-2]):
        assert v == pytest.approx(_bose(float(t)), rel=1e-15)
    for t, v in zip(cplx[:-2], c[:-2]):
        assert v == pytest.approx(1.0 / (np.exp(t) - 1.0), rel=1e-12)
