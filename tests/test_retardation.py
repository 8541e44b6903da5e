import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhcp import DomainError, u_factor
from unruhcp.retardation import osc_imag_part, quartic_weight


def test_u_factor_frozen_values():
    # direct substitution into 1 - 5/x^2 + 3/x^4 + i(2/x - 6/x^3)
    assert u_factor(1.0) == pytest.approx(-1.0 - 4.0j, rel=1e-15)
    assert u_factor(0.5) == pytest.approx(29.0 - 44.0j, rel=1e-15)
    got = u_factor(100.0)
    assert got.real == pytest.approx(0.99950003, rel=1e-9)
    assert got.imag == pytest.approx(0.01999400, rel=1e-8)


def test_u_factor_singular_at_origin():
    with pytest.raises(DomainError):
        u_factor(0.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_u_factor_real_axis_reflection(x):
    # crossing symmetry on the real axis
    left = u_factor(-x)
    right = u_factor(x).conjugate()
    assert left == pytest.approx(right, rel=1e-13)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_u_factor_imaginary_axis_is_real_weight(x):
    val = u_factor(1j * x)
    assert abs(val.imag) <= 1e-13 * abs(val)
    assert val.real == pytest.approx(quartic_weight(x) / x**4, rel=1e-12)


def test_imag_axis_weight_values():
    # the all-plus coefficient pattern {1,2,5,6,3} lives on the imaginary axis
    assert quartic_weight(2.0) / 2.0**4 == pytest.approx(1 + 2 / 2 + 5 / 4 + 6 / 8 + 3 / 16,
                                                         rel=1e-15)
    assert quartic_weight(1.0) == pytest.approx(17.0, rel=1e-15)
    assert quartic_weight(2.0) == pytest.approx(16 + 16 + 20 + 12 + 3, rel=1e-15)


def test_osc_parts_match_direct_formula():
    # the closed form, for either sign of x: the kernel is odd on all reals
    for x in (0.5000001, 0.6, 1.3, 7.7, 40.0):
        for y in (x, -x):
            direct = cmath.exp(2j * y) * u_factor(y)
            assert osc_imag_part(y) == pytest.approx(direct.imag, rel=1e-12)
        assert osc_imag_part(-x) == -osc_imag_part(x)


def test_osc_imag_part_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def reference(x):
        z = mpmath.mpf(x)
        return float(mpmath.sin(2 * z) * (1 - 5 / z**2 + 3 / z**4)
                     + mpmath.cos(2 * z) * (2 - 6 / z**2) / z)

    # relative to the value on the series branch and just above the switch,
    # where the closed form cancels about 40-fold (at x = 1/2, 29 sin 1 -
    # 44 cos 1; measured worst 1.7e-14); beyond, where the value crosses
    # zero, relative to the amplitude |u_factor(x)| of the oscillation
    series = np.concatenate([np.logspace(-8, math.log10(0.5), 60), [0.4999999, 0.5]])
    switch = np.concatenate([[0.5000001, 0.50001, 0.501], np.linspace(0.505, 0.6, 20)])
    for xs, rel in ((series, 1e-15), (switch, 3e-14)):
        for x in xs:
            want = reference(x)
            assert abs(osc_imag_part(float(x)) - want) <= rel * abs(want), x
    for x in np.linspace(0.6, 40.0, 80):
        assert abs(osc_imag_part(float(x)) - reference(x)) <= 1e-14 * abs(u_factor(x)), x


def test_osc_series_branch_consistency():
    # series (|x| <= 0.5) and trig (|x| > 0.5) branches agree across the switch
    for x in (0.3, 0.45, 0.49, 0.499, 0.5):
        for y in (x, -x):
            direct = cmath.exp(2j * y) * u_factor(y)
            assert osc_imag_part(y) == pytest.approx(direct.imag, rel=1e-11)
        assert osc_imag_part(-x) == -osc_imag_part(x)


def test_osc_imag_small_x_law():
    # Im[e^{2ix} u(x)] = (22/15) x + O(x^3): the origin is regular
    for x in (1e-300, 1e-6, 1e-4, 1e-2):
        assert osc_imag_part(x) == pytest.approx(22.0 / 15.0 * x, rel=2e-4 + 10 * x * x)
        assert osc_imag_part(-x) == -osc_imag_part(x)


def test_osc_imag_part_takes_floats_and_arrays():
    xs = np.array([1e-6, 0.3, 0.5, 0.5000001, 7.7, 40.0])
    values = osc_imag_part(xs)
    assert values.shape == xs.shape
    for x, v in zip(xs, values):
        scalar = osc_imag_part(float(x))
        assert type(scalar) is float and scalar == v
    assert osc_imag_part(xs.reshape(2, 3)).tolist() == values.reshape(2, 3).tolist()
    # a Bose-piece sized array that mixes both branches and both signs
    xs = np.logspace(-6, math.log10(30.0), 5 * 168).reshape(5, 168)
    xs[:, ::2] *= -1.0
    assert osc_imag_part(xs).tolist() == [[osc_imag_part(float(x)) for x in row] for row in xs]
