"""Retardation weight of the two-atom dispersion integrand.

The weight multiplying k^4 e^{2ikR} alpha^2(k) in the interaction integral
is, with x = kR,

    u_factor(x) = 1 - 5/x^2 + 3/x^4 + i (2/x - 6/x^3)

On the positive imaginary axis (x -> i x) it collapses to the real, all-plus
combination

    u_factor(i x) = quartic_weight(x)/x^4 = 1 + 2/x + 5/x^2 + 6/x^3 + 3/x^4

whose numerator x^4 + 2x^3 + 5x^2 + 6x + 3 is the familiar quartic of
retarded dispersion forces; the far-zone 23/(4 pi) and the near-zone 3/4
coefficients both follow from it.  The sign-free coefficient pattern
{1,2,5,6,3} belongs to the imaginary axis only; placing it on the real axis
breaks the oscillatory cancellation at the origin and the far-zone law.

osc_imag_part evaluates Im[e^{2ix} u_factor(x)], the only part the potential
takes, odd in x, at a float or elementwise on a numpy array: by its Taylor
series (Horner's rule in x^2) for |x| <= 1/2, where the closed form cancels,
and by the trigonometric closed form only on the elements above.
"""
from __future__ import annotations

from math import factorial

import numpy as np

from .errors import DomainError

SERIES_SWITCH = 0.5
_NTERMS = 42

# numerator polynomial of x^4 * u_factor(x): 3 - 6i x - 5 x^2 + 2i x^3 + x^4
_NUMER = {0: 3.0, 1: -6j, 2: -5.0, 3: 2j, 4: 1.0}


def _exp_numer_coeffs(n: int = _NTERMS) -> list[complex]:
    """Taylor coefficients of e^{2ix} (x^4 + 2i x^3 - 5x^2 - 6i x + 3)."""
    out = []
    for m in range(n):
        s = 0j
        for j, cj in _NUMER.items():
            if m >= j:
                s += cj * (2j) ** (m - j) / factorial(m - j)
        out.append(s)
    return out


_EXP_NUMER = _exp_numer_coeffs()
# e^{2ix} u(x) = 3/x^4 + 1/x^2 + 1 + (22/15) i x + ...; all coefficients of
# x^{-4}..x^{0} are real, so Im[e^{2ix} u(x)] = O(x).
_SIGMA = [c.imag for c in _EXP_NUMER]
# Im[e^{2ix} u(x)] is odd in x, x * sum_j _SIGMA[5 + 2j] x^{2j}; osc_imag_part
# sums it by Horner's rule in x^2 over the coefficients that still count in
# double precision at the switch, lowest order first
_SIGMA_EVEN_ARRAY = np.array([c for j, c in enumerate(_SIGMA[5::2])
                              if abs(c) * SERIES_SWITCH ** (2 * j) >= 2.0**-60 * _SIGMA[5]])


def u_factor(x) -> complex:
    """Retardation weight at real or complex x (kR); x = 0 is excluded.

    For real x it satisfies u_factor(-x) = conj(u_factor(x)), and on the
    imaginary axis u_factor(i x) = quartic_weight(x)/x^4 is real.
    """
    if x == 0:
        raise DomainError("u_factor is singular at x = 0")
    z = complex(x)
    inv = 1.0 / z
    return u_numerator(z) * inv**4


def u_numerator(x):
    """Numerator x^4 u_factor(x) = x^4 + 2i x^3 - 5x^2 - 6i x + 3 in Horner
    form, at real or complex x, scalar or array."""
    return (((x + 2j) * x - 5.0) * x - 6j) * x + 3.0


def quartic_weight(x: float) -> float:
    """Numerator x^4 + 2x^3 + 5x^2 + 6x + 3 of the imaginary-axis weight."""
    return (((x + 2.0) * x + 5.0) * x + 6.0) * x + 3.0


def osc_imag_part(x):
    """Im[e^{2ix} u_factor(x)] for real x, odd in x and stable down to x -> 0.

    Takes a float (returns a float) or an array (elementwise; each element is
    a function of that element alone).  The closed trigonometric form loses
    all significance below |x| ~ 1e-3 (terms ~ 6/x^3 cancel to O(x)), so for
    |x| <= SERIES_SWITCH the odd Taylor series, by Horner's rule in x^2,
    gives the value; the closed form, exact for every real x != 0, is
    evaluated only on the elements with |x| > SERIES_SWITCH.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    s = np.minimum(np.maximum(flat, -SERIES_SWITCH), SERIES_SWITCH)
    s2 = s * s
    acc = _SIGMA_EVEN_ARRAY[-1] * s2
    for c in _SIGMA_EVEN_ARRAY[-2:0:-1]:
        acc += c
        acc *= s2
    acc += _SIGMA_EVEN_ARRAY[0]
    out = s * acc
    big = np.abs(flat) > SERIES_SWITCH
    if big.any():
        b = flat[big]
        inv2 = 1.0 / (b * b)
        out[big] = (np.sin(2.0 * b) * (1.0 - 5.0 * inv2 + 3.0 * inv2 * inv2)
                    + np.cos(2.0 * b) * (2.0 - 6.0 * inv2) / b)
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


__all__ = [
    "u_factor",
    "u_numerator",
    "quartic_weight",
    "osc_imag_part",
]


def _check_series():
    # The x^{-4}..x^0 Taylor data of e^{2ix}u(x) must be {3,0,1,0,1} + 0i.
    expect = [3.0, 0.0, 1.0, 0.0, 1.0]
    for m, want in enumerate(expect):
        c = _EXP_NUMER[m]
        if abs(c - want) > 1e-12:
            raise AssertionError(f"series coefficient {m} off: {c} != {want}")
    if any(abs(c) > 1e-12 for c in _SIGMA[6::2]):
        raise AssertionError("Im[e^{2ix} u(x)] must be odd in x")


_check_series()
