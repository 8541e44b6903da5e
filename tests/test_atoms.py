import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhcp import (
    AtomSpec,
    InputError,
    Transition,
    alpha_static,
    load_atom,
    two_level,
)
from unruhcp.atoms import oscillator_sum, oscillator_weights


def _alpha_imag(xi, atom):
    """alpha(i xi), the oscillator sum at z2 = -xi^2."""
    return oscillator_sum(-xi * xi, oscillator_weights(atom), [t.omega for t in atom.transitions])


def _alpha_real(k, atom):
    """The damped alpha(k), the oscillator sum at z2 = k^2 + i gamma k."""
    return oscillator_sum(k * k + 1j * atom.damping * k, oscillator_weights(atom),
                          [t.omega for t in atom.transitions])


def test_alpha_static_identity_normalization():
    atom = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=1.5),))
    assert alpha_static(atom) == pytest.approx(1.0, rel=1e-15)


def test_alpha_static_inverse_frequency():
    atom = AtomSpec(transitions=(Transition(omega=2.0, mu_sq=1.5),))
    assert alpha_static(atom) == pytest.approx(0.5, rel=1e-15)


def test_alpha_static_two_transitions():
    atom = AtomSpec(transitions=(Transition(1.0, 1.5), Transition(3.0, 4.5)))
    # direct sum: 2/3 * (1.5/1 + 4.5/3) = 1 + 1
    assert alpha_static(atom) == pytest.approx(2.0, rel=1e-15)


def test_alpha_imag_examples(atom):
    assert _alpha_imag(0.0, atom) == pytest.approx(alpha_static(atom), rel=1e-15)
    assert _alpha_imag(1.0, atom) == pytest.approx(0.5, rel=1e-15)
    assert _alpha_imag(3.0, atom) == pytest.approx(0.1, rel=1e-15)


def test_alpha_real_static_limit(atom):
    got = _alpha_real(0.0, atom)
    assert got.real == pytest.approx(1.0, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_alpha_real_transparency(atom):
    assert abs(_alpha_real(1e4, atom)) < 1e-7


def test_alpha_real_off_resonance_value(atom):
    # 1/(1 - 4 - i 2e-6): real part -1/3, imaginary part gamma*k/9
    got = _alpha_real(2.0, atom)
    assert got.real == pytest.approx(-1.0 / 3.0, rel=1e-9)
    assert got.imag == pytest.approx(2e-6 / 9.0, rel=1e-6)


def test_oscillator_sum_matches_per_line_formula(atom3):
    weights = oscillator_weights(atom3)
    omegas = [t.omega for t in atom3.transitions]
    real = [0.3, 2.5, 30.0]             # real k^2, between and beyond the lines
    imaginary = [-1e-4, -4.0, -900.0]   # z2 = -u^2 on the imaginary axis
    damped = [1.2 + 1e-3j, 16.0 + 0.5j, 0.5 + 1e-6j]
    for z2 in real + imaginary + damped:
        expect = sum(w * o**2 / (o**2 - z2) for w, o in zip(weights, omegas))
        assert oscillator_sum(z2, weights, omegas) == pytest.approx(expect, rel=1e-14)
    # real arrays repeat the scalar arithmetic exactly; numpy's complex
    # division is a different algorithm from Python's, so damped arrays
    # agree to rounding
    for z2s, rel in [(real + imaginary, 0.0), (damped, 1e-15)]:
        arr = oscillator_sum(np.array(z2s), weights, omegas)
        for z2, got in zip(z2s, arr):
            assert got == pytest.approx(oscillator_sum(z2, weights, omegas), rel=rel, abs=0.0)


def test_alpha_real_sign_flip_across_resonance(atom):
    assert _alpha_real(0.9, atom).real > 0
    assert _alpha_real(1.1, atom).real < 0


@given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_alpha_imag_monotone_convex(omega, alpha0):
    # alpha0 omega^2/(omega^2 + xi^2) is completely monotone in s = xi^2:
    # positive, strictly decreasing and convex on an s grid
    atom = two_level(omega, alpha0)
    s_grid = [0.0, 0.01, 0.1, 1.0, 9.0, 100.0, 900.0]
    vals = [_alpha_imag(math.sqrt(s), atom) for s in s_grid]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for (x0, v0), (x1, v1), (x2, v2) in zip(
            zip(s_grid, vals), zip(s_grid[1:], vals[1:]), zip(s_grid[2:], vals[2:])):
        chord = v0 + (v2 - v0) * (x1 - x0) / (x2 - x0)
        assert v1 <= chord + 1e-15


def test_atom_validation():
    with pytest.raises(InputError):
        AtomSpec(transitions=())
    with pytest.raises(InputError):
        Transition(omega=-1.0, mu_sq=1.0)
    with pytest.raises(InputError):
        Transition(omega=1.0, mu_sq=-0.5)
    with pytest.raises(InputError):
        AtomSpec(transitions=(Transition(1.0, 1.0),), damping=1e-2)  # > 1e-3 omega0
    with pytest.raises(InputError):
        AtomSpec(transitions=(Transition(1.0, 0.0),))  # alpha(0) = 0
    # an infinite or nan line once passed, and eval then exited 3 with V = nan
    for omega, mu_sq in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(InputError):
            Transition(omega=omega, mu_sq=mu_sq)


def test_default_damping_fraction(atom):
    assert atom.damping == pytest.approx(1e-6 * atom.omega0, rel=1e-15)


def test_load_atom_two_level_shorthand(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({"two_level": {"omega0": 2.0, "alpha0": 3.0}}))
    atom = load_atom(str(path))
    assert len(atom.transitions) == 1
    # mu^2 = 3 hbar omega0 alpha0 / 2 = 9 in natural units
    assert atom.transitions[0].mu_sq == pytest.approx(9.0, rel=1e-15)
    assert alpha_static(atom) == pytest.approx(3.0, rel=1e-15)


def test_load_atom_explicit(tmp_path):
    doc = {"transitions": [{"omega": 1.0, "mu_sq": 1.5}, {"omega": 3.0, "mu_sq": 4.5}],
           "damping": 1e-7}
    path = tmp_path / "atom.json"
    path.write_text(json.dumps(doc))
    atom = load_atom(str(path))
    assert atom.damping == 1e-7
    assert alpha_static(atom) == pytest.approx(2.0, rel=1e-15)


def test_load_atom_errors(tmp_path):
    with pytest.raises(InputError):
        load_atom(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(InputError):
        load_atom(str(bad))
    bad.write_text(json.dumps({"transitions": [{"omega": 1.0}]}))
    with pytest.raises(InputError):
        load_atom(str(bad))
    # a file object is not a source: its JSON errors were never InputErrors
    with pytest.raises(InputError, match="file path"):
        load_atom(io.StringIO('{"two_level": {"omega0": 1.0, "alpha0": 1.0}}'))
    # malformed numbers once escaped as a bare ValueError or TypeError, and
    # infinite ones as an atom whose potential is nan
    two = {"two_level": {"omega0": 1.0, "alpha0": 1.0}}
    line = {"omega": 1.0, "mu_sq": 1.0}
    for doc in ({**two, "damping": "x"}, {**two, "damping": None},
                {"two_level": {"omega0": "x", "alpha0": 1.0}},
                {"transitions": [{"omega": "x", "mu_sq": 1.0}]},
                {"transitions": [line, {"omega": 2.0, "mu_sq": "inf"}]},
                {"transitions": [line, {"omega": "inf", "mu_sq": 1.0}]},
                # JSON booleans once loaded as 1.0 and 0.0, and a negative
                # damping as the default linewidth
                {"transitions": [{"omega": True, "mu_sq": 1.0}]},
                {"transitions": [{"omega": 1.0, "mu_sq": False}]},
                {"two_level": {"omega0": 1.0, "alpha0": True}},
                {**two, "damping": True},
                {**two, "damping": -5}, {"transitions": [line], "damping": -1e-7}):
        with pytest.raises(InputError):
            load_atom(doc)
    # a misspelt key was once skipped, and two_level won over transitions
    with pytest.raises(InputError, match="unknown key 'dampnig'"):
        load_atom({**two, "dampnig": 1e-7})
    with pytest.raises(InputError, match="not both"):
        load_atom({**two, "transitions": [line]})
    # so was a misspelt key inside an entry
    with pytest.raises(InputError, match="unknown key 'alpah0'"):
        load_atom({"two_level": {"omega0": 1.0, "alpha0": 1.0, "alpah0": 5.0}})
    with pytest.raises(InputError, match="unknown key 'mu'"):
        load_atom({"transitions": [line, {"omega": 2.0, "mu_sq": 1.0, "mu": 3}]})


def test_omega0_is_lowest(atom3):
    assert atom3.omega0 == 1.0
