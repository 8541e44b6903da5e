import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unruhcp.potential as potmod
from unruhcp import (
    AtomSpec,
    DomainError,
    NumericalFailure,
    RegimeError,
    Transition,
    alpha_static,
    mode_occupation,
    potential_grid,
    potential_numeric,
    potential_oracle,
    potential_oracle_grid,
    two_level,
    u_factor,
)
from unruhcp.retardation import osc_imag_part

# Ground-truth anchors computed independently with 40-digit arithmetic
# (deformed-path evaluation of the damped oscillatory integral).
GROUND_TRUTH = {
    (1.0, 0.0): -6.5126642622e-01,
    (1.0, 0.3): -8.7258102970e-01,
    (2.0, 0.5): -1.9804814950e-02,
    (40.0, 0.3): -1.8349011204e-09,
    (5000.0, 0.01): -2.5595885720e-22,
    (0.3, 0.1): -1.0383906255e+03,
    (0.5, 2.0): -7.7161787511e+02,     # marginal acceleration window
    (0.2, 5.0): -2.0375538585e+06,     # upper edge of the marginal window
    (1e-3, 0.2): -8.3999976037e+17,    # dense pole ladder, aR = 2e-4
    (0.05, 0.08): -4.8884577319e+07,
}


# ---------------------------------------------------------------------------
# inertial evaluator
# ---------------------------------------------------------------------------
def test_inertial_far_zone_coefficient(atom):
    v = potential_numeric(100.0, 0.0, atom)
    assert v.value * 100.0**7 == pytest.approx(-23.0 / (4.0 * math.pi), rel=0.01)
    assert v.value < 0


def test_inertial_near_zone_coefficient(atom):
    v = potential_numeric(1e-3, 0.0, atom)
    assert v.value * 1e-18 == pytest.approx(-0.75, rel=0.01)


def test_inertial_monotone(atom):
    grid = [0.05, 0.2, 1.0, 5.0, 20.0]
    vals = [potential_numeric(R, 0.0, atom).value for R in grid]
    assert all(v < 0 for v in vals)
    assert all(a < b < 0 for a, b in zip(vals, vals[1:]))


def test_inertial_parts(atom):
    v = potential_numeric(2.0, 0.0, atom)
    assert v.parts["vacuum"] == v.value
    assert v.parts["nonthermal_a2"] == 0.0
    assert v.parts["residue_sum"] == 0.0
    assert v.error_estimate >= 0.0
    assert v.regime.zone == "crossover"


def test_inertial_rejects_bad_R(atom):
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            potential_numeric(bad, 0.0, atom)
    for R, a in [(1.0, math.nan), (1.0, math.inf), (math.inf, 0.01)]:
        with pytest.raises(DomainError):
            potential_numeric(R, a, atom)


# ---------------------------------------------------------------------------
# accelerated evaluator
# ---------------------------------------------------------------------------
def test_underflowing_acceleration_is_the_inertial_point():
    # a = 5e-324 reduces to a/(omega0 c) = 0 at omega0 = 2; the contour
    # evaluator once took its Bose branch and divided by that zero
    atom = two_level(2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in (potential_grid, potential_oracle_grid):
            (tiny,), (zero,) = grid([1.0], [5e-324, 0.0], atom)
            assert (tiny.value, tiny.parts) == (zero.value, zero.parts)


def test_ground_truth_anchors(atom):
    # both evaluators, the marginal window included
    for evaluate in (potential_numeric, potential_oracle):
        for (R, a), expect in GROUND_TRUTH.items():
            got = evaluate(R, a, atom).value
            assert got == pytest.approx(expect, rel=1e-9), (evaluate.__name__, R, a)


def test_parts_sum_exactly(atom):
    for (R, a) in [(1.0, 0.05), (3.0, 0.1), (40.0, 0.3), (0.3, 0.1)]:
        res = potential_numeric(R, a, atom)
        total = res.parts["vacuum"] + res.parts["nonthermal_a2"] + res.parts["residue_sum"]
        assert total == pytest.approx(res.value, abs=1e-12 * abs(res.value) + 1e-300)


def test_mode_switch_consistency(atom, monkeypatch):
    # same point evaluated by the Bose-integral route and the pole-sum route
    pts = [(3.0, 0.1), (1.0, 0.12), (10.0, 0.02)]
    low = [potential_numeric(R, a, atom).value for R, a in pts]
    monkeypatch.setattr(potmod, "SWITCH_A", -1.0)  # force the pole-sum branch
    high = [potential_numeric(R, a, atom).value for R, a in pts]
    for v1, v2 in zip(low, high):
        assert v1 == pytest.approx(v2, rel=1e-9)


@pytest.mark.parametrize("atom_name", ["atom", "atom3"])
def test_bose_route_gives_the_ladder_value_next_to_the_switch(atom_name, request,
                                                              monkeypatch):
    # the Bose real-axis route is there to resolve the thermal (Unruh) part
    # below SWITCH_A; V is the same on the forced pole ladder, within the sum
    # of the two error estimates
    atom = request.getfixturevalue(atom_name)
    aRs = np.logspace(-3, math.log10(0.499), 8)
    bose = {a: potential_grid((aRs / a).tolist(), [a], atom)[0]
            for a in (0.1, 0.12, 0.124, 0.125)}
    assert all(a <= potmod.SWITCH_A and aRs[-1] <= potmod.SWITCH_AR for a in bose)
    monkeypatch.setattr(potmod, "SWITCH_A", -1.0)
    for a, row in bose.items():
        for b, p in zip(row, potential_grid((aRs / a).tolist(), [a], atom)[0]):
            assert abs(b.value - p.value) <= b.error_estimate + p.error_estimate


def test_acceleration_continuity_slope(atom):
    import numpy as np

    R = 1.0
    v0 = potential_numeric(R, 0.0, atom).value
    accs = np.logspace(-5, -3, 5)
    dvs = [abs(potential_numeric(R, float(a), atom).value - v0) for a in accs]
    slope = np.polyfit(np.log(accs), np.log(dvs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_excited_regime_rejected(atom):
    with pytest.raises(RegimeError):
        potential_numeric(1.0, 100.0, atom)


def test_marginal_regime_warns_in_result(atom):
    res = potential_numeric(1.0, 0.5, atom)
    assert any("marginal" in w for w in res.warnings)


def test_attractive_everywhere(atom):
    for R, a in [(0.01, 0.0), (0.5, 1.0), (2.0, 5.0), (30.0, 0.07), (200.0, 0.04)]:
        assert potential_numeric(R, a, atom).value < 0


@given(st.floats(min_value=-2.0, max_value=1.7), st.floats(min_value=-3.0, max_value=0.9))
@settings(max_examples=10, deadline=None)
def test_attractive_random(atom, log_R, log_a):
    R, a = 10.0**log_R, 10.0**log_a
    assert potential_numeric(R, a, atom).value < 0


def test_dense_pole_ladder_warning():
    atom = two_level(1.0, 1.0)
    res = potential_numeric(1e-3, 0.2, atom)  # aR = 2e-4, pole-sum branch
    assert any("dense pole ladder" in w for w in res.warnings)


def test_multi_transition_far_zone(atom3):
    a0 = alpha_static(atom3)
    v = potential_numeric(300.0, 0.0, atom3)
    assert v.value * 300.0**7 == pytest.approx(-23.0 * a0**2 / (4.0 * math.pi), rel=0.01)


# ---------------------------------------------------------------------------
# raw integrand
# ---------------------------------------------------------------------------
def test_integrand_reflection_symmetry(atom):
    # e^{2ikR} u(kR) conjugates under R -> -R at real k, so the imaginary
    # part of the integrand flips sign (zero-damping polarizability)
    k, R = 0.55, 3.0
    direct = complex(math.cos(2 * k * R), math.sin(2 * k * R)) * u_factor(k * R)
    mirrored = complex(math.cos(2 * k * R), -math.sin(2 * k * R)) * u_factor(-k * R)
    assert mirrored == pytest.approx(direct.conjugate(), rel=1e-13)


def test_integrand_small_k_quadratic_law(atom):
    # gamma -> 0 imaginary part: k^4 <n> alpha^2 Im[e^{2ikR}u(kR)]
    # = (11/15 pi) a^3 alpha0^2 R k^2 (1 + O(k))
    R, a = 1.0, 0.01
    coeff = 11.0 / (15.0 * math.pi) * a**3 * R

    def im_part(k):
        occ = mode_occupation(k, a).value
        alpha2 = (1.0 / (1.0 - k * k)) ** 2
        return k**4 * occ * alpha2 * osc_imag_part(k * R)

    v4, v5 = im_part(1e-4), im_part(1e-5)
    assert v4 / v5 == pytest.approx(100.0, rel=1e-3)  # exponent 2 in k
    assert v4 == pytest.approx(coeff * 1e-8, rel=1e-3)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------
def test_oracle_inertial_crossover(atom):
    vi = potential_numeric(1.0, 0.0, atom)
    vo = potential_oracle(1.0, 0.0, atom)
    assert abs(vo.value - vi.value) / abs(vi.value) < 1e-4


def test_oracle_accelerated_agreement(atom):
    vn = potential_numeric(10.0, 1e-3, atom)
    vo = potential_oracle(10.0, 1e-3, atom)
    assert abs(vo.value - vn.value) / abs(vn.value) < 1e-4
    assert vo.error_estimate > 0.0


def test_oracle_domain_enforced(atom):
    # the oracle takes the contour evaluator's domain and entry contract
    Rs, As = [1e-3, 1.0, 30.0], [0.0, 1e-3, 0.5, 20.0]
    contour, oracle = potential_grid(Rs, As, atom), potential_oracle_grid(Rs, As, atom)
    for a, c_row, o_row in zip(As, contour, oracle):
        for c, o in zip(c_row, o_row):
            assert type(o) is type(c)
            if a == 20.0:
                assert isinstance(o, RegimeError) and str(o) == str(c)
            else:
                assert o.warnings[:1] == c.warnings[:1]
                assert o.value == pytest.approx(c.value, rel=1e-8)
    assert oracle[2][0].warnings == ("marginal validity window: omega0 c / a = 2",)
    assert not any(o.warnings for row in oracle[:2] for o in row)
    for R, a in [(math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            potential_oracle(R, a, atom)
        with pytest.raises(DomainError):
            potential_oracle_grid([1.0, R], [0.0, a], atom)


def test_oracle_parts_sum(atom):
    res = potential_oracle(1.0, 0.05, atom)
    total = res.parts["vacuum"] + res.parts["nonthermal_a2"] + res.parts["residue_sum"]
    assert total == pytest.approx(res.value, rel=1e-12)


def test_oracle_finite_and_silent(atom):
    # the dual-method grid of compare_report and the far point perfbench checks
    points = [(float(R), float(a)) for R in np.logspace(-1, 2, 5) for a in np.logspace(-3, -1, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R, a in [*points, (1e3, 1e-3)]:
            res = potential_oracle(R, a, atom)
            assert math.isfinite(res.value) and res.value < 0.0
            assert 0.0 < res.error_estimate < abs(res.value)
        # a subnormal acceleration: its Bose and a^2 pieces vanish
        tiny, zero = potential_oracle(1.0, 5e-324, atom), potential_oracle(1.0, 0.0, atom)
        assert (tiny.value, tiny.parts) == (zero.value, zero.parts)


def test_oracle_extreme_separation_agreement(atom):
    # the path leaves the real axis at k = 1/R, so the segment stays a few
    # panels long however far apart the atoms are; at R = 1e-3, a = 0.1 the
    # ray's Bose integrals once missed a per-integral gate with a right value
    for R, a in [(1e5, 0.01), (1e8, 0.01), (1e-3, 0.1)]:
        res = potential_oracle(R, a, atom)
        assert res.value == pytest.approx(potential_numeric(R, a, atom).value, rel=1e-9)
        assert res.error_estimate < 1e-9 * abs(res.value)


def test_oracle_far_zone_accuracy(atom):
    vn = potential_numeric(1e3, 1e-3, atom).value
    vo = potential_oracle(1e3, 1e-3, atom).value
    assert abs(vo - vn) / abs(vn) <= 1e-6


def test_oracle_declines_sampled_three_line_point():
    # a sampled 3-line point the damped oracle once declined
    atom = AtomSpec(transitions=(
        Transition(omega=1.0, mu_sq=0.17906578481914048),
        Transition(omega=8.023491574153137, mu_sq=0.2769081265707236),
        Transition(omega=9.295238751668014, mu_sq=0.2866239715488635),
    ))
    R, a = 0.1521248440231972, 4.427713584154404e-4
    vn = potential_numeric(R, a, atom).value
    assert potential_oracle(R, a, atom).value == pytest.approx(vn, rel=1e-6)


def test_result_dict_field_order(atom):
    doc = potential_numeric(1.0, 0.01, atom).as_dict()
    assert list(doc.keys()) == ["value", "error_estimate", "parts", "regime", "warnings"]
    assert list(doc["parts"].keys()) == ["vacuum", "nonthermal_a2", "residue_sum"]


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------
def test_oracle_refinement_recovers_a_coarse_rule(monkeypatch, atom):
    # one segment panel per interval between the cuts, up to 30 rad of 2kR
    points = [(3.0, 0.01), (30.0, 0.03)]
    reference = [potential_oracle(R, a, atom) for R, a in points]
    monkeypatch.setattr(potmod, "ORACLE_PANEL_RAD", 64.0)
    for (R, a), ref in zip(points, reference):
        res = potential_oracle(R, a, atom)
        for part in ("vacuum", "nonthermal_a2", "residue_sum"):
            assert res.parts[part] == pytest.approx(ref.parts[part], rel=1e-9, abs=1e-9 * abs(ref.value))


def test_quadrature_non_convergence_carries_partial(monkeypatch, atom):
    from unruhcp import GridSpec, SweepConfig, run_sweep

    reference = potential_oracle(10.0, 0.01, atom).value
    monkeypatch.setattr(potmod, "ORACLE_PANEL_RAD", 64.0)
    monkeypatch.setattr(potmod, "MAX_REFINE", 0)
    monkeypatch.setattr(potmod, "REL_TOL", 1e-12)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_oracle(10.0, 0.01, atom)
    exc = exc_info.value
    assert exc.partial == pytest.approx(reference, rel=0.1)
    assert exc.error_estimate > 1e-11 * abs(exc.partial)
    row = run_sweep(SweepConfig(atom=atom, R_grid=GridSpec(value=10.0), a_grid=GridSpec(value=0.01),
                                methods=("oracle",)))[0]
    assert row.V_oracle is None
    assert any(w.startswith("oracle: oracle quadrature missed") for w in row.warnings)


_line = st.tuples(st.floats(min_value=1.2, max_value=10.0), st.floats(min_value=0.1, max_value=5.0))
_accel = st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=math.log10(9.9)).map(
    lambda x: 10.0**x))


@given(st.floats(min_value=0.1, max_value=5.0), st.lists(_line, max_size=3),
       st.lists(st.floats(min_value=-10.0, max_value=5.0).map(lambda x: 10.0**x),
                min_size=1, max_size=3),
       st.lists(_accel, min_size=1, max_size=2))
# dense two-level ladders whose tail bound once missed the gate (2.9e-5,
# 3.0e-4 and 5.0e-5 of |V|)
@example(1.5, [], [1e-9], [0.13])
@example(1.5, [], [1e-10], [0.13])
@example(1.5, [], [1e-10], [0.2])
@settings(max_examples=20, deadline=None)
def test_every_result_meets_its_gate(mu_sq, lines, Rs, As):
    # one gate for both grids: a result iff its whole error estimate, the
    # pole-ladder estimate included, is within 10 rel_tol |V|
    atom = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=mu_sq),
                                 *(Transition(omega=o, mu_sq=m) for o, m in lines)))
    tol = 10.0 * potmod.REL_TOL
    for grid in (potential_grid, potential_oracle_grid):
        for row in grid(Rs, As, atom):
            for entry in row:
                if isinstance(entry, NumericalFailure):
                    assert entry.error_estimate > tol * abs(entry.partial)
                else:
                    assert entry.error_estimate <= tol * abs(entry.value)


def test_oracle_unreliable_carries_partial(monkeypatch, atom):
    # no error estimate meets this tolerance; the total gate declines the point
    monkeypatch.setattr(potmod, "REL_TOL", 1e-300)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_oracle(1.0, 0.05, atom)
    assert exc_info.value.partial == pytest.approx(-0.65741392, rel=1e-6)
    assert exc_info.value.error_estimate > 0.0


@given(st.floats(min_value=-1.0, max_value=0.8), st.floats(min_value=-2.0, max_value=-1.0))
@settings(max_examples=8, deadline=None)
def test_mode_equivalence_random(atom, log_R, log_a):
    # Bose-integral route vs pole-sum route on random points in the overlap
    R, a = 10.0**log_R, 10.0**log_a
    if a * R > 0.5:
        return
    v_low = potential_numeric(R, a, atom).value
    original = potmod.SWITCH_A
    try:
        potmod.SWITCH_A = -1.0
        v_high = potential_numeric(R, a, atom).value
    finally:
        potmod.SWITCH_A = original
    assert v_low == pytest.approx(v_high, rel=1e-8)
