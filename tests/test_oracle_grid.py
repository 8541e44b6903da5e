"""The batched oracle: grid entries against 1 x 1 calls, its Kronrod table,
array-built path and node count, and the contour evaluator against the
oracle over the whole domain and over random atoms."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import unruhcp.potential as potmod
from unruhcp import (
    AtomSpec,
    NumericalFailure,
    PotentialResult,
    RegimeError,
    Transition,
    potential_grid,
    potential_numeric,
    potential_oracle,
    potential_oracle_grid,
    two_level,
)


def _outcome(R, a, atom):
    try:
        return potential_oracle(R, a, atom)
    except (NumericalFailure, RegimeError) as exc:
        return exc


def test_grid_entries_equal_single_points(monkeypatch):
    # this tolerance fails the R = 1e3 point at a = 0 and passes the rest;
    # a = 0.5 is marginal and a = 20 excited
    monkeypatch.setattr(potmod, "REL_TOL", 1e-10)
    atom = two_level(1.0, 1.0)
    Rs, As = [0.1, 1.0, 1e3], [0.0, 1e-3, 0.05, 0.5, 20.0]
    grid = potential_oracle_grid(Rs, As, atom)
    assert len(grid) == len(As) and all(len(row) == len(Rs) for row in grid)
    kinds = set()
    for a, row in zip(As, grid):
        for R, entry in zip(Rs, row):
            point = _outcome(R, a, atom)
            assert type(entry) is type(point)
            kinds.add(type(entry))
            if isinstance(entry, PotentialResult):
                assert entry == point
            else:
                assert str(entry) == str(point)
                assert (getattr(entry, "partial", None), getattr(entry, "error_estimate", None)) \
                    == (getattr(point, "partial", None), getattr(point, "error_estimate", None))
    assert kinds == {PotentialResult, NumericalFailure, RegimeError}
    assert isinstance(grid[-1][0], RegimeError) and isinstance(grid[0][2], NumericalFailure)
    assert grid[3][1].warnings == ("marginal validity window: omega0 c / a = 2",)


def test_kronrod_table():
    # the unit-panel rule mapped to [-1, 1] is exact for t^d up to d = 31, not
    # at 32; its Gauss subset is the 10-node Gauss-Legendre rule, exact up to
    # d = 19, not at 20
    x, wk, wg = potmod._K21_NODES, potmod._K21_WEIGHTS, potmod._G10_WEIGHTS
    assert len(x) == 21 and len(wg) == 10 and np.all(np.diff(x) > 0)
    assert abs(wk.sum() - 1.0) <= 1e-15 and abs(wg.sum() - 1.0) <= 1e-15
    t, tg = 2.0 * x - 1.0, 2.0 * x[1::2] - 1.0

    def moment(d):
        return (1.0 - (-1.0) ** (d + 1)) / (d + 1)

    for d in range(32):
        assert abs(2.0 * wk @ t**d - moment(d)) <= 4e-16, d
    assert abs(2.0 * wk @ t**32 - moment(32)) > 1e-12
    for d in range(20):
        assert abs(2.0 * wg @ tg**d - moment(d)) <= 4e-16, d
    assert abs(2.0 * wg @ tg**20 - moment(20)) > 1e-7
    nodes, weights = leggauss(10)
    assert np.abs(tg - nodes).max() <= 1e-15
    assert np.abs(2.0 * wg - weights).max() <= 1e-15


def _path_by_loop(Rt, at, k0, td):
    # the oracle path one point at a time: the reference for _oracle_panels
    seg, ray, ray_end = ([], [], []), ([], [], []), []
    for p, (r, a, k) in enumerate(zip(Rt.tolist(), at.tolist(), k0.tolist())):
        end = k * r
        cuts = [0.0, *sorted(x for x in (q * r for q in (a / (2.0 * math.pi), a, 4.0 * a))
                             if np.finfo(float).tiny < x < end), end]
        scales = [td[p], 1.0 - k]
        if 2.0 * math.pi * k <= potmod.EXP_OVERFLOW * a:
            scales.append(a / (2.0 * math.pi))
        j0 = min(0, math.floor(math.log2(min(scales) / td[p])))
        ray_edges = [0.0, *(td[p] * 2.0**j for j in range(j0, potmod.ORACLE_RAY_DOUBLINGS + 1))]
        ray_end.append(ray_edges[-1])
        for part, e in ((seg, cuts), (ray, ray_edges)):
            part[0].extend(e[:-1])
            part[1].extend(e[1:])
            part[2].extend([p] * (len(e) - 1))
    return [np.array(x) for x in (*seg, *ray, ray_end)]


@pytest.mark.parametrize("a_max", [1.0, 0.3, 64.0])
def test_oracle_panels_match_a_loop(a_max):
    # the array-built path equals the per-point loop bit for bit, over R from
    # 1e-12 to 1e12 and a from 0 to a_max: the larger a_max, the more of the
    # cuts a R / 2 pi, a R and 4 a R lie beyond the segment's end K0 R
    rng = np.random.default_rng(7)
    Rt = 10.0 ** rng.uniform(-12.0, 12.0, 400)
    at = np.where(rng.random(400) < 0.2, 0.0, 10.0 ** rng.uniform(-12.0, math.log10(a_max), 400))
    k0 = np.minimum(potmod.ORACLE_K0, 1.0 / Rt)
    td = 1.0 / (2.0 * Rt * math.sin(potmod.ORACLE_TILT))
    seg, ray, ray_end = potmod._oracle_panels(Rt, at, k0, td)
    for got, want in zip((*seg, *ray, ray_end), _path_by_loop(Rt, at, k0, td)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_oracle_node_count(monkeypatch):
    # integrand nodes of the report's oracle grid; the 8-node rule with its two
    # halves per panel took 16 977, G10K21 panels with refinement 12 814
    count = [0]
    pieces = potmod._occupation_pieces

    def counting(k, at, inv):
        count[0] += k.size
        return pieces(k, at, inv)

    monkeypatch.setattr(potmod, "_occupation_pieces", counting)
    potential_oracle_grid(np.logspace(-1, 2, 5), np.logspace(-3, -1, 5), two_level(1.0, 1.0))
    assert 0 < count[0] <= 9_000


# the whole domain: R from 1e-9 to 1e5 and into the far zone, by a from 0
# through the marginal window
WHOLE_RS = [*np.logspace(-9, 5, 12), 1e8, 1e12]
WHOLE_AS = [0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.13, 0.5, 2.0, 9.0]
# the contour evaluator's rules, series and residue algebra, none of which
# the oracle may call
CONTOUR_ONLY = ("_imag_axis_rule", "_bose_rule", "_panel_rule", "_nested_nodes", "_nested",
                "_bose_t_rule", "_alpha_iu", "_alpha2_iu", "_pole_ladder", "_ladder_terms",
                "_quartic_exp", "_origin_coefficient", "_imag_axis_ends",
                "_bose_real_axis_integral")


def test_routes_agree_over_the_whole_domain(atom, atom3):
    # for the two-level atom and the 3-line atom3 (the golden table's
    # three_line), every point of the whole domain passes on both routes,
    # and they agree within their summed estimates
    for name, spec in (("two_level", atom), ("three_line", atom3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            oracle = potential_oracle_grid(WHOLE_RS, WHOLE_AS, spec)
            contour = potential_grid(WHOLE_RS, WHOLE_AS, spec)
        for o_row, c_row in zip(oracle, contour):
            for o, c in zip(o_row, c_row):
                assert isinstance(o, PotentialResult) and isinstance(c, PotentialResult), name
                assert math.isfinite(o.value) and math.isfinite(c.value)
                assert abs(o.value - c.value) <= o.error_estimate + c.error_estimate, name


def test_oracle_calls_no_contour_helper(monkeypatch, atom, atom3):
    # the independence rule: with every contour-only helper raising, the
    # oracle still passes every point of the whole domain
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a contour-only helper")

    for name in CONTOUR_ONLY:
        monkeypatch.setattr(potmod, name, forbidden)
    for spec in (atom, atom3):
        for row in potential_oracle_grid(WHOLE_RS, WHOLE_AS, spec):
            assert all(isinstance(entry, PotentialResult) for entry in row)


line = st.tuples(st.floats(min_value=1.2, max_value=10.0), st.floats(min_value=0.1, max_value=5.0))
accel = st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=0.99).map(lambda x: 10.0**x))


@given(st.floats(min_value=0.1, max_value=5.0), st.lists(line, max_size=3),
       st.floats(min_value=-4.0, max_value=5.0), accel)
@example(1.5, [], -9.0, 0.13)    # dense two-level ladders that once failed the gate
@example(1.5, [], -10.0, 0.13)
@example(1.5, [], -10.0, 0.2)
@settings(max_examples=20, deadline=None)
def test_contour_agrees_with_oracle(mu_sq, lines, log_R, a):
    # 1-4 lines, the lowest at omega0 = 1; R in [1e-4, 1e5], a in [0, 9.8], the
    # marginal window included
    atom = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=mu_sq),
                                 *(Transition(omega=o, mu_sq=m) for o, m in lines)))
    R = 10.0**log_R
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vn = potential_numeric(R, a, atom).value
        vo = potential_oracle(R, a, atom).value
    assert vo == pytest.approx(vn, rel=1e-8)
