"""The batched contour evaluator: batch independence, the nested rule's
refinement and failure mode and the pole-ladder kernel."""
import math
import warnings

import numpy as np
import pytest

import unruhcp.potential as potmod
from unruhcp import (
    AtomSpec,
    GridSpec,
    NumericalFailure,
    QuadratureSpec,
    RegimeError,
    SweepConfig,
    Transition,
    potential_grid,
    potential_inertial,
    potential_numeric,
    potential_oracle_grid,
    rows_to_csv,
    run_sweep,
    two_level,
    units_for,
)


@pytest.fixture(scope="module")
def seeded_config():
    """A 3-line atom and an (R, a) grid reaching both contour branches, dense
    pole ladders and the marginal window, drawn from a fixed seed."""
    rng = np.random.default_rng(20240917)
    omegas = [1.0, *sorted(rng.uniform(1.5, 8.0, 2))]
    atom = AtomSpec(transitions=tuple(Transition(omega=float(o), mu_sq=float(m))
                                      for o, m in zip(omegas, rng.uniform(0.2, 5.0, 3))))
    return SweepConfig(atom=atom,
                       R_grid=GridSpec(min=float(rng.uniform(1e-4, 3e-4)),
                                       max=float(rng.uniform(3e3, 1e4)), count=9),
                       a_grid=GridSpec(min=float(rng.uniform(1e-5, 3e-5)),
                                       max=float(rng.uniform(1.0, 3.0)), count=5),
                       methods=("contour", "asymptotic"))


def test_sweep_rows_equal_point_evaluations(seeded_config):
    rows = run_sweep(seeded_config)
    atom = seeded_config.atom
    assert {r.a * r.R < 1e-3 for r in rows} == {True, False}
    assert any(r.a > 0.125 for r in rows) and any(r.a * r.R <= 0.5 for r in rows)
    for row in rows:
        res = potential_numeric(row.R, row.a, atom)
        assert row.V_contour == res.value
        assert (row.part_vacuum, row.part_a2, row.part_residue) == (
            res.parts["vacuum"], res.parts["nonthermal_a2"], res.parts["residue_sum"])
        assert res.parts["vacuum"] == potential_inertial(row.R, atom).value


def test_grid_csv_is_concatenation_of_per_acceleration_grids(seeded_config):
    full = rows_to_csv(run_sweep(seeded_config)).splitlines()
    pieces = [full[0]]
    for a in seeded_config.a_grid.points():
        sub = SweepConfig(atom=seeded_config.atom, R_grid=seeded_config.R_grid,
                          a_grid=GridSpec(value=a), methods=seeded_config.methods)
        text = rows_to_csv(run_sweep(sub)).splitlines()
        assert text[0] == full[0]
        pieces.extend(text[1:])
    assert pieces == full
    assert rows_to_csv(run_sweep(seeded_config, max_workers=3)).splitlines() == full


def test_grid_entries_equal_single_points():
    atom = two_level(1.0, 1.0)
    Rs, As = [1e-3, 0.7, 40.0], [0.0, 0.02, 0.6, 50.0]
    grid = potential_grid(Rs, As, atom)
    assert len(grid) == len(As) and all(len(row) == len(Rs) for row in grid)
    for a, row in zip(As, grid):
        for R, entry in zip(Rs, row):
            if a == 50.0:
                assert isinstance(entry, RegimeError)
                continue
            assert entry == potential_numeric(R, a, atom)


def test_refinement_recovers_a_coarse_rule(monkeypatch):
    atom = two_level(1.0, 1.0)
    points = [(1e-4, 1e-5), (0.7, 0.05), (30.0, 0.3)]
    reference = [potential_numeric(R, a, atom) for R, a in points]
    monkeypatch.setattr(potmod, "IMAG_PANELS", 3)
    monkeypatch.setattr(potmod, "BOSE_EDGES", (0.0, 8.0, 40.0))
    for (R, a), ref in zip(points, reference):
        res = potential_numeric(R, a, atom)
        for part in ("vacuum", "nonthermal_a2", "residue_sum"):
            assert res.parts[part] == pytest.approx(ref.parts[part], rel=1e-9, abs=1e-9 * abs(ref.value))


def test_missed_tolerance_raises_with_partial(monkeypatch):
    atom = two_level(1.0, 1.0)
    reference = potential_numeric(1.0, 0.01, atom).value
    monkeypatch.setattr(potmod, "IMAG_PANELS", 2)
    monkeypatch.setattr(potmod, "MAX_REFINE", 0)
    strict = QuadratureSpec(rel_tol=1e-12)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_numeric(1.0, 0.01, atom, strict)
    exc = exc_info.value
    assert exc.partial == pytest.approx(reference, rel=0.1)
    assert exc.error_estimate > 1e-11 * abs(exc.partial)
    row = run_sweep(SweepConfig(atom=atom, R_grid=GridSpec(value=1.0), a_grid=GridSpec(value=0.01),
                                quad=strict))[0]
    assert row.V_contour is None
    assert any(w.startswith("contour: numerical failure") for w in row.warnings)


def test_failure_message_states_the_gate():
    # no estimate meets a tolerance this small; the message once blamed
    # "4 refinements"
    strict = QuadratureSpec(rel_tol=1e-300)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_numeric(1e-9, 0.13, two_level(1.0, 1.0), strict)
    exc = exc_info.value
    bound = 10.0 * strict.rel_tol * abs(exc.partial)
    assert exc.error_estimate > bound
    assert str(exc) == (
        "contour quadrature missed its tolerance at R=1e-09, a=0.13: "
        f"error estimate {exc.error_estimate:.3e} exceeds 10 rel_tol |V| = {bound:.3e}")


def test_non_finite_value_is_a_failure():
    # far below R = X_LO the end pieces overflow; -inf once passed the gate
    # as a result, since its estimate inf was within 10 rel_tol |V| = inf
    for entry in potential_grid([1e-60], [0.0, 0.13], two_level(1.0, 1.0)):
        assert isinstance(entry[0], NumericalFailure)
    # the message of a point without a value names that, not a tolerance miss
    (entry,), = potential_grid([1e100], [0.01], two_level(1.0, 1.0))
    assert str(entry) == "contour evaluation has no finite value at R=1e+100, a=0.01 (V = nan)"
    # where powers of R leave the range of doubles the contour grid once
    # raised OverflowError (R = 1e100) or ZeroDivisionError (1e-100, 1e-300),
    # and both grids leaked numpy warnings: each entry is now a failure or a
    # value that underflows to -0.0 with its estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in (potential_grid, potential_oracle_grid):
            for row in grid([1e-300, 1e-100, 1e100], [0.0, 0.13], two_level(1.0, 1.0)):
                assert all(isinstance(entry, NumericalFailure)
                           or (entry.value == 0.0 and entry.error_estimate == 0.0)
                           for entry in row)


_TWO_LINES = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=1.0),
                                   Transition(omega=2.0, mu_sq=0.5)))


def _ladder(R, a, atom):
    """_pole_ladder at one reduced point, with its finite part from the
    imaginary-axis integrals as _contour_points passes it."""
    ra = potmod._reduce_atom(atom, units_for(atom))
    Rt, at = np.array([R]), np.array([a])
    (inertial, origin), _ = potmod._imag_axis_pieces(Rt, ra, potmod.DEFAULT_QUAD)
    value, error = potmod._pole_ladder(Rt, at, ra, potmod.DEFAULT_QUAD,
                                       inertial / (at * Rt) - at * Rt * origin)
    return value[0], error[0], ra


# direct heads (aR >= 0.4) and Abel-Plana remainders, dense ones included
@pytest.mark.parametrize("R, a", [(3.0, 0.2), (20.0, 0.4), (1.0, 2.0), (0.3, 1.0),
                                  (1e-3, 0.2), (1e-4, 0.13)])
def test_pole_ladder_matches_a_full_sum(R, a):
    value, error, ra = _ladder(R, a, _TWO_LINES)
    n = np.arange(2, 2_000_000, dtype=float)
    k = n * a
    alpha = sum(w * o * o / (o * o + k * k) for w, o in zip(ra.weights, ra.omegas))
    with np.errstate(under="ignore"):
        terms = ((1 - 1 / n**2) * ((((k * R + 2) * k * R + 5) * k * R + 6) * k * R + 3)
                 * np.exp(-2 * k * R) * alpha**2)
    reference = math.fsum(terms)    # R^4 times the ladder sum
    assert terms[-1] < 1e-30 * reference
    assert value == pytest.approx(reference, rel=1e-13, abs=0.0)
    assert 0.0 <= error <= 1e-12 * reference


@pytest.mark.parametrize("R, a", [(3.0, 0.2), (2.0, 0.5), (1.0, 2.0)])
def test_pole_ladder_remainder_matches_the_head(monkeypatch, R, a):
    # with no direct head the Abel-Plana remainder carries these points too
    head, _, _ = _ladder(R, a, _TWO_LINES)
    monkeypatch.setattr(potmod, "LADDER_HEAD", 0)
    remainder, error, _ = _ladder(R, a, _TWO_LINES)
    assert remainder == pytest.approx(head, rel=1e-11, abs=0.0)
    assert abs(remainder - head) <= error
