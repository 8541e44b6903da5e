"""The batched contour evaluator: batch independence, the nested rule's
refinement and failure mode and the pole-sum blocks."""
import math

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
    potential_oracle,
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
    # the dense pole ladder's tail, which no refinement touches, misses the
    # gate here; the message once blamed "4 refinements"
    with pytest.raises(NumericalFailure) as exc_info:
        potential_numeric(1e-9, 0.13, two_level(1.0, 1.0))
    exc = exc_info.value
    bound = 10.0 * potmod.DEFAULT_QUAD.rel_tol * abs(exc.partial)
    assert exc.error_estimate > bound
    assert str(exc) == (
        "contour quadrature missed its tolerance at R=1e-09, a=0.13: "
        f"error estimate {exc.error_estimate:.3e} exceeds 10 rel_tol |V| = {bound:.3e}")


@pytest.mark.parametrize("R, a", [(3.0, 0.2), (20.0, 0.4), (1.0, 2.0)])
def test_pole_sum_blocks_match_a_full_sum(R, a):
    atom = AtomSpec(transitions=(Transition(omega=1.0, mu_sq=1.0), Transition(omega=2.0, mu_sq=0.5)))
    u = units_for(atom)
    ra = potmod._reduce_atom(atom, u)
    total, tail, warnings = potmod._pole_sum(R, a, ra)
    n = np.arange(2, 5000, dtype=float)
    k = n * a
    terms = ((1 - 1 / n**2) * (k**4 + 2 * k**3 / R + 5 * k**2 / R**2 + 6 * k / R**3 + 3 / R**4)
             * np.exp(-2 * k * R) * potmod._alpha2_iu(k, ra))
    assert total == pytest.approx(math.fsum(terms), rel=1e-12)
    assert 0.0 <= tail <= 1e-12 * total and warnings == []


def test_pole_sum_hard_cap_warning_unchanged(monkeypatch):
    # the ladder's truncation tail is part of the gated estimate: capped at
    # 50 terms it is 5.6% of |V| and the point fails instead of returning a
    # value 3.6e-4 off the oracle
    atom = two_level(1.0, 1.0)
    reference = potential_oracle(1e-3, 0.2, atom).value
    monkeypatch.setattr(potmod, "DEFAULT_POLE_CAP", 50)
    _, tail, warnings = potmod._pole_sum(1e-3, 0.2, potmod._reduce_atom(atom, units_for(atom)))
    assert tail > 0.0
    assert any("hard cap 50" in w for w in warnings)
    assert any("dense pole ladder" in w for w in warnings)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_numeric(1e-3, 0.2, atom)
    exc = exc_info.value
    assert exc.partial == pytest.approx(reference, rel=1e-3)
    assert exc.error_estimate > 10.0 * potmod.DEFAULT_QUAD.rel_tol * abs(exc.partial)
