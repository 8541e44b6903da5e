"""The batched contour evaluator: batch independence, the nested rule's
levels and failure mode, the pole-ladder kernel and the sweep rows built
from the acceptance gate."""
import math
import warnings

import numpy as np
import pytest

import unruhcp.potential as potmod
from unruhcp import sweep
from unruhcp import (
    AtomSpec,
    GridSpec,
    NumericalFailure,
    RegimeError,
    SweepConfig,
    Transition,
    UnruhCPError,
    asymptotics,
    classify_regime,
    potential_grid,
    potential_numeric,
    potential_oracle,
    potential_oracle_grid,
    rows_to_csv,
    run_sweep,
    two_level,
    units_for,
    validity_check,
)
from unruhcp.atoms import _reduce_atom
from unruhcp.retardation import _exp_series
from unruhcp.sweep import relative_difference


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
        assert res.parts["vacuum"] == potential_numeric(row.R, 0.0, atom).value


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


def _expected_row(R, a, atom):
    """The fields of a three-method sweep row at (R, a), from point calls."""
    regime = classify_regime(R, a, atom)
    values, parts, warnings = [None, None, None], (None, None, None), []
    try:
        res = potential_numeric(R, a, atom)
        values[0] = res.value
        parts = (res.parts["vacuum"], res.parts["nonthermal_a2"], res.parts["residue_sum"])
        warnings.extend(res.warnings)
    except RegimeError as exc:
        warnings.append(f"contour: regime error: {exc}")
    except NumericalFailure as exc:
        warnings.append(f"contour: numerical failure: {exc}")
    try:
        values[1] = potential_oracle(R, a, atom).value
    except UnruhCPError as exc:
        warnings.append(f"oracle: {exc}")
    zone, aR = regime.zone, regime.aR_class
    note = None
    if validity_check(a, atom).excited:
        note = "the high-acceleration law needs atom B"
    elif a == 0.0 or aR == "small":
        if zone == "crossover":
            note = "no closed form applies in the crossover zone"
        else:
            values[2] = (asymptotics.near_zone_value(R, atom) if zone == "near"
                         else asymptotics.far_low_acc(R, a, atom))
    elif aR == "large":
        values[2] = asymptotics.high_aR(R, a, atom)
    else:
        note = "no closed form applies for crossover aR/c^2"
    if note:
        warnings.append(f"asymptotic: {note}")
    present = [v for v in values if v is not None]
    return (regime.tag(), *values, *parts,
            relative_difference(present) if len(present) >= 2 else None, tuple(warnings))


def _check_rows(config):
    rows = run_sweep(config)
    for row in rows:
        assert (row.regime, row.V_contour, row.V_oracle, row.V_asymptotic, row.part_vacuum,
                row.part_a2, row.part_residue, row.rel_diff, row.warnings
                ) == _expected_row(row.R, row.a, config.atom), (row.R, row.a)
    assert rows_to_csv(run_sweep(config, max_workers=3)) == rows_to_csv(rows)
    return rows


def test_sweep_rows_equal_point_calls_across_every_threshold(monkeypatch):
    # R omega0/c and a R/c^2 hit 0.1 and 10 exactly, a/(omega0 c) hits 0.1
    # (valid) and 10 (excited); a = 1 is marginal and 1e-4 c/omega0 a dense
    # ladder there
    rng = np.random.default_rng(20261020)
    atom = AtomSpec(transitions=tuple(
        Transition(omega=float(o), mu_sq=float(m))
        for o, m in zip([1.0, *sorted(rng.uniform(1.5, 8.0, 2))], rng.uniform(0.2, 5.0, 3))))
    config = SweepConfig(atom=atom, R_grid=GridSpec(min=1e-4, max=10.0, count=6),
                         a_grid=GridSpec(min=1e-3, max=10.0, count=5),
                         methods=("contour", "oracle", "asymptotic"))
    rows = _check_rows(config)
    assert {0.1, 10.0} <= {r.R for r in rows} and {0.1, 10.0} <= {r.a for r in rows}
    assert {0.1, 10.0} <= {r.a * r.R for r in rows}
    notes = [w.split(":")[0] for r in rows for w in r.warnings]
    for note in ("contour", "marginal validity window", "dense pole ladder", "asymptotic"):
        assert note in notes
    assert {r.regime.split("/")[0] for r in rows} == {"near", "crossover", "far"}
    # the zone thresholds are inclusive, the others leave the boundary in crossover
    for r in rows:
        zone, acc, aR = r.regime.split("/")
        assert zone == {0.1: "near", 10.0: "far"}.get(r.R, zone)
        assert acc == ("crossover" if r.a in (0.1, 10.0) else acc)
        assert aR == ("crossover" if r.a * r.R in (0.1, 10.0) else aR)
    _check_rows(SweepConfig(atom=atom, R_grid=config.R_grid, a_grid=GridSpec(value=0.0),
                            methods=config.methods))
    # a point that misses the gate is a numerical failure on both routes
    monkeypatch.setattr(potmod, "REL_TOL", 1e-300)
    (row,) = _check_rows(SweepConfig(atom=atom, R_grid=GridSpec(value=0.5),
                                     a_grid=GridSpec(value=0.01), methods=config.methods))
    assert row.V_contour is None and row.V_oracle is None
    assert row.warnings[0].startswith("contour: numerical failure")


def test_missed_tolerance_raises_with_partial(monkeypatch):
    atom = two_level(1.0, 1.0)
    reference = potential_numeric(1.0, 0.01, atom).value
    monkeypatch.setattr(potmod, "IMAG_PANELS", 2)
    monkeypatch.setattr(potmod, "REL_TOL", 1e-12)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_numeric(1.0, 0.01, atom)
    exc = exc_info.value
    assert exc.partial == pytest.approx(reference, rel=0.1)
    assert exc.error_estimate > 1e-11 * abs(exc.partial)
    row = run_sweep(SweepConfig(atom=atom, R_grid=GridSpec(value=1.0),
                                a_grid=GridSpec(value=0.01)))[0]
    assert row.V_contour is None
    assert any(w.startswith("contour: numerical failure") for w in row.warnings)


def test_failure_message_states_the_gate(monkeypatch):
    # no estimate meets a tolerance this small; the message once blamed
    # "4 refinements"
    monkeypatch.setattr(potmod, "REL_TOL", 1e-300)
    with pytest.raises(NumericalFailure) as exc_info:
        potential_numeric(1e-9, 0.13, two_level(1.0, 1.0))
    exc = exc_info.value
    bound = 10.0 * potmod.REL_TOL * abs(exc.partial)
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
    ra = _reduce_atom(atom, units_for(atom))
    Rt, at = np.array([R]), np.array([a])
    (inertial, origin), _ = potmod._imag_axis_pieces(Rt, ra)
    value, error = potmod._pole_ladder(Rt, at, ra, inertial / (at * Rt) - at * Rt * origin)
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


def test_nested_pair_levels(monkeypatch):
    # level 1 of the imaginary-axis pair with IMAG_PANELS panels is level 0
    # with twice as many, bit for bit: the estimate at P panels is the
    # difference of the values at P and P/2 plus the floor of the end pieces
    ra = _reduce_atom(_TWO_LINES, units_for(_TWO_LINES))
    Rt = np.array([1e-11, 1e-3, 0.7, 40.0, 1e3])
    nested, sums, out = potmod._nested, {}, {}

    def spy(terms, split):
        levels = nested(terms, split)
        sums.setdefault(potmod.IMAG_PANELS, []).append(levels)
        return levels

    monkeypatch.setattr(potmod, "_nested", spy)
    for panels in (16, 32, 64):
        monkeypatch.setattr(potmod, "IMAG_PANELS", panels)
        out[panels] = potmod._imag_axis_pieces(Rt, ra)
    *_, floor = potmod._imag_axis_ends(Rt, ra)
    for panels in (32, 64):
        # the inertial and the origin-subtracted sums of the two levels
        for (_, fine), (coarse, _) in zip(sums[panels // 2], sums[panels]):
            assert np.array_equal(fine, coarse)
        value, error = out[panels]
        coarse, _ = out[panels // 2]
        assert not np.array_equal(value, coarse)
        assert np.array_equal(error, np.abs(value - coarse) + floor)


def test_quartic_exp_series_matches_mpmath():
    # p(x) = (Q(x) e^{-2x} - 3)/x^2: summed as its series below P_SERIES
    # (measured worst 1 ulp) and in closed form above, where it cancels about
    # 48-fold (measured worst 5e-15)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def reference(x):
        z = mpmath.mpf(x)
        q = (((z + 2) * z + 5) * z + 6) * z + 3
        return float((q * mpmath.exp(-2 * z) - 3) / z**2)

    top = potmod.P_SERIES
    series = np.concatenate([np.logspace(-8, math.log10(top), 80, endpoint=False),
                             [np.nextafter(top, 0.0)]])
    above = top * (1.0 + np.array([0.0, 1e-15, 1e-9, 1e-6, 1e-3, 0.02, 0.1, 1.0]))
    for xs, rel in ((series, 2.5e-16), (above, 1e-14)):
        _, p = potmod._quartic_exp(xs)
        for x, got in zip(xs, p):
            want = reference(x)
            assert abs(got - want) <= rel * abs(want), x
    # the first term the series drops is below 2^-60 at P_SERIES, where |p| ~ 0.96
    dropped = _exp_series((3.0, 6.0, 5.0, 2.0, 1.0), -2.0, len(potmod._QE_SERIES) + 1)[-1]
    assert abs(dropped) * top ** (len(potmod._QE_SERIES) - 2) < 2.0**-60


@pytest.mark.parametrize("units", ["natural", "si"])
def test_grid_regimes_equal_classify_regime(units):
    # the grids classify per axis; each entry's regime is still that of its point,
    # at the thresholds too (R omega0/c = 0.1 and 10, a/(omega0 c) = 0.1, aR/c^2 = 10)
    w0 = 4e15 if units == "si" else 2.0
    atom = two_level(w0, 1e-24 if units == "si" else 1.0)
    c = units_for(atom, units).c
    Rs = [x * c / w0 for x in (1e-3, 0.1, 1.0, 10.0, 1e3)]
    As = [x * w0 * c for x in (0.0, 1e-3, 0.01, 0.1, 0.5)]
    for route in (potential_grid, potential_oracle_grid):
        grid = route(Rs, As, atom, units)
        passed = 0
        for a, row in zip(As, grid):
            for R, entry in zip(Rs, row):
                if not isinstance(entry, UnruhCPError):
                    assert entry.regime == classify_regime(R, a, atom, c=c)
                    passed += 1
        assert passed >= 20


def _entry_bits(entry):
    """A gate entry as hex strings: value, estimate and parts, and warnings;
    or an error's type, message, partial value and estimate."""
    if isinstance(entry, UnruhCPError):
        return (type(entry).__name__, str(entry),
                *(float(x).hex() for x in (getattr(entry, "partial", None) or 0.0,
                                           getattr(entry, "error_estimate", None) or 0.0)))
    return (*(float(x).hex() for x in entry[:5]), entry[5])


@pytest.mark.parametrize("method", ["contour", "oracle"])
@pytest.mark.parametrize("rel_tol", [None, 1e-13])
def test_flat_pairs_equal_the_product_grid(monkeypatch, method, rel_tol):
    # shuffled and repeated (R, a) pairs give, entry for entry, the bits of
    # the product grid: a = 0, the Bose route (a = 0.05, aR <= 0.5), direct
    # ladders (aR = 10), Abel-Plana ladders (a = 0.3, aR < 0.4), a dense
    # ladder (aR = 2e-4), the marginal and excited regimes, and separations
    # whose powers leave the range of doubles; with REL_TOL lowered some
    # points are a NumericalFailure
    if rel_tol is not None:
        monkeypatch.setattr(potmod, "REL_TOL", rel_tol)
    atom = _TWO_LINES
    Rs, As = [1e-60, 1e-3, 0.5, 1.0, 20.0, 1e100], [0.0, 0.05, 0.2, 0.3, 0.5, 12.0]
    product = potmod._gate_grid(method, Rs, As, atom, "natural")
    rng = np.random.default_rng(31)
    pairs = [(i, j) for j in range(len(As)) for i in range(len(Rs))]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))] + [pairs[k] for k in (3, 3, 17, 30)]
    flat = potmod._gate(method, Rs, As, [i for i, _ in pairs], [j for _, j in pairs],
                        atom, "natural")
    assert [_entry_bits(e) for e in flat] == [_entry_bits(product[j][i]) for i, j in pairs]
    kinds = {type(e).__name__ for row in product for e in row}
    assert kinds == {"tuple", "RegimeError", "NumericalFailure"}
    passed = [e for row in product for e in row if isinstance(e, tuple)]
    assert any(w.startswith("marginal validity window") for e in passed for w in e[5])
    if method == "contour" and rel_tol is None:
        assert any(w.startswith("dense pole ladder") for e in passed for w in e[5])


def test_report_makes_one_contour_pass(monkeypatch):
    # every report section that reads contour values takes them from one
    # route call; the dual-method section's oracle values from one more;
    # only the determinism section's sweeps call the route again
    calls = {"contour": 0, "oracle": 0, "in_sweep": 0}
    inside = []

    def counted(name, route):
        def call(*args):
            calls["in_sweep" if inside else name] += 1
            return route(*args)
        return call

    def sweeping(*args, **kwargs):
        inside.append(True)
        try:
            return run_sweep(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(potmod, "_contour_points", counted("contour", potmod._contour_points))
    monkeypatch.setattr(potmod, "_oracle_points", counted("oracle", potmod._oracle_points))
    monkeypatch.setattr(sweep, "run_sweep", sweeping)
    report = sweep.compare_report(sweep.default_config())
    assert report["overall_pass"]
    assert (calls["contour"], calls["oracle"]) == (1, 1)
    assert calls["in_sweep"] == 5    # 1, 1 and 3 batches of the determinism sweeps
