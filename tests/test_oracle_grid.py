"""The batched oracle: grid entries against 1 x 1 calls, and the contour
evaluator against the oracle over random atoms and their shared domain."""
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unruhcp.potential as potmod
from unruhcp import (
    AtomSpec,
    NumericalFailure,
    PotentialResult,
    RegimeError,
    Transition,
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
    # without refinement this tolerance fails the R = 1e3 points at a <= 1e-3
    # and passes the rest; a = 0.5 is marginal and a = 20 excited
    monkeypatch.setattr(potmod, "MAX_REFINE", 0)
    monkeypatch.setattr(potmod, "REL_TOL", 1e-9)
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
