"""The contour parts against the frozen mpmath table of scripts/make_golden.py."""
import json
import pathlib

import pytest

from unruhcp import load_atom, potential_numeric, potential_oracle
from unruhcp.potential import SWITCH_A, SWITCH_AR

TABLE = json.loads((pathlib.Path(__file__).parent / "golden" / "contour_parts.json")
                   .read_text(encoding="utf-8"))
PARTS = ("vacuum", "nonthermal_a2", "residue_sum")


@pytest.mark.parametrize("point", TABLE["points"],
                         ids=lambda p: f"{p['atom']}-R{p['R']:g}-a{p['a']:g}")
def test_parts_match_golden(point):
    res = potential_numeric(point["R"], point["a"], load_atom(TABLE["atoms"][point["atom"]]))
    want = {part: float(point[part]) for part in PARTS}
    tol = max(res.error_estimate, 1e-9 * abs(sum(want.values())))
    for part in PARTS:
        assert abs(res.parts[part] - want[part]) <= tol, (part, res.parts[part], want[part])
    # the table's units anchor on each atom's lowest line, so (R, a) are the
    # reduced values; on the Bose real-axis route residue_sum is resolved to
    # near double precision, not only to the point's error estimate
    if 0.0 < point["a"] <= SWITCH_A and point["a"] * point["R"] <= SWITCH_AR:
        got = res.parts["residue_sum"]
        assert abs(got - want["residue_sum"]) <= 1e-13 * abs(want["residue_sum"]), got


@pytest.mark.parametrize("point", TABLE["points"],
                         ids=lambda p: f"{p['atom']}-R{p['R']:g}-a{p['a']:g}")
def test_oracle_matches_golden(point):
    res = potential_oracle(point["R"], point["a"], load_atom(TABLE["atoms"][point["atom"]]))
    want = sum(float(point[part]) for part in PARTS)
    assert abs(res.value - want) <= res.error_estimate
    assert abs(res.value - want) <= 1e-7 * abs(want)


def test_table_covers_the_domain():
    points = TABLE["points"]
    assert len(points) >= 30 and {p["atom"] for p in points} == {"two_level", "three_line"}
    assert min(p["R"] for p in points) == 1e-4 and max(p["R"] for p in points) == 1e4
    assert min(p["a"] for p in points) == 1e-5 and max(p["a"] for p in points) == 0.1
    assert any(p["a"] * p["R"] < 1e-3 for p in points)
    assert any(p["a"] * p["R"] > 0.5 for p in points)   # pole-ladder branch
