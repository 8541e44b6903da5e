"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Each criterion is measured once, by its section of
``compare_report(default_config())``: the report is built once per module
and every test holds that section's numbers to the criterion's tolerance and
checks that the section's own pass flag agrees.  An input the default report
lacks (the three-transition atom of criterion 2) is measured by the report of
a configuration with that atom; checks the report does not make (criterion
9's unit round-trips) stay here.

Two checks are marked xfail(strict=True): the far-zone acceleration
coefficient and the large-aR law.  Direct evaluation of the integral
(confirmed against independent 40-digit arithmetic) measures a coefficient
eleven times the printed far-zone a^2 normalization, and an additional
a^3/R^4 origin term that dominates the printed large-aR law at the test
points by factors 195-3110.  The assertions are implemented faithfully at
their stated tolerances and fail; the comparison report carries the same
numbers as flagged discrepancies.
"""
import pytest

from unruhcp import UnitSystem, alpha_static
from unruhcp.sweep import GridSpec, SweepConfig, compare_report, default_config


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}  {detail}")


@pytest.fixture(scope="module")
def report():
    return compare_report(default_config())


# ---------------------------------------------------------------------------
def test_criterion_1_inertial_far_zone(report):
    sec = report["inertial_far"]
    # limit of R^7 V, Richardson-extrapolated in 1/R^2 from the two largest R
    limit = sec["limit_estimate"]
    literature = sec["literature_with_4pi"]
    ok = abs(limit / literature - 1.0) <= 0.005
    _line(1, "inertial far zone", ok,
          f"limit={limit:.6f}, literature(-23/4pi)={literature:.6f} "
          f"[printed form without pi: {sec['printed_without_4pi']:.3f}]")
    assert sec["pass"] == ok
    assert ok


def test_criterion_2_inertial_near_zone(report, atom3):
    sec = report["inertial_near"]
    ok_two = sec["C6"] == 0.75 and abs(sec["ratio_to_C6_law"][0] - 1.0) <= 0.005
    sec3 = compare_report(SweepConfig(atom=atom3, R_grid=GridSpec(value=1.0),
                                      a_grid=GridSpec(value=0.0)))["inertial_near"]
    ratio3 = sec3["ratio_to_C6_law"][-1]  # R = 0.005
    ok_three = abs(ratio3 - 1.0) <= 0.005
    _line(2, "inertial near zone", ok_two and ok_three,
          f"two-level R^6 V={-sec['C6'] * sec['ratio_to_C6_law'][0]:.6f} (want -0.75); "
          f"three-transition ratio={ratio3:.6f}")
    assert sec["pass"] == ok_two and sec3["pass"] == ok_three
    assert ok_two and ok_three


# ---------------------------------------------------------------------------
def test_criterion_3_far_zone_slope(report):
    sec = report["far_zone_a2"]
    slope = sec["slope"]
    ok = abs(slope + 5.0) <= 0.1
    _line(3, "far-zone correction slope", ok,
          f"slope={slope:.4f} (want -5.0 +- 0.1), K_measured={sec['K_measured']:.6f}")
    assert sec["slope_pass"] == ok
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "measured far-zone a^2 coefficient is 11/(4 pi) = 0.8754 in units of "
    "hbar a^2 alpha0^2/(c^3 R^5), 11.005x the printed 1/(4 pi) and 3.50x the "
    "pi-free 1/4 variant; verified against independent 40-digit evaluation"))
def test_criterion_3_far_zone_coefficient(report):
    sec = report["far_zone_a2"]
    ratios = {"with_4pi": sec["ratio_to_printed_with_4pi"],
              "without_pi": sec["ratio_to_printed_without_pi"]}
    selected = min(ratios, key=lambda k: abs(ratios[k] - 1.0))
    ok = abs(ratios[selected] - 1.0) <= 0.05
    _line(3, "far-zone correction coefficient", ok,
          f"K_measured={sec['K_measured']:.6f}; ratio to printed(4pi)="
          f"{ratios['with_4pi']:.3f}, to pi-free variant={ratios['without_pi']:.3f}")
    assert sec["coefficient_pass"] == ok
    assert ok


def test_criterion_4_near_zone_a2_fit(report):
    sec = report["near_zone_a2"]
    assert "error" not in sec, sec.get("error")
    ok = (abs(sec["exponent_a"] - 2.0) <= 0.05 and abs(sec["exponent_R"] + 6.0) <= 0.05
          and sec["K"] > 0.0)
    _line(4, "near-zone a^2 fit", ok,
          f"exp_a={sec['exponent_a']:.4f}, exp_R={sec['exponent_R']:.4f}, K={sec['K']:.4f}")
    assert sec["pass"] == ok
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "the integral carries an a^3/R^4 origin contribution beyond the printed "
    "a/R^6 law; at a=0.01, aR/c^2 = 50/100/200 the full evaluation exceeds "
    "the closed form by 195x/778x/3109x; verified against independent "
    "40-digit evaluation"))
def test_criterion_5_high_aR_agreement(report):
    sec = report["high_aR"]
    ratios = [p["ratio_to_closed_form"] for p in sec["points"]]
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios)
    _line(5, "large-aR law agreement", ok,
          "ratios=" + ", ".join(f"{r:.1f}" for r in ratios))
    assert sec["pass"] == ok
    assert ok


def test_criterion_6_high_acceleration_law(report):
    sec = report["high_acc"]
    errs, slope = sec["example_rel_errors"], sec["slope_far"]
    ok = max(errs) <= 1e-12 and abs(slope + 2.0) <= 0.05
    _line(6, "high-acceleration law", ok,
          f"max closed-form rel err={max(errs):.2e}, far slope={slope:.4f}")
    assert sec["pass"] == ok
    assert ok


def test_criterion_7_occupation_suite(report):
    # monotonicity in a and omega and the a = 0 value are property tests in
    # tests/test_occupation.py
    sec = report["occupation"]
    floor_ok = sec["floor_pass"]
    # highacc_scaled_errors are |approx/exact - 1| * y^2, y = a/(c omega)
    bound_ok = all(s <= 5.0 for s in sec["highacc_scaled_errors"])
    ident_ok = sec["thermality_identity_pass"]
    ok = floor_ok and bound_ok and ident_ok
    _line(7, "occupation suite", ok,
          f"floor={floor_ok}, bound={bound_ok}, identity={ident_ok}")
    assert sec["highacc_bound_pass"] == bound_ok
    assert sec["pass"] == ok
    assert ok


def test_criterion_8_dual_method_equivalence(report):
    sec = report["dual_method"]
    worst = sec["max_rel_diff"]
    ok = worst <= 1e-4 and not sec["oracle_failures"]
    _line(8, "dual-method equivalence", ok, f"max rel diff={worst:.2e} on 5x5 grid")
    assert sec["pass"] == ok
    assert ok


def test_criterion_9_units_and_determinism(report, atom):
    u = UnitSystem(mode="si", omega0=2.45e15)
    vals = {"a": 9.81, "R": 1e-6, "omega": 3.1e15, "alpha": 2.5e-24, "energy": 4e-21}
    pairs = {
        "a": (u.reduce_acceleration, u.restore_acceleration),
        "R": (u.reduce_length, u.restore_length),
        "omega": (u.reduce_frequency, u.restore_frequency),
        "alpha": (u.reduce_alpha, u.restore_alpha),
        "energy": (u.reduce_energy, u.restore_energy),
    }
    units_ok = all(abs(restore(reduce_(v)) / v - 1.0) <= 1e-12
                   for k, v in vals.items() for reduce_, restore in [pairs[k]])
    # alpha(0) round trip through the natural system as well
    nat = UnitSystem()
    units_ok = units_ok and nat.restore_alpha(nat.reduce_alpha(
        alpha_static(atom))) == alpha_static(atom)

    sec = report["determinism"]
    determinism_ok = sec["repeat_identical"] and sec["concurrency_identical"]
    assert sec["pass"] == determinism_ok

    ok = units_ok and determinism_ok
    _line(9, "unit round-trips and determinism", ok,
          f"units={units_ok}, sweep determinism={determinism_ok}")
    assert ok
