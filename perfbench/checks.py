"""Independent references and the tolerances the benchmark holds outputs to.

Every check runs outside the timed region. A mismatch counts as a failed
operation, and the largest relative deviation is reported as max_rel_err.
"""
from __future__ import annotations

import math

# Contour evaluator vs mpmath on the vacuum (inertial) piece, whole R range.
# The evaluator's requested accuracy is QuadratureSpec.rel_tol = 1e-6.
VACUUM_TOL = 1e-6
VACUUM_DPS = 20
# Contour evaluator vs potential_oracle, only inside the oracle's verified
# domain; outside it the oracle is not a reference (see oracle_known_deviation).
ORACLE_TOL = 1e-6
ORACLE_DOMAIN_R = (0.1, 100.0)
ORACLE_DOMAIN_MAX_A = 0.1
# compare_report(default_config()): the program's own dual-method tolerance
# and the two printed-law discrepancies it is known to flag.
REPORT_DUAL_TOL = 1e-4
REPORT_FLAGS = ["far_zone_a2.coefficient", "high_aR"]
# The oracle outside its domain: recorded each traced sweep_grid run, not gated.
ORACLE_KNOWN_POINT = (1e3, 1e-3)


def rel_err(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - reference) / abs(reference)


def vacuum_reference(R: float, atom_doc: dict, dps: int = VACUUM_DPS) -> float:
    """Casimir-Polder potential of the inertial pair, in mpmath.

    V(R) = -1/(pi R^7) int_0^inf P(x) e^{-2x} alpha(i x/R)^2 dx with
    P(x) = x^4 + 2x^3 + 5x^2 + 6x + 3 and alpha(iu) = sum_r alpha_r w_r^2/(w_r^2 + u^2),
    alpha_r = 2 mu_r^2 / (3 w_r), in natural units hbar = c = omega0 = 1.
    """
    import mpmath as mp

    lines = atom_doc["transitions"]
    if min(t["omega"] for t in lines) != 1.0:
        raise ValueError("the reference assumes the lowest line at omega0 = 1")
    with mp.workdps(dps):
        ws = [(2 * mp.mpf(t["mu_sq"]) / (3 * mp.mpf(t["omega"])), mp.mpf(t["omega"]))
              for t in lines]
        Rm = mp.mpf(R)

        def f(x):
            u = x / Rm
            alpha = sum(w * o * o / (o * o + u * u) for w, o in ws)
            return ((((x + 2) * x + 5) * x + 6) * x + 3) * mp.exp(-2 * x) * alpha**2

        cuts = sorted({o * Rm for _, o in ws if o * Rm < 40} | {mp.mpf("0.1"), mp.mpf(1)})
        integral = mp.quad(f, [mp.mpf(0)] + cuts + [mp.mpf(40), mp.inf])
        return float(-integral / (mp.pi * Rm**7))


def oracle_reference(R: float, a: float, atom) -> float:
    from unruhcp import potential

    return potential.potential_oracle(R, a, atom).value


def in_oracle_domain(R: float, a: float) -> bool:
    return ORACLE_DOMAIN_R[0] <= R <= ORACLE_DOMAIN_R[1] and a <= ORACLE_DOMAIN_MAX_A


class Check:
    """Tally of reference comparisons."""

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.problems: list[str] = []
        self.oracle_declined = 0   # points where the oracle raised OracleUnreliableError

    def compare(self, what: str, value, reference, tol: float) -> None:
        self.checked += 1
        err = rel_err(value, reference) if value is not None else math.inf
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= tol:
            self.fail(f"{what}: {value!r} vs reference {reference!r} (rel err {err:.3e} > {tol:g})")

    def require(self, what: str, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.fail(what)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def check_sweep_samples(samples, vacuum_ref=vacuum_reference, oracle_ref=oracle_reference,
                        check: Check | None = None) -> Check:
    """samples: (atom_doc, atom, SweepRow) picked from the timed run's output."""
    from unruhcp.errors import OracleUnreliableError

    check = check or Check()
    for atom_doc, atom, row in samples:
        check.compare(f"vacuum part at R={row.R!r}", row.part_vacuum,
                      vacuum_ref(row.R, atom_doc), VACUUM_TOL)
        if in_oracle_domain(row.R, row.a):
            try:
                ref = oracle_ref(row.R, row.a, atom)
            except OracleUnreliableError:
                # the oracle declines some multi-line atoms near R = 0.1; counted
                # and reported, but it is no reference there
                check.oracle_declined += 1
                continue
            check.compare(f"V at R={row.R!r}, a={row.a!r} vs oracle", row.V_contour,
                          ref, ORACLE_TOL)
    return check


def check_report(report: dict, check: Check | None = None) -> Check:
    check = check or Check()
    check.require("report overall_pass", report.get("overall_pass") is True)
    check.require(f"report flags {report.get('flagged_discrepancies')!r} == {REPORT_FLAGS!r}",
                  report.get("flagged_discrepancies") == REPORT_FLAGS)
    dual = report.get("dual_method", {}).get("max_rel_diff")
    check.require(f"dual_method.max_rel_diff {dual!r} <= {REPORT_DUAL_TOL:g}",
                  dual is not None and dual <= REPORT_DUAL_TOL)
    if dual is not None:
        check.max_rel_err = max(check.max_rel_err, dual)
    return check
