#!/usr/bin/env python3
"""Freeze mpmath references for the three parts of the contour decomposition.

Writes tests/golden/contour_parts.json: for a two-level and a 3-line atom
(natural units, lowest line at omega0 = 1) and (R, a) points over
R in [1e-4, 1e4] c/omega0 and a in [1e-5, 0.1] omega0 c, the parts

* vacuum         -(1/pi R^7) int_0^inf Q(x) e^{-2x} alpha^2(ix/R) dx
* nonthermal_a2  (a^2/pi R^5) int_0^inf [Q(x) e^{-2x} alpha^2(ix/R) - 3 alpha0^2]/x^2 dx,
                 the finite part of the double pole, integrated as written
* residue_sum    the Bose piece in its real-axis form,
                 -(2a/pi R^2) int_0^T ImW(a t) (1 + 1/t^2)/(e^{2 pi t} - 1) dt,
                 ImW(k) = k^4 alpha^2(k) Im[e^{2ikR} u(kR)], T = min(40, 0.85/a)

with Q(x) = x^4 + 2x^3 + 5x^2 + 6x + 3, alpha(z) = sum_r alpha_r w_r^2/(w_r^2 - z^2)
and alpha_r = 2 mu_r^2/(3 w_r).  Each integrand is written directly from its
definition, with none of the evaluator's series, subtractions or rules; the
working precision covers the cancellation near the origin, and the values
are printed to 30 significant digits.

    python3 scripts/make_golden.py            # a few minutes
"""
from __future__ import annotations

import json
import pathlib

import mpmath as mp

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "contour_parts.json"
DIGITS = 30
WORK_DPS = 120   # covers the x^-4 cancellation of Im[e^{2ix} u(x)] down to x ~ 1e-19
T0 = "1e-10"     # the residue integral starts here; f(t) ~ t^2 leaves a share < 1e-29 below
ATOMS = {
    "two_level": {"two_level": {"omega0": 1.0, "alpha0": 1.0}},
    "three_line": {"transitions": [{"omega": 1.0, "mu_sq": 1.0},
                                   {"omega": 2.0, "mu_sq": 0.5},
                                   {"omega": 5.0, "mu_sq": 2.0}]},
}
# (R, a) in c/omega0 and omega0 c; the first five have aR < 1e-3, the
# points with aR > 0.5 take the pole ladder in the evaluator
POINTS = [(1e-4, 1e-5), (1e-4, 0.1), (1e-3, 1e-3), (1e-2, 0.05), (0.1, 1e-5),
          (0.3, 0.1), (1.0, 1e-3), (1.0, 0.1), (3.0, 0.01), (10.0, 1e-4),
          (30.0, 0.03), (100.0, 1e-3), (1e3, 1e-5), (1e3, 1e-3), (1e4, 1e-5),
          (1e4, 1e-3)]


def _lines(doc):
    if "two_level" in doc:
        tl = doc["two_level"]
        return [(mp.mpf(tl["alpha0"]), mp.mpf(tl["omega0"]))]
    return [(2 * mp.mpf(t["mu_sq"]) / (3 * mp.mpf(t["omega"])), mp.mpf(t["omega"]))
            for t in doc["transitions"]]


def parts(R: float, a: float, doc: dict) -> dict[str, str]:
    with mp.workdps(WORK_DPS):
        lines = _lines(doc)
        R, a = mp.mpf(R), mp.mpf(a)
        alpha0 = sum(w for w, _ in lines)

        def alpha(z):
            return sum(w * o * o / (o * o - z * z) for w, o in lines)

        def alpha_iu(u):
            return sum(w * o * o / (o * o + u * u) for w, o in lines)

        def g(x):   # Q(x) e^{-2x} alpha^2(i x / R)
            return ((((x + 2) * x + 5) * x + 6) * x + 3) * mp.exp(-2 * x) * alpha_iu(x / R) ** 2

        cuts = sorted({o * R for _, o in lines if o * R < 40} | {mp.mpf("0.1"), mp.mpf(1), mp.mpf(10)})
        vacuum = -mp.quad(g, [0] + cuts + [40, mp.inf]) / (mp.pi * R**7)

        # finite part: [0, eps] from the Taylor expansion of the integrand,
        # -(alpha0^2 + 3 alpha_curv/R^2) + O(x^2), the rest as written
        eps = mp.mpf("1e-20") * min(1, R)
        curv = 2 * alpha0 * sum(w / o**2 for w, o in lines)
        head = -(alpha0**2 + 3 * curv / R**2) * eps
        body = mp.quad(lambda x: (g(x) - 3 * alpha0**2) / x**2,
                       [eps] + [c for c in cuts if c > eps] + [40, mp.inf])
        nonthermal = a * a / (mp.pi * R**5) * (head + body)

        def osc_im(x):
            return (mp.exp(2j * x) * (1 - 5 / x**2 + 3 / x**4 + 1j * (2 / x - 6 / x**3))).imag

        def bose(t):
            k = a * t
            imw = k**4 * alpha(k) ** 2 * osc_im(k * R)
            return imw * (1 + 1 / t**2) / mp.expm1(2 * mp.pi * t)

        T = min(mp.mpf(40), mp.mpf("0.85") / a)
        # unit panels resolve the oscillation of e^{2iaRt} up to aR = 10
        edges = [mp.mpf(T0), mp.mpf("0.25"), mp.mpf("0.5")] + [mp.mpf(n) for n in range(1, int(T) + 1)]
        residue = -2 * a / (mp.pi * R**2) * mp.quad(bose, [e for e in edges if e < T] + [T])
        return {name: mp.nstr(value, DIGITS, min_fixed=1, max_fixed=0)
                for name, value in (("vacuum", vacuum), ("nonthermal_a2", nonthermal),
                                    ("residue_sum", residue))}


def main() -> int:
    table = {"digits": DIGITS, "units": "natural", "atoms": ATOMS, "points": []}
    for name, doc in ATOMS.items():
        for R, a in POINTS:
            table["points"].append({"atom": name, "R": R, "a": a, **parts(R, a, doc)})
            print(name, R, a, table["points"][-1]["vacuum"], flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table['points'])} points to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
