"""Interatomic potential for two atoms sharing a uniform proper acceleration.

The potential is the oscillatory dispersion integral

    V(R) = -(2 hbar c / pi R^2) Im int_0^inf dk k^4 <n(ck)>_a e^{2ikR}
                                      u_factor(kR) alpha^2(k)

evaluated two independent ways:

* ``potential_grid``      - the contour evaluator, on the product grid of a
  list of separations and a list of accelerations.  The occupation factor
  is split as 1/2 + (1/2) a^2/(c^2 omega^2) + (1 + a^2/(c^2 omega^2)) * Bose.
  The first piece is the inertial integral rotated onto the imaginary axis,
  where it is a smooth exponentially damped quadrature; the second rotates
  onto the imaginary axis with a finite-part (Hadamard) regularization of
  its double pole at the origin; the third contributes the pole ladder of
  the Bose factor at k_n = n a / c^2 plus a closed-form origin term from the
  k^-1 Laurent coefficient of the integrand.  The ladder is summed directly
  where it is sparse and by the Abel-Plana formula from a shifted origin
  where it is dense, in one batched kernel per call (_pole_ladder).  For
  a <= SWITCH_A and a R / c^2 <= SWITCH_AR the third piece is instead the
  exactly equivalent Bose-weighted real-axis integral of the imaginary part,
  which needs a below the lowest resonance.  V does not need this route:
  the ladder gives the same V there within the two error estimates.  It
  exists to resolve the thermal (Unruh) part residue_sum below SWITCH_A,
  which the ladder forms as V less the other two parts, resolved only to
  about the rounding of |V|.  ``potential_numeric`` (one point, a = 0
  for the inertial pair) is its 1 x 1 grid.
* ``potential_oracle_grid`` - an independent check on the same grid: the raw
  integrand is integrated over a deformed first-quadrant path (real segment
  plus a tilted ray, exact by Cauchy's theorem), undamped.  It shares the
  integrand's kernels (retardation weight, polarizability, Bose factor) but
  no rule, residue or finite-part algebra with the contour evaluator.
  ``potential_oracle`` (one point) is its 1 x 1 grid.

Both grids share one front end, _gate, which does no numerics: it holds the
domain checks, units and validity check, so both give a RegimeError for
a/(omega0 c) >= 10 and the "marginal validity window" warning for
0.1 < a/(omega0 c) < 10.  It takes a flat list of (R, a) pairs, as indices
into lists of separations and accelerations; a product grid is the special
case _gate_grid builds, and the comparison report evaluates the pairs of
all its sections in one call.  It is also the one acceptance gate: each route
returns per point its value V and error estimate, and a point passes iff
that estimate is within 10 rel_tol |V|, rel_tol being the fixed REL_TOL =
1e-6, otherwise it is a NumericalFailure carrying the partial value and its
estimate.  The gate's entries are restored tuples; _grid makes each passed
one a PotentialResult with its regime for the API, and sweep.run_sweep
builds its rows from them directly.

Quadrature of the contour evaluator.  The three integrals are numpy array
expressions on fixed composite Gauss-Legendre rules with GL_ORDER nodes per
panel:

* the two imaginary-axis pieces use IMAG_PANELS equal panels in ln x over
  x = uR in [X_LO, X_CUT].  The stretch [0, X_LO] is added analytically
  from the Taylor series of the integrand through x^4, and so is the
  -3 alpha0^2/X_CUT tail of the origin-subtracted piece beyond X_CUT, where
  the exponential factor is below e^{-80}; the leading terms these end
  pieces neglect (those of x^5 and x^6) enter the error estimate, 1e-10 of
  the value at R = 1e-10 c/omega0.  Both pieces share one set of
  polarizability samples and depend on R only, so a call computes them
  once per separation.  The
  samples come from _alpha_iu, the one oscillator sum kept outside
  atoms.oscillator_sum: it fuses alpha(iu) with the deficit sum beta that
  the origin-subtracted piece needs, so both share one division per line.
* the Bose real-axis piece uses the panels BOSE_EDGES, cut at T.
* the pole ladder is a direct head of at most LADDER_HEAD terms where that
  reaches a R n >= LADDER_Y, whose geometric tail is its error estimate.
  Elsewhere it is the Abel-Plana remainder from the pole N = LADDER_ORIGIN:
  the finite part of int_0^inf of the ladder's function comes from the two
  imaginary-axis pieces, and its integral over [0, N] (panels halving
  towards 0, LADDER_X_SPLITS of them) and the Abel-Plana correction over
  t in LADDER_T_EDGES, whose nodes lie off the real axis, are one nested
  rule.

Each rule is one fixed nested pair: its value with the panels as given is
compared with its value with every panel halved; the finer value is
returned and the difference is its error estimate.  Each pair is one pass:
its rule joins the nodes of both levels, the integrand is evaluated once on
them, and _nested sums each level's slice.  No rule, here or in the
oracle, refines: on the accepted domain no difference exceeds about 3e-11
of its value, and below R of about 5e-12 c/omega0 the [0, X_LO] floor,
which no halving lowers, fails the gate.  A point's error estimate is the
sum of the estimates of the imaginary-axis pieces and of its Bose piece or
pole ladder.  No scalar adaptive quadrature remains in this evaluator.

Quadrature of the oracle.  A point's path leaves the real axis at
K0 = min(ORACLE_K0, 1/R) and follows the ray K0 + t e^{i ORACLE_TILT}, on
which e^{2ikR} decays by itself, so the integral is taken undamped.  The
panels of every point's path are built as arrays in one pass
(_oracle_panels), and one pass per path part evaluates them all; each node
evaluates the integrand once and the three occupation pieces from it.  The
segment, x = kR in [0, K0 R] (K0 R <= 1), is one panel per stretch
between its cuts at a/2pi, a and 4a; the ray has edges at t_d 2^j
(t_d = 1/(2R sin tilt), its decay length) up to 2^ORACLE_RAY_DOUBLINGS t_d,
and its integrand there times t_d bounds the rest in the error estimate.
Every panel is one fixed pass of the G10K21 Gauss-Kronrod pair of QUADPACK
(Piessens et al., 1983): its 21-node Kronrod sum is the panel's value and
the difference from the embedded 10-node Gauss sum its error estimate.  A
point's error estimate is the sum over its panels and the three occupation
pieces.  The oracle's rule is its own (the contour evaluator's are
Gauss-Legendre); no scalar adaptive quadrature remains, and the package
needs numpy alone.

Every contour and oracle value is a function of (R, a, atom) alone: the
arithmetic of one point never involves another, so a grid returns bit for
bit what point-by-point calls return.  All evaluators are pure functions,
deterministic and safe for concurrent use: the package starts no thread,
and callers may bring their own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .atoms import AtomSpec, _reduce_atom, _ReducedAtom, oscillator_sum
from .errors import NumericalFailure, RegimeError, UnruhCPError, check_domain
from .kinematics import Regime, _acceleration, _aR, _zone, validity_check
from .occupation import EXP_OVERFLOW, _bose
from .retardation import _exp_series, osc_imag_part, quartic_weight, u_numerator
from .units import units_for

# contour evaluator mode switch: below both thresholds the pole ladder is
# replaced by the Bose-weighted real-axis integral
SWITCH_A = 0.125      # a / (omega0 c)
SWITCH_AR = 0.5       # a R / c^2
# fixed nested rules of the contour evaluator (module docstring)
GL_ORDER = 8          # Gauss-Legendre nodes per panel
X_LO = 1e-12          # the imaginary-axis rule covers x = uR in [X_LO, X_CUT]
X_CUT = 40.0
IMAG_PANELS = 32      # panels in ln x of the coarser imaginary-axis rule
BOSE_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)  # t panels, cut at T
P_SERIES = 0.25       # below this x, (Q(x) e^{-2x} - 3)/x^2 is summed as a series
LADDER_HEAD = 64      # most terms of a directly summed pole ladder
LADDER_Y = 26.0       # a direct ladder runs to the first pole with n a R >= LADDER_Y
LADDER_ORIGIN = 2.0   # the Abel-Plana remainder starts at pole N = LADDER_ORIGIN
LADDER_X_SPLITS = 6   # its [0, N] rule has the panels [0, 2^-6 N], ..., [N/2, N]
LADDER_T_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)   # and its t rule these panels
ORACLE_K0 = 0.5       # the oracle path leaves the real axis at min(ORACLE_K0, 1/R)
ORACLE_TILT = math.pi / 4
ORACLE_RAY_DOUBLINGS = 6    # oracle ray panels end at 2^6 decay lengths
ORACLE_BLOCK = 96           # oracle panels (2016 nodes) evaluated per array pass
REL_TOL = 1e-6        # accuracy of both gates (module docstring)


@dataclass(frozen=True)
class PotentialResult:
    """Energy value with error estimate, additive decomposition and regime tag."""

    value: float
    error_estimate: float
    parts: dict[str, float]
    regime: Regime
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "parts": {
                "vacuum": self.parts["vacuum"],
                "nonthermal_a2": self.parts["nonthermal_a2"],
                "residue_sum": self.parts["residue_sum"],
            },
            "regime": self.regime.as_dict(),
            "warnings": list(self.warnings),
        }


# --------------------------------------------------------------------------
# reduced-unit polarizability and quadrature helpers
# --------------------------------------------------------------------------
def _alpha_iu(u, ra: _ReducedAtom):
    """alpha(iu) and beta = (alpha0 - alpha(iu))/u^2 = sum_r w_r/(o_r^2 + u^2).

    beta carries the deficit alpha0 - alpha(iu) without the cancellation of
    the direct difference at small u.  Both sums share one division per line
    (module docstring).
    """
    u2 = u * u
    alpha = beta = 0.0
    for w, o in zip(ra.weights, ra.omegas):
        d = 1.0 / (o * o + u2)
        alpha = alpha + w * o * o * d
        beta = beta + w * d
    return alpha, beta


def _alpha2_iu(u, ra: _ReducedAtom):
    # alpha(iu)^2, scalar or array u
    alpha, _ = _alpha_iu(u, ra)
    return alpha * alpha


def _alpha2_real0(k, ra: _ReducedAtom):
    # gamma = 0 polarizability squared at real k below every resonance or at
    # complex k off the real axis, scalar or array k
    s = oscillator_sum(k * k, ra.weights, ra.omegas)
    return s * s


def _ragged(counts: np.ndarray):
    """For runs of the given lengths laid end to end: each entry's run and its
    index within the run, and the end of each run."""
    ends = np.cumsum(counts)
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(ends[-1]) - (ends - counts)[run], ends


# --------------------------------------------------------------------------
# fixed nested rules of the contour evaluator
# --------------------------------------------------------------------------
# Taylor coefficients of Q(x) e^{-2x}, Q the imaginary-axis quartic; at x <=
# P_SERIES the first term left out of p, c_20 x^18, is below 4e-20 |p(x)|
_QE_SERIES = _exp_series((3.0, 6.0, 5.0, 2.0, 1.0), -2.0, 20)   # 3, 0, -1, 0, 1, ...


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _quartic_exp(x: np.ndarray):
    """Q(x) e^{-2x} and p(x) = (Q(x) e^{-2x} - 3)/x^2 at the nodes x > 0, p
    summed as its series below P_SERIES."""
    qe = quartic_weight(x) * np.exp(-2.0 * x)
    xs = np.minimum(x, P_SERIES)
    p = np.zeros_like(x)
    for c in reversed(_QE_SERIES[2:]):
        p *= xs
        p += c
    far = x >= P_SERIES
    p[far] = (qe[far] - 3.0) / (x[far] * x[far])
    return qe, p


@lru_cache(maxsize=None)
def _imag_axis_rule(panels: int, order: int):
    """(x, w, Q e^{-2x}, p) on the imaginary-axis nested pair, its two levels
    joined: `panels` equal panels in ln x over [X_LO, X_CUT], then 2 `panels`,
    `order` Gauss-Legendre nodes each.  w includes the Jacobian x of the ln-x
    substitution; p as in _quartic_exp."""
    t, w = leggauss(order)
    lo = math.log(X_LO)
    x, wx = [], []
    for n in (panels, 2 * panels):
        h = (math.log(X_CUT) - lo) / n
        x.append(np.exp((lo + h * np.arange(n)[:, None] + 0.5 * h * (t + 1.0)).ravel()))
        wx.append(np.tile(0.5 * h * w, n) * x[-1])
    x = np.concatenate(x)
    return _frozen(x, np.concatenate(wx), *_quartic_exp(x))


@lru_cache(maxsize=None)
def _bose_rule(parts: int, order: int):
    """Node offsets in [0, 1] and weights of the rule on a unit panel cut into
    `parts` equal parts of `order` Gauss-Legendre nodes each."""
    t, w = leggauss(order)
    offsets = ((np.arange(parts)[:, None] + 0.5 * (t + 1.0)) / parts).ravel()
    return _frozen(offsets, np.tile(0.5 * w / parts, parts))


def _nested_nodes(edges: np.ndarray):
    """Nodes and weights of the nested pair on the panels between the edges
    along the last axis (GL_ORDER Gauss-Legendre nodes per panel, then per half
    panel), and the node count of level 0.  The levels are concatenated, not
    gathered: a C-ordered row keeps each level's pairwise sum, and so its bits."""
    lo, width = edges[..., :-1, None], np.diff(edges)[..., None]
    shape = (*edges.shape[:-1], -1)
    levels = [(lo + width * offsets, width * weights)
              for offsets, weights in (_bose_rule(parts, GL_ORDER) for parts in (1, 2))]
    nodes, weights = (np.concatenate([x.reshape(shape) for x in level], axis=-1)
                      for level in zip(*levels))
    return nodes, weights, (edges.shape[-1] - 1) * GL_ORDER


def _nested(terms: np.ndarray, split: int):
    """(level 0, level 1) sums over the last axis of a nested pair's weighted
    integrand on its joined rule, whose first `split` nodes are level 0.  Each
    row's sums depend on that row alone."""
    return terms[..., :split].sum(axis=-1), terms[..., split:].sum(axis=-1)


# --------------------------------------------------------------------------
# contour-evaluator building blocks (reduced units)
# --------------------------------------------------------------------------
def _inertial_integral(Rt: np.ndarray, ra: _ReducedAtom, end: np.ndarray):
    """int_0^inf g(x) dx per separation, g(x) = Q(x) e^{-2x} alpha^2(ix/R), x = uR,
    on each level of the imaginary-axis pair plus `end`, the [0, X_LO] piece.

    Returns the two levels' integrals and the polarizability samples (alpha,
    beta) of _alpha_iu, which _origin_subtracted_integral reuses.
    """
    x, wx, qe, _ = _imag_axis_rule(IMAG_PANELS, GL_ORDER)
    alpha, beta = _alpha_iu(x / Rt[:, None], ra)
    levels = _nested(qe * alpha * alpha * wx, IMAG_PANELS * GL_ORDER)
    return [level + end for level in levels], alpha, beta


def _origin_subtracted_integral(Rt: np.ndarray, ra: _ReducedAtom,
                                alpha: np.ndarray, beta: np.ndarray, end: np.ndarray):
    """Finite part int_0^inf [g(x) - g(0)]/x^2 dx per separation (g as above,
    g(0) = 3 alpha0^2), on each level of the imaginary-axis pair, less `end`,
    which is minus the [0, X_LO] piece.

    W'(0) vanishes identically (the 6/x^3 term of the weight cancels the
    linear term of e^{-2x}), so subtracting the pure double pole leaves a
    convergent integral and the finite part carries no logarithm.  The
    integrand is evaluated as p(x) alpha^2 - 3 beta (alpha + alpha0)/R^2,
    free of the cancellation of g(x) - 3 alpha0^2 at small x.
    """
    _, wx, _, p = _imag_axis_rule(IMAG_PANELS, GL_ORDER)
    a0 = ra.alpha0
    integrand = p * alpha * alpha - 3.0 * beta * (alpha + a0) / (Rt * Rt)[:, None]
    return [level - end - 3.0 * a0 * a0 / X_CUT
            for level in _nested(integrand * wx, IMAG_PANELS * GL_ORDER)]


def _over(x: float, y: float) -> float:
    # x / y for y >= +0.0 with numpy's result where y underflowed to 0: inf
    # of x's sign, nan at x = 0 (Python's division raises there)
    return x / y if y else x * math.inf


def _imag_axis_ends(Rt: np.ndarray, ra: _ReducedAtom):
    """The [0, X_LO] pieces of the inertial and origin-subtracted integrals per
    separation, and the floor of the pair: the terms those pieces neglect,
    shape (2, len(Rt)).  Python floats, one separation at a time: the same
    operations as on arrays, at a fraction of the cost for a few."""
    # Taylor coefficients of g about x = 0: g = 3 alpha0^2 - g2 x^2 + g4 x^4
    # + c5 alpha0^2 x^5 + g6 x^6 + ..., c_m those of Q(x) e^{-2x}; they
    # overflow only far below R = X_LO, where the floor fails the point
    a0sq = ra.alpha0**2
    c5 = abs(_QE_SERIES[5]) * a0sq
    out = []
    for rt in Rt.tolist():
        r2 = rt * rt
        r4 = r2 * r2
        g2 = a0sq + _over(3.0 * ra.alpha_curv, r2)
        g4 = a0sq + _over(ra.alpha_curv, r2) + _over(3.0 * ra.alpha_quart, r4)
        g6 = (_QE_SERIES[6] * a0sq - _over(ra.alpha_curv, r2) - _over(ra.alpha_quart, r4)
              - _over(3.0 * ra.alpha_sext, r4 * r2))
        out.append(((3.0 * a0sq - X_LO**2 * (g2 / 3.0 - X_LO**2 * g4 / 5.0)) * X_LO,
                    (g2 - g4 * X_LO**2 / 3.0) * X_LO,
                    c5 * X_LO**6 / 6.0 + abs(g6) * X_LO**7 / 7.0,
                    c5 * X_LO**4 / 4.0 + abs(g6) * X_LO**5 / 5.0))
    ends = np.array(out).reshape(-1, 4).T
    return ends[0], ends[1], ends[2:]


def _imag_axis_pieces(Rt: np.ndarray, ra: _ReducedAtom):
    """(inertial, origin-subtracted) x-integrals per separation: value and error
    arrays of shape (2, len(Rt)), from one pass over the joined pair."""
    end_inertial, end_origin, floor = _imag_axis_ends(Rt, ra)
    inertial, alpha, beta = _inertial_integral(Rt, ra, end_inertial)
    origin = _origin_subtracted_integral(Rt, ra, alpha, beta, end_origin)
    coarse, fine = (np.stack(level) for level in zip(inertial, origin))
    return fine, np.abs(fine - coarse) + floor


def _origin_coefficient(Rt: float, at: float, ra: _ReducedAtom) -> float:
    """k^-1 Laurent coefficient c1 of the full integrand at the origin.

    c1 = W(0)*a*(pi/6 + 1/(2 pi)) + W2 * a^3/(2 pi) with W2 the k^2
    coefficient of k^4 e^{2ikR} u_factor(kR) alpha^2(k).  The quarter-arc
    around the origin leaves (pi/2) c1 in the imaginary part; the higher
    (double and triple) pole terms contribute only to the real part.
    """
    w0 = 3.0 * ra.alpha0**2 / Rt**4
    w2 = ra.alpha0**2 / Rt**2 + 3.0 * ra.alpha_curv / Rt**4
    return w0 * at * (math.pi / 6.0 + 0.5 / math.pi) + w2 * at**3 / (2.0 * math.pi)


def _ladder_terms(n, Rt, at, ra: _ReducedAtom, factor=None):
    """R^4 g(n) with g(n) = (1 - 1/n^2) W(n a), W(u) = Q(uR) e^{-2uR} alpha^2(iu)/R^4
    the imaginary-axis integrand; at real or complex n, elementwise.  factor
    is 1 - 1/n^2 where the caller has it already."""
    u = n * at
    y = u * Rt
    if factor is None:
        factor = 1.0 - 1.0 / (n * n)
    return factor * quartic_weight(y) * np.exp(-2.0 * y) * _alpha2_iu(u, ra)


@lru_cache(maxsize=None)
def _panel_rule(edges: tuple[float, ...]):
    """_nested_nodes of the panels between `edges`, frozen."""
    nodes, weights, split = _nested_nodes(np.array(edges))
    return (*_frozen(nodes, weights), split)


@lru_cache(maxsize=None)
def _bose_t_rule():
    """The Abel-Plana t rule of _pole_ladder: the ladder's argument n = N + i t
    at the nodes t on LADDER_T_EDGES, its factor 1 - 1/n^2, the weights times
    the Bose factor 1/(e^{2 pi t} - 1), and the level split."""
    t, wt, t_split = _panel_rule(LADDER_T_EDGES)
    n = LADDER_ORIGIN + 1j * t
    return (*_frozen(n, 1.0 - 1.0 / (n * n), wt / np.expm1(2.0 * math.pi * t)), t_split)


def _pole_ladder(Rt: np.ndarray, at: np.ndarray, ra: _ReducedAtom, fp: np.ndarray):
    """R^4 sum_{n>=2} g(n) over the Bose poles (n = 1 is killed by the zero of
    1 + a^2/k^2 at k = i a), per point of the arrays Rt, at: values and error
    estimates.  fp is R^4 FP int_0^inf g per point, from the imaginary-axis
    integrals.

    Where the terms, which fall faster than e^{-2 a R n}, reach a R n >=
    LADDER_Y within LADDER_HEAD terms, the ladder is that direct head,
    summed for every such point in one ragged pass; the geometric tail
    beyond its last term is its estimate.  Elsewhere the Abel-Plana formula
    from the shifted origin N = LADDER_ORIGIN gives

        sum_{n>=N} g(n) = int_N^inf g + g(N)/2 - 2 int_0^inf Im g(N + it)/(e^{2 pi t} - 1) dt,

    with int_N^inf g = fp - FP int_0^N g.  The t-integrand's nodes lie at
    k = -a t + i a N, off the real axis, so no polarizability resonance is
    hit whatever a is.  FP int_0^N g = int_0^N h + W(0)/N with h(x) = W(xa) -
    (W(xa) - W(0))/x^2, evaluated as in _origin_subtracted_integral; both
    integrals are one nested pair (_nested) whose difference is the estimate.
    Each point's result depends on that point alone.
    """
    value = np.empty(len(Rt))
    error = np.empty(len(Rt))
    ar = at * Rt
    direct = ar >= LADDER_Y / (LADDER_HEAD + 1)
    d = np.flatnonzero(direct)
    if len(d):
        count = np.maximum(np.ceil(LADDER_Y / ar[d]) - 1.0, 1.0).astype(np.int64)
        pt, j, ends = _ragged(count)
        n = (j + 2).astype(float)
        terms = _ladder_terms(n, Rt[d][pt], at[d][pt], ra)
        ratio = np.exp(-2.0 * ar[d])
        value[d] = np.bincount(pt, weights=terms, minlength=len(d))
        error[d] = terms[ends - 1] * ratio / (1.0 - ratio)

    rest = np.flatnonzero(~direct)
    if len(rest):
        r, a = Rt[rest, None], at[rest, None]
        N = LADDER_ORIGIN
        x_edges = (0.0, *(N * 2.0**-j for j in range(LADDER_X_SPLITS, -1, -1)))
        # per point in Python floats, which cost less than arrays of a few
        origin = 3.0 * ra.alpha0**2 / N
        const = np.array([0.5 * _ladder_terms(N, rt, a_p, ra) - origin
                          for rt, a_p in zip(Rt[rest].tolist(), at[rest].tolist())])

        x, wx, x_split = _panel_rule(x_edges)
        u = x * a
        qe, p = _quartic_exp(u * r)
        alpha, beta = _alpha_iu(u, ra)
        h = qe * alpha * alpha - a * a * (
            r * r * p * alpha * alpha - 3.0 * beta * (alpha + ra.alpha0))
        n, factor, wt, t_split = _bose_t_rule()
        g = _ladder_terms(n, r, a, ra, factor)
        corr = _nested(g.imag * wt, t_split)
        coarse, fine = (const - s - 2.0 * c for s, c in zip(_nested(h * wx, x_split), corr))
        value[rest] = fp[rest] + fine
        error[rest] = np.abs(fine - coarse)
    return value, error


def _bose_real_axis_integral(Rt: np.ndarray, at: np.ndarray, ra: _ReducedAtom):
    """Bose piece as -(2a/pi R^2) int_0^T ImW(a t)(1 + 1/t^2)/(e^{2 pi t}-1) dt,
    per (R, a) pair of the arrays Rt, at: value and error arrays.

    Exactly equivalent to the pole sum plus its origin term minus the two
    imaginary-axis integrals (Abel-Plana), but costs O(1) independent of
    a R.  Requires a < omega_min so the Bose weight dies before the first
    polarizability resonance.
    """
    T = np.minimum(BOSE_EDGES[-1], 0.85 / at)
    t, w, split = _nested_nodes(np.minimum(np.array(BOSE_EDGES), T[:, None]))
    k = at[:, None] * t
    k2 = k * k
    f = (k2 * k2 * _alpha2_real0(k, ra) * osc_imag_part(k * Rt[:, None])
         * (1.0 + 1.0 / (t * t)) / np.expm1(2.0 * math.pi * t))
    coarse, fine = _nested(f * w, split)
    scale = 2.0 * at / (math.pi * Rt * Rt)
    return -scale * fine, scale * np.abs(fine - coarse)


# --------------------------------------------------------------------------
# public evaluators
# --------------------------------------------------------------------------
def _gate(method: str, Rs: list[float], As: list[float], ri: list[int], aj: list[int],
          atom: AtomSpec, units):
    """Per pair p of the separation Rs[ri[p]] and the acceleration As[aj[p]]
    (Rs and As lists of floats, ri and aj lists of indices), the restored (value,
    error, vacuum, nonthermal_a2, residue_sum, warnings) of the route of
    `method` ("contour" or "oracle"), or the point's error.

    The domain is checked once per value of Rs and then of As, and the
    validity once per acceleration.  A route takes the reduced separations,
    and per pair at a non-excited acceleration its index into them and its
    reduced acceleration; it returns per such pair, in order, the reduced
    (total, vacuum, nonthermal_a2, residue_sum, error, warnings).  This is
    the one acceptance gate: a point passes iff error <= 10 REL_TOL |total|,
    REL_TOL read at call time.
    """
    u = units_for(atom, units)
    for r in Rs:
        check_domain("separation", r)
    for x in As:
        check_domain("acceleration", x, strict=False)
    reports = [validity_check(x, atom, c=u.c) for x in As]
    # per acceleration: None in the excited regime, else its points' first warnings
    notes = [None if report.excited else
             (f"marginal validity window: omega0 c / a = {report.ratio:.3g}",)
             if report.status == "marginal" else () for report in reports]
    a_reduced = [u.reduce_acceleration(x) for x in As]
    live = [(i, a_reduced[j]) for i, j in zip(ri, aj) if notes[j] is not None]
    # the routes run with numpy's floating-point reports off: 2 pi/a is inf
    # at a = 0, ladder terms underflow, and a point whose arithmetic leaves
    # the range of doubles ends with a value or estimate that is not finite,
    # which fails the gate below, or with a value that underflows to 0 with
    # its estimate
    route = {"contour": _contour_points, "oracle": _oracle_points}[method]
    with np.errstate(all="ignore"):
        points = iter(route(np.array([u.reduce_length(r) for r in Rs]), [i for i, _ in live],
                            np.array([a for _, a in live]), _reduce_atom(atom, u))
                      if live else ())
    entries = []
    for i, j in zip(ri, aj):
        R_i, a_j, note = Rs[i], As[j], notes[j]
        if note is None:
            entries.append(RegimeError(
                f"a/(omega0 c) = {1.0 / reports[j].ratio:.3g} lies in the spontaneously "
                "excited regime; use potential_high_acc"))
            continue
        vt, vac, nonth, res, err, warnings = next(points)
        value = u.restore_energy(vt)
        error = u.restore_energy(err)
        bound = 10.0 * REL_TOL * abs(vt)
        if math.isfinite(vt) and err <= bound:
            entries.append((value, error, u.restore_energy(vac), u.restore_energy(nonth),
                            u.restore_energy(res), (*note, *warnings)))
            continue
        entries.append(NumericalFailure(
            f"{method} quadrature missed its tolerance at R={R_i!r}, a={a_j!r}: "
            f"error estimate {error:.3e} exceeds 10 rel_tol |V| = "
            f"{u.restore_energy(bound):.3e}" if math.isfinite(vt) else
            f"{method} evaluation has no finite value at R={R_i!r}, a={a_j!r} "
            f"(V = {value})",
            partial=value, error_estimate=error))
    return entries


def _gate_grid(method: str, Rs: list[float], As: list[float], atom: AtomSpec, units):
    """_gate on the product grid of Rs and As: one list of entries per
    acceleration, in the order of As, each in the order of Rs."""
    n = len(Rs)
    entries = _gate(method, Rs, As, list(range(n)) * len(As),
                    [j for j in range(len(As)) for _ in range(n)], atom, units)
    return [entries[j * n:(j + 1) * n] for j in range(len(As))]


def _grid(method: str, R, a, atom: AtomSpec, units):
    """The entries of potential_grid's contract: _gate_grid's, each passed point
    a PotentialResult with its regime, that of kinematics.classify_regime with
    the zone classified once per separation and the acceleration once per
    acceleration."""
    Rs, As = [float(r) for r in R], [float(x) for x in a]
    c, grid = units_for(atom, units).c, _gate_grid(method, Rs, As, atom, units)
    zones = [_zone(R_i, atom, c) for R_i in Rs]
    out = []
    for a_j, row in zip(As, grid):
        r_acc, acc = _acceleration(a_j, atom, c)
        entries = []
        for R_i, (r_zone, zone), entry in zip(Rs, zones, row):
            if not isinstance(entry, UnruhCPError):
                r_aR, aR = _aR(R_i, a_j, c)
                entry = PotentialResult(
                    value=entry[0], error_estimate=entry[1],
                    parts={"vacuum": entry[2], "nonthermal_a2": entry[3], "residue_sum": entry[4]},
                    regime=Regime(zone=zone, acceleration=acc, aR_class=aR, R_omega0_over_c=r_zone,
                                  a_over_omega0_c=r_acc, aR_over_c2=r_aR),
                    warnings=entry[5])
            entries.append(entry)
        out.append(entries)
    return out


def _contour_points(Rt: np.ndarray, ri: list[int], At: np.ndarray, ra: _ReducedAtom):
    """The contour evaluator's route for _gate: per pair p, the point of the
    reduced separation Rt[ri[p]] and acceleration At[p] (Rt the distinct
    separations, ri a list of indices into them, At an array).

    The imaginary-axis pieces depend on R only, so they are computed once per
    separation; the Bose real-axis piece and the pole ladder are each one
    batch over the index list of the pairs of their branch.
    """
    rts, ats = Rt.tolist(), At.tolist()
    pieces, e_pieces = _imag_axis_pieces(Rt, ra)
    imag, e_imag = pieces.tolist(), e_pieces.tolist()

    # the pairs of the Bose real-axis piece and of the pole ladder (every
    # other pair with a > 0); third[p] is the value and error of p's piece
    on_bose = [0.0 < at <= SWITCH_A and at * rts[i] <= SWITCH_AR for i, at in zip(ri, ats)]
    bose = [p for p, b in enumerate(on_bose) if b]
    ladder = [p for p, (b, at) in enumerate(zip(on_bose, ats)) if at > 0.0 and not b]
    third = [None] * len(ats)
    if bose:
        values = _bose_real_axis_integral(Rt[[ri[p] for p in bose]], At[bose], ra)
        for p, v, e in zip(bose, *(x.tolist() for x in values)):
            third[p] = (v, e)
    if ladder:
        il = [ri[p] for p in ladder]
        rl, al = Rt[il], At[ladder]
        values = _pole_ladder(rl, al, ra, pieces[0, il] / (al * rl) - al * rl * pieces[1, il])
        for p, v, e in zip(ladder, *(x.tolist() for x in values)):
            third[p] = (v, e)

    points = []
    for i, at, on_b, piece in zip(ri, ats, on_bose, third):
        rt = rts[i]
        try:
            norm = math.pi * rt * rt
            vac = -(imag[0][i] / rt**5) / norm
            e_vac = (e_imag[0][i] / rt**5) / norm
            warnings: list[str] = []
            if at == 0.0:
                nonth = e_nonth = res = e_res = 0.0
                vt = vac
            else:
                nonth = at * at / norm * (imag[1][i] / rt**3)
                e_nonth = at * at / norm * (e_imag[1][i] / rt**3)
                if on_b:
                    res, e_res = piece
                    vt = vac + nonth + res
                else:
                    s, e_s = piece
                    bracket = ((math.pi / 2.0) * _origin_coefficient(rt, at, ra)
                               + (at / 2.0) * s / rt**4)
                    vt = -2.0 / norm * bracket
                    e_res = 2.0 / norm * (at / 2.0) * e_s / rt**4
                    res = vt - vac - nonth
                    if at * rt < 1e-3:
                        warnings.append(
                            f"dense pole ladder: aR/c^2 = {at * rt:.3e} < 1e-3; "
                            "the low-acceleration closed forms are better cross-checks here")
            points.append((vt, vac, nonth, res, e_vac + e_nonth + e_res, warnings))
        except ArithmeticError:
            # a power of R beyond the range of doubles (R = 1e100 or
            # 1e-100 c/omega0, say): no value, which the gate fails
            points.append((math.nan, math.nan, math.nan, math.nan, math.inf, []))
    return points


def potential_grid(R, a, atom: AtomSpec, units: str = "natural"
                   ) -> list[list[PotentialResult | UnruhCPError]]:
    """Contour evaluation on the product grid of separations R and accelerations a.

    Returns one list per acceleration, in the order of a, each holding one
    entry per separation, in the order of R: the PotentialResult, or the
    RegimeError (spontaneously excited regime, a/(omega0 c) >= 10; use
    potential_high_acc) or NumericalFailure that point raises.  A point is a
    NumericalFailure, carrying the partial value and its error estimate,
    when that estimate exceeds 10 REL_TOL |V|; on the pole-ladder branch the
    estimate includes the ladder's: the tail of a direct sum or the nested
    rule of its Abel-Plana remainder.  A point on a dense ladder (aR/c^2
    < 1e-3) carries the "dense pole ladder" advisory.  A result in
    the marginal window 0.1 < a/(omega0 c) < 10 carries the "marginal
    validity window" warning first.  A separation that is not finite and
    > 0, or an acceleration that is not finite and >= 0, raises DomainError
    for the whole call.  A separation whose powers leave the range of
    doubles (R = 1e100 or 1e-100 c/omega0, say) gives NumericalFailure
    entries; no numpy warning escapes either grid.  Every
    entry equals what potential_numeric returns (or raises) for its point
    alone.
    """
    return _grid("contour", R, a, atom, units)


def _result(entry):
    """A potential_grid or _gate entry as it is; an error entry is raised."""
    if isinstance(entry, UnruhCPError):
        raise entry
    return entry


def potential_numeric(R: float, a: float, atom: AtomSpec,
                      units: str = "natural") -> PotentialResult:
    """Accelerated-pair potential by the contour decomposition.

    Value and the additive parts {vacuum, nonthermal_a2, residue_sum}.
    Raises RegimeError when the validity check reports the spontaneously
    excited regime (use potential_high_acc there).
    """
    return _result(potential_grid([R], [a], atom, units)[0][0])


# --------------------------------------------------------------------------
# oracle: undamped integral on an R-scaled deformed first-quadrant path
# --------------------------------------------------------------------------
# QUADPACK's qk21 rule (Piessens et al., 1983): the 21-node Kronrod extension
# of the 10-node Gauss-Legendre rule on [-1, 1], abscissae from the right end
# to the centre with their Kronrod weights; the second, fourth, ... tenth are
# the Gauss nodes, whose Gauss weights are _WG10
_XK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
         0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
         0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
         0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
         0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
         0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
         0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
         0.123491976262065851077208980173915, 0.134709217311473325928054001771707,
         0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
         0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)
# the pair on the unit panel, nodes ascending: the Gauss nodes are the odd ones
_K21_NODES, _K21_WEIGHTS, _G10_WEIGHTS = _frozen(
    0.5 * (1.0 + np.array([-x for x in _XK21] + list(_XK21[-2::-1]))),
    0.5 * np.array(_WK21 + _WK21[-2::-1]),
    0.5 * np.array(_WG10 + _WG10[::-1]))


def _occupation_pieces(k, at, inv):
    """Occupation pieces (vacuum, nonthermal_a2, bose), an array (3, len(k)), at
    real or complex nodes k with reduced accelerations at and inv = 2 pi/at
    (inf at a = 0, where the last two pieces are exact zeros)."""
    x2 = (at / k) ** 2
    return np.stack([np.full(k.shape, 0.5), 0.5 * x2, (1.0 + x2) * _bose(k * inv)])


def _path_integrals(lo, hi, pt, n: int, integrand):
    """Integrals of `integrand` over the panels [lo, hi] of one path part of
    n points; panel i belongs to point pt[i].

    integrand(x, p) takes the nodes x = lo + width node of every panel, node
    over the unit-panel G10K21 nodes, with their point index p (1-d arrays),
    and returns an array (integrals, len(x)).  Each panel is one fixed G10K21 pass: its value is its 21-node
    Kronrod sum, and its error estimate the difference from the embedded
    10-node Gauss sum.  Returns the values and error estimates (the summed
    panel estimates), arrays (integrals, n).  np.bincount sums each point's
    panels in order, so no point's results depend on another's.
    """
    # the (Kronrod, Gauss) sums of every panel, (2, integrals, panels), in
    # blocks of ORACLE_BLOCK panels, which bounds the temporary arrays
    out = []
    for i in range(0, len(lo), ORACLE_BLOCK):
        b_lo = lo[i:i + ORACLE_BLOCK]
        width = hi[i:i + ORACLE_BLOCK] - b_lo
        f = integrand((b_lo[:, None] + width[:, None] * _K21_NODES).ravel(),
                      np.repeat(pt[i:i + ORACLE_BLOCK], len(_K21_NODES)))
        f = f.reshape(len(f), len(b_lo), len(_K21_NODES))
        out.append(np.stack([(f * _K21_WEIGHTS).sum(axis=2),
                             (f[..., 1::2] * _G10_WEIGHTS).sum(axis=2)]) * width)
    kronrod, gauss = np.concatenate(out, axis=2)

    def per_point(x):
        # (integrals, panels) -> (integrals, n)
        idx = (np.arange(len(x))[:, None] * n + pt).ravel()
        return np.bincount(idx, weights=x.ravel(), minlength=len(x) * n).reshape(len(x), n)

    return per_point(kronrod), per_point(np.abs(kronrod - gauss))


def _oracle_panels(Rt: np.ndarray, at: np.ndarray, k0: np.ndarray, td: np.ndarray):
    """(lo, hi, point) arrays of every segment panel and of every ray panel,
    each point's panels in order, point after point, and each point's ray end.

    The segment, x = kR in [0, k0 R], is cut at a/2pi, a and 4a (times R),
    and each stretch between cuts is one panel: k0 R <= 1, so a stretch
    spans at most 2 radians of 2x.  The ray has edges at t_d 2^j, j from j0
    <= 0 up to ORACLE_RAY_DOUBLINGS: its first edge resolves the shortest
    scale at the ray's start, t_d, the distance to the lowest resonance
    (k = 1) and, where the Bose factor is not cut off on the ray, its decay
    length.
    """
    end = k0 * Rt
    cuts = np.stack([np.zeros_like(Rt), (at / (2.0 * math.pi)) * Rt, at * Rt,
                     (4.0 * at) * Rt, end], axis=1)
    # cuts below the smallest normal double would put nodes at k = 0
    keep = np.ones(cuts.shape, dtype=bool)
    keep[:, 1:4] = (cuts[:, 1:4] > np.finfo(float).tiny) & (cuts[:, 1:4] < end[:, None])
    owner, x = np.nonzero(keep)[0], cuts[keep]
    same = owner[1:] == owner[:-1]   # stretches between cuts of one point
    seg = (x[:-1][same], x[1:][same], owner[1:][same])

    scale = np.minimum(td, 1.0 - k0)
    scale = np.where(2.0 * math.pi * k0 <= EXP_OVERFLOW * at,
                     np.minimum(scale, at / (2.0 * math.pi)), scale)
    j0 = np.minimum(0, np.frexp(scale / td)[1] - 1)      # floor(log2(scale/td))
    p, j, _ = _ragged(ORACLE_RAY_DOUBLINGS + 1 - j0)
    r_hi = td[p] * 2.0 ** (j0[p] + j)
    r_lo = np.where(j == 0, 0.0, np.roll(r_hi, 1))
    return seg, (r_lo, r_hi, p), td * 2.0**ORACLE_RAY_DOUBLINGS


def _oracle_piece(Rt: np.ndarray, at: np.ndarray, ra: _ReducedAtom):
    """The undamped integrals of the three occupation pieces over the R-scaled
    path of each reduced point (Rt, at) of the arrays, on the oracle's rules
    (module docstring).  Returns values and error estimates, arrays
    (3, len(Rt)).

    Each integrand is evaluated as written at the nodes _path_integrals
    hands it: on the segment Im[e^{2ix} u_factor(x)] is osc_imag_part's, on
    the ray e^{2ikR} is taken at the node k itself, and alpha^2 is
    _alpha2_real0's on both.
    """
    n = len(Rt)
    inv = 2.0 * math.pi / at   # inf: no Bose piece at a = 0
    k0 = np.minimum(ORACLE_K0, 1.0 / Rt)

    def f_seg(x, p):
        # the segment in x = kR
        r = Rt[p]
        k = x / r
        k2 = k * k
        osc = k2 * k2 * osc_imag_part(x)
        return _occupation_pieces(k, at[p], inv[p]) * (osc * _alpha2_real0(k, ra) / r)

    eith = complex(math.cos(ORACLE_TILT), math.sin(ORACLE_TILT))

    def f_ray_complex(t, p):
        r = Rt[p]
        k = k0[p] + t * eith
        return _occupation_pieces(k, at[p], inv[p]) * (
            eith * (u_numerator(k * r) / r**4) * np.exp(2j * k * r) * _alpha2_real0(k, ra))

    td = 1.0 / (2.0 * Rt * math.sin(ORACLE_TILT))
    seg, ray, ray_end = _oracle_panels(Rt, at, k0, td)
    v_seg, e_seg = _path_integrals(*seg, n, f_seg)
    v_ray, e_ray = _path_integrals(*ray, n, lambda t, p: f_ray_complex(t, p).imag)
    e_ray = e_ray + td * np.abs(f_ray_complex(ray_end, np.arange(n)))

    scale = -2.0 / (math.pi * Rt * Rt)
    return scale * (v_seg + v_ray), np.abs(scale) * (e_seg + e_ray)


def _oracle_points(Rt: np.ndarray, ri: list[int], At: np.ndarray, ra: _ReducedAtom):
    """The oracle's route for _gate: _oracle_piece on the pairs (Rt[ri], At)."""
    values, errors = (arr.tolist() for arr in _oracle_piece(Rt[ri], At, ra))
    return [(vac + nonth + bose, vac, nonth, bose, e_vac + e_nonth + e_bose, ())
            for vac, nonth, bose, e_vac, e_nonth, e_bose in zip(*values, *errors)]


def potential_oracle_grid(R, a, atom: AtomSpec, units: str = "natural"
                          ) -> list[list[PotentialResult | UnruhCPError]]:
    """Oracle evaluation on the product grid of separations R and accelerations a.

    Same domain, layout, entries and acceptance gate as potential_grid
    (RegimeError, marginal-window warning, NumericalFailure when the error
    estimate, summed over the three occupation pieces, exceeds
    10 REL_TOL |V|).  Every entry equals what potential_oracle returns (or
    raises) for its point alone.
    """
    return _grid("oracle", R, a, atom, units)


def potential_oracle(R: float, a: float, atom: AtomSpec,
                     units: str = "natural") -> PotentialResult:
    """Independent evaluation of the accelerated-pair potential: the undamped
    deformed-path integral of the module docstring, on the domain of
    potential_numeric.

    The 1 x 1 call of potential_oracle_grid.  The error estimate is the sum
    of the quadrature error estimates of the three occupation pieces; the
    call raises NumericalFailure, carrying the partial value, when that sum
    exceeds 10 REL_TOL |V|.  Like potential_numeric it raises
    RegimeError in the spontaneously excited regime and warns in the
    marginal validity window.
    """
    return _result(potential_oracle_grid([R], [a], atom, units)[0][0])


__all__ = [
    "PotentialResult",
    "potential_grid",
    "potential_numeric",
    "potential_oracle",
    "potential_oracle_grid",
]
