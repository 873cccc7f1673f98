"""Worst-case size over the nuisance space, and the solvers built on it.

The size surface p(rho, f0) of every t-based procedure is maximized on the
|rho| = 1 ridge (verified here by audit, not assumed), where the exact
closed forms of `size_engine` apply.  For the threshold procedure the ridge
has an interior stationary point at

    f0* = f_threshold / (sqrt(f_threshold) + sqrt(crit)),

at which the outer rejection root coincides exactly with the threshold gate
edge.  The threshold solver and the hybrid table read the ridge there from
the one |rho| = 1 kernel, `rejection_prob_rho1(rule, rule.f0_star)`.

As f0 grows past the gate the ridge tends to the strong-instrument limit
2 Phi(-sqrt(crit)), approached from below when crit < 4 and from above when
crit > 4; that sign is what decides whether a finite corrected threshold
exists at a given level, and it is why the 1% problem has no solution.

`worst_case_size` audits a (rho, f0) grid coarse to fine: first, by one
column in four, rows even in arcsin rho below the boundary layer, every 4th
row of the layer and the grid's last three rows; then the working pitch
only in the boxes around coarse cells whose claim (value plus midpoint
bound, the rho term taken in arcsin rho) comes within 1e-4 of the best
value.  The slope corner at f0* of a gated rule gets no audit of its own:
its pocket's columns, 0.0012 apart, are columns of the grid, refined where
their claims bind.  The grid ends at the rule's far edge f0_far, past which
the rule is the conventional t test at one cutoff c and its size is
bounded in closed form, P(chi2_1 > c) + A / f0^2 + B / f0^4 with A known
and |B| measured.  max_prob is the largest of the grid, the analytic
f0 -> infinity limit, and the exact ridge on a dense grid that holds the
analytic ridge peaks (f0* of a gated rule, 0 of the conventional rule, the
cap edge of the curve rule); the certified tolerance is the largest of the
parts it reports on `WorstCase`.
The threshold solver starts from the gate that brings the ridge at f0* to
alpha, the critical-value solver from q_{1-alpha}.  Both hand that start to
one lift (`_lift_ridge_root`), which answers the start itself when the exact
ridge supremum there is alpha up to rounding, 64 ulps of alpha (4.4e-16 at
5%), and otherwise raises the bracket fourfold up to the solver's cap and
solves the ridge supremum for alpha.  Every root is answered from the end of
its final bracket where the gap is at or below zero (`_root_below`), so the
answer lies on its valid side, and no solve reads its gap twice at one
point.  Then they run the full audit once on their answer, and accept it
only when the audit's max_prob is at most alpha up to the same rounding;
the audit's certified tolerance is reported on `WorstCase`, not added to
max_prob.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstructionError, DomainError, ToleranceUnmet
from .gaussian import Q95, chi2_quantile_1df, ndtr
from .size_engine import (
    _F_WINDOW,
    ConventionalT,
    HybridAR,
    Procedure,
    ThresholdTF,
    _require_procedure,
    rejection_prob_matrix,
    rejection_prob_profile,
    rejection_prob_rho1,
)

__all__ = [
    "WorstCase",
    "ValidityRegion",
    "HybridBoundRow",
    "worst_case_size",
    "solve_threshold_F",
    "solve_critical_value",
    "validity_region",
    "hybrid_nonexistence_certificate",
]

# Extra rho rows appended to the uniform audit grid: the surface has a
# boundary layer against |rho| = 1 (its curvature in rho grows like the
# inverse cube of the conditional width s), so the spacing must shrink
# geometrically there.  In phi = arcsin rho the surface is smooth there away
# from a few corners, so the claims take their rho term in phi and the
# coarse pass takes every _COARSE_STRIDE-th of these rows.
_RHO_LAYER = tuple(1.0 - g for g in np.geomspace(6e-3, 5e-5, 14))
# Certification never claims better than this floor.  The profile reports no
# error per f0; it was up to 4.7e-8 off `rejection_prob(tol=1e-10)` (the same
# pass, refined by its own |K15 - G7|) for the tF rule and 6.1e-8 for the
# conventional rule.  A measured error should replace it (ROADMAP.md, item 3).
_CERT_FLOOR = 1e-6
# A size counts as alpha when it tops alpha by at most this many ulps of
# alpha (4.4e-16 at 5%): rounding.  At crit = q_{1-alpha} the ridge limit
# 2 Phi(-sqrt(crit)) is alpha, and it reads up to 22 ulps above alpha over
# alpha = 4.56% to 25% by 1e-4, where crit < 4 (up to 86 below 4.56%, where
# crit > 4 and no gate exists).  `solve_threshold_F` answers None when that
# limit tops alpha by more.  Both solvers answer their start (the f0* gate,
# or q_{1-alpha}) when the ridge supremum there is within this rounding, and
# lift it otherwise, `solve_threshold_F` its gate ...
_ALPHA_ULPS = 64
# ... up to this gate, answering None when the ridge is still above alpha
# here.  The audit grid of a gate F reaches f0 = sqrt(F) + 8.5, 108.5 at the
# cap.
_RIDGE_F_CAP = 1e4
# The coarse audit pass keeps every _COARSE_STRIDE-th rho row of the boundary
# layer, the last three rows, and every _COARSE_STRIDE-th f0 column.  Below
# the layer its rows are even in phi = arcsin rho, at the widest phi gap
# among every _COARSE_STRIDE-th of those rows (0.127, at rho = 0.97).
_COARSE_STRIDE = 4
# Coarse cells whose claim exceeds the best value seen minus this margin are
# re-audited at the working pitch.  It is also the largest certificate
# `worst_case_size` accepts, so an unrefined cell can never bind it.
_REFINE_MARGIN = 1e-4
# Iteration cap of `_root_below`.
_ROOT_MAXITER = 100
# Past its far edge each rule is the conventional t test at one cutoff c,
# of size P(chi2_1 > c) + A / f0^2 + B / f0^4 + ..., with
# A = phi(sqrt c) c^{3/2} ((c - 3) rho^2 - 1) (Rothenberg, Handbook of
# Econometrics II, ch. 15, 1984).  B is measured, not derived:
# (p - limit - A / f0^2) f0^4, from `rejection_prob(tol=1e-11)`, was at most
# 13.24 in size over c = 0.1 to 40 by 0.1, rho in {0, 0.3, 0.5, 0.7, 0.8,
# 0.9, 0.97, 0.99, 0.999, 1} and f0 in {10, 12, 15, 25} (at c = 4.7,
# rho = 1, f0 = 10).  The remainder constant is twice that, so the far part
# of a certificate is an estimate ...
_FAR_K = 27.0
# ... and it holds from this f0 up only.
_FAR_F0_MIN = 10.0


@dataclass(frozen=True)
class WorstCase:
    """Supremum of the size surface with its (nonnegative-rho) argmax.

    arg_f0 = inf records a supremum approached as f0 -> infinity rather than
    attained; max_prob is then the analytic limit value.

    For rules audited on the grid, certified_tol is the largest of the
    certificate's parts, floored at 1e-6: grid_excess (the largest midpoint
    claim over the audited grid on [0, f0_far], minus max_prob),
    approach_violation (how far the last rows miss a monotone approach to
    |rho| = 1) and far_excess (the closed size bound over
    [f0_far, inf), minus max_prob; it rests on a measured remainder
    constant, so it is estimated, like the midpoint claims).  A negative
    excess clears max_prob by that much.  cells_refined counts the coarse
    grid cells re-audited at the working pitch.  The parts and f0_far are
    zero for rules audited in closed form.
    """

    max_prob: float
    arg_rho: float
    arg_f0: float
    certified_tol: float
    grid_excess: float = 0.0
    approach_violation: float = 0.0
    cells_refined: int = 0
    far_excess: float = 0.0
    f0_far: float = 0.0


@dataclass(frozen=True, eq=False)
class ValidityRegion:
    """Boolean size-validity of the conventional t test per (|rho|, E[F]) cell.

    ``grid[i, j]`` marks whether size <= alpha at rhos[i], efs[j]; negative
    rho mirrors the positive half exactly.  ``rho_bar`` is the largest rho
    whose entire E[F] range is valid and ``ef_bar`` the smallest E[F] valid
    for every rho (None when no such value exists in the grid span) — both
    grid values, so their resolution is the grid pitch.
    """

    alpha: float
    crit: float
    grid: np.ndarray
    rho_bar: float
    ef_bar: Optional[float]
    rhos: np.ndarray
    efs: np.ndarray


@dataclass(frozen=True)
class HybridBoundRow:
    """One row of the hybrid-procedure size bound table.

    ``bound`` is the exact |rho| = 1 size of the hybrid rule at f0*, from
    the |rho| = 1 kernel; ``exceeds`` records whether it tops
    alpha = 2 Phi(-sqrt(crit)), the rule's f0 -> infinity limit.
    """

    f_threshold: float
    f0_star: float
    bound: float
    alpha: float
    exceeds: bool


def _root_below(f, lo: float, hi: float, xtol: float, rtol: float) -> float:
    """Root of a decreasing f, answered from the end of its bracket where f <= 0.

    Regula falsi with the Anderson-Björck weight (Anderson & Björck, BIT
    13, 1973): f(lo) > 0 >= f(hi) holds throughout, and when one end moves
    twice in a row the value kept at the other end is scaled down, so both
    ends close in on the root.  A step bisects when the last eight left the
    bracket more than half as wide as before them, as on a steep power.
    Returns hi once hi - lo <= xtol + rtol |hi|, or at once any x where
    f(x) == 0.  Raises DomainError when the ends do not bracket a root that
    way or f gives NaN, and ToleranceUnmet when the bracket is still open
    after _ROOT_MAXITER steps.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"root finder: NaN function value at x={x!r}")
        return fx

    f_lo, f_hi = value(lo), value(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (lo < hi and f_lo > 0.0 > f_hi):
        raise DomainError(f"root finder: [{lo!r}, {hi!r}] needs f(lo) > 0 > f(hi)")
    w_lo, w_hi, last = f_lo, f_hi, 0  # weighted end values; +1 or -1: lo or hi moved last
    widths = [math.inf] * 8  # the bracket's width before each of the last eight steps
    for _ in range(_ROOT_MAXITER):
        width = hi - lo
        if width <= xtol + rtol * abs(hi):
            return hi
        stalled = 2.0 * width > widths.pop(0)
        widths.append(width)
        x = hi - w_hi * width / (w_hi - w_lo)
        if stalled or not lo < x < hi:  # or a weight underflowed, or x rounded to an end
            x = lo + width / 2
        fx = value(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            if last > 0:
                m = 1.0 - fx / f_lo
                w_hi *= m if m > 0.0 else 0.5
            lo, f_lo, w_lo, last = x, fx, fx, 1
        else:
            if last < 0:
                m = 1.0 - fx / f_hi
                w_lo *= m if m > 0.0 else 0.5
            hi, f_hi, w_hi, last = x, fx, fx, -1
    raise ToleranceUnmet(f"root finder: bracket still open after {_ROOT_MAXITER} steps")


def _midpoint_bound(mat: np.ndarray, x: np.ndarray, axis: int, open_end: bool) -> np.ndarray:
    """Per-cell estimate of off-grid excess along one (possibly uneven) axis.

    h^2/8 times a divided-difference curvature per interval; each cell
    inherits the worse of its two intervals.  The curvature is itself read
    off the grid values, so this is an estimate, not a bound.  The rho axis
    is measured in phi = arcsin rho.  With open_end the final interval
    contributes nothing — used for that axis, whose last stretch into
    |rho| = 1 is certified by the monotone approach check instead.
    """
    v = np.moveaxis(mat, axis, -1)
    h = np.diff(x)
    h0, h1 = h[:-1], h[1:]
    curv = 2.0 * (
        v[..., :-2] / (h0 * (h0 + h1))
        - v[..., 1:-1] / (h0 * h1)
        + v[..., 2:] / (h1 * (h0 + h1))
    )
    acurv = np.abs(curv)
    # Interval k sits between x[k] and x[k+1]; take the nearest estimates.
    per_interval = np.empty(v.shape[:-1] + (len(h),))
    per_interval[..., 1:-1] = np.maximum(acurv[..., :-1], acurv[..., 1:])
    per_interval[..., 0] = acurv[..., 0]
    per_interval[..., -1] = acurv[..., -1]
    per_interval *= h * h / 8.0
    if open_end:
        per_interval[..., -1] = 0.0
    out = np.empty_like(v)
    out[..., 1:-1] = np.maximum(per_interval[..., :-1], per_interval[..., 1:])
    out[..., 0] = per_interval[..., 0]
    out[..., -1] = per_interval[..., -1]
    return np.moveaxis(out, -1, axis)


def _final_approach_violation(mat: np.ndarray) -> float:
    """How badly the last rho rows fail to approach row |rho| = 1 monotonely.

    The surface behaves like p(1) - a s + O(s^2) in the conditional width
    s = sqrt(1 - rho^2); when the approach is one-signed and tightening, the
    un-bounded final interval cannot hide an interior excursion above the
    audited rows.  Returns the magnitude by which that pattern is violated.
    """
    d_near = mat[-1] - mat[-2]
    d_far = mat[-1] - mat[-3]
    opposite = d_near * d_far < -1e-18
    widening = np.abs(d_near) - np.abs(d_far)
    viol = np.where(opposite, np.abs(d_near), np.maximum(widening, 0.0))
    return max(0.0, float(np.max(viol)) - 1e-9)


def _claims(mat: np.ndarray, phis: np.ndarray, f0s: np.ndarray) -> np.ndarray:
    """Per-cell claims: value plus both axes' midpoint estimates, capped at 1.

    The rho axis is given in phi = arcsin(rho), and it is left open when it
    ends at phi = pi/2 (rho = 1).  The h^2/8 midpoint terms are estimates
    (see `_midpoint_bound`), so a claim is an estimated, not a proven, upper
    bound on the cell.
    """
    rho_term = _midpoint_bound(mat, phis, 0, open_end=phis[-1] == np.pi / 2)
    return np.minimum(mat + rho_term + _midpoint_bound(mat, f0s, 1, open_end=False), 1.0)


def _coarse_lines(n: int) -> np.ndarray:
    """Every _COARSE_STRIDE-th index of range(n), plus the last one."""
    return np.unique(np.append(np.arange(0, n, _COARSE_STRIDE), n - 1))


def _phi_even_lines(phis: np.ndarray) -> np.ndarray:
    """Indices of a rising phi axis, first to last, each the farthest within h of the one before.

    h is the widest gap among every _COARSE_STRIDE-th phi (the stride must
    land on the last), so no gap between the lines picked is wider than the
    widest of those.
    """
    h = float(np.diff(phis[::_COARSE_STRIDE]).max())
    lines = [0]
    while lines[-1] < phis.size - 1:
        lines.append(int(np.searchsorted(phis, phis[lines[-1]] + h, side="right")) - 1)
    return np.array(lines)


def _refine_span(lines: np.ndarray, k: int, n: int) -> tuple[int, int]:
    """Fine index range between coarse line k's neighbours, at least 3 wide.

    `_midpoint_bound` needs three points per axis; a span that ends on the
    grid's edge next to a one-step coarse gap is widened inward.
    """
    lo = int(lines[max(k - 1, 0)])
    hi = int(lines[min(k + 1, len(lines) - 1)])
    if hi - lo < 2:
        lo = max(0, hi - 2)
        hi = min(n - 1, lo + 2)
    return lo, hi


def _far_field(proc: Procedure, ref: float) -> tuple[float, float]:
    """(f0_far, bound): where the audit grid ends, and a size bound beyond it.

    With (x, c) = `proc.outer_cutoff`, from f0 = x + 8.5 on every f of the
    window is past the rule's last kink in F, so the rule is the
    conventional t test at c.  Its size there is at most limit + g(f0),
    g = A_max / f0^2 + _FAR_K / f0^4, where A_max = phi(sqrt c) c^{3/2}
    max(c - 4, -1) is the largest A over rho in [0, 1].  g falls while it is
    positive, so over [f0, inf) the bound is limit + max(0, g(f0)).  f0_far
    is the largest of x + 8.5, _FAR_F0_MIN and the smallest f0 <= 40 (40 if
    none) at which that bound is within _CERT_FLOOR of ``ref``, rounded up
    to 0.01.
    """
    x, c = proc.outer_cutoff
    limit = proc.tail_limit()
    a_max = math.exp(-0.5 * c) / math.sqrt(2.0 * math.pi) * c**1.5 * max(c - 4.0, -1.0)
    # g(f0) = t where v = 1 / f0^2 solves _FAR_K v^2 + A_max v = t.
    t = ref - limit + _CERT_FLOOR
    v = 2.0 * t / (a_max + math.sqrt(a_max * a_max + 4.0 * _FAR_K * t))
    f0_budget = min(40.0, math.ceil(100.0 / math.sqrt(v)) / 100.0)
    f0_far = max(x + _F_WINDOW, _FAR_F0_MIN, f0_budget)
    return f0_far, limit + max(0.0, a_max / f0_far**2 + _FAR_K / f0_far**4)


def worst_case_size(proc: Procedure) -> WorstCase:
    """Supremum of rejection probability over rho in [-1,1], f0 >= 0.

    The surface is symmetric under rho -> -rho, so the audit runs on
    rho in [0,1].  Its working grid has 149 rho rows (134 uniform interior
    rows, 14 rows resolving the boundary layer against rho = 1, and rho = 1
    itself) by f0 columns on [0, f0_far] (`_far_field`): 0.05 apart below
    8, 0.25 apart above, one at f0_far, and for a gated rule 0.04 apart
    around f0* and a whole number of 0.0012 steps from f0* in the pocket
    f0* +- 0.15, where the ridge peaks at a slope corner; no other column
    lies within 0.0012 of that pocket.  The grid is audited coarse to fine:
    first, by every 4th column plus the last, the interior rows from
    rho = 0 to 0.985 picked even in phi = arcsin rho (`_phi_even_lines`: 13
    rows, no phi gap wider than the widest among every 4th row), every 4th
    row of the boundary layer and the last three rows; then every coarse
    cell whose claim (value plus the h^2/8 midpoint estimates of
    `_midpoint_bound`, the rho term taken in phi = arcsin rho) comes within
    1e-4 of the best value seen so far is re-audited at the working pitch
    over the box between its neighbouring coarse lines.  The last three rows are audited at every
    column for the monotone approach check into |rho| = 1.  No profile
    below rho = 1 reaches past f0_far.
    max_prob is the largest of that grid, the f0 -> infinity limit
    (reported at rho = 1, f0 = inf), and the exact rho = 1 ridge on the
    rule's dense f0 grid (`ridge_f0_grid`, which holds f0* of a gated rule
    and the cap edge of the curve rule).  The certified tolerance is the
    largest of the grid excess (coarse claims of unrefined cells, fine
    claims of the refined boxes), the approach violation and the far excess
    (the closed bound over [f0_far, inf)), floored at _CERT_FLOOR;
    ToleranceUnmet is raised if it exceeds _REFINE_MARGIN (1e-4).  The
    claims rest on midpoint terms, which estimate the off-grid excess from
    divided differences and do not bound it, and the far bound on a
    remainder constant measured on a grid, so the certificate is an
    estimate too.
    """
    _require_procedure(proc)
    if proc.outer_cutoff is None:
        return WorstCase(max_prob=proc.tail_limit(), arg_rho=0.0, arg_f0=0.0, certified_tol=1e-13)

    # Exact ridge with analytic candidates; with the limit it sets the far edge.
    ridge_f0 = proc.ridge_f0_grid()
    ridge = rejection_prob_profile(proc, 1.0, ridge_f0)
    limit = proc.tail_limit()
    f0_far, far_bound = _far_field(proc, max(float(ridge.max()), limit))

    interior = np.linspace(0.0, 1.0, 135)[:-1]
    rhos = np.unique(np.concatenate([interior, _RHO_LAYER, [1.0]]))
    f0_blocks = [np.arange(0.0, 8.0, 0.05), np.arange(8.0, f0_far, 0.25), [f0_far]]
    star = proc.f0_star
    if star is not None:
        # Resolve the transition zone (gate edge / stationary point) finely.
        zone_hi = math.sqrt(proc.f_threshold) + 2.5
        if zone_hi > 8.0:
            f0_blocks.append(np.arange(max(0.0, star - 2.5), zone_hi, 0.04))
        # The ridge peaks at a slope corner (gate edge meets rejection root),
        # which the working pitch cannot bound.  The pocket f0* +- 0.15 takes
        # columns a whole number of 0.0012 steps from f0*, and no other
        # column within one step of it, so none lies a rounding error from
        # its neighbour.
        pocket = star + 0.0012 * np.arange(-125, 125)
        pocket = pocket[pocket >= 0.0]
        f0s = np.concatenate(f0_blocks)
        f0_blocks = [f0s[(f0s < pocket[0] - 0.0012) | (f0s > pocket[-1] + 0.0012)], pocket]
    f0s = np.unique(np.concatenate(f0_blocks))
    n_rho, n_f0 = rhos.size, f0s.size
    phis = np.arcsin(rhos)

    # Coarse pass.  `mat` holds the working grid's values where evaluated
    # and NaN elsewhere; the last three rows get every column at once.
    strided = _coarse_lines(n_rho - 3)
    top = int(strided[strided < interior.size][-1])
    rows_c = np.concatenate(
        [_phi_even_lines(phis[: top + 1]), strided[strided > top], np.arange(n_rho - 3, n_rho)]
    )
    cols_c = _coarse_lines(n_f0)
    mat = np.full((n_rho, n_f0), np.nan)
    mat[-3:] = rejection_prob_matrix(proc, rhos[-3:], f0s)
    head = rows_c[:-3]
    mat[np.ix_(head, cols_c)] = rejection_prob_matrix(proc, rhos[head], f0s[cols_c])

    claims_c = _claims(mat[np.ix_(rows_c, cols_c)], phis[rows_c], f0s[cols_c])

    # Refinement: a coarse cell whose claim comes within _REFINE_MARGIN of the
    # best value is re-audited at the working pitch over the box between its
    # neighbouring coarse lines; every other cell keeps its coarse claim.
    best_seen = max(float(np.nanmax(mat)), limit, float(ridge.max()))
    refined = claims_c > best_seen - _REFINE_MARGIN
    boxes = [
        _refine_span(rows_c, a, n_rho) + _refine_span(cols_c, b, n_f0)
        for a, b in np.argwhere(refined)
    ]
    todo = np.zeros(mat.shape, dtype=bool)
    for r0, r1, c0, c1 in boxes:
        todo[r0 : r1 + 1, c0 : c1 + 1] = True
    todo &= np.isnan(mat)
    for r in np.flatnonzero(todo.any(axis=1)):
        cols = np.flatnonzero(todo[r])
        mat[r, cols] = rejection_prob_profile(proc, float(rhos[r]), f0s[cols])
    fine_claims = np.zeros(mat.shape)
    for r0, r1, c0, c1 in boxes:
        box = np.s_[r0 : r1 + 1, c0 : c1 + 1]
        box_claims = _claims(mat[box], phis[r0 : r1 + 1], f0s[c0 : c1 + 1])
        fine_claims[box] = np.maximum(fine_claims[box], box_claims)

    i, j = np.unravel_index(int(np.nanargmax(mat)), mat.shape)
    best_prob, best_rho, best_f0 = float(mat[i, j]), float(rhos[i]), float(f0s[j])
    if limit > best_prob:
        # The limit ties across the rows; it is reported on the ridge.
        best_prob, best_rho, best_f0 = limit, 1.0, math.inf
    k = int(np.argmax(ridge))
    if float(ridge[k]) >= best_prob:
        best_prob, best_rho, best_f0 = float(ridge[k]), 1.0, float(ridge_f0[k])

    # Certification: the midpoint claims over the audited window, and the
    # closed bound beyond it.
    claims = [claims_c[~refined], fine_claims.ravel()]
    approach_viol = _final_approach_violation(mat)
    grid_excess = float(np.max(np.concatenate(claims))) - best_prob
    far_excess = far_bound - best_prob
    certified = max(_CERT_FLOOR, grid_excess, approach_viol, far_excess)
    if certified > _REFINE_MARGIN:
        raise ToleranceUnmet(
            f"worst-case certificate {certified:.2e} exceeds {_REFINE_MARGIN:.0e}"
        )
    return WorstCase(
        max_prob=best_prob,
        arg_rho=best_rho,
        arg_f0=best_f0,
        certified_tol=certified,
        grid_excess=grid_excess,
        approach_violation=approach_viol,
        cells_refined=int(refined.sum()),
        far_excess=far_excess,
        f0_far=f0_far,
    )


def _validate_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha!r}")


def _within_alpha(size: float, alpha: float) -> bool:
    """True when size is at most alpha, up to _ALPHA_ULPS ulps of rounding."""
    return size - alpha <= _ALPHA_ULPS * math.ulp(alpha)


def _ridge_sup(crit: float, f_threshold: float) -> float:
    """Supremum of the rho = 1 threshold-procedure size over all f0.

    The rule's own ridge grid, which holds the stationary point, plus the
    f0 -> infinity limit 2 Phi(-sqrt(crit)).
    """
    proc = ThresholdTF(crit=crit, f_threshold=f_threshold)
    vals = rejection_prob_profile(proc, 1.0, proc.ridge_f0_grid())
    return max(float(vals.max()), proc.tail_limit())


def _lift_ridge_root(
    ridge, alpha: float, lo: float, hi: float, cap: float, xtol: float, rtol: float
) -> Optional[float]:
    """The solvers' answer: lo, or the root of ridge(x) = alpha above it, up to cap.

    lo itself when ridge(lo) is alpha up to rounding (`_within_alpha`), the
    one floor test of both solvers.  Otherwise raises the bracket's upper end
    fourfold, clamped to cap and checked there, with the lower end following
    it, until ridge(hi) <= alpha; then `_root_below` answers from [lo, hi]
    where the gap ridge - alpha is at or below zero.  None when the ridge
    still tops alpha at cap.  The ridge is read once per point.
    """
    ridge = functools.cache(ridge)
    if _within_alpha(ridge(lo), alpha):
        return lo
    hi = min(hi, cap)
    while ridge(hi) > alpha:
        if hi >= cap:
            return None
        lo, hi = hi, min(4.0 * hi, cap)
    return _root_below(lambda x: ridge(x) - alpha, lo, hi, xtol=xtol, rtol=rtol)


def solve_threshold_F(crit: float, alpha: float) -> Optional[float]:
    """Smallest F threshold making the threshold procedure size-alpha.

    First `_root_below` finds the gate F at which the |rho| = 1 size at f0*
    (`rejection_prob_rho1` of ThresholdTF(crit, F) at its `f0_star`,
    strictly decreasing in F) is alpha, on the side where it is at most
    alpha; each end of its bracket is read once.  `_lift_ridge_root` keeps
    that gate when the exact ridge supremum there is alpha up to rounding
    (_ALPHA_ULPS ulps).  Otherwise an interior ridge hump lies past the gate
    (as at crit = 3.99, alpha = limit + 1e-4, or at crit >= 4, where the
    ridge nears its limit from above), and the lift raises the gate until
    the hump is at or below alpha.  The answer is returned when the max_prob
    of one worst_case_size audit is at most alpha up to rounding.
    None has three causes only: the ridge's f0 -> infinity limit
    2 Phi(-sqrt(crit)), which no gate lowers, tops alpha by more than
    rounding; no gate up to _RIDGE_F_CAP brings the ridge to alpha; or the
    audit fails.
    """
    if not (math.isfinite(crit) and crit > 0.0):
        raise DomainError(f"solve_threshold_F: crit > 0 required, got {crit!r}")
    _validate_alpha(alpha)
    # The threshold rule's limit, whatever its gate.
    if not _within_alpha(ConventionalT(crit).tail_limit(), alpha):
        return None

    @functools.cache
    def gap(f_threshold: float) -> float:
        proc = ThresholdTF(crit=crit, f_threshold=f_threshold)
        return rejection_prob_rho1(proc, proc.f0_star) - alpha

    lo, hi = 1.0, 1e6
    while gap(lo) < 0.0 and lo > 1e-9:
        lo /= 16.0
    while gap(hi) > 0.0 and hi < 1e12:
        hi *= 16.0
    if gap(lo) < 0.0 or gap(hi) > 0.0:
        return None
    f_star = _root_below(gap, lo, hi, xtol=1e-10, rtol=1e-14)
    f_star = _lift_ridge_root(
        lambda f_threshold: _ridge_sup(crit, f_threshold), alpha,
        f_star, 4.0 * f_star, _RIDGE_F_CAP, xtol=1e-9, rtol=1e-12,
    )
    if f_star is None:
        return None
    audit = worst_case_size(ThresholdTF(crit=crit, f_threshold=f_star))
    return f_star if _within_alpha(audit.max_prob, alpha) else None


def solve_critical_value(f_threshold: float, alpha: float) -> float:
    """Critical value making the threshold procedure worst-case size alpha.

    The binding constraint is the rho = 1 ridge: its interior maximum
    (at the stationary point f0*) for small thresholds, its f0 -> infinity
    limit 2 Phi(-sqrt(crit)) for large ones — which is why the answer floors
    at the chi-square quantile q_{1-alpha} once f_threshold is big enough and
    tends to it "from above" as the threshold grows.  `_lift_ridge_root`
    answers q_{1-alpha} itself when the ridge supremum there is alpha up to
    rounding (_ALPHA_ULPS ulps), whatever the gate.  Above the floor it
    solves the full ridge supremum for alpha from [q_{1-alpha}, 400],
    raising the upper end up to crit = 1e9, and answers from the side where
    the supremum is at most alpha.  The result is returned only when the
    max_prob of one worst_case_size audit is at most alpha up to the same
    rounding, and ConstructionError, with that max_prob, is raised
    otherwise.
    """
    if not (math.isfinite(f_threshold) and f_threshold > 0.0):
        raise DomainError(
            f"solve_critical_value: f_threshold > 0 required, got {f_threshold!r}"
        )
    _validate_alpha(alpha)
    # Even crit -> infinity cannot push the ridge maximum below this floor.
    floor = 2.0 * (1.0 - float(ndtr(math.sqrt(f_threshold))))
    if floor >= alpha:
        raise DomainError(
            f"solve_critical_value: level {alpha} unattainable at "
            f"f_threshold={f_threshold} (floor {floor:.6f})"
        )

    # The ridge limit 2 Phi(-sqrt(crit)) alone equals alpha at q_alpha, so
    # the supremum can never dip below alpha before that point.
    crit_star = _lift_ridge_root(
        lambda crit: _ridge_sup(crit, f_threshold), alpha,
        chi2_quantile_1df(1.0 - alpha), 400.0, 1e9, xtol=1e-12, rtol=1e-14,
    )
    if crit_star is None:
        raise DomainError("solve_critical_value: no critical value reaches the requested level")

    audit = worst_case_size(ThresholdTF(crit=crit_star, f_threshold=f_threshold))
    if not _within_alpha(audit.max_prob, alpha):
        raise ConstructionError(
            f"solved critical value fails global certification: "
            f"worst case {audit.max_prob!r} > alpha {alpha}"
        )
    return crit_star


def validity_region(crit: float, alpha: float) -> ValidityRegion:
    """Map where the conventional t test at crit has size <= alpha.

    Evaluates the size on a 201 x 201 grid of |rho| in [0, 1] by E[F] in
    [1, 400] (the rho = 1 column in closed form, the rest via the panel
    engine) and marks a cell valid when size <= alpha + 1e-9 (the engine
    is accurate to ~1e-10 there).  The extracted bounds are
    grid quantities: rho_bar is the largest grid rho whose whole column is
    valid (0.0 when no column is), ef_bar the smallest grid E[F] whose whole
    row is valid (None when every row has a violation).  Off-grid excursions
    between grid lines are not chased; the grid pitch is the advertised
    resolution of the map.
    """
    if not (math.isfinite(crit) and crit > 0.0):
        raise DomainError(f"validity_region: crit > 0 required, got {crit!r}")
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"validity_region: alpha in (0, 1) required, got {alpha!r}")
    rhos = np.linspace(0.0, 1.0, 201)
    efs = np.linspace(1.0, 400.0, 201)
    f0s = np.sqrt(efs - 1.0)
    proc = ConventionalT(crit=crit)

    mat = rejection_prob_matrix(proc, rhos, f0s)
    valid = mat <= alpha + 1e-9

    # rho_bar: largest grid rho whose whole column (all E[F]) is valid.
    col_ok = valid.all(axis=1)
    rho_bar = float(rhos[int(np.nonzero(col_ok)[0].max())]) if col_ok.any() else 0.0

    # ef_bar: smallest grid E[F] whose whole row (all rho) is valid.
    row_ok = valid.all(axis=0)
    if row_ok.any():
        j_first = int(np.nonzero(row_ok)[0].min())
        ef_bar: Optional[float] = float(efs[j_first])
        # Shading must be monotone above the bound: no unshaded holes.
        if not bool(valid[:, j_first:].all()):
            raise ConstructionError(
                "validity_region: unshaded hole above the extracted E[F] bound"
            )
    else:
        ef_bar = None

    return ValidityRegion(
        alpha=alpha, crit=crit, grid=valid, rho_bar=rho_bar, ef_bar=ef_bar,
        rhos=rhos, efs=efs,
    )


def hybrid_nonexistence_certificate(crit: float, f_grid) -> list[HybridBoundRow]:
    """Evidence that no finite threshold makes the hybrid rule size-alpha.

    For each threshold F in f_grid the returned bound is the exact
    |rho| = 1 size of the hybrid rule at its stationary point f0*, read from
    the |rho| = 1 kernel, and so a lower bound on its worst-case size.  From
    F = crit/2 up (where the AR window edge reaches -sqrt(crit)) it is
    1 - Phi(sqrt(F crit)/(sqrt(F) + sqrt(crit))) + Phi(-sqrt(crit)), which
    exceeds alpha = 2 Phi(-sqrt(crit)), the rule's f0 -> infinity limit,
    because the first argument stays below sqrt(crit); it tends to alpha as
    F -> infinity.  Below crit/2 `exceeds` reports the comparison.
    """
    if not (math.isfinite(crit) and abs(crit - Q95) < 2e-4):
        raise DomainError(
            "hybrid_nonexistence_certificate covers the two-sided 5% case; "
            f"crit must be approximately {Q95:.4f}, got {crit!r}"
        )
    try:
        grid = sorted(float(v) for v in f_grid)
    except (TypeError, ValueError):
        grid = []  # not an iterable of reals: refused below
    if not grid or any(not math.isfinite(v) or v <= 0.0 for v in grid):
        raise DomainError("f_grid must be a nonempty list of positive finite reals")

    alpha = ConventionalT(crit).tail_limit()
    rows = []
    for f_threshold in grid:
        proc = HybridAR(crit=crit, f_threshold=f_threshold)
        bound = rejection_prob_rho1(proc, proc.f0_star)
        rows.append(
            HybridBoundRow(
                f_threshold=f_threshold,
                f0_star=proc.f0_star,
                bound=bound,
                alpha=alpha,
                exceeds=bound > alpha,
            )
        )
    return rows
