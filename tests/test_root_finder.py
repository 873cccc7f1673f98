"""`worst_case._root_below` on its contract, with scipy's brentq as the oracle.

The solvers' root finder takes a decreasing f with f(lo) > 0 >= f(hi),
keeps that bracket, and answers from hi, where f <= 0: the valid side of
every solver's root.  Each root it returns must have f(root) <= 0 and lie
within two tolerances of scipy's root on the same bracket: on the tF
curve's knot brackets, on the solvers' own gaps, and on synthetic
functions of awkward shapes.  scipy.optimize is used here only as the
independent oracle; the package never imports it.  Bad brackets, NaN
values and the iteration cap raise DomainError or ToleranceUnmet, so the
CLI reports them as JSON errors.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from tfiv import worst_case
from tfiv.errors import DomainError, TfivError, ToleranceUnmet
from tfiv.gaussian import Q95, chi2_quantile_1df, ndtr
from tfiv.tf_critical import _SQRT_CRIT_CAP, default_knot_grid
from tfiv.worst_case import _ridge_sup, _root_below


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_below_and_near_scipy(f, lo, hi, xtol, rtol, root):
    """f(root) <= 0, and root within 2 (xtol + rtol |root|) of scipy's."""
    assert float(f(root)) <= 0.0
    theirs = brentq(lambda x: float(f(x)), lo, hi, xtol=xtol, rtol=rtol)
    assert abs(root - theirs) <= 2.0 * (xtol + rtol * abs(root))


@pytest.mark.parametrize("alpha", [0.05, 0.10, 0.01, 0.2])
def test_knot_brackets_end_below_scipy_roots(alpha, oracles):
    # Real brackets, over 100 a level: at each knot x of the curve's grid,
    # the constant critical value c that brings the threshold rule's ridge
    # at f0* (the referee's closed form local_max_size(x^2, c)) to alpha,
    # on every [q, cap^2] whose ends straddle it.
    q = chi2_quantile_1df(1.0 - alpha)
    cap_c = _SQRT_CRIT_CAP * _SQRT_CRIT_CAP
    solved = 0
    for x in default_knot_grid(alpha):
        f_threshold = float(x * x)

        def gap(c):
            return oracles.local_max_size(f_threshold, c) - alpha

        if gap(q) <= 0.0 or gap(cap_c) >= 0.0:
            continue
        root = _root_below(gap, q, cap_c, xtol=1e-10, rtol=1e-12)
        assert_below_and_near_scipy(gap, q, cap_c, 1e-10, 1e-12, root)
        solved += 1
    assert solved > 100


def test_solver_gaps_match_scipy(monkeypatch):
    # Every bracket the solvers hand to the root finder, at 5% and 10% and
    # at the crit = 3.99 hump, ends where the gap is at or below zero, near
    # scipy's root on the same gap.
    seen = []

    def checked(gap, lo, hi, xtol, rtol):
        seen.append((gap, lo, hi, xtol, rtol, _root_below(gap, lo, hi, xtol, rtol)))
        return seen[-1][-1]

    monkeypatch.setattr(worst_case, "_root_below", checked)
    assert worst_case.solve_threshold_F(1.96**2, 0.05) == 104.65067399395137
    assert worst_case.solve_threshold_F(Q95, 0.05) == 104.67075060130465
    assert worst_case.solve_critical_value(10.0, 0.05) == 11.750488605404048
    worst_case.solve_threshold_F(chi2_quantile_1df(0.90), 0.10)
    worst_case.solve_critical_value(10.0, 0.10)
    # At crit = 3.99 the f0* gate leaves a ridge hump above alpha, so the
    # ridge-supremum stage binds.
    alpha = 2.0 * float(ndtr(-math.sqrt(3.99))) + 1e-4
    assert worst_case.solve_threshold_F(3.99, alpha) == 156.5268968576286
    assert 117.13 < seen[-2][-1] < 117.14
    assert len(seen) == 7
    for gap, lo, hi, xtol, rtol, root in seen:
        assert_below_and_near_scipy(gap, lo, hi, xtol, rtol, root)


def test_ridge_gap_matches_scipy():
    # The ridge-supremum gap of solve_threshold_F's second stage, xtol and
    # rtol as there, at a level the ridge crosses inside the bracket.
    def ridge_gap(f_threshold):
        return _ridge_sup(3.9, f_threshold) - 0.06

    root = _root_below(ridge_gap, 1.0, 400.0, xtol=1e-9, rtol=1e-12)
    assert_below_and_near_scipy(ridge_gap, 1.0, 400.0, 1e-9, 1e-12, root)


def _neg_zero_at_half(x):
    return -(x - 0.5)


def _cubic(x):
    return 5.0 + 2.0 * x - x**3


def _step(x):
    return np.where(x < 0.3, 1.0, -1.0)


# (function, lo, hi, xtol, rtol): each decreasing through its bracket, with
# an exact zero at an end or an iterate, a step, a kink, a steep power, a
# root at zero, a coarse xtol, or values near underflow.  The ids name the
# branch of Brent's method that each shape drives in scipy.
SYNTHETIC = {
    "zero-at-a": (lambda x: 1.0 - x, 1.0, 3.0, 2e-12, 4 * np.finfo(float).eps),
    "zero-at-b": (lambda x: 3.0 - x, 1.0, 3.0, 2e-12, 4 * np.finfo(float).eps),
    "zero-at-both": (lambda x: x * (x - 1.0), 0.0, 1.0, 2e-12, 1e-12),
    "neg-zero-at-a": (_neg_zero_at_half, 0.5, 2.0, 2e-12, 1e-12),
    "neg-zero-iterate": (_neg_zero_at_half, 0.0, 1.0, 2e-12, 1e-12),
    "secant": (lambda x: 0.7 - 2.0 * x, 0.0, 1.0, 1e-12, 1e-14),
    "inverse-quadratic": (_cubic, 2.0, 3.0, 1e-12, 1e-14),
    "bisection-step": (_step, 0.0, 1.0, 1e-12, 1e-14),
    "rejected-steps": (lambda x: 0.5 - x**19, 0.0, 2.0, 1e-12, 1e-14),
    "kink": (lambda x: -np.cbrt(x - 0.123456789), -1.0, 3.0, 1e-10, 1e-13),
    "decreasing": (lambda x: np.exp(-x) - 0.25, 0.0, 4.0, 1e-12, 1e-14),
    "root-at-zero": (lambda x: -np.sinh(x), -0.7, 0.2, 1e-15, 1e-14),
    "coarse-xtol": (lambda x: 0.3 - ((0.7 * x + 0.6) * x + 0.5) * x, -2.0, 2.0, 0.2, 1e-14),
    # Values near 1e-300, which fall to subnormals near the root.
    "underflow": (lambda x: _cubic(x) * 1e-300, 2.0, 3.0, 1e-12, 1e-14),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
def test_synthetic_branches_match_scipy(case):
    f, lo, hi, xtol, rtol = SYNTHETIC[case]
    root = _root_below(f, lo, hi, xtol, rtol)
    assert_below_and_near_scipy(f, lo, hi, xtol, rtol, root)


def test_exact_zero_ends_keep_their_sign():
    assert same_bits(_root_below(lambda x: x * 0.0, -0.0, 1.0, 1e-12, 1e-14), -0.0)
    assert same_bits(_root_below(lambda x: x * 0.0, 0.0, -1.0, 1e-12, 1e-14), 0.0)


def nan_inside(x):
    return np.where(np.abs(x - 0.5) < 0.1, np.nan, 0.45 - x)


@pytest.mark.parametrize(
    "f, lo, hi, xtol, error",
    [
        (lambda x: x + 1.0, 0.0, 1.0, 1e-12, DomainError),
        (lambda x: x - 0.5, 0.0, 1.0, 1e-12, DomainError),
        (lambda x: 0.5 - x, 1.0, 0.0, 1e-12, DomainError),
        (lambda x: x * 0.0 + np.nan, 0.0, 1.0, 1e-12, DomainError),
        (lambda x: np.where(x > 0.9, np.nan, 0.45 - x), 0.0, 1.0, 1e-12, DomainError),
        (nan_inside, 0.0, 1.0, 1e-12, DomainError),
        # With no tolerance, a bracket of adjacent floats never closes.
        (_step, 0.0, 1.0, 0.0, ToleranceUnmet),
    ],
    ids=["same-sign", "increasing", "reversed-ends", "nan-at-a", "nan-at-b", "nan-iterate",
         "iteration-cap"],
)
def test_failures_are_tfiv_errors(f, lo, hi, xtol, error):
    with pytest.raises(error) as exc:
        _root_below(f, lo, hi, xtol, 0.0)
    assert isinstance(exc.value, TfivError)
