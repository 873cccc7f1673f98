"""`worst_case._brentq` against scipy's brentq, bit for bit.

The package's root finder ports scipy's ``brentq.c`` step for step, so
every root it returns must equal scipy's to the last bit: on the tF
curve's knot brackets, on the solvers' own gaps, and on synthetic
functions that drive each branch of the method.  scipy.optimize is used
here only as the independent oracle; the package never imports it.  Where
scipy raises a bare ValueError or RuntimeError the port raises DomainError
or ToleranceUnmet, so the CLI reports them as JSON errors.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from tfiv import worst_case
from tfiv.errors import DomainError, TfivError, ToleranceUnmet
from tfiv.gaussian import Q95, chi2_quantile_1df, ndtr
from tfiv.tf_critical import _SQRT_CRIT_CAP, default_knot_grid
from tfiv.worst_case import _brentq, _ridge_sup


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alpha", [0.05, 0.10, 0.01, 0.2])
def test_initial_curve_matches_scalar_scipy_solves(alpha, oracles):
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
        ours = _brentq(gap, q, cap_c, xtol=1e-10, rtol=1e-12)
        assert same_bits(ours, brentq(gap, q, cap_c, xtol=1e-10, rtol=1e-12))
        solved += 1
    assert solved > 100


def test_solver_gaps_match_scipy(monkeypatch):
    # Every bracket the solvers hand to the root finder, at 5% and 10%, is
    # solved again by scipy on the same gap.
    seen = []
    root_finder = worst_case._brentq

    def checked(gap, lo, hi, xtol, rtol):
        root = root_finder(gap, lo, hi, xtol, rtol)
        seen.append((root, brentq(gap, lo, hi, xtol=xtol, rtol=rtol)))
        return root

    monkeypatch.setattr(worst_case, "_brentq", checked)
    assert worst_case.solve_threshold_F(1.96**2, 0.05) == 104.65067399395053
    assert worst_case.solve_threshold_F(Q95, 0.05) == 104.67075060130588
    assert worst_case.solve_critical_value(10.0, 0.05) == 11.750488605404117
    worst_case.solve_threshold_F(chi2_quantile_1df(0.90), 0.10)
    worst_case.solve_critical_value(10.0, 0.10)
    # At crit = 3.99 the f0* gate 117.1378908471251 leaves a ridge
    # hump above alpha, so the ridge-supremum stage binds.
    alpha = 2.0 * float(ndtr(-math.sqrt(3.99))) + 1e-4
    assert worst_case.solve_threshold_F(3.99, alpha) == 156.52689685762732
    assert seen[-2][0] == 117.1378908471251
    assert len(seen) == 7
    assert all(same_bits(ours, theirs) for ours, theirs in seen)


def test_ridge_gap_matches_scipy():
    # The ridge-supremum gap of solve_threshold_F's second stage, xtol and
    # rtol as there, at a level the ridge crosses inside the bracket.
    def ridge_gap(f_threshold):
        return _ridge_sup(3.9, f_threshold) - 0.06

    ours = _brentq(ridge_gap, 1.0, 400.0, xtol=1e-9, rtol=1e-12)
    assert same_bits(ours, brentq(ridge_gap, 1.0, 400.0, xtol=1e-9, rtol=1e-12))


def _neg_zero_at_half(x):
    return -(x - 0.5)


# (function, a, b, xtol, rtol): each drives a different path through the
# method.
SYNTHETIC = {
    "zero-at-a": (lambda x: x - 1.0, 1.0, 3.0, 2e-12, 4 * np.finfo(float).eps),
    "zero-at-b": (lambda x: x - 3.0, 1.0, 3.0, 2e-12, 4 * np.finfo(float).eps),
    "zero-at-both": (lambda x: x * (x - 1.0), 0.0, 1.0, 2e-12, 1e-12),
    "neg-zero-at-a": (_neg_zero_at_half, 0.5, 2.0, 2e-12, 1e-12),
    "neg-zero-iterate": (_neg_zero_at_half, 0.0, 1.0, 2e-12, 1e-12),
    "secant": (lambda x: 2.0 * x - 0.7, 0.0, 1.0, 1e-12, 1e-14),
    "inverse-quadratic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12, 1e-14),
    "bisection-step": (lambda x: np.where(x < 0.3, -1.0, 1.0), 0.0, 1.0, 1e-12, 1e-14),
    "rejected-steps": (lambda x: x**19 - 0.5, 0.0, 2.0, 1e-12, 1e-14),
    "kink": (lambda x: np.cbrt(x - 0.123456789), -1.0, 3.0, 1e-10, 1e-13),
    "decreasing": (lambda x: np.exp(-x) - 0.25, 4.0, 0.0, 1e-12, 1e-14),
    "root-at-zero": (lambda x: np.sinh(x), -0.7, 0.2, 1e-15, 1e-14),
    # A coarse xtol makes delta large next to the bracket; here the step
    # test's "3 |sbis| - delta" bound turns an extrapolation into a bisection.
    "coarse-xtol": (lambda x: ((0.7 * x + 0.6) * x + 0.5) * x - 0.3, -2.0, 2.0, 0.2, 1e-14),
    # Values near 1e-300 make the inverse-quadratic denominator underflow to
    # zero: C's step is then NaN and it bisects, and so must the port.
    "underflow": (lambda x: (x**3 - 2.0 * x - 5.0) * 1e-300, 2.0, 3.0, 1e-12, 1e-14),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
def test_synthetic_branches_match_scipy(case):
    f, a, b, xtol, rtol = SYNTHETIC[case]
    ours = _brentq(f, a, b, xtol, rtol)
    theirs = brentq(lambda x: float(f(x)), a, b, xtol=xtol, rtol=rtol)
    assert same_bits(ours, theirs)


def test_exact_zero_ends_keep_their_sign():
    assert same_bits(_brentq(lambda x: x * 0.0, -0.0, 1.0, 1e-12, 1e-14), -0.0)
    assert same_bits(_brentq(lambda x: x * 0.0, 0.0, -1.0, 1e-12, 1e-14), 0.0)


def nan_inside(x):
    return np.where(np.abs(x - 0.5) < 0.1, np.nan, x - 0.45)


@pytest.mark.parametrize(
    "f, a, b, scipy_error, error",
    [
        (lambda x: x + 1.0, 0.0, 1.0, ValueError, DomainError),
        (lambda x: x * 0.0 + np.nan, 0.0, 1.0, ValueError, DomainError),
        (lambda x: np.where(x > 0.9, np.nan, x - 0.45), 0.0, 1.0, ValueError, DomainError),
        (nan_inside, 0.0, 1.0, ValueError, DomainError),
        (lambda x: np.where(x < 0.3, -1.0, 1.0), -1e300, 1e300, RuntimeError, ToleranceUnmet),
    ],
    ids=["same-sign", "nan-at-a", "nan-at-b", "nan-iterate", "iteration-cap"],
)
def test_failures_are_tfiv_errors(f, a, b, scipy_error, error):
    with pytest.raises(scipy_error):
        brentq(lambda x: float(f(x)), a, b, xtol=1e-12, rtol=1e-14)
    with pytest.raises(error) as exc:
        _brentq(f, a, b, 1e-12, 1e-14)
    assert isinstance(exc.value, TfivError)
