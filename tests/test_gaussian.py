import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from tfiv.errors import DomainError
from tfiv.gaussian import Q95, chi2_quantile_1df, ndtr, ndtri
from tfiv.size_engine import _weighted_rejection


def test_cdf_anchors():
    assert ndtr(0.0) == 0.5
    assert math.isclose(ndtr(1.959963984540054), 0.975, rel_tol=1e-12)
    assert ndtr(-40.0) == 0.0


@given(st.floats(-6.0, 6.0))
def test_quantile_inverts_cdf(x):
    # conditioning at p near 1 costs ~1/phi(x) ulps, hence the loose abs_tol
    assert math.isclose(ndtri(ndtr(x)), x, abs_tol=1e-6)


@given(st.floats(-30.0, 30.0))
def test_cdf_complement(x):
    assert math.isclose(ndtr(x) + ndtr(-x), 1.0, abs_tol=1e-15)


def test_quantile_domain():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    # the package's quantile entry point refuses probabilities outside (0, 1)
    for p in (-0.1, 1.1, float("nan"), 0.0, 1.0):
        with pytest.raises(DomainError):
            chi2_quantile_1df(p)


def test_stored_q95_is_the_ndtri_quantile():
    # Q95 stands in for ndtri(0.975)**2 without loading scipy.special; it
    # must be that value to the last bit, or every tF knot would move.
    assert Q95 == float(ndtri(0.975)) ** 2
    assert chi2_quantile_1df(0.95) == Q95
    assert chi2_quantile_1df(1.0 - 0.05) == Q95


def test_pdf_matches_formula():
    # The density the integrators weight by: phi(d) inside the window, with
    # tables that reject every t_ar (outside an empty band).
    xs = np.linspace(-5, 5, 11)
    expect = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
    got = _weighted_rejection((-1.0, 0.0, 0.0), xs, 0.5, math.sqrt(0.75))
    assert np.allclose(got, expect, rtol=1e-14)


@given(st.floats(0.5, 0.999))
def test_chi2_quantile_matches_normal_square(p):
    z = ndtri(0.5 + p / 2)
    assert math.isclose(chi2_quantile_1df(p), z * z, rel_tol=1e-12)


def test_chi2_quantile_against_scipy():
    for p in (0.90, 0.95, 0.99):
        assert math.isclose(chi2_quantile_1df(p), stats.chi2.ppf(p, 1), rel_tol=1e-12)
