"""The rejection-region kernel, `size_engine._t_region_tables`.

For fixed f, {t^2 > crit} is a quadratic condition in t_ar,

    h(t_ar) = t_ar^2 (1 - crit/f^2) + 2 crit rho t_ar / f - crit > 0,

so the kernel's (lo, hi) must be the roots of h: between them when
f^2 < crit (sign +1), outside them when f^2 > crit (sign -1), and sign 0
("never") where h has no real roots or t^2 is identically 0.
"""

import math

import numpy as np
from hypothesis import assume, given, strategies as st

from tfiv.size_engine import ConventionalT, _t_region_tables
from tfiv.statistics import t_squared_identity

finite_f = st.floats(-30.0, 30.0).filter(lambda v: abs(v) > 1e-3)
crits = st.floats(0.1, 30.0)
rhos = st.floats(-1.0, 1.0)


def _roots(f, crit, rho):
    sign, lo, hi = _t_region_tables(np.array([f]), np.array([crit]), rho)
    return float(sign[0]), float(lo[0]), float(hi[0])


def _rejects_on_rho1_line(crit, f0, zeta):
    """The kernel's verdict at rho = 1, where t_ar = f - f0 = zeta exactly."""
    sign, lo, hi = ConventionalT(crit=crit).regions(np.array([f0 + zeta]), 1.0)
    return bool((sign[0] < 0) + sign[0] * (lo[0] < zeta < hi[0]) > 0.5)


@given(finite_f, crits, rhos)
def test_boundary_roots_are_roots(f, crit, rho):
    assume(abs(f * f - crit) > 1e-4 * crit)
    assume(f * f - crit * (1 - rho * rho) > 1e-8)
    sign, lo, hi = _roots(f, crit, rho)
    assert sign == (1.0 if f * f < crit else -1.0)
    assert lo <= hi
    for r in (lo, hi):
        # the root satisfies t^2(r, f) = crit unless t is infinite there
        t2 = t_squared_identity(r, f, rho)
        assert math.isclose(t2, crit, rel_tol=1e-6, abs_tol=1e-9)


@given(finite_f, crits, rhos)
def test_boundary_roots_antisymmetric(f, crit, rho):
    assume(abs(f * f - crit) > 1e-4 * crit)
    assume(f * f - crit * (1 - rho * rho) > 1e-8)
    _, lo, hi = _roots(f, crit, rho)
    # (t_ar, f) -> (-t_ar, -f) preserves t^2 at the same rho ...
    _, m_lo, m_hi = _roots(-f, crit, rho)
    assert math.isclose(lo, -m_hi, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(hi, -m_lo, rel_tol=1e-9, abs_tol=1e-12)
    # ... and (t_ar, rho) -> (-t_ar, -rho) preserves it at the same f
    _, n_lo, n_hi = _roots(f, crit, -rho)
    assert math.isclose(lo, -n_hi, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(hi, -n_lo, rel_tol=1e-9, abs_tol=1e-12)


def test_boundary_roots_edge_cases():
    # The asymptote f^2 = crit, the band f^2 < crit (1 - rho^2) = 3 where h
    # has no real roots, f = 0, and an infinite cutoff all reject nowhere.
    for f, crit in ((2.0, 4.0), (1.0, 4.0), (0.0, 4.0), (1.0, math.inf)):
        assert _roots(f, crit, 0.5) == (0.0, 0.0, 0.0)


def test_boundary_roots_cancellation_guard():
    # Next to the asymptote f^2 = crit, f^2 - crit keeps few digits; the
    # stable root pair must still give finite roots that t^2 maps to crit.
    crit, rho = 4.0, 0.7
    f = math.sqrt(crit) * (1.0 + 1e-9)
    _, lo, hi = _roots(f, crit, rho)
    for r in (lo, hi):
        t2 = t_squared_identity(r, f, rho)
        assert math.isclose(t2, crit, rel_tol=1e-5)


def _near_asymptote(crit, log_rel, side, f_sign):
    """A node (f, crit) with |f^2 - crit| / crit = 10^log_rel, on either side."""
    return f_sign * math.sqrt(crit * (1.0 + side * 10.0**log_rel)), crit


signs = st.sampled_from([-1.0, 1.0])
nodes = st.one_of(
    st.tuples(finite_f, crits),
    st.builds(_near_asymptote, crits, st.floats(-9.0, -1.0), signs, signs),
)


@given(nodes, rhos)
def test_boundary_roots_backward_stable(node, rho):
    # Each returned edge is the exact root of a quadratic within a few eps of
    # h: |h(r)| over the sum of its terms' magnitudes, in long double, with
    # the leading coefficient taken as 1 + crit/f^2, before it cancels.
    f, crit = node
    sign, lo, hi = _roots(f, crit, rho)
    assume(sign != 0.0)
    f, crit, rho = (np.longdouble(v) for v in (f, crit, rho))
    for r in (np.longdouble(lo), np.longdouble(hi)):
        terms = (r * r * (1 - crit / (f * f)), 2 * crit * rho * r / f, -crit)
        size = r * r * (1 + crit / (f * f)) + abs(terms[1]) + crit
        assert abs(sum(terms)) <= 4 * np.finfo(float).eps * size


@given(st.floats(-20.0, 20.0), st.floats(0.05, 15.0))
def test_quartic_matches_identity_on_the_line(f, f0):
    # on the rho = 1 line t_ar = f - f0, and t^2 collapses to the quartic
    # f^2 (f - f0)^2 / f0^2 that the |rho| = 1 closed forms solve
    assume(abs(f) > 1e-6)
    t_ar = f - f0
    quartic = f * f * t_ar * t_ar / (f0 * f0)
    t2 = t_squared_identity(t_ar, f, 1.0)
    assert math.isclose(quartic, t2, rel_tol=1e-9, abs_tol=1e-12)


@given(st.floats(0.01, 40.0), crits)
def test_rho1_roots_partition(f0, crit):
    # Along the rho = 1 line the kernel accepts on one interval around
    # [-f0, 0]; the quartic's inner hump (at zeta = -f0 / 2, where it equals
    # f0^2 / 16) splits it exactly when f0 > 4 sqrt(crit).
    assume(abs(f0 - 4.0 * math.sqrt(crit)) > 1e-9 * max(1.0, f0))
    far = f0 + 2.0 * math.sqrt(crit) + 10.0
    got = [_rejects_on_rho1_line(crit, f0, z) for z in (-far, -f0, -f0 / 2, 0.0, far)]
    assert got == [True, False, f0 > 4.0 * math.sqrt(crit), False, True]


@given(st.floats(0.05, 40.0), crits, st.floats(-6.0, 6.0))
def test_rho1_roots_classify_rejection(f0, crit, zeta):
    """At rho = 1 the kernel rejects exactly where the quartic exceeds crit."""
    f = f0 + zeta
    assume(abs(f) > 1e-9)
    value = f * f * zeta * zeta / (f0 * f0)
    assume(abs(value - crit) > 1e-6 * crit)
    assert _rejects_on_rho1_line(crit, f0, zeta) == (value > crit)
