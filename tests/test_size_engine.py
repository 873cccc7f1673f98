import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr

from tfiv.errors import DomainError
from tfiv.gaussian import chi2_quantile_1df
from tfiv.size_engine import (
    ConventionalT,
    HybridAR,
    NuisancePoint,
    PureAR,
    ThresholdTF,
    TFProcedure,
    _BLOCK,
    _F0_MAX,
    _F_WINDOW,
    _GK_WK,
    _GK_X,
    _GRADED_OFFSETS,
    _cvf_crossing,
    _profile_panels,
    _rho1_masses,
    _saturation_hulls,
    _weighted_rejection,
    rejection_prob,
    rejection_prob_matrix,
    rejection_prob_profile,
    rejection_prob_rho1,
)
from tfiv.statistics import t_squared_identity
from tfiv.tf_critical import CriticalValueFunction, build_cvf
from tfiv.worst_case import worst_case_size

Q95 = 3.8414588206941254
SQRT_Q95 = 1.959963984540054
Q99 = chi2_quantile_1df(0.99)


def test_nuisance_point_validation():
    p = NuisancePoint(rho=0.5, f0=2.0)
    assert p.ef == 5.0
    with pytest.raises(DomainError):
        NuisancePoint(rho=1.0001, f0=1.0)
    with pytest.raises(DomainError):
        NuisancePoint(rho=0.0, f0=-0.1)
    with pytest.raises(DomainError):
        NuisancePoint(rho=math.nan, f0=1.0)


def test_procedure_validation():
    # The checks live in a shared base; each message names the concrete class.
    for make, name in (
        (lambda: ConventionalT(crit=0.0), "ConventionalT.crit"),
        (lambda: ThresholdTF(crit=Q95, f_threshold=-1.0), "ThresholdTF.f_threshold"),
        (lambda: ThresholdTF(Q95, 0.0), "ThresholdTF.f_threshold"),
        (lambda: HybridAR(math.nan, 10.0), "HybridAR.crit"),
        (lambda: HybridAR(Q95, math.inf), "HybridAR.f_threshold"),
        (lambda: PureAR(crit=math.inf), "PureAR.crit"),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            make()

    class NotACurve:
        pass

    with pytest.raises(DomainError):
        TFProcedure(cvf=NotACurve())


def test_constant_rules_stay_distinct_siblings():
    conv, ar = ConventionalT(Q95), PureAR(Q95)
    assert conv != ar
    assert len({conv: "t", ar: "ar"}) == 2
    assert ThresholdTF(Q95, 10.0) != HybridAR(Q95, 10.0)
    assert ThresholdTF(1.0, 10.0) == ThresholdTF(crit=1.0, f_threshold=10.0)
    assert repr(ThresholdTF(1.0, 10.0)) == "ThresholdTF(crit=1.0, f_threshold=10.0)"
    assert repr(HybridAR(Q95, 10.0)) == f"HybridAR(crit={Q95!r}, f_threshold=10.0)"
    assert repr(conv) == f"ConventionalT(crit={Q95!r})"
    assert repr(ar) == f"PureAR(crit={Q95!r})"
    with pytest.raises(TypeError):
        ThresholdTF(Q95)  # the gate has no default
    # mc_oracle dispatches on isinstance, so no rule may pass for another.
    rules = (ConventionalT, ThresholdTF, HybridAR, PureAR)
    instances = (conv, ThresholdTF(Q95, 10.0), HybridAR(Q95, 10.0), ar)
    for cls in rules:
        assert [isinstance(p, cls) for p in instances] == [r is cls for r in rules]


def test_non_procedures_raise_domain_error():
    for call in (
        lambda: rejection_prob("t", NuisancePoint(rho=0.5, f0=1.0)),
        lambda: rejection_prob("t", NuisancePoint(rho=1.0, f0=1.0)),
        lambda: rejection_prob_profile(None, 0.5, [1.0]),
        lambda: rejection_prob_rho1(object(), 1.0),
    ):
        with pytest.raises(DomainError):
            call()


@given(st.floats(-1.0, 1.0), st.floats(0.0, 12.0), st.floats(1.0, 12.0))
@settings(max_examples=25, deadline=None)
def test_pure_ar_size_is_flat(rho, f0, crit):
    # The AR event ignores the nuisance point entirely.
    expected = 2.0 * ndtr(-math.sqrt(crit))
    res = rejection_prob(PureAR(crit=crit), NuisancePoint(rho=rho, f0=f0))
    assert math.isclose(res.prob, expected, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize(
    "rho,f0",
    [(0.3, 1.0), (0.8, 3.0), (-0.6, 0.5), (0.95, 7.0)],
)
def test_mirror_symmetry_in_rho(rho, f0):
    for proc in (ConventionalT(crit=Q95), ThresholdTF(crit=Q95, f_threshold=10.0)):
        a = rejection_prob(proc, NuisancePoint(rho=rho, f0=f0)).prob
        b = rejection_prob(proc, NuisancePoint(rho=-rho, f0=f0)).prob
        assert math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-10)


@pytest.mark.parametrize(
    "rho,f0",
    [(0.0, 1.0), (0.5, 2.0), (0.9, 4.0), (-0.7, 1.5), (1.0, 3.0)],
)
def test_hybrid_dominates_threshold(rho, f0):
    # The hybrid rejects everywhere the screened test does, plus the AR
    # region below the gate, so its rejection probability can never be lower.
    thr = ThresholdTF(crit=Q95, f_threshold=10.0)
    hyb = HybridAR(crit=Q95, f_threshold=10.0)
    point = NuisancePoint(rho=rho, f0=f0)
    p_thr = rejection_prob(thr, point).prob
    p_hyb = rejection_prob(hyb, point).prob
    assert p_hyb >= p_thr - 1e-10


def test_threshold_ridge_anchor():
    # Interior-maximizing f0 for the F > 10 screen at the 1.96^2 critical
    # value sits at F_bar / (sqrt(F_bar) + sqrt(crit)).
    f0_star = 10.0 / (math.sqrt(10.0) + SQRT_Q95)
    p = rejection_prob_rho1(ThresholdTF(crit=Q95, f_threshold=10.0), f0_star)
    assert math.isclose(p, 0.11313818286955638, rel_tol=1e-9)


def _hybrid_extra_term(f_threshold: float, crit: float, f0: float) -> float:
    """Mass the hybrid rule adds below the F threshold at |rho| = 1, valid for
    f_threshold >= crit / 2: Phi(-sqrt(crit)) - Phi(-sqrt(f_threshold) - f0),
    floored at zero."""
    return max(0.0, float(ndtr(-math.sqrt(crit)) - ndtr(-math.sqrt(f_threshold) - f0)))


def test_hybrid_extra_term_anchor():
    # At f0* the mass the hybrid rule adds below the gate, read off the
    # production rho = 1 profiles as hybrid minus screened test, is the anchor.
    f0_star = 10.0 / (math.sqrt(10.0) + SQRT_Q95)
    hybrid = HybridAR(crit=Q95, f_threshold=10.0)
    assert hybrid.f0_star == f0_star
    assert math.isclose(_hybrid_extra_term(10.0, Q95, f0_star), 0.02499984275337247, rel_tol=1e-9)
    extra = rejection_prob_rho1(hybrid, f0_star) - rejection_prob_rho1(
        ThresholdTF(crit=Q95, f_threshold=10.0), f0_star
    )
    assert math.isclose(extra, 0.02499984275337247, rel_tol=1e-9)
    with pytest.raises(DomainError):
        HybridAR(crit=Q95, f_threshold=0.0)  # no gate to screen below
    with pytest.raises(DomainError):
        rejection_prob_rho1(hybrid, -1.0)


def test_hybrid_decomposition():
    # hybrid = screened test + AR-below-gate extra term, at rho = 1 where the
    # extra term has its closed form.
    f0_star = 10.0 / (math.sqrt(10.0) + SQRT_Q95)
    for f0 in (1.3, f0_star):
        base = rejection_prob_rho1(ThresholdTF(crit=Q95, f_threshold=10.0), f0)
        extra = _hybrid_extra_term(10.0, Q95, f0)
        total = rejection_prob_rho1(HybridAR(crit=Q95, f_threshold=10.0), f0)
        assert math.isclose(total, base + extra, rel_tol=1e-9, abs_tol=1e-12)


def test_tf_procedure_quadrature_spots(cvf):
    proc = TFProcedure(cvf=cvf)
    spots = {
        (0.5, 3.0): 0.009455,
        (-0.7, 1.0): 0.004670,
        (0.0, 10.0): 0.043045,
        (0.95, 8.59): 0.048126,
    }
    for (rho, f0), expected in spots.items():
        res = rejection_prob(proc, NuisancePoint(rho=rho, f0=f0))
        assert math.isclose(res.prob, expected, abs_tol=2e-6)
        assert res.abs_err <= 1e-6


def test_tf_procedure_never_exceeds_level_on_ridge(cvf):
    proc = TFProcedure(cvf=cvf)
    for f0 in (0.5, 1.0, 2.0, 5.0, 9.0):
        assert rejection_prob_rho1(proc, f0) <= 0.05 + 1e-7


def test_profile_matches_pointwise(monkeypatch):
    proc = ThresholdTF(crit=Q95, f_threshold=10.0)
    # f0 values out of order, spanning more than two integration windows and
    # filling more than one kernel block, so the blocks must sum back into
    # the caller's order.
    spread = np.random.default_rng(11).permutation(np.linspace(0.0, 30.0, 200))
    f0s = np.concatenate([[0.5, 1.0, 2.0, 4.0], spread])
    assert np.ptp(f0s) > 2.0 * _F_WINDOW
    seen = _dense_pairs(monkeypatch)
    prof = rejection_prob_profile(proc, 0.7, f0s)
    assert seen.calls >= 2 and seen.pairs > _BLOCK
    assert prof.shape == f0s.shape
    for i, f0 in enumerate(f0s):
        direct = rejection_prob(proc, NuisancePoint(rho=0.7, f0=float(f0))).prob
        assert math.isclose(prof[i], direct, rel_tol=1e-8, abs_tol=1e-10)


def test_matrix_shape_and_content():
    proc = ConventionalT(crit=Q95)
    rhos = np.array([-1.0, 0.0, 1.0])
    f0s = np.array([0.5, 2.0])
    m = rejection_prob_matrix(proc, rhos, f0s)
    assert m.shape == (3, 2)
    assert np.all((m >= 0.0) & (m <= 1.0))
    # rho rows are mirror images for the conventional test
    assert np.allclose(m[0], m[2], rtol=1e-8, atol=1e-10)
    # An n-D f0s keeps its shape behind the rho axis.
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    m2 = rejection_prob_matrix(proc, rhos[:2], grid)
    assert m2.shape == (2, 2, 2)
    for r, rho in enumerate(rhos[:2]):
        np.testing.assert_array_equal(m2[r], rejection_prob_profile(proc, rho, grid))
    # No rho gives no rows, of the same shape behind the rho axis.
    assert rejection_prob_matrix(proc, [], f0s).shape == (0, 2)
    assert rejection_prob_matrix(proc, [], grid).shape == (0, 2, 2)


def test_rejection_prob_rho1_rejects_bad_f0():
    with pytest.raises(DomainError):
        rejection_prob_rho1(PureAR(crit=Q95), -1.0)
    with pytest.raises(DomainError):
        rejection_prob_rho1(PureAR(crit=Q95), math.inf)


def test_evaluators_refuse_f0_past_the_cap():
    # Past f0 = 1e8 the f0 +- 8.5 window is no longer resolved in floating
    # point.  At the cap the size is still its limit, to within the error
    # that `rejection_prob` reports.
    proc = ConventionalT(crit=Q95)
    limit = proc.tail_limit()
    at = rejection_prob(proc, NuisancePoint(0.3, _F0_MAX))
    assert at.abs_err < 1e-10 and abs(at.prob - limit) <= at.abs_err
    assert abs(rejection_prob_profile(proc, 0.3, [_F0_MAX])[0] - limit) < 1e-11
    assert abs(rejection_prob_rho1(proc, _F0_MAX) - limit) < 1e-10
    evaluators = (
        lambda f0: rejection_prob(proc, NuisancePoint(0.3, f0)),
        lambda f0: rejection_prob_profile(proc, 0.3, [0.0, f0]),
        lambda f0: rejection_prob_rho1(proc, f0),
    )
    for call in evaluators:
        for f0 in (math.nextafter(_F0_MAX, math.inf), 1e16, 1e200):
            with pytest.raises(DomainError, match=r"1e\+08"):
                call(f0)


def test_profile_matches_pointwise_on_coarse_sweep():
    # Step-1 f0 values: neighbouring windows share only part of their
    # panels, so each f0 must sum its own.
    proc = ThresholdTF(crit=Q95, f_threshold=10.0)
    f0s = np.arange(40.0, 140.01, 1.0)
    for rho in (0.7, 0.99):
        prof = rejection_prob_profile(proc, rho, f0s)
        for i, f0 in enumerate(f0s):
            direct = rejection_prob(proc, NuisancePoint(rho=rho, f0=float(f0))).prob
            assert math.isclose(prof[i], direct, rel_tol=1e-8, abs_tol=1e-10)


def test_profile_near_rho1_band_matches_pointwise(cvf):
    # Between |rho| = 1 - 5e-5 and 1 - 1e-6 the |rho| = 1 closed form
    # (0.96052 here) is 2e-3 to 5e-2 off; the profile must agree with the
    # adaptive integral instead.
    proc = ConventionalT(crit=1.96**2)
    f0 = 0.00125
    expected = {0.9999988: 0.958386, 0.99999: 0.937199, 0.99996: 0.912148}
    for rho, value in expected.items():
        prof = float(rejection_prob_profile(proc, rho, [f0])[0])
        direct = rejection_prob(proc, NuisancePoint(rho=rho, f0=f0)).prob
        assert abs(prof - direct) <= 1e-6
        assert abs(prof - value) <= 1e-6
    # The curve rule's point splits live panels at the knots, so its later
    # passes hold panels that do not abut: a run of saturated P = 1 panels
    # must not span the gap between two of them.
    tf = TFProcedure(cvf=cvf)
    for rho, f0 in ((0.99995, 4.5), (0.999995, 4.5), (0.999995, 10.0)):
        prof = float(rejection_prob_profile(tf, rho, [f0])[0])
        assert abs(prof - rejection_prob(tf, NuisancePoint(rho=rho, f0=f0)).prob) <= 1e-6


def test_profile_resolves_rejection_edge_near_rho1():
    # At s = sqrt(1 - rho^2) = 1.4e-3 the rejection set of the F > 10 screen
    # starts 0.0094 above the gate; scipy's adaptive quad stepped over that
    # edge (it reported 0.114667 +- 5e-7), while a tanh-sinh integral that
    # shares no code with tfiv gives 0.112875, a 2e-6-step grid 0.1128748
    # and 2e7 simulated draws 0.11295 +- 7e-5.
    proc = ThresholdTF(crit=1.96**2, f_threshold=10.0)
    point = NuisancePoint(rho=0.999999, f0=1.9602)
    prof = float(rejection_prob_profile(proc, point.rho, [point.f0])[0])
    assert abs(prof - 0.112875) <= 1e-6
    assert abs(rejection_prob(proc, point).prob - 0.112875) <= 1e-6
    hybrid = HybridAR(crit=1.96**2, f_threshold=10.0)
    prof = float(rejection_prob_profile(hybrid, point.rho, [point.f0])[0])
    assert abs(rejection_prob(hybrid, point).prob - prof) <= 1e-9


@given(
    st.integers(0, 4),
    st.floats(-0.99999, 0.99999),
    st.floats(0.0, 14.0),
    st.sampled_from([1e-4, 1e-6, 1e-8]),
)
@settings(max_examples=40, deadline=None)
@seed(1)
# The curve rule near rho = 1 at small f0, where |K15 - G7| on a panel that
# holds knots fell 4 to 20 times short of the error it should cover.
@example(which=4, rho=0.99, f0=0.7, tol=1e-6)
@example(which=4, rho=0.99, f0=2.0, tol=1e-6)
@example(which=4, rho=0.999, f0=1.7, tol=1e-6)
@example(which=4, rho=0.999, f0=1.6, tol=1e-8)
def test_reported_error_covers_tighter_integral(cvf, which, rho, f0, tol):
    # abs_err is the sum of the accepted |K15 - G7| panel gaps; it must stay
    # within tol and cover the distance to a 1e-11 integral of the same point.
    proc = (
        ConventionalT(crit=Q95),
        ThresholdTF(crit=Q95, f_threshold=10.0),
        HybridAR(crit=Q95, f_threshold=10.0),
        PureAR(crit=Q95),
        TFProcedure(cvf=cvf),
    )[which]
    point = NuisancePoint(rho=rho, f0=f0)
    loose = rejection_prob(proc, point, tol=tol)
    tight = rejection_prob(proc, point, tol=1e-11)
    assert loose.abs_err <= tol
    assert abs(loose.prob - tight.prob) <= loose.abs_err + tight.abs_err


def test_profile_matches_tight_pointwise_integral(cvf):
    # The curve's kinks below sqrt(F) = 2.5 sit next to the support edge, and
    # a profile that does not cut at them is about 1e-6 off near rho = 1.
    # Worst errors measured here: 4.7e-8 (tF) and 6.1e-8 (conventional, at
    # rho = 0.87, f0 = 1.95).  The conventional half takes every third f0
    # below 2; both halves add f0 = 3, 5, 8 and 20, where the wider panels
    # of the far field apply (worst measured there: 4.2e-9).
    far = np.array([3.0, 5.0, 8.0, 20.0])
    f0s = np.concatenate([np.arange(40) * 0.05, far])
    tf = TFProcedure(cvf=cvf)
    for rho in (0.0, 0.5, 0.9, 0.99, 0.999, 0.9995, 0.9999):
        tight = [rejection_prob(tf, NuisancePoint(rho, float(f0)), tol=1e-10).prob for f0 in f0s]
        gap = np.abs(rejection_prob_profile(tf, rho, f0s) - tight)
        assert float(gap.max()) <= 2e-7, (rho, f0s[gap.argmax()])
    f0s = np.concatenate([f0s[:40:3], far])
    for proc in (ConventionalT(crit=Q95), ConventionalT(crit=3.43**2)):
        for rho in np.arange(34) * 0.03:
            points = [NuisancePoint(float(rho), float(f0)) for f0 in f0s]
            tight = [rejection_prob(proc, point, tol=1e-10).prob for point in points]
            gap = np.abs(rejection_prob_profile(proc, float(rho), f0s) - tight)
            assert float(gap.max()) <= 1e-7, (proc, rho, f0s[gap.argmax()])


# ---------------------------------------------------------------------------
# independent |rho| = 1 oracle for every rule: a sign scan plus brentq


def _rho1_scanner(g, sq: float, f0: float, kinks=()) -> float:
    """|rho| = 1 size of the t test t^2 > g(|f|)^2 on |f| >= sq, by locating every f-crossing.

    g is a nonincreasing sqrt-critical function of |f| (scalars or arrays),
    sq the support edge and ``kinks`` the points where g bends.  In f-space
    the test rejects iff |f| >= sq and |f| |f - f0| > f0 g(|f|).  On f <= -sq
    and on f >= max(sq, f0) the margin is strictly increasing, giving one
    crossing each; on sq <= f < f0 it is negative at f0 and can be positive
    in between, or already at sq, contributing "hump" intervals scanned on
    the kinks plus a 257-point grid, so a hump that starts and ends inside
    one scan cell is missed.
    """

    def w_low(a: float) -> float:
        return a * (a + f0) - f0 * g(a)

    # The lower margin is positive from a = g(sq) on, since g(a) <= g(sq).
    top = max(sq, g(sq)) + 1.0
    a_star = sq if w_low(sq) >= 0.0 else brentq(w_low, sq, top, xtol=1e-12)

    def w_up(x: float) -> float:
        return x * (x - f0) - f0 * g(x)

    lo = max(sq, f0)
    u_star = lo if w_up(lo) >= 0.0 else brentq(w_up, lo, f0 + g(lo) + 1.0, xtol=1e-12)
    p = ndtr(-a_star - f0) + 1.0 - ndtr(u_star - f0)

    if f0 > sq + 1e-12:
        kinks = np.asarray(kinks, dtype=float)
        inner = kinks[(kinks > sq) & (kinks < f0)]
        grid = np.unique(np.concatenate([inner, np.linspace(sq, f0, 257)]))
        vals = grid * (f0 - grid) - f0 * g(grid)

        def w_mid(x: float) -> float:
            return x * (f0 - x) - f0 * g(x)

        inside = vals > 0.0
        flips = np.nonzero(inside[:-1] != inside[1:])[0]
        edges = [sq] if inside[0] else []  # the hump opens at the support edge
        edges += [brentq(w_mid, grid[i], grid[i + 1], xtol=1e-12) for i in flips]
        for x1, x2 in zip(edges[0::2], edges[1::2]):
            p += ndtr(x2 - f0) - ndtr(x1 - f0)
    return float(min(max(p, 0.0), 1.0))


def _rho1_cvf_scanner(cvf, f0: float) -> float:
    xs = np.asarray([k[0] for k in cvf.knots], dtype=float)
    gs = np.asarray([k[1] for k in cvf.knots], dtype=float)
    return _rho1_scanner(lambda x: np.interp(x, xs, gs), math.sqrt(cvf.lower_support), f0, xs)


def _ar_band(crit: float, gate: float, f0: float) -> float:
    """P(|z| > sqrt(crit), |f0 + z| <= sqrt(gate)): the AR rejections below the gate."""
    sc, sa = math.sqrt(crit), math.sqrt(gate)
    lo, hi = -sa - f0, sa - f0
    inner = max(0.0, ndtr(min(sc, hi)) - ndtr(max(-sc, lo)))
    return float(ndtr(hi) - ndtr(lo) - inner)


@pytest.mark.parametrize(
    "proc",
    [
        ConventionalT(Q95),
        ConventionalT(Q99),
        ConventionalT(4.5),
        ThresholdTF(Q95, 104.7),
        ThresholdTF(3.43**2, 10.0),
        ThresholdTF(4.5, 3000.0),
        ThresholdTF(Q95, 1.0),
        HybridAR(Q95, 104.7),
        HybridAR(Q95, 1.0),
        HybridAR(3.43**2, 10.0),
    ],
    ids=repr,
)
def test_rho1_constant_rules_match_scanner(proc):
    # The constant cutoff is a one-knot curve: the same kernel as the tF
    # rule, against the scanner.  Where the gate's sqrt(F) exceeds
    # sqrt(crit), the hump opens at the gate for f0 > F / (sqrt F - sqrt
    # crit): 12.66 for (Q95, 104.7) and 56.98 for (4.5, 3000), where the
    # kernel once missed Phi(sqrt F - f0).  Every 7th point of the ridge
    # grid, for time; f0* of a gated rule is always in.
    sc, sq = math.sqrt(proc.crit), math.sqrt(proc.f_threshold)
    grid = proc.ridge_f0_grid()
    star = [] if proc.f0_star is None else [proc.f0_star]
    f0s = np.unique(np.concatenate([grid[::7], star, [12.66, 56.98]]))
    exact = rejection_prob_profile(proc, 1.0, f0s)
    for f0, value in zip(f0s, exact):
        scanned = _rho1_scanner(lambda x: sc + 0.0 * x, sq, float(f0))
        if isinstance(proc, HybridAR):
            scanned += _ar_band(proc.crit, proc.f_threshold, float(f0))
        assert abs(value - scanned) <= 1e-12, (f0, value, scanned)


def test_rho1_curve_matches_scanner_on_ridge_grid(cvf):
    proc = TFProcedure(cvf=cvf)
    f0s = proc.ridge_f0_grid()
    exact = rejection_prob_profile(proc, 1.0, f0s)
    scanned = np.array([_rho1_cvf_scanner(cvf, float(f0)) for f0 in f0s])
    assert float(np.max(np.abs(exact - scanned))) <= 1e-12


def test_rho1_curve_finds_hump_inside_one_scan_cell():
    # Flat curve g = 2 - 1e-7: at f0 = 8 the margin x (8 - x) - 8 g is
    # positive only on 4 +- sqrt(8e-7) = 4 +- 8.9e-4, which falls between
    # two points of the scanner's 257-point grid.
    g = 2.0 - 1e-7
    cvf = CriticalValueFunction(alpha=0.05, knots=((2.0, g), (40.0, g)), lower_support=Q95)
    f0 = 8.0
    half = math.sqrt(16.0 - 8.0 * g)
    hump = float(ndtr(4.0 + half - f0) - ndtr(4.0 - half - f0))
    assert 2.39e-7 < hump < 2.40e-7
    _, found, _ = _rho1_masses(*TFProcedure(cvf=cvf).cutoff_knots, [f0])
    assert math.isclose(float(found[0]), hump, rel_tol=1e-6)
    exact = rejection_prob_rho1(TFProcedure(cvf=cvf), f0)
    assert math.isclose(exact - _rho1_cvf_scanner(cvf, f0), hump, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# one rule per procedure: the (t, F) decision against the region kernel


def _kernel_rejects(proc, t_ar: float, f: float, rho: float) -> bool:
    sign, lo, hi = proc.regions(np.array([f]), rho)
    return bool((sign[0] < 0) + sign[0] * (lo[0] < t_ar < hi[0]) > 0.5)


# |f| where a rule's region changes: the 5% curve's support edge, the F > 10
# gate, the 3.43 cutoff's asymptote and the curve's pin point sqrt(f_tilde).
_EDGES = (SQRT_Q95, math.sqrt(10.0), 3.43, math.sqrt(104.67075419758321))


@st.composite
def _t_ar_f_rho(draw):
    """(t_ar, f, rho): half the f draws sit within 0.2 of an edge; half the
    points lie on the |rho| = 1 line at t_ar = rho f / (1 + delta), where
    t = |f / delta| reaches every level up to a 1000-fold |f|."""
    near = st.tuples(st.sampled_from(_EDGES), st.floats(-0.2, 0.2), st.sampled_from([-1, 1]))
    f = draw(st.one_of(st.floats(-15.0, 15.0), near.map(lambda e: e[2] * (e[0] + e[1]))))
    assume(abs(f) > 1e-3)
    if draw(st.booleans()):
        return draw(st.floats(-8.0, 8.0)), f, draw(st.floats(-1.0, 1.0))
    rho = draw(st.sampled_from([-1.0, 1.0]))
    delta = draw(st.floats(1e-3, 0.9)) * draw(st.sampled_from([-1.0, 1.0]))
    return rho * f / (1.0 + delta), f, rho


@given(st.integers(0, 5), _t_ar_f_rho())
@settings(max_examples=400, deadline=None)
# Just past the pin, sqrt F = 10.2309 lies between the pin knot at
# 10.2308726 and the 0.005-pitch knot 10.231; t^2 = q + 5e-6 there.
@example(3, (1.9969521136146755, 10.2309, 0.0))
@example(3, (1.8115488229045476, 10.2309, 0.5))
def test_rejects_agrees_with_region_kernel(cvf, which, draw):
    # A draw (t_ar, f) gives the published pair t^2 = t_squared_identity and
    # F = f^2; `rejects` on that pair must match the kernel's tables at f.
    # At or below a rule's AR gate (everywhere for the AR rule) the pair
    # lacks the AR statistic, and `rejects` must say None.
    t_ar, f, rho = draw
    proc = (
        ConventionalT(crit=Q95),
        ThresholdTF(crit=Q95, f_threshold=10.0),
        ThresholdTF(crit=3.43 * 3.43, f_threshold=10.0),
        TFProcedure(cvf=cvf),
        HybridAR(crit=Q95, f_threshold=10.0),
        PureAR(crit=Q95),
    )[which]
    assume(abs(f - rho * t_ar) > 1e-9 or abs(rho) < 1.0)
    t2 = t_squared_identity(t_ar, f, rho)
    F = f * f
    crit = float(proc.crit_at(F))
    # Stay off the boundary t^2 = c(F), the support edge and the gate, and
    # off the asymptote F = c(F), a null line the kernel tabulates as "never".
    assume(math.isinf(crit) or min(abs(t2 - crit), abs(F - crit)) > 1e-7 * crit)
    assume(abs(F - 10.0) > 1e-9 and abs(F - cvf.lower_support) > 1e-9)
    got = proc.rejects(math.sqrt(t2), F)
    if F <= proc.ar_gate:
        assert got is None
    else:
        assert got == _kernel_rejects(proc, t_ar, f, rho)


# ---------------------------------------------------------------------------
# the curve path against the constant path on the same rule


def _screen_as_curve(crit: float, f_threshold: float) -> TFProcedure:
    """ThresholdTF(crit, f_threshold) written as a curve rule: no rejection
    below the support F = f_threshold, flat g = sqrt(crit) above it.

    The curve form needs g >= sqrt(support), i.e. crit >= f_threshold, so
    the F > 10 screen at 3.43^2 fits and (1.96^2, 104.7) does not.
    """
    sq = math.sqrt(f_threshold)
    xs = sq + 0.005 * np.arange(1, 4001)
    g = math.sqrt(crit)
    cvf = CriticalValueFunction(
        alpha=0.05,
        knots=tuple((float(x), g) for x in xs),
        lower_support=f_threshold,
    )
    return TFProcedure(cvf=cvf)


def test_screen_as_curve_matches_threshold_rule():
    crit = 3.43 * 3.43
    screen = ThresholdTF(crit=crit, f_threshold=10.0)
    curve = _screen_as_curve(crit, 10.0)
    f0s = np.concatenate([np.linspace(0.0, 30.0, 241), [screen.f0_star]])
    for rho in (1.0, 0.0, 0.5, 0.9, 0.99, 0.999):
        gap = np.abs(
            rejection_prob_profile(curve, rho, f0s) - rejection_prob_profile(screen, rho, f0s)
        )
        assert float(gap.max()) <= 1e-12
    for rho, f0 in ((0.0, 2.0), (0.5, 3.0), (0.9, 1.5), (-0.7, 4.0), (0.99, 2.5)):
        point = NuisancePoint(rho=rho, f0=f0)
        a = rejection_prob(curve, point, tol=1e-8).prob
        b = rejection_prob(screen, point, tol=1e-8).prob
        assert abs(a - b) <= 1e-12


# ---------------------------------------------------------------------------
# saturated panels


def _dense_profile(proc, rho, f0s):
    """A reference profile that sends every node in each f0's window through the kernel.

    It goes f0 by f0, with no saturated panels, no blocks and no bincount,
    on the same K15 panels (`_profile_panels`).  So it checks that the exact
    route for saturated panels and the blocked sums reproduce the dense
    kernel on those panels; it mirrors the profile's panel layout and is no
    independent check of its accuracy.  Also returns the number of node-f0
    pairs it evaluated.
    """
    f0s = np.asarray(f0s, dtype=float)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    edges = _profile_panels(proc, rho, float(f0s.min()), float(f0s.max()))
    mids, halfs = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halfs[:, None] * _GK_X).ravel()
    weights = (halfs[:, None] * _GK_WK).ravel()
    tables = proc.regions(nodes, rho)
    out = np.empty(f0s.shape)
    pairs = 0
    for k, f0 in enumerate(f0s):
        a = np.searchsorted(nodes, f0 - _F_WINDOW, side="left")
        b = np.searchsorted(nodes, f0 + _F_WINDOW, side="right")
        window = tuple(t[a:b] for t in tables)
        out[k] = _weighted_rejection(window, nodes[a:b] - f0, rho, s) @ weights[a:b]
        pairs += b - a
    return np.clip(out, 0.0, 1.0), pairs


# A dense stretch of f0 values, spaced ones beyond, shuffled.
_SWEEP = np.random.default_rng(5).permutation(
    np.concatenate([np.linspace(0.0, 6.0, 97), [9.5, 14.25, 26.4, 38.0]])
)
_SWEEP_RHOS = (0.0, 0.5, -0.9, 0.99, -0.999, 0.9999, 0.99995)


def _dense_pairs(monkeypatch):
    """Count the kernel calls and the node-f0 pairs they take."""
    import tfiv.size_engine as engine

    seen = SimpleNamespace(calls=0, pairs=0)

    def counted(regions, d, rho, s):
        seen.calls += 1
        seen.pairs += d.size
        return _weighted_rejection(regions, d, rho, s)

    monkeypatch.setattr(engine, "_weighted_rejection", counted)
    return seen


@pytest.mark.parametrize(
    "which",
    ["conventional", "threshold", "hybrid", "ar", "tf", "threshold-104.65", "conventional-3.43"],
)
def test_saturated_panels_match_dense_sweep(cvf, which, monkeypatch):
    proc = {
        "conventional": ConventionalT(crit=Q95),
        "threshold": ThresholdTF(crit=Q95, f_threshold=10.0),
        "hybrid": HybridAR(crit=Q95, f_threshold=10.0),
        "ar": PureAR(crit=Q95),
        "tf": TFProcedure(cvf=cvf),
        "threshold-104.65": ThresholdTF(crit=1.96**2, f_threshold=104.65),
        "conventional-3.43": ConventionalT(crit=3.43**2),
    }[which]
    seen = _dense_pairs(monkeypatch)
    for rho in _SWEEP_RHOS:
        seen.pairs = 0
        prof = rejection_prob_profile(proc, rho, _SWEEP)
        dense, dense_pairs = _dense_profile(proc, rho, _SWEEP)
        np.testing.assert_allclose(prof, dense, rtol=0.0, atol=1e-14)
        if abs(rho) >= 0.999:
            # Near |rho| = 1 most panels are saturated and skip the kernel.
            assert seen.pairs < 0.25 * dense_pairs
        if rho == 0.0 and which not in ("hybrid", "ar"):
            # At rho = 0 the panels that never reject, or whose edges sit
            # 9 sds out, skip the kernel too; the AR band at +-1.96 never does.
            assert seen.pairs < dense_pairs


@pytest.mark.parametrize("rho", [0.0, 0.9, -0.999])
def test_block_edges_inside_one_f0(cvf, rho, monkeypatch):
    # Blocks of 5 panels and groups of about 75 (f0, panel) pairs: each f0
    # meets more panels than that (8 or more), so block and group edges fall
    # inside the pairs of one f0, whose sum must come out as with the
    # default blocks.
    import tfiv.size_engine as engine

    proc = TFProcedure(cvf=cvf)
    whole = rejection_prob_profile(proc, rho, _SWEEP)
    monkeypatch.setattr(engine, "_BLOCK", 5 * _GK_X.size)
    seen = _dense_pairs(monkeypatch)
    split = rejection_prob_profile(proc, rho, _SWEEP)
    # Each call takes a run of the f0-major pairs; more calls than f0 values
    # means some f0 was split between two of them.
    assert seen.calls > _SWEEP.size
    np.testing.assert_allclose(split, whole, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(split, _dense_profile(proc, rho, _SWEEP)[0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("f0", [0.5, 2.0])
def test_point_skips_saturated_panels(cvf, f0, monkeypatch):
    # rejection_prob runs the profile's pass, so near |rho| = 1, where most
    # panels saturate, it sends a small share of its panels' nodes through
    # the kernel, where a dense sweep of the same panels sends them all.
    rho = 0.9999
    for proc in (ConventionalT(Q95), ThresholdTF(Q95, 10.0), TFProcedure(cvf)):
        panels = _profile_panels(proc, rho, f0, f0).size - 1
        seen = _dense_pairs(monkeypatch)
        rejection_prob(proc, NuisancePoint(rho=rho, f0=f0))
        assert seen.pairs < 0.25 * _GK_X.size * panels


def test_tf_audit_kernel_work(cvf, monkeypatch):
    # K15 panels up to 2.4 s wide, with no 0.3 cap, saturated panels
    # skipped at every rho, graded ladders only at the root births and
    # asymptotes, knot cuts only where live, and a grid that ends at
    # f0_far = 18.73, past which a closed bound stands in, and a coarse pass
    # that takes every 4th row of the boundary layer too and rows even in
    # arcsin rho below it: the 5% curve's audit sends 0.507M node-f0 pairs
    # through the kernel in 60 blocks (0.878M in 95 with every 4th row below
    # the layer, 1.11M in 117 with every layer row in the coarse pass, 1.32M
    # in 122 with ladders at every breakpoint and every knot below 2.5 cut,
    # 1.63M in 158 with a far-field block of 26 columns from f0 = 40 to 140,
    # 1.875M in 171 with 101 far columns, 7.23M on GL-24 panels, 4,298
    # calls when each f0 chunk made its own).  The F > 10 screen's audit
    # reads the pocket around f0* as columns of its grid, coarse to fine:
    # 0.268M pairs in 54 blocks (0.304M in 91 with a separate patch).
    for proc, pairs, calls in (
        (TFProcedure(cvf=cvf), 0.55e6, 300),
        (ThresholdTF(1.96**2, 10.0), 0.28e6, 70),
    ):
        seen = _dense_pairs(monkeypatch)
        worst_case_size(proc)
        assert seen.pairs <= pairs
        assert seen.calls <= calls


def _traced_peak(run) -> float:
    """Peak bytes that tracemalloc saw allocated while run() ran."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "case, bound",
    [
        # tracemalloc peaks on a 2-core Intel Xeon, tables of the whole window
        # at once -> blocks of panels: 2.6 -> 0.9, 24.9 -> 10.7 and 9.5 -> 5.4 MB.
        ("point", 1.5e6),
        ("far profile", 16e6),
        ("audit", 7.5e6),
    ],
)
def test_passes_build_tables_a_block_of_panels_at_a_time(cvf, case, bound):
    # A pass holds its nodes, region tables and hulls for one block of
    # panels, not a whole window: 13,400 panels at rho = 0.99995 over f0 up
    # to 300, or the curve rule's 2,200 knot pieces in one refinement pass.
    proc = TFProcedure(cvf=cvf)
    run = {
        "point": lambda: rejection_prob(proc, NuisancePoint(rho=0.5, f0=2.0)),
        "far profile": lambda: rejection_prob_profile(proc, 0.99995, np.arange(0.0, 301.0)),
        "audit": lambda: worst_case_size(proc),
    }[case]
    assert _traced_peak(run) < bound


class _Patched:
    """A rule whose region tables ``patch`` rewrites, to plant edge cases."""

    def __init__(self, proc, patch):
        self.proc, self.patch = proc, patch
        self.knot_cuts, self.profile_knots = proc.knot_cuts, proc.profile_knots

    def breakpoints(self, s):
        return self.proc.breakpoints(s)

    def regions(self, f, rho):
        sign, lo, hi = (np.array(t, dtype=float) for t in self.proc.regions(f, rho))
        self.patch(f, sign, lo, hi)
        return sign, lo, hi


def _plant(value, column):
    def patch(f, sign, lo, hi):
        hit = (np.abs(f - 7.0) < 0.05) & (sign != 0.0)
        (lo, hi)[column][hit] = value

    return patch


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1], ids=["lo", "hi"])
def test_non_finite_edges_keep_their_panels_live(value, column):
    # A panel with a NaN or infinite edge, or so a non-finite c = rho f - e,
    # must go through the kernel: read as saturated, a NaN would vanish.
    proc = _Patched(ConventionalT(crit=Q95), _plant(value, column))
    for rho in (0.9999, -0.999, 0.0):
        prof = rejection_prob_profile(proc, rho, _SWEEP)
        dense, _ = _dense_profile(proc, rho, _SWEEP)
        np.testing.assert_allclose(prof, dense, rtol=0.0, atol=1e-14)
        if math.isnan(value):
            assert np.isnan(prof).any() and not np.isnan(prof).all()


# ---------------------------------------------------------------------------
# panel layout


@functools.cache
def _tf_rule(alpha: float) -> TFProcedure:
    return TFProcedure(build_cvf(alpha))


def test_ladders_only_at_singular_points():
    # The graded ladder goes on both sides of the root birth f = s sqrt(c)
    # and the asymptote f^2 = c; the support edge, the gate and the pin get
    # one plain cut each.
    rho = 0.9
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    sc = SQRT_Q95
    tf = _tf_rule(0.05)
    X = tf.cutoff_knots[0]
    cases = [
        (ConventionalT(Q95), [s * sc, sc], []),
        (ThresholdTF(Q95, 10.0), [s * sc, sc], [math.sqrt(10.0)]),
        (HybridAR(Q95, 10.0), [s * sc, sc], [math.sqrt(10.0)]),
        (tf, [_cvf_crossing(tf, s), _cvf_crossing(tf, 1.0)], [X[0], X[-1]]),
    ]
    ladder = np.concatenate([-_GRADED_OFFSETS, _GRADED_OFFSETS])
    for proc, singular, plain in cases:
        assert sorted(proc.singular_points(s)) == sorted(singular)
        assert proc.breakpoints(s) == (
            sorted(-x for x in singular) + sorted(singular),
            sorted(-x for x in plain) + sorted(plain),
        )
        edges = _profile_panels(proc, rho, 0.0, 12.0)  # on [-8.5, 20.5]
        for x in singular:
            for point in (x, -x):
                assert np.isin(point + ladder, edges).all()
        for x in plain:
            for point in (x, -x) if x < 8.5 else (x,):
                assert point in edges
                assert not np.isin(point + ladder, edges).any()
    assert PureAR(Q95).singular_points(s) == [] and PureAR(Q95).breakpoints(s) == ([], [])
    assert _profile_panels(PureAR(Q95), rho, 0.0, 12.0).size - 1 == math.ceil(29.0 / (2.4 * s))


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConventionalT(Q95),
        lambda: ConventionalT(2.0),  # sqrt(2.0)^2 != 2.0
        lambda: ThresholdTF(Q95, 10.0),
        lambda: HybridAR(1.96 * 1.96, 104.7),
        lambda: PureAR(Q95),
        *(functools.partial(_tf_rule, alpha) for alpha in (0.01, 0.05, 0.10)),
    ],
    ids=[
        "conventional", "conventional-2", "threshold", "hybrid-2b", "ar",
        "tf-1pct", "tf-5pct", "tf-10pct",
    ],
)
def test_cuts_and_outer_cutoff_follow_from_the_knots(make):
    # The base derives every rule's geometry from its knots (X, G): the
    # outer cutoff is (X[-1], c(inf)), with a constant crit returned as it
    # is, and the knot cuts are +-X[1:], none for a constant cutoff.
    proc = make()
    X, G = proc.cutoff_knots
    if isinstance(proc, TFProcedure):
        xs = proc.cvf.arrays[0]
        assert proc.outer_cutoff == (X[-1], G[-1] ** 2)
        np.testing.assert_array_equal(proc.knot_cuts, np.concatenate([-xs[::-1], xs]))
        assert proc.profile_knots.size
    else:
        outer = None if isinstance(proc, PureAR) else (math.sqrt(proc.f_threshold), proc.crit)
        assert proc.outer_cutoff == outer
        assert proc.knot_cuts.size == 0
    assert np.isin(proc.profile_knots, proc.knot_cuts).all()


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
def test_live_knot_filter_drops_only_dead_knots(alpha, monkeypatch):
    # With every candidate knot cut, the profile is the same to 1e-15: the
    # knots the filter drops sit where every pair of their panels saturates.
    import tfiv.size_engine as engine

    proc = _tf_rule(alpha)
    rhos = (0.0, 0.5, -0.9, 0.99, 0.999, 0.9999)
    filtered = [rejection_prob_profile(proc, rho, _SWEEP) for rho in rhos]
    monkeypatch.setattr(engine, "_live_knots", lambda proc, knots, *args: np.ones(knots.size, bool))
    for rho, prof in zip(rhos, filtered):
        every = rejection_prob_profile(proc, rho, _SWEEP)
        np.testing.assert_allclose(prof, every, rtol=0.0, atol=1e-15)


def test_one_percent_profile_cuts_its_knots():
    # The 1% curve's knots begin at its support edge 2.576, above 2.5; its
    # cut zone follows that edge, so the profile sees its kinks near |rho| = 1.
    proc = _tf_rule(0.01)
    f0s = np.array([0.0, 0.07, 0.3])
    for rho in (0.999, 0.9995):
        prof = rejection_prob_profile(proc, rho, f0s)
        for f0, value in zip(f0s, prof):
            tight = rejection_prob(proc, NuisancePoint(rho=rho, f0=float(f0)), tol=1e-11).prob
            assert abs(value - tight) <= 1e-7


def test_profile_keeps_the_shape_of_f0s():
    # The quadrature route and the |rho| = 1 closed forms both return an
    # array of the input's shape.
    proc = ThresholdTF(crit=Q95, f_threshold=10.0)
    grid = [[1.0, 2.0], [3.0, 4.0]]
    for rho in (0.5, 1.0):
        prof = rejection_prob_profile(proc, rho, grid)
        assert prof.shape == (2, 2)
        flat = rejection_prob_profile(proc, rho, np.ravel(grid))
        np.testing.assert_array_equal(prof.ravel(), flat)


def test_saturation_hulls_edge_cases():
    n = _GK_X.size
    nodes = np.repeat([0.5, 3.0, 6.0, 9.0, 12.0], n) + np.tile(0.01 * np.arange(n), 5)
    sign = np.ones(nodes.size)
    lo, hi = np.full(nodes.size, -1.0), np.full(nodes.size, 1.0)
    sign[n : n + 5] = 0.0  # panel 1 mixes never-reject and active nodes
    lo[n : n + 5] = hi[n : n + 5] = 0.0
    sign[2 * n : 3 * n] = lo[2 * n : 3 * n] = hi[2 * n : 3 * n] = 0.0  # panel 2 never rejects
    hi[3 * n + 7] = math.nan  # panel 3 has a NaN edge
    nodes[4 * n + 3] = math.inf  # panel 4 has a non-finite c
    for rho, s in ((0.99, 0.14), (-0.99, 0.14), (0.0, 1.0)):
        psign, low, high = _saturation_hulls(nodes, (sign, lo, hi), rho, s)
        # Hulls of u = rho f0 around c = rho f - e, +- r = 9 s; row 0 is the
        # upper edge hi = 1, row 1 the lower edge lo = -1.
        r = 9.0 * s
        u = rho * nodes[:n]
        assert np.allclose(low[:, 0], [u.min() - 1.0 - r, u.min() + 1.0 - r])
        assert np.allclose(high[:, 0], [u.max() - 1.0 + r, u.max() + 1.0 + r])
        for live in (1, 3, 4):
            assert np.all(low[:, live] == -math.inf) and np.all(high[:, live] == math.inf)
        assert np.all(low[:, 2] == math.inf) and np.all(high[:, 2] == math.inf)
        assert list(psign) == [1.0, 0.0, 0.0, 1.0, 1.0]


def test_mixed_panels_match_dense_sweep():
    # Every other node of a stretch never rejects: those panels mix
    # signs and must stay on the kernel.
    def patch(f, sign, lo, hi):
        hit = (np.abs(f - 4.0) < 0.6) & (np.arange(f.size) % 2 == 0)
        sign[hit] = lo[hit] = hi[hit] = 0.0

    proc = _Patched(ThresholdTF(crit=Q95, f_threshold=10.0), patch)
    for rho in (0.9999, -0.99):
        prof = rejection_prob_profile(proc, rho, _SWEEP)
        dense, _ = _dense_profile(proc, rho, _SWEEP)
        np.testing.assert_allclose(prof, dense, rtol=0.0, atol=1e-14)
