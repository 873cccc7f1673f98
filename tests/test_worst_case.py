import ast
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfiv.errors import ConstructionError, DomainError, ToleranceUnmet
from tfiv.gaussian import chi2_quantile_1df, ndtr
from tfiv import size_engine, worst_case
from tfiv.size_engine import (
    ConventionalT,
    HybridAR,
    NuisancePoint,
    PureAR,
    TFProcedure,
    ThresholdTF,
    rejection_prob,
    rejection_prob_rho1,
)
from tfiv.worst_case import (
    HybridBoundRow,
    WorstCase,
    hybrid_nonexistence_certificate,
    worst_case_size,
)

Q95 = 3.8414588206941254
Q99 = 2.5758293035489004**2
SQRT_Q95 = 1.959963984540054


def ridge_at_f0_star(f_threshold, crit):
    """The threshold rule's |rho| = 1 size at its stationary point f0*."""
    proc = ThresholdTF(crit=crit, f_threshold=f_threshold)
    return float(proc.rho1_profile(np.array([proc.f0_star]))[0])


def test_local_max_size_anchor():
    assert math.isclose(
        ridge_at_f0_star(10.0, Q95), 0.11313818286955638, rel_tol=1e-12
    )


def test_oracles_import_no_tfiv(oracles):
    # The referee shares no code with what it checks.
    tree = ast.parse(Path(oracles.__file__).read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "numpy" in modules
    assert not [m for m in modules if m.split(".")[0] == "tfiv"]


def test_local_max_size_matches_ridge_evaluator(oracles):
    # The kernel at f0* = F_bar / (sqrt(F_bar) + sqrt(crit)) against the
    # paper's closed form 1 - Phi(u) + Phi(-w), computed with math.erfc.
    for crit in (1.0, 2.0, Q95, 3.99, 4.5, 6.6349, 11.75):
        for f_threshold in (0.5, 1.0, 3.0, 10.0, 104.65, 1e3, 1e4, 1e6):
            assert math.isclose(
                ridge_at_f0_star(f_threshold, crit),
                oracles.local_max_size(f_threshold, crit),
                rel_tol=1e-12,
            ), (crit, f_threshold)


@given(st.floats(1.0, 200.0), st.floats(0.5, 15.0))
@settings(max_examples=60, deadline=None)
def test_local_max_size_monotone(f_threshold, crit):
    base = ridge_at_f0_star(f_threshold, crit)
    assert ridge_at_f0_star(f_threshold * 1.1, crit) < base
    assert ridge_at_f0_star(f_threshold, crit * 1.1) < base


def test_local_max_size_limits():
    # f_threshold -> infinity: one-sided tail 1 - Phi(sqrt(crit))
    assert math.isclose(
        ridge_at_f0_star(1e8, Q95), 1.0 - ndtr(SQRT_Q95), rel_tol=1e-3
    )
    # crit -> infinity: both terms become the F-screen tail
    assert math.isclose(
        ridge_at_f0_star(10.0, 1e6),
        2.0 * (1.0 - ndtr(math.sqrt(10.0))),
        rel_tol=1e-2,
    )


def test_worst_case_container_fields():
    wc = WorstCase(max_prob=0.1, arg_rho=1.0, arg_f0=2.0, certified_tol=1e-4)
    assert wc.max_prob == 0.1 and wc.arg_rho == 1.0


@pytest.mark.parametrize(
    "make, expected, refined, f0_far",
    [
        # The tF maximum sits on the ridge, at the cap edge; no grid cell
        # comes near it.  The grid ends where the window clears the last
        # knot, x_last + 8.5.
        (
            TFProcedure,
            (0.05062634954027448, 1.0, 0.07393112939487596, 1e-06),
            0,
            18.730872601962318,
        ),
        # The only refined cell is the corner (rho = 1, f0 = 0), whose box
        # must be widened to three rows to carry a midpoint bound.
        (lambda cvf: ConventionalT(Q95), (1.0, 1.0, 0.0, 1e-06), 1, 10.0),
        # The gated rule's argmax is f0*, found on the ridge grid alone.  The
        # one refined cell is the ridge's coarse cell next to f0*, in the
        # pocket of columns 0.0012 apart around it.
        (
            lambda cvf: HybridAR(Q95, 10.0),
            (0.13813802562292885, 1.0, 1.9522702546316941, 3.3691954387987666e-05),
            1,
            math.sqrt(10.0) + 8.5,
        ),
        # The supremum is the f0 -> infinity limit, a candidate of its own,
        # reported on the ridge; the grid ends where the far bound comes
        # within 1e-6 of it, past sqrt(104.7) + 8.5 = 18.73.  Of the 44
        # refined cells, 21 lie at f0 = 14 and 15 on the coarse rows from
        # rho = 0.90 up, 7 of them below the boundary layer, whose claims
        # come within the 1e-4 refine margin of the limit.  The other 23 lie
        # in the f0* pocket, 0.0024 to 0.0456 above f0*, on the rows with
        # rho >= 0.99985.
        (
            lambda cvf: ThresholdTF(1.96**2, 104.7),
            (ThresholdTF(1.96**2, 104.7).tail_limit(), 1.0, math.inf, 1.3647568928604192e-05),
            44,
            19.63,
        ),
    ],
    ids=["tf", "conventional", "hybrid", "threshold-2b"],
)
def test_worst_case_size_pins_the_audit(cvf, make, expected, refined, f0_far, monkeypatch):
    # Record every profile row.  The strip 1 - 5e-5 < |rho| < 1 is certified
    # by the monotone approach check, so the audit must never integrate it,
    # and past f0_far the closed far-field bound stands in for the grid, so
    # no row below rho = 1 (whose ridge is in closed form) may reach there.
    # The coarse pass strides over the boundary layer too, so the unrefined
    # tF audit integrates 8 rows with |rho| >= 0.99, the ridge among them.
    # Below the layer its rows are even in phi = arcsin rho at the widest
    # gap of every 4th row (0.1274): 13 rows with |rho| < 0.99.
    seen = []
    profile = size_engine.rejection_prob_profile

    def recording(proc, rho, f0s):
        seen.append((abs(rho), float(np.max(f0s))))
        return profile(proc, rho, f0s)

    monkeypatch.setattr(size_engine, "rejection_prob_profile", recording)
    monkeypatch.setattr(worst_case, "rejection_prob_profile", recording)
    wc = worst_case_size(make(cvf))
    assert seen and not [r for r, _ in seen if 1.0 - 5e-5 < r < 1.0]
    assert not [(r, top) for r, top in seen if r < 1.0 and top > wc.f0_far]
    assert (wc.max_prob, wc.arg_rho, wc.arg_f0, wc.certified_tol) == expected
    assert wc.cells_refined == refined and wc.f0_far == f0_far
    if make is TFProcedure:
        assert len([r for r, _ in seen if r >= 0.99]) <= 8
        interior = sorted({r for r, _ in seen if r < 0.99})
        assert len(interior) <= 13
        assert np.diff(np.arcsin(interior)).max() <= 0.1275
    parts = (wc.grid_excess, wc.approach_violation, wc.far_excess)
    assert wc.certified_tol == max(1e-6, *parts)


def _rothenberg_a(rho, c):
    """A of the conventional size P(chi2_1 > c) + A / f0^2 + O(f0^-4)."""
    return math.exp(-0.5 * c) / math.sqrt(2.0 * math.pi) * c**1.5 * ((c - 3.0) * rho * rho - 1.0)


@pytest.mark.parametrize(
    "make",
    [lambda cvf: ConventionalT(Q99), lambda cvf: ThresholdTF(1.96**2, 104.7), TFProcedure],
    ids=["conventional-1pct", "threshold-2b", "tf"],
)
def test_far_bound_covers_f0_to_3000(cvf, make):
    # Past f0_far each rule is the conventional t test at its outer cutoff c,
    # and limit + max(0, A_max / f0^2 + K / f0^4), A_max the largest A over
    # rho, bounds it at every f0; at f0_far that is the part the audit
    # reports.  The conventional 1% rule nears its limit from above at rho
    # near 1, the F > 104.7 screen and the tF rule from below.
    proc = make(cvf)
    wc = worst_case_size(proc)
    c = proc.outer_cutoff[1]
    dense = 1.0 / np.linspace(1.0 / wc.f0_far, 1.0 / 3000.0, 461)
    a_max = max(_rothenberg_a(0.0, c), _rothenberg_a(1.0, c))
    bound = proc.tail_limit() + np.maximum(0.0, a_max / dense**2 + worst_case._FAR_K / dense**4)
    assert math.isclose(bound[0], wc.max_prob + wc.far_excess, rel_tol=0.0, abs_tol=1e-15)
    assert (np.diff(bound) <= 0.0).all()
    for rho in (0.0, 8 / 17, 16 / 17, 1.0 - 5e-5, 1.0):
        values = size_engine.rejection_prob_profile(proc, rho, dense)
        assert (values <= bound).all()


def test_far_bound_takes_the_largest_a_over_rho():
    # A is linear in rho^2, so over rho in [0, 1] it peaks at rho = 0 below
    # c = 4 and at rho = 1 above; below c = 4 the bound at f0 = 10 is
    # positive for c = 1 and negative for c = 2, so both branches show.
    for c in (1.0, 2.0, Q95, 4.5, Q99):
        proc = ConventionalT(c)
        f0_far, bound = worst_case._far_field(proc, 1.0)
        a_max = max(_rothenberg_a(0.0, c), _rothenberg_a(1.0, c))
        g = a_max / f0_far**2 + worst_case._FAR_K / f0_far**4
        assert (g > 0.0) == (c != 2.0)
        assert math.isclose(bound, proc.tail_limit() + max(0.0, g), rel_tol=1e-14)


@pytest.mark.parametrize("c", [Q99, Q95, chi2_quantile_1df(0.8), 3.43**2, 4.5])
def test_far_expansion_matches_rejection_prob(c):
    # limit + A / f0^2 is within K / f0^4 of the size from f0_far on; every
    # conventional rule's f0_far is the smallest f0 at which K was measured.
    proc = ConventionalT(c)
    assert worst_case._far_field(proc, 1.0)[0] == worst_case._FAR_F0_MIN == 10.0
    for f0 in (10.0, 40.0, 80.0, 160.0):
        for rho in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0 - 5e-5, 1.0):
            p = rejection_prob(proc, NuisancePoint(rho, f0), tol=1e-11).prob
            expansion = proc.tail_limit() + _rothenberg_a(rho, c) / f0**2
            assert abs(p - expansion) <= worst_case._FAR_K / f0**4


@pytest.mark.parametrize("c", [0.5, Q95, Q99])
def test_rho1_error_bound_grows_with_f0(c):
    # At |rho| = 1 the closed forms lose digits as f0 grows, to 2.9e-11 at
    # f0 = 1e7 to 1e8 for c = Q95, and the reported error grows with them.
    # Past f0 = 1e4 the expansion's f0^-4 term is below 1e-15.
    proc = ConventionalT(c)
    errs = []
    for f0 in (1e4, 1e6, 1e7, 1e8):
        res = rejection_prob(proc, NuisancePoint(1.0, f0))
        expansion = proc.tail_limit() + _rothenberg_a(1.0, c) / f0**2
        assert abs(res.prob - expansion) <= res.abs_err, (f0, res)
        errs.append(res.abs_err)
    assert errs == sorted(errs) and errs[-1] > 1e-11


def test_tf_worst_case_is_the_cap_edge(cvf):
    # On the ridge the whole upper tail f >= sq rejects up to the cap edge
    # f0 = sq^2 / (sq + g0); the ridge grid holds that point, and no f0 on a
    # grid ten times finer tops it.
    proc = TFProcedure(cvf)
    wc = worst_case_size(proc)
    sq = math.sqrt(cvf.lower_support)
    assert wc.arg_rho == 1.0
    assert wc.arg_f0 == sq * sq / (sq + cvf.knots[0][1])
    fine = size_engine.rejection_prob_profile(proc, 1.0, np.arange(0.0, 100.0 + 1e-9, 0.0005))
    assert fine.max() <= wc.max_prob


@pytest.mark.parametrize(
    "proc",
    [
        ThresholdTF(1.96**2, 104.7),
        ThresholdTF(1.96**2, 10.0),
        ThresholdTF(3.43**2, 10.0),
        HybridAR(Q95, 104.7),
        HybridAR(Q95, 10.0),
    ],
    ids=repr,
)
def test_f0_star_pocket_stays_below_max_prob(proc):
    # The pocket around f0* next to |rho| = 1, whose grid columns lie a whole
    # number of 0.0012 steps from f0*, scanned on a pitch of 0.0005 that
    # shares no column with them but f0*.  Nothing tops max_prob by more than its last digits,
    # the ridge near f0* evaluated a rounding away from f0* itself.  (On 30,001
    # f0 by 41 rho the scan takes 23 to 61 s per rule and finds the same.)
    wc = worst_case_size(proc)
    star = proc.f0_star
    f0s = np.linspace(max(0.0, star - 0.15), star + 0.15, 601)
    rhos = np.linspace(1.0 - 1e-3, 1.0, 21)
    scan = size_engine.rejection_prob_matrix(proc, rhos, f0s)
    assert float(scan.max()) <= wc.max_prob + 1e-15


@pytest.mark.parametrize(
    "proc",
    [ThresholdTF(4.5, 3.0), ThresholdTF(2.0, 1.0), ThresholdTF(1.96**2, 10.0)],
    ids=repr,
)
def test_narrow_pocket_certificates_hold_on_a_finer_scan(proc):
    # The first two rules certify at 1.0e-6 and 1.6e-6.  A scan of 30 rows
    # from rho = 0.995 up to the last row below the rho = 1 closed form, even
    # in log(1 - rho), by 301 columns over f0* +- 0.3 reads nothing above
    # max_prob + certified_tol.
    wc = worst_case_size(proc)
    star = proc.f0_star
    rhos = 1.0 - np.geomspace(5e-3, 1.1e-6, 30)
    f0s = np.linspace(star - 0.3, star + 0.3, 301)
    scan = size_engine.rejection_prob_matrix(proc, rhos, f0s)
    assert float(scan.max()) <= wc.max_prob + wc.certified_tol


def test_ridge_hump_peak_is_found_on_the_grid():
    # At crit = 3.99 the f0* gate leaves an interior ridge hump past
    # the gate, whose peak has no closed form; the ridge grid's 0.002 pitch
    # finds it to within 1e-10 of a 1e-5 polish, and the certificate covers
    # the rest.
    proc = ThresholdTF(3.99, 117.13789084712506)
    wc = worst_case_size(proc)
    assert wc.arg_rho == 1.0 and 10.0 < wc.arg_f0 < 40.0
    polish = np.arange(wc.arg_f0 - 0.002, wc.arg_f0 + 0.002, 1e-5)
    peak = float(size_engine.rejection_prob_profile(proc, 1.0, polish).max())
    assert abs(peak - wc.max_prob) <= 1e-10
    assert wc.max_prob + wc.certified_tol >= peak


def test_pure_ar_worst_case_has_no_certificate_parts():
    wc = worst_case_size(PureAR(crit=Q95))
    assert (wc.grid_excess, wc.approach_violation) == (0.0, 0.0)
    assert wc.cells_refined == 0


def test_certificate_above_the_refine_margin_is_refused(monkeypatch):
    # worst_case_size accepts no certificate above 1e-4; a raised floor
    # stands in for a grid that cannot be certified.
    monkeypatch.setattr(worst_case, "_CERT_FLOOR", 2e-4)
    with pytest.raises(ToleranceUnmet, match="certificate 2.00e-04 exceeds 1e-04"):
        worst_case_size(ConventionalT(Q95))


def test_hybrid_certificate_rows():
    rows = hybrid_nonexistence_certificate(Q95, [2.0, 10.0, 100.0, 1e4])
    assert [r.f_threshold for r in rows] == [2.0, 10.0, 100.0, 1e4]
    alpha = 2.0 * ndtr(-SQRT_Q95)
    for row in rows:
        assert isinstance(row, HybridBoundRow)
        assert math.isclose(row.alpha, alpha, rel_tol=1e-12)
        assert row.bound > alpha
        assert row.exceeds
        # the bound is itself a lower bound on the hybrid's ridge size
        direct = rejection_prob_rho1(
            ThresholdTF(crit=Q95, f_threshold=row.f_threshold), row.f0_star
        )
        assert row.bound <= direct + row.alpha + 1e-12


def test_hybrid_certificate_below_half_crit_exceeds_alpha():
    # Below crit/2 the AR window covers part of the Phi(-sqrt(crit)) tail,
    # and the kernel's value still stays well above alpha.
    rows = hybrid_nonexistence_certificate(Q95, np.geomspace(1e-3, Q95 / 2.0, 200))
    assert all(r.exceeds for r in rows)
    assert min(r.bound - r.alpha for r in rows) > 0.1


def test_hybrid_certificate_bound_matches_closed_form():
    # From crit/2 up the bound is 1 - Phi(u) + Phi(-sqrt(crit)),
    # u = sqrt(F crit) / (sqrt(F) + sqrt(crit)).
    sc = math.sqrt(Q95)
    rows = hybrid_nonexistence_certificate(Q95, np.geomspace(Q95 / 2.0, 1e6, 80))
    for row in rows:
        sf = math.sqrt(row.f_threshold)
        u = sf * sc / (sf + sc)
        closed = 0.5 * math.erfc(u / math.sqrt(2.0)) + 0.5 * math.erfc(sc / math.sqrt(2.0))
        assert math.isclose(row.bound, closed, rel_tol=1e-12), row.f_threshold


def test_hybrid_certificate_bound_decreases_to_alpha():
    rows = hybrid_nonexistence_certificate(Q95, list(np.geomspace(2.0, 1e6, 30)))
    bounds = [r.bound for r in rows]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] - rows[-1].alpha < 1e-3


def test_hybrid_certificate_validation():
    with pytest.raises(DomainError):
        hybrid_nonexistence_certificate(2.5, [10.0])  # not the 5% case
    with pytest.raises(DomainError):
        hybrid_nonexistence_certificate(Q95, [])
    with pytest.raises(DomainError):
        hybrid_nonexistence_certificate(Q95, [10.0, math.inf])
    with pytest.raises(DomainError):
        hybrid_nonexistence_certificate(Q95, ["x"])  # not a number
    with pytest.raises(DomainError):
        hybrid_nonexistence_certificate(Q95, None)  # not a list


def test_critical_value_floors_at_the_quantile(monkeypatch):
    # With a gate this high the ridge supremum is already at alpha at the
    # chi-square quantile, so no root is solved.  At 14% the ridge limit
    # there rounds a few ulps above alpha, which is alpha up to rounding, so
    # every gate answers the quantile itself.
    calls = []
    monkeypatch.setattr(worst_case, "_root_below", lambda *args: calls.append(args))
    assert worst_case.solve_critical_value(200.0, 0.05) == Q95
    for f_threshold in (20.0, 100.0):
        assert worst_case.solve_critical_value(f_threshold, 0.14) == chi2_quantile_1df(0.86)
    assert chi2_quantile_1df(0.86) == 2.1779591588541316
    assert calls == []


def test_solvers_accept_a_worst_case_only_up_to_rounding(monkeypatch):
    # Each answer lies on the valid side of its root, so its own audit reads
    # at most alpha; at a root finder's best iterate these two audits read
    # 312 and 15,471 ulps above.  Ulps above alpha are rounding, and the
    # answers stand; 1e-5 above is a failed certificate, which the solvers
    # must not answer through.
    audits = recorded_audits(monkeypatch)
    assert worst_case.solve_critical_value(50.0, 0.02) == 8.377632109677707
    assert audits[-1].max_prob <= 0.02
    assert worst_case.solve_threshold_F(1.96**2, 0.19) is not None
    assert audits[-1].max_prob <= 0.19
    alpha = 0.05

    def audit_at(max_prob):
        monkeypatch.setattr(worst_case, "worst_case_size",
                            lambda proc: SimpleNamespace(max_prob=max_prob))

    audit_at(alpha + 14 * math.ulp(alpha))
    assert worst_case.solve_critical_value(10.0, alpha) == 11.750488605404048
    assert worst_case.solve_threshold_F(Q95, alpha) == 104.67075060130465
    audit_at(alpha + 1e-5)
    with pytest.raises(ConstructionError, match=re.escape(f"worst case {alpha + 1e-5!r} >")):
        worst_case.solve_critical_value(10.0, alpha)
    assert worst_case.solve_threshold_F(Q95, alpha) is None


def hump_alpha(crit):
    """A level 1e-4 above the ridge limit 2 Phi(-sqrt(crit))."""
    return 2.0 * float(ndtr(-math.sqrt(crit))) + 1e-4


def recorded_audits(monkeypatch):
    """The WorstCase of every worst_case_size call the solvers make."""
    audits = []

    def recording(proc):
        audits.append(worst_case_size(proc))
        return audits[-1]

    monkeypatch.setattr(worst_case, "worst_case_size", recording)
    return audits


def test_threshold_search_stops_at_the_gate_cap(monkeypatch):
    # At crit = 3.99 the ridge-supremum lift needs a gate near 156.5.  Below
    # the cap the answer is None; with the cap at 200 the clamped lift checks
    # the gap at the cap itself rather than stepping past it to 4 x 117.
    alpha = hump_alpha(3.99)
    monkeypatch.setattr(worst_case, "_RIDGE_F_CAP", 150.0)
    assert worst_case.solve_threshold_F(3.99, alpha) is None
    monkeypatch.setattr(worst_case, "_RIDGE_F_CAP", 200.0)
    audits = recorded_audits(monkeypatch)
    value = worst_case.solve_threshold_F(3.99, alpha)
    assert 156.52 < value < 156.53
    assert worst_case._within_alpha(audits[-1].max_prob, alpha)


def test_threshold_at_crit_four_is_certified():
    # At crit = 4.0, alpha = 2 Phi(-2) + 1e-4, the f0* gate leaves
    # the ridge above alpha, and the lift finds a gate near F = 171.24 that
    # `worst_case_size` certifies.
    alpha = hump_alpha(4.0)
    value = worst_case.solve_threshold_F(4.0, alpha)
    assert value is not None
    assert math.isclose(value, 171.24384778231345, rel_tol=1e-6)


@pytest.mark.parametrize("crit, gate", [
    (4.5, 1633.5865160485776),
    (5.0, 3105.4612161402238),
    (6.0, 5101.474003976644),
])
def test_threshold_past_crit_four_is_pinned(monkeypatch, crit, gate):
    # Past crit = 4 the ridge nears its limit from above, so a gate must
    # swallow the hump; each one's single audit reads within alpha.
    alpha = hump_alpha(crit)
    audits = recorded_audits(monkeypatch)
    assert worst_case.solve_threshold_F(crit, alpha) == gate
    assert len(audits) == 1
    assert worst_case._within_alpha(audits[0].max_prob, alpha)


def test_solvers_read_each_ridge_point_once(monkeypatch):
    # Every f0* kernel read and ridge-supremum read of a solve is at a point
    # not read before in that solve: bracket ends are not evaluated again.
    reads = []

    def recording(name, inner):
        def wrapper(*args):
            reads.append((name,) + args)
            return inner(*args)

        monkeypatch.setattr(worst_case, name, wrapper)

    recording("rejection_prob_rho1", rejection_prob_rho1)
    recording("_ridge_sup", worst_case._ridge_sup)
    for solve, arg, alpha in [
        (worst_case.solve_threshold_F, 1.96**2, 0.05),
        (worst_case.solve_critical_value, 10.0, 0.05),
        (worst_case.solve_threshold_F, 3.99, hump_alpha(3.99)),
    ]:
        reads.clear()
        assert solve(arg, alpha) is not None
        assert reads
        assert len(set(reads)) == len(reads)


def test_each_solver_audits_its_answer_once(monkeypatch):
    # The hump case reads the ridge at the f0* gate, not the audit.
    audits = recorded_audits(monkeypatch)
    assert worst_case.solve_threshold_F(3.99, hump_alpha(3.99)) == 156.5268968576286
    assert len(audits) == 1
    audits.clear()
    assert worst_case.solve_critical_value(10.0, 0.05) == 11.750488605404048
    assert len(audits) == 1
