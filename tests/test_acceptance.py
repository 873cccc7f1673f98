"""End-to-end checks of every headline number the library is built to produce.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so a red run names the quantity that moved.  Heavy solver results
shared between checks are computed once per module.
"""

import math
import random
import time

import numpy as np
import pytest

from tfiv.audit import (
    SIGNIFICANT,
    SpecRecord,
    classify_corpus,
    classify_record,
    read_corpus_csv,
    report_to_json,
)
from tfiv.gaussian import chi2_quantile_1df
from tfiv.mc_oracle import McConfig, SyntheticDGP, mc_rejection, simulate_iv_dataset
from tfiv.size_engine import (
    ConventionalT,
    HybridAR,
    NuisancePoint,
    PureAR,
    TFProcedure,
    ThresholdTF,
    rejection_prob,
    rejection_prob_matrix,
)
from tfiv.statistics import t_squared_identity
from tfiv.tf_critical import build_cvf, emit_table3, tf_adjusted_se
from tfiv.worst_case import (
    hybrid_nonexistence_certificate,
    solve_critical_value,
    solve_threshold_F,
    validity_region,
    worst_case_size,
)

CRIT_196 = 1.96 * 1.96
Q95 = 3.8414588206941254

AUDIT_RHOS = (-1.0, -0.5, 0.0, 0.5, 1.0)
AUDIT_F0S = (0.5, 1.0, 2.0, 4.0, 8.0)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def region_5pct():
    t0 = time.perf_counter()
    region = validity_region(CRIT_196, 0.05)
    return region, time.perf_counter() - t0


def test_worst_case_size_of_f10_screen():
    t0 = time.perf_counter()
    wc = worst_case_size(ThresholdTF(crit=CRIT_196, f_threshold=10.0))
    elapsed = time.perf_counter() - t0
    f0_star = 10.0 / (math.sqrt(10.0) + 1.96)
    ok = (
        abs(wc.max_prob - 0.113) <= 1e-3
        and wc.arg_rho == 1.0
        and abs(wc.arg_f0 - f0_star) <= 0.01
        and elapsed < 60.0
    )
    _report(
        "worst-case size, |t|>1.96 with F>10 screen",
        ok,
        f"max={wc.max_prob:.6f} at rho={wc.arg_rho:g}, f0={wc.arg_f0:.4f} "
        f"(target 0.113 +- 0.001 at rho=1, f0={f0_star:.4f}; {elapsed:.1f}s)",
    )
    assert ok
    # The coarse claims top the best value by 2.4e-3 only in the pocket
    # around f0*, which is masked, so no coarse cell is refined.  The
    # certificate comes from the patch that re-audits that pocket on the
    # rows with |rho| >= 0.999.
    assert wc.arg_f0 == 1.9522565279429387
    assert wc.certified_tol == 3.3691524906523385e-05
    assert wc.cells_refined == 0


def test_f_threshold_that_restores_the_level():
    t0 = time.perf_counter()
    value = solve_threshold_F(CRIT_196, 0.05)
    elapsed = time.perf_counter() - t0
    ok = value is not None and abs(value - 104.7) <= 0.05 and elapsed < 30.0
    _report(
        "F threshold restoring 5% size at |t|>1.96",
        ok,
        f"threshold={value if value is None else f'{value:.4f}'} "
        f"(target 104.7 +- 0.05; {elapsed:.1f}s)",
    )
    assert ok


def test_critical_value_that_restores_the_level_at_f10():
    t0 = time.perf_counter()
    value = solve_critical_value(10.0, 0.05)
    elapsed = time.perf_counter() - t0
    root = math.sqrt(value)
    ok = abs(root - 3.43) <= 0.005 and elapsed < 30.0
    _report(
        "t cutoff restoring 5% size at F>10",
        ok,
        f"sqrt(crit)={root:.4f} (target 3.43 +- 0.005; "
        f"inflation {root / 1.96:.4f}; {elapsed:.1f}s)",
    )
    assert ok
    assert abs(root / 1.96 - 1.74) <= 0.01


def test_min_ef_for_conventional_validity(region_5pct):
    region, elapsed = region_5pct
    ok = (
        region.ef_bar is not None
        and abs(region.ef_bar - 142.6) <= 0.05
        and elapsed < 300.0
        and region.grid.shape == (201, 201)
    )
    _report(
        "smallest E[F] with 5% conventional size for all rho",
        ok,
        f"E[F]={region.ef_bar if region.ef_bar is None else f'{region.ef_bar:.4f}'} "
        f"(target 142.6 +- 0.05; grid {region.grid.shape}; {elapsed:.1f}s)",
    )
    assert ok


def test_max_rho_for_conventional_validity(region_5pct):
    region, _ = region_5pct
    ok = abs(region.rho_bar - 0.565) <= 5e-4
    _report(
        "largest rho with 5% conventional size for all E[F]",
        ok,
        f"rho={region.rho_bar:.6f} (target 0.565 +- 0.0005)",
    )
    assert ok


def test_one_percent_region_has_no_ef_bound():
    crit = 2.58 * 2.58
    t0 = time.perf_counter()
    region = validity_region(crit, 0.01)
    t1 = time.perf_counter()
    # At the 1% quantile the ridge stays above 1% past every gate up to the
    # cap.  At 2.58^2 the limit 2 Phi(-2.58) = 0.00988 lies below 1%, and a
    # gate restores the level.
    threshold = solve_threshold_F(chi2_quantile_1df(0.99), 0.01)
    gate = solve_threshold_F(crit, 0.01)
    t2 = time.perf_counter()
    # the published 0.43 is the 2dp print of a grid value half a grid-step up
    ok = (
        abs(region.rho_bar - 0.43) <= 0.005 + 1e-9
        and region.ef_bar is None
        and threshold is None
        and gate == 4729.709277740169
    )
    _report(
        "1% level: max rho exists, no E[F] bound, no F threshold at q_0.99",
        ok,
        f"rho={region.rho_bar:.6f} (target 0.43 +- 0.005), "
        f"E[F]={region.ef_bar!r}, threshold={threshold!r}, gate at 2.58^2={gate!r} "
        f"({t1 - t0:.1f}s + {t2 - t1:.1f}s)",
    )
    assert ok


def test_no_finite_hybrid_threshold_exists():
    rows = hybrid_nonexistence_certificate(
        CRIT_196, list(np.geomspace(1.92, 1e4, 60))
    )
    bound_ok = all(row.bound > 0.05 and row.exceeds for row in rows)

    rhos = np.linspace(-1.0, 1.0, 201)
    f0s = np.sqrt(np.linspace(1.0, 400.0, 201) - 1.0)
    hyb = rejection_prob_matrix(HybridAR(crit=CRIT_196, f_threshold=10.0), rhos, f0s)
    thr = rejection_prob_matrix(
        ThresholdTF(crit=CRIT_196, f_threshold=10.0), rhos, f0s
    )
    gap = float((hyb - thr).min())
    dominance_ok = gap >= -1e-10
    ok = bound_ok and dominance_ok
    _report(
        "hybrid AR fallback: size bound exceeds 5% at every threshold",
        ok,
        f"min |rho| = 1 size at f0*={min(r.bound for r in rows):.6f} over "
        f"[1.92, 1e4] x 60; min(hybrid - screened)={gap:.2e} on "
        f"{hyb.shape} grid",
    )
    assert ok


def test_adaptive_curve_pins_at_104_7_and_matches_table():
    t0 = time.perf_counter()
    curve = build_cvf(0.05)
    build_elapsed = time.perf_counter() - t0
    table = emit_table3(curve)
    cells_ok = (
        table[5, 0] == 4.92  # sqrt(F) = 2.5
        and table[0, 1] == 3.65  # sqrt(F) = 3.0
        and table[0, 5] == 2.16  # sqrt(F) = 7.0
    )
    t0 = time.perf_counter()
    rhos = np.linspace(-1.0, 1.0, 201)
    f0s = np.sqrt(np.linspace(1.0, 400.0, 201) - 1.0)
    sizes = rejection_prob_matrix(TFProcedure(cvf=curve), rhos, f0s)
    audit_elapsed = time.perf_counter() - t0
    max_size = float(sizes.max())
    ok = (
        abs(curve.f_tilde - 104.7) <= 0.1
        and cells_ok
        and max_size <= 0.0502
        and build_elapsed < 600.0
        and audit_elapsed < 900.0
    )
    _report(
        "F-adaptive curve: pin point, table cells, global size audit",
        ok,
        f"f_tilde={curve.f_tilde:.4f} (target 104.7 +- 0.1); "
        f"cells(2.5,3.0,7.0)=({table[5, 0]}, {table[0, 1]}, {table[0, 5]}) "
        f"vs (4.92, 3.65, 2.16); max size={max_size:.6f} <= 0.0502 "
        f"(build {build_elapsed:.1f}s, audit {audit_elapsed:.1f}s)",
    )
    assert ok


def test_adjusted_se_worked_example(cvf):
    adjusted = tf_adjusted_se(1.5, 9.0, cvf)
    ok = 2.78 <= adjusted <= 2.80
    _report(
        "adjusted se at se=1.5, F=9",
        ok,
        f"adjusted={adjusted:.6f} (target within [2.78, 2.80])",
    )
    assert ok


def test_quadrature_agrees_with_monte_carlo(cvf):
    procedures = {
        "conventional": ConventionalT(crit=CRIT_196),
        "screened": ThresholdTF(crit=CRIT_196, f_threshold=10.0),
        "hybrid": HybridAR(crit=CRIT_196, f_threshold=10.0),
        "ar": PureAR(crit=CRIT_196),
        "adaptive": TFProcedure(cvf=cvf),
    }
    n = 10**6
    t0 = time.perf_counter()
    worst_z = 0.0
    worst_at = None
    seed = 20260501
    for name, proc in procedures.items():
        for rho in AUDIT_RHOS:
            for f0 in AUDIT_F0S:
                point = NuisancePoint(rho=rho, f0=f0)
                truth = rejection_prob(proc, point).prob
                est, se = mc_rejection(
                    proc, McConfig(n_draws=n, seed=seed, point=point)
                )
                seed += 1
                floor = math.sqrt(max(truth * (1.0 - truth), 0.0) / n)
                se_eff = max(se, floor, 1e-7)
                z = abs(est - truth) / se_eff
                if z > worst_z:
                    worst_z, worst_at = z, (name, rho, f0)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and elapsed < 600.0
    _report(
        "quadrature vs simulation, 5 procedures x 25 points",
        ok,
        f"worst |z|={worst_z:.2f} at {worst_at} "
        f"(<= 3 required; {elapsed:.1f}s at n=1e6)",
    )
    assert ok


def test_identity_closes_and_ar_is_exact():
    dgp = SyntheticDGP(n_obs=400, beta=0.0, pi=0.2, rho_uv=0.6)
    worst_rel = 0.0
    ar_rejects = 0
    for seed in range(1000):
        _, cs = simulate_iv_dataset(dgp, seed)
        lhs = cs.t * cs.t
        rhs = t_squared_identity(cs.t_ar, cs.f, cs.rho_hat)
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(lhs, 1e-300))
        if cs.t_ar * cs.t_ar > Q95:
            ar_rejects += 1
    rate = ar_rejects / 1000.0

    ar = PureAR(crit=Q95)
    worst_dev = 0.0
    for rho in AUDIT_RHOS:
        for f0 in AUDIT_F0S:
            res = rejection_prob(ar, NuisancePoint(rho=rho, f0=f0), tol=1e-6)
            worst_dev = max(worst_dev, abs(res.prob - 0.05))
    ok = worst_rel <= 1e-10 and worst_dev <= 1e-6 and 0.0293 <= rate <= 0.0707
    _report(
        "t^2 identity on 1000 synthetic datasets; AR size flat at 5%",
        ok,
        f"worst identity rel err={worst_rel:.2e} (<= 1e-10); "
        f"worst |AR size - 0.05|={worst_dev:.2e} over 25 points (<= 1e-6); "
        f"finite-sample AR rate={rate:.4f} in [0.0293, 0.0707]",
    )
    assert ok


def test_corpus_audit_properties(cvf, fixture_corpus):
    conventional = ConventionalT(crit=Q95)
    adaptive = TFProcedure(cvf=cvf)
    screened = ThresholdTF(crit=Q95, f_threshold=104.7)

    # dominance: the adaptive rule only ever rejects where the conventional
    # rule does (c(F) >= q everywhere), and the F > 104.7 screen implies both
    dominance_ok = True
    for t in np.linspace(-6.0, 6.0, 121):
        for F in np.linspace(0.0, 300.0, 151):
            rec = SpecRecord(spec_id="g", paper_id="p", t=float(t), F=float(F))
            if classify_record(rec, adaptive) == SIGNIFICANT:
                dominance_ok &= classify_record(rec, conventional) == SIGNIFICANT
            if classify_record(rec, screened) == SIGNIFICANT:
                dominance_ok &= F > 104.7
                dominance_ok &= classify_record(rec, conventional) == SIGNIFICANT

    # weight computation: explicit weights win; implicit ones split per paper
    records = read_corpus_csv(fixture_corpus)
    procs = {"conventional": conventional, "adaptive": adaptive}
    report = classify_corpus(records, procs)
    weights_ok = (
        report.baseline_cell_count == 2
        and math.isclose(report.baseline_cell_weight, 0.5, rel_tol=1e-12)
    )
    explicit = [
        SpecRecord(spec_id="a", paper_id="p", t=3.0, F=200.0, weight=3.0),
        SpecRecord(spec_id="b", paper_id="p", t=0.5, F=200.0, weight=1.0),
    ]
    shares = classify_corpus(explicit, procs).procedures["conventional"]
    weights_ok &= math.isclose(
        shares.weighted_shares["sig_F_above"], 0.75, rel_tol=1e-12
    )

    # permutation invariance: the serialized report ignores input order
    rng = random.Random(1)
    base = report_to_json(classify_corpus(records, procs))
    perm_ok = True
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        perm_ok &= report_to_json(classify_corpus(shuffled, procs)) == base

    ok = dominance_ok and weights_ok and perm_ok
    _report(
        "corpus audit: dominance, weights, permutation invariance",
        ok,
        f"dominance={dominance_ok}, weights={weights_ok}, "
        f"permutation={perm_ok} on fixture + synthetic grids",
    )
    assert ok
