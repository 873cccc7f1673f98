"""Regenerate the headline constants from scratch and print them.

Covers: the worst-case size of the (1.96^2, F > 10) threshold rule, the
corrected threshold 104.7, the corrected critical value 3.43, the validity
bounds (142.6, 0.565) at the 5% level and (none, 0.43) at the 1% level, and
the hybrid-rule nonexistence bound.  It ends with the threshold solver at
the chi-square quantiles of 5, 10, 20 and 1%, at crit = 3.99, 4, 4.5, 5
and 6 with alpha 1e-4 above the ridge limit (where the gate must be lifted
past a ridge hump) and at (2.58^2, 1%), the critical-value solver's floor
case, every `worst_case_size` field of the 1%, 5% and 10% tF rules and of
the CLI's threshold-2b, threshold-2c and hybrid-2b rules, and
`rejection_prob` (what `tfiv size` prints) for the six CLI rules at three
nuisance points and at rho = 1 with f0 in {0.5, 1.95, 12.66, 1e4}, all in
repr, so two trees can be diffed for bit identity.  It takes about 10 s on
a 2-core Intel Xeon, a quarter of it in the two validity-region grids.
"""

import math
import time

import numpy as np

from tfiv.cli import _SIZE_PROCEDURES, _build_procedure
from tfiv.gaussian import Q95, chi2_quantile_1df, ndtr
from tfiv.size_engine import NuisancePoint, TFProcedure, ThresholdTF, rejection_prob
from tfiv.tf_critical import build_cvf
from tfiv.worst_case import (
    hybrid_nonexistence_certificate,
    solve_critical_value,
    solve_threshold_F,
    validity_region,
    worst_case_size,
)

Q99 = chi2_quantile_1df(0.99)


def timed(label: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    print(f"  [{time.perf_counter() - t0:6.1f} s] {label}")
    return out


def main() -> None:
    print("worst-case size of the F > 10 threshold rule at the 1.96 cutoff:")
    wc = timed("worst_case_size", worst_case_size, ThresholdTF(Q95, 10.0))
    print(f"    size = {wc.max_prob:.6f} at rho = {wc.arg_rho:g}, f0 = {wc.arg_f0:.4f}")
    print(
        f"    certificate {wc.certified_tol:.3e} = max(1e-6, grid excess {wc.grid_excess:.3e}, "
        f"approach violation {wc.approach_violation:.3e}, far excess {wc.far_excess:.3e}); "
        f"{wc.cells_refined} coarse cells refined; grid ends at f0_far = {wc.f0_far:g}"
    )
    print(f"    (10/(sqrt(10)+1.96) = {10.0 / (math.sqrt(10.0) + 1.96):.4f})")

    print("corrected F threshold keeping the 1.96 cutoff at 5%:")
    fbar = timed("solve_threshold_F", solve_threshold_F, Q95, 0.05)
    print(f"    F-bar = {fbar:.4f}")

    print("corrected critical value keeping the F > 10 screen at 5%:")
    crit = timed("solve_critical_value", solve_critical_value, 10.0, 0.05)
    print(f"    sqrt(c) = {math.sqrt(crit):.4f} (inflation {math.sqrt(crit) / 1.96:.4f}x)")

    print("validity bounds for the conventional 5% test:")
    vr = timed("validity_region 5%", validity_region, Q95, 0.05)
    print(f"    E[F]-bar = {vr.ef_bar:.4f}, rho-bar = {vr.rho_bar:.4f}")

    print("validity bounds for the conventional 1% test:")
    vr1 = timed("validity_region 1%", validity_region, Q99, 0.01)
    ef_text = "none" if vr1.ef_bar is None else f"{vr1.ef_bar:.4f}"
    print(f"    E[F]-bar = {ef_text}, rho-bar = {vr1.rho_bar:.4f}")
    fbar1 = timed("solve_threshold_F 1%", solve_threshold_F, Q99, 0.01)
    print(f"    corroboration: solve_threshold_F -> {fbar1!r}")

    print("hybrid rule cannot be fixed by any threshold (1.96 cutoff):")
    rows = timed(
        "hybrid_nonexistence_certificate",
        hybrid_nonexistence_certificate,
        Q95,
        np.geomspace(1.92075, 1e4, 60),
    )
    worst = min(r.bound for r in rows)
    print(f"    min |rho| = 1 size at f0* over thresholds = {worst:.6f} (> 0.05: {worst > 0.05})")

    print("solver answers in repr:")
    for alpha in (0.05, 0.10, 0.20, 0.01):
        q = chi2_quantile_1df(1.0 - alpha)
        fbar_q = timed(f"solve_threshold_F({q!r}, {alpha})", solve_threshold_F, q, alpha)
        print(f"    {fbar_q!r}")
    # Past the f0* gate the ridge still tops alpha = limit + 1e-4.
    for c in (3.99, 4.0, 4.5, 5.0, 6.0):
        alpha = 2.0 * float(ndtr(-math.sqrt(c))) + 1e-4
        fbar_hump = timed(f"solve_threshold_F({c}, {alpha!r})", solve_threshold_F, c, alpha)
        print(f"    {fbar_hump!r}")
    c = 2.58 * 2.58
    fbar_258 = timed(f"solve_threshold_F({c!r}, 0.01)", solve_threshold_F, c, 0.01)
    print(f"    {fbar_258!r}")
    floor = timed("solve_critical_value(200.0, 0.05)", solve_critical_value, 200.0, 0.05)
    print(f"    {floor!r}")
    cvf = timed("build_cvf(0.05)", build_cvf, 0.05)
    wc_tf = timed("worst_case_size(TFProcedure(cvf))", worst_case_size, TFProcedure(cvf))
    print(f"    {wc_tf!r}")
    for level in (0.01, 0.10):
        curve = timed(f"build_cvf({level})", build_cvf, level)
        wc_level = timed(f"worst_case_size(TFProcedure({level}))", worst_case_size, TFProcedure(curve))
        print(f"    {wc_level!r}")

    print("rejection_prob(rule, NuisancePoint(rho, f0)) -> prob, abs_err, for the CLI rules:")
    # The CLI's own rules, the curve last: the one built and timed above.
    rules = {name: _build_procedure(name, 0.05) for name in _SIZE_PROCEDURES if name != "tf"}
    rules["tf"] = TFProcedure(cvf)
    points = [(0.5, 1.5), (0.99, 0.7), (0.999, 10.0)]
    points += [(1.0, f0) for f0 in (0.5, 1.95, 12.66, 1e4)]
    for rho, f0 in points:
        for name, rule in rules.items():
            res = rejection_prob(rule, NuisancePoint(rho, f0))
            print(f"    {name} ({rho}, {f0}): {res.prob!r}, {res.abs_err!r}")

    print("worst_case_size of the gated CLI rules:")
    for name in ("threshold-2b", "threshold-2c", "hybrid-2b"):
        wc_rule = timed(f"worst_case_size({name})", worst_case_size, rules[name])
        print(f"    {wc_rule!r}")


if __name__ == "__main__":
    main()
