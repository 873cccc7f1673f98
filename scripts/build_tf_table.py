"""Build the critical-value curve and write its artifacts.

Produces the quick-reference table (CSV), the versioned knot file, and a
short summary of the landmark quantities: the support, the pin knot
(sqrt(F-tilde), sqrt(q)) where the knots end, and sqrt c(F) at three F.
The knot file can be dropped into TF_CACHE_DIR so the CLI never rebuilds.
"""

import argparse
import math
from pathlib import Path

from tfiv.tf_critical import _cache_name, build_cvf, cvf_eval, save_cvf, table3_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    cvf = build_cvf(args.alpha)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    knot_path = args.out_dir / _cache_name(args.alpha)
    save_cvf(cvf, knot_path)
    print(f"wrote {knot_path} ({len(cvf.knots)} knots)")

    if abs(args.alpha - 0.05) <= 1e-9:
        table_path = args.out_dir / "table3.csv"
        table_path.write_text(table3_csv(cvf), encoding="utf-8")
        print(f"wrote {table_path}")

    ft = cvf.f_tilde
    print(f"alpha = {cvf.alpha}")
    print(f"lower support q = {cvf.lower_support:.6f}")
    if math.isfinite(ft):
        x, g = cvf.knots[-1]
        print(f"F-tilde = {ft:.4f} (pin knot: sqrt F = {x:.6f}, sqrt c = {g:.6f})")
    else:
        print("F-tilde = inf (curve never pins)")
    for F in (6.25, 9.0, 49.0):
        print(f"sqrt c({F:g}) = {math.sqrt(cvf_eval(cvf, F)):.6f}")


if __name__ == "__main__":
    main()
