"""Survey both solvers over levels 1-20%: each answer, its audit, its work.

For alpha from 1% to 20% by 0.5% it runs `solve_threshold_F` at
crit = q_{1-alpha} and 1.96^2, and `solve_critical_value` at F in {5, 10,
20, 30, 50, 100, 200}: 351 inputs.  Each gives one line: the input, the
answer's repr (or the error's type), the audited max_prob - alpha in ulps of
alpha ("-" when no audit ran), the calls to the exact ridge supremum
`_ridge_sup` and the calls to the |rho| = 1 kernel at f0* (the threshold
solver's first stage).  The totals follow: answers, Nones and errors, the
largest audited excess in ulps, and the two call counts.  The lines of two
trees can be diffed.  It takes about 55 s on a 2-core Intel Xeon.

    python scripts/solver_survey.py
"""

import math
import sys

from tfiv import worst_case
from tfiv.errors import TfivError
from tfiv.gaussian import chi2_quantile_1df

LEVELS = [k / 200 for k in range(2, 41)]
GATES = [5.0, 10.0, 20.0, 30.0, 50.0, 100.0, 200.0]


def wrap(name: str, log) -> None:
    """Replace worst_case.<name> with a wrapper that passes each result to log."""
    inner = getattr(worst_case, name)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        log(out)
        return out

    setattr(worst_case, name, wrapper)


def main() -> None:
    seen = {"_ridge_sup": [], "rejection_prob_rho1": [], "worst_case_size": []}
    for name, log in seen.items():
        wrap(name, log.append)

    inputs = []
    for alpha in LEVELS:
        for crit in (chi2_quantile_1df(1.0 - alpha), 1.96**2):
            inputs.append((f"threshold-F crit={crit!r}", worst_case.solve_threshold_F, crit, alpha))
        for f_threshold in GATES:
            inputs.append(
                (f"critical-value F={f_threshold!r}", worst_case.solve_critical_value,
                 f_threshold, alpha)
            )

    tally = {"answer": 0, "None": 0, "error": 0}
    worst_ulps = -math.inf
    ridge_total = f0star_total = 0
    for label, solver, arg, alpha in inputs:
        for log in seen.values():
            log.clear()
        try:
            answer = solver(arg, alpha)
        except TfivError as exc:
            answer, kind = type(exc).__name__, "error"
        else:
            kind = "None" if answer is None else "answer"
            answer = repr(answer)
        tally[kind] += 1
        ulps = "-"
        if seen["worst_case_size"]:
            excess = (seen["worst_case_size"][-1].max_prob - alpha) / math.ulp(alpha)
            ulps = f"{excess:+.0f}"
            if kind == "answer":
                worst_ulps = max(worst_ulps, excess)
        ridge, f0star = len(seen["_ridge_sup"]), len(seen["rejection_prob_rho1"])
        ridge_total += ridge
        f0star_total += f0star
        print(f"alpha={alpha!r} {label}: {answer} ulps={ulps} ridge_sup={ridge} f0star={f0star}",
              flush=True)
    print(
        f"{len(inputs)} inputs: {tally['answer']} answers, {tally['None']} None, "
        f"{tally['error']} errors; largest audited excess {worst_ulps:+.0f} ulps; "
        f"ridge_sup calls {ridge_total}, f0* calls {f0star_total}"
    )

if __name__ == "__main__":
    sys.exit(main())
