"""Audit 147 rules with `worst_case_size`: every certificate field, one digest.

The battery is the tF rule at every level of the 0.005 grid over (0, 0.25]
whose curve builds (43 of 50), `ConventionalT` at crit in {1, 2, Q95,
1.96^2, 4.5, 6.6349, 3.43^2, 20}, and `ThresholdTF` and `HybridAR` at those
crits by F in {1, 3, 10, 50, 104.7, 300}.  Each rule gives one line with
every `WorstCase` field as its repr, or the error's type and message.  One
line names the levels whose curve did not build.  The total of
`cells_refined` and a sha256 over all those lines follow, so two trees whose
audits agree bit for bit print the same digest.  It takes about 20 s on a
2-core Intel Xeon.

    PYTHONPATH=src python scripts/audit_survey.py
"""

import dataclasses
import hashlib

from tfiv.errors import ConstructionError, TfivError
from tfiv.gaussian import Q95
from tfiv.size_engine import ConventionalT, HybridAR, ThresholdTF, TFProcedure
from tfiv.tf_critical import build_cvf
from tfiv.worst_case import worst_case_size

LEVELS = [k / 200 for k in range(1, 51)]
CRITS = [1.0, 2.0, Q95, 1.96**2, 4.5, 6.6349, 3.43**2, 20.0]
GATES = [1.0, 3.0, 10.0, 50.0, 104.7, 300.0]


def rules():
    """(label, rule) for the battery, and the levels whose curve did not build."""
    battery, unbuilt = [], []
    for alpha in LEVELS:
        try:
            battery.append((f"tF alpha={alpha!r}", TFProcedure(build_cvf(alpha))))
        except ConstructionError:
            unbuilt.append(alpha)
    for crit in CRITS:
        battery.append((f"ConventionalT crit={crit!r}", ConventionalT(crit)))
    for cls in (ThresholdTF, HybridAR):
        for crit in CRITS:
            for f_threshold in GATES:
                battery.append(
                    (f"{cls.__name__} crit={crit!r} F={f_threshold!r}", cls(crit, f_threshold))
                )
    return battery, unbuilt


def main() -> None:
    battery, unbuilt = rules()
    digest = hashlib.sha256()

    def emit(line: str) -> None:
        print(line, flush=True)
        digest.update((line + "\n").encode())

    refined = 0
    for label, proc in battery:
        try:
            wc = worst_case_size(proc)
        except TfivError as exc:
            emit(f"{label}: {type(exc).__name__}: {exc}")
        else:
            refined += wc.cells_refined
            emit(f"{label}: " + " ".join(f"{k}={v!r}" for k, v in dataclasses.asdict(wc).items()))
    emit(f"curve levels that did not build: {unbuilt!r}")
    print(f"{len(battery)} rules, cells_refined total {refined}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
