"""Where the worst-case audit spends its time, by |rho| band.

Runs `worst_case_size` for the 5% tF rule and for the F > 10 screen at the
1.96^2 cutoff, with `rejection_prob_profile`, the dense panel kernel
`_weighted_rejection` and the region kernel `_t_region_tables` wrapped from
outside, and prints per |rho| band (< 0.99, < 0.999, >= 0.999 and = 1): the
profile calls, the f0 points they evaluated, their seconds, the K15
panels their passes laid and the (f0, panel) pairs those meant, the dense
kernel's calls and the node-f0 pairs it evaluated, and the region kernel's
calls, the nodes it tabulated and its seconds.  It also prints f0_far,
where the audit's grid ended: past it a closed bound stands in for the
grid, and no profile below |rho| = 1 goes there.  A second run of each audit,
under tracemalloc, gives each band's peak: the most that one profile call
allocated above what was allocated before it, in MB (10^6 bytes).
tracemalloc about doubles the audit's time, so the timed run is untraced.

    PYTHONPATH=src python scripts/audit_bands.py
"""

import contextlib
import math
import time
import tracemalloc

import numpy as np

from tfiv import size_engine, worst_case
from tfiv.size_engine import ThresholdTF, TFProcedure
from tfiv.tf_critical import build_cvf

BANDS = ("< 0.99", "< 0.999", ">= 0.999", "= 1")


def _band(rho: float) -> str:
    a = abs(rho)
    if a < 0.99:
        return BANDS[0]
    if a < 0.999:
        return BANDS[1]
    return BANDS[2] if a < 1.0 else BANDS[3]


def audit_bands(proc) -> tuple[dict, float, float]:
    """Per-band counters, the audit's total seconds and its f0_far.

    A band's row is [calls, f0 points, seconds, kernel calls, dense
    evaluations, table calls, table nodes, table seconds, panels,
    (f0, panel) pairs].
    """
    stats = {b: [0, 0, 0.0, 0, 0, 0, 0, 0.0, 0, 0] for b in BANDS}
    current = []
    profile, kernel = size_engine.rejection_prob_profile, size_engine._weighted_rejection
    tables, panel_pass = size_engine._t_region_tables, size_engine._panel_pass

    def timed_profile(proc, rho, f0s):
        row = stats[_band(rho)]
        current.append(row)
        t0 = time.perf_counter()
        try:
            out = profile(proc, rho, f0s)
        finally:
            row[2] += time.perf_counter() - t0
            current.pop()
        row[0] += 1
        row[1] += np.size(f0s)
        return out

    def counted_kernel(regions, d, rho, s):
        if current:
            current[-1][3] += 1
            current[-1][4] += math.prod(np.broadcast_shapes(np.shape(d), *map(np.shape, regions)))
        return kernel(regions, d, rho, s)

    def timed_tables(f, c, rho):
        t0 = time.perf_counter()
        out = tables(f, c, rho)
        if current:
            current[-1][5] += 1
            current[-1][6] += np.size(f)
            current[-1][7] += time.perf_counter() - t0
        return out

    def counted_pass(proc, rho, s, f0s, a, b):
        if current:
            first = np.searchsorted(b, f0s - size_engine._F_WINDOW, side="right")
            stop = np.searchsorted(a, f0s + size_engine._F_WINDOW, side="left")
            current[-1][8] += a.size
            current[-1][9] += int((stop - first).sum())
        return panel_pass(proc, rho, s, f0s, a, b)

    with _patched(
        timed_profile,
        (size_engine, "_weighted_rejection", counted_kernel),
        (size_engine, "_t_region_tables", timed_tables),
        (size_engine, "_panel_pass", counted_pass),
    ):
        t0 = time.perf_counter()
        wc = worst_case.worst_case_size(proc)
        total = time.perf_counter() - t0
    return stats, total, wc.f0_far


def band_peaks(proc) -> dict:
    """Per band, the largest tracemalloc peak of one profile call, in bytes."""
    peaks = dict.fromkeys(BANDS, 0)
    profile = size_engine.rejection_prob_profile

    def traced_profile(proc, rho, f0s):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = profile(proc, rho, f0s)
        band = _band(rho)
        peaks[band] = max(peaks[band], tracemalloc.get_traced_memory()[1] - before)
        return out

    tracemalloc.start()
    try:
        with _patched(traced_profile):
            worst_case.worst_case_size(proc)
    finally:
        tracemalloc.stop()
    return peaks


@contextlib.contextmanager
def _patched(profile, *patches):
    """Replace rejection_prob_profile with ``profile``, and each (module, name) with its fn."""
    patches = [
        (size_engine, "rejection_prob_profile", profile),
        (worst_case, "rejection_prob_profile", profile),
        *patches,
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, fn in patches:
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def main() -> None:
    rules = {
        "tF rule, 5%": lambda: TFProcedure(build_cvf(0.05)),
        "F > 10 screen, 1.96^2": lambda: ThresholdTF(1.96**2, 10.0),
    }
    for label, make in rules.items():
        proc = make()
        stats, total, f0_far = audit_bands(proc)
        peaks = band_peaks(proc)
        print(f"{label}: worst_case_size {total:.2f} s, grid ends at f0_far = {f0_far:g}")
        print(
            f"  {'|rho|':>9} {'calls':>6} {'f0 points':>10} {'seconds':>8}"
            f" {'panels':>8} {'f0-panel':>10} {'kernel calls':>12} {'dense evals':>12}"
            f" {'table calls':>11} {'table nodes':>12} {'table s':>8} {'peak MB':>8}"
        )
        for band in BANDS:
            calls, points, secs, kernel_calls, evals, t_calls, t_nodes, t_secs = stats[band][:8]
            panels, pairs = stats[band][8:]
            print(
                f"  {band:>9} {calls:6d} {points:10d} {secs:8.3f}"
                f" {panels:8,d} {pairs:10,d} {kernel_calls:12,d} {evals:12,d}"
                f" {t_calls:11,d} {t_nodes:12,d} {t_secs:8.3f} {peaks[band] / 1e6:8.2f}"
            )
        kernel_calls, evals, t_calls, t_nodes, t_secs, panels, pairs = map(
            sum, list(zip(*stats.values()))[3:]
        )
        print(
            f"  {'all':>9} {'':6} {'':10} {'':8} {panels:8,d} {pairs:10,d}"
            f" {kernel_calls:12,d} {evals:12,d}"
            f" {t_calls:11,d} {t_nodes:12,d} {t_secs:8.3f}"
        )


if __name__ == "__main__":
    main()
