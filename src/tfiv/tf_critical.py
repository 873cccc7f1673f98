"""Observed-F-adaptive critical value curves, tables, and adjusted errors.

At the degenerate corner |rho| = 1 the joint law of (t_ar, f) collapses to a
single standard normal draw zeta = f - f0, the F statistic is f^2, and the
t-statistic satisfies |t| = |zeta| |f| / f0.  A nonincreasing curve g over
x = sqrt(F) of critical values for |t| is chosen so that the rejection event
{ |t| > g(|f|), F >= q } has probability alpha at every ridge position f0
where that is achievable.  That corner is the binding one over the whole
nuisance space, so the resulting F-dependent test is level-alpha everywhere
while spending much less than the worst-case constant critical value once
the observed F is strong.

Representation: knots (x_i, g_i) in x = sqrt(F), the curve's only
definition, held as one read-only float64 array of shape (n, 2), stored
column-major so that the positions and the values are each a contiguous
view (`CriticalValueFunction.arrays`).  They lie on a 0.005 pitch from
just above sqrt(q) to the pin x~ = sqrt(f_tilde), where the requirement
envelope crosses sqrt(q), and end with the pin knot (x~, sqrt(q)); a curve
that never pins runs on to 12.
Every evaluator reads g as the knots' linear interpolant, held flat at the
first value down to sqrt(q) and at the last beyond the last knot, and +inf
below sqrt(q), where the test never rejects; c(F) = g(sqrt(F))^2, which is
q itself beyond the pin, since sqrt(q)^2 rounds back to q (checked at 1, 2,
5, 10, 15 and 20%).  Just above sqrt(q) the true curve diverges, so knot
values are capped at 50 -- harmless, because for the ridge positions that
would demand more, rejecting everything above the support edge still yields
size below alpha.  Linear interpolation between knots overstates the convex
true curve, so between-knot queries are conservative.

Construction is a fixed point.  It starts from the cap, g = 50 at every
knot, a curve that rejects almost nothing above the support edge.  Each
sweep computes, for every f0 on a dense grid, the mass the current curve
already rejects on the lower tail (f <= -sqrt(q)) and on the interior hump
(sqrt(q) < f < f0), converts the remaining allowance into the upper-tail
boundary zeta = z, and records the requirement (x, y) =
(f0 + z, (f0 + z) z / f0): the curve value at x that makes this f0's size
exactly alpha.  The new curve is the nonincreasing upper envelope of all
requirements, and sweeps repeat until the knot values stabilize.  Both
rejected-mass pieces are computed exactly: on each knot interval the margin
is a quadratic minus a linear function, so crossings are quadratic roots,
not searches.  The sweep and the size engine's |rho| = 1 path of every
rule share one evaluator, `size_engine._rho1_masses`, vectorised over f0;
the sweep hands it the knots after one at the support edge, as
`TFProcedure.cutoff_knots` does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError
from .gaussian import chi2_quantile_1df, ndtri
from .size_engine import TFProcedure, _rho1_masses, rejection_prob_profile

__all__ = [
    "CriticalValueFunction",
    "default_knot_grid",
    "build_cvf",
    "cvf_eval",
    "tf_adjusted_se",
    "emit_table3",
    "table3_csv",
    "save_cvf",
    "load_cvf",
]

_SQRT_CRIT_CAP = 50.0
_KNOT_PITCH = 0.005
_SWEEP_PITCH = 0.0025
_MAX_SWEEPS = 200
_CONVERGED = 1e-6
_FILE_FORMAT = "tfiv-cvf-v2"


@dataclass(frozen=True, eq=False)
class CriticalValueFunction:
    """Nonincreasing sqrt-critical curve over sqrt(F) with a support edge.

    ``knots`` are (sqrt_F, sqrt_crit) pairs, and ``lower_support`` is the F
    below which the test never rejects.  The knots alone define the curve
    (see the module docstring); `sqrt_crit_profile` is its one evaluator.
    Any sequence of pairs is accepted and copied into one read-only
    column-major (n, 2) float64 array, so the curve cannot be edited after
    validation.  Curves compare by identity.
    """

    alpha: float
    knots: np.ndarray
    lower_support: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 0.25):
            raise DomainError(f"alpha must lie in (0, 0.25], got {self.alpha!r}")
        if not (math.isfinite(self.lower_support) and self.lower_support > 0.0):
            raise DomainError("lower_support must be positive and finite")
        try:
            knots = np.array(self.knots, dtype=float, order="F")
        except (TypeError, ValueError) as exc:
            raise DomainError("knots must be (sqrt F, sqrt crit) pairs") from exc
        if knots.ndim != 2 or knots.shape[1] != 2 or not knots.size:
            raise DomainError(f"knots must be one or more pairs, got shape {knots.shape}")
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        xs, gs = self.arrays
        sq = math.sqrt(self.lower_support)
        if np.any(~np.isfinite(knots)):
            raise DomainError("knots must be finite")
        if xs.size > 1 and np.any(np.diff(xs) <= 0.0):
            raise DomainError("knot positions must be strictly increasing")
        if xs[0] <= sq:
            raise DomainError("knots must start above the support edge")
        if np.any(np.diff(gs) > 1e-12):
            raise DomainError("knot values must be nonincreasing")
        if np.any(gs < sq - 1e-9) or np.any(gs > _SQRT_CRIT_CAP + 1e-9):
            raise DomainError("knot values must lie between sqrt(support) and the cap")

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(knot positions, knot values): the two columns of ``knots``, as read-only views."""
        return self.knots[:, 0], self.knots[:, 1]

    @property
    def f_tilde(self) -> float:
        """F of the first knot at sqrt(lower_support), the pin; +inf if none is."""
        xs, gs = self.arrays
        pinned = np.flatnonzero(gs <= math.sqrt(self.lower_support))
        if not pinned.size:
            return math.inf
        x = float(xs[pinned[0]])
        return x * x

    def sqrt_crit_profile(self, x) -> np.ndarray:
        """sqrt-critical values at sqrt(F) positions x; +inf below support."""
        arr = np.asarray(x, dtype=float)
        xs, gs = self.arrays
        return np.where(arr < math.sqrt(self.lower_support), np.inf, np.interp(arr, xs, gs))


def default_knot_grid(alpha: float) -> np.ndarray:
    """Knot positions in sqrt(F): 0.005 pitch from just above the support."""
    if not (0.0 < alpha <= 0.25):
        raise DomainError(f"alpha must lie in (0, 0.25], got {alpha!r}")
    sq = math.sqrt(chi2_quantile_1df(1.0 - alpha))
    start = round(sq + 0.001, 3)
    while start <= sq:
        start += 0.001
    return np.arange(start, 12.0 + 1e-9, _KNOT_PITCH)


def _sweep_requirements(
    xs: np.ndarray, gs: np.ndarray, sq: float, f0s: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Jacobi sweep: requirement points (x, y) sorted by x."""
    lower, hump, _ = _rho1_masses(np.append(sq, xs), np.append(gs[0], gs), f0s)
    need = alpha - (lower + hump)
    z = ndtri(1.0 - need)
    x_req = f0s + z
    keep = (need > 1e-14) & (x_req > sq)
    rx = x_req[keep]
    ry = rx * z[keep] / f0s[keep]
    order = np.argsort(rx)
    return rx[order], ry[order]


def _upper_envelope(ry: np.ndarray) -> np.ndarray:
    """Nonincreasing completion: value at x is the max requirement at >= x."""
    return np.maximum.accumulate(ry[::-1])[::-1]


def build_cvf(alpha: float) -> CriticalValueFunction:
    """Construct the F-adaptive critical-value curve at level alpha.

    Runs the fixed-point sweep described in the module docstring, from the
    cap curve (50 at every knot), on the `default_knot_grid` (0.005 pitch
    from just above sqrt(q) to 12), ends the knots at the pin
    (sqrt(f_tilde), sqrt(q)), where the requirement envelope crosses
    sqrt(q) (a curve whose envelope never does keeps the whole grid), and
    self-audits the result on the ridge: |size - alpha| <= 1e-4 on the band
    where the construction owns the size exactly, and excess-only bounds on
    the cap window near f0 = 0 and through the pin-deficit basin below
    f_tilde, with both zone edges and tolerances scaled to alpha (see
    ``_self_audit``).

    Raises ConstructionError if the sweep fails to stabilize (max knot
    change above 1e-6 after the iteration cap) or the self-audit fails.
    """
    if not (isinstance(alpha, float) and 0.0 < alpha <= 0.25):
        raise DomainError(f"alpha must be a float in (0, 0.25], got {alpha!r}")
    q = chi2_quantile_1df(1.0 - alpha)
    sq = math.sqrt(q)
    xs = default_knot_grid(alpha)

    f0s = np.arange(0.02, sq + 8.8, _SWEEP_PITCH)
    gs = np.full(xs.size, _SQRT_CRIT_CAP)

    rx = ry = None
    delta = math.inf
    for _ in range(_MAX_SWEEPS):
        rx, ry = _sweep_requirements(xs, gs, sq, f0s, alpha)
        if rx.size < 2:
            raise ConstructionError("requirement sweep produced no usable points")
        env = _upper_envelope(ry)
        g_new = np.interp(xs, rx, env)
        np.clip(g_new, sq, _SQRT_CRIT_CAP, out=g_new)
        g_new = _upper_envelope(g_new)
        delta = float(np.max(np.abs(g_new - gs)))
        gs = g_new
        if delta < _CONVERGED:
            break
    else:
        raise ConstructionError(
            f"fixed point failed to stabilize: max knot change {delta:.3e} "
            f"after {_MAX_SWEEPS} sweeps"
        )

    # The pin x_tilde: where the requirement envelope itself crosses sqrt(q).
    # The knots stop below it and end with (x_tilde, sqrt(q)); every
    # evaluator holds the curve flat beyond its last knot.
    env = _upper_envelope(ry)
    below = env <= sq
    if below.any() and not below[0]:
        k = int(np.nonzero(below)[0][0])
        x1, x2 = rx[k - 1], rx[k]
        y1, y2 = env[k - 1], env[k]
        x_tilde = float(x1 + (y1 - sq) * (x2 - x1) / (y1 - y2)) if y1 > y2 else float(x2)
        keep = xs < x_tilde
        xs, gs = np.append(xs[keep], x_tilde), np.append(gs[keep], sq)

    cvf = CriticalValueFunction(alpha=alpha, knots=np.column_stack([xs, gs]), lower_support=q)
    _self_audit(cvf)
    return cvf


def _self_audit(cvf: CriticalValueFunction) -> None:
    """Check the finished curve's exact ridge size zone by zone.

    Three zones, each with the tightest tolerance the representation can
    honestly meet.  On [0.5, min(8.5, sqrt(f_tilde) - 1.6)] the construction
    owns the size exactly.
    Above that, the pin (the curve cannot drop below sqrt(q)) makes the size
    fall short of alpha for a while, so only excess is policed.  Near zero
    the value cap binds: rejecting everything beyond the support edge has
    size alpha + sqrt(q) phi(sqrt(q)) f0^2 + O(f0^4), and full rejection is
    forced up to f0_edge = q / (cap + sqrt(q)), so the overshoot peaks at
    about sqrt(q) phi(sqrt(q)) f0_edge^2 (~6.3e-4 at the 5% level) -- a
    representation artifact, not a construction failure.  The cap zone and
    its tolerance scale with alpha through f0_edge.
    """
    alpha = cvf.alpha
    sq = math.sqrt(cvf.lower_support)
    # The pin drags the size into a deficit basin starting ~1.25 below
    # x_tilde (the monotone envelope cannot follow the pointwise
    # requirement down through sq), so exactness is only owed below it.
    strict_end = min(8.5, math.sqrt(cvf.f_tilde) - 1.6)
    strict = np.arange(0.5, strict_end + 1e-9, 0.01) if strict_end >= 0.6 else np.empty(0)
    f0_edge = cvf.lower_support / (_SQRT_CRIT_CAP + sq)
    # Partial-cap effects linger a little past the full-rejection edge;
    # start the excess-only zone beyond them, on the audit pitch.
    cap_end = 0.05 * math.ceil(1.25 * f0_edge / 0.05)
    broad = np.arange(cap_end, 40.0 + 1e-9, 0.05)
    capped = np.arange(0.0, cap_end, 0.005)
    phi_sq = math.exp(-0.5 * sq * sq) / math.sqrt(2.0 * math.pi)
    cap_tol = max(1.35 * sq * phi_sq * f0_edge * f0_edge, 2.5e-4)
    # One read of the ridge: each f0's value is independent of the others.
    f0s = np.concatenate([strict, broad, capped])
    size = rejection_prob_profile(TFProcedure(cvf=cvf), 1.0, f0s)
    d_strict, d_broad, d_cap = np.split(size - alpha, [strict.size, strict.size + broad.size])
    for zone, miss, tol, what in (
        (strict, np.abs(d_strict), 1e-4, "ridge size misses alpha"),
        (broad, d_broad, 1e-4, "ridge size exceeds alpha"),
        (capped, d_cap, cap_tol, "cap-zone size exceeds alpha"),
    ):
        if miss.size and miss.max() > tol:
            j = int(np.argmax(miss))
            raise ConstructionError(f"{what} by {miss[j]:.2e} at f0={zone[j]:.3f}")


def cvf_eval(cvf: CriticalValueFunction, F: float) -> float:
    """Critical value for t^2 at observed first-stage F; may be +inf.

    `TFProcedure(cvf).crit_at(F)`: c(F) = g(sqrt(F))^2, g the curve's
    `sqrt_crit_profile`, infinite below sqrt(lower_support) (the test cannot
    reject), the knots interpolated linearly in sqrt(F) between them, the
    first (capped) value left of the first knot, and the last beyond the
    last knot -- sqrt(q) from the pin on, where c(F) = q.
    """
    if not (isinstance(F, (int, float)) and math.isfinite(F) and F >= 0.0):
        raise DomainError(f"F must be a finite nonneg real, got {F!r}")
    return float(TFProcedure(cvf).crit_at(F))


def tf_adjusted_se(se: float, F: float, cvf: CriticalValueFunction) -> float:
    """Standard error inflated so +-sqrt(q) times it is a level-alpha CI.

    Returns se * sqrt(c(F)/q), c from `cvf_eval`; +inf when F is below the
    support (no finite interval is valid there), and exactly se from the pin
    on (F >= f_tilde), where c(F) = q.
    """
    if not (isinstance(se, (int, float)) and math.isfinite(se) and se > 0.0):
        raise DomainError(f"se must be a positive finite real, got {se!r}")
    c = cvf_eval(cvf, F)
    if math.isinf(c):
        return math.inf
    return se * math.sqrt(c / cvf.lower_support)


def _round_up_2dp(v: float) -> float:
    """Round to two decimals, half up, bumping once more if still below v."""
    n = math.floor(v * 100.0 + 0.5)
    if v > n / 100.0 + 1e-12:
        n += 1
    return n / 100.0


def _require_table3_alpha(alpha: float) -> None:
    if abs(alpha - 0.05) > 1e-9:
        raise DomainError("the quick-reference table is defined for alpha = 0.05")


def emit_table3(cvf: CriticalValueFunction) -> np.ndarray:
    """10x8 grid of |t| critical values over sqrt(F) = 2.0 ... 9.9.

    Rows are the decimal part (0.0-0.9), columns the integer part (2-9);
    each cell is the curve's sqrt-critical value rounded up to two decimals,
    so table users are never anticonservative.
    """
    _require_table3_alpha(cvf.alpha)
    x = np.arange(2, 10) + np.arange(10)[:, None] / 10.0
    g = cvf.sqrt_crit_profile(x)
    return np.array([[_round_up_2dp(float(v)) for v in row] for row in g])


def table3_csv(cvf: CriticalValueFunction) -> str:
    """CSV of emit_table3: header sqrtF_int,2..9; rows keyed 0.0-0.9."""
    table = emit_table3(cvf)
    lines = ["sqrtF_int," + ",".join(str(c) for c in range(2, 10))]
    for r in range(10):
        cells = ",".join(f"{table[r, c]:.2f}" for c in range(8))
        lines.append(f"{r / 10:.1f},{cells}")
    return "\n".join(lines) + "\n"


def _canonical_payload(cvf: CriticalValueFunction) -> str:
    payload = {
        "alpha": float(cvf.alpha),
        "lower_support": float(cvf.lower_support),
        "knots": cvf.knots.tolist(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cache_name(alpha: float) -> str:
    """File name of the curve at level alpha: exact alpha, by its repr."""
    return f"cvf-alpha{alpha!r}.json"


def save_cvf(cvf: CriticalValueFunction, path) -> None:
    """Serialize the curve with a content checksum for cache reuse.

    The file is written under a temporary name in the target directory and
    then renamed over ``path``, so a reader sees the old file or the new
    one, never a partial write.
    """
    canonical = _canonical_payload(cvf)
    doc = {
        "format": _FILE_FORMAT,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "payload": json.loads(canonical),
    }
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)


def load_cvf(path) -> CriticalValueFunction:
    """Load a serialized curve; ConstructionError unless format, checksum and payload hold."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != _FILE_FORMAT:
        raise ConstructionError(f"not a recognized curve file: {path}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ConstructionError(f"malformed curve file: {path}")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    if digest != doc.get("sha256"):
        raise ConstructionError(f"curve file checksum mismatch: {path}")
    try:
        knots = np.array(payload["knots"], dtype=float)
        alpha, support = float(payload["alpha"]), float(payload["lower_support"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed curve file: {path}") from exc
    if knots.ndim != 2 or knots.shape[1] != 2:
        raise ConstructionError(f"malformed curve file: {path}")
    return CriticalValueFunction(alpha=alpha, knots=knots, lower_support=support)
