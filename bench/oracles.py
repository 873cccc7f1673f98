"""Reference computations for the benchmark's output checks.

Nothing here imports tfiv.  Every value is computed from the model's
definition: under the null, (t_ar, f) is bivariate normal with means
(0, f0), unit variances and correlation rho, so given f the AR statistic is
normal with mean rho (f - f0) and sd s = sqrt(1 - rho^2), and

    t^2 > c   <=>   (f^2 - c) t_ar^2 + 2 c rho f t_ar - c f^2 > 0.

`size` integrates the conditional rejection probability of that quadratic
over f with tanh-sinh rules on the pieces between the rule's breakpoints.
At |rho| = 1, `ridge_size` integrates the rejection set of a t rule with a
constant or curve critical value by locating its edges on a fine scan.
Normal probabilities come from `math.erfc`, not from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Two-sided 5% normal quantile and the matching chi-square(1) quantile.
Z975 = 1.959963984540054
Q95 = Z975 * Z975

_erfc = np.frompyfunc(math.erfc, 1, 1)
_SQRT2 = math.sqrt(2.0)
# The density is integrated over f0 +- this; 2 Phi(-9) < 3e-19.
_WINDOW = 9.0
# Pieces between breakpoints are cut to at most this width.
_PIECE = 0.5


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF, elementwise, via erfc (accurate in both tails)."""
    arr = np.asarray(x, dtype=float)
    return (0.5 * _erfc(-arr / _SQRT2)).astype(float)


def phi(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def local_max_size(f_threshold: float, crit: float) -> float:
    """The paper's closed form 1 - Phi(u) + Phi(-w) for the threshold rule."""
    sf, sc = math.sqrt(f_threshold), math.sqrt(crit)
    u = sf * sc / (sf + sc)
    w = (sf * sc + 2.0 * f_threshold) / (sf + sc)
    return 1.0 - phi(u) + phi(-w)


def ar_size() -> float:
    """Size of the AR test at the 5% chi-square cutoff: 2 Phi(-1.95996...)."""
    return 2.0 * phi(-Z975)


@dataclass(frozen=True)
class Curve:
    """A critical-value curve read from knots (sqrt F, sqrt c) and its support q."""

    xs: np.ndarray
    gs: np.ndarray
    q: float

    def sqrt_crit(self, x: np.ndarray) -> np.ndarray:
        """sqrt c at sqrt F = x; NaN below the support (never rejects there)."""
        x = np.asarray(x, dtype=float)
        return np.where(x >= math.sqrt(self.q), np.interp(x, self.xs, self.gs), np.nan)

    def crit(self, F: float) -> float:
        if F < self.q:
            return math.inf
        return float(np.interp(math.sqrt(F), self.xs, self.gs)) ** 2


@dataclass(frozen=True)
class Rule:
    """A rejection rule: t^2 > crit, gated at F > fbar (threshold), with the
    AR rule t_ar^2 > crit below the gate (hybrid), the AR rule alone (ar), or
    t^2 > c(F) from a curve (tf)."""

    kind: str  # "t", "threshold", "hybrid", "ar" or "tf"
    crit: float = Q95
    fbar: float = 0.0
    curve: Optional[Curve] = None


def _tanh_sinh(h: float = 1.0 / 12.0, tmax: float = 3.2) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(-tmax, tmax + 0.5 * h, h)
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = np.abs(x) < 1.0
    return x[keep], w[keep]


_TS_X, _TS_W = _tanh_sinh()


def _nodes(cuts: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh nodes and weights on the pieces between sorted cuts."""
    edges = [cuts[0]]
    for a, b in zip(cuts, cuts[1:]):
        n = max(1, math.ceil((b - a) / _PIECE))
        edges.extend(np.linspace(a, b, n + 1)[1:].tolist())
    e = np.asarray(edges)
    mid = 0.5 * (e[1:] + e[:-1])
    half = 0.5 * (e[1:] - e[:-1])
    f = (mid[:, None] + half[:, None] * _TS_X[None, :]).ravel()
    w = (half[:, None] * _TS_W[None, :]).ravel()
    return f, w


def _t_reject_prob(f: np.ndarray, c: np.ndarray, rho: float, mu: np.ndarray, s: float) -> np.ndarray:
    """P(t^2 > c | f) for t_ar ~ N(mu, s^2); c may be NaN (never rejects)."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        a = f * f - c
        b = 2.0 * c * rho * f
        e = -c * f * f
        disc = b * b - 4.0 * a * e
        ok = (disc > 0.0) & (f != 0.0) & np.isfinite(c)
        sd = np.sqrt(np.where(ok, disc, 0.0))
        qq = -0.5 * (b + np.where(b >= 0.0, 1.0, -1.0) * sd)
        qq = np.where(ok, qq, 1.0)
        r1 = qq / np.where(a == 0.0, 0.0, a)
        r2 = e / qq
        lo = np.where(ok, np.minimum(r1, r2), 0.0)
        hi = np.where(ok, np.maximum(r1, r2), 0.0)
    band = norm_cdf((hi - mu) / s) - norm_cdf((lo - mu) / s)
    return np.where(ok, np.where(a >= 0.0, 1.0 - band, band), 0.0)


def _ar_reject_prob(crit: float, mu: np.ndarray, s: float) -> np.ndarray:
    sc = math.sqrt(crit)
    return norm_cdf((-sc - mu) / s) + 1.0 - norm_cdf((sc - mu) / s)


def _curve_crossing(curve: Curve, k: float) -> float:
    """The x >= sqrt(q) where x = k g(x) (x - k g(x) increases), by bisection."""
    lo, hi = math.sqrt(curve.q), float(curve.xs[-1]) + 1.0
    if lo - k * float(np.interp(lo, curve.xs, curve.gs)) >= 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - k * float(np.interp(mid, curve.xs, curve.gs)) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14:
            break
    return hi


def _breakpoints(rule: Rule, s: float) -> list[float]:
    if rule.kind == "ar":
        return []
    if rule.kind == "tf":
        cv = rule.curve
        pts = [math.sqrt(cv.q), _curve_crossing(cv, 1.0), _curve_crossing(cv, s)]
        pts.extend(cv.xs.tolist())
    else:
        sc = math.sqrt(rule.crit)
        pts = [sc, s * sc]
        if rule.kind in ("threshold", "hybrid"):
            pts.append(math.sqrt(rule.fbar))
    return [0.0] + [v for p in pts if p > 0.0 for v in (p, -p)]


def size(rule: Rule, rho: float, f0: float) -> float:
    """Rejection probability of `rule` at (rho, f0)."""
    if abs(rho) == 1.0:
        if rule.kind == "tf":
            return ridge_size(rule.curve, f0)
        if rule.kind == "t":
            sc = math.sqrt(rule.crit)
            return ridge_size(Curve(np.array([0.0, 1.0]), np.array([sc, sc]), 0.0), f0)
        raise ValueError(f"no |rho| = 1 reference for rule kind {rule.kind!r}")
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    lo, hi = f0 - _WINDOW, f0 + _WINDOW
    cuts = sorted({lo, hi} | {b for b in _breakpoints(rule, s) if lo < b < hi})
    f, w = _nodes(cuts)
    mu = rho * (f - f0)
    dens = np.exp(-0.5 * (f - f0) ** 2) / math.sqrt(2.0 * math.pi)
    if rule.kind == "ar":
        cond = _ar_reject_prob(rule.crit, mu, s)
    elif rule.kind == "tf":
        g = rule.curve.sqrt_crit(np.abs(f))
        cond = _t_reject_prob(f, g * g, rho, mu, s)
    else:
        cond = _t_reject_prob(f, np.full(f.shape, rule.crit), rho, mu, s)
        if rule.kind != "t":
            below = f * f <= rule.fbar
            alt = _ar_reject_prob(rule.crit, mu, s) if rule.kind == "hybrid" else 0.0
            cond = np.where(below, alt, cond)
    return float(np.dot(dens * cond, w))


def ridge_size(curve: Curve, f0: float, step: float = 5e-4) -> float:
    """|rho| = 1 size of the rule t^2 > c(F) at f0, from the edges of its rejection set.

    At |rho| = 1, f = f0 + z with z standard normal and |t| = |z| |f| / f0, so
    the test rejects where |f| >= sqrt(q) and |f| |f - f0| > f0 g(|f|); a
    constant critical value is a flat curve with q = 0.  The set is located
    on a scan of f (pitch `step`, plus every knot and the vertex of the
    margin on each knot interval and beyond the last knot, where a hump
    narrower than the pitch would peak); each edge is refined by bisection
    and the mass is a sum of normal CDF differences.
    """
    xs, gs, sq = curve.xs, curve.gs, math.sqrt(curve.q)

    def rejects(f: np.ndarray) -> np.ndarray:
        a = np.abs(f)
        g = np.interp(a, xs, gs)
        return (a >= sq) & (a * np.abs(f - f0) > f0 * g)

    lo, hi = f0 - _WINDOW, f0 + _WINDOW
    slope = np.diff(gs) / np.diff(xs)
    # argmax of x (f0 - x) - f0 g(x) on each knot interval and on the flat ends
    vertex = np.append(0.5 * f0 * (1.0 - slope), 0.5 * f0)
    grid = np.concatenate([np.arange(lo, hi, step), [hi], xs, -xs, vertex, [sq, -sq]])
    grid = np.unique(grid[(grid >= lo) & (grid <= hi)])
    inside = rejects(grid)
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    a, b = grid[flips].copy(), grid[flips + 1].copy()
    a_in = inside[flips]
    for _ in range(60):
        m = 0.5 * (a + b)
        same = rejects(m) == a_in
        a = np.where(same, m, a)
        b = np.where(same, b, m)
    edges = 0.5 * (a + b)
    bounds = np.concatenate([[-np.inf] if inside[0] else [], edges, [np.inf] if inside[-1] else []])
    starts, ends = bounds[0::2], bounds[1::2]
    return float(np.sum(norm_cdf(ends - f0) - norm_cdf(starts - f0)))


def curve_from_cache(doc: dict) -> Curve:
    """Read a curve from the JSON document tfiv writes to TF_CACHE_DIR."""
    payload = doc["payload"]
    knots = np.asarray(payload["knots"], dtype=float)
    return Curve(xs=knots[:, 0], gs=knots[:, 1], q=float(payload["lower_support"]))

