"""Rejection probabilities for t-ratio procedures at a nuisance point.

With one endogenous regressor and one instrument, size is governed by the
pair (t_ar, f), bivariate normal with mean (0, f0), unit variances, and
correlation rho under the null.  Each procedure rejects on a region of the
(t_ar, f) plane:

    conventional t   : t^2 > crit, where
                       t^2 = t_ar^2 f^2 / ((f - rho t_ar)^2 + (1-rho^2) t_ar^2)
    threshold t + F  : conventional rejection and F > f_threshold (F = f^2)
    hybrid t / AR    : threshold rejection, plus t_ar^2 > crit when
                       F <= f_threshold
    pure AR          : t_ar^2 > crit
    curve-based t(F) : t^2 > c(F) for a nonincreasing critical-value curve

For |rho| < 1, conditioning on f makes t_ar normal with mean rho (f - f0)
and sd s = sqrt(1 - rho^2), and the conditional rejection set is an interval
or an interval complement.  One kernel, `_t_region_tables`, tabulates the
endpoints of {t^2 > c} for a whole array of f at once; `regions` hands it
only the rule's cutoff c = crit_at(f^2), +inf where the rule never rejects
(the AR rules then put their AR band below their gate).  The
probability is then a 1-D integral over f of smooth CDF differences:

    p = Int phi(f - f0) * P(reject | f) df,    truncated to |f - f0| <= 8.5
        (discarded tail mass < 2e-17).

Both evaluators integrate it in one pass (`_panel_pass`) over Gauss-Kronrod
K15 panels no wider than 2.4 s, to resolve the conditional law's edges of
width ~s.  The panels are graded towards each rule's singular points, the
+-s sqrt(c) root births and the +-sqrt(c) asymptotes, where an edge moves
like sqrt(distance) or runs off to infinity, and cut once at its support
edge, gate +-sqrt(f_threshold) and pin, where c(F) only jumps or kinks; a
profile of the curve rule also cuts at the knots near its support edge
where some f0 can see them (`_live_knots`).  Where every node
of a panel keeps both edges of its conditional rejection set at least 9
conditional sds from the conditional mean at an f0, the panel is integrated
exactly, as a normal CDF difference, to within Phi(-9) = 1.1e-19; near
|rho| = 1 most are.  The others go through the kernel, with |K15 - G7| on
the same nodes next to each value.  `rejection_prob_profile` and
`rejection_prob_matrix` take one pass over panels shared by many f0;
`rejection_prob` refines the panels of its one f0 by that gap.

At |rho| = 1 the conditional law degenerates to the point t_ar = +-(f - f0)
and everything collapses to exact univariate normal computations (the
rejection probability is the same for rho = +1 and rho = -1).  One kernel,
`_rho1_masses`, evaluates those closed forms for every rule's t test, and
`rho1_profile` adds the AR band below the gate; both evaluators route
|rho| > 1 - 1e-6 to it because the conditional sd underflows there.

Each procedure class states only its own rule.  It states its t test as
`crit_at(F)`, the t^2 critical value at F (+inf where the t test never
rejects), and as `cutoff_knots` (X, G) in sqrt F and sqrt c from the
support edge on: one knot (sqrt f_threshold, sqrt crit) for a constant
cutoff.  The AR rules read t_ar^2 > crit instead at F <= `ar_gate`.  Each
class also names its `singular_points(s)`, its `ridge_f0_grid` and its
`f0_star`.  From these the private base `_Rule` writes the (t, F) decision
(`rejects`) that the corpus audit and the CLI apply, the `regions`
integrated, `rho1_profile` and `tail_limit`, and the panel geometry:
`breakpoints` (the singular points, then plain cuts at X[0] and X[-1]),
`knot_cuts` (+-X[1:], none for a constant cutoff), `profile_knots` and
`outer_cutoff` (X[-1], crit_at(inf)).  `ConventionalT.rejects` alone
answers without F, and `PureAR` keeps its flat `rho1_profile` and has no
`outer_cutoff`.  The constant-cutoff rules share one more base with
`f_threshold` (0 when ungated).  The public classes stay siblings, so that
`mc_oracle`, the independent check, can tell them apart by type.  `flat`
marks the AR rule, whose size is the same everywhere.  Every evaluator
refuses f0 above _F0_MAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .errors import DomainError, ToleranceUnmet
from .gaussian import ndtr

if TYPE_CHECKING:  # pragma: no cover
    from .tf_critical import CriticalValueFunction

__all__ = [
    "NuisancePoint",
    "ConventionalT",
    "ThresholdTF",
    "HybridAR",
    "PureAR",
    "TFProcedure",
    "Procedure",
    "SizeResult",
    "rejection_prob",
    "rejection_prob_rho1",
    "rejection_prob_profile",
    "rejection_prob_matrix",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Half-width of the f-integration window around f0; 2 Phi(-8.5) < 2e-17.
_F_WINDOW = 8.5
# Both evaluators hand |rho| beyond this to the exact degenerate formulas.
_RHO1_EDGE = 1.0 - 1e-6
# Every evaluator refuses f0 above this.  Past it the f0 +- 8.5 window is no
# longer resolved in floating point: at f0 = 1e16 the conventional 5% size
# read 0.0639 (the limit is 0.05) with a reported error of 2e-17.  At 1e12 the
# value still lay inside its reported error.
_F0_MAX = 1e8
# Geometric ladder of panel-edge offsets laid down on both sides of a rule's
# singular points: root positions behave like sqrt(distance) at the root
# birth f = s sqrt(c), and one root runs off to infinity at the asymptote
# f^2 = c, so panels must shrink towards both.  At the support edge, the gate
# and the pin c(F) only jumps or kinks, and one plain cut serves.
_GRADED_OFFSETS = np.array([1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2])
# Profiles of the curve rule also cut at its knots below max(_KNOT_CUT_X,
# support edge + _KNOT_CUT_SPAN) in |x|.  There c(F) holds, of its total slope
# change in sqrt F, 5,801 of 5,805 for the 5% curve (below 2.5 = 1.96 + 0.54),
# 7,656 of 7,658 for the 10% curve (below 2.5) and 4,628 of 4,637 for the 1%
# curve (below 3.116 = 2.576 + 0.54, where its knots begin).
_KNOT_CUT_X = 2.5
_KNOT_CUT_SPAN = 0.54
# A pass sends its live node-f0 pairs through the kernel in blocks of at most
# this many, and builds its (f0, panel) pairs in groups of f0 of about this
# many.  Blocks of 2^14 to 2^17 ran the tF audit equally fast, and 2^12 up to
# a quarter slower; from 2^15 up the profile's own peak memory grows.
# Per-node work and `rejection_prob`'s passes are bounded by _PANELS instead.
_BLOCK = 1 << 14
# A pass builds its nodes, region tables and saturation hulls for this many
# K15 panels (4,080 nodes) at a time, and a `rejection_prob` pass takes at
# most this many panels, so neither holds temporaries for a whole window.
_PANELS = 272
# A conditional edge at least this many conditional sds from the conditional
# mean is saturated: Phi there is 0 or 1 to within Phi(-9) = 1.1e-19.
_SAT_Z = 9.0
# Gauss-Kronrod G7/K15 pair on [-1, 1], from QUADPACK's qk15 (Piessens et
# al. 1983): the Kronrod nodes from -1 to the centre, their K15 weights, and
# the G7 weights, zero on the nodes that only the Kronrod rule uses.
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_GK_X = np.concatenate([-_XK, _XK[-2::-1]])
_GK_WK = np.concatenate([_WK, _WK[-2::-1]])
_GK_WG = np.concatenate([_WG, _WG[-2::-1]])
# Panels one `rejection_prob` call may evaluate before giving up on tol.
_GK_MAX_PANELS = 100_000
# Per-node conditional rejection set: (sign, lo, hi), see `_t_region_tables`.
_Tables = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class NuisancePoint:
    """Nuisance parameter (rho, f0); f0 >= 0 without loss of generality.

    (rho, -f0) gives the same size as (-rho, f0), so negative noncentrality
    is answered by flipping the sign of rho instead.
    """

    rho: float
    f0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and math.isfinite(self.f0)):
            raise DomainError("NuisancePoint: rho and f0 must be finite")
        if abs(self.rho) > 1.0:
            raise DomainError(f"NuisancePoint: |rho| <= 1 required, got {self.rho!r}")
        if self.f0 < 0.0:
            raise DomainError(f"NuisancePoint: f0 >= 0 required, got {self.f0!r}")

    @property
    def ef(self) -> float:
        """Mean of F = f^2 (noncentral chi-square with 1 df): 1 + f0^2."""
        return 1.0 + self.f0 * self.f0


def _require_positive(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")


def _mirrored(pts: list[float]) -> list[float]:
    """+-x for every positive finite x in pts, sorted and unique."""
    return sorted({p for x in pts for p in (-x, x) if x > 0.0 and math.isfinite(x)})


def _require_procedure(proc) -> None:
    if not callable(getattr(proc, "regions", None)):
        raise DomainError(f"not a recognized procedure: {proc!r}")


class _Rule:
    """Base of every rule: its decision, regions and panel geometry.

    `rejects`, `regions`, `rho1_profile` and `tail_limit` come from
    `crit_at`, `cutoff_knots` (X, G) and `ar_gate`: at F <= ar_gate (-inf:
    nowhere) a rule reads t_ar^2 > crit, with its constant `crit`, in place
    of t^2 > crit_at(F).  `breakpoints`, `knot_cuts`, `profile_knots` and
    `outer_cutoff` come from the knots X and the rule's `singular_points`.
    The defaults of `flat` and `f0_star` live here too.
    """

    ar_gate = -math.inf
    flat = False
    f0_star = None

    def rejects(self, t: Optional[float], F: Optional[float]) -> Optional[bool]:
        """None without t or F, or at F <= ar_gate: (t, F) lacks the AR statistic."""
        if t is None or F is None or F <= self.ar_gate:
            return None
        return bool(t * t > self.crit_at(F))

    def regions(self, f: np.ndarray, rho: float) -> _Tables:
        with np.errstate(over="ignore"):
            F = f * f
        tables = _t_region_tables(f, self.crit_at(F), rho)
        if self.ar_gate == -math.inf:
            return tables
        # The AR event t_ar^2 > crit: 1 - P(-sqrt(crit) < t_ar < sqrt(crit)).
        sc = math.sqrt(self.crit)
        below = F <= self.ar_gate
        return tuple(np.where(below, v, t) for t, v in zip(tables, (-1.0, -sc, sc)))

    def rho1_profile(self, f0s: np.ndarray) -> np.ndarray:
        """Exact size at |rho| = 1: the t test's `_rho1_masses`, plus the AR band."""
        f0s = np.asarray(f0s, dtype=float)
        p = sum(_rho1_masses(*self.cutoff_knots, f0s))
        if self.ar_gate != -math.inf:
            # AR rejections z^2 > crit inside the band |f0 + z| <= sqrt(ar_gate).
            sc, sa = math.sqrt(self.crit), math.sqrt(self.ar_gate)
            hi, lo = sa - f0s, -sa - f0s
            p = p + np.maximum(0.0, ndtr(hi) - ndtr(np.maximum(sc, lo)))
            p = p + np.maximum(0.0, ndtr(np.minimum(-sc, hi)) - ndtr(lo))
        return np.clip(p, 0.0, 1.0)

    def tail_limit(self) -> float:
        """The f0 -> infinity size, 2 Phi(-g), g the last knot value."""
        return 2.0 * float(ndtr(-self.cutoff_knots[1][-1]))

    def breakpoints(self, s: float) -> tuple[list[float], list[float]]:
        """(singular points, plain cuts), mirrored: the `singular_points(s)`,
        then the support edge X[0] (a constant cutoff's gate) and the last
        knot X[-1] (the curve's pin, or where a curve that never pins goes flat)."""
        X = self.cutoff_knots[0]
        return _mirrored(self.singular_points(s)), _mirrored([X[0], X[-1]])

    @cached_property
    def knot_cuts(self) -> np.ndarray:
        # c(F) is linear in sqrt(F) between knots and kinks at each one past
        # the support edge; the integrand is smooth only between kinks, and
        # |K15 - G7| measures the error only where it is smooth.  Sorted, for
        # `rejection_prob`; empty for a constant cutoff.
        xs = self.cutoff_knots[0][1:]
        return np.concatenate([-xs[::-1], xs])

    @cached_property
    def profile_knots(self) -> np.ndarray:
        """The knots a profile may cut: |x| < max(_KNOT_CUT_X, support edge + _KNOT_CUT_SPAN)."""
        zone = max(_KNOT_CUT_X, self.cutoff_knots[0][0] + _KNOT_CUT_SPAN)
        return self.knot_cuts[np.abs(self.knot_cuts) < zone]

    @property
    def outer_cutoff(self) -> tuple[float, float]:
        """(x, c): at |f| > x, past the last knot, the rule is the conventional t test t^2 > c."""
        return float(self.cutoff_knots[0][-1]), float(self.crit_at(math.inf))


@dataclass(frozen=True)
class _ConstantCutoff(_Rule):
    """t^2 > crit with a constant cutoff; f_threshold = 0 is the ungated rule."""

    crit: float
    f_threshold = 0.0

    def __post_init__(self) -> None:
        _require_positive(f"{type(self).__name__}.crit", self.crit)

    def crit_at(self, F) -> np.ndarray:
        return np.full(np.shape(F), self.crit)

    @property
    def cutoff_knots(self) -> tuple[np.ndarray, np.ndarray]:
        """One knot: sqrt(crit) from the gate sqrt(f_threshold) on."""
        return np.array([math.sqrt(self.f_threshold)]), np.array([math.sqrt(self.crit)])

    def singular_points(self, s: float) -> list[float]:
        """The root birth f = s sqrt(crit) and the asymptote f = sqrt(crit)."""
        sc = math.sqrt(self.crit)
        return [sc, s * sc]

    def ridge_f0_grid(self) -> np.ndarray:
        """|rho| = 1 audit grid out to max(500, 3 sqrt(F) + 50), with f0*."""
        hi = max(500.0, 3.0 * math.sqrt(self.f_threshold) + 50.0)
        star = () if self.f0_star is None else [self.f0_star]
        return np.unique(
            np.concatenate([np.arange(0.0, 40.0, 0.002), np.arange(40.0, hi + 1e-9, 0.02), star])
        )


@dataclass(frozen=True)
class _GatedCutoff(_ConstantCutoff):
    """A constant-cutoff rule whose t test applies only when F > f_threshold."""

    # A bare annotation would take the inherited 0.0 as its default.
    f_threshold: float = field()

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive(f"{type(self).__name__}.f_threshold", self.f_threshold)

    def crit_at(self, F) -> np.ndarray:
        return np.where(F <= self.f_threshold, np.inf, self.crit)

    @property
    def f0_star(self) -> float:
        """The |rho| = 1 stationary point, where the gate edge meets a rejection root."""
        return self.f_threshold / (math.sqrt(self.f_threshold) + math.sqrt(self.crit))


@dataclass(frozen=True)
class ConventionalT(_ConstantCutoff):
    """Reject when t^2 > crit, regardless of the first stage."""

    def rejects(self, t: Optional[float], F: Optional[float]) -> Optional[bool]:
        return None if t is None else t * t > self.crit


@dataclass(frozen=True)
class ThresholdTF(_GatedCutoff):
    """Reject when t^2 > crit and additionally F > f_threshold."""


@dataclass(frozen=True)
class HybridAR(_GatedCutoff):
    """Threshold rule above f_threshold, AR rule (t_ar^2 > crit) below it."""

    @property
    def ar_gate(self) -> float:
        return self.f_threshold


@dataclass(frozen=True)
class PureAR(_ConstantCutoff):
    """Reject when t_ar^2 > crit; exact size 2 Phi(-sqrt(crit)) everywhere."""

    ar_gate = math.inf
    flat = True
    outer_cutoff = None  # the AR test everywhere; `cutoff_knots` set only `tail_limit`

    def crit_at(self, F) -> np.ndarray:
        return np.full(np.shape(F), np.inf)

    def singular_points(self, s: float) -> list[float]:
        return []

    def rho1_profile(self, f0s: np.ndarray) -> np.ndarray:
        return np.full(f0s.shape, self.tail_limit())


@dataclass(frozen=True)
class TFProcedure(_Rule):
    """Reject when t^2 > c(F) for a fitted critical-value curve.

    `crit_at` is the rule's one statement of c(F); it has no AR gate.
    ``cvf`` is duck-typed: it must expose ``lower_support`` (an F value below
    which the test never rejects), ``arrays`` (the knot positions and values
    in sqrt F and sqrt c as two sorted, nonempty arrays; a
    `CriticalValueFunction` returns read-only views of its one knot array) and
    ``sqrt_crit_profile(x)``, the curve's one evaluator: it maps an ndarray
    of sqrt-F values to sqrt-critical values, +inf below the support and the
    knots interpolated above it.
    """

    cvf: "CriticalValueFunction"

    def __post_init__(self) -> None:
        for attr in ("lower_support", "arrays", "sqrt_crit_profile"):
            if not hasattr(self.cvf, attr):
                raise DomainError(f"TFProcedure.cvf lacks required attribute {attr!r}")

    @cached_property
    def cutoff_knots(self) -> tuple[np.ndarray, np.ndarray]:
        """The curve's knots after one at the support edge, at the first value."""
        xs, gs = self.cvf.arrays
        return np.append(math.sqrt(self.cvf.lower_support), xs), np.append(gs[0], gs)

    def crit_at(self, F) -> np.ndarray:
        """c(F) = g(sqrt(F))^2, g the curve's `sqrt_crit_profile`; +inf below
        its support, and for F < 0."""
        g = self.cvf.sqrt_crit_profile(np.sqrt(np.maximum(F, 0.0)))
        return g * g

    def singular_points(self, s: float) -> list[float]:
        """The root birth f = s g(f) and the asymptote f^2 = c(f^2)."""
        return [_cvf_crossing(self, s), _cvf_crossing(self, 1.0)]

    def ridge_f0_grid(self) -> np.ndarray:
        """|rho| = 1 audit grid out to 100, with the cap edge, where the ridge peaks.

        Up to f0 = sq^2 / (sq + g0), sq = sqrt(lower_support) and g0 the first
        knot value, the whole upper tail f >= sq rejects (up_ratio[0] in
        `_rho1_masses`).
        """
        # Cost sets the pitch: on a 2-core Intel Xeon the ridge takes 4 ms on
        # this grid and 15 ms on the constant rules' (0.002 pitch, out to 500).
        X, G = self.cutoff_knots
        edge = X[0] * X[0] / (X[0] + G[0])
        return np.unique(
            np.concatenate([np.arange(0.0, 40.0, 0.005), np.arange(40.0, 100.01, 0.05), [edge]])
        )


Procedure = Union[ConventionalT, ThresholdTF, HybridAR, PureAR, TFProcedure]


@dataclass(frozen=True)
class SizeResult:
    prob: float
    abs_err: float
    point: NuisancePoint

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise DomainError(f"SizeResult.prob must be a probability, got {self.prob!r}")
        if not self.abs_err >= 0.0:
            raise DomainError(f"SizeResult.abs_err must be >= 0, got {self.abs_err!r}")


# ---------------------------------------------------------------------------
# degenerate |rho| = 1 closed forms
#
# At rho = +-1, write f = f0 + z with z standard normal; then t_ar = +-z and
# t^2 = z^2 (f0 + z)^2 / f0^2, so every event is a union of z-intervals with
# endpoints that solve quadratics (`_rho1_masses`, for every rule's knots).


def _range_pairs(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, r) for every i and every r in range(starts[i], stops[i])."""
    counts = np.maximum(stops - starts, 0)
    i = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return i, np.arange(i.size) + np.repeat(starts - first, counts)


def _rho1_masses(
    X: np.ndarray, G: np.ndarray, f0s
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact |rho| = 1 mass of t^2 > g(|f|)^2 on |f| >= X[0]: (lower, hump, upper).

    (X, G) are a rule's `cutoff_knots`: X[0] = sq is the support edge, and
    g is the knots' linear interpolant, flat at G[-1] beyond the last knot.
    With x = |f|, the rule rejects iff x >= sq and x |f - f0| > f0 g(x), so
    on each knot interval g = c + m x and every crossing is a quadratic root:

      lower tail f = -a <= -sq:      a (a + f0) >= f0 g(a)  iff  f0 <= a^2 / (g - a)
      upper tail f = x >= max(sq, f0): x (x - f0) >= f0 g(x)  iff  f0 <= x^2 / (x + g)
      hump sq < f = x < f0:          v(x) = x (f0 - x) - f0 g(x) > 0

    g is nonincreasing, so both tail ratios increase along the knots and the
    crossing interval of every f0 is one searchsorted.  v is positive at knot
    i iff f0 > x_i^2 / (x_i - g_i), and concave on each interval, with its
    vertex at f0 (1 - m) / 2 and a positive peak iff f0 > 4 c / (1 - m)^2.
    So each interval enters the hump (v turns positive), leaves it, or holds
    a dip above zero for one range of f0; roots are solved only on those
    (interval, f0) pairs, and intervals positive at both ends telescope.
    v < 0 at every x >= f0, which bounds the hump to [sq, f0).  Where
    g(sq) < sq, as for a gate above its cutoff, v > 0 already at sq for
    f0 > sq^2 / (sq - g(sq)), and the hump opens at the support edge.
    """
    f0s = np.asarray(f0s, dtype=float)
    X, G = np.append(X, np.inf), np.append(G, G[-1])
    sq = X[0]
    m = np.diff(G) / np.diff(X)
    c = G[:-1] - m * X[:-1]
    x, g = X[:-1], G[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        low_ratio = np.append(np.where(g > x, x * x / (g - x), np.inf), np.inf)
        up_ratio = np.append(x * x / (x + g), np.inf)
        hump_ratio = np.append(np.where(x > g, x * x / (x - g), np.inf), np.inf)

        j = np.searchsorted(low_ratio, f0s)
        k = np.maximum(j - 1, 0)
        b = f0s * (1.0 - m[k])
        a = 0.5 * (-b + np.sqrt(b * b + 4.0 * (f0s * c[k])))
        a = np.where(j == 0, sq, np.clip(a, X[k], X[k + 1]))

        j = np.searchsorted(up_ratio, f0s)
        k = np.maximum(j - 1, 0)
        b = f0s * (1.0 + m[k])
        cc = f0s * c[k]
        root = np.sqrt(b * b + 4.0 * cc)
        u = np.where(b >= 0.0, 0.5 * (b + root), 2.0 * cc / (root - b))
        u = np.where(j == 0, sq, np.clip(u, X[k], X[k + 1]))

    order = np.argsort(f0s)
    F = f0s[order]
    one_m = 1.0 - m
    t_left, t_right = hump_ratio[:-1], hump_ratio[1:]
    dip_lo = np.maximum(4.0 * c / (one_m * one_m), 2.0 * x / one_m)
    dip_hi = np.minimum(np.minimum(t_left, t_right), 2.0 * X[1:] / one_m)
    hump = np.zeros(F.size)
    # (f0 range per interval, enters at the smaller root, leaves at the larger)
    for lo, hi, enters, leaves in (
        (t_right, t_left, True, False),
        (t_left, t_right, False, True),
        (dip_lo, dip_hi, True, True),
    ):
        i, rows = _range_pairs(
            np.searchsorted(F, lo, side="right"), np.searchsorted(F, hi, side="right")
        )
        f0 = F[rows]
        b = f0 * one_m[i]
        cc = f0 * c[i]
        root = np.sqrt(np.maximum(b * b - 4.0 * cc, 0.0))
        w = np.zeros(f0.size)
        if leaves:
            w += ndtr(np.clip(0.5 * (b + root), X[i], X[i + 1]) - f0)
        if enters:
            w -= ndtr(np.clip(2.0 * cc / (b + root), X[i], X[i + 1]) - f0)
        hump += np.bincount(rows, w, minlength=F.size)
    opens = F > hump_ratio[0]
    hump[opens] -= ndtr(sq - F[opens])
    in_order = np.empty(F.size)
    in_order[order] = hump
    return ndtr(-a - f0s), in_order, ndtr(f0s - np.maximum(u, f0s))


def rejection_prob_rho1(proc: Procedure, f0: float) -> float:
    """Exact rejection probability at |rho| = 1 (same value for both signs)."""
    if not isinstance(f0, (int, float)) or not 0.0 <= f0 <= _F0_MAX:
        raise DomainError(f"rejection_prob_rho1: f0 must lie in [0, {_F0_MAX:g}], got {f0!r}")
    _require_procedure(proc)
    return float(proc.rho1_profile(np.array([float(f0)]))[0])


def _cvf_crossing(proc: TFProcedure, scale: float) -> float:
    """Positive x >= sqrt support solving x = scale * g(x).

    g is nonincreasing, so x - scale g(x) is strictly increasing and the
    crossing is unique: a searchsorted on the knots, then the root of the
    linear piece, below the pin when the curve has one.  If the margin is
    already >= 0 at the support edge the crossing is clamped there.
    """
    X, G = proc.cutoff_knots
    j = int(np.searchsorted(X - scale * G, 0.0))
    if j == 0:
        return X[0]
    if j == X.size:  # flat beyond the last knot
        return scale * G[-1]
    m = (G[j] - G[j - 1]) / (X[j] - X[j - 1])
    return scale * (G[j - 1] - m * X[j - 1]) / (1.0 - scale * m)


def rejection_prob(proc: Procedure, p: NuisancePoint, tol: float = 1e-6) -> SizeResult:
    """Rejection probability at p, certified to absolute accuracy tol.

    The profile's pass at f0 = p.f0, from the profile's panels on the
    window.  A live panel of the curve rule with knots inside is split at
    them, so that |K15 - G7| sees only smooth pieces; any other live panel
    is accepted when |K15 - G7| <= tol width / 17 and bisected otherwise.
    abs_err is the sum of the accepted |K15 - G7|, plus Phi(-9) per
    saturated panel and the 2e-17 tail mass beyond the window.
    |rho| > 1 - 1e-6 is answered by the exact degenerate formulas instead,
    with abs_err max(1e-13, 4.4e-16 f0).  Raises ToleranceUnmet when
    _GK_MAX_PANELS panels have been evaluated without meeting tol.
    """
    if not isinstance(p, NuisancePoint):
        raise DomainError("rejection_prob expects a NuisancePoint")
    if not (isinstance(tol, (int, float)) and 1e-12 < tol <= 1e-3):
        raise DomainError(f"tol must lie in (1e-12, 1e-3], got {tol!r}")
    if p.f0 > _F0_MAX:
        raise DomainError(f"rejection_prob: f0 must be at most {_F0_MAX:g}, got {p.f0!r}")

    _require_procedure(proc)

    if abs(p.rho) > _RHO1_EDGE:
        # The closed forms' roots near f0 carry the rounding of f0 itself:
        # against 50-digit references (cutoffs 1e-3 to 40, f0 up to 1e8) they
        # were at most 1.5e-16 f0 off, and at most 4.6e-14 for f0 < 1,000.
        prob = float(proc.rho1_profile(np.array([p.f0]))[0])
        return SizeResult(prob=prob, abs_err=max(1e-13, 4.4e-16 * p.f0), point=p)

    rho, f0 = p.rho, np.array([p.f0])
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    edges = _profile_panels(proc, rho, p.f0, p.f0)
    a, b = edges[:-1], edges[1:]
    knots = proc.knot_cuts
    per_width = tol / (2.0 * _F_WINDOW)
    value, err, spent = 0.0, 2e-17, 0
    while a.size:
        # A pass takes at most one block of _PANELS pending panels, so memory
        # does not grow with the curve's knots.
        pa, pb, a, b = a[:_PANELS], b[:_PANELS], a[_PANELS:], b[_PANELS:]
        spent += pa.size
        if spent > _GK_MAX_PANELS:
            raise ToleranceUnmet(f"tol {tol:.3e} not met within {_GK_MAX_PANELS} panels at {p}")
        _, saturated, (live, k15, gap) = _panel_pass(proc, rho, s, f0, pa, pb)
        err += float(ndtr(-_SAT_Z)) * (pa.size - live.size)
        pa, pb = pa[live], pb[live]
        k0, k1 = np.searchsorted(knots, pa, "right"), np.searchsorted(knots, pb, "left")
        done = (k0 == k1) & (gap <= per_width * (pb - pa))
        value += float(saturated[0]) + float(k15[done].sum())
        err += float(gap[done].sum())
        # The others split at their knots, or in half where they hold none.
        pa, pb, k0, k1 = pa[~done], pb[~done], k0[~done], k1[~done]
        cuts = np.concatenate([knots[_range_pairs(k0, k1)[1]], 0.5 * (pa + pb)[k0 == k1]])
        a, b = np.sort(np.concatenate([a, pa, cuts])), np.sort(np.concatenate([b, cuts, pb]))
    return SizeResult(prob=min(max(value, 0.0), 1.0), abs_err=err, point=p)


# ---------------------------------------------------------------------------
# vectorised profiles: many f0 at once on fixed K15 panels


def _profile_panels(proc: Procedure, rho: float, f0_lo: float, f0_hi: float) -> np.ndarray:
    """A profile's panel edges on the windows of every f0 in [f0_lo, f0_hi].

    The rule's `breakpoints` give its singular points, each cut with a
    graded ladder on both sides, and its plain cuts; its `profile_knots`
    are cut where `_live_knots` keeps them, which leaves the profiles of the
    1%, 5% and 10% curves as with all of them cut, to 1e-15.  Each piece is
    split evenly to width <= 2.4 s.  Knots past the `profile_knots` zone
    stay uncut; `rejection_prob_profile` states what that costs.
    """
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    lo, hi = f0_lo - _F_WINDOW, f0_hi + _F_WINDOW
    singular, plain = (np.asarray(p, dtype=float) for p in proc.breakpoints(s))
    knots = proc.profile_knots
    knots = knots[(knots > lo) & (knots < hi)]
    if knots.size:
        knots = knots[_live_knots(proc, knots, rho, s, f0_lo, f0_hi)]
    graded = singular[:, None] + np.concatenate([-_GRADED_OFFSETS, _GRADED_OFFSETS])
    cuts = np.concatenate([singular, plain, graded.ravel(), knots])
    inside = cuts[(cuts > lo + 1e-9) & (cuts < hi - 1e-9)]
    cuts = np.unique(np.concatenate([[lo, hi], inside]))
    width = np.diff(cuts)
    n = np.ceil(width / (2.4 * s)).astype(int)
    piece, k = _range_pairs(np.zeros_like(n), n)
    return np.append(cuts[piece] + width[piece] * k / n[piece], hi)


def _live_knots(
    proc: Procedure, knots: np.ndarray, rho: float, s: float, f0_lo: float, f0_hi: float
) -> np.ndarray:
    """Mask of the knots (sorted, nonempty) that a profile over f0 in [f0_lo, f0_hi] must cut.

    At a knot x the rule's `regions` give the edges e of the conditional
    rejection set, at the cutoff g(x)^2.  As in `_saturation_hulls`, an edge
    sits (u - c) / s conditional sds from the mean, u = rho f0 and
    c = rho x - e.  A knot is live when, for some f0 of the range whose
    window reaches x, that is under _SAT_Z + 3 (3 more for the edges' drift
    over the panels next to it) for either edge, or when an edge is NaN or
    infinite; elsewhere the panels on both sides saturate and the kink does
    not show.  A knot where the rule never rejects has no edges and no kink
    to show.  The neighbours of a live knot are kept too.
    """
    sign, lo, hi = proc.regions(knots, rho)
    u = rho * np.maximum(knots - _F_WINDOW, f0_lo), rho * np.minimum(knots + _F_WINDOW, f0_hi)
    r = (_SAT_Z + 3.0) * s
    with np.errstate(invalid="ignore", over="ignore"):
        c = rho * knots - np.stack([lo, hi])
        near = ~np.isfinite(c) | ((c > np.minimum(*u) - r) & (c < np.maximum(*u) + r))
    live = near.any(0) & (sign != 0.0)
    keep = live.copy()
    keep[1:] |= live[:-1]
    keep[:-1] |= live[1:]
    return keep


def _t_region_tables(f: np.ndarray, c, rho: float) -> _Tables:
    """Per-node conditional rejection set for {t^2 > c}: (sign < 0) + sign * band.

    ``c`` is one positive cutoff, or one per node; +inf rejects nowhere.
    Returns (sign, lo, hi) so that the conditional probability is
    (sign < 0) + sign * (Phi((hi-mu)/s) - Phi((lo-mu)/s)): sign -1 rejects
    outside [lo, hi], +1 inside it, and 0 never.

    The edges are the roots of r^2 (f^2 - c) + 2 b r - c f^2, b = rho c f,
    real where gap = f^2 - c (1 - rho^2) > 0, which also rules out c = +inf
    and f = 0.  Both come from the stable pair q / (f^2 - c) and -c f^2 / q,
    q = -(b + copysign(disc, b)), disc = sqrt(c f^2 gap): |q| >= disc > 0, and
    neither formula subtracts nearly equal terms, at the asymptote f^2 = c
    included (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, sec. 1.8).
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        f2 = f * f
        denom = f2 - c
        gap = f2 - c * (1.0 - rho * rho)
        exists = (gap > 0.0) & (denom != 0.0)
        b = rho * c * f
        q = -(b + np.copysign(np.sqrt(c * f2 * gap), b))
        r1, r2 = q / denom, -c * f2 / q
    sign = np.where(exists & (denom > 0.0), -1.0, np.where(exists, 1.0, 0.0))
    lo = np.where(exists, np.minimum(r1, r2), 0.0)
    hi = np.where(exists, np.maximum(r1, r2), 0.0)
    return sign, lo, hi


def _weighted_rejection(regions, d: np.ndarray, rho: float, s: float) -> np.ndarray:
    """phi(d) P(reject | f = f0 + d), zero beyond _F_WINDOW.

    ``regions`` are a procedure's `regions` tables at the nodes f, broadcast
    against d; given f, t_ar is normal with mean rho d and sd s.
    """
    sign, lo, hi = regions
    dens = np.where(np.abs(d) <= _F_WINDOW, _INV_SQRT_2PI * np.exp(-0.5 * d * d), 0.0)
    mu = rho * d
    band = ndtr((hi - mu) / s) - ndtr((lo - mu) / s)
    return dens * ((sign < 0) + sign * band)


def _saturation_hulls(
    nodes: np.ndarray, tables: _Tables, rho: float, s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per K15 panel: its sign and the u = rho f0 hulls outside which it saturates.

    At a node f an edge e of the conditional rejection set sits
    z = (u - c) / s conditional sds from the mean rho f - u, c = rho f - e, so
    |z| >= _SAT_Z exactly when u lies outside c -+ r, r = _SAT_Z s, and Phi
    at that edge is 1 above the interval and 0 below it.  Row 0 of
    (low, high) bounds those intervals of the upper edge over the panel's
    nodes, row 1 those of the lower edge.  For u outside both hulls every
    Phi is 0 or 1 to within Phi(-_SAT_Z), the same one on every node.
    A panel whose nodes differ in sign, or with a hull bound that is
    not finite (a NaN is never read as saturated), gets hulls (-inf, inf)
    and stays live for every u; a panel that never rejects gets (inf, inf).
    """
    # One row per K15 node, one column per panel, so the reductions run fast.
    f, sign, lo, hi = (t.reshape(-1, _GK_X.size).T.copy() for t in (nodes, *tables))
    r = _SAT_Z * s
    low, high = np.empty((2, 2, f.shape[1]))
    with np.errstate(invalid="ignore", over="ignore"):
        for row, edge in enumerate((hi, lo)):
            c = rho * f - edge
            low[row], high[row] = c.min(0) - r, c.max(0) + r
    psign = sign[0]
    uniform = (sign == psign).all(0)
    live = ~(uniform & np.isfinite(low).all(0) & np.isfinite(high).all(0))
    low[:, live], high[:, live] = -math.inf, math.inf
    dead = uniform & (psign == 0.0)
    low[:, dead] = high[:, dead] = math.inf
    return psign, low, high


def _run_mass(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Phi(xb) - Phi(xa) for xa <= xb, taken in the lower tail to keep its digits."""
    upper = xa > 0.0
    return ndtr(np.where(upper, -xa, xb)) - ndtr(np.where(upper, -xb, xa))


def _panel_pass(
    proc: Procedure, rho: float, s: float, f0s: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Integrate each f0 over the K15 panels [a, b] (sorted, disjoint) that meet its window.

    Returns (value, saturated, live): per f0 its value and the part of it
    from saturated pairs, and per live (f0, panel) pair its panel index,
    K15 value and |K15 - G7|.  A pair is saturated when u = rho f0
    lies outside both of the panel's hulls (`_saturation_hulls`): its
    conditional rejection probability is then one constant P, 0 or 1, to
    within Phi(-9), so it contributes P (Phi(b - f0) - Phi(a - f0)) over
    its edges clipped to the window, and runs of abutting P = 1 panels of
    one f0 telescope.  The live pairs go through the kernel in flat blocks
    of at most _BLOCK node pairs, which `np.bincount` sums into their f0.
    The pairs are built in groups of f0 of about _BLOCK pairs, so no
    temporary grows with the number of f0, and the nodes, region tables
    and hulls _PANELS panels at a time, so none grows with the panels
    either; only the per-panel rows they fill do: four per node (the node
    and its (sign, lo, hi)), and each panel's sign and hulls.
    """
    halfs = 0.5 * (b - a)
    # Nodes and tables with one row per panel, to gather live panels from,
    # and each panel's sign and hulls, filled _PANELS at a time.
    rows = np.empty((4, a.size, _GK_X.size))
    psign = np.empty(a.size)
    low, high = np.empty((2, 2, a.size))
    for k in range(0, a.size, _PANELS):
        block = np.s_[k : k + _PANELS]
        nodes = ((0.5 * (a[block] + b[block]))[:, None] + halfs[block, None] * _GK_X).ravel()
        tables = proc.regions(nodes, rho)
        for row, t in zip(rows, (nodes, *tables)):
            row[block] = np.reshape(t, (-1, _GK_X.size))
        psign[block], low[:, block], high[:, block] = _saturation_hulls(nodes, tables, rho, s)
    per_block = _BLOCK // _GK_X.size

    # The panels [first, stop) meet an f0's window; a group of f0 begins at
    # every _BLOCK-th (f0, panel) pair.
    first = np.searchsorted(b, f0s - _F_WINDOW, side="right")
    stop = np.searchsorted(a, f0s + _F_WINDOW, side="left")
    counts = stop - first
    ahead = np.cumsum(counts) - counts
    groups = np.searchsorted(ahead, np.arange(0, ahead[-1] + 1, _BLOCK))
    groups = np.unique(np.append(groups, f0s.size))
    value, saturated = np.zeros(f0s.size), np.zeros(f0s.size)
    live = [(np.empty(0, int), np.empty(0), np.empty(0))]
    for g0, g1 in zip(groups[:-1], groups[1:]):
        i, p = _range_pairs(first[g0:g1], stop[g0:g1])
        f0 = f0s[g0:g1][i]
        u = rho * f0
        below = [u <= bound[p] for bound in low]
        above = [u >= bound[p] for bound in high]  # Phi = 1 at that edge
        sat = (below[0] | above[0]) & (below[1] | above[1])
        ones = sat & ((psign[p] < 0) + psign[p] * (1.0 * above[0] - above[1]) == 1.0)
        # Runs of P = 1 panels of one f0 span [a[p_begin], b[p_end]].
        same = (i[1:] == i[:-1]) & (a[p[1:]] == b[p[:-1]])
        begin, end = ones.copy(), ones.copy()
        begin[1:] &= ~(ones[:-1] & same)
        end[:-1] &= ~(ones[1:] & same)
        x = np.stack([a[p[begin]], b[p[end]]]) - f0[begin]
        x = np.clip(x, -_F_WINDOW, _F_WINDOW)
        saturated[g0:g1] = np.bincount(i[begin], _run_mass(*x), minlength=g1 - g0)
        value[g0:g1] += saturated[g0:g1]
        i, p, f0 = i[~sat], p[~sat], f0[~sat]
        for k in range(0, i.size, per_block):
            block = np.s_[k : k + per_block]
            f, *window = (np.take(t, p[block], axis=0) for t in rows)
            vals = _weighted_rejection(window, f - f0[block, None], rho, s)
            h = halfs[p[block], None]
            k15 = np.einsum("ij,ij->i", vals, h * _GK_WK)
            value[g0:g1] += np.bincount(i[block], k15, minlength=g1 - g0)
            gap = np.abs(k15 - np.einsum("ij,ij->i", vals, h * _GK_WG))
            live.append((p[block], k15, gap))
    return value, saturated, tuple(map(np.concatenate, zip(*live)))


def rejection_prob_profile(proc: Procedure, rho: float, f0s) -> np.ndarray:
    """Rejection probabilities at one rho across an array of f0 values.

    Returns an array of the shape of ``f0s``: one `_panel_pass` over the
    panels of `_profile_panels` on the windows of all f0, so a value can
    move in its last digits with the other f0 of the call.  No error is
    reported per f0: the curve rule's knots outside its `profile_knots`
    zone (|x| < 2.5 for the 5% and 10% curves, < 3.116 for the 1% curve)
    are not cut, and |K15 - G7| does not see them.  Against
    `rejection_prob(tol=1e-10)` the profile was at most 4.7e-8 off for the
    5% curve rule, 4.9e-8 for the 10% and 1.5e-8 for the 1% (rho 0 to
    0.9999, f0 <= 1.95 and 3 to 20), and 6.1e-8 for the conventional rules
    at Q95 and 3.43^2 (rho 0 to 0.99).  For |rho| > 1 - 1e-6 the
    degenerate closed forms take over, as in `rejection_prob`.
    """
    _require_procedure(proc)
    f0s = np.atleast_1d(np.asarray(f0s, dtype=float))
    shape, f0s = f0s.shape, f0s.ravel()
    if f0s.size == 0:
        return np.empty(shape)
    if not math.isfinite(rho) or abs(rho) > 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho!r}")
    if not np.all((f0s >= 0.0) & (f0s <= _F0_MAX)):
        raise DomainError(f"f0 values must lie in [0, {_F0_MAX:g}]")

    if abs(rho) > _RHO1_EDGE:
        return proc.rho1_profile(f0s).reshape(shape)

    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    edges = _profile_panels(proc, rho, float(f0s.min()), float(f0s.max()))
    value = _panel_pass(proc, rho, s, f0s, edges[:-1], edges[1:])[0]
    return np.clip(value, 0.0, 1.0).reshape(shape)


def rejection_prob_matrix(proc: Procedure, rhos, f0s) -> np.ndarray:
    """Rejection probabilities of shape len(rhos) x f0s.shape, one profile per rho."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    f0s = np.atleast_1d(np.asarray(f0s, dtype=float))
    out = np.empty((rhos.size, *f0s.shape))
    for row, rho in zip(out, rhos):
        row[...] = rejection_prob_profile(proc, float(rho), f0s)
    return out
