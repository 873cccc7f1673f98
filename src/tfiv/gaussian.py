"""Gaussian primitives shared by every numeric route in the package.

Every evaluation of Phi or its inverse in the package (closed forms,
quadrature, the tF curve sweeps, the solvers) goes through `ndtr` and
`ndtri` here, thin wrappers over the Cephes implementations in
scipy.special, alongside explicitly validated density formulas.  Keeping
one CDF implementation package-wide means the dual computation routes can
disagree only about *integration*, never about Phi.

scipy.special is imported on the first call, not with the package: the CLI
commands that never evaluate Phi (``cv``, ``test tf``, ``ci``, ``table3``
on a warm cache) then start without paying for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BvnParams",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_pdf",
    "bvn_density",
    "chi2_quantile_1df",
    "ndtr",
    "ndtri",
]

# |rho| at or beyond this is refused by the density: the covariance matrix is
# numerically singular and the quadratic form loses all precision.
_RHO_SINGULAR = 1.0 - 1e-12


@functools.cache
def _special():
    import scipy.special

    return scipy.special


def ndtr(x):
    """Standard normal CDF, elementwise (``scipy.special.ndtr``)."""
    return _special().ndtr(x)


def ndtri(p):
    """Inverse standard normal CDF, elementwise (``scipy.special.ndtri``)."""
    return _special().ndtri(p)


@dataclass(frozen=True)
class BvnParams:
    """Mean-zero bivariate normal with unit variances and correlation ``rho``.

    The (t_AR, f - f0) pair follows this law, so ``rho`` is the only free
    parameter anywhere in the distribution theory.
    """

    rho: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rho) or abs(self.rho) > 1.0:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.rho!r}")


def std_normal_cdf(x):
    """Standard normal CDF, exact at +/-inf, NaN refused.

    Accepts scalars or arrays; scalar in, float out.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("std_normal_cdf: NaN input")
    out = ndtr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1); endpoints map to +/-inf."""
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0).any() or (arr > 1).any():
        raise DomainError("std_normal_quantile: probability outside [0, 1]")
    out = ndtri(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def std_normal_pdf(x):
    arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * arr * arr) / math.sqrt(2.0 * math.pi)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bvn_density(x, y, params: BvnParams):
    """Density of ``BvnParams`` at (x, y).

    Refuses |rho| >= 1 - 1e-12: the mass degenerates onto a line there and the
    callers are expected to have switched to the exact univariate formulas long
    before this point.
    """
    rho = params.rho
    if abs(rho) >= _RHO_SINGULAR:
        raise DomainError(
            "bvn_density: |rho| too close to 1 for a two-dimensional density; "
            "use the degenerate-line formulas instead"
        )
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    omr2 = 1.0 - rho * rho
    q = (xa * xa - 2.0 * rho * xa * ya + ya * ya) / omr2
    out = np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(omr2))
    if np.isscalar(x) and np.isscalar(y):
        return float(out)
    return out


def chi2_quantile_1df(p: float) -> float:
    """(1-p)->crit helper: the chi-square(1) quantile at probability ``p``.

    Equals the square of the two-sided normal critical value; the 0.95 value
    3.8414588... is what the text's shorthand "1.96^2" denotes exactly.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("chi2_quantile_1df: p must be in (0, 1)")
    z = ndtri(0.5 + p / 2.0)
    return float(z * z)
