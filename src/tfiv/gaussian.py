"""The normal CDF and quantile every numeric route in the package shares.

Every evaluation of Phi or its inverse in the package (closed forms,
quadrature, the tF curve sweeps, the solvers) goes through `ndtr` and
`ndtri` here, thin wrappers over the Cephes implementations in
scipy.special; `chi2_quantile_1df` builds the chi-square(1) critical
values on `ndtri`, except the 95% one, `Q95`, which is stored.  Keeping one
CDF implementation package-wide means the dual computation routes can
disagree only about *integration*, never about Phi.

scipy.special is imported on the first call, not with the package: the CLI
commands that never evaluate Phi (``cv``, ``ci``, ``table3``, ``audit`` and
``test`` on a warm cache, at the 5% level) then start without paying for it.
"""

from __future__ import annotations

import functools

from .errors import DomainError

__all__ = ["Q95", "chi2_quantile_1df", "ndtr", "ndtri"]

# The chi-square(1) 95% quantile, ndtri(0.975)**2 to the last bit: what the
# text's shorthand "1.96^2" denotes.
Q95 = 3.8414588206941254


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


def chi2_quantile_1df(p: float) -> float:
    """(1-p)->crit helper: the chi-square(1) quantile at probability ``p``.

    Equals the square of the two-sided normal critical value; p = 0.95
    returns `Q95` without loading scipy.special.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("chi2_quantile_1df: p must be in (0, 1)")
    if p == 0.95:
        return Q95
    z = ndtri(0.5 + p / 2.0)
    return float(z * z)
