"""Monte Carlo oracles: brute-force rejection rates and a synthetic IV DGP.

``mc_rejection`` draws (t_ar, f) directly from the bivariate normal law the
quadrature engine integrates -- an exact linear transform of two independent
standard normals, with |rho| = 1 collapsing to the degenerate line
t_ar = +-(f - f0) -- and applies each procedure's rejection rule in the
cancellation-free polynomial form t_ar^2 f^2 > c ((f - rho t_ar)^2 +
(1 - rho^2) t_ar^2).  It shares no code with the engine's conditional-mass
calculations, which is the point: the two routes agree only if both are
right.

``simulate_iv_dataset`` generates a single-instrument IV sample, fits the
just-identified estimator with heteroskedasticity-robust (HC0) variance
entries, and returns the summary plus its derived statistics, so the exact
algebraic identity between the t-ratio and its (t_ar, f, rho_hat)
decomposition can be tested on data rather than on synthetic inputs.

The random source is Philox (counter-based): substreams from different seeds
are reproducible and independent, and a fixed chunk size makes estimates
bit-identical for a given (seed, n_draws) regardless of platform memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCase, DomainError
from .size_engine import (
    ConventionalT,
    HybridAR,
    NuisancePoint,
    Procedure,
    PureAR,
    TFProcedure,
    ThresholdTF,
)
from .statistics import CoreStats, IVSummary, core_stats_from_summary

__all__ = [
    "McConfig",
    "SyntheticDGP",
    "mc_rejection",
    "simulate_iv_dataset",
]

_CHUNK = 1 << 20
_PROCEDURE_TYPES = (ConventionalT, ThresholdTF, HybridAR, PureAR, TFProcedure)


def _require_seed(seed) -> None:
    """A Philox seed: an int in [0, 2^64), as Philox refuses negative seeds."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DomainError(f"seed must be an int, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")


@dataclass(frozen=True)
class McConfig:
    """Draw count, seed, and the nuisance point to simulate at."""

    n_draws: int
    seed: int
    point: NuisancePoint

    def __post_init__(self) -> None:
        if not isinstance(self.n_draws, int) or isinstance(self.n_draws, bool):
            raise DomainError(f"n_draws must be an int, got {self.n_draws!r}")
        if self.n_draws < 10_000:
            raise DomainError(f"n_draws must be at least 10^4, got {self.n_draws}")
        _require_seed(self.seed)
        if not isinstance(self.point, NuisancePoint):
            raise DomainError("point must be a NuisancePoint")


def _reject_mask(
    proc: Procedure, t_ar: np.ndarray, f: np.ndarray, rho: float
) -> np.ndarray:
    lhs = t_ar * t_ar * f * f
    d = (f - rho * t_ar) ** 2 + (1.0 - rho * rho) * (t_ar * t_ar)
    if isinstance(proc, ConventionalT):
        return lhs > proc.crit * d
    if isinstance(proc, ThresholdTF):
        return (lhs > proc.crit * d) & (f * f > proc.f_threshold)
    if isinstance(proc, HybridAR):
        gated = f * f > proc.f_threshold
        t_rej = lhs > proc.crit * d
        ar_rej = t_ar * t_ar > proc.crit
        return (t_rej & gated) | (ar_rej & ~gated)
    if isinstance(proc, PureAR):
        return t_ar * t_ar > proc.crit
    # TFProcedure: the profile is +inf below the support, masking the gate.
    g = np.asarray(proc.cvf.sqrt_crit_profile(np.abs(f)), dtype=float)
    out = np.zeros(f.shape, dtype=bool)
    fin = np.isfinite(g)
    if fin.any():
        gf = g[fin]
        out[fin] = lhs[fin] > gf * gf * d[fin]
    return out


def mc_rejection(proc: Procedure, cfg: McConfig) -> tuple[float, float]:
    """Empirical rejection rate and its binomial standard error.

    Deterministic given (proc, cfg): the Philox stream is keyed by cfg.seed
    and consumed in fixed-size chunks.
    """
    if not isinstance(proc, _PROCEDURE_TYPES):
        raise DomainError(f"not a recognized procedure: {proc!r}")
    if not isinstance(cfg, McConfig):
        raise DomainError("cfg must be a McConfig")
    rho = cfg.point.rho
    f0 = cfg.point.f0
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    remaining = cfg.n_draws
    count = 0
    while remaining > 0:
        m = min(remaining, _CHUNK)
        z = rng.standard_normal((2, m))
        t_ar = z[0]
        f = f0 + rho * z[0] + s * z[1]
        count += int(np.count_nonzero(_reject_mask(proc, t_ar, f, rho)))
        remaining -= m
    est = count / cfg.n_draws
    mc_se = math.sqrt(est * (1.0 - est) / cfg.n_draws)
    return est, mc_se


@dataclass(frozen=True)
class SyntheticDGP:
    """Single-instrument IV design with jointly normal errors.

    Y = X beta + u and X = Z pi + v, with (u, v) mean-zero normal of scale
    ``error_scale`` and correlation ``rho_uv``, and Z standard normal.  Any
    intercept/covariates are taken as already partialled out, so the model
    has no constant term.
    """

    n_obs: int
    beta: float
    pi: float
    rho_uv: float
    error_scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_obs, int) or isinstance(self.n_obs, bool):
            raise DomainError(f"n_obs must be an int, got {self.n_obs!r}")
        if self.n_obs < 50:
            raise DomainError(f"n_obs must be at least 50, got {self.n_obs}")
        for name in ("beta", "pi", "rho_uv", "error_scale"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise DomainError(f"SyntheticDGP.{name} must be finite, got {v!r}")
        if abs(self.rho_uv) > 1.0:
            raise DomainError(f"rho_uv must lie in [-1, 1], got {self.rho_uv!r}")
        if self.error_scale <= 0.0:
            raise DomainError(f"error_scale must be positive, got {self.error_scale!r}")


def simulate_iv_dataset(dgp: SyntheticDGP, seed: int) -> tuple[IVSummary, CoreStats]:
    """One simulated sample: robust-variance summary plus derived statistics.

    The summary's null is set to the true beta, so the derived t and t_ar
    are exactly the statistics a correctly-sized test would look at.  Raises
    DegenerateCase when the sample first-stage coefficient is exactly zero
    (resample with a different seed).
    """
    if not isinstance(dgp, SyntheticDGP):
        raise DomainError("dgp must be a SyntheticDGP")
    _require_seed(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    n = dgp.n_obs
    z = rng.standard_normal(n)
    u0 = rng.standard_normal(n)
    w = rng.standard_normal(n)
    u = dgp.error_scale * u0
    r = dgp.rho_uv
    v = dgp.error_scale * (r * u0 + math.sqrt((1.0 - r) * (1.0 + r)) * w)
    x = dgp.pi * z + v
    y = dgp.beta * x + u

    szz = float(z @ z)
    szx = float(z @ x)
    szy = float(z @ y)
    if szx == 0.0:
        raise DegenerateCase(
            "sample first-stage coefficient is exactly zero; resample"
        )
    pi_hat = szx / szz
    delta_hat = szy / szz
    beta_iv = szy / szx

    z2 = z * z
    u_hat = y - x * beta_iv
    v_hat = x - z * pi_hat
    e_hat = y - z * delta_hat
    summary = IVSummary(
        beta_iv_hat=beta_iv,
        var_beta=float(z2 @ (u_hat * u_hat)) / (szx * szx),
        pi_hat=pi_hat,
        var_pi=float(z2 @ (v_hat * v_hat)) / (szz * szz),
        var_rf=float(z2 @ (e_hat * e_hat)) / (szz * szz),
        cov_rf_fs=float(z2 @ (e_hat * v_hat)) / (szz * szz),
        beta_null=dgp.beta,
    )
    return summary, core_stats_from_summary(summary)
