"""Command-line front end for the size calculations and the tF tables.

Every subcommand is a thin shell over one library entry point: ``cv``,
``test`` and ``ci`` evaluate the fitted critical-value curve, ``size`` and
``mc`` evaluate rejection probabilities (quadrature and simulation), and
``solve``, ``table3``, ``audit`` regenerate the headline constants, the
published table, and the corpus reclassification report.

Output contract: exit code 0 on success; any failure prints a single JSON
object ``{"error": {"type": ..., "message": ...}}`` to stderr and exits
nonzero (2 for flag/usage problems, 1 for domain or I/O problems).  With
``--format json`` the result is one JSON document on stdout that validates
against ``schemas/cli_output.schema.json``; plain output prints
probabilities with 4 decimals unless ``--raw`` asks for full precision.

The threshold presets are 5%-specific by construction (the pairs
(1.96^2, 104.7) and (3.43^2, 10) have no analogue at other levels), so any
subcommand asked to combine them with a different ``--alpha`` refuses.

Start-up is mostly imports.  scipy.special is loaded only when a command
evaluates Phi, and no command loads scipy.optimize or scipy.integrate.  From
a warm cache, ``cv``, ``test``, ``ci``, ``table3`` and ``audit`` take
0.15-0.16 s and peak at 34-35 MB RSS, ``mc`` 0.19 s and 50 MB, ``size``
0.32-0.35 s and 55 MB, and ``solve`` 0.56 s and 61 MB (medians of 5
processes from ``scripts/cli_startup.py``, two runs, on a 2-core Intel
Xeon).  Building a curve needs Phi, so a cold ``tfiv cv`` takes 0.37 s
and 56 MB; set ``TF_CACHE_DIR`` to keep
the knot files on disk between invocations.  Cache files are versioned and
checksummed, and a stale or corrupt file is silently rebuilt.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .audit import classify_corpus, read_corpus_csv, report_to_json
from .errors import DomainError, TfivError
from .gaussian import chi2_quantile_1df
from .mc_oracle import McConfig, mc_rejection
from .size_engine import (
    ConventionalT,
    HybridAR,
    NuisancePoint,
    PureAR,
    TFProcedure,
    ThresholdTF,
    rejection_prob,
    rejection_prob_matrix,
)
from .tf_critical import (
    CriticalValueFunction,
    _cache_name,
    _require_table3_alpha,
    _round_up_2dp,
    build_cvf,
    cvf_eval,
    load_cvf,
    save_cvf,
    table3_csv,
    tf_adjusted_se,
)
from .worst_case import (
    _RIDGE_F_CAP,
    solve_critical_value,
    solve_threshold_F,
    validity_region,
)

__all__ = ["main"]

_PRESET_ALPHA = 0.05
# The rules the -2b / -2c preset names refer to: (rule class, (t^2 cutoff,
# F threshold)).  The pairs are 5%-only constants with no analogue elsewhere.
_PRESETS = {
    "threshold-2b": (ThresholdTF, (1.96 * 1.96, 104.7)),
    "threshold-2c": (ThresholdTF, (3.43 * 3.43, 10.0)),
    "hybrid-2b": (HybridAR, (1.96 * 1.96, 104.7)),
}

_TEST_PROCEDURES = ("conventional", "threshold-2b", "threshold-2c", "tf")
_SIZE_PROCEDURES = _TEST_PROCEDURES + ("hybrid-2b", "ar")

_SWEEP_RHOS = np.linspace(-1.0, 1.0, 201)


# ---------------------------------------------------------------------------
# plumbing


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable usage errors (exit code 2)."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    payload = {"error": {"type": kind, "message": message}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _fmt(value: Optional[float], raw: bool, nd: int = 4) -> str:
    """Plain-output number: fixed decimals by default (exponent form from
    1e9 on), repr under --raw."""
    if value is None:
        return "none"
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if raw:
        return repr(v)
    return f"{v:.{nd}e}" if abs(v) >= 1e9 else f"{v:.{nd}f}"


def _finite_or_none(value: float) -> Optional[float]:
    """JSON payload cell: infinities become null (JSON has no inf)."""
    v = float(value)
    return v if math.isfinite(v) else None


def _cache_path(alpha: float) -> Optional[Path]:
    cache_dir = os.environ.get("TF_CACHE_DIR")
    if not cache_dir:
        return None
    return Path(cache_dir) / _cache_name(alpha)


def _get_cvf(alpha: float) -> CriticalValueFunction:
    """Build the curve, round-tripping through TF_CACHE_DIR when set."""
    path = _cache_path(alpha)
    if path is not None and path.exists():
        try:
            cvf = load_cvf(path)
            if cvf.alpha == alpha:
                return cvf
        except (TfivError, OSError, ValueError):
            pass  # stale format, bad checksum or malformed payload: rebuild below
    cvf = build_cvf(alpha)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_cvf(cvf, path)
    return cvf


def _build_procedure(name: str, alpha: float):
    """Map a CLI procedure name to a size-engine procedure object."""
    if name in _PRESETS:
        if abs(alpha - _PRESET_ALPHA) > 1e-9:
            raise DomainError(
                f"procedure {name!r} is a 5% preset; alpha = {alpha!r} is unsupported"
            )
        rule, pair = _PRESETS[name]
        return rule(*pair)
    if name == "conventional":
        return ConventionalT(chi2_quantile_1df(1.0 - alpha))
    if name == "ar":
        return PureAR(chi2_quantile_1df(1.0 - alpha))
    if name == "tf":
        return TFProcedure(_get_cvf(alpha))
    raise DomainError(f"unknown procedure {name!r}")


def _emit(payload: dict, plain_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        # JSON has no inf or NaN: a payload cell that holds one is a bug.
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in plain_lines:
            print(line)


def _write_out(out: Optional[Path], text: str) -> tuple[Optional[str], list[str]]:
    """Write text to --out when given; return the payload's "out" and the plain lines."""
    if out is None:
        return None, text.splitlines()
    out.write_text(text, encoding="utf-8")
    return str(out), [f"wrote {out}"]


# ---------------------------------------------------------------------------
# subcommands: each returns its JSON payload and its plain-output lines


def cmd_cv(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if not (math.isfinite(args.f) and args.f >= 0.0):
        raise DomainError(f"--f must be a finite nonnegative real, got {args.f!r}")
    cvf = _get_cvf(args.alpha)
    crit = cvf_eval(cvf, args.f)
    unbounded = not math.isfinite(crit)
    payload = {
        "command": "cv",
        "alpha": args.alpha,
        "F": args.f,
        "unbounded": unbounded,
        "crit": _finite_or_none(crit),
        "sqrt_crit": None,
        "sqrt_crit_table": None,
    }
    if unbounded:
        return payload, [
            "unbounded",
            f"F = {_fmt(args.f, args.raw)} is below the chi-square cutoff "
            f"{_fmt(cvf.lower_support, args.raw)}; no critical value is valid there",
        ]
    sqrt_crit = math.sqrt(crit)
    table_value = _round_up_2dp(sqrt_crit)
    payload.update(sqrt_crit=sqrt_crit, sqrt_crit_table=table_value)
    return payload, [
        f"sqrt c(F) = {table_value:.2f} (table value, rounded up)",
        f"sqrt c(F) = {_fmt(sqrt_crit, args.raw)} unrounded",
        f"c(F) = {_fmt(crit, args.raw)}",
    ]


def _test_decision(name: str, alpha: float, t: float, F: float):
    """Return (reject, cutoff_abs_t = sqrt crit_at(F), f_threshold, rule_text)."""
    proc = _build_procedure(name, alpha)
    reject, cut = proc.rejects(t, F), math.sqrt(proc.crit_at(F))
    if name == "tf":
        return reject, cut, None, "reject when |t| > sqrt c(F)"
    sc = math.sqrt(proc.crit)
    if name == "conventional":
        return reject, cut, None, f"reject when |t| > {sc:.4f}"
    fbar = proc.f_threshold
    return reject, cut, fbar, f"reject when |t| > {sc:.2f} and F > {fbar:g}"


def cmd_test(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if not (math.isfinite(args.t) and math.isfinite(args.f)):
        raise DomainError("--t and --f must be finite reals")
    if args.f < 0.0:
        raise DomainError(f"--f must be nonnegative, got {args.f!r}")
    reject, cut, fbar, rule = _test_decision(args.procedure, args.alpha, args.t, args.f)
    payload = {
        "command": "test",
        "procedure": args.procedure,
        "alpha": args.alpha,
        "t": args.t,
        "F": args.f,
        "reject": reject,
        "cutoff_abs_t": _finite_or_none(cut),
        "f_threshold": fbar,
        "rule": rule,
    }
    return payload, [
        "reject" if reject else "accept",
        f"|t| = {_fmt(abs(args.t), args.raw)} vs cutoff {_fmt(cut, args.raw)}"
        f" at F = {_fmt(args.f, args.raw)}",
        f"rule: {rule}",
    ]


def cmd_ci(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if not (math.isfinite(args.se) and args.se > 0.0):
        raise DomainError(f"--se must be a positive finite real, got {args.se!r}")
    if not math.isfinite(args.beta):
        raise DomainError(f"--beta must be finite, got {args.beta!r}")
    if not (math.isfinite(args.f) and args.f >= 0.0):
        raise DomainError(f"--f must be a finite nonnegative real, got {args.f!r}")
    cvf = _get_cvf(args.alpha)
    crit = cvf_eval(cvf, args.f)
    adjusted = tf_adjusted_se(args.se, args.f, cvf)
    unbounded = not math.isfinite(crit)
    payload = {
        "command": "ci",
        "alpha": args.alpha,
        "beta": args.beta,
        "se": args.se,
        "F": args.f,
        "unbounded": unbounded,
        "lower": None,
        "upper": None,
        "half_width": None,
        "se_adjusted": _finite_or_none(adjusted),
        "inflation": None,
    }
    if unbounded:
        return payload, [
            "ci = (-inf, inf), unbounded",
            "adjusted se = inf (F below the chi-square cutoff; "
            "no bounded interval holds its level)",
        ]
    half = math.sqrt(crit) * args.se
    inflation = adjusted / args.se
    # A huge --se can overflow the interval's ends to +-inf.
    payload.update(
        lower=_finite_or_none(args.beta - half),
        upper=_finite_or_none(args.beta + half),
        half_width=_finite_or_none(half),
        inflation=_finite_or_none(inflation),
    )
    # An end that overflows is null in JSON, and not an unbounded interval.
    ends = [_fmt(end, args.raw) if math.isfinite(end) else "overflow"
            for end in (args.beta - half, args.beta + half)]
    return payload, [
        f"ci = ({ends[0]}, {ends[1]})",
        f"adjusted se = {_fmt(adjusted, args.raw)}"
        f" (inflation {_fmt(inflation, args.raw)}x over conventional)",
    ]


def _resolve_f0(args: argparse.Namespace) -> float:
    if (args.f0 is None) == (args.ef is None):
        raise DomainError("exactly one of --f0 / --ef must be given")
    if args.f0 is not None:
        if not (math.isfinite(args.f0) and args.f0 >= 0.0):
            raise DomainError(f"--f0 must be a finite nonnegative real, got {args.f0!r}")
        return args.f0
    if not (math.isfinite(args.ef) and args.ef >= 1.0):
        raise DomainError(f"--ef must be a finite real >= 1, got {args.ef!r}")
    return math.sqrt(args.ef - 1.0)


def cmd_size(args: argparse.Namespace) -> tuple[dict, list[str]]:
    f0 = _resolve_f0(args)
    if (args.rho is None) != args.sweep:
        raise DomainError("exactly one of --rho / --sweep must be given")
    if args.sweep and args.tol is not None:
        raise DomainError("--tol applies to --rho only; the --sweep profile reports no error")
    proc = _build_procedure(args.procedure, args.alpha)
    ef = 1.0 + f0 * f0
    payload = {
        "command": "size",
        "procedure": args.procedure,
        "alpha": args.alpha,
        "f0": f0,
        "ef": ef,
    }
    if args.sweep:
        probs = rejection_prob_matrix(proc, _SWEEP_RHOS, [f0])[:, 0]
        payload["sweep"] = {
            "rho": [float(r) for r in _SWEEP_RHOS],
            "prob": [float(p) for p in probs],
        }
        return payload, ["rho,prob"] + [
            f"{r:.2f},{_fmt(p, args.raw)}" for r, p in zip(_SWEEP_RHOS, probs)
        ]
    if not (math.isfinite(args.rho) and abs(args.rho) <= 1.0):
        raise DomainError(f"--rho must lie in [-1, 1], got {args.rho!r}")
    tol = 1e-6 if args.tol is None else args.tol
    res = rejection_prob(proc, NuisancePoint(args.rho, f0), tol=tol)
    payload.update(rho=args.rho, tol=tol, prob=res.prob, abs_err=res.abs_err)
    return payload, [
        f"rejection probability = {_fmt(res.prob, args.raw)}"
        f" (abs err <= {res.abs_err:.1e})",
        f"rho = {_fmt(args.rho, args.raw)}, f0 = {_fmt(f0, args.raw)},"
        f" E[F] = {_fmt(ef, args.raw)}",
    ]


_CERT_THRESHOLD = (
    f"no F threshold up to {_RIDGE_F_CAP:,.0f} is certified to keep the worst-case "
    "size within alpha at this critical value"
)
_CERT_EF = (
    "no E[F] on the grid over [1, 400] keeps the conventional test's size "
    "within alpha at every grid rho at this critical value"
)
# Plain output of the modes that take --crit: (label, decimals of the
# rounded line, the text printed in place of a missing answer).
_SOLVE_LINES = {
    "threshold-F": ("F threshold", 1, _CERT_THRESHOLD),
    "min-EF": ("min E[F]", 1, _CERT_EF),
    "max-rho": ("max rho", 2, None),
}


def cmd_solve(args: argparse.Namespace) -> tuple[dict, list[str]]:
    mode = args.mode
    # critical-value takes --fbar and refuses --crit; every other mode the reverse.
    need, refuse = ("fbar", "crit") if mode == "critical-value" else ("crit", "fbar")
    if getattr(args, need) is None:
        raise DomainError(f"--mode {mode} requires --{need}")
    if getattr(args, refuse) is not None:
        raise DomainError(f"--mode {mode} does not take --{refuse}")
    payload = {
        "command": "solve",
        "mode": mode,
        "alpha": args.alpha,
        "crit": args.crit,
        "fbar": args.fbar,
        "result": None,
        "exists": False,
        "certificate": None,
    }
    if mode == "critical-value":
        value = solve_critical_value(args.fbar, args.alpha)
        payload.update(result=value, exists=True)
        return payload, [
            f"sqrt critical value = {math.sqrt(value):.2f}",
            f"c = {_fmt(value, args.raw)} (sqrt c = {_fmt(math.sqrt(value), args.raw)})",
        ]
    if mode == "threshold-F":
        value = solve_threshold_F(args.crit, args.alpha)
    else:
        region = validity_region(args.crit, args.alpha)
        value = region.rho_bar if mode == "max-rho" else region.ef_bar
    label, nd, certificate = _SOLVE_LINES[mode]
    if value is None:
        payload["certificate"] = certificate
        return payload, ["none", certificate]
    payload.update(result=value, exists=True)
    return payload, [f"{label} = {value:.{nd}f}", f"unrounded: {_fmt(value, args.raw)}"]


def cmd_table3(args: argparse.Namespace) -> tuple[dict, list[str]]:
    _require_table3_alpha(args.alpha)
    csv_text = table3_csv(_get_cvf(args.alpha))
    out, lines = _write_out(args.out, csv_text)
    return {"command": "table3", "alpha": args.alpha, "out": out, "csv": csv_text}, lines


def cmd_audit(args: argparse.Namespace) -> tuple[dict, list[str]]:
    records = read_corpus_csv(args.input, prefer_reported=args.prefer_reported)
    procedures = {name: _build_procedure(name, _PRESET_ALPHA) for name in _TEST_PROCEDURES}
    report_json = report_to_json(classify_corpus(records, procedures))
    out, lines = _write_out(args.out, report_json)
    payload = {
        "command": "audit",
        "input": str(args.input),
        "out": out,
        "report": json.loads(report_json),
    }
    return payload, lines


def cmd_mc(args: argparse.Namespace) -> tuple[dict, list[str]]:
    f0 = _resolve_f0(args)
    if not (math.isfinite(args.rho) and abs(args.rho) <= 1.0):
        raise DomainError(f"--rho must lie in [-1, 1], got {args.rho!r}")
    proc = _build_procedure(args.procedure, args.alpha)
    cfg = McConfig(n_draws=args.n, seed=args.seed, point=NuisancePoint(args.rho, f0))
    estimate, std_error = mc_rejection(proc, cfg)
    payload = {
        "command": "mc",
        "procedure": args.procedure,
        "alpha": args.alpha,
        "rho": args.rho,
        "f0": f0,
        "n_draws": args.n,
        "seed": args.seed,
        "estimate": estimate,
        "std_error": std_error,
    }
    return payload, [
        f"estimate = {_fmt(estimate, args.raw)} +/- {_fmt(std_error, args.raw)}"
        f" (n = {args.n}, seed = {args.seed})",
    ]


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("plain", "json"), default="plain")
    sub.add_argument(
        "--raw", action="store_true", help="full-precision numbers in plain output"
    )
    sub.add_argument("--alpha", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tfiv", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cv", help="critical value c(F) at a first-stage F")
    p.add_argument("--f", type=float, required=True, help="observed F statistic")
    _add_common(p)
    p.set_defaults(func=cmd_cv)

    p = subs.add_parser("test", help="accept/reject a t statistic at an observed F")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--procedure", choices=_TEST_PROCEDURES, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("ci", help="adjusted confidence interval and standard error")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--se", type=float, required=True)
    p.add_argument("--f", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ci)

    p = subs.add_parser("size", help="exact rejection probability at (rho, f0)")
    p.add_argument("--procedure", choices=_SIZE_PROCEDURES, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--f0", type=float, default=None)
    p.add_argument("--ef", type=float, default=None, help="E[F] = 1 + f0^2 instead of --f0")
    p.add_argument("--tol", type=float, default=None, help="with --rho (default 1e-6)")
    p.add_argument(
        "--sweep",
        action="store_true",
        help="emit a rho,prob profile over rho in [-1, 1] at the fixed f0",
    )
    _add_common(p)
    p.set_defaults(func=cmd_size)

    p = subs.add_parser("solve", help="headline constants: thresholds and bounds")
    p.add_argument(
        "--mode",
        choices=("threshold-F", "critical-value", "min-EF", "max-rho"),
        required=True,
    )
    p.add_argument("--crit", type=float, default=None, help="t^2 critical value")
    p.add_argument("--fbar", type=float, default=None, help="F threshold")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("table3", help="write the critical-value table as CSV")
    p.add_argument("--out", type=Path, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_table3)

    p = subs.add_parser("audit", help="reclassify a t/F corpus under each procedure")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument(
        "--prefer-reported",
        action="store_true",
        help="take F_reported over F_derived when both are present",
    )
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("mc", help="Monte Carlo check of a rejection probability")
    p.add_argument("--procedure", choices=_SIZE_PROCEDURES, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--f0", type=float, default=None)
    p.add_argument("--ef", type=float, default=None)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.alpha) and 0.0 < args.alpha < 1.0):
        _emit_error("DomainError", f"--alpha must lie in (0, 1), got {args.alpha!r}")
        return 1
    try:
        payload, lines = args.func(args)
        _emit(payload, lines, args.format)
        return 0
    except TfivError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _emit_error("IOError", str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
