"""Timing spans around tfiv's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded ``tfiv`` module that holds a reference to it, so bindings made by
``from .size_engine import rejection_prob_profile`` (as in ``worst_case``
and ``cli``) are traced too.  Spans are kept in memory: layer, function,
start, end, parent span, the request (the outermost span) that caused them,
and a few counts.  A span's self time is its duration minus the time of the
spans nested directly inside it; calls are synchronous, so children never
overlap.  `layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, Optional

import numpy as np


def _profile_attrs(proc, rho, f0s, *_a, **_k) -> dict:
    return {"rho_abs": abs(float(rho)), "points": int(np.size(f0s))}


def _records_attrs(records, *_a, **_k) -> dict:
    return {"records": len(records)}


def _mc_attrs(proc, cfg, *_a, **_k) -> dict:
    return {"draws": int(cfg.n_draws)}


# (module, function, layer, attrs from the call's arguments)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("size_engine", "rejection_prob_profile", "size_engine", _profile_attrs),
    ("size_engine", "rejection_prob", "size_engine", None),
    ("worst_case", "worst_case_size", "worst_case", None),
    ("worst_case", "solve_threshold_F", "worst_case", None),
    ("worst_case", "solve_critical_value", "worst_case", None),
    ("worst_case", "validity_region", "worst_case", None),
    ("tf_critical", "build_cvf", "tf_critical", None),
    ("tf_critical", "load_cvf", "tf_critical", None),
    ("tf_critical", "save_cvf", "tf_critical", None),
    ("audit", "classify_corpus", "audit", _records_attrs),
    ("mc_oracle", "mc_rejection", "mc_oracle", _mc_attrs),
    ("cli", "main", "cli", None),
)


class Tracer:
    """Wraps tfiv's public functions and keeps one span per call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, layer: str, name: str, attrs: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1]["id"] if stack else None,
                "request": stack[0]["id"] if stack else len(spans),
                "layer": layer,
                "name": name,
                "child_s": 0.0,
            }
            if attrs is not None:
                span.update(attrs(*args, **kwargs))
            spans.append(span)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span["start"], span["end"] = t0, t1
                span["self_s"] = (t1 - t0) - span["child_s"]
                if stack:
                    stack[-1]["child_s"] += t1 - t0

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "tfiv" or n.startswith("tfiv.")]
        for mod_name, fn_name, layer, attrs in TARGETS:
            home = sys.modules.get(f"tfiv.{mod_name}")
            if home is None:  # never imported, so never called
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, layer, fn_name, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def span_cost_s(self, n: int = 20_000) -> float:
        """Measured cost of the spans recorded so far: the wrapper's time per
        call (n traced no-op calls against n bare ones) times the span count."""

        def noop() -> None:
            return None

        wrapped = Tracer()._wrap(noop, "probe", "noop", None)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / n * len(self.spans)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[dict], import_s: list[float], main_s: list[float]) -> dict:
    """Per-layer metrics, as name -> (value, unit), from finished spans and
    the cli samples: fresh-process `import tfiv` times and untraced
    in-process `tfiv.cli.main` times."""

    def pick(name: str, cond: Callable[[dict], bool] = lambda s: True) -> list[dict]:
        return [s for s in spans if s["name"] == name and cond(s)]

    panel = pick("rejection_prob_profile", lambda s: s["rho_abs"] < 1.0)
    ridge = pick("rejection_prob_profile", lambda s: s["rho_abs"] >= 1.0)
    quad = pick("rejection_prob")
    audits = pick("worst_case_size")
    classify = pick("classify_corpus")
    mc = pick("mc_rejection")
    panel_s = sum(map(_dur, panel))
    panel_points = sum(s["points"] for s in panel)
    classify_s = sum(map(_dur, classify))
    mc_s = sum(map(_dur, mc))
    return {
        "size_engine.panel_s": (panel_s, "s"),
        "size_engine.panel_calls": (len(panel), "count"),
        "size_engine.panel_points": (panel_points, "count"),
        "size_engine.panel_points_per_s": (_rate(panel_points, panel_s), "1/s"),
        "size_engine.ridge_s": (sum(map(_dur, ridge)), "s"),
        "size_engine.ridge_points": (sum(s["points"] for s in ridge), "count"),
        "size_engine.quad_s": (sum(map(_dur, quad)), "s"),
        "size_engine.quad_calls": (len(quad), "count"),
        "worst_case.audit_s": (sum(map(_dur, audits)), "s"),
        "worst_case.audit_calls": (len(audits), "count"),
        "worst_case.self_s": (sum(s["self_s"] for s in spans if s["layer"] == "worst_case"), "s"),
        "tf_critical.build_self_s": (sum(s["self_s"] for s in pick("build_cvf")), "s"),
        "tf_critical.load_cvf_s": (sum(map(_dur, pick("load_cvf"))), "s"),
        "tf_critical.save_cvf_s": (sum(map(_dur, pick("save_cvf"))), "s"),
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "cli.main_s": (statistics.median(main_s) if main_s else 0.0, "s"),
        "audit.classify_s": (classify_s, "s"),
        "audit.records_per_s": (_rate(sum(s["records"] for s in classify), classify_s), "1/s"),
        "mc_oracle.mc_s": (mc_s, "s"),
        "mc_oracle.draws_per_s": (_rate(sum(s["draws"] for s in mc), mc_s), "1/s"),
    }
