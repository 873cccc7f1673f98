"""The timed part of one benchmark run, in a process of its own.

`run.py` starts this after set-up:

    python3 bench/worker.py --workload W --seed N --seconds S --trace T --tmp DIR
                            [--cache DIR] [--import-s SECONDS ...]

with the checkout's ``src`` on PYTHONPATH.  It runs whole rounds of the
workload until S seconds have passed (with --trace 1: one untraced round,
then one traced round), checks the outputs, and prints one JSON object as
its last line.  The cli-session client imports neither tfiv nor numpy
before its timed part ends, so the peak RSS it reports is that of the
`tfiv` processes it ran.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Callable

import cli_session  # stdlib only

ALPHA = 0.05
CRIT_2B = 1.96 * 1.96
CALL_TIMEOUT_S = 60.0


class Ops:
    """Runs operations, timing each and recording failures."""

    def __init__(self) -> None:
        self.log: list[dict] = []

    def run(self, name: str, fn: Callable[[], object]):
        t0 = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception:  # one failed operation must not end the run
            value, error = None, traceback.format_exc(limit=3)
        self.log.append({"op": name, "s": time.perf_counter() - t0, "error": error})
        return value, error


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _rounds(round_fn: Callable[[int], dict], seconds: float, ops: Ops) -> list[dict]:
    """Whole rounds until `seconds` have passed; each {"s", "ops", "out"}."""
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        first = len(ops.log)
        t0 = time.perf_counter()
        out = round_fn(len(rounds))
        rounds.append({"s": time.perf_counter() - t0, "ops": ops.log[first:], "out": out})
        if time.perf_counter() - start >= seconds:
            return rounds


# ---------------------------------------------------------------------------
# the in-process workloads


def solve_round(ops: Ops) -> dict:
    import tfiv  # imported by main() before the first round

    out = {}
    for op, key, fn in (
        ("threshold_F", "threshold_F", lambda: tfiv.solve_threshold_F(CRIT_2B, ALPHA)),
        ("critical_value", "crit", lambda: tfiv.solve_critical_value(10.0, ALPHA)),
        ("validity_region", "region", lambda: tfiv.validity_region(CRIT_2B, ALPHA)),
    ):
        value, error = ops.run(op, fn)
        if error is None:
            out[key] = value
    return out


def tf_curve_round(ops: Ops) -> dict:
    import tfiv  # imported by main() before the first round

    out = {}
    cvf, error = ops.run("build_cvf", lambda: tfiv.build_cvf(ALPHA))
    if error is not None:
        return out
    out["cvf"] = cvf
    table, error = ops.run("emit_table3", lambda: tfiv.emit_table3(cvf))
    if error is None:
        out["table"] = table
    worst, error = ops.run("worst_case_tf", lambda: tfiv.worst_case_size(tfiv.TFProcedure(cvf)))
    if error is None:
        out["worst"] = worst
    return out


def cli_round(call: Callable[[list[str]], dict], queries: list[dict], ops: Ops) -> list[dict]:
    calls = []
    for q in queries:
        result, error = ops.run(q["op"], lambda: call(q["argv"]))
        if error is None and result["rc"] != 0:
            ops.log[-1]["error"] = f"exit code {result['rc']}: {result['stderr'][-500:]}"
        calls.append({**q, **(result or {"rc": None, "stdout": "", "stderr": error})})
    return calls


# ---------------------------------------------------------------------------


def _summary(rounds: list[dict]) -> dict:
    """Round time and each operation's time, as medians over rounds."""
    named: dict[str, list[float]] = {}
    for r in rounds:
        for o in r["ops"]:
            named.setdefault(o["op"], []).append(o["s"])
    return {
        "run_s": statistics.median(r["s"] for r in rounds),
        "named": {k: statistics.median(v) for k, v in named.items()},
        "rounds": len(rounds),
    }


def _traced(run: Callable[[str], object]) -> tuple[object, object, dict]:
    """run("plain") untraced, then run("traced") under the tracer.

    Returns both outputs and the trace: its spans, the two wall times
    (their difference is the tracing overhead) and the spans' own cost.
    """
    from tracing import Tracer

    t0 = time.perf_counter()
    plain = run("plain")
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run("traced")
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return plain, traced, {"plain_s": plain_s, "traced_s": traced_s,
                           "span_cost_s": tracer.span_cost_s(), "spans": tracer.spans}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--cache", type=Path, default=None)
    ap.add_argument("--import-s", type=float, nargs="*", default=[])
    args = ap.parse_args()
    root = Path.cwd()
    ops = Ops()
    result: dict = {}
    trace: dict = {}
    main_s: list[float] = []

    if args.workload in ("solve-5pct", "tf-curve"):
        # Import tfiv (numpy, scipy) before any round: set-up times the
        # import, and neither the first round nor the untraced round of a
        # traced run may carry it.
        import tfiv  # noqa: F401

        body = solve_round if args.workload == "solve-5pct" else tf_curve_round
        if args.trace:
            _, out, trace = _traced(lambda tag: body(ops))
        else:
            rounds = _rounds(lambda k: body(ops), args.seconds, ops)
            result.update(_summary(rounds), peak_rss_mb=_peak_rss_mb())
            out = rounds[-1]["out"]
        import checks

        if args.workload == "solve-5pct":
            results = checks.check_solve(out)
        else:
            results = checks.check_tf_curve(out, args.seed)
    else:
        corpus = args.tmp / "corpus.csv"
        result["corpus_rows"] = cli_session.write_corpus(corpus, args.seed)
        if args.trace:
            import tfiv.cli

            def call(argv: list[str]) -> dict:
                return cli_session.call_inprocess(lambda a: tfiv.cli.main(a), argv)

            def session(tag: str) -> dict:
                # A cold `cv` into an empty cache, then the stream on that cache.
                cache = args.tmp / f"cache-{tag}"
                os.environ["TF_CACHE_DIR"] = str(cache)
                ops.run("cold cv", lambda: call(["cv", "--f", repr(cli_session.COLD_CV_F)]))
                queries = cli_session.round_queries(args.seed, 0, corpus)
                return {"calls": cli_round(call, queries, ops), "cache": cache}

            plain, out, trace = _traced(session)
            main_s = [c["s"] for c in plain["calls"] if c.get("s") is not None]
            all_calls, cache_dir = out["calls"], out["cache"]
        else:
            env = dict(os.environ, TF_CACHE_DIR=str(args.cache))

            def call(argv: list[str]) -> dict:
                return cli_session.call_subprocess(argv, env, CALL_TIMEOUT_S)

            rounds = _rounds(
                lambda k: cli_round(call, cli_session.round_queries(args.seed, k, corpus), ops),
                args.seconds, ops)
            result.update(_summary(rounds), peak_rss_mb=_peak_rss_mb())
            all_calls = [c for r in rounds for c in r["out"]]
            cache_dir = args.cache
        import checks

        cache_files = sorted(Path(cache_dir).glob("*.json"))
        if cache_files:
            schema = root / "src" / "tfiv" / "schemas" / "cli_output.schema.json"
            results = checks.check_cli(all_calls, corpus, cache_files[0], schema)
            result["corpus_reclassified"] = checks.corpus_reclassified(corpus, cache_files[0])
        else:
            results = [("the cold cv wrote a cache file", f"no cache file in {cache_dir}")]

    import numpy
    import scipy

    if trace:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(trace["spans"], args.import_s, main_s)
        result["trace"] = trace
    result.update(
        attempted=len(ops.log),
        failed=sum(o["error"] is not None for o in ops.log),
        errors=[o for o in ops.log if o["error"] is not None],
        checks=results,
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
