"""tfiv benchmark: one run of one workload, from the root of a source checkout.

    python3 bench/run.py --workload {solve-5pct,tf-curve,cli-session} \\
        --seed N --seconds S --trace {0,1}

Set-up is timed first, several times (fresh-process `import tfiv`, or for
cli-session a cold `tfiv cv` into an empty TF_CACHE_DIR).  The timed part
then runs in a worker process (`worker.py`), whose outputs are checked
against references computed apart from tfiv (`checks.py`, `oracles.py`).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  A full record of the run, with machine facts, per-operation
times and (traced) spans, goes to .bench_runs/.  tfiv is taken from ./src;
without it the run exits with code 2.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cli_session import COLD_CV_F

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("solve-5pct", "tf-curve", "cli-session")
# Set-up samples per run: fresh-process imports, or (cli-session) cold
# builds, which take ~8 s each and so are fewer.
SETUP_REPEATS = 3
COLD_BUILD_REPEATS = 2
SETUP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 175.0
COLD_CV = ["-m", "tfiv", "cv", "--f", repr(COLD_CV_F), "--format", "json"]


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}


def _timed(cmd: list[str], env: dict) -> tuple[float, int]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode


def _setup(workload: str, trace: int, tmp: Path, env: dict) -> tuple[list[float], int, Path]:
    """Set-up samples (s), failed set-up operations, and the warm cache dir."""
    samples, failed = [], 0
    cache = tmp / "setup-cache"
    if workload == "cli-session" and not trace:
        for k in range(COLD_BUILD_REPEATS):
            cache = tmp / f"setup-cache-{k}"
            s, rc = _timed([sys.executable, *COLD_CV], dict(env, TF_CACHE_DIR=str(cache)))
            samples.append(s)
            failed += rc != 0
    else:
        for _ in range(SETUP_REPEATS):
            s, rc = _timed([sys.executable, "-c", "import tfiv"], env)
            samples.append(s)
            failed += rc != 0
    return samples, failed, cache


def _run_worker(cmd: list[str], env: dict, timeout: float) -> tuple[int, str, str]:
    """Run the worker in its own process group.  On timeout, or if this run
    is interrupted or terminated, kill the group, so no `tfiv` process it
    started outlives the run."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nbench: worker killed after {timeout:.0f} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, stdout, stderr


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    src = root / "src"
    if not (src / "tfiv" / "__init__.py").is_file():
        print(f"bench: no tfiv source at {src}/tfiv; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))

    runs = root / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        setup_s, setup_failed, cache = _setup(args.workload, args.trace, tmp, env)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", str(tmp), "--cache", str(cache)]
        if args.trace:
            cmd += ["--import-s", *map(repr, setup_s)]
        timeout = max(10.0, RUN_LIMIT_S - (time.perf_counter() - start))
        returncode, stdout, stderr = _run_worker(cmd, env, timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        print(f"bench: worker exited with code {returncode}", file=sys.stderr)
        return 1
    w = json.loads(lines[-1])

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in w["layers"].items()}
        t = w["trace"]
        over = t["traced_s"] - t["plain_s"]
        metrics["trace.overhead_s"] = {"value": over, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * over / t["plain_s"], "unit": "%"}
        metrics["trace.spans"] = {"value": len(t["spans"]), "unit": "count"}
        metrics["trace.span_cost_s"] = {"value": t["span_cost_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": w["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": w["peak_rss_mb"], "unit": "MB"},
        }
    checks = w["checks"]
    summary = {
        "correct": all(msg is None for _, msg in checks),
        "attempted": w["attempted"] + len(setup_s),
        "failed": w["failed"] + setup_failed,
        "metrics": metrics,
    }
    machine = dict(_machine(), **w["versions"])
    record = {
        "args": vars(args), "machine": machine, "setup_s": setup_s, "worker": w,
        "summary": summary, "wall_s": time.perf_counter() - start,
    }
    record_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("machine:", json.dumps(machine))
    print(f"{args.workload} seed {args.seed}: set-up samples "
          + ", ".join(f"{s:.3f} s" for s in setup_s))
    for name, s in w.get("named", {}).items():
        print(f"  {name}: {s:.3f} s (median over {w['rounds']} round(s))")
    if "corpus_reclassified" in w:
        r = w["corpus_reclassified"]
        print(f"  corpus: of {r['rows']} rows with |t| > 1.96 and F > 10, insignificant under "
              + ", ".join(f"{k} {v['share']:.3f} (weighted {v['weighted_share']:.3f})"
                          for k, v in r.items() if k != "rows"))
    for name, msg in checks:
        print(f"  check {'ok' if msg is None else 'FAILED'}: {name}" + (f" -- {msg}" if msg else ""))
    for err in w["errors"]:
        print(f"  operation {err['op']} failed: {err['error'].strip().splitlines()[-1]}")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}; record {record_path}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
