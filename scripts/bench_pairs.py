"""Paired benchmark runs of two checkouts, summarised into one JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload tf-curve --seeds 401-410 [--workload cli-session --seeds 411-415] \\
        --out BENCH_12.json

Each seed is one pair: `python3 bench/run.py --workload W --seed N
--seconds S --trace 0` runs once in each checkout, from its root, with S
the run_seconds of the change's BENCHMARK.json; the parent runs first in
even-numbered pairs and the change first in odd ones.  The JSON summary on
the last line of each run's standard output is kept.  For every end-to-end
metric the file records both sides' median and quartiles and how many
pairs the change won, in the direction that the change's BENCHMARK.json
gives, with each run's correct/attempted/failed counts.  Each workload
needs at least two seeds.  A checkout that holds a `__pycache__` under
src/ or bench/ is refused before any run: it would load from bytecode where
the other compiles, and every process of a run would pay the difference.
The script uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '11,12,13' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The summary that `bench/run.py` prints last, and its machine line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=4 * seconds + 300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {out.returncode}\n{out.stderr[-2000:]}")
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), {})
    return json.loads(lines[-1]), machine


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' median and quartiles, and the change's wins.

    ``pairs`` holds {"parent": summary, "change": summary} per seed; a tie is
    no win.
    """
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        side = {k: [p[k]["metrics"][name]["value"] for p in pairs] for k in ("parent", "change")}
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(side["parent"], side["change"]))
        out[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": better[name],
            "parent": spread(side["parent"]),
            "change": spread(side["change"]),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def _run_row(summary: dict) -> dict:
    row = {k: summary[k] for k in ("correct", "attempted", "failed")}
    return row | {n: m["value"] for n, m in summary["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", action="append", required=True, type=parse_seeds,
                    help="one per --workload, at least two seeds each, e.g. 401-410")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        ap.error("give one --seeds per --workload")
    if min(map(len, args.seeds)) < 2:
        ap.error("give each workload at least two seeds")
    for side in ("parent", "change"):
        root = getattr(args, side)
        cached = [p for d in ("src", "bench") for p in sorted((root / d).rglob("__pycache__"))]
        if cached:
            ap.error(f"--{side} holds bytecode in {cached[0]}; remove it before measuring")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    result = {
        "command": "python3 bench/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": seconds,
        "machine": {},
        "workloads": {},
    }
    for workload, seeds in zip(args.workload, args.seeds):
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], result["machine"] = run_once(getattr(args, side), workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{n} {m['value']:.4g}" for n, m in pair[side]["metrics"].items()),
                      file=sys.stderr)
            pairs.append(pair)
        result["workloads"][workload] = {
            "metrics": summarise(pairs, better),
            "runs": [
                {"seed": p["seed"], "first": p["first"],
                 "parent": _run_row(p["parent"]), "change": _run_row(p["change"])}
                for p in pairs
            ],
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
