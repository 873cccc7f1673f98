"""Start-up cost of each `tfiv` subcommand, in fresh processes.

Each subcommand runs as `python -m tfiv ...` several times on a warm
TF_CACHE_DIR (primed by one untimed `cv`), the runs of all subcommands
interleaved, and the script prints the median and range of their wall
times and the median peak RSS of their processes (`os.wait4`).
`cv (cold)` is the same `cv` call with a new, empty cache every time, so
it builds the curve.  One more run of each under
`python -X importtime` shows which of scipy.special, scipy.optimize and
scipy.integrate it loads, with the cumulative import time of each (that
run is slower than the timed ones; its figures compare modules, not
commands).  The script uses only the standard library, so it adds nothing
to the processes it measures.

    PYTHONPATH=src python scripts/cli_startup.py [--runs 7]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "fixtures" / "audit_sample.csv"
SCIPY_MODULES = ("scipy.special", "scipy.optimize", "scipy.integrate")
COLD = "cv (cold)"
COMMANDS = {
    "cv": ["cv", "--f", "50"],
    COLD: ["cv", "--f", "50"],
    "test tf": ["test", "--procedure", "tf", "--t", "2.5", "--f", "30"],
    "test conventional": ["test", "--procedure", "conventional", "--t", "2.5", "--f", "30"],
    "ci": ["ci", "--beta", "0.5", "--se", "0.2", "--f", "30"],
    "size": ["size", "--procedure", "conventional", "--rho", "0.5", "--f0", "2"],
    "size tf": ["size", "--procedure", "tf", "--rho", "0.5", "--f0", "2"],
    "mc": ["mc", "--procedure", "tf", "--rho", "0.5", "--f0", "2", "--n", "200000", "--seed", "1"],
    "table3": ["table3"],
    "audit": ["audit", "--input", str(CORPUS)],
    "solve": ["solve", "--mode", "critical-value", "--fbar", "10"],
}


def run(argv: list[str], cache: str, flags: tuple[str, ...] = ()) -> tuple[float, float, str]:
    """Wall seconds and peak RSS in MB of one `python -m tfiv` process, and its stderr."""
    env = dict(os.environ, TF_CACHE_DIR=cache)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "tfiv", *argv, "--format", "json"],
            env=env, stdout=out, stderr=err,
        )
        # wait4 reaps the process and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode()
    if proc.returncode != 0:
        raise SystemExit(f"tfiv {' '.join(argv)} failed: {stderr.strip()}")
    return seconds, usage.ru_maxrss / 1024.0, stderr


def scipy_imports(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of SCIPY_MODULES from `-X importtime` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if name.strip() in SCIPY_MODULES and cumulative.strip().isdigit():
            found[name.strip()] = int(cumulative) / 1e6
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7, help="timed processes per command")
    args = parser.parse_args()

    times = {name: [] for name in COMMANDS}
    peaks = {name: [] for name in COMMANDS}
    loads = {}
    with tempfile.TemporaryDirectory() as tmp:
        warm = os.path.join(tmp, "warm")
        os.mkdir(warm)
        run(COMMANDS["cv"], warm)
        for k in range(args.runs):
            for name, argv in COMMANDS.items():
                cache = os.path.join(tmp, f"cold-{k}") if name == COLD else warm
                os.makedirs(cache, exist_ok=True)
                seconds, peak, _ = run(argv, cache)
                times[name].append(seconds)
                peaks[name].append(peak)
        for name, argv in COMMANDS.items():
            cache = os.path.join(tmp, "cold-importtime") if name == COLD else warm
            os.makedirs(cache, exist_ok=True)
            loads[name] = scipy_imports(run(argv, cache, ("-X", "importtime"))[2])

    print(f"{args.runs} fresh processes per command, interleaved; {sys.executable}")
    head = "".join(f"{m:>17}" for m in SCIPY_MODULES)
    print(f"{'command':<19}{'median s':>9}{'range s':>14}{'peak MB':>9}{head}")
    for name, secs in times.items():
        spread = f"{min(secs):.2f}-{max(secs):.2f}"
        cols = "".join(
            f"{f'{loads[name][m]:.3f} s' if m in loads[name] else '-':>17}" for m in SCIPY_MODULES
        )
        peak = statistics.median(peaks[name])
        print(f"{name:<19}{statistics.median(secs):9.3f}{spread:>14}{peak:9.1f}{cols}")


if __name__ == "__main__":
    main()
