"""Every `tfiv` output, captured from fresh processes, for a diff of two trees.

Runs a fixed battery of `python -m tfiv` calls, one process each and one at
a time, against the `src/` of a checkout (this one by default, or
`--root`), on a new, empty TF_CACHE_DIR.  The battery covers every
subcommand and every `solve` mode in plain and JSON output, threshold-F
past crit = 4 and at 1%, `--out` for `table3` and `audit`, and the error
paths: usage errors, flags `solve` does not pair, an unknown procedure,
`--alpha` outside (0, 1), a missing corpus and a 5% preset asked for at
1%.

For each call it prints one record: the argv, the exit code, and stdout
and stderr line by line, with the temporary directory written as <tmp> and
the checkout as <root>.  It ends with a sha256 over all records and the
files that `--out` wrote, so two trees whose CLI behaves alike print the
same hash.  The script uses only the standard library and writes no
bytecode into the checkout.  It takes about 30 s on a 2-core Intel Xeon.

    python scripts/cli_outputs.py [--root CHECKOUT]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
CORPUS = "tests/fixtures/audit_sample.csv"
Q95, Q99 = "3.841458820694124", "6.6348966010212145"
# 2 Phi(-sqrt(4.5)) + 1e-4: a level the ridge limit at crit = 4.5 leaves room for.
ALPHA_45 = "0.03399485352468927"
JSON = ["--format", "json"]

# Each entry is one argv.  "<tmp>" and "<root>" stand for the temporary
# directory and the checkout; the first `cv` builds the 5% curve cold.
BATTERY = [
    ["cv", "--f", "50"],
    ["cv", "--f", "50", *JSON],
    ["cv", "--f", "12.5", "--raw"],
    ["cv", "--f", "2", *JSON],
    ["cv", "--f", "2"],
    ["cv", "--f", "-1"],
    ["test", "--procedure", "tf", "--t", "2.5", "--f", "30"],
    ["test", "--procedure", "tf", "--t", "2.5", "--f", "30", *JSON],
    ["test", "--procedure", "conventional", "--t", "-2.5", "--f", "3", "--raw"],
    ["test", "--procedure", "threshold-2b", "--t", "2.0", "--f", "120", *JSON],
    ["test", "--procedure", "threshold-2c", "--t", "3.0", "--f", "8"],
    ["test", "--procedure", "threshold-2b", "--t", "2.0", "--f", "30", "--alpha", "0.01"],
    ["ci", "--beta", "0.5", "--se", "0.2", "--f", "30"],
    ["ci", "--beta", "0.5", "--se", "0.2", "--f", "30", *JSON],
    ["ci", "--beta", "0.5", "--se", "0.2", "--f", "2", *JSON],
    ["ci", "--beta", "0", "--se", "1e308", "--f", "30"],
    ["size", "--procedure", "conventional", "--rho", "0.5", "--f0", "2"],
    ["size", "--procedure", "tf", "--rho", "-0.9", "--ef", "5", *JSON],
    ["size", "--procedure", "hybrid-2b", "--rho", "1", "--f0", "3", "--tol", "1e-8", "--raw"],
    ["size", "--procedure", "ar", "--sweep", "--f0", "1"],
    ["size", "--procedure", "threshold-2c", "--sweep", "--ef", "4", *JSON],
    ["size", "--procedure", "tf", "--rho", "0.5", "--sweep", "--f0", "1"],
    ["size", "--procedure", "tf", "--sweep", "--tol", "1e-8", "--f0", "1"],
    ["size", "--procedure", "tf", "--rho", "1.5", "--f0", "1"],
    ["size", "--procedure", "threshold-2c", "--rho", "0", "--f0", "1", "--alpha", "0.01"],
    ["size", "--procedure", "bogus", "--rho", "0", "--f0", "1"],
    ["solve", "--mode", "threshold-F", "--crit", Q95],
    ["solve", "--mode", "threshold-F", "--crit", Q99, "--alpha", "0.01", *JSON],
    ["solve", "--mode", "threshold-F", "--crit", "4.5", "--alpha", ALPHA_45, *JSON],
    ["solve", "--mode", "threshold-F", "--crit", "6.6564", "--alpha", "0.01"],
    ["solve", "--mode", "critical-value", "--fbar", "10", *JSON],
    ["solve", "--mode", "critical-value", "--fbar", "10", "--raw"],
    ["solve", "--mode", "min-EF", "--crit", Q95, *JSON],
    ["solve", "--mode", "max-rho", "--crit", Q95],
    ["solve", "--mode", "min-EF", "--crit", Q99, "--alpha", "0.01"],
    ["solve", "--mode", "threshold-F"],
    ["solve", "--mode", "threshold-F", "--crit", Q95, "--fbar", "10"],
    ["solve", "--mode", "min-EF", "--fbar", "10"],
    ["solve", "--mode", "max-rho", "--crit", Q95, "--fbar", "10", *JSON],
    ["solve", "--mode", "critical-value"],
    ["solve", "--mode", "critical-value", "--fbar", "10", "--crit", Q95],
    ["table3"],
    ["table3", *JSON],
    ["table3", "--out", "<tmp>/t3.csv"],
    ["table3", "--out", "<tmp>/t3.json.csv", *JSON],
    ["table3", "--alpha", "0.1"],
    ["audit", "--input", f"<root>/{CORPUS}", *JSON],
    ["audit", "--input", f"<root>/{CORPUS}", "--prefer-reported"],
    ["audit", "--input", f"<root>/{CORPUS}", "--out", "<tmp>/report.json"],
    ["audit", "--input", f"<root>/{CORPUS}", "--out", "<tmp>/report.json.json", *JSON],
    ["audit", "--input", "<tmp>/missing.csv"],
    ["mc", "--procedure", "tf", "--rho", "0.5", "--f0", "2", "--n", "20000", "--seed", "1"],
    ["mc", "--procedure", "ar", "--rho", "0", "--ef", "2", "--n", "20000", "--seed", "7", *JSON],
    ["cv", "--f", "50", "--alpha", "2"],
    [],
]


def run_battery(root: Path, tmp: Path) -> list[str]:
    """One record per call, with tmp and root written as <tmp> and <root>."""
    env = dict(os.environ, TF_CACHE_DIR=str(tmp / "cache"), PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    def mask(text: str) -> str:
        return text.replace(str(tmp), "<tmp>").replace(str(root), "<root>")

    records = []
    for argv in BATTERY:
        real = [a.replace("<tmp>", str(tmp)).replace("<root>", str(root)) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "tfiv", *real], env=env,
                              capture_output=True, text=True, check=False)
        lines = [f"$ tfiv {' '.join(argv)}", f"exit {proc.returncode}"]
        lines += [f"  | {line}" for line in mask(proc.stdout).splitlines()]
        lines += [f"  ! {line}" for line in mask(proc.stderr).splitlines()]
        records.append("\n".join(lines))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout whose src/ is run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        records = run_battery(root, tmp)
        digest = hashlib.sha256()
        for record in records:
            print(record)
            digest.update(record.encode() + b"\n")
        for path in sorted(tmp.glob("*.*")):
            print(f"file <tmp>/{path.name}: {len(path.read_bytes())} bytes")
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    print(f"{len(records)} calls, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
