"""The cli-session workload's inputs and its two ways of making a call.

A round is 13 `tfiv` invocations with seeded arguments: `cv`; `test` with
the tf curve at the same F; `test` with one of the other three rules; `ci`
at the same F; `size` for each of the six procedure names; `table3`;
`audit` of the seeded corpus; and `mc` of the tf rule with 200,000 draws.
Every call asks for `--format json`.  This module uses only the standard library, so the
client process stays small next to the `tfiv` processes it measures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

SIZE_PROCEDURES = ("conventional", "threshold-2b", "threshold-2c", "tf", "hybrid-2b", "ar")
OTHER_TEST_PROCEDURES = ("conventional", "threshold-2b", "threshold-2c")
MC_DRAWS = 200_000
COLD_CV_F = 50.0
CORPUS_PAPERS = 57


def write_corpus(path: Path, seed: int) -> int:
    """A seeded corpus of 57 papers, the size of the paper's sample.

    |t| and F are log-normal, |t| with median 2.23 (log-sd 0.45) and F with
    median 12 (log-sd 0.5).  These four values were chosen so that, as the
    paper reports for its sample, about half of the rows that look
    significant under the conventional reading (|t| > 1.96, F > 10) are
    insignificant under tF (`checks.corpus_reclassified` measures it on
    every run).  The rest is assumed, not taken from the paper: 2-45
    specifications per paper; F_derived present for 70% of rows and
    F_reported (F times a factor in [0.8, 1.25]) for 60%; t missing for 3%;
    an explicit weight on 10%.  Returns the number of rows."""
    rng = random.Random(f"corpus:{seed}")
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["spec_id", "paper_id", "t", "F_derived", "F_reported", "weight"])
        for paper in range(1, CORPUS_PAPERS + 1):
            for _ in range(rng.randint(2, 45)):
                n += 1
                t = rng.choice((-1.0, 1.0)) * math.exp(rng.gauss(0.8, 0.45))
                F = math.exp(rng.gauss(math.log(12.0), 0.5))
                derived = f"{F:.3f}" if rng.random() < 0.7 else ""
                reported = f"{F * rng.uniform(0.8, 1.25):.3f}" if rng.random() < 0.6 else ""
                out.writerow([
                    f"s{n}",
                    f"p{paper}",
                    "" if rng.random() < 0.03 else f"{t:.4f}",
                    derived,
                    reported,
                    f"{rng.uniform(0.2, 2.0):.3f}" if rng.random() < 0.1 else "",
                ])
    return n


def round_queries(seed: int, k: int, corpus: Path) -> list[dict]:
    """Round k of the query stream: [{"op", "argv", "params"}]."""
    rng = random.Random(f"queries:{seed}:{k}")

    def num(lo: float, hi: float, nd: int = 4) -> float:
        return round(rng.uniform(lo, hi), nd)

    F = round(math.exp(rng.uniform(math.log(2.0), math.log(300.0))), 3)
    t = num(-6.0, 6.0)
    other = rng.choice(OTHER_TEST_PROCEDURES)
    t2, F2 = num(-6.0, 6.0), round(math.exp(rng.uniform(math.log(2.0), math.log(300.0))), 3)
    beta, se = num(-2.0, 2.0), num(0.05, 1.0)
    qs = [
        ("cv", {"F": F}, ["cv", "--f", repr(F)]),
        ("test", {"procedure": "tf", "t": t, "F": F},
         ["test", "--procedure", "tf", "--t", repr(t), "--f", repr(F)]),
        ("test", {"procedure": other, "t": t2, "F": F2},
         ["test", "--procedure", other, "--t", repr(t2), "--f", repr(F2)]),
        ("ci", {"beta": beta, "se": se, "F": F},
         ["ci", "--beta", repr(beta), "--se", repr(se), "--f", repr(F)]),
    ]
    for proc in SIZE_PROCEDURES:
        rho, f0 = num(-0.99, 0.99), num(0.0, 14.0)
        qs.append(("size", {"procedure": proc, "rho": rho, "f0": f0},
                   ["size", "--procedure", proc, "--rho", repr(rho), "--f0", repr(f0)]))
    qs.append(("table3", {}, ["table3"]))
    qs.append(("audit", {}, ["audit", "--input", str(corpus)]))
    # Always the curve rule, which loads the cache and holds the most memory,
    # so the peak RSS of a round does not depend on the seed.
    rho, f0 = num(-0.95, 0.95), num(0.0, 12.0)
    mc_seed = rng.randrange(2**32)
    qs.append(("mc", {"procedure": "tf", "rho": rho, "f0": f0},
               ["mc", "--procedure", "tf", "--rho", repr(rho), "--f0", repr(f0),
                "--n", str(MC_DRAWS), "--seed", str(mc_seed)]))
    return [{"op": op, "params": p, "argv": argv + ["--format", "json"]} for op, p, argv in qs]


def call_subprocess(argv: list[str], env: dict, timeout: float) -> dict:
    """One `python -m tfiv` process; the caller's clock covers its whole life."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tfiv", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "s": time.perf_counter() - t0}


def call_inprocess(main: Callable[[list[str]], int], argv: list[str]) -> dict:
    """One `tfiv.cli.main` call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "s": time.perf_counter() - t0}
