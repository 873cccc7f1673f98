"""Emit figure-ready CSV profiles of rejection probability.

One file per procedure of `tfiv size` at the 5% level, built as the CLI
builds it: rows are E[F] values, columns are rho values, cells are exact
rejection probabilities under the null.  This is the layout behind the
size-profile figures; plotting is left to whatever reads the CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from tfiv.cli import _SIZE_PROCEDURES, _build_procedure
from tfiv.size_engine import rejection_prob_matrix

RHOS = (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)


def procedures() -> dict:
    return {name: _build_procedure(name, 0.05) for name in _SIZE_PROCEDURES}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    ap.add_argument("--ef-max", type=float, default=100.0)
    ap.add_argument("--n-ef", type=int, default=100)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    efs = np.linspace(1.0, args.ef_max, args.n_ef)
    f0s = np.sqrt(efs - 1.0)
    for name, proc in procedures().items():
        mat = rejection_prob_matrix(proc, np.array(RHOS), f0s)
        path = args.out_dir / f"profile_{name}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ef," + ",".join(f"rho_{r:g}" for r in RHOS) + "\n")
            for j, ef in enumerate(efs):
                cells = ",".join(f"{mat[i, j]:.6f}" for i in range(len(RHOS)))
                fh.write(f"{ef:.4f},{cells}\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
