"""Show that every output check fails on a deliberately perturbed output.

    python3 bench/perturb.py        # from the repository root; about 2 minutes

Computes each workload's real outputs once (one round each, with tfiv from
./src), confirms the checks pass on them, then applies one perturbation at
a time and confirms that the check it targets fails.  Exits 1 if a check
fails on the real outputs or misses its perturbation.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import cli_session  # noqa: E402
import worker  # noqa: E402


def _failed(results: list) -> set[str]:
    return {name for name, msg in results if msg is not None}


def _clean(workload: str, results: list) -> bool:
    failed = _failed(results)
    for name in sorted(failed):
        print(f"  FAILED on the real outputs: {name}")
    print(f"  {workload}: {len(results)} checks, {len(failed)} failed on the real outputs")
    return not failed


def _report(label: str, results: list, target: str) -> bool:
    hit = any(target in name for name in _failed(results))
    print(f"  {'caught' if hit else 'MISSED'}: {label} -> {target!r}")
    return hit


def solve_cases(out: dict) -> list[tuple[str, dict, str]]:
    reg = out["region"]

    def region(**kw) -> SimpleNamespace:
        fields = dict(rhos=reg.rhos, efs=reg.efs, grid=reg.grid.copy(),
                      ef_bar=reg.ef_bar, rho_bar=reg.rho_bar)
        fields.update(kw)
        return SimpleNamespace(**fields)

    step = reg.efs[1] - reg.efs[0]
    cases = [
        ("threshold + 0.1", dict(out, threshold_F=out["threshold_F"] + 0.1), "threshold_F is 104.7"),
        ("threshold + 1e-4", dict(out, threshold_F=out["threshold_F"] + 1e-4), "1 - Phi(u) + Phi(-w)"),
        ("critical value x 1.01", dict(out, crit=out["crit"] * 1.01), "sqrt(c) is 3.43"),
        ("ef_bar one grid step up", dict(out, region=region(ef_bar=reg.ef_bar + step)), "ef_bar is 142.6"),
        ("rho_bar + 0.005", dict(out, region=region(rho_bar=reg.rho_bar + 0.005)), "rho_bar is 0.565"),
    ]
    inner = region()
    inner.grid[0, checks._boundary_lines(reg)[0][1][0][1]] = False
    cases.append(("cell (rho=0, E[F]=ef_bar) marked invalid", dict(out, region=inner),
                  "own integral confirms"))
    # Mark each invalid cell next to a bound valid, one at a time.
    for label, cells in checks._boundary_lines(reg):
        for r, c in cells:
            if not reg.grid[r, c]:
                flipped = region()
                flipped.grid[r, c] = True
                cases.append((f"{label}: cell (rho={reg.rhos[r]:.3f}, E[F]={reg.efs[c]:.3f}) "
                              "marked valid", dict(out, region=flipped), "own integral confirms"))
    return cases


def tf_cases(out: dict) -> list[tuple[str, dict, str]]:
    cvf = out["cvf"]

    def curve(**kw) -> SimpleNamespace:
        fields = dict(knots=cvf.knots, lower_support=cvf.lower_support, f_tilde=cvf.f_tilde)
        fields.update(kw)
        return SimpleNamespace(**fields)

    raised = tuple((x, g + 0.01 if 3.0 <= x <= 6.0 else g) for x, g in cvf.knots)
    table = out["table"].copy()
    table[5, 0] += 0.01
    lower = SimpleNamespace(max_prob=out["worst"].max_prob - 1e-3)
    higher = SimpleNamespace(max_prob=out["worst"].max_prob + 1e-4)
    return [
        ("f_tilde + 0.2", dict(out, cvf=curve(f_tilde=cvf.f_tilde + 0.2)), "f_tilde is 104.7"),
        ("curve + 0.01 on sqrt F in [3, 6]", dict(out, cvf=curve(knots=raised)), "own |rho| = 1 size"),
        ("Table 3 cell at 2.5 + 0.01", dict(out, table=table), "Table 3 cell at sqrt F = 2.5"),
        ("Table 3 cell at 2.5 + 0.01", dict(out, table=table), "every Table 3 cell"),
        ("worst-case size - 1e-3", dict(out, worst=lower), "worst-case size is at least"),
        ("worst-case size + 1e-4", dict(out, worst=higher), "worst-case size is at most"),
    ]


def cli_cases(calls: list[dict]) -> list[tuple[str, list, str]]:
    def edit(op: str, fn, procedure: str | None = None) -> list[dict]:
        new = copy.deepcopy(calls)
        call = next(c for c in new if c["op"] == op
                    and (procedure is None or c["params"].get("procedure") == procedure))
        doc = json.loads(call["stdout"])
        fn(call, doc)
        call["stdout"] = json.dumps(doc)
        return new

    def set_rc(call, doc):
        call["rc"] = 1

    def bump_share(call, doc):
        cells = doc["report"]["procedures"]["tf"]
        cells["weighted_shares"]["sig_F_above"] += 1e-3

    def tf_beats_conventional(call, doc):
        procs = doc["report"]["procedures"]
        procs["tf"]["counts"]["sig_F_above"] = procs["conventional"]["counts"]["sig_F_above"] + 1

    def table_cell(call, doc):
        doc["csv"] = doc["csv"].replace("\n0.5,4.92,", "\n0.5,4.93,")

    mc_procedure = next(c["params"]["procedure"] for c in calls if c["op"] == "mc")
    return [
        ("cv exits 1", edit("cv", set_rc), "cv: exit code 0"),
        ("cv output gains a field", edit("cv", lambda c, d: d.update(extra=1)), "cv: output validates"),
        ("c(F) x 1.001", edit("cv", lambda c, d: d.update(crit=(d["crit"] or 4.0) * 1.001,
                                                          unbounded=False)), "cv: output agrees"),
        ("tf test decision flipped", edit("test", lambda c, d: d.update(reject=not d["reject"]), "tf"),
         "test tf: output agrees"),
        ("ci lower bound - 1e-6", edit("ci", lambda c, d: d.update(
            lower=(d["lower"] or 0.0) - 1e-6, upper=d["upper"] or 0.0, unbounded=False)),
         "ci: output agrees"),
        ("conventional size + 1e-5", edit("size", lambda c, d: d.update(prob=d["prob"] + 1e-5),
                                          "conventional"), "size conventional: output agrees"),
        ("tf size + 1e-5", edit("size", lambda c, d: d.update(prob=d["prob"] + 1e-5), "tf"),
         "size tf: output agrees"),
        ("ar size + 1e-5", edit("size", lambda c, d: d.update(prob=d["prob"] + 1e-5), "ar"),
         "size ar: output agrees"),
        ("Table 3 cell at 2.5 -> 4.93", edit("table3", table_cell), "table3: output agrees"),
        ("audit tf share + 1e-3", edit("audit", bump_share), "audit: output agrees"),
        ("audit tf significant > conventional", edit("audit", tf_beats_conventional),
         "audit: output agrees"),
        ("mc estimate + 0.01", edit("mc", lambda c, d: d.update(estimate=d["estimate"] + 0.01)),
         f"mc {mc_procedure}: output agrees"),
    ]


def main() -> int:
    seed = 7
    ok = True
    ops = worker.Ops()
    print("solve-5pct: computing real outputs")
    out = worker.solve_round(ops)
    ok &= _clean("solve-5pct", checks.check_solve(out))
    for label, bad, target in solve_cases(out):
        ok &= _report(label, checks.check_solve(bad), target)

    print("tf-curve: computing real outputs")
    out = worker.tf_curve_round(ops)
    ok &= _clean("tf-curve", checks.check_tf_curve(out, seed))
    for label, bad, target in tf_cases(out):
        ok &= _report(label, checks.check_tf_curve(bad, seed), target)

    print("cli-session: one cold cv and one round of calls")
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perturb-", dir=runs))
    try:
        env = dict(os.environ, TF_CACHE_DIR=str(tmp / "cache"), PYTHONPATH=str(ROOT / "src"))
        cli_session.call_subprocess(["cv", "--f", "50"], env, 120.0)
        corpus = tmp / "corpus.csv"
        cli_session.write_corpus(corpus, seed)
        calls = worker.cli_round(
            lambda argv: cli_session.call_subprocess(argv, env, 60.0),
            cli_session.round_queries(seed, 0, corpus), ops)
        cache = next((tmp / "cache").glob("*.json"))
        schema = ROOT / "src" / "tfiv" / "schemas" / "cli_output.schema.json"
        ok &= _clean("cli-session", checks.check_cli(calls, corpus, cache, schema))
        for label, bad, target in cli_cases(calls):
            ok &= _report(label, checks.check_cli(bad, corpus, cache, schema), target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all perturbations caught" if ok else "SOME PERTURBATION WAS MISSED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
