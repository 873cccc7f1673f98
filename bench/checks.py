"""Output checks for each workload, against references computed apart from tfiv.

Each `check_*` function takes a workload's outputs and returns a list of
(check name, failure message or None).  The references are the paper's
published values, closed forms, and the integrals in `oracles`; nothing
here calls tfiv.  An output whose operation failed is absent from the dict,
and the checks that need it are not run.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter, defaultdict
from pathlib import Path
from typing import Optional

import numpy as np

import oracles as O

ALPHA = 0.05
CRIT_2B = 1.96 * 1.96
CRIT_2C = 3.43 * 3.43
FBAR_2B = 104.7
FBAR_2C = 10.0
# Paper Table 3 cells (sqrt F, |t| critical value).
TABLE3_CELLS = ((2.5, 4.92), (3.0, 3.65), (7.0, 2.16))
# How far the tF rule may exceed its level: near f0 = 0 the curve's value
# cap (|t| critical value 50) binds, and the size there peaks at about
# sqrt(q) phi(sqrt(q)) f0_edge^2 = 6.26e-4 above alpha, f0_edge = q / (50 + sqrt(q)).
TF_CAP_OVERSHOOT = 6.3e-4
# Absolute agreement asked of `tfiv size` (run at its default tol 1e-6)
# with the reference integral, which is accurate to about 1e-9.
SIZE_TOL = 2e-6

Result = tuple[str, Optional[str]]


def _near(name: str, value: float, target: float, tol: float) -> Result:
    ok = math.isfinite(value) and abs(value - target) <= tol
    return name, None if ok else f"{value!r} is not within {tol:g} of {target!r}"


# ---------------------------------------------------------------------------
# solve-5pct


def _boundary_lines(region) -> list[tuple[str, list[tuple[int, int]]]]:
    """Every cell of the grid lines on both sides of both bounds: the E[F]
    columns at and just below ef_bar, and the rho rows at and just above
    rho_bar.  The lines follow from the reported bounds, not from the
    marking, so a wrongly marked cell cannot move them."""
    n_rho, n_ef = region.grid.shape
    j = int(np.argmin(np.abs(region.efs - region.ef_bar)))
    i = int(np.argmin(np.abs(region.rhos - region.rho_bar)))
    col = lambda c: [(r, c) for r in range(n_rho)]  # noqa: E731
    row = lambda r: [(r, c) for c in range(n_ef)]  # noqa: E731
    return [
        ("E[F] = ef_bar", col(j)),
        ("E[F] one step below ef_bar", col(j - 1) if j > 0 else []),
        ("rho = rho_bar", row(i)),
        ("rho one step above rho_bar", row(i + 1) if i + 1 < n_rho else []),
    ]


def check_solve(out: dict) -> list[Result]:
    res: list[Result] = []
    if "threshold_F" in out:
        F = out["threshold_F"]
        res.append(_near("threshold_F is 104.7 to one decimal", F, 104.7, 0.05))
        res.append(_near("1 - Phi(u) + Phi(-w) = 0.05 at the threshold",
                         O.local_max_size(F, CRIT_2B), ALPHA, 1e-9))
    if "crit" in out:
        res.append(_near("sqrt(c) is 3.43 to two decimals", math.sqrt(out["crit"]), 3.43, 0.005))
    if "region" in out:
        reg = out["region"]
        ef_bar = math.nan if reg.ef_bar is None else reg.ef_bar
        res.append(_near("ef_bar is 142.6", ef_bar, 142.6, 0.05))
        res.append(_near("rho_bar is 0.565", reg.rho_bar, 0.565, 5e-4))
        if math.isfinite(ef_bar):
            rule = O.Rule("t", CRIT_2B)
            bad = []
            for label, cells in _boundary_lines(reg):
                own = [O.size(rule, float(reg.rhos[r]), math.sqrt(reg.efs[c] - 1.0)) <= ALPHA + 1e-9
                       for r, c in cells]
                wrong = sum(bool(reg.grid[r, c]) != v for (r, c), v in zip(cells, own))
                if wrong:
                    bad.append(f"{label}: {wrong} of {len(cells)} cells marked otherwise than "
                               "the own integral")
                inside = label in ("E[F] = ef_bar", "rho = rho_bar")
                if not cells or all(own) != inside:
                    bad.append(f"{label}: " + ("not all cells valid" if inside else "no invalid cell"))
            res.append(("own integral confirms every cell on both sides of both bounds",
                        "; ".join(bad) or None))
    return res


# ---------------------------------------------------------------------------
# tf-curve


def check_tf_curve(out: dict, seed: int) -> list[Result]:
    res: list[Result] = []
    if "cvf" not in out:
        return res
    cvf = out["cvf"]
    knots = np.asarray(cvf.knots, dtype=float)
    curve = O.Curve(knots[:, 0], knots[:, 1], float(cvf.lower_support))
    res.append(_near("f_tilde is 104.7 +- 0.1", cvf.f_tilde, 104.7, 0.1))
    f0s = np.arange(0.5, 8.5 + 1e-9, 0.01)
    ridge = np.array([O.ridge_size(curve, float(f0)) for f0 in f0s])
    k = int(np.argmax(np.abs(ridge - ALPHA)))
    res.append(_near(f"own |rho| = 1 size on f0 in [0.5, 8.5] (worst at f0={f0s[k]:.2f})",
                     float(ridge[k]), ALPHA, 1e-4))
    if "table" in out:
        table = np.asarray(out["table"], dtype=float)
        for x, want in TABLE3_CELLS:
            r, c = round(10 * (x - int(x))), int(x) - 2
            res.append(_near(f"Table 3 cell at sqrt F = {x}", float(table[r, c]), want, 1e-9))
        xs = np.array([[c + r / 10.0 for c in range(2, 10)] for r in range(10)])
        g = np.interp(xs, curve.xs, curve.gs)
        off = (table < g - 1e-12) | (table - g >= 0.01 + 1e-12)
        res.append(("every Table 3 cell is the curve rounded up to two decimals",
                    None if not off.any() else f"{int(off.sum())} cells off"))
    if "worst" in out:
        rng = random.Random(seed)
        probe = sorted(rng.uniform(0.0, 40.0) for _ in range(40))
        own = max(O.ridge_size(curve, f0) for f0 in probe + [float(f0s[k])])
        wc = out["worst"].max_prob
        res.append(("worst-case size is at least every own |rho| = 1 size",
                    None if wc >= own - 1e-9 else f"worst case {wc!r} < own ridge value {own!r}"))
        cap = ALPHA + TF_CAP_OVERSHOOT
        res.append((f"worst-case size is at most {ALPHA} + {TF_CAP_OVERSHOOT:g}",
                    None if wc <= cap else f"worst case {wc!r} > {cap!r}"))
    return res


# ---------------------------------------------------------------------------
# cli-session


def _own_rule(name: str, curve: O.Curve) -> O.Rule:
    return {
        "conventional": O.Rule("t", O.Q95),
        "threshold-2b": O.Rule("threshold", CRIT_2B, FBAR_2B),
        "threshold-2c": O.Rule("threshold", CRIT_2C, FBAR_2C),
        "hybrid-2b": O.Rule("hybrid", CRIT_2B, FBAR_2B),
        "ar": O.Rule("ar", O.Q95),
        "tf": O.Rule("tf", curve=curve),
    }[name]


def _own_decision(name: str, t: float, F: float, curve: O.Curve) -> bool:
    """Significance under each rule, written from the paper's definitions."""
    if name == "conventional":
        return t * t > O.Q95
    if name == "threshold-2b":
        return t * t > CRIT_2B and F > FBAR_2B
    if name == "threshold-2c":
        return t * t > CRIT_2C and F > FBAR_2C
    return t * t > curve.crit(F)  # tf; c(F) is infinite below the support


def _read_corpus(path: Path) -> list[tuple[float, float, float]]:
    """(t, F, weight) for the rows with both t and F, F_derived preferred; a
    blank weight is 1 / (rows of the same paper, counting every row)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    per_paper = Counter(row["paper_id"] for row in rows)
    out = []
    for row in rows:
        t = row["t"].strip()
        F = row["F_derived"].strip() or row["F_reported"].strip()
        if t and F:
            w = row["weight"].strip()
            out.append((float(t), float(F), float(w) if w else 1.0 / per_paper[row["paper_id"]]))
    return out


def _check_audit(doc: dict, corpus: Path, curve: O.Curve) -> list[str]:
    bad = []
    rows = _read_corpus(corpus)
    total = math.fsum(w for _, _, w in rows)
    report = doc["report"]["procedures"]
    for name, cells in report.items():
        shares = sum(cells["weighted_shares"].values())
        if abs(shares - 1.0) > 1e-5:
            bad.append(f"{name}: weighted shares sum to {shares!r}")
        counts = defaultdict(int)
        wsum = defaultdict(list)
        for t, F, w in rows:
            key = ("sig" if _own_decision(name, t, F, curve) else "insig") + (
                "_F_above" if F > 10.0 else "_F_below")
            counts[key] += 1
            wsum[key].append(w)
        for key in ("sig_F_above", "sig_F_below", "insig_F_above", "insig_F_below"):
            if cells["counts"][key] != counts[key]:
                bad.append(f"{name}: {key} count {cells['counts'][key]} != own {counts[key]}")
            own_share = math.fsum(wsum[key]) / total
            if abs(cells["weighted_shares"][key] - own_share) > 1e-6:
                bad.append(f"{name}: {key} share {cells['weighted_shares'][key]} != own {own_share:.6f}")
    conv, tf = report.get("conventional"), report.get("tf")
    if conv and tf:
        for key in ("sig_F_above", "sig_F_below"):
            if tf["counts"][key] > conv["counts"][key]:
                bad.append(f"tf {key} {tf['counts'][key]} exceeds conventional {conv['counts'][key]}")
    return bad


def corpus_reclassified(corpus: Path, cache_file: Path) -> dict:
    """Among the corpus rows significant under the conventional reading
    (|t| > 1.96 and F > 10), the share that tF and the 3.43 rule leave
    insignificant, unweighted and weighted.  The paper reports about half
    for its sample."""
    curve = O.curve_from_cache(json.loads(cache_file.read_text()))
    cell = [(t, F, w) for t, F, w in _read_corpus(corpus) if t * t > O.Q95 and F > FBAR_2C]
    total = math.fsum(w for _, _, w in cell)
    out = {"rows": len(cell)}
    for name in ("tf", "threshold-2c"):
        insig = [w for t, F, w in cell if not _own_decision(name, t, F, curve)]
        out[name] = {"share": len(insig) / len(cell), "weighted_share": math.fsum(insig) / total}
    return out


def _check_call(op: str, p: dict, doc: dict, cv_crit: dict, curve: O.Curve,
                corpus: Path) -> Optional[str]:
    """Failure message for one call's JSON output, or None."""
    if op == "cv":
        crit = math.inf if doc["unbounded"] else doc["crit"]
        cv_crit[p["F"]] = crit
        own = curve.crit(p["F"])
        if math.isinf(own) or math.isinf(crit):
            if crit != own:
                return f"c({p['F']}) = {crit!r}, curve gives {own!r}"
        elif abs(crit - own) > 1e-12 * own:
            return f"c({p['F']}) = {crit!r}, curve gives {own!r}"
    elif op == "test":
        if p["procedure"] == "tf":
            want = p["t"] * p["t"] > cv_crit.get(p["F"], curve.crit(p["F"]))
        else:
            want = _own_decision(p["procedure"], p["t"], p["F"], curve)
        if doc["reject"] != want:
            return f"reject={doc['reject']} at t={p['t']!r}, F={p['F']!r}"
    elif op == "ci":
        crit = cv_crit.get(p["F"], curve.crit(p["F"]))
        if math.isinf(crit) or doc["unbounded"]:
            if math.isinf(crit) != doc["unbounded"]:
                return f"unbounded={doc['unbounded']} where c(F) = {crit!r}"
            return None
        half = math.sqrt(crit) * p["se"]
        got = (doc["lower"], doc["upper"], doc["se_adjusted"])
        want = (p["beta"] - half, p["beta"] + half, p["se"] * math.sqrt(crit / curve.q))
        if any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)):
            return f"(lower, upper, se_adjusted) = {got}, own {want}"
    elif op in ("size", "mc"):
        own = O.ar_size() if p["procedure"] == "ar" else O.size(
            _own_rule(p["procedure"], curve), p["rho"], p["f0"])
        if op == "size":
            if abs(doc["prob"] - own) > SIZE_TOL:
                return f"prob {doc['prob']!r}, own integral {own!r}"
            return None
        # Four binomial standard errors at the reference probability (so a
        # rate near 0 or 1 is not judged by a zero sample error), plus 1/n.
        n = doc["n_draws"]
        if abs(doc["estimate"] - own) > 4.0 * math.sqrt(own * (1.0 - own) / n) + 1.0 / n:
            return f"estimate {doc['estimate']} with n = {n}, own integral {own:.6f}"
    elif op == "table3":
        rows = {r[0]: r[1:] for r in csv.reader(doc["csv"].splitlines())}
        for x, want in TABLE3_CELLS:
            got = float(rows[f"{x - int(x):.1f}"][int(x) - 2])
            if got != want:
                return f"cell at sqrt F = {x} is {got}, paper {want}"
    elif op == "audit":
        return "; ".join(_check_audit(doc, corpus, curve)) or None
    return None


def check_cli(calls: list[dict], corpus: Path, cache_file: Path, schema_file: Path) -> list[Result]:
    """Checks one query stream's calls: each {"op", "argv", "rc", "stdout", "params"}."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(json.loads(schema_file.read_text()))
    curve = O.curve_from_cache(json.loads(cache_file.read_text()))
    res: list[Result] = []
    cv_crit: dict[float, float] = {}
    for call in calls:
        label = " ".join([call["op"], call["params"].get("procedure", "")]).strip()
        if call["rc"] != 0:
            res.append((f"{label}: exit code 0", f"exit code {call['rc']}"))
            continue
        try:
            doc = json.loads(call["stdout"])
            validator.validate(doc)
        except (ValueError, jsonschema.ValidationError) as exc:
            res.append((f"{label}: output validates against the schema", str(exc).splitlines()[0]))
            continue
        try:
            bad = _check_call(call["op"], call["params"], doc, cv_crit, curve, corpus)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            bad = f"malformed output: {exc!r}"
        res.append((f"{label}: output agrees with the reference", bad))
    return res
