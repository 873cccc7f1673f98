import hashlib
import importlib.resources
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tfiv import cli
from tfiv.cli import main
from tfiv.errors import ConstructionError
from tfiv.gaussian import Q95, ndtr
from tfiv.tf_critical import _canonical_payload, build_cvf, default_knot_grid, load_cvf, table3_csv


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def schema():
    text = (
        importlib.resources.files("tfiv")
        .joinpath("schemas/cli_output.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def check_json(out, schema):
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    # full-precision round trip: serializing the parsed document loses nothing
    assert json.loads(json.dumps(doc)) == doc
    return doc


# ---------------------------------------------------------------------------
# cv


def test_cv_table_value(cli_env, capsys):
    code, out, _ = run_cli(["cv", "--f", "6.25"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sqrt c(F) = 4.92 (table value, rounded up)"
    assert lines[1].startswith("sqrt c(F) = 4.9168 unrounded")

    code, out, _ = run_cli(["cv", "--f", "49"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "sqrt c(F) = 2.16 (table value, rounded up)"


def test_cv_unbounded(cli_env, capsys):
    code, out, _ = run_cli(["cv", "--f", "2.0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "unbounded"


def test_cv_json(cli_env, capsys, schema):
    code, out, _ = run_cli(["cv", "--f", "6.25", "--format", "json"], capsys)
    assert code == 0
    doc = check_json(out, schema)
    assert doc["command"] == "cv"
    assert not doc["unbounded"]
    assert math.isclose(doc["crit"], 24.17516187136312, rel_tol=1e-12)
    assert doc["sqrt_crit_table"] == 4.92

    code, out, _ = run_cli(["cv", "--f", "1.0", "--format", "json"], capsys)
    doc = check_json(out, schema)
    assert doc["unbounded"] and doc["crit"] is None


def test_curve_commands_read_the_knots_at_the_pin(cli_env, capsys, schema):
    # sqrt F = 10.23088 lies just past the pin knot (10.2308726) and short of
    # the next 0.005-pitch knot; every command reads c(F) from the knots.
    F = 104.671
    doc = json.loads((cli_env / "cvf-alpha0.05.json").read_text(encoding="utf-8"))
    xs, gs = zip(*doc["payload"]["knots"])
    want = float(np.interp(math.sqrt(F), xs, gs)) ** 2

    def run(argv):
        code, out, _ = run_cli([*argv, "--f", repr(F), "--format", "json"], capsys)
        assert code == 0
        return check_json(out, schema)

    assert math.isclose(run(["cv"])["crit"], want, rel_tol=0.0, abs_tol=1e-12)
    t = math.sqrt(want + 5e-6)
    for t_run in (t, math.sqrt(want - 5e-6)):
        got = run(["test", "--procedure", "tf", "--t", repr(t_run)])
        assert math.isclose(got["cutoff_abs_t"] ** 2, want, rel_tol=0.0, abs_tol=1e-12)
        assert got["reject"] is (t_run == t)
    half = run(["ci", "--beta", "0", "--se", "1"])["half_width"]
    assert math.isclose(half * half, want, rel_tol=0.0, abs_tol=1e-12)


def test_cv_rejects_negative_f(cli_env, capsys):
    code, _, err = run_cli(["cv", "--f", "-3"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DomainError"


# ---------------------------------------------------------------------------
# test


def test_test_decisions(cli_env, capsys, schema):
    code, out, _ = run_cli(
        ["test", "--t", "2.5", "--f", "30", "--procedure", "tf"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "reject"

    code, out, _ = run_cli(
        ["test", "--t", "2.5", "--f", "30", "--procedure", "threshold-2b"], capsys
    )
    assert out.splitlines()[0] == "accept"

    code, out, _ = run_cli(
        ["test", "--t", "2.5", "--f", "30", "--procedure", "conventional",
         "--format", "json"],
        capsys,
    )
    doc = check_json(out, schema)
    assert doc["reject"] is True
    assert doc["f_threshold"] is None


def test_presets_refuse_other_levels(cli_env, capsys):
    code, _, err = run_cli(
        ["test", "--t", "2.0", "--f", "30", "--procedure", "threshold-2b",
         "--alpha", "0.01"],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DomainError"
    for name in ("threshold-2b", "threshold-2c", "hybrid-2b"):
        code, out, err = run_cli(
            ["size", "--procedure", name, "--rho", "0", "--f0", "1", "--alpha", "0.01"], capsys
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "type": "DomainError",
            "message": f"procedure {name!r} is a 5% preset; alpha = 0.01 is unsupported",
        }}


# ---------------------------------------------------------------------------
# ci


def test_ci_lines(cli_env, capsys):
    code, out, _ = run_cli(["ci", "--beta", "3.2", "--se", "1.5", "--f", "9"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ci = (-2.2714, 8.6714)"
    assert lines[1] == "adjusted se = 2.7916 (inflation 1.8610x over conventional)"

    code, out, _ = run_cli(["ci", "--beta", "3.2", "--se", "1.5", "--f", "200"], capsys)
    lines = out.splitlines()
    assert lines[0] == "ci = (0.2601, 6.1399)"
    assert "inflation 1.0000x" in lines[1]


def test_ci_unbounded(cli_env, capsys, schema):
    code, out, _ = run_cli(["ci", "--beta", "0", "--se", "1", "--f", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "ci = (-inf, inf), unbounded"

    code, out, _ = run_cli(
        ["ci", "--beta", "0", "--se", "1", "--f", "2", "--format", "json"], capsys
    )
    doc = check_json(out, schema)
    assert doc["unbounded"] and doc["lower"] is None and doc["se_adjusted"] is None


def test_ci_overflowing_ends_are_null(cli_env, capsys, schema):
    # sqrt(c) * 1e308 overflows: JSON has no Infinity, so the ends are null.
    def refuse(name):
        raise AssertionError(f"not valid JSON: {name}")

    code, out, _ = run_cli(
        ["ci", "--beta", "1", "--se", "1e308", "--f", "50", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out, parse_constant=refuse)
    jsonschema.validate(doc, schema)
    assert doc["lower"] is None and doc["upper"] is None and doc["half_width"] is None
    assert not doc["unbounded"] and doc["se_adjusted"] > 1e308


def test_ci_plain_lines_of_huge_se(cli_env, capsys):
    # Large values print in exponent form.  The plain line says "unbounded"
    # exactly when the JSON does; ends that overflow a float say so instead.
    code, out, _ = run_cli(["ci", "--beta", "1", "--se", "1e300", "--f", "50"], capsys)
    assert code == 0
    ci_line, se_line = out.splitlines()
    lower, upper = ci_line.removeprefix("ci = (").removesuffix(")").split(", ")
    assert lower.startswith("-") and lower.endswith("e+300") and upper.endswith("e+300")
    assert float(lower) == -float(upper) and len(ci_line) < 40
    assert se_line.startswith("adjusted se = ") and "e+300 (inflation" in se_line
    for argv in (["--se", "1e300"], ["--se", "1e308"], ["--se", "1", "--f", "2"]):
        argv = ["ci", "--beta", "1", "--f", "50", *argv]
        code, out, _ = run_cli(argv, capsys)
        unbounded = "unbounded" in out.splitlines()[0]
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert unbounded == json.loads(out)["unbounded"], argv
    code, out, _ = run_cli(["ci", "--beta", "1", "--se", "1e308", "--f", "50"], capsys)
    assert out.splitlines()[0] == "ci = (overflow, overflow)"


# ---------------------------------------------------------------------------
# size


def test_size_point(cli_env, capsys, schema):
    code, out, _ = run_cli(["size", "--procedure", "ar", "--rho", "0.3", "--f0", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("rejection probability = 0.0500")

    code, out, _ = run_cli(
        ["size", "--procedure", "threshold-2b", "--rho", "0.5", "--f0", "5", "--raw"],
        capsys,
    )
    assert out.splitlines()[0].startswith("rejection probability = 7.09")

    code, out, _ = run_cli(
        ["size", "--procedure", "tf", "--rho", "0.9", "--f0", "4", "--format", "json"],
        capsys,
    )
    doc = check_json(out, schema)
    assert math.isclose(doc["prob"], 0.042967, abs_tol=2e-6)
    assert doc["ef"] == 17.0


def test_size_ef_equivalent_to_f0(cli_env, capsys):
    _, out_a, _ = run_cli(["size", "--procedure", "ar", "--rho", "0", "--f0", "2"], capsys)
    _, out_b, _ = run_cli(["size", "--procedure", "ar", "--rho", "0", "--ef", "5"], capsys)
    assert out_a == out_b
    code, _, err = run_cli(
        ["size", "--procedure", "ar", "--rho", "0", "--f0", "2", "--ef", "5"], capsys
    )
    assert code == 1
    assert "exactly one of" in json.loads(err)["error"]["message"]


def test_size_sweep(cli_env, capsys, schema):
    code, out, _ = run_cli(
        ["size", "--procedure", "conventional", "--f0", "2", "--sweep"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho,prob"
    assert len(lines) == 202
    assert lines[1].startswith("-1.00,")
    assert lines[-1].startswith("1.00,")
    # conventional size is mirror-symmetric in rho
    assert lines[1].split(",")[1] == lines[-1].split(",")[1]

    code, out, _ = run_cli(
        ["size", "--procedure", "conventional", "--f0", "2", "--sweep",
         "--format", "json"],
        capsys,
    )
    doc = check_json(out, schema)
    assert len(doc["sweep"]["rho"]) == 201 == len(doc["sweep"]["prob"])


def test_size_refuses_f0_past_the_cap(cli_env, capsys):
    # Past f0 = 1e8 the engine no longer resolves its window in floating
    # point; there the answers were 0.0639 (limit 0.05), 0 and overflows.
    for argv in (
        ["--procedure", "conventional", "--rho", "0.3", "--f0", "1e16"],
        ["--procedure", "hybrid-2b", "--rho", "0.3", "--ef", "1e300"],
        ["--procedure", "conventional", "--sweep", "--f0", "1e200"],
    ):
        code, out, err = run_cli(["size", *argv], capsys)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError" and "1e+08" in error["message"]
    argv = ["size", "--procedure", "conventional", "--rho", "0.3", "--f0", "1e8"]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["prob"] - 2.0 * ndtr(-math.sqrt(Q95))) <= doc["abs_err"]


def test_size_rejects_bad_rho(cli_env, capsys):
    code, _, err = run_cli(["size", "--procedure", "ar", "--rho", "2", "--f0", "1"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DomainError"
    # Neither --rho nor --sweep, or both (an out-of-range --rho included).
    for extra in ([], ["--rho", "2", "--sweep"], ["--rho", "0.5", "--sweep"]):
        code, _, err = run_cli(["size", "--procedure", "conventional", "--f0", "2", *extra], capsys)
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "exactly one of --rho / --sweep" in error["message"]
    # The sweep reports no error, so it takes no --tol (the point does).
    argv = ["size", "--procedure", "conventional", "--f0", "2", "--tol", "1e-20"]
    for extra in (["--sweep"], ["--rho", "0.5"]):
        code, _, err = run_cli([*argv, *extra], capsys)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DomainError"


# ---------------------------------------------------------------------------
# solve


def test_solve_max_rho(cli_env, capsys, schema):
    code, out, _ = run_cli(
        ["solve", "--mode", "max-rho", "--crit", "3.8414588206941254", "--raw"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("max rho = ")
    unrounded = float(lines[1].split(":")[1])
    assert math.isclose(unrounded, 0.565, abs_tol=5e-4)

    code, out, _ = run_cli(
        ["solve", "--mode", "max-rho", "--crit", "3.8414588206941254",
         "--format", "json"],
        capsys,
    )
    doc = check_json(out, schema)
    assert doc["exists"] is True
    assert math.isclose(doc["result"], 0.565, abs_tol=5e-4)


@pytest.mark.parametrize("crit, alpha", [("0.74", "0.2"), ("1.0", "0.3")])
def test_solve_threshold_f_none_when_limit_exceeds_alpha(cli_env, capsys, schema, crit, alpha):
    # 2 Phi(-sqrt(crit)) > alpha > 1 - Phi(sqrt(crit)): the strong-instrument
    # limit is above alpha, so no gate helps, though the one-sided closed
    # form still offers a candidate.
    code, out, _ = run_cli(
        ["solve", "--mode", "threshold-F", "--crit", crit, "--alpha", alpha, "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = check_json(out, schema)
    assert doc["exists"] is False and doc["result"] is None


def test_solve_threshold_f_past_crit_four(cli_env, capsys, schema):
    # Past crit = 4 a gate exists above the limit; at the 1% quantile none
    # does up to the cap, and the plain output says only that.
    alpha = 2.0 * float(ndtr(-math.sqrt(4.5))) + 1e-4
    code, out, _ = run_cli(
        ["solve", "--mode", "threshold-F", "--crit", "4.5", "--alpha", repr(alpha),
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = check_json(out, schema)
    assert doc["exists"] is True and doc["result"] == 1633.5865160485776

    code, out, _ = run_cli(
        ["solve", "--mode", "threshold-F", "--crit", "6.6348966010212145", "--alpha", "0.01"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "none",
        "no F threshold up to 10,000 is certified to keep the worst-case size "
        "within alpha at this critical value",
    ]


def test_solve_flag_pairing(cli_env, capsys):
    # critical-value takes --fbar and refuses --crit; every other mode the reverse.
    for mode in ("threshold-F", "min-EF", "max-rho", "critical-value"):
        need, refuse = ("--fbar", "--crit") if mode == "critical-value" else ("--crit", "--fbar")
        for argv, message in (
            ([], f"--mode {mode} requires {need}"),
            ([need, "10", refuse, "3.84"], f"--mode {mode} does not take {refuse}"),
        ):
            code, out, err = run_cli(["solve", "--mode", mode, *argv], capsys)
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": {"type": "DomainError", "message": message}}


# ---------------------------------------------------------------------------
# table3 / audit


def test_table3_stdout_and_file(cli_env, capsys, tmp_path, schema):
    code, out, _ = run_cli(["table3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sqrtF_int,2,3,4,5,6,7,8,9"
    assert len(lines) == 11
    assert lines[6].startswith("0.5,4.92,")

    dest = tmp_path / "t3.csv"
    code, out, _ = run_cli(["table3", "--out", str(dest)], capsys)
    assert out.splitlines() == [f"wrote {dest}"]
    cache = load_cvf(cli_env / "cvf-alpha0.05.json")
    assert dest.read_text(encoding="utf-8") == table3_csv(cache)

    code, out, _ = run_cli(["table3", "--format", "json"], capsys)
    doc = check_json(out, schema)
    assert doc["csv"].splitlines()[0] == "sqrtF_int,2,3,4,5,6,7,8,9"


@pytest.mark.parametrize("command", ["table3", "audit"])
def test_out_under_json_writes_the_plain_output(cli_env, capsys, tmp_path, schema,
                                               fixture_corpus, command):
    argv = ["table3"] if command == "table3" else ["audit", "--input", str(fixture_corpus)]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    dest = tmp_path / "out.txt"
    code, out, err = run_cli([*argv, "--out", str(dest), "--format", "json"], capsys)
    assert (code, err) == (0, "")
    doc = check_json(out, schema)
    assert doc["out"] == str(dest)
    assert dest.read_text(encoding="utf-8") == plain


def test_table3_refuses_unbuildable_level(cli_env, capsys):
    # The table is the 5% one: other levels are refused before any curve is
    # built, whether or not `build_cvf` could build them.
    cached = sorted(cli_env.rglob("*"))
    for alpha in ("0.3", "0.025", "0.1"):
        code, _, err = run_cli(["table3", "--alpha", alpha], capsys)
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "alpha = 0.05" in error["message"]
    assert sorted(cli_env.rglob("*")) == cached


def test_audit_fixture(cli_env, capsys, tmp_path, schema, fixture_corpus):
    code, out, _ = run_cli(
        ["audit", "--input", str(fixture_corpus), "--format", "json"], capsys
    )
    assert code == 0
    doc = check_json(out, schema)
    report = doc["report"]
    assert report["baseline_cell"] == {"count": 2, "weighted_share": 0.5}
    assert report["procedures"]["threshold-2b"]["reclassified"]["count"] == 1
    assert report["procedures"]["tf"]["reclassified"]["count"] == 0

    code, out, _ = run_cli(
        ["audit", "--input", str(fixture_corpus), "--prefer-reported",
         "--format", "json"],
        capsys,
    )
    doc = check_json(out, schema)
    assert doc["report"]["procedures"]["threshold-2b"]["reclassified"]["count"] == 0

    dest = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["audit", "--input", str(fixture_corpus), "--out", str(dest)], capsys
    )
    assert out.splitlines() == [f"wrote {dest}"]
    assert json.loads(dest.read_text(encoding="utf-8"))["n_records"] == 3


def test_audit_missing_file(cli_env, capsys, tmp_path):
    code, _, err = run_cli(
        ["audit", "--input", str(tmp_path / "nope.csv")], capsys
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "IOError"


@pytest.mark.parametrize(
    "row",
    ["m\u00fcller,p,2.5,30,,".encode("latin-1"), b"a,p," + b"9" * 200_000 + b",30,,"],
    ids=["latin-1", "field-over-csv-limit"],
)
def test_audit_unreadable_file(cli_env, capsys, tmp_path, row):
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(b"spec_id,paper_id,t,F_derived,F_reported,weight\n" + row + b"\n")
    code, _, err = run_cli(["audit", "--input", str(corpus)], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError" and str(corpus) in error["message"]


# ---------------------------------------------------------------------------
# mc


def test_mc_deterministic(cli_env, capsys, schema):
    argv = ["mc", "--procedure", "ar", "--rho", "0", "--f0", "1",
            "--n", "100000", "--seed", "7"]
    code, out_a, _ = run_cli(argv, capsys)
    assert code == 0
    assert out_a.splitlines()[0] == "estimate = 0.0501 +/- 0.0007 (n = 100000, seed = 7)"
    _, out_b, _ = run_cli(argv, capsys)
    assert out_b == out_a

    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    doc = check_json(out, schema)
    assert abs(doc["estimate"] - 0.05) <= 4.0 * doc["std_error"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_mc_rejects_seed_out_of_range(cli_env, capsys, seed):
    # Seeds must lie in [0, 2^64); Philox refuses negative ones, and the CLI
    # answers with a JSON error, not numpy's traceback.
    code, _, err = run_cli(["mc", "--procedure", "ar", "--rho", "0.5", "--f0", "2",
                            "--n", "10000", "--seed", seed], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError" and "seed" in error["message"]


# ---------------------------------------------------------------------------
# cache + top-level error contract


def test_corrupt_cache_is_rebuilt(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TF_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "cvf-alpha0.05.json"
    cache.write_text("{ not json")
    code, out, _ = run_cli(["cv", "--f", "6.25"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "sqrt c(F) = 4.92 (table value, rounded up)"
    # the rebuilt curve replaced the corrupt file
    assert load_cvf(cache).alpha == 0.05


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload.update(knots=[[2.0, 3.0, 4.0]]),
        lambda payload: payload.update(knots=5),
        lambda payload: payload.pop("lower_support"),
    ],
    ids=["knot-triples", "knots-not-a-list", "missing-key"],
)
def test_malformed_cache_payload_is_rebuilt(cvf, tmp_path, monkeypatch, capsys, edit):
    # The checksum matches, but the payload does not hold a curve.
    monkeypatch.setenv("TF_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "cvf-alpha0.05.json"
    payload = json.loads(_canonical_payload(cvf))
    edit(payload)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    cache.write_text(json.dumps({"format": "tfiv-cvf-v2", "sha256": digest, "payload": payload}))
    with pytest.raises(ConstructionError, match="malformed"):
        load_cvf(cache)
    code, out, _ = run_cli(["cv", "--f", "6.25"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "sqrt c(F) = 4.92 (table value, rounded up)"
    assert np.array_equal(load_cvf(cache).knots, cvf.knots)


def test_close_alphas_get_their_own_cache_files(tmp_path, monkeypatch, capsys):
    # 0.0500001 and 0.05000012 agree to 6 significant digits.  Each gets its
    # own file, and a second call of each reuses it instead of rebuilding.
    monkeypatch.setenv("TF_CACHE_DIR", str(tmp_path))
    built = []
    monkeypatch.setattr(cli, "build_cvf", lambda alpha: built.append(alpha) or build_cvf(alpha))
    for alpha in ("0.0500001", "0.05000012") * 2:
        code, _, _ = run_cli(["cv", "--f", "30", "--alpha", alpha], capsys)
        assert code == 0
    assert built == [0.0500001, 0.05000012]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cvf-alpha0.0500001.json", "cvf-alpha0.05000012.json"]
    assert [load_cvf(tmp_path / n).alpha for n in names] == [0.0500001, 0.05000012]


def test_older_cache_format_is_rebuilt(cvf, tmp_path, monkeypatch, capsys):
    # A well-formed file of the older layout: format tfiv-cvf-v1, f_tilde in
    # the payload, and knots pinned at sqrt(q) on the grid out to 12.
    monkeypatch.setenv("TF_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "cvf-alpha0.05.json"
    xs = default_knot_grid(0.05)
    gs = np.where(xs < cvf.knots[-1][0], cvf.sqrt_crit_profile(xs), cvf.knots[-1][1])
    payload = {
        "alpha": 0.05,
        "f_tilde": cvf.f_tilde,
        "lower_support": cvf.lower_support,
        "knots": [[x, g] for x, g in zip(xs.tolist(), gs.tolist())],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    cache.write_text(json.dumps({"format": "tfiv-cvf-v1", "sha256": digest, "payload": payload}))
    code, out, _ = run_cli(["cv", "--f", "6.25"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "sqrt c(F) = 4.92 (table value, rounded up)"
    doc = json.loads(cache.read_text(encoding="utf-8"))
    assert doc["format"] == "tfiv-cvf-v2" and "f_tilde" not in doc["payload"]
    assert np.array_equal(load_cvf(cache).knots, cvf.knots)


def test_usage_errors_exit_2(cli_env, capsys):
    for argv in (
        [],
        ["cv"],
        ["size", "--procedure", "bogus", "--rho", "0", "--f0", "1"],
        ["mc", "--procedure", "ar", "--rho", "0", "--f0", "1"],  # no --seed
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert json.loads(err)["error"]["type"] == "UsageError"


@pytest.mark.parametrize(
    "argv",
    [["cv", "--f", "6.25"], ["solve", "--mode", "critical-value", "--fbar", "10"]],
    ids=["cv", "solve"],
)
def test_alpha_out_of_range_exits_1(cli_env, capsys, argv):
    code, _, err = run_cli(argv + ["--alpha", "1.5"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_cli_import_leaves_integrate_and_optimize_unloaded():
    # The package integrates on its own panel kernel and finds roots with
    # its own bracketing root finder, so importing the CLI must load
    # neither scipy.integrate nor scipy.optimize.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, tfiv.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_curve_build_and_solver_leave_optimize_unloaded():
    # `build_cvf` finds no root at all, and `solve_critical_value` solves
    # its ridge gap with `worst_case._root_below`, never with scipy.optimize.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from tfiv import build_cvf, solve_critical_value; "
        "build_cvf(0.05); solve_critical_value(10.0, 0.05); "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"]


def test_cli_loads_special_on_first_use_and_size_never_loads_integrate():
    # `cv`, `test tf`, `ci` and `table3` on a warm cache never evaluate Phi,
    # so importing the CLI must not load scipy.special; `size` integrates on
    # the panel kernel without scipy.integrate.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, tfiv.cli; "
        "print('scipy.special' in sys.modules, file=sys.stderr); "
        "tfiv.cli.main(['size', '--procedure', 'conventional', '--rho', '0.5', '--f0', '2']); "
        "print('scipy.integrate' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.split() == ["False", "False"]
    assert out.stdout.strip()


def test_audit_and_conventional_test_leave_special_unloaded(cli_env, fixture_corpus):
    # At the 5% level both read the chi-square quantile as the stored Q95, so
    # on a warm cache neither loads scipy.special.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, tfiv.cli; "
        f"assert tfiv.cli.main(['audit', '--input', {str(fixture_corpus)!r}, '--format', 'json']) == 0; "
        "assert tfiv.cli.main(['test', '--t', '2.5', '--f', '30', '--procedure', 'conventional']) == 0; "
        "print('scipy.special' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.split() == ["False"]
