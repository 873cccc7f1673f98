"""Every script under scripts/ imports against the current package.

The scripts run by hand, so a deleted or renamed public name would
otherwise surface only when someone next runs one.  Importing executes the
module body (its imports and constants) but not `main()`, which each
script guards under ``__main__``.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 4


def _load(path):
    spec = importlib.util.spec_from_file_location(f"scripts_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_bench_pairs_summary(tmp_path, capsys):
    bench_pairs = _load(Path(__file__).parent.parent / "scripts" / "bench_pairs.py")
    assert bench_pairs.parse_seeds("401-403,7") == [401, 402, 403, 7]

    def summary(run_s, rss):
        metrics = {"run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    pairs = [
        {"parent": summary(p, 80.0), "change": summary(c, r)}
        for p, c, r in ((1.0, 0.5, 79.0), (0.9, 0.6, 80.0), (0.8, 0.9, 81.0), (1.1, 0.4, 78.0))
    ]
    with pytest.raises(KeyError):  # a metric that BENCHMARK.json does not list
        bench_pairs.summarise(pairs, {"run_s": "lower"})
    out = bench_pairs.summarise(pairs, {"run_s": "lower", "peak_rss_mb": "lower"})
    assert out["run_s"]["change_wins"] == 3 and out["run_s"]["pairs"] == 4
    assert out["run_s"]["parent"] == {"median": 0.95, "q1": 0.875, "q3": 1.025}
    assert out["run_s"]["change"]["median"] == 0.55
    assert out["peak_rss_mb"]["change_wins"] == 2  # a tie is no win
    # one seed gives no quartiles, so it is refused before any run starts
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--workload", "tf-curve",
                          "--seeds", "401", "--out", "unused.json"])
    assert exit_info.value.code == 2
    # so is a checkout that holds bytecode under src/ or bench/, by name
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "src" / "tfiv").mkdir(parents=True)
        (root / "bench").mkdir()
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "tf-curve",
            "--seeds", "401-402", "--out", str(tmp_path / "out.json")]
    for cached in (parent / "src" / "tfiv" / "__pycache__", change / "bench" / "__pycache__"):
        cached.mkdir()
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
        assert exit_info.value.code == 2
        assert str(cached) in capsys.readouterr().err
        cached.rmdir()
    assert not (tmp_path / "out.json").exists()
