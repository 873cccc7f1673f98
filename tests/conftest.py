import importlib.util
import sys
from pathlib import Path

import pytest

from tfiv.tf_critical import build_cvf, save_cvf

Q95 = 3.8414588206941254
SQRT_Q95 = 1.959963984540054


@pytest.fixture(scope="session")
def cvf():
    """The 5% critical-value curve, built once for the whole run."""
    return build_cvf(0.05)


@pytest.fixture(scope="session")
def oracles():
    """bench/oracles.py, a referee that imports no tfiv, loaded by path.

    No bytecode is written under bench/.
    """
    path = Path(__file__).parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@pytest.fixture(scope="session")
def tf_cache_dir(tmp_path_factory, cvf):
    """A TF_CACHE_DIR pre-populated with the session curve."""
    path = tmp_path_factory.mktemp("tfcache")
    save_cvf(cvf, path / "cvf-alpha0.05.json")
    return path


@pytest.fixture()
def cli_env(tf_cache_dir, monkeypatch):
    monkeypatch.setenv("TF_CACHE_DIR", str(tf_cache_dir))
    return tf_cache_dir


@pytest.fixture()
def fixture_corpus():
    return Path(__file__).parent / "fixtures" / "audit_sample.csv"
