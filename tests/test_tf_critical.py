import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from tfiv import tf_critical
from tfiv.errors import ConstructionError, DomainError
from tfiv.gaussian import chi2_quantile_1df
from tfiv.size_engine import TFProcedure, rejection_prob_rho1
from tfiv.tf_critical import (
    CriticalValueFunction,
    _canonical_payload,
    _round_up_2dp,
    _sweep_requirements,
    build_cvf,
    cvf_eval,
    default_knot_grid,
    emit_table3,
    load_cvf,
    save_cvf,
    table3_csv,
    tf_adjusted_se,
)

Q95 = 3.8414588206941254


@pytest.fixture(scope="module")
def cvf01():
    return build_cvf(0.01)


def test_default_knot_grid():
    grid = default_knot_grid(0.05)
    assert grid[0] == 1.961
    assert grid[-1] == pytest.approx(11.996, abs=1e-9)
    assert grid[-1] <= 12.0 < grid[-1] + 0.005
    assert np.allclose(np.diff(grid), 0.005)
    assert len(grid) == 2008
    # the start tracks the support edge as the level moves
    assert default_knot_grid(0.01)[0] == 2.577


def test_build_cvf_rejects_bad_alpha():
    for bad in (0.0, -0.05, 0.3, 1.0):
        with pytest.raises(DomainError):
            build_cvf(bad)
    with pytest.raises(DomainError):
        build_cvf("0.05")


def test_build_cvf_settles_in_fifteen_sweeps(monkeypatch):
    # Started from the cap curve, the 5% sweep settles in 15 sweeps.
    calls = []
    sweep = tf_critical._sweep_requirements

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(tf_critical, "_sweep_requirements", counted)
    build_cvf(0.05)
    assert 0 < len(calls) <= 15


def test_curve_shape(cvf):
    assert cvf.alpha == 0.05
    assert cvf.lower_support == Q95
    assert len(cvf.knots) == 1655
    assert np.array_equal(cvf.knots[0], (1.961, 50.0))
    xs = np.array([k[0] for k in cvf.knots])
    gs = np.array([k[1] for k in cvf.knots])
    assert np.all(np.diff(xs) > 0.0)
    assert np.all(np.diff(gs) <= 1e-12)
    sq = math.sqrt(Q95)
    # the knots run on the grid above sqrt(q) and end with the pin knot
    assert np.all(gs[:-1] > sq)
    assert np.array_equal(cvf.knots[-1], (math.sqrt(cvf.f_tilde), sq))
    assert cvf.knots[-2][0] < cvf.knots[-1][0] < cvf.knots[-2][0] + 0.005


def test_f_tilde_anchor(cvf):
    assert math.isclose(cvf.f_tilde, 104.67075419758321, rel_tol=1e-12)


def test_raw_curve_anchors(cvf):
    xs = np.array([k[0] for k in cvf.knots])
    gs = np.array([k[1] for k in cvf.knots])
    anchors = {
        2.0: 18.668994,
        2.5: 4.916824,
        3.0: 3.647567,
        5.0: 2.451240,
        7.0: 2.150077,
        9.0: 2.012697,
        10.0: 1.968671,
    }
    for x, g in anchors.items():
        assert math.isclose(float(np.interp(x, xs, gs)), g, abs_tol=1e-5)


def test_cvf_eval(cvf):
    assert math.isclose(cvf_eval(cvf, 6.25), 24.17516187136312, rel_tol=1e-12)
    assert math.isclose(math.sqrt(cvf_eval(cvf, 49.0)), 2.1501, abs_tol=1e-4)
    # at and beyond f_tilde the curve is exactly the fixed quantile
    assert cvf_eval(cvf, 200.0) == Q95
    assert cvf_eval(cvf, cvf.f_tilde) == Q95
    # below the support nothing is rejected
    assert cvf_eval(cvf, 1.0) == math.inf
    assert cvf_eval(cvf, 0.0) == math.inf
    assert TFProcedure(cvf).rejects(3.0, -1.0) is False
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            cvf_eval(cvf, bad)


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.10, 0.15, 0.20])
def test_pinned_curve_gives_q_exactly(alpha):
    # Beyond the pin c(F) = sqrt(q)^2, which must round back to q itself.
    q = chi2_quantile_1df(1.0 - alpha)
    sq = math.sqrt(q)
    cvf = CriticalValueFunction(
        alpha=alpha, knots=((sq + 0.1, sq + 0.5), (sq + 1.0, sq)), lower_support=q
    )
    assert cvf.f_tilde == (sq + 1.0) * (sq + 1.0)
    for F in (cvf.f_tilde, (sq + 2.0) ** 2, 1e6):
        assert cvf_eval(cvf, F) == q
        assert tf_adjusted_se(1.5, F, cvf) == 1.5
    # a knot at sqrt(q) marks the pin wherever it sits
    flat = CriticalValueFunction(alpha=alpha, knots=((sq + 0.5, sq),), lower_support=q)
    assert flat.f_tilde == (sq + 0.5) * (sq + 0.5)


def test_cvf_eval_monotone(cvf):
    fs = np.linspace(4.0, 160.0, 200)
    vals = [cvf_eval(cvf, float(F)) for F in fs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tf_adjusted_se(cvf):
    assert math.isclose(tf_adjusted_se(1.5, 9.0, cvf), 2.7915564322545117, rel_tol=1e-12)
    # strong instrument: no inflation at all
    assert tf_adjusted_se(2.0, 150.0, cvf) == 2.0
    # below support: no finite CI exists
    assert tf_adjusted_se(1.0, 2.0, cvf) == math.inf
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            tf_adjusted_se(bad, 9.0, cvf)


def test_round_up_2dp():
    assert _round_up_2dp(2.16) == 2.16
    assert _round_up_2dp(2.1501) == 2.16
    assert _round_up_2dp(2.1499) == 2.15
    assert _round_up_2dp(4.916824) == 4.92
    assert _round_up_2dp(18.668994) == 18.67
    assert _round_up_2dp(2.0) == 2.0


def test_emit_table3(cvf):
    table = emit_table3(cvf)
    assert table.shape == (10, 8)
    # spot anchors: sqrt(F) = 2.0, 2.5, 3.0, 7.0
    assert table[0, 0] == 18.67
    assert table[5, 0] == 4.92
    assert table[0, 1] == 3.65
    assert table[0, 5] == 2.16
    assert np.allclose(
        table[0], [18.67, 3.65, 2.80, 2.46, 2.27, 2.16, 2.08, 2.02]
    )
    # nonincreasing when read in sqrt(F) order (column-major here)
    flat = table.T.reshape(-1)
    assert np.all(np.diff(flat) <= 1e-12)
    # every cell covers the raw curve from above by less than one grid step
    xs = np.array([k[0] for k in cvf.knots])
    gs = np.array([k[1] for k in cvf.knots])
    for r in range(10):
        for c in range(8):
            raw = float(np.interp(c + 2 + r / 10.0, xs, gs))
            assert raw - 1e-12 <= table[r, c] < raw + 0.01 + 1e-12


def test_emit_table3_requires_five_percent(cvf01):
    with pytest.raises(DomainError):
        emit_table3(cvf01)


def test_table3_csv(cvf):
    csv = table3_csv(cvf)
    lines = csv.splitlines()
    assert csv.endswith("\n")
    assert lines[0] == "sqrtF_int,2,3,4,5,6,7,8,9"
    assert len(lines) == 11
    assert lines[1].startswith("0.0,18.67,3.65,")
    table = emit_table3(cvf)
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == f"{r / 10:.1f}"
        assert [float(v) for v in cells[1:]] == list(table[r])


def test_save_load_roundtrip(cvf, tmp_path):
    path = tmp_path / "curve.json"
    save_cvf(cvf, path)
    back = load_cvf(path)
    assert back.alpha == cvf.alpha
    assert back.f_tilde == cvf.f_tilde
    assert back.lower_support == cvf.lower_support
    assert np.array_equal(back.knots, cvf.knots)


def test_save_failing_partway_keeps_old_file(cvf, cvf01, tmp_path, monkeypatch):
    path = tmp_path / "curve.json"
    save_cvf(cvf, path)

    def half_written(doc, fh, **kwargs):
        fh.write(json.dumps(doc)[:100])
        raise OSError("disk full")

    monkeypatch.setattr("tfiv.tf_critical.json.dump", half_written)
    with pytest.raises(OSError):
        save_cvf(cvf01, path)
    assert np.array_equal(load_cvf(path).knots, cvf.knots)
    assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]


def test_save_leaves_no_temporary_file(cvf, cvf01, tmp_path):
    path = tmp_path / "curve.json"
    save_cvf(cvf, path)
    save_cvf(cvf01, path)
    assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]
    assert np.array_equal(load_cvf(path).knots, cvf01.knots)


def test_load_rejects_tampering(cvf, tmp_path):
    path = tmp_path / "curve.json"
    save_cvf(cvf, path)
    doc = json.loads(path.read_text())
    doc["payload"]["knots"][5][1] += 0.01
    path.write_text(json.dumps(doc))
    with pytest.raises(ConstructionError):
        load_cvf(path)
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ConstructionError):
        load_cvf(path)


def test_container_validation(cvf):
    with pytest.raises(DomainError):
        CriticalValueFunction(alpha=0.05, knots=(), lower_support=Q95)
    with pytest.raises(DomainError):
        # increasing knot values
        CriticalValueFunction(
            alpha=0.05,
            knots=((2.0, 3.0), (2.5, 3.5)),
            lower_support=Q95,
        )
    with pytest.raises(DomainError):
        # first knot below the support edge
        CriticalValueFunction(
            alpha=0.05,
            knots=((1.5, 3.0),),
            lower_support=Q95,
        )
    # a knot that is not a (sqrt F, sqrt crit) pair
    for knots in (((2.0, 3.0, 99.0), (2.5, 2.5)), ((2.0, 3.0, 99.0),), (2.0, 3.0), 5.0):
        with pytest.raises(DomainError):
            CriticalValueFunction(alpha=0.05, knots=knots, lower_support=Q95)


def test_curve_cannot_be_edited_in_place():
    curve = CriticalValueFunction(alpha=0.05, knots=((2.0, 3.0), (2.5, 2.5)), lower_support=Q95)
    with pytest.raises(ValueError):
        curve.arrays[1][0] = 1.0
    with pytest.raises(ValueError):
        curve.arrays[0][0] = 1.0
    with pytest.raises(ValueError):
        curve.knots[0, 1] = 1.0
    assert curve.sqrt_crit_profile(2.0) == 3.0
    assert json.loads(_canonical_payload(curve))["knots"] == [[2.0, 3.0], [2.5, 2.5]]
    # The curve copies an array it is given, so the caller's array stays its own.
    source = np.array([[2.0, 3.0], [2.5, 2.5]])
    copied = CriticalValueFunction(alpha=0.05, knots=source, lower_support=Q95)
    source[0, 1] = 1.0
    assert copied.sqrt_crit_profile(2.0) == 3.0


def test_knots_are_one_read_only_array(cvf):
    knots = cvf.knots
    assert isinstance(knots, np.ndarray)
    assert knots.dtype == np.float64 and knots.shape == (1655, 2)
    assert not knots.flags.writeable
    xs, gs = cvf.arrays
    assert xs.flags.c_contiguous and gs.flags.c_contiguous
    assert np.shares_memory(xs, knots) and np.shares_memory(gs, knots)


def test_built_curve_holds_at_most_24_bytes_per_knot(cvf):
    # A float64 pair is 16 bytes; a tuple of two Python floats is about 130.
    # The session curve has already warmed every cache that build_cvf fills.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build_cvf(0.05)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 24 * len(built.knots)


def test_canonical_payload_is_unchanged(cvf):
    # Cache files carry this checksum: a change to it makes every saved
    # 5% curve a rebuild.
    digest = hashlib.sha256(_canonical_payload(cvf).encode()).hexdigest()
    assert digest == "7a0bac379673ee8c8cdde038e64a131add5e1d3c5f79a99bcc62362ce0fb7fa6"


def test_curve_dominates_offgrid_requirements(cvf):
    # Rebuild the requirement cloud on an f0 sweep deliberately offset from
    # the one used during construction; the finished curve must sit on or
    # above every demand it generates.
    xs = np.array([k[0] for k in cvf.knots])
    gs = np.array([k[1] for k in cvf.knots])
    sq = math.sqrt(cvf.lower_support)
    f0s = np.arange(0.2, sq + 8.8, 0.0017)
    rx, ry = _sweep_requirements(xs, gs, sq, f0s, 0.05)
    gap = np.interp(rx, xs, gs) - ry
    assert float(gap.min()) >= -1e-9


def test_ridge_size_tracks_level(cvf):
    proc = TFProcedure(cvf=cvf)
    for f0 in range(1, 16):
        p = rejection_prob_rho1(proc, float(f0))
        assert p <= 0.05 + 1e-7
        if f0 <= 8:
            assert abs(p - 0.05) <= 1e-6
        elif f0 <= 12:
            # pin-deficit basin below f_tilde: conservative, bounded dip
            assert p >= 0.05 - 3.5e-3
        else:
            assert p >= 0.05 - 5e-4


def test_small_alpha_never_pins(cvf01):
    assert cvf01.alpha == 0.01
    assert cvf01.f_tilde == math.inf
    assert cvf01.lower_support == chi2_quantile_1df(0.99)
    assert len(cvf01.knots) == 1885
    assert np.array_equal(cvf01.knots[0], (2.577, 50.0))
    assert math.isclose(math.sqrt(cvf_eval(cvf01, 9.0)), 10.558499, abs_tol=1e-5)
    # still never undersized against its own level on the ridge
    proc = TFProcedure(cvf=cvf01)
    for f0 in (0.5, 2.0, 5.0):
        assert rejection_prob_rho1(proc, f0) <= 0.01 + 1e-7


# The levels of the 0.005 grid over (0, 0.25] where `build_cvf` raises
# ConstructionError, each with its cause.
_CURVE_FAILURES = {
    0.025: "no fixed point: max knot change 4.29 after 200 sweeps",
    0.04: "ridge excess 7.06e-4 at f0 = 14.35",
    0.045: "ridge excess 3.64e-4 at f0 = 13.45",
    0.08: "no fixed point: max knot change 9.82 after 200 sweeps",
    0.22: "cap-zone excess 2.82e-4 at f0 = 0.035",
    0.235: "no fixed point: max knot change 1.80 after 200 sweeps",
    0.245: "cap-zone excess 2.89e-4 at f0 = 0.035",
}


@pytest.mark.parametrize(
    "alpha",
    [
        pytest.param(
            a,
            marks=pytest.mark.xfail(
                strict=True, raises=ConstructionError, reason=_CURVE_FAILURES[a]
            ),
        )
        if a in _CURVE_FAILURES
        else a
        for a in (k / 200 for k in range(1, 51))
    ],
)
def test_build_cvf_known_construction_failures(alpha):
    # All 50 levels of the 0.005 grid: 43 build, and the 7 that fail are
    # strict xfails, so a fix shows up as an unexpected pass.
    build_cvf(alpha)
