"""Ambient source models: constant, fluctuating, trace playback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.errors import QuantityError, TraceError
from rfharvest.quantities import dbm_to_watts
from rfharvest.rf_environment import (
    ConstantSource,
    FluctuatingSource,
    TraceSource,
    load_trace_csv,
    mean_power_watts,
    sample_window,
    windows,
)


def _level(model, t):
    level, _ = sample_window(model, t)
    return level


def test_constant_source_is_flat():
    src = ConstantSource(level_dbm=-37.0)
    for t in (0.0, 1.0, 1e6):
        assert _level(src, t) == -37.0
    level, until = sample_window(src, 123.0)
    assert level == -37.0
    assert until == float("inf")


def test_fluctuating_bounds_and_windows():
    src = FluctuatingSource(lo_dbm=-43.0, hi_dbm=-33.0, dwell_s=60.0, seed=0)
    for t in (0.0, 59.999, 60.0, 61.0, 86400.0):
        p = _level(src, t)
        assert -43.0 <= p <= -33.0
    # constant within one window, boundary at the dwell edge
    assert _level(src, 0.0) == _level(src, 59.999)
    level, until = sample_window(src, 30.0)
    assert until == 60.0
    assert level == _level(src, 30.0)


def test_fluctuating_determinism_and_seed_sensitivity():
    a = FluctuatingSource(-43.0, -33.0, 60.0, seed=1)
    b = FluctuatingSource(-43.0, -33.0, 60.0, seed=1)
    c = FluctuatingSource(-43.0, -33.0, 60.0, seed=2)
    ts = [60.0 * k for k in range(200)]
    seq_a = [_level(a, t) for t in ts]
    assert seq_a == [_level(b, t) for t in ts]
    assert seq_a != [_level(c, t) for t in ts]
    # random access equals sequential access: value depends only on the window
    assert _level(a, 60.0 * 150 + 5.0) == seq_a[150]


@given(
    st.floats(min_value=-80.0, max_value=-10.0),
    st.floats(min_value=0.1, max_value=40.0),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=1e7),
)
@settings(max_examples=200)
def test_fluctuating_sample_always_in_band(lo, width, seed, t):
    src = FluctuatingSource(lo_dbm=lo, hi_dbm=lo + width, dwell_s=60.0, seed=seed)
    assert lo <= _level(src, t) <= lo + width


@given(
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=300)
def test_fluctuating_window_boundary_belongs_to_the_next_window(dwell, k):
    """At t = k * dwell the window is k: the level is window k's and the
    window is still open, even where t // dwell rounds down to k - 1."""
    src = FluctuatingSource(-43.0, -33.0, dwell, seed=5)
    t = k * dwell
    level, until = sample_window(src, t)
    assert until > t
    assert level == _level(src, (k + 0.5) * dwell)


def test_fluctuating_window_boundary_example():
    # 96.71710487190191 // 32.23903495730064 is 2.0, though the product is 3 dwells
    dwell = 32.23903495730064
    t = 3 * dwell
    assert t == 96.71710487190191 and t // dwell == 2.0
    src = FluctuatingSource(-43.0, -33.0, dwell, seed=0)
    level, until = sample_window(src, t)
    assert until == 4 * dwell
    assert level == _level(src, 3.5 * dwell)


def test_fluctuating_validation():
    with pytest.raises(QuantityError):
        FluctuatingSource(lo_dbm=-33.0, hi_dbm=-43.0, dwell_s=60.0, seed=0)
    with pytest.raises(QuantityError):
        FluctuatingSource(lo_dbm=-43.0, hi_dbm=-33.0, dwell_s=0.0, seed=0)


def test_trace_step_hold_semantics():
    src = TraceSource(samples=((0.0, -40.0), (10.0, -35.0), (20.0, -30.0)))
    assert _level(src, 0.0) == -40.0
    assert _level(src, 9.999) == -40.0
    assert _level(src, 10.0) == -35.0
    assert _level(src, 20.0) == -30.0
    with pytest.raises(TraceError):
        _level(src, 20.001)
    held = TraceSource(samples=((0.0, -40.0), (10.0, -35.0)), hold_last=True)
    assert _level(held, 1e9) == -35.0


def _splitmix64_u01(seed: int, index: int) -> float:
    """The published splitmix64 finalizer, applied twice, on one key: the
    fluctuating source's level draw for window index, written out here."""
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & mask
    for _ in range(2):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
    return (z >> 11) * (1.0 / (1 << 53))


_WINDOW_SOURCES = [
    ConstantSource(-37.0),
    FluctuatingSource(-43.0, -33.0, 60.0, seed=0),
    FluctuatingSource(-22.0, -18.0, 37.3, seed=2**64 + 9),
    FluctuatingSource(-43.0, -33.0, 32.23903495730064, seed=5),
    FluctuatingSource(-50.0, -20.0, 0.1, seed=3),
    TraceSource(((0.0, -21.0), (37.25, -19.5), (101.6, -23.0), (240.125, -18.5)), hold_last=True),
    TraceSource(((0.0, -21.0), (0.5, -19.5), (1.0, -23.0)), hold_last=False),
]


@pytest.mark.parametrize("src", _WINDOW_SOURCES)
@pytest.mark.parametrize("t0", [0.0, 12.3, 96.71710487190191])
def test_windows_follow_sample_window_bit_for_bit(src, t0):
    """windows(src, t0) gives the window holding t0 and then each later
    one, as sample_window gives them at every window start and at the last
    float before every window end, over 150 windows and across a trace's
    last sample; the fluctuating levels are the splitmix64 draws of their
    windows."""
    import math

    it = windows(src, t0)
    start = t0
    for _ in range(150):
        try:
            level, until = next(it)
        except TraceError:
            assert isinstance(src, TraceSource) and not src.hold_last
            assert start >= src.samples[-1][0]  # the last sample, or t0 past it
            return
        for t in (start, math.nextafter(until, 0.0)):
            if start <= t < until:
                assert repr(sample_window(src, t)) == repr((level, until)), t
        if isinstance(src, FluctuatingSource):
            k = round(until / src.dwell_s) - 1
            u = _splitmix64_u01(src.seed & ((1 << 64) - 1), k)
            assert repr(level) == repr(src.lo_dbm + (src.hi_dbm - src.lo_dbm) * u)
        if until == math.inf:
            assert not isinstance(src, FluctuatingSource)
            return
        start = until
    assert isinstance(src, FluctuatingSource)


def test_windows_past_a_trace_end():
    """A trace without hold_last has no window past its last sample, which
    holds for an instant; with hold_last the last sample holds forever."""
    samples = ((0.0, -40.0), (10.0, -35.0), (20.0, -30.0))
    it = windows(TraceSource(samples), 15.0)
    assert next(it) == (-35.0, 20.0)
    assert next(it) == (-30.0, 20.0)
    with pytest.raises(TraceError, match="past the end of the trace"):
        next(it)
    with pytest.raises(TraceError, match="past the end of the trace"):
        next(windows(TraceSource(samples), 20.001))
    held = windows(TraceSource(samples, hold_last=True), 15.0)
    assert [next(held), next(held)] == [(-35.0, 20.0), (-30.0, float("inf"))]
    with pytest.raises(QuantityError):
        windows(TraceSource(samples), -1.0)


def test_trace_validation():
    with pytest.raises(TraceError):
        TraceSource(samples=())
    with pytest.raises(TraceError):
        TraceSource(samples=((0.0, -40.0), (0.0, -35.0)))  # not increasing
    with pytest.raises(TraceError):
        TraceSource(samples=((1.0, -40.0),))  # must start at zero


def test_load_trace_csv(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("time_s,power_dbm\n0.0,-40.0\n10.0,-35.0\n")
    src = load_trace_csv(p)
    assert _level(src, 5.0) == -40.0
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,power_dbm\n0.0,-40.0\n5.0,not_a_number\n")
    with pytest.raises(TraceError):
        load_trace_csv(bad)
    wrong_header = tmp_path / "hdr.csv"
    wrong_header.write_text("t,p\n0.0,-40.0\n")
    with pytest.raises(TraceError):
        load_trace_csv(wrong_header)


def test_mean_power_watts_constant():
    src = ConstantSource(level_dbm=-30.0)
    assert mean_power_watts(src) == pytest.approx(1e-6, rel=1e-12)


def test_mean_power_watts_fluctuating_matches_closed_form():
    # E[10^(X/10)] for X ~ U(lo, hi) in dBm, against the sampler itself and
    # against a fine midpoint sum
    import math

    src = FluctuatingSource(-43.0, -33.0, 60.0, seed=0)
    k = math.log(10.0) / 10.0
    exact = (10 ** (-3.3) - 10 ** (-4.3)) * 1e-3 / (k * 10.0)
    assert mean_power_watts(src) == pytest.approx(exact, rel=1e-12)
    n = 20000
    grid = sum(10 ** ((-43.0 + 10.0 * (j + 0.5) / n) / 10.0) * 1e-3 for j in range(n)) / n
    assert mean_power_watts(src) == pytest.approx(grid, rel=1e-6)
    est = sum(float(dbm_to_watts(sample_window(src, 60.0 * k)[0])) for k in range(n)) / n
    assert mean_power_watts(src) == pytest.approx(est, rel=0.02)
    flat = FluctuatingSource(-40.0, -40.0, 60.0, seed=0)
    assert mean_power_watts(flat) == pytest.approx(1e-7, rel=1e-12)


def test_mean_power_watts_trace_is_time_weighted():
    # step-hold: -30 dBm for 10 s, then -40 dBm for 30 s; the recording
    # ends at its last timestamp, so the last sample has zero weight
    src = TraceSource(samples=((0.0, -30.0), (10.0, -40.0), (40.0, -50.0)))
    assert mean_power_watts(src) == pytest.approx((10 * 1e-6 + 30 * 1e-7) / 40, rel=1e-12)
    single = TraceSource(samples=((0.0, -30.0),))
    assert mean_power_watts(single) == pytest.approx(1e-6, rel=1e-12)
