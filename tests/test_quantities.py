"""Unit conversions and the labelled validators."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfharvest.analog_frontend import (
    RectifierParams,
    ReflectionModel,
    delivered_power,
)
from rfharvest.engine import EngineConfig
from rfharvest.errors import QuantityError
from rfharvest.power_mgmt import MonitorConfig
from rfharvest.quantities import (
    count,
    dbm_to_watts,
    nonnegative,
    not_below,
    positive_or_inf,
    watts_to_dbm,
)
from rfharvest.rf_environment import FluctuatingSource
from rfharvest.storage import DcDcConverter, Supercap, TransferPolicy


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-12)
    # the anchor every charge-time figure hangs on
    assert dbm_to_watts(-37.0) == pytest.approx(1.9952623149688787e-07, rel=1e-12)


def test_watts_to_dbm_known_points():
    assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_watts_round_trip(dbm):
    assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(QuantityError):
        watts_to_dbm(0.0)
    with pytest.raises(QuantityError):
        watts_to_dbm(-1e-6)


def test_conversions_reject_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(QuantityError):
            dbm_to_watts(bad)
        with pytest.raises(QuantityError):
            watts_to_dbm(bad)
    # above about 3,082 dBm the level no longer fits a double in watts
    with pytest.raises(QuantityError, match="too large"):
        dbm_to_watts(4000.0)


def test_scalar_domains():
    with pytest.raises(QuantityError):
        delivered_power(-1e-9, ReflectionModel())
    with pytest.raises(QuantityError, match="r_in"):
        RectifierParams(r_in=0.0)
    assert type(dbm_to_watts(-37.0)) is float
    assert type(watts_to_dbm(1e-3)) is float


def test_positive_or_inf():
    assert positive_or_inf("r", 5e-324) == 5e-324
    assert positive_or_inf("r", math.inf) == math.inf
    assert type(positive_or_inf("r", 1)) is float
    for bad in (0.0, -0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(QuantityError, match="r must be positive, got"):
            positive_or_inf("r", bad)


def test_nonnegative_with_a_bound():
    assert nonnegative("g", 0.0, 1.0) == 0.0
    assert nonnegative("g", 1.0, 1.0) == 1.0
    assert nonnegative("v", 1e300) == 1e300
    for bad, hi in ((math.nextafter(1.0, 2.0), 1.0), (-5e-324, 1.0), (math.nan, 1.0),
                    (math.inf, math.inf), (math.nan, math.inf)):
        with pytest.raises(QuantityError, match=r"g must be finite and in \[0, "):
            nonnegative("g", bad, hi)


def test_not_below():
    assert not_below("start_v", 0.3, "stop_v", 0.3) == 0.3
    assert not_below("start_v", math.inf, "stop_v", 0.3) == math.inf
    with pytest.raises(QuantityError, match="start_v 0.2 below stop_v 0.3"):
        not_below("start_v", 0.2, "stop_v", 0.3)
    with pytest.raises(QuantityError, match="start_v nan below stop_v 0.3"):
        not_below("start_v", math.nan, "stop_v", 0.3)


def test_count():
    assert count("stages", 1) == 1
    assert count("stages", 25) == 25
    for bad in (0, -1, 1.0, 2.5, math.inf, math.nan, "3"):
        with pytest.raises(QuantityError, match="stages must be an integer >= 1, got"):
            count("stages", bad)


# Each record field rule at the edges of its domain: the record built from
# a probe value, the rule's floor, and which probes it accepts, in the order
# 0, -0.0, the least positive float, +inf, nan, the floor, one ulp below it.
_FIELDS = {
    "gamma_sq": (lambda v: ReflectionModel(gamma_sq=v), 0.0, (1, 1, 1, 0, 0, 1, 0)),
    "stages": (lambda v: RectifierParams(stages=v), 1, (0, 0, 0, 0, 0, 1, 0)),
    "dt_coarse >= dt_fine": (lambda v: EngineConfig(dt_coarse=v), 1e-3, (0, 0, 0, 0, 0, 1, 0)),
    "max_transmissions": (lambda v: EngineConfig(max_transmissions=v), 1, (0, 0, 0, 0, 0, 1, 0)),
    "stop_stored_j": (lambda v: EngineConfig(stop_stored_j=v), 0.0, (0, 0, 1, 0, 0, 0, 0)),
    "wake_period": (lambda v: MonitorConfig(wake_period=v), 0.0, (0, 0, 1, 1, 0, 0, 0)),
    "go_threshold >= v_min_operate": (
        lambda v: MonitorConfig(go_threshold=v), 1.8, (0, 0, 0, 0, 0, 1, 0)),
    "hi_dbm >= lo_dbm": (lambda v: FluctuatingSource(-43.0, v), -43.0, (1, 1, 1, 0, 0, 1, 0)),
    "dwell_s": (lambda v: FluctuatingSource(-43.0, -33.0, v), 0.0, (0, 0, 1, 1, 0, 0, 0)),
    "r_leak": (lambda v: Supercap(1.0, 0.0, v), 0.0, (0, 0, 1, 1, 0, 0, 0)),
    "v_startup >= v_min_operate": (
        lambda v: DcDcConverter(v_startup=v), 0.25, (0, 0, 0, 0, 0, 1, 0)),
    "start_v >= stop_v": (lambda v: TransferPolicy(start_v=v), 0.3, (0, 0, 0, 0, 0, 1, 0)),
}


@pytest.mark.parametrize("name", _FIELDS)
def test_field_boundary_table(name):
    make, floor, accepts = _FIELDS[name]
    got = []
    for v in (0, -0.0, 5e-324, math.inf, math.nan, floor, math.nextafter(floor, -math.inf)):
        try:
            make(v)
            got.append(1)
        except QuantityError:
            got.append(0)
    assert tuple(got) == accepts
