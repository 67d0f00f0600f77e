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
from rfharvest.errors import QuantityError
from rfharvest.quantities import dbm_to_watts, watts_to_dbm


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
