"""Unit conversions and validated scalars."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfharvest.errors import QuantityError
from rfharvest.quantities import (
    Energy,
    PowerDbm,
    PowerWatts,
    Resistance,
    Voltage,
    cap_energy,
    dbm_to_watts,
    watts_to_dbm,
)


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


def test_cap_energy_values():
    assert cap_energy(1.0, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert cap_energy(1.5, 0.0) == 0.0
    # 1 F from 0.895 V holds 0.32 J / 0.9 efficiency above the 0.3 V floor
    assert cap_energy(1.0, 0.8950481054731702) - cap_energy(1.0, 0.3) == pytest.approx(
        0.32 / 0.9, rel=1e-12
    )


def test_scalar_domains():
    with pytest.raises(QuantityError):
        PowerWatts(-1e-9)
    with pytest.raises(QuantityError):
        Resistance(0.0)
    # open circuit is a legal leak resistance
    assert Resistance(math.inf) == math.inf
    with pytest.raises(QuantityError):
        PowerDbm(math.nan)
    # deltas may be negative
    assert Energy(-0.5) == -0.5
    assert Voltage(-1.0) == -1.0


def test_scalars_behave_like_floats():
    v = Voltage(2.5)
    assert v * 2 == 5.0
    assert isinstance(v + 0.5, float)
    assert repr(v) == "Voltage(2.5)"
