"""Unit-tagged scalar quantities and the handful of conversions everything
else is built on.

Each quantity is a float subclass, so arithmetic costs nothing and existing
math works, but construction validates the domain and annotations make unit
mistakes visible in signatures and tests.  Results of mixed arithmetic
degrade to plain float; re-wrap at API boundaries where the tag matters.
Record constructors check their plain-float fields with the labelled
validators (finite, positive, nonnegative, fraction), so every error
message names the field it rejects.

Conventions: power in dBm is referenced to 1 mW, energy follows the
capacitor relation E = C * V^2 / 2, and all values are double precision.
"""

from __future__ import annotations

import math

from .errors import QuantityError

__all__ = [
    "PowerDbm",
    "PowerWatts",
    "Voltage",
    "Energy",
    "Resistance",
    "finite",
    "positive",
    "nonnegative",
    "fraction",
    "dbm_to_watts",
    "watts_to_dbm",
    "cap_energy",
]


class _Scalar(float):
    """Validated float. Subclasses narrow the domain via class attributes."""

    __slots__ = ()
    _lo: float | None = None  # lower bound, None means unbounded
    _lo_open: bool = False  # True: value must be strictly above _lo
    _allow_inf: bool = False  # +inf permitted (e.g. leak resistance)

    def __new__(cls, value: float):
        v = float(value)
        if math.isnan(v):
            raise QuantityError(f"{cls.__name__} must be a number, got nan")
        if math.isinf(v) and not (cls._allow_inf and v > 0):
            raise QuantityError(f"{cls.__name__} must be finite, got {v!r}")
        if cls._lo is not None:
            if cls._lo_open:
                if not v > cls._lo:
                    raise QuantityError(
                        f"{cls.__name__} must be > {cls._lo}, got {v!r}"
                    )
            elif v < cls._lo:
                raise QuantityError(
                    f"{cls.__name__} must be >= {cls._lo}, got {v!r}"
                )
        return float.__new__(cls, v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({float.__repr__(self)})"


class PowerDbm(_Scalar):
    """RF power level in dBm (10 * log10(P / 1 mW))."""


class PowerWatts(_Scalar):
    """Power in watts; never negative."""

    _lo = 0.0


class Voltage(_Scalar):
    """Potential in volts."""


class Energy(_Scalar):
    """Energy in joules. Deltas may be negative; stored energy never is."""


class Resistance(_Scalar):
    """Resistance in ohms; strictly positive, +inf allowed (open circuit)."""

    _lo = 0.0
    _lo_open = True
    _allow_inf = True


def finite(label: str, x: float) -> float:
    """x as a float; raises if it is nan or infinite."""
    v = float(x)
    if not math.isfinite(v):
        raise QuantityError(f"{label} must be finite, got {v!r}")
    return v


def positive(label: str, x: float) -> float:
    """x as a float; raises unless it is finite and strictly positive."""
    v = float(x)
    if not 0.0 < v < math.inf:
        raise QuantityError(f"{label} must be positive and finite, got {v!r}")
    return v


def nonnegative(label: str, x: float) -> float:
    """x as a float; raises unless it is finite and >= 0."""
    v = float(x)
    if not 0.0 <= v < math.inf:
        raise QuantityError(f"{label} must be finite and >= 0, got {v!r}")
    return v


def fraction(label: str, x: float, hi: float = 1.0) -> float:
    """x as a float; raises unless it lies in (0, hi]."""
    v = float(x)
    if not 0.0 < v <= hi:
        raise QuantityError(f"{label} must be in (0, {hi}], got {v!r}")
    return v


def dbm_to_watts(p_dbm: float) -> PowerWatts:
    """Convert a dBm level to watts: P_W = 1e-3 * 10^(p/10)."""
    p = finite("dBm level", p_dbm)
    return PowerWatts(10.0 ** (p / 10.0) * 1e-3)


def watts_to_dbm(p_watts: float) -> PowerDbm:
    """Convert watts to dBm. Undefined for p <= 0."""
    p = finite("power", p_watts)
    if p <= 0.0:
        raise QuantityError(f"dBm is undefined for non-positive power {p!r}")
    return PowerDbm(10.0 * math.log10(p / 1e-3))


def cap_energy(c: float, v: float) -> Energy:
    """Energy stored on a capacitor: E = C * V^2 / 2."""
    c = positive("capacitance", c)
    v = finite("voltage", v)
    return Energy(0.5 * c * v * v)
