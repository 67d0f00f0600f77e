"""The dBm/watts conversions everything else is built on, and the labelled
validators that record constructors use to check their fields.

Each validator returns its argument as a float (count: as given) or raises
QuantityError with a message that names the field it rejects.

Conventions: power in dBm is referenced to 1 mW, energy follows the
capacitor relation E = C * V^2 / 2, and all values are double precision.
"""

from __future__ import annotations

import math

from .errors import QuantityError

__all__ = [
    "finite",
    "positive",
    "positive_or_inf",
    "nonnegative",
    "not_below",
    "count",
    "fraction",
    "dbm_to_watts",
    "watts_to_dbm",
]


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


def positive_or_inf(label: str, x: float) -> float:
    """x as a float; raises unless it is strictly positive (+inf passes)."""
    v = float(x)
    if not v > 0.0:
        raise QuantityError(f"{label} must be positive, got {v!r}")
    return v


def nonnegative(label: str, x: float, hi: float = math.inf) -> float:
    """x as a float; raises unless it is finite and in [0, hi]."""
    v = float(x)
    if not (0.0 <= v <= hi and v < math.inf):
        raise QuantityError(f"{label} must be finite and in [0, {hi}], got {v!r}")
    return v


def not_below(label: str, x: float, floor_label: str, floor: float) -> float:
    """x as a float; raises unless it is >= floor, another field's value."""
    v = float(x)
    if not v >= floor:
        raise QuantityError(f"{label} {v!r} below {floor_label} {floor!r}")
    return v


def count(label: str, n: int) -> int:
    """n itself; raises unless it is an integer >= 1."""
    if not isinstance(n, int) or n < 1:
        raise QuantityError(f"{label} must be an integer >= 1, got {n!r}")
    return n


def fraction(label: str, x: float, hi: float = 1.0) -> float:
    """x as a float; raises unless it lies in (0, hi]."""
    v = float(x)
    if not 0.0 < v <= hi:
        raise QuantityError(f"{label} must be in (0, {hi}], got {v!r}")
    return v


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a dBm level to watts: P_W = 1e-3 * 10^(p/10)."""
    p = finite("dBm level", p_dbm)
    try:
        return 10.0 ** (p / 10.0) * 1e-3
    except OverflowError:
        raise QuantityError(f"dBm level {p!r} is too large to express in watts") from None


def watts_to_dbm(p_watts: float) -> float:
    """Convert watts to dBm. Undefined for p <= 0."""
    p = finite("power", p_watts)
    if p <= 0.0:
        raise QuantityError(f"dBm is undefined for non-positive power {p!r}")
    return 10.0 * math.log10(p / 1e-3)
