"""Ambient RF source models: what power is available at the antenna, when.

Three source shapes cover the measurement campaigns this simulator mirrors:
a constant level (bench signal generator, or the quiet broadcast floor seen
by a small monopole), a bounded random fluctuation (broadcast-band pickup on
a larger antenna, which wanders inside a fixed dB window), and playback of a
recorded trace.

Fluctuation sampling is counter-based: the level inside dwell window k is a
pure function of (seed, k), so sampling at arbitrary times in any order is
reproducible bit for bit.  There is no hidden RNG stream to advance.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Union

from .errors import TraceError
from .quantities import dbm_to_watts, finite, nonnegative, not_below, positive_or_inf

__all__ = [
    "ConstantSource",
    "FluctuatingSource",
    "TraceSource",
    "RfSourceModel",
    "sample_window",
    "windows",
    "mean_power_watts",
    "load_trace_csv",
]

# Default dwell for fluctuating sources. The underlying field measurements
# report a range, not a correlation time; one minute per level is the
# documented modeling choice and is configurable everywhere it appears.
DEFAULT_DWELL_S = 60.0

_MASK64 = (1 << 64) - 1
_KEY_STEP = 0xBF58476D1CE4E5B9  # a fluctuating source's hash key per window
_U53 = 1.0 / (1 << 53)  # a 53-bit hash to [0, 1)


def _splitmix(z: int) -> int:
    """The splitmix64 finalizer, applied twice (unrolled) to decorrelate
    similar keys."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class ConstantSource:
    """Fixed available power, forever."""

    level_dbm: float

    def __post_init__(self):
        finite("level_dbm", self.level_dbm)


@dataclass(frozen=True)
class FluctuatingSource:
    """Power uniform in dBm over [lo, hi], redrawn every dwell seconds.

    The draw for window k = floor(t / dwell) depends only on (seed, k).
    """

    lo_dbm: float
    hi_dbm: float
    dwell_s: float = DEFAULT_DWELL_S
    seed: int = 0

    def __post_init__(self):
        finite("lo_dbm", self.lo_dbm)
        finite("hi_dbm", self.hi_dbm)
        not_below("hi_dbm", self.hi_dbm, "lo_dbm", self.lo_dbm)
        positive_or_inf("dwell_s", self.dwell_s)


@dataclass(frozen=True)
class TraceSource:
    """Playback of (time_s, power_dbm) samples with step-hold semantics.

    The level at time t is the sample at the greatest timestamp <= t.
    The recording ends at the last timestamp; sampling past it raises
    unless hold_last is set.
    """

    samples: tuple[tuple[float, float], ...]
    hold_last: bool = False

    def __post_init__(self):
        if not self.samples:
            raise TraceError("trace must contain at least one sample")
        prev = None
        for t, p in self.samples:
            if not math.isfinite(t):
                raise TraceError(f"trace timestamp must be finite, got {t!r}")
            finite("trace power", p)
            if prev is not None and not t > prev:
                raise TraceError(
                    f"trace timestamps must be strictly increasing at t={t!r}"
                )
            prev = t
        if self.samples[0][0] != 0.0:
            raise TraceError(
                f"trace must start at t=0, got t={self.samples[0][0]!r}"
            )


RfSourceModel = Union[ConstantSource, FluctuatingSource, TraceSource]


def windows(model: RfSourceModel, t: float) -> Iterator[tuple[float, float]]:
    """(level_dbm, valid_until_s) for the window containing time t, then for
    every later window in turn.

    valid_until is the first instant the level may change; it is +inf for a
    constant source.  t is checked and the model dispatched once, here, so
    a caller that walks the windows in order pays neither per window.  Past
    a trace's last sample without hold_last the iterator raises TraceError.
    """
    nonnegative("sample time", t)
    if isinstance(model, ConstantSource):
        return iter(((float(model.level_dbm), math.inf),))
    if isinstance(model, FluctuatingSource):
        return _fluctuating_windows(model, t)
    if isinstance(model, TraceSource):
        return _trace_windows(model, t)
    raise TypeError(f"unknown source model {model!r}")


def _fluctuating_windows(model: FluctuatingSource, t: float):
    lo, span, dwell = model.lo_dbm, model.hi_dbm - model.lo_dbm, float(model.dwell_s)
    k = int(t // dwell)
    if (k + 1) * dwell <= t:  # t // dwell rounds down at some k * dwell
        k += 1
    # The level of window k is uniform in [lo, hi] from a splitmix64 hash of
    # (seed, k); its key steps by a constant from one window to the next.
    key = ((model.seed & _MASK64) * 0x9E3779B97F4A7C15 + k * _KEY_STEP
           + 0x94D049BB133111EB) & _MASK64
    while True:
        k += 1
        yield lo + span * ((_splitmix(key) >> 11) * _U53), k * dwell
        key = (key + _KEY_STEP) & _MASK64


def _trace_windows(model: TraceSource, t: float):
    samples = model.samples
    t_end = samples[-1][0]
    if t > t_end and not model.hold_last:
        raise TraceError(
            f"sample time {t!r} is past the end of the trace "
            f"({t_end!r}) and hold_last is off"
        )
    # From the sample with the greatest timestamp <= t on (the first is at 0).
    for i in range(bisect_right(samples, t, key=itemgetter(0)), len(samples)):
        yield float(samples[i - 1][1]), float(samples[i][0])
    if model.hold_last:
        yield float(samples[-1][1]), math.inf
    else:
        yield float(samples[-1][1]), float(t_end)
        raise TraceError(f"no window past the end of the trace ({t_end!r}): hold_last is off")


def sample_window(model: RfSourceModel, t: float) -> tuple[float, float]:
    """Return (level_dbm, valid_until_s) for the window containing time t:
    the first item of windows(model, t)."""
    return next(windows(model, t))


def mean_power_watts(model: RfSourceModel) -> float:
    """Time-mean available power of the source model, in watts.

    The mean is taken in watts, not dBm, because energy adds in watts.
    Closed form for the uniform-in-dBm fluctuating model; step-hold
    time-weighted mean for traces.
    """
    if isinstance(model, ConstantSource):
        return dbm_to_watts(model.level_dbm)
    if isinstance(model, FluctuatingSource):
        lo, hi = model.lo_dbm, model.hi_dbm
        if hi == lo:
            return dbm_to_watts(lo)
        k = math.log(10.0) / 10.0
        return (dbm_to_watts(hi) - dbm_to_watts(lo)) / (k * (hi - lo))
    if isinstance(model, TraceSource):
        total_t = 0.0
        total_e = 0.0
        samples = model.samples
        for (t, p), (t_next, _) in zip(samples, samples[1:]):
            span = t_next - t
            total_t += span
            total_e += span * dbm_to_watts(p)
        if total_t == 0.0:
            return dbm_to_watts(samples[-1][1])
        return total_e / total_t
    raise TypeError(f"unknown source model {model!r}")


def load_trace_csv(path: str | Path, hold_last: bool = False) -> TraceSource:
    """Load a trace from CSV with the exact header ``time_s,power_dbm``."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TraceError(f"{path}: cannot read trace file: {exc}") from None
    if not rows:
        raise TraceError(f"{path}: empty trace file")
    header = rows[0]
    if [h.strip() for h in header] != ["time_s", "power_dbm"]:
        raise TraceError(
            f"{path}: expected header 'time_s,power_dbm', got {','.join(header)!r}"
        )
    samples: list[tuple[float, float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise TraceError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        try:
            t, p = float(row[0]), float(row[1])
        except ValueError:
            raise TraceError(f"{path}:{lineno}: non-numeric value") from None
        samples.append((t, p))
    try:
        return TraceSource(tuple(samples), hold_last=hold_last)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None
