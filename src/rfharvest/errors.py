"""Exception types shared across the simulator.

Everything raised on purpose derives from RfHarvestError so the CLI can
separate expected failures (bad config, infeasible calibration, accounting
violations) from genuine bugs.
"""


class RfHarvestError(Exception):
    """Base class for all errors raised by this package."""


class QuantityError(RfHarvestError, ValueError):
    """A scalar quantity is out of its valid domain (non-finite, wrong sign,
    inverted interval, zero capacitance, dBm of a non-positive power)."""


class TraceError(RfHarvestError, ValueError):
    """A power trace is malformed or was sampled past its end without hold."""


class CalibrationError(RfHarvestError):
    """Sensitivity calibration cannot meet a target (no free parameter, no
    bracket, or contradictory targets)."""


class TransitionError(RfHarvestError):
    """A state-machine operation was invoked from a state that does not
    permit it."""


class ScenarioError(RfHarvestError, ValueError):
    """Scenario configuration is malformed: unknown section or key, bad
    value, or inconsistent settings."""


class LedgerError(RfHarvestError):
    """Energy accounting failed to balance within tolerance; the run is
    aborted because every other result is suspect."""
