"""Exception types raised across the package."""


class CalibrationError(Exception):
    """Base class for all monocal errors."""


class EmptyProblem(CalibrationError):
    """An operation needs at least one sample."""


class InvalidWeight(CalibrationError):
    """Sample or group weight is not a positive finite number."""


class InvalidValue(CalibrationError):
    """A numeric input is NaN or otherwise outside its domain."""


class InvalidLabel(CalibrationError):
    """A binary classification label is not 0 or 1."""


class NotMonotone(CalibrationError):
    """Block minimizers decrease; signals a solver bug upstream."""


class OutOfOrder(CalibrationError):
    """A streamed sample arrived with a score below the previous one."""


class InvalidConfig(CalibrationError):
    """A solver configuration value is unusable."""


class NoWidth(CalibrationError):
    """A bisection bracket has upper <= lower."""


class OracleFailure(CalibrationError):
    """A derivative oracle returned NaN or could not sum its terms."""


class Unbounded(CalibrationError):
    """Bound doubling never found finite brackets; the loss is degenerate."""


class TooLarge(CalibrationError):
    """Input exceeds the brute-force enumeration cap."""
