"""Exception hierarchy shared by all augcov modules, and check_integer, the
one rule for integer settings.

Two mixin bases drive the CLI exit codes: ConfigError (bad input or
configuration, exit 2) and NumericalError (a computation failed, exit 3).
"""

import numbers


class AugcovError(Exception):
    """Base class for every error raised by this package. An error pickles
    as its class and the arguments it was built with, so it comes back
    unchanged from a pool worker."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args)
        self._built_with = (args, kwargs)
        return self

    def __reduce__(self):
        return _rebuild, (type(self), *self._built_with)


def _rebuild(cls, args, kwargs):
    return cls(*args, **kwargs)


class ConfigError(AugcovError):
    """User, data or configuration problem (CLI exit code 2)."""


class NumericalError(AugcovError):
    """Numerical failure during a computation (CLI exit code 3)."""


# -- spd ---------------------------------------------------------------

class NotSymmetric(NumericalError):
    pass


class NotSPD(NumericalError):
    pass


class NonPositiveEigenvalue(NumericalError):
    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = eigenvalue
        super().__init__(message or f"eigenvalue {eigenvalue!r} is not positive")


class DimensionMismatch(ConfigError):
    pass


class EmptyInput(ConfigError):
    pass


class NoConvergence(NumericalError):
    """Iteration budget exhausted; carries the last iterate and residual."""

    def __init__(self, last_iterate, residual, message=None):
        self.last_iterate = last_iterate
        self.residual = residual
        super().__init__(
            message or f"no convergence, residual {residual:.3e} at iteration cap"
        )


# -- covariance --------------------------------------------------------

class InvalidEpoch(ConfigError):
    pass


class LagTooLarge(ConfigError):
    pass


class InconsistentInput(ConfigError):
    pass


class SingularSystem(NumericalError):
    pass


# -- embedding ---------------------------------------------------------

class ConstantSeries(ConfigError):
    pass


class TooShort(ConfigError):
    pass


# -- classifiers -------------------------------------------------------

class EmptyClass(ConfigError):
    pass


class SolverStall(NumericalError):
    def __init__(self, kkt_residual, message=None):
        self.kkt_residual = kkt_residual
        super().__init__(
            message or f"SMO iteration cap reached, KKT residual {kkt_residual:.3e}"
        )


class AllCellsInvalid(ConfigError):
    pass


class InvalidSetting(ConfigError, ValueError):
    """A pipeline or evaluation setting out of its valid range."""


# -- eval / stats ------------------------------------------------------

class TooFewSamples(ConfigError):
    pass


class SingleSession(ConfigError):
    pass


class OneClassOnly(ConfigError):
    pass


class LengthMismatch(ConfigError):
    pass


class AllZeroDiffs(ConfigError):
    pass


class DegenerateVariance(NumericalError):
    pass


class DegeneratePValue(ConfigError):
    pass


class PairingViolation(ConfigError):
    pass


# -- data_io -----------------------------------------------------------

class UnstableSpec(ConfigError):
    pass


class FormatError(ConfigError):
    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class VersionUnsupported(ConfigError):
    pass


def check_integer(name: str, value, low: int, error: type = InvalidSetting) -> None:
    """Raise error unless value is an integer >= low. A bool is not an
    integer setting: True would otherwise act as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
