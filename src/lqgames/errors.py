"""Exception types shared across the package, and its scalar checks.

Every error the package raises is an LqGamesError; ConfigError (a bad scalar
argument or config field) and InputError (a bad array) are ValueErrors too.
Configs and entry points check their numbers once, through the _check_*
helpers below, whose messages name the owner and the field, for example
"OuterConfig.max_iter: must be an integer >= 1, got 2.5".
"""

import math
import numbers


class LqGamesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LqGamesError, ValueError):
    """An input array the package cannot take: non-finite entries, a weight
    that is not positive definite, or a start outside the constraint set."""


class DimensionError(LqGamesError):
    """Matrix dimensions inconsistent with the declared problem sizes."""


class NotSymmetricError(LqGamesError):
    """Symmetry defect above tolerance where a symmetric matrix is required."""


class UnstableError(LqGamesError):
    """Closed-loop spectral radius at or above 1 where stability is required.

    Carries the offending spectral radius in .rho and, when raised mid-run,
    the iteration index in .iteration.
    """

    def __init__(self, msg, rho=None, iteration=None):
        super().__init__(msg)
        self.rho = rho
        self.iteration = iteration


class ConvergenceError(LqGamesError):
    """Iteration cap reached before the tolerance. Carries .residual and .iterations."""

    def __init__(self, msg, residual=None, iterations=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


class DefinitenessError(LqGamesError):
    """A matrix required to be definite (or invertible) is not."""


class SampleError(LqGamesError):
    """A sampled perturbation produced an invalid rollout. Carries .index."""

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class ConfigError(LqGamesError, ValueError):
    """An invalid solver argument or experiment configuration."""


# Each check tests the exact type first, so plain ints and floats skip the
# slower abstract-base-class tests.
def _check_count(name, value, least=1):
    """Raise ConfigError unless value is an integer >= least (bools are not)."""
    if (type(value) is not int and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral))
            or value < least):
        raise ConfigError(f"{name}: must be an integer >= {least}, got {value!r}")


def _check_positive(name, value, zero_ok=False):
    """Raise ConfigError unless value is a finite real number (not a bool)
    above 0, or at 0 when zero_ok."""
    if (type(value) is not float and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real))
            or not (0.0 <= value if zero_ok else 0.0 < value) or not value < math.inf):
        want = ">= 0" if zero_ok else "positive"
        raise ConfigError(f"{name}: must be finite and {want}, got {value!r}")


def _check_choice(name, value, choices):
    """Raise ConfigError unless value is one of choices."""
    if value not in choices:
        raise ConfigError(f"{name}: must be one of {choices}, got {value!r}")
