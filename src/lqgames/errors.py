"""Exception types shared across the package."""


class LqGamesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LqGamesError, ValueError):
    """An input value the package cannot take: non-finite entries, or a weight
    that is not positive definite. A ValueError too, for callers catching that."""


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


class ConfigError(LqGamesError):
    """Invalid experiment or solver configuration."""
