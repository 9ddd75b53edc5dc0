"""Exception types shared across the package."""

from __future__ import annotations


class HomotraceError(Exception):
    """Base class for all structured errors raised by this package."""


class InputError(HomotraceError):
    """Malformed user input (files, flags, element references)."""


class ShapeError(HomotraceError):
    """Graded-map composition or arithmetic with mismatched spaces.

    Carries the offending degree when one can be named.
    """

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


class RankAmbiguousError(HomotraceError):
    """A float-mode rank decision fell inside the tolerance band."""


class SpectralGapError(HomotraceError):
    """A Laplacian eigenvalue is too close to zero to classify."""


class CapError(HomotraceError):
    """A generator was asked for an operator beyond its order cap."""


class ClosureError(InputError):
    """Declared operators do not span a closed algebra with unit, or its
    closure computation exceeded its dimension bound."""


class QuadratureBudgetError(HomotraceError):
    """Adaptive integration ran out of evaluations before converging.

    ``best`` holds the best value computed so far, ``estimate`` the
    a-posteriori error estimate at that point.
    """

    def __init__(self, message: str, best=None, estimate: float | None = None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate
