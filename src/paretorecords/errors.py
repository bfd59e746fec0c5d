"""Semantic exception hierarchy shared by all modules."""

from __future__ import annotations


class RecordsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(RecordsError, ValueError):
    """A parameter violates its contract (which field and why are in the message)."""


class DimensionMismatchError(RecordsError, ValueError):
    """Two objects that must share a dimension do not."""


class UnsupportedSpecError(RecordsError, TypeError):
    """The requested operation has no implementation for this distribution family."""


class PrecisionLossError(RecordsError, ArithmeticError):
    """A float evaluation could not reach its accuracy.

    Raised when the d-term Beta sum cannot be certified and quadrature does
    not converge either; the exact-rational functions always succeed.
    """
