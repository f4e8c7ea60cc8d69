"""Exception types raised by the simulator."""

from __future__ import annotations


class TufSimError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(TufSimError):
    """Malformed algorithm catalog CSV (missing column, bad field, duplicate name)."""


class ValidationError(TufSimError):
    """A domain value violates one of its invariants."""


class CalendarError(TufSimError):
    """Bad date range, event rate, or malformed event/action CSV."""


class ConfigurationError(TufSimError):
    """A run cannot be assembled: bad architecture, assignment, or CLI flags."""
