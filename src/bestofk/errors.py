"""Semantic exception hierarchy shared across the package."""


class BestOfKError(Exception):
    """Base class for all package errors."""


class DomainError(BestOfKError, ValueError):
    """A parameter lies outside the domain an operation is defined on."""


class InfeasibleError(BestOfKError):
    """A requested configuration admits no valid realization."""


class IdentifiabilityError(BestOfKError):
    """The instance cannot be identified (e.g. a unit mean under bandit feedback)."""


class SubsetCapError(BestOfKError):
    """C(n, k) exceeds the configured enumeration cap."""


class MismatchError(BestOfKError):
    """Two artifacts that must describe the same instance do not."""

