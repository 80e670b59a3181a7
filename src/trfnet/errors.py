"""Shared exception types, and the integer check every config shares."""

import numbers


class DataFormatError(ValueError):
    """A data file does not follow its documented format."""


class EmptyInputError(DataFormatError):
    """A data file contains no usable rows."""


class PolicyViolationError(ValueError):
    """Data violates the assumptions of a discretization policy."""


class DomainError(ValueError):
    """Values fall outside the domain a loss family requires."""


class EmptyStructureError(RuntimeError):
    """A constructed layer ended up with zero hidden units."""


class ModelFormatError(ValueError):
    """A model file is corrupted, truncated, or of an unknown version."""


class NoCoverageError(RuntimeError):
    """No hidden unit has any embedding-scorable feature pair."""


class DegenerateUnitWarning(UserWarning):
    """A hidden unit has constant activation; correlations are all zero."""


def check_integers(**fields) -> None:
    """ValueError naming the first field that is not a Python or numpy integer (not a bool); tuples entry by entry."""
    for name, value in fields.items():
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {x!r}")
