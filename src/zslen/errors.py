"""Exception hierarchy.

Budget exhaustion is kept strictly separate from mathematical or usage
errors so that callers can never mistake a truncated computation for a
completed one.
"""

from __future__ import annotations


class ZslenError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ZslenError, ValueError):
    """Malformed input or violated precondition (usage error)."""


class BudgetExceededError(ZslenError):
    """A configured resource cap was hit before the computation finished.

    The partial state is discarded; results are only ever returned when
    they are complete.
    """

    def __init__(self, what: str, limit: int):
        super().__init__(f"budget exceeded: {what} (limit {limit})")
        self.what = what
        self.limit = limit


class EngineMismatchError(ZslenError):
    """Two independent computation engines disagreed on a result."""
