"""Error taxonomy and enumeration budgets shared across the package.

Exit-code mapping used by the CLI: precondition failures map to 1,
budget overruns to 2, internal invariant violations to 3.
"""

import os

DEFAULT_BUDGET = 500_000
BUDGET_ENV = "FICAT_BUDGET"


class FicatError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class PreconditionError(FicatError):
    """An operation was called outside its documented domain."""

    exit_code = 1


class BudgetExceeded(FicatError):
    """An enumeration would materialize more elements than allowed."""

    exit_code = 2

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class InvariantViolation(FicatError):
    """An internal consistency check failed; this indicates a bug."""

    exit_code = 3


def nonneg_int(x, what):
    """x, when it is a non-negative integer; otherwise PreconditionError."""
    if not isinstance(x, int) or x < 0:
        raise PreconditionError("%s must be a non-negative integer, got %r" % (what, x))
    return x


def enumeration_budget(budget=None):
    """Resolve the effective enumeration budget; None means unlimited.

    Explicit arguments, which must be integers, win, then the FICAT_BUDGET
    environment variable, then the package default.  A negative value means
    unlimited (used internally when a caller has already charged the work).
    """
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise PreconditionError("budget must be an integer or None, got %r" % (budget,))
        return None if budget < 0 else budget
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise PreconditionError("FICAT_BUDGET must be an integer, got %r" % env)
        return None if budget < 0 else budget
    return DEFAULT_BUDGET


def charge(count, budget=None, what="enumeration"):
    """Raise BudgetExceeded when count exceeds the effective budget."""
    cap = enumeration_budget(budget)
    if cap is not None and count > cap:
        raise BudgetExceeded(
            "%s needs %d elements, budget is %d" % (what, count, cap),
            required=count,
        )
    return count
