"""Names shared by the layers and the command line, kept free of imports.

The CLI needs the error classes it maps to exit codes, the default
enumeration limit, the names of the verification suites and the order
rule of the count cross-check (``default_order``, ``min_order``) before
it knows which layers a command runs; taking them from here lets it
parse, bound and dispatch without loading ``perms``, ``algebra``,
``genfun`` or ``checks``.  Those modules re-export what they use, so
``flatperm.algebra.ConsistencyError``, ``flatperm.perms.EnumerationLimitError``
and ``flatperm.genfun.default_order`` are these same objects.
"""

#: The largest n that ``perms.distribution`` enumerates unless told otherwise.
DEFAULT_ENUM_LIMIT = 10


class ConsistencyError(ArithmeticError):
    """An exact structural check failed (divisibility, vanishing tail,
    nonzero remainder, or a mismatch between two routes to one value)."""


class InexactDivisionError(ConsistencyError):
    """A division that was required to be exact left a remainder."""


class EnumerationLimitError(ValueError):
    """Raised when an exhaustive enumeration is requested beyond the
    configured limit (a hard error, never a silent slow path)."""


#: The suites ``checks.run_suite`` runs, as ``verify --suite`` offers them.
SUITE_NAMES = ("all", "recurrence", "genfun", "constructions")


def default_order(r: int) -> int:
    """Default order 4r + 10 of the count cross-check: the numerator
    2x^(r+3) P_r of G_r has x-degree at most 4r + 2, and eight more
    coefficients are compared past it."""
    return 4 * r + 10


def min_order(r: int) -> int:
    """Smallest order 4r + 3 accepted for the count cross-check: the
    coefficients x^0 .. x^(4r+3) of G_r outnumber those of its numerator
    2x^(r+3) P_r (x-degree at most 4r + 2), so over the known denominator
    s^(2r-1) t^(r+1) the compared coefficients alone determine G_r."""
    return 4 * r + 3
