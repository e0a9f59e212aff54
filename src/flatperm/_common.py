"""Names shared by the layers and the command line, kept free of imports.

The CLI needs the error classes it maps to exit codes, the default
enumeration limit and the names of the verification suites before it
knows which layers a command runs; taking them from here lets it parse
and dispatch without loading ``perms``, ``algebra`` or ``checks``.  Those
modules re-export what they use, so ``flatperm.algebra.ConsistencyError``
and ``flatperm.perms.EnumerationLimitError`` are these same classes.
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
