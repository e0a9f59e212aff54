"""Names shared by the layers and the command line, kept free of imports.

The CLI needs the error classes it maps to exit codes and the names of
the verification suites before it knows which layers a command runs;
taking them from here lets it parse and dispatch without loading
``algebra`` or ``checks``.  Both modules re-export what they use, so
``flatperm.algebra.ConsistencyError`` is this same class.
"""


class ConsistencyError(ArithmeticError):
    """An exact structural check failed (divisibility, vanishing tail,
    nonzero remainder, or a mismatch between two routes to one value)."""


class InexactDivisionError(ConsistencyError):
    """A division that was required to be exact left a remainder."""


#: The suites ``checks.run_suite`` runs, as ``verify --suite`` offers them.
SUITE_NAMES = ("all", "recurrence", "genfun", "constructions")
