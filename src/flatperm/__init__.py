"""Exact enumeration of the vincular pattern 13-2 in flattened permutations.

Three independent routes to one family of numbers:

* :mod:`flatperm.perms` - brute-force enumeration over S_n (the oracle),
  plus the explicit constructions (cycle form, flattening, extremal and
  witness words, the one-to-two prefix-12 map);
* :mod:`flatperm.recurrence` - the exact q-polynomial tables g_n and
  g_n(1k), avoider counts and harmonic-number averages;
* :mod:`flatperm.genfun` - the kernel-method pipeline producing G_r(x, v),
  the certified integer polynomials P_r and c_{r,l}, and the rational
  closed forms.

Everything is integer/rational exact; any violated structural identity
raises :class:`flatperm.algebra.ConsistencyError` instead of degrading.
"""

from .algebra import (
    ConsistencyError,
    InexactDivisionError,
    IntPoly,
    RationalGF,
    VPoly,
    XSeries,
    XVPoly,
    vpoly_div_kernel,
    xvpoly_extract_from_series,
)
from .genfun import (
    BoundaryData,
    CTable,
    Pipeline,
    t_poly,
)
from .perms import (
    DEFAULT_ENUM_LIMIT,
    EnumerationLimitError,
    OccurrenceTable,
    count_13_2,
    cycles_to_permutation,
    distribution,
    doubling_pair,
    flatten,
    max_occurrences,
    max_pattern_perm,
    min_length_for,
    standard_cycle_form,
    witness_perm,
)
from .recurrence import (
    GTable,
    a_poly,
    avoider_count,
    average_occurrences,
    b_poly,
    b_poly_alt,
    harmonic,
    verify_a_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "CTable",
    "ConsistencyError",
    "DEFAULT_ENUM_LIMIT",
    "EnumerationLimitError",
    "GTable",
    "InexactDivisionError",
    "IntPoly",
    "OccurrenceTable",
    "Pipeline",
    "RationalGF",
    "VPoly",
    "XSeries",
    "XVPoly",
    "a_poly",
    "avoider_count",
    "average_occurrences",
    "b_poly",
    "b_poly_alt",
    "count_13_2",
    "cycles_to_permutation",
    "distribution",
    "doubling_pair",
    "flatten",
    "harmonic",
    "max_occurrences",
    "max_pattern_perm",
    "min_length_for",
    "standard_cycle_form",
    "t_poly",
    "verify_a_closed_form",
    "vpoly_div_kernel",
    "witness_perm",
    "xvpoly_extract_from_series",
]
