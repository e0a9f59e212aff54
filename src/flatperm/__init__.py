"""Exact enumeration of the vincular pattern 13-2 in flattened permutations.

Independent routes to one family of numbers:

* :mod:`flatperm.perms` - brute-force enumeration over S_n (the oracle),
  plus the explicit constructions (cycle form, flattening, extremal and
  witness words, the one-to-two prefix-12 map);
* :mod:`flatperm.recurrence` - the exact q-polynomial tables g_n and
  g_n(1k), avoider counts and harmonic-number averages;
* :mod:`flatperm.genfun` - the kernel-method pipeline producing G_r(x, v),
  the certified integer polynomials P_r and c_{r,l}, and the rational
  closed form;
* :mod:`flatperm.insertion` - the insertion count on (unused letters, rank
  of the last letter), cut at q^top, that the pipeline is checked against.

Everything is integer/rational exact; any violated structural identity
raises :class:`flatperm.algebra.ConsistencyError` instead of degrading.

``import flatperm`` loads none of these layers.  Each public name is
imported from its home module on first access (PEP 562) and then kept in
this namespace, so ``flatperm.distribution`` loads only ``perms`` and a
CLI command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_HOME = {
    "ConsistencyError": "_common",
    "InexactDivisionError": "_common",
    "DEFAULT_ENUM_LIMIT": "_common",
    "EnumerationLimitError": "_common",
    "IntPoly": "algebra",
    "RationalGF": "algebra",
    "VPoly": "algebra",
    "XSeries": "algebra",
    "XVPoly": "algebra",
    "vpoly_div_kernel": "algebra",
    "xvpoly_extract_from_series": "algebra",
    "BoundaryData": "genfun",
    "Pipeline": "genfun",
    "t_poly": "genfun",
    "InsertionCount": "insertion",
    "OccurrenceTable": "perms",
    "count_13_2": "perms",
    "cycles_to_permutation": "perms",
    "distribution": "perms",
    "doubling_pair": "perms",
    "flatten": "perms",
    "max_occurrences": "perms",
    "max_pattern_perm": "perms",
    "min_length_for": "perms",
    "standard_cycle_form": "perms",
    "witness_perm": "perms",
    "GTable": "recurrence",
    "avoider_count": "recurrence",
    "average_occurrences": "recurrence",
    "b_poly": "recurrence",
    "b_poly_alt": "recurrence",
    "harmonic": "recurrence",
    "verify_a_closed_form": "recurrence",
}

#: The submodules that ``flatperm.<name>`` imports on first access.
_MODULES = ("algebra", "checks", "cli", "genfun", "insertion", "perms", "recurrence")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
