"""The triple-product packed dot product, kept as the test reference for
the packed Horner b-sum of ``recurrence.GTable``.

``packed_dot`` packs all three factors of each term a*b*c, the signed
(q-1)^(j-1) among them, forms one product per factor, and unpacks the
sum once; the table instead runs Horner's rule in B - 1 and never packs
(q-1)^(j-1).  Both pack and unpack with ``algebra._pack`` and
``algebra._unpack``, whose slots are tested on their own.
"""

from __future__ import annotations

from typing import Iterable

from flatperm.algebra import IntPoly, _pack, _unpack


def packed_dot(terms: Iterable[tuple[IntPoly, IntPoly, IntPoly]]) -> IntPoly:
    """The sum of the products a*b*c over the triples (a, b, c), formed as
    one integer dot product (Kronecker substitution): each factor is
    evaluated at 2^w, the products of those integers are summed, and the
    sum is unpacked once, with signed digits.

    Every coefficient of the sum is at most B = sum ||a||_1 ||b||_1
    ||c||_inf in magnitude (put the long factor last), and, once the
    terms with a zero factor are dropped, so is every coefficient of a
    factor.  With w >= bits(B) + 2, rounded up to whole bytes, each slot of
    the sum plus 2^(w-1) lies strictly inside [0, 2^w), so no slot borrows
    from or carries into the next and the unpacking is exact.

    >>> packed_dot([(IntPoly([-1, 1]), IntPoly([2]), IntPoly([1, 1]))])
    IntPoly([-2, 0, 2])
    """
    terms = [t for t in terms if t[0] and t[1] and t[2]]
    if not terms:
        return IntPoly()
    bound = sum(
        sum(map(abs, a.coeffs)) * sum(map(abs, b.coeffs)) * max(map(abs, c.coeffs))
        for a, b, c in terms
    )
    width = (bound.bit_length() + 2 + 7) // 8
    length = max(len(a.coeffs) + len(b.coeffs) + len(c.coeffs) - 2 for a, b, c in terms)
    total = 0
    for a, b, c in terms:
        total += _pack(a.coeffs, width) * _pack(b.coeffs, width) * _pack(c.coeffs, width)
    return IntPoly(_unpack(total, width, length))
