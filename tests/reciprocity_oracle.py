"""Test oracle for ``invariants.reciprocity_simple_method``: the m = 1
recursion it replaced, on Fractions.

Per connected class, the three numbers S, T and U are summed from the
values at m = 1 of its subdiagrams, each N(1) and N+(1) a Fraction of
its own, and the 3x3 system gives h, N(1) and N+(1).  Nothing here
reads a face polynomial, so the oracle shares no arithmetic with the
method, which reads S and T off the facet sums and U off the face
polynomials at -2.
"""

from __future__ import annotations

from fractions import Fraction

from ccx.diagram import CoxeterDiagram, subset_lattice
from ccx.invariants import _NOT_APPLICABLE, MethodFailure, _each_connected, _postulates


def reciprocity_at_1(G: CoxeterDiagram):
    """(h, N(1), N+(1)) of the m = 1 system of the diagram G, or the
    ``MethodFailure`` the recursion meets (the least one of the lowest
    failing rank, as the methods report it), ``not-applicable`` when G
    is not connected."""
    lat = subset_lattice(G)
    if lat.children[lat.key(lat.full)] is None:
        return MethodFailure("not-applicable", _NOT_APPLICABLE)
    solved: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    products: dict[tuple[int, int], Fraction] = {}

    def solve(cls: int) -> tuple[Fraction, Fraction, Fraction]:
        if cls in solved:
            return solved[cls]
        r = lat.ranks[cls]
        if r <= 2:
            h, npoly, ppoly, _ = _postulates(lat, cls)
            out = h, npoly(1), ppoly(1)
        else:
            S = sum((at_1(sub, 1) for sub in lat.children[cls]), Fraction(0))
            T = sum((at_1(sub, 2) for sub in lat.children[cls]), Fraction(0))
            U = sum((n * at_1(sub, 2) for sub, n in lat.census(cls)), Fraction(0))
            den = S - 2 * T
            if den == 0:
                raise MethodFailure("zero-denominator", "3x3 reciprocity system is singular")
            h = (2 * r * U - 2 * S - 2 * T) / den
            out = h, (h + 2) * S / (2 * r), (h - 1) * T / r
        solved[cls] = out
        return out

    def at_1(cls: int, which: int) -> Fraction:
        """N(1) (which = 1) or N+(1) (which = 2) of any class: the product
        over its components."""
        key = (cls, which)
        if key not in products:
            split = lat.split[cls]
            if split is not None:
                products[key] = at_1(split[0], which) * at_1(split[1], which)
            else:
                products[key] = solve(cls)[which] if lat.ranks[cls] else Fraction(1)
        return products[key]

    try:
        _each_connected(lat, solve)
    except MethodFailure as exc:
        return exc
    return solve(lat.key(lat.full))
