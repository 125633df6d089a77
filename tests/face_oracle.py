"""Test oracles for the face-number recurrence: the per-entry ``Poly``
walk that ``formulas.face_polys`` replaced, and the sum of products it
convolved with.

Every face polynomial here is its own canonical ``Poly``, reduced on
its own, so the walk shares no arithmetic with the one-denominator
vectors (``exactmath.PolyVec``) it checks.
"""

from __future__ import annotations

from fractions import Fraction

from ccx.exactmath import ONE, Poly, _of, _rows_sum, _zmul, poly_sum

_M_PLUS_1 = Poly([1, 1])


def poly_dot(pairs) -> Poly:
    """The sum of the products p * q over an iterable of Poly pairs: each
    product stays unreduced integers over den(p) den(q) until the one
    reduction of the sum."""
    [row], den = _rows_sum(((0, _zmul(p.num, q.num), p.den * q.den, 1) for p, q in pairs), 1)
    return _of(row, den)


def face_polys_per_entry(lat, h_of):
    """The recurrence of ``formulas.face_polys`` with each f_k its own
    ``Poly``: a function giving, for a class of the lattice, the tuple
    f_0..f_r, memoized per class in its own dict (never in
    ``lat.fpolys``).  ``h_of(cls, sums)`` gets the tuple of the sums one
    vertex down."""
    seen: dict[int, tuple[Poly, ...]] = {}

    def walk(cls: int) -> tuple[Poly, ...]:
        if cls in seen:
            return seen[cls]
        r = lat.ranks[cls]
        if lat.split[cls] is not None:
            low, rest = map(walk, lat.split[cls])
            terms: list[list[tuple[Poly, Poly]]] = [[] for _ in range(len(low) + len(rest) - 1)]
            for i, p in enumerate(low):
                for j, q in enumerate(rest):
                    terms[i + j].append((p, q))
            out = tuple(map(poly_dot, terms))
        elif r <= 2:
            base = [ONE, _M_PLUS_1]
            if r == 2:
                f1 = _of([2, lat.label(lat.least[cls])], 1)
                base = [ONE, f1, f1 * _M_PLUS_1 / 2]
            out = tuple(base[: r + 1])
        else:
            subs = [walk(sub) for sub in lat.children[cls]]
            sums = tuple(poly_sum(fs[j] for fs in subs) for j in range(r))
            h = Fraction(h_of(cls, sums))
            hn, hd = h.numerator, h.denominator  # f_k = (hm + 2)/(2k) * sums[k-1]
            out = (ONE,) + tuple(
                _of([2 * hd, hn], 2 * k * hd) * sums[k - 1] for k in range(1, r + 1)
            )
        seen[cls] = out
        return out

    return walk
