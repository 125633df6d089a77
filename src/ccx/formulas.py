"""Closed-form and recursive face enumeration for the colored complexes.

Two independent routes exist for every irreducible type: the recurrence
over vertex-deleted subdiagrams, and one closed form, the product over
exponent levels with the correction factors of ``ccx.tables``
(Fomin-Reading for the face numbers, Athanasiadis for the h-numbers).
The recurrence carries the f-vector of each subdiagram as one
``exactmath.PolyVec``, integer rows over one denominator, so each of
its sums, scalings and convolutions is one reduction.  The closed form
gives a whole f- or h-vector from one running product over the levels,
and is generic in m: at the formal variable ``M`` it gives polynomials,
at an int the values, without building a polynomial.  The command line
reads the values, h-numbers included; ``verify`` and the tests
cross-assert the routes (h also with ``h_vector_from_f``), and the tests
check the closed form against the classical binomial forms.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb, lcm

from .diagram import CoxeterDiagram, SubsetLattice, TypeInfo, _classify_connected, induced_subdiagram, subset_lattice
from .exactmath import Poly, PolyVec, _flip, _of, _taylor_shift, _vec, _zmul, vec_convolve, vec_sum
from .tables import face_correction, h_correction

# ---------------------------------------------------------------------------
# recurrence route


def f_polys_recursive(G: CoxeterDiagram) -> list[Poly]:
    """Face polynomials f_0..f_rank in m via the vertex-deletion
    recurrence, convolving over components when a deletion disconnects.
    The h of each connected subdiagram is read off its classification,
    once per class (``face_polys``); one not of finite type raises
    ``ValueError`` naming it."""
    lat = subset_lattice(G)

    def h_of(cls: int, sums: PolyVec) -> Fraction:
        mask = lat.least[cls]
        info = _classify_connected(lat._adjacency(mask))
        if info.kind != "finite":
            sub = induced_subdiagram(G, lat.vertices(mask))
            raise ValueError(f"{sub.to_spec()} has no classified Coxeter number")
        return info.coxeter_number

    return list(face_polys(lat, h_of)(lat.key(lat.full)))


def face_polys(lat: SubsetLattice, h_of) -> Callable[[int], PolyVec]:
    """The vertex-deletion recurrence on the lattice's class table: a
    function giving, for a class of rank r, its face polynomials
    f_0..f_r as one ``PolyVec``, memoized in a list indexed by class.

    On a connected class of rank >= 3, f_k = (hm + 2)/(2k) * sums[k-1],
    where sums[j] is the sum of f_j over the codim-1 child classes
    (``lat.children``) and ``h_of(cls, sums)`` gives h (it may raise).
    Ranks one and two are postulated; a disconnected class convolves
    the two classes of its split (``lat.split``).  Every vector is one
    denominator over integer rows, reduced once: the sums one vertex
    down are one ``vec_sum``, a convolution one ``vec_convolve``, and
    with h = hn/hd and L = lcm(1..r) the rows of f_k are those of
    sums[k-1] times (hn m + 2 hd) L/k, over den(sums) hd 2L.  An entry
    is a ``Poly`` only when read.

    Results live in ``lat.fpolys`` for the life of the lattice, keyed
    by class, h and the ids of the stored sub-results they were built
    from: callers whose h agree on a subdiagram share their vectors.
    """
    store = lat.fpolys
    seen: list[PolyVec | None] = [None] * len(lat.least)
    ranks, children, split = lat.ranks, lat.children, lat.split

    def walk(cls: int) -> PolyVec:
        out = seen[cls]
        if out is not None:
            return out
        r = ranks[cls]
        if split[cls] is not None:
            low, rest = map(walk, split[cls])
            key = (cls, id(low), id(rest))
            out = store.get(key)
            if out is None:
                out = store[key] = vec_convolve(low, rest)
        elif r <= 2:
            out = store.get((cls,))
            if out is None:
                if r == 2:  # f_1 = am + 2, f_2 = f_1 (m + 1) / 2
                    a = lat.label(lat.least[cls])
                    out = _vec([[2], [4, 2 * a], [2, a + 2, a]], 2)
                else:
                    out = _vec([[1], [1, 1]][: r + 1], 1)
                store[(cls,)] = out
        else:
            subs = list(map(walk, children[cls]))
            ids = tuple(sorted(map(id, subs)))
            sums = store.get((cls, ids))
            if sums is None:
                sums = store[(cls, ids)] = vec_sum(subs, r)
            h = h_of(cls, sums)
            out = store.get((cls, h, ids))
            if out is None:
                hn, hd, L = h.numerator, h.denominator, _lcm_upto(r)
                den = sums.den * hd * 2 * L
                rows = [[den]]  # f_0 = 1
                for k, row in enumerate(sums.rows, 1):
                    # (hm + 2)/(2k) = (bm + a)/(2 hd L)
                    a, b = 2 * hd * (L // k), hn * (L // k)
                    f = [a * c for c in row] + [0]
                    for i, c in enumerate(row, 1):
                        f[i] += b * c
                    rows.append(f)
                out = store[(cls, h, ids)] = _vec(rows, den)
        seen[cls] = out
        return out

    return walk


@cache
def _lcm_upto(r: int) -> int:
    return lcm(*range(1, r + 1))


# ---------------------------------------------------------------------------
# product / closed-form route

M = Poly([0, 1])  # the formal variable m


def _level_products(info: TypeInfo, m, correction, sign: int) -> Iterator:
    """For k = 0..n in turn, c_k(m) * C(n, k) * prod (hm + 1 + sign*e) /
    (e + 1) over the exponents e of level <= k, where ``correction``
    gives c_k.

    One running product over the levels in ascending order serves every
    k, so a vector of rank n costs n factors, not n per entry, and a
    reader that stops at k has paid for the levels up to k only.
    Generic in m: the formal variable ``M`` gives Polys, an int or a
    Fraction the exact values, and then no polynomial is built.  Each
    entry's numerator is multiplied out first and divided once, at the
    end."""
    levels = sorted(info.levels, key=lambda t: t[1])
    num, den, i = 1, 1, 0
    for k in range(info.n + 1):
        while i < len(levels) and levels[i][1] <= k:
            e = levels[i][0]
            num *= info.h * m + 1 + sign * e
            den *= e + 1
            i += 1
        coeffs, cden = correction(info.family, info.n, k)
        c = 0
        for x in reversed(coeffs):
            c = c * m + x
        yield c * comb(info.n, k) * num * Fraction(1, cden * den)


def f_vector_closed(info, m=M) -> Iterator:
    """The face numbers f_0..f_n in turn, as polynomials in m or as their
    values at an int or Fraction m: the exponent-level product with the
    face correction factors of ``ccx.tables``."""
    return _level_products(TypeInfo.of(info), m, face_correction, 1)


def h_vector_closed(info, m=M) -> Iterator:
    """h_0..h_n in turn, ``f_vector_closed``'s product with hm + 1 - e
    for hm + 1 + e and the h correction factors: Polys at ``M``, the
    values at an int m."""
    return _level_products(TypeInfo.of(info), m, h_correction, -1)


def _entry(vector, info, k: int, m):
    info = TypeInfo.of(info)
    if not 0 <= k <= info.n:
        raise ValueError(f"k={k} out of range for rank {info.n}")
    return next(islice(vector(info, m), k, None))


def f_k_closed(info, k: int, m=M):
    """Entry k of ``f_vector_closed``."""
    return _entry(f_vector_closed, info, k, m)


def h_k_closed(info, k: int, m=M):
    """Entry k of ``h_vector_closed``."""
    return _entry(h_vector_closed, info, k, m)


def N_product(info, m) -> Fraction:
    """The facet count f_n at m."""
    info = TypeInfo.of(info)
    return f_k_closed(info, info.n, m)


def N_plus_product(info, m) -> Fraction:
    """The positive facet count (-1)^n f_n(-m-1), ``f_plus_poly`` of f_n
    at m."""
    info = TypeInfo.of(info)
    return (-1) ** info.n * f_k_closed(info, info.n, -1 - m)


def join_vector(infos: list[TypeInfo], m: int, closed) -> list[Fraction]:
    """The f- or h-numbers at m of the join of the complexes of the
    components ``infos`` ([1] for none): the convolution of their
    vectors ``closed(info, m)`` (``f_vector_closed``, ``h_vector_closed``),
    a join's polynomial being its parts' product.  The vectors are
    convolved as integers (``_zmul``) over one denominator, divided out
    at the end."""
    nums, den = [1], 1
    for info in infos:
        xs = list(closed(info, m))
        d = lcm(*[x.denominator for x in xs])
        nums, den = _zmul(nums, [x.numerator * (d // x.denominator) for x in xs]), den * d
    return [Fraction(x, den) for x in nums]


def f_plus_poly(f_k: Poly, k: int) -> Poly:
    """Sign-twisted evaluation at -m-1 defining the reciprocal numbers:
    (-1)^k f_k(-m-1), the shift by 1 of f_k's numerator flipped (the
    coefficient of m^i times (-1)^i, which is f_k(-m)), over the same
    denominator."""
    num = _taylor_shift(_flip(f_k.num))
    return _of(num if k % 2 == 0 else [-c for c in num], f_k.den)


# ---------------------------------------------------------------------------
# h-vectors and Euler characteristic


def h_vector_from_f(fvec) -> list:
    """Coefficients of F(x-1) recovered from a full f-vector.

    Works for integer vectors and for polynomial-valued ones alike.
    """
    n = len(fvec) - 1
    out = []
    for j in range(n + 1):
        acc = None
        for k in range(n - j, n + 1):
            term = fvec[n - k] * ((-1) ** (k - (n - j)) * comb(k, n - j))
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def reduced_euler(fvec) -> int:
    """Alternating sum over nonempty faces; f_0 counts the empty face."""
    return sum((1 if (k - 1) % 2 == 0 else -1) * fvec[k] for k in range(len(fvec)))

