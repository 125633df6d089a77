"""Closed-form and recursive face enumeration for the colored complexes.

Two independent routes exist for every irreducible type: the recurrence
over vertex-deleted subdiagrams, and one closed form, the product over
exponent levels with the correction factors of ``ccx.tables``
(Fomin-Reading for the face numbers, Athanasiadis for the h-numbers).
The closed form is generic in m: at the formal variable ``M`` it gives
the polynomial, at an int the value, without building a polynomial.
The command line reads the values, h-numbers included; ``verify`` and
the tests cross-assert the routes (h also with ``h_vector_from_f``), and
the tests check the closed form against the classical binomial forms.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb

from .diagram import CoxeterDiagram, SubsetLattice, TypeInfo, _classify_connected, induced_subdiagram, subset_lattice
from .exactmath import ONE, Poly, _of, poly_dot, poly_sum
from .tables import face_correction, h_correction

_M_PLUS_1 = Poly([1, 1])


# ---------------------------------------------------------------------------
# recurrence route


def f_polys_recursive(G: CoxeterDiagram) -> list[Poly]:
    """Face polynomials f_0..f_rank in m via the vertex-deletion
    recurrence, convolving over components when a deletion disconnects.
    The h of each connected subdiagram is read off its classification,
    once per class (``face_polys``); one not of finite type raises
    ``ValueError`` naming it."""
    lat = subset_lattice(G)

    def h_of(mask: int, sums) -> Fraction:
        cls = _classify_connected(lat._adjacency(mask))
        if cls.kind != "finite":
            sub = induced_subdiagram(G, lat.vertices(mask))
            raise ValueError(f"{sub.to_spec()} has no classified Coxeter number")
        return cls.coxeter_number

    return list(face_polys(lat, h_of)(lat.full))


def face_polys(lat: SubsetLattice, h_of) -> Callable[[int], tuple[Poly, ...]]:
    """The vertex-deletion recurrence: a function giving, for a mask of
    rank r, its face polynomials f_0..f_r, memoized per isomorphism
    class (``lat.key``).

    On a connected mask of rank >= 3, f_k = (hm + 2)/(2k) * sums[k-1],
    where sums[j] is the sum of f_j over the masks with one vertex
    removed and ``h_of(mask, sums)`` gives h (it may raise).  ``h_of``
    must be an isomorphism invariant: it is asked about one mask of each
    class and its answer serves them all.  Ranks one and two are
    postulated; a disconnected mask convolves the component of least
    key with the rest.  Each sum is reduced once: the sum of the
    codimension-one f_j is one n-ary ``poly_sum``, and each convolution
    coefficient, a sum of products, is one ``poly_dot``, whose products
    are never reduced on their own.

    Results live in ``lat.fpolys`` for the life of the lattice, keyed
    by class, h and the ids of the stored sub-results they were built
    from: callers whose h agree on a subdiagram share its polynomials.
    """
    store = lat.fpolys
    seen: dict[int, tuple[Poly, ...]] = {}

    def walk(mask: int) -> tuple[Poly, ...]:
        cls = lat.key(mask)
        out = seen.get(cls)
        if out is not None:
            return out
        comps = lat.components(mask)
        r = mask.bit_count()
        if len(comps) > 1:
            first = min(comps, key=lat.key)
            low, rest = walk(first), walk(mask ^ first)
            key = (cls, id(low), id(rest))
            out = store.get(key)
            if out is None:
                terms: list[list[tuple[Poly, Poly]]] = [[] for _ in range(len(low) + len(rest) - 1)]
                for i, p in enumerate(low):
                    for j, q in enumerate(rest):
                        terms[i + j].append((p, q))
                out = store[key] = tuple(map(poly_dot, terms))
        elif r <= 2:
            out = store.get((cls,))
            if out is None:
                base = [ONE, _M_PLUS_1]
                if r == 2:
                    f1 = _of([2, lat.label(mask)], 1)
                    base = [ONE, f1, f1 * _M_PLUS_1 / 2]
                out = store[(cls,)] = tuple(base[: r + 1])
        else:
            subs = [walk(sub) for sub in lat.codim1(mask)]
            ids = tuple(sorted(map(id, subs)))
            sums = store.get((cls, ids))
            if sums is None:
                sums = store[(cls, ids)] = tuple(
                    poly_sum(fs[j] for fs in subs) for j in range(r)
                )
            h = Fraction(h_of(mask, sums))
            out = store.get((cls, h, ids))
            if out is None:
                hn, hd = h.numerator, h.denominator  # f_k = (hm + 2)/(2k) * sums[k-1]
                out = store[(cls, h, ids)] = (ONE,) + tuple(
                    _of([2 * hd, hn], 2 * k * hd) * sums[k - 1] for k in range(1, r + 1)
                )
        seen[cls] = out
        return out

    return walk


# ---------------------------------------------------------------------------
# product / closed-form route

M = Poly([0, 1])  # the formal variable m


def _level_product(info: TypeInfo, k: int, m, correction, sign: int):
    """c(m) * C(n, k) * prod (hm + 1 + sign*e) / (e + 1) over the
    exponents e of level <= k, where ``correction`` gives c.

    Generic in m: the formal variable ``M`` gives a Poly, an int or a
    Fraction the exact value, and then no polynomial is built.  The
    numerator is multiplied out first and divided once, at the end."""
    if not 0 <= k <= info.n:
        raise ValueError(f"k={k} out of range for rank {info.n}")
    coeffs, den = correction(info.family, info.n, k)
    out = 0
    for c in reversed(coeffs):
        out = out * m + c
    out *= comb(info.n, k)
    for e, level in info.levels:
        if level <= k:
            out *= info.h * m + 1 + sign * e
            den *= e + 1
    return out * Fraction(1, den)


def f_k_closed(info, k: int, m=M):
    """The face number f_k as a polynomial in m, or its value at an int
    or Fraction m: the exponent-level product with the face correction
    factor of ``ccx.tables``."""
    return _level_product(TypeInfo.of(info), k, m, face_correction, 1)


def h_k_closed(info, k: int, m=M):
    """h_k, ``f_k_closed``'s product with hm + 1 - e for hm + 1 + e and
    the h correction factor: a Poly at ``M``, the value at an int m."""
    return _level_product(TypeInfo.of(info), k, m, h_correction, -1)


def N_product(info, m) -> Fraction:
    """The facet count f_n at m."""
    info = TypeInfo.of(info)
    return f_k_closed(info, info.n, m)


def N_plus_product(info, m) -> Fraction:
    """The positive facet count (-1)^n f_n(-m-1), ``f_plus_poly`` of f_n
    at m."""
    info = TypeInfo.of(info)
    return (-1) ** info.n * f_k_closed(info, info.n, -1 - m)


def join_vector(infos: list[TypeInfo], m: int, closed) -> list:
    """The f- or h-numbers at m of the join of the complexes of the
    components ``infos`` ([1] for none): the convolution of their values
    ``closed(info, k, m)``, a join's polynomial being its parts' product."""
    vec = [1]
    for info in infos:
        out = [0] * (len(vec) + info.n)
        for j in range(info.n + 1):
            x = closed(info, j, m)
            for i, y in enumerate(vec):
                out[i + j] += y * x
        vec = out
    return vec


def f_plus_poly(f_k: Poly, k: int) -> Poly:
    """Sign-twisted evaluation at -m-1 defining the reciprocal numbers."""
    return f_k.compose(Poly([-1, -1])) * ((-1) ** k)


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

