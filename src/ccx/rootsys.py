"""Finite root systems in the symmetric geometric representation.

Roots live in the simple-root basis with exact coordinates in Z[zeta],
zeta = 2cos(pi/L), L the one label above 3 of the diagram (L = 3 and
zeta = 1 when it is simply laced).  A coordinate is the int tuple of its
coefficients over 1, zeta, ..., reduced modulo the minimal polynomial of
zeta, so equal roots are equal tuples.  A simple reflection s_i permutes
the positive roots other than alpha_i, so their closure needs no sign
test.  s_i changes coordinate i alone, so the closure computes that
coordinate first and builds no image of a root that s_i fixes.  It keeps
each s_i as a table on root ids, so the twists, the rotation and the
rotation of any parabolic subsystem are passes over these tables.  Each
root keeps the root and the reflection that found it, and its support
mask.  The float coordinates for output are replayed when first read,
by float reflections along the same closure, so their error grows with
the closure depth only; the index of the coordinates is also built
when first read.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import add, neg, sub

from .diagram import CoxeterDiagram, InputError, bipartition, classify
from .exactmath import minpoly_2cos


class NotFiniteType(InputError):
    pass


class LookupMiss(RuntimeError):
    """A root-system invariant failed (root count nh/2, rotation order),
    colored compatibility failed a check of its defining property (see
    ``gcc.CliqueComplex``), or no root has the given coordinates."""


def check_rotation_order(perm: list[int], rs: "RootSystem", m: int) -> int:
    """The order of the permutation ``perm`` of range(len(perm)), which
    must be that of R_m on ``rs`` in the source paper, else ``LookupMiss``:
    (mh+2)/2 when w0 = -1, and mh+2 otherwise."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        order = math.lcm(order, length or 1)
    want = (m * rs.h + 2) // (2 if rs.minus_one_longest else 1)
    if order != want:
        raise LookupMiss(f"R_{m} has order {order} on {rs.classification.type_name}, not {want}")
    return order


class RootSystem:
    """All almost-positive roots of a connected finite-type diagram.

    Root ids: 0..n-1 are the negative simple roots (in vertex order),
    then the positive roots in breadth-first discovery order starting
    from the simple roots.  ``exact`` holds each root's Z[zeta]
    coordinates, ``roots`` their float values, replayed when first read
    along the reflections that found each root.  ``reflection[i][rid]``
    is the id of s_i applied to root ``rid``, None where that is a
    negative root other than a negative simple.  ``rotation`` is the
    deformed Coxeter element (the minus-twist after the plus-twist)
    acting on almost-positive roots, as a table on root ids;
    ``rotation_within`` is that of the parabolic subsystem on a set of
    simple indices, under the inherited bipartition, on each root of the
    subsystem.  ``support_masks``
    holds each root's support as a mask of simple indices, which colored
    compatibility reads at the negative simples.  ``neighbor_masks`` is
    the diagram's ``nbr``.
    """

    def __init__(self, G: CoxeterDiagram, plus_class=None):
        cls = classify(G)
        if cls.kind != "finite":
            raise NotFiniteType(f"{G.to_spec()} is not of finite irreducible type")
        self.diagram = G
        self.classification = cls
        self.n = G.rank
        self.vertex_index = {v: i for i, v in enumerate(G.vertices)}
        if plus_class is None:
            self.I_plus, self.I_minus = bipartition(G)
        else:
            # inherited coloring (parabolic subsystems keep the parent's
            # classes so colored compatibility restricts on the nose)
            plus = frozenset(plus_class) & set(G.vertices)
            minus = frozenset(G.vertices) - plus
            for part in (plus, minus):
                for i in part:
                    for j in part:
                        if i < j and G.label(i, j) >= 3:
                            raise ValueError("plus_class is not totally disconnected")
            self.I_plus, self.I_minus = plus, minus
        self.L = max(G.labels.values(), default=3)
        self._minpoly = minpoly_2cos(self.L)
        self.degree = len(self._minpoly) - 1
        self._zeta = 2 * math.cos(math.pi / self.L)
        self._nbrs = [[(self.vertex_index[w], lab) for w, lab in G.neighbors(v).items()]
                      for v in G.vertices]
        self.neighbor_masks = G.nbr
        self._own = {sign: sum(1 << self.vertex_index[v] for v in part)
                     for sign, part in (("+", self.I_plus), ("-", self.I_minus))}
        self._build_roots()
        self._build_rotation()

    # -- construction ---------------------------------------------------

    def integer(self, k: int) -> tuple[int, ...]:
        """The ring element k of Z[zeta]."""
        return (k,) + (0,) * (self.degree - 1)

    def _coordinate(self, i: int, root: tuple) -> tuple[int, ...]:
        """Coordinate i of s_i(root), the one it changes: -c_i plus c_j
        over the label-3 neighbours and zeta c_j over label L."""
        ci = tuple(map(neg, root[i]))
        for j, lab in self._nbrs[i]:
            cj = root[j]
            if lab != 3:  # times zeta, reduced by its minimal polynomial
                top, cj = cj[-1], (0, *cj[:-1])
                if top:
                    cj = tuple(map(sub, cj, [top * p for p in self._minpoly]))
            ci = tuple(map(add, ci, cj))
        return ci

    def _reflect(self, i: int, root: tuple) -> tuple:
        """Simple reflection s_i in the simple-root basis."""
        return root[:i] + (self._coordinate(i, root),) + root[i + 1:]

    def _reflect_float(self, i: int, coords: tuple) -> tuple:
        """``_reflect`` on float coordinates."""
        ci = sum(coords[j] * (1 if lab == 3 else self._zeta) for j, lab in self._nbrs[i])
        return coords[:i] + (ci - coords[i],) + coords[i + 1:]

    def _build_roots(self):
        """The breadth-first closure of the simple roots under the s_i.

        s_i moves a root exactly where its new coordinate i differs from
        the old one; elsewhere the table entry is the root's own id and
        no image is built.  When the ring is Z (simply laced) the
        coordinates are plain ints during the closure, and ``exact``
        wraps them on first read.  Each new root's support mask is its
        parent's with bit i set or cleared."""
        n = self.n
        self.h = int(self.classification.coxeter_number)
        expected = n * self.h // 2
        if self.degree == 1:
            pos = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            zero = 0
            nbrs = [[j for j, _ in nb] for nb in self._nbrs]

            def coordinate(i, root):
                ci = -root[i]
                for j in nbrs[i]:
                    ci += root[j]
                return ci
        else:
            pos = [tuple(self.integer(int(j == i)) for j in range(n)) for i in range(n)]
            zero = self.integer(0)
            coordinate = self._coordinate
        index = {root: n + k for k, root in enumerate(pos)}
        masks = [1 << i for i in range(n)]
        parents: list[tuple[int, int]] = []  # (parent id, i) of each root after the simple ones
        # s_i on the negative simples: -alpha_i to alpha_i, and -alpha_j
        # to itself, or out of the ids where j is a neighbour of i
        table = [[n + j if j == i else None if self.neighbor_masks[i] >> j & 1 else j
                  for j in range(n)] for i in range(n)]
        # the list grows while it is walked: a breadth-first closure;
        # s_i maps every positive root but alpha_i to a positive root
        for k, root in enumerate(pos):
            if len(pos) > expected:
                break
            rid = n + k
            for i in range(n):
                if i == k:
                    table[i].append(i)  # s_i(alpha_i) = -alpha_i
                    continue
                ci = coordinate(i, root)
                if ci == root[i]:  # s_i fixes the root
                    table[i].append(rid)
                    continue
                img = root[:i] + (ci,) + root[i + 1:]
                got = index.get(img)
                if got is None:
                    got = index[img] = n + len(pos)
                    pos.append(img)
                    bit = 1 << i
                    masks.append(masks[k] | bit if ci != zero else masks[k] & ~bit)
                    parents.append((rid, i))
                table[i].append(got)
        if len(pos) != expected:
            raise LookupMiss(f"found {len(pos)} positive roots, expected {expected}")
        self.reflection = table
        self._positive = pos
        self._parents = parents
        self.num_positive = len(pos)
        self.size = n + len(pos)
        self.support_masks = [1 << i for i in range(n)] + masks

    @cached_property
    def exact(self) -> list[tuple]:
        """The Z[zeta] coordinates of each root, in id order."""
        pos = self._positive
        if self.degree == 1:
            pos = [tuple((c,) for c in root) for root in pos]
        negative = [tuple(self.integer(-int(j == i)) for j in range(self.n)) for i in range(self.n)]
        return negative + pos

    @cached_property
    def _index(self) -> dict[tuple, int]:
        return {root: rid for rid, root in enumerate(self.exact)}

    @cached_property
    def positive_roots(self) -> list[tuple[float, ...]]:
        """Float coordinates of the positive roots, in id order: each
        simple root's, then each found root's reflection of its parent's,
        in discovery order, as the closure found them."""
        n = self.n
        flt = [tuple(float(j == i) for j in range(n)) for i in range(n)]
        for parent, i in self._parents:
            flt.append(self._reflect_float(i, flt[parent - n]))
        return flt

    @cached_property
    def roots(self) -> list[tuple[float, ...]]:
        """Float coordinates of every root, in id order."""
        n = self.n
        return [tuple(float(-(j == i)) for j in range(n)) for i in range(n)] + self.positive_roots

    def root_id(self, coords) -> int:
        """Id of the root with these integer (or integral float)
        coordinates in the simple-root basis."""
        if all(c == int(c) for c in coords):
            rid = self._index.get(tuple(self.integer(int(c)) for c in coords))
            if rid is not None:
                return rid
        raise LookupMiss(f"no root with coordinates {list(coords)}")

    def is_negative(self, rid: int) -> bool:
        return rid < self.n

    def _twists(self, rids: list[int], within: int) -> list[int]:
        """The rotation of the parabolic subsystem on the mask ``within``
        of simple indices on each id of ``rids``, all supported in
        ``within``, by one list pass per simple reflection of each of
        the two twists whose product is the rotation.

        A twist fixes the negative simples of the opposite class; on the
        other roots it applies the (commuting) product of the simple
        reflections of its own class in ``within``.  Between two of them
        the root is positive or -alpha_i for an i of the class, which
        the others fix.
        """
        n = self.n
        for sign in ("+", "-"):
            own = rest = self._own[sign] & within
            while rest:
                low = rest & -rest
                rest ^= low
                tab = self.reflection[low.bit_length() - 1]
                rids = [tab[r] if r >= n or own >> r & 1 else r for r in rids]
        return rids

    def rotation_within(self, within: int) -> tuple[list[int], list[int]]:
        """The ids of the roots supported in the mask ``within`` of simple
        indices, in increasing order, and their images under the rotation
        of that parabolic subsystem under the inherited bipartition."""
        rids = [rid for rid, supp in enumerate(self.support_masks) if not supp & ~within]
        return rids, self._twists(rids, within)

    def _build_rotation(self):
        self.rotation = self._twists(list(range(self.size)), (1 << self.n) - 1)
        self.minus_one_longest = self.classification.minus_one_longest
        self.rotation_order = check_rotation_order(self.rotation, self, 1)

    def compatible(self, a: int, b: int) -> bool:
        """Uncolored compatibility of two root ids, the relation that
        ``gcc.CliqueComplex`` builds at m = 1: rotate both until ``a`` is
        a negative simple -alpha_i, where it holds exactly when the
        support of ``b`` avoids i."""
        for _ in range(self.rotation_order):
            if a < self.n:
                return not self.support_masks[b] >> a & 1
            a, b = self.rotation[a], self.rotation[b]
        raise LookupMiss(f"the rotation orbit of root {a} meets no negative simple")

    # -- parabolic subsystems ----------------------------------------------

    def parabolic_embeddings(self, J) -> list[tuple["RootSystem", dict[int, int]]]:
        """Root systems of the components of the induced subdiagram on J,
        each with a map from its root ids into this system's ids."""
        from .diagram import connected_components, induced_subdiagram

        J = set(J)
        sub = induced_subdiagram(self.diagram, J)
        out = []
        for comp in connected_components(sub):
            crs = RootSystem(comp, plus_class=self.I_plus)
            # the component keeps the label L or is simply laced: its
            # coordinates zero-pad into this system's ring
            pad = (0,) * (self.degree - crs.degree)
            cols = [self.vertex_index[v] for v in comp.vertices]
            emb: dict[int, int] = {}
            for rid, root in enumerate(crs.exact):
                coords = [self.integer(0)] * self.n
                for local, c in enumerate(root):
                    coords[cols[local]] = c + pad
                emb[rid] = self._index[tuple(coords)]
            out.append((crs, emb))
        return out
