"""Finite root systems in the symmetric geometric representation.

Roots live in the simple-root basis with float coordinates; the Gram
matrix has entries -cos(pi/m_ij).  Everything trusted downstream
(orbits, depths, compatibility) is discrete data read off after
deduplication on a 1e-6 grid, and a post-build audit checks that the
grid could not have merged distinct roots.
"""

from __future__ import annotations

import math

from .diagram import CoxeterDiagram, InputError, bipartition, classify

EPS = 1e-9
QUANT = 1e-6


class NotFiniteType(InputError):
    pass


class LookupMiss(RuntimeError):
    """A reflected root failed to match any known root: numeric dedup broke."""


def _key(coords) -> tuple[int, ...]:
    return tuple(int(round(c / QUANT)) for c in coords)


class RootSystem:
    """All almost-positive roots of a connected finite-type diagram.

    Root ids: 0..n-1 are the negative simple roots (in vertex order),
    then the positive roots in breadth-first discovery order starting
    from the simple roots.  ``rotate`` is the deformed Coxeter element
    (the minus-twist after the plus-twist) acting on almost-positive
    roots; ``depth`` counts rotations needed to reach a negative root.
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
        self.gram = [
            [
                1.0 if i == j else -math.cos(math.pi / G.label(vi, vj))
                for j, vj in enumerate(G.vertices)
            ]
            for i, vi in enumerate(G.vertices)
        ]
        self._build_roots()
        self._build_rotation()
        self._build_depths()
        self._compat: dict[tuple[int, int], bool] = {}

    # -- construction ---------------------------------------------------

    def _reflect(self, i: int, coords: tuple[float, ...]) -> tuple[float, ...]:
        """Simple reflection s_i in the simple-root basis."""
        proj = sum(self.gram[i][j] * c for j, c in enumerate(coords))
        out = list(coords)
        out[i] -= 2.0 * proj
        return tuple(out)

    def _build_roots(self):
        n = self.n
        budget = max(60 * n, 40)
        pos: list[tuple[float, ...]] = []
        index: dict[tuple[int, ...], int] = {}

        # ids 0..n-1: negative simples
        self.neg_simple_ids = list(range(n))
        roots: list[tuple[float, ...]] = []
        for i in range(n):
            coords = tuple(-1.0 if j == i else 0.0 for j in range(n))
            roots.append(coords)

        queue = []
        for i in range(n):
            coords = tuple(1.0 if j == i else 0.0 for j in range(n))
            if _key(coords) not in index:
                index[_key(coords)] = len(pos)
                pos.append(coords)
                queue.append(coords)
        while queue:
            coords = queue.pop(0)
            for i in range(n):
                img = self._reflect(i, coords)
                if all(c >= -EPS for c in img):
                    k = _key(img)
                    if k not in index:
                        if len(pos) >= budget:
                            raise NotFiniteType(
                                f"root closure exceeded {budget} roots"
                            )
                        index[k] = len(pos)
                        pos.append(img)
                        queue.append(img)
                elif not all(c <= EPS for c in img):
                    raise LookupMiss("reflection produced a sign-mixed vector")

        self.positive_roots = pos
        self.num_positive = len(pos)
        h = cls_h = self.classification.coxeter_number
        expected = self.n * int(cls_h) // 2
        if self.num_positive != expected:
            raise LookupMiss(
                f"found {self.num_positive} positive roots, expected {expected}"
            )
        self.h = int(h)

        roots.extend(pos)
        self.roots = roots  # id -> coords over all of the ground set
        self.size = len(roots)
        self._index = {_key(c): i for i, c in enumerate(roots)}
        if len(self._index) != self.size:
            raise LookupMiss("quantization merged distinct roots")
        self._audit_separation()
        self.support = [
            frozenset(
                j for j, c in enumerate(coords) if abs(c) > EPS
            )
            for coords in roots
        ]

    def _audit_separation(self, min_gap: float = 1e-4):
        for i in range(self.size):
            for j in range(i + 1, self.size):
                gap = max(
                    abs(a - b) for a, b in zip(self.roots[i], self.roots[j])
                )
                if gap <= min_gap:
                    raise LookupMiss(
                        f"roots {i} and {j} separated by only {gap:.2e}"
                    )

    def root_id(self, coords) -> int:
        k = _key(coords)
        if k not in self._index:
            raise LookupMiss(f"no root with key {k}")
        return self._index[k]

    def neg_simple_id(self, vertex: int) -> int:
        return self.vertex_index[vertex]

    def is_negative(self, rid: int) -> bool:
        return rid < self.n

    def _twist(self, sign: str, rid: int) -> int:
        """One of the two involutions whose product is the rotation.

        Fixes the negative simples of the opposite class; elsewhere
        applies the (commuting) product of the simple reflections of
        its own class.
        """
        own = self.I_plus if sign == "+" else self.I_minus
        other = self.I_minus if sign == "+" else self.I_plus
        if self.is_negative(rid):
            vertex = self.diagram.vertices[rid]
            if vertex in other:
                return rid
        coords = self.roots[rid]
        for v in own:
            coords = self._reflect(self.vertex_index[v], coords)
        if all(c >= -EPS for c in coords):
            return self.root_id(coords)
        if all(c <= EPS for c in coords):
            return self.root_id(coords)
        raise LookupMiss("twist produced a sign-mixed vector")

    def _build_rotation(self):
        perm = []
        for rid in range(self.size):
            perm.append(self._twist("-", self._twist("+", rid)))
        self.rotation = perm
        # order of the permutation = lcm of cycle lengths
        seen = [False] * self.size
        order = 1
        for start in range(self.size):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            order = order * length // math.gcd(order, length)
        self.rotation_order = order
        allowed = {self.h + 2}
        if (self.h + 2) % 2 == 0:
            allowed.add((self.h + 2) // 2)
        if order not in allowed:
            raise LookupMiss(f"rotation order {order} not in {sorted(allowed)}")
        self.minus_one_longest = 2 * order == self.h + 2

    def rotate(self, rid: int) -> int:
        return self.rotation[rid]

    def _build_depths(self):
        depths = [None] * self.size
        for rid in range(self.size):
            cur, d = rid, 0
            while not self.is_negative(cur):
                cur = self.rotation[cur]
                d += 1
                if d > self.rotation_order:
                    raise LookupMiss("depth iteration failed to terminate")
            depths[rid] = d
        self.depths = depths

    def depth(self, rid: int) -> int:
        return self.depths[rid]

    # -- compatibility ----------------------------------------------------

    def compatible(self, a: int, b: int) -> bool:
        """Non-colored compatibility: rotate the pair until one root is a
        negative simple, then test whether the other avoids that vertex."""
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        cached = self._compat.get(key)
        if cached is not None:
            return cached
        x, y = a, b
        for _ in range(self.rotation_order + 1):
            if self.is_negative(x):
                result = x not in self.support[y]
                break
            if self.is_negative(y):
                result = y not in self.support[x]
                break
            x, y = self.rotation[x], self.rotation[y]
        else:
            raise LookupMiss("no negative simple reached within one period")
        self._compat[key] = result
        return result

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
            emb: dict[int, int] = {}
            cols = [self.vertex_index[v] for v in comp.vertices]
            for rid in range(crs.size):
                coords = [0.0] * self.n
                for local, c in enumerate(crs.roots[rid]):
                    coords[cols[local]] = c
                emb[rid] = self.root_id(coords)
            out.append((crs, emb))
        return out

    def dump_roots(self) -> str:
        """One root per line, coordinates to 6 decimals (debug only)."""
        lines = []
        for rid, coords in enumerate(self.roots):
            vals = " ".join(f"{c:.6f}" for c in coords)
            lines.append(f"{rid}\t{vals}")
        return "\n".join(lines)
