"""Polygon dissection models for the classical families.

Type A lives in a convex ((n+1)m+2)-gon whose m-allowable diagonals cut
off arcs with vertex counts divisible by m; the snake encodes negative
simples and clockwise rotation realizes the colored rotation.  Types B
and D reuse the type-A machinery in a centrally symmetric polygon, with
symmetric diagonal pairs, diameters, and (for D) two diameter flavors.

Polygon vertices are 0..N-1 internally; the 1-based labels of the text
descriptions map by subtracting one, and "clockwise rotation" is v -> v-1.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import InputError, parse_diagram
from .gcc import (
    BudgetExceeded,
    ColoredRoot,
    clique_counts,
    colored_ground_set,
    compatibility_masks,
    iter_cliques,
)
from .rootsys import RootSystem


class AmbiguousOrbit(RuntimeError):
    """The candidate diagonals of a positive root do not form one
    contiguous rotation orbit; indicates a model bug."""


Diagonal = tuple[int, int]  # sorted pair of polygon vertices


def _diag(u: int, v: int, N: int) -> Diagonal:
    u %= N
    v %= N
    return (u, v) if u < v else (v, u)


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    """True when the chords meet in the interior (shared endpoints don't)."""
    a, b = d1
    c, d = d2
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def is_allowable(d: Diagonal, N: int, m: int) -> bool:
    a, b = d
    arc1 = b - a - 1
    arc2 = N - (b - a) - 1
    return arc1 > 0 and arc2 > 0 and arc1 % m == 0 and arc2 % m == 0


def allowable_diagonals(n: int, m: int) -> list[Diagonal]:
    """All m-allowable diagonals of the ((n+1)m+2)-gon."""
    if n < 1 or m < 1:
        raise InputError("need n >= 1 and m >= 1")
    N = (n + 1) * m + 2
    return [
        (a, b)
        for a in range(N)
        for b in range(a + 1, N)
        if is_allowable((a, b), N, m)
    ]


def m_snake(n: int, m: int) -> list[Diagonal]:
    """Diagonals encoding the negative simple roots, index i-1 <-> vertex i."""
    N = (n + 1) * m + 2
    out: list[Diagonal] = [None] * n
    for i in range(1, n // 2 + n % 2 + 1):  # odd-indexed 2i-1
        out[2 * i - 2] = _diag((i - 1) * m, (n + 1 - i) * m + 1, N)
    for i in range(1, n // 2 + 1):  # even-indexed 2i
        out[2 * i - 1] = _diag(i * m, (n + 1 - i) * m + 1, N)
    return out


def rotate_diag(d: Diagonal, N: int, steps: int = 1) -> Diagonal:
    return _diag(d[0] - steps, d[1] - steps, N)


class TypeAModel:
    """Bijection between colored roots of A_n and m-allowable diagonals.

    Negative simples go to the snake.  A positive root supported on the
    interval [i..j] has exactly m allowable diagonals crossing precisely
    the snake diagonals i..j; they form one clockwise-rotation orbit arc
    whose t-th element carries color t+1.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.N = (n + 1) * m + 2
        self.rs = RootSystem(parse_diagram(f"A{n}"))
        self.snake = m_snake(n, m)
        self.diagonals = allowable_diagonals(n, m)
        self.to_diagonal: dict[ColoredRoot, Diagonal] = {}
        for i in range(n):
            self.to_diagonal[ColoredRoot(0, i, 1)] = self.snake[i]

        cross_sets = {
            d: frozenset(i for i, s in enumerate(self.snake) if crossing(d, s))
            for d in self.diagonals
        }
        for rid in range(self.rs.n, self.rs.size):
            supp = frozenset(self.rs.support[rid])
            cands = {d for d, cs in cross_sets.items() if cs == supp}
            if len(cands) != m:
                raise AmbiguousOrbit(
                    f"{len(cands)} candidates for support {sorted(supp)}"
                )
            first = [
                d for d in cands if rotate_diag(d, self.N, -1) not in cands
            ]
            if len(first) != 1:
                raise AmbiguousOrbit(f"orbit arc not contiguous for {sorted(supp)}")
            d = first[0]
            for k in range(1, m + 1):
                self.to_diagonal[ColoredRoot(0, rid, k)] = d
                d = rotate_diag(d, self.N)
        if len(set(self.to_diagonal.values())) != len(self.to_diagonal):
            raise AmbiguousOrbit("colored-root map is not injective")
        self.from_diagonal = {d: v for v, d in self.to_diagonal.items()}

    def ground_set(self) -> list[ColoredRoot]:
        return colored_ground_set([self.rs], self.m)

    def compatible(self, u: ColoredRoot, v: ColoredRoot) -> bool:
        return not crossing(self.to_diagonal[u], self.to_diagonal[v])


class BVertex(NamedTuple):
    """Type-B model vertex: a diameter or a centrally symmetric pair."""

    kind: str  # "diam" | "pair"
    chords: frozenset[Diagonal]


class DVertex(NamedTuple):
    """Type-D model vertex: a symmetric non-diameter pair, or a flavored
    diameter at a 1-based position."""

    kind: str  # "pair" | "diam"
    chords: frozenset[Diagonal]
    position: int  # 0 for pairs
    flavor: str  # "" for pairs, else "gray" | "dashed"


def _half_turn(d: Diagonal, N: int) -> Diagonal:
    return _diag(d[0] + N // 2, d[1] + N // 2, N)


class _SymmetricModel:
    """What the B and D models share once ``vertices``, ``to_vertex``
    and ``adj`` (compatibility as bitmasks over ``vertices``) are set."""

    def ground_set(self) -> list[ColoredRoot]:
        return colored_ground_set([self.rs], self.m)

    def model_compatible(self, u: ColoredRoot, v: ColoredRoot) -> bool:
        return self.compatible(self.to_vertex[u], self.to_vertex[v])

    def faces(self, k: int) -> list[tuple[int, ...]]:
        """k-subsets of pairwise compatible model vertices."""
        return list(iter_cliques(self.adj, k))

    def f_vector(self) -> list[int]:
        """Face counts f_0..f_n of the model."""
        return clique_counts(self.adj, self.n)


class TypeBModel(_SymmetricModel):
    """Centrally symmetric model in the (2nm+2)-gon."""

    def __init__(self, n: int, m: int):
        if n < 2:
            raise InputError("type B model needs n >= 2")
        self.n, self.m = n, m
        self.N = 2 * n * m + 2
        self.half = self.N // 2
        self.amodel = TypeAModel(2 * n - 1, m)
        assert self.amodel.N == self.N
        self.vertices: list[BVertex] = []
        for u in range(self.half):
            self.vertices.append(
                BVertex("diam", frozenset([_diag(u, u + self.half, self.N)]))
            )
        seen: set[frozenset] = set()
        for d in self.amodel.diagonals:
            if d[1] - d[0] == self.half:
                continue
            orbit = frozenset([d, _half_turn(d, self.N)])
            if orbit not in seen:
                seen.add(orbit)
                self.vertices.append(BVertex("pair", orbit))
        self._build_bijection()
        self.adj = compatibility_masks(self.vertices, self.compatible)

    def compatible(self, v1: BVertex, v2: BVertex) -> bool:
        return not any(
            crossing(c1, c2) for c1 in v1.chords for c2 in v2.chords
        )

    def _amap(self, lo: int, hi: int, k: int) -> Diagonal:
        """Diagonal of the colored A_{2n-1} root supported on [lo..hi]."""
        coords = [0.0] * (2 * self.n - 1)
        for t in range(lo - 1, hi):
            coords[t] = 1.0
        rid = self.amodel.rs.root_id(coords)
        return self.amodel.to_diagonal[ColoredRoot(0, rid, k)]

    def _build_bijection(self):
        n, m = self.n, self.m
        self.rs = RootSystem(parse_diagram(f"B{n}"))
        zero, one = self.rs.integer(0), self.rs.integer(1)
        self.to_vertex: dict[ColoredRoot, BVertex] = {}
        snake = self.amodel.snake
        for i in range(1, n):
            self.to_vertex[ColoredRoot(0, i - 1, 1)] = BVertex(
                "pair", frozenset([snake[i - 1], snake[2 * n - i - 1]])
            )
        self.to_vertex[ColoredRoot(0, n - 1, 1)] = BVertex(
            "diam", frozenset([snake[n - 1]])
        )
        for rid in range(n, self.rs.size):
            coords = self.rs.exact[rid]
            supp = sorted(self.rs.support[rid])
            last = coords[n - 1]
            for k in range(1, m + 1):
                if last == zero:  # category I: no short-root content
                    i, j = supp[0] + 1, supp[-1] + 1
                    chords = frozenset(
                        [self._amap(i, j, k), self._amap(2 * n - j, 2 * n - i, k)]
                    )
                    vx = BVertex("pair", chords)
                elif last == one:  # category II: short root
                    i = supp[0] + 1
                    vx = BVertex(
                        "diam", frozenset([self._amap(i, 2 * n - i, k)])
                    )
                else:  # category III: doubled tail
                    i = supp[0] + 1
                    j = next(
                        t + 1 for t, c in enumerate(coords) if c not in (zero, one)
                    )
                    chords = frozenset(
                        [self._amap(i, 2 * n - j, k), self._amap(j, 2 * n - i, k)]
                    )
                    vx = BVertex("pair", chords)
                self.to_vertex[ColoredRoot(0, rid, k)] = vx
        vset = set(self.vertices)
        images = set(self.to_vertex.values())
        if len(images) != len(self.to_vertex) or images != vset:
            raise AmbiguousOrbit("type B bijection is not onto the model")

    def rotate_vertex(self, v: BVertex) -> BVertex:
        return BVertex(
            v.kind, frozenset(rotate_diag(c, self.N) for c in v.chords)
        )


class TypeDModel(_SymmetricModel):
    """Flavored-diameter model in the (2(n-1)m+2)-gon.

    Positions are 1-based; position 1 is the primary diameter, fixed by
    relabeling the polygon so the snake's central diagonal lands there.
    Clockwise rotation moves position p to p-1, switching flavor exactly
    when leaving position 1 or a position congruent to 2 mod m.
    """

    def __init__(self, n: int, m: int):
        if n < 3:
            raise InputError("type D model needs n >= 3")
        self.n, self.m = n, m
        self.N = 2 * (n - 1) * m + 2
        self.half = self.N // 2
        self.amodel = TypeAModel(2 * n - 3, m)
        assert self.amodel.N == self.N
        # relabel so the snake diameter is the primary one
        self.shift = self.amodel.snake[n - 2][0]
        self.vertices: list[DVertex] = []
        for pos in range(1, self.half + 1):
            for flavor in ("gray", "dashed"):
                self.vertices.append(
                    DVertex(
                        "diam",
                        frozenset([_diag(pos - 1, pos - 1 + self.half, self.N)]),
                        pos,
                        flavor,
                    )
                )
        seen: set[frozenset] = set()
        for d0 in self.amodel.diagonals:
            d = self._shifted(d0)
            if d[1] - d[0] == self.half:
                continue
            orbit = frozenset([d, _half_turn(d, self.N)])
            if orbit not in seen:
                seen.add(orbit)
                self.vertices.append(DVertex("pair", orbit, 0, ""))
        self._build_bijection()
        self.adj = compatibility_masks(self.vertices, self.compatible)

    def _shifted(self, d: Diagonal) -> Diagonal:
        return _diag(d[0] - self.shift, d[1] - self.shift, self.N)

    def _switches(self, p: int, k: int) -> int:
        """Flavor switches over k clockwise steps starting at position p."""
        count = 0
        cur = p
        for _ in range(k):
            if cur == 1 or cur % self.m == 2 % self.m:
                count += 1
            cur = cur - 1 if cur > 1 else self.half
        return count

    def diameters_compatible(self, v1: DVertex, v2: DVertex) -> bool:
        if v1.position == v2.position:
            return v1.flavor != v2.flavor
        k = (v1.position - v2.position) % self.half
        rotated_flavor = v1.flavor
        if self._switches(v1.position, k) % 2:
            rotated_flavor = "dashed" if v1.flavor == "gray" else "gray"
        ceil_km = -(-k // self.m)
        same = v2.flavor == rotated_flavor
        return same == (ceil_km % 2 == 0)

    def compatible(self, v1: DVertex, v2: DVertex) -> bool:
        if v1.kind == "diam" and v2.kind == "diam":
            return self.diameters_compatible(v1, v2)
        return not any(
            crossing(c1, c2) for c1 in v1.chords for c2 in v2.chords
        )

    def rotate_vertex(self, v: DVertex) -> DVertex:
        if v.kind == "pair":
            return DVertex(
                "pair",
                frozenset(rotate_diag(c, self.N) for c in v.chords),
                0,
                "",
            )
        newpos = v.position - 1 if v.position > 1 else self.half
        flavor = v.flavor
        if self._switches(v.position, 1):
            flavor = "dashed" if flavor == "gray" else "gray"
        return DVertex(
            "diam",
            frozenset([_diag(newpos - 1, newpos - 1 + self.half, self.N)]),
            newpos,
            flavor,
        )

    def _amap(self, lo: int, hi: int, k: int) -> Diagonal:
        coords = [0.0] * (2 * self.n - 3)
        for t in range(lo - 1, hi):
            coords[t] = 1.0
        rid = self.amodel.rs.root_id(coords)
        return self._shifted(self.amodel.to_diagonal[ColoredRoot(0, rid, k)])

    def _diam_vertex(self, chord: Diagonal, flavor: str) -> DVertex:
        pos = (chord[0] % self.half) + 1
        return DVertex(
            "diam",
            frozenset([_diag(pos - 1, pos - 1 + self.half, self.N)]),
            pos,
            flavor,
        )

    def _build_bijection(self):
        n, m = self.n, self.m
        self.rs = RootSystem(parse_diagram(f"D{n}"))
        zero, one = self.rs.integer(0), self.rs.integer(1)
        self.to_vertex: dict[ColoredRoot, DVertex] = {}
        snake = self.amodel.snake
        for i in range(1, n - 1):
            chords = frozenset(
                [self._shifted(snake[i - 1]), self._shifted(snake[2 * n - i - 3])]
            )
            self.to_vertex[ColoredRoot(0, i - 1, 1)] = DVertex("pair", chords, 0, "")
        primary = self._shifted(snake[n - 2])
        self.to_vertex[ColoredRoot(0, n - 2, 1)] = self._diam_vertex(
            primary, "dashed"
        )
        self.to_vertex[ColoredRoot(0, n - 1, 1)] = self._diam_vertex(
            primary, "gray"
        )
        for rid in range(n, self.rs.size):
            coords = self.rs.exact[rid]
            supp = sorted(self.rs.support[rid])
            c_last = coords[n - 1]
            c_fork = coords[n - 2]
            for k in range(1, m + 1):
                if c_last == zero:  # category I
                    i, j = supp[0] + 1, supp[-1] + 1
                    if j <= n - 2:
                        vx = DVertex(
                            "pair",
                            frozenset(
                                [
                                    self._amap(i, j, k),
                                    self._amap(2 * n - j - 2, 2 * n - i - 2, k),
                                ]
                            ),
                            0,
                            "",
                        )
                    else:  # chain ending at the gray fork vertex
                        vx = self._diam_vertex(
                            self._amap(i, 2 * n - i - 2, k), "gray"
                        )
                elif c_fork == zero:  # category II with j = n
                    rest = [s for s in supp if s != n - 1]
                    i = rest[0] + 1 if rest else n - 1
                    vx = self._diam_vertex(
                        self._amap(i, 2 * n - i - 2, k), "dashed"
                    )
                else:  # category II with j < n
                    i = supp[0] + 1
                    j = next(
                        (t + 1 for t, c in enumerate(coords) if c not in (zero, one)),
                        n - 1,
                    )
                    vx = DVertex(
                        "pair",
                        frozenset(
                            [
                                self._amap(i, 2 * n - j - 2, k),
                                self._amap(j, 2 * n - i - 2, k),
                            ]
                        ),
                        0,
                        "",
                    )
                self.to_vertex[ColoredRoot(0, rid, k)] = vx
        images = set(self.to_vertex.values())
        if len(images) != len(self.to_vertex) or images != set(self.vertices):
            raise AmbiguousOrbit("type D bijection is not onto the model")


def all_diameter_flavoring(n: int, m: int, positions) -> list[tuple[str, ...]]:
    """All ways to flavor diameters at the given positions so they are
    pairwise compatible: either none, or exactly two (global flips)."""
    if n <= 2:
        raise InputError("needs n > 2")
    model = TypeDModel(n, m)
    positions = list(positions)
    out = []
    for bits in range(1 << len(positions)):
        flavors = tuple(
            "gray" if bits >> t & 1 else "dashed" for t in range(len(positions))
        )
        verts = [
            DVertex(
                "diam",
                frozenset([_diag(p - 1, p - 1 + model.half, model.N)]),
                p,
                f,
            )
            for p, f in zip(positions, flavors)
        ]
        if all(
            model.compatible(verts[i], verts[j])
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
        ):
            out.append(flavors)
    return out


def diameter_gap_condition(n: int, m: int, positions) -> bool:
    """Sorted starting indices must have consecutive gaps <= m, cyclically."""
    a = sorted(positions)
    a.append(a[0] + (n - 1) * m + 1)
    return all(a[t + 1] - a[t] <= m for t in range(len(a) - 1))


def noncrossing_graph(n: int, m: int, budget: int = 40) -> tuple[list[Diagonal], list[int]]:
    """Allowable diagonals and their non-crossing adjacency masks."""
    diags = allowable_diagonals(n, m)
    if len(diags) > budget:
        raise BudgetExceeded(f"{len(diags)} diagonals exceed budget {budget}")
    return diags, compatibility_masks(diags, lambda a, b: not crossing(a, b))


def count_dissection_faces(n: int, m: int, k: int, budget: int = 40) -> int:
    """Count of non-crossing k-subsets of allowable diagonals."""
    return clique_counts(noncrossing_graph(n, m, budget)[1], k)[k]


def dissection_facets(n: int, m: int, budget: int = 40) -> list[tuple[Diagonal, ...]]:
    """The maximal dissections: non-crossing n-subsets of allowable
    diagonals, in lexicographic diagonal order."""
    diags, adj = noncrossing_graph(n, m, budget)
    return [tuple(diags[i] for i in c) for c in iter_cliques(adj, n)]


def render_svg(N: int, chords, size: int = 400) -> str:
    """Tiny SVG rendering of chords in a regular N-gon.

    ``chords`` is an iterable of (diagonal, style) with style one of
    "plain", "gray", "dashed".  Debug/illustration output only.
    """
    import math

    cx = cy = size / 2
    r = size * 0.45

    def pt(v: int) -> tuple[float, float]:
        ang = math.pi / 2 + 2 * math.pi * v / N
        return (cx + r * math.cos(ang), cy - r * math.sin(ang))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
    ]
    ring = " ".join(f"{pt(v)[0]:.2f},{pt(v)[1]:.2f}" for v in range(N))
    lines.append(
        f'<polygon points="{ring}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for d, style in chords:
        (x1, y1), (x2, y2) = pt(d[0]), pt(d[1])
        stroke = "#888888" if style == "gray" else "black"
        dash = ' stroke-dasharray="6,4"' if style == "dashed" else ""
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="2"{dash}/>'
        )
    for v in range(N):
        x, y = pt(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines)
