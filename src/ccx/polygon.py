"""Polygon dissection models for the classical families.

Type A lives in a convex ((n+1)m+2)-gon whose m-allowable diagonals cut
off arcs with vertex counts divisible by m; the snake encodes negative
simples and clockwise rotation realizes the colored rotation.  Types B
and D are one construction: the type-A model of a centrally symmetric
polygon, folded by the half-turn into symmetric diagonal pairs and
diameters.  Each family keeps only its diameters (plain for B, a gray and
a dashed one at each position for D) and its rule sending a colored
positive root to a model vertex.

Polygon vertices are 0..N-1 internally; the 1-based labels of the text
descriptions map by subtracting one, and "clockwise rotation" is v -> v-1.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import InputError, parse_diagram
from .gcc import (
    ColoredRoot,
    compatibility_masks,
    iter_cliques,
    orbit_survey,
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

    def compatible(self, u: ColoredRoot, v: ColoredRoot) -> bool:
        return not crossing(self.to_diagonal[u], self.to_diagonal[v])

    def root_diagonal(self, lo: int, hi: int, k: int) -> Diagonal:
        """Diagonal of the positive root supported on [lo..hi] (1-based),
        with color k."""
        rid = self.rs.root_id([int(lo <= t <= hi) for t in range(1, self.n + 1)])
        return self.to_diagonal[ColoredRoot(0, rid, k)]


class Vertex(NamedTuple):
    """A B or D model vertex: a centrally symmetric pair of chords, or a
    diameter; a D diameter also has a 1-based position and a flavor."""

    kind: str  # "pair" | "diam"
    chords: frozenset[Diagonal]
    position: int = 0
    flavor: str = ""  # "gray" | "dashed" on a D diameter


def _half_turn(d: Diagonal, N: int) -> Diagonal:
    return _diag(d[0] + N // 2, d[1] + N // 2, N)


class _SymmetricModel:
    """The type-A model of rank ``a_rank`` (odd) in its centrally symmetric
    polygon, folded by the half-turn: a model vertex is a half-turn orbit
    of allowable diagonals, a symmetric pair or one diameter.

    The polygon is read turned clockwise by ``_turn()`` steps.  Negative
    simple t (0-based) before the snake's central diameter goes to the
    snake pair t, a_rank-1-t.  The family supplies its diameter vertices,
    the images of the remaining negative simples (``_central_simples``) and
    the rule for one colored positive root (``_category``).  Compatibility
    is non-crossing of the chords, and rotation turns every chord.
    """

    family: str  # "B" | "D"

    def __init__(self, n: int, m: int, a_rank: int):
        self.n, self.m = n, m
        self.amodel = TypeAModel(a_rank, m)
        self.N = self.amodel.N
        self.half = self.N // 2
        self.turn = self._turn()
        self.vertices: list[Vertex] = self._diameters()
        seen: set[frozenset] = set()
        for d0 in self.amodel.diagonals:
            d = self._turned(d0)
            if d[1] - d[0] == self.half:
                continue
            orbit = frozenset([d, _half_turn(d, self.N)])
            if orbit not in seen:
                seen.add(orbit)
                self.vertices.append(Vertex("pair", orbit))

        self.rs = RootSystem(parse_diagram(f"{self.family}{n}"))
        snake = [self._turned(d) for d in self.amodel.snake]
        simples = [
            Vertex("pair", frozenset([snake[t], snake[a_rank - 1 - t]]))
            for t in range(a_rank // 2)
        ]
        simples += self._central_simples(frozenset([snake[a_rank // 2]]))
        self.to_vertex: dict[ColoredRoot, Vertex] = {
            ColoredRoot(0, i, 1): v for i, v in enumerate(simples)
        }
        for rid in range(n, self.rs.size):
            for k in range(1, m + 1):
                self.to_vertex[ColoredRoot(0, rid, k)] = self._category(rid, k)
        images = set(self.to_vertex.values())
        if len(images) != len(self.to_vertex) or images != set(self.vertices):
            raise AmbiguousOrbit(f"type {self.family} bijection is not onto the model")
        self.adj = compatibility_masks(self.vertices, self.compatible)

    def _turn(self) -> int:
        return 0

    def _turned(self, d: Diagonal) -> Diagonal:
        return rotate_diag(d, self.N, self.turn)

    def _chords(self, lo: int, hi: int, k: int) -> frozenset[Diagonal]:
        """The turned diagonals of the colored A roots on [lo..hi] and on
        its mirror interval [a_rank+1-hi..a_rank+1-lo]: one diameter when
        the interval is its own mirror."""
        a = self.amodel.n + 1
        return frozenset(
            self._turned(self.amodel.root_diagonal(x, y, k))
            for x, y in ((lo, hi), (a - hi, a - lo))
        )

    def compatible(self, v1: Vertex, v2: Vertex) -> bool:
        return not any(
            crossing(c1, c2) for c1 in v1.chords for c2 in v2.chords
        )

    def rotate_vertex(self, v: Vertex) -> Vertex:
        return v._replace(chords=frozenset(rotate_diag(c, self.N) for c in v.chords))

    def faces(self, k: int) -> list[tuple[int, ...]]:
        """k-subsets of pairwise compatible model vertices."""
        return list(iter_cliques(self.adj, k))

    def f_vector(self) -> list[int]:
        """Face counts f_0..f_n of the model, from the links of one model
        vertex per rotation orbit (``orbit_survey``)."""
        index = {v: i for i, v in enumerate(self.vertices)}
        turn = [index[self.rotate_vertex(v)] for v in self.vertices]
        return orbit_survey(self.adj, self.n, 0, turn).counts


class TypeBModel(_SymmetricModel):
    """Centrally symmetric model in the (2nm+2)-gon: the A_{2n-1} model
    with plain diameters."""

    family = "B"

    def __init__(self, n: int, m: int):
        if n < 2:
            raise InputError("type B model needs n >= 2")
        super().__init__(n, m, 2 * n - 1)

    def _diameters(self) -> list[Vertex]:
        return [
            Vertex("diam", frozenset([_diag(u, u + self.half, self.N)]))
            for u in range(self.half)
        ]

    def _central_simples(self, chords: frozenset[Diagonal]) -> list[Vertex]:
        return [Vertex("diam", chords)]

    def _category(self, rid: int, k: int) -> Vertex:
        n, coords = self.n, self.rs.exact[rid]
        zero, one = self.rs.integer(0), self.rs.integer(1)
        supp = sorted(self.rs.support[rid])
        i = supp[0] + 1
        if coords[n - 1] == zero:  # category I: no short-root content
            return Vertex("pair", self._chords(i, supp[-1] + 1, k))
        if coords[n - 1] == one:  # category II: short root
            return Vertex("diam", self._chords(i, 2 * n - i, k))
        # category III: doubled tail
        j = next(t + 1 for t, c in enumerate(coords) if c not in (zero, one))
        return Vertex("pair", self._chords(i, 2 * n - j, k))


class TypeDModel(_SymmetricModel):
    """Flavored-diameter model in the (2(n-1)m+2)-gon: the A_{2n-3} model
    with a gray and a dashed diameter at each position.

    Positions are 1-based; position 1 is the primary diameter, fixed by
    relabeling the polygon so the snake's central diagonal lands there.
    Clockwise rotation moves position p to p-1, switching flavor exactly
    when leaving position 1 or a position congruent to 2 mod m.
    """

    family = "D"

    def __init__(self, n: int, m: int):
        if n < 3:
            raise InputError("type D model needs n >= 3")
        super().__init__(n, m, 2 * n - 3)

    def _turn(self) -> int:
        return self.amodel.snake[self.n - 2][0]

    def _diameter(self, position: int, flavor: str) -> Vertex:
        chord = _diag(position - 1, position - 1 + self.half, self.N)
        return Vertex("diam", frozenset([chord]), position, flavor)

    def _flavored(self, chords: frozenset[Diagonal], flavor: str) -> Vertex:
        """The diameter of a one-chord set, with this flavor."""
        (chord,) = chords
        return self._diameter(chord[0] % self.half + 1, flavor)

    def _diameters(self) -> list[Vertex]:
        return [
            self._diameter(pos, flavor)
            for pos in range(1, self.half + 1)
            for flavor in ("gray", "dashed")
        ]

    def _central_simples(self, chords: frozenset[Diagonal]) -> list[Vertex]:
        return [self._flavored(chords, "dashed"), self._flavored(chords, "gray")]

    def _category(self, rid: int, k: int) -> Vertex:
        n, coords = self.n, self.rs.exact[rid]
        zero, one = self.rs.integer(0), self.rs.integer(1)
        supp = sorted(self.rs.support[rid])
        i = supp[0] + 1
        if coords[n - 1] == zero:  # category I
            j = supp[-1] + 1
            if j <= n - 2:
                return Vertex("pair", self._chords(i, j, k))
            # chain ending at the gray fork vertex
            return self._flavored(self._chords(i, 2 * n - i - 2, k), "gray")
        if coords[n - 2] == zero:  # category II with j = n
            i = min(i, n - 1)  # the last simple alone starts at n-1
            return self._flavored(self._chords(i, 2 * n - i - 2, k), "dashed")
        # category II with j < n
        j = next(
            (t + 1 for t, c in enumerate(coords) if c not in (zero, one)), n - 1
        )
        return Vertex("pair", self._chords(i, 2 * n - j - 2, k))

    def _switches(self, p: int, k: int) -> int:
        """Flavor switches over k clockwise steps starting at position p."""
        count = 0
        cur = p
        for _ in range(k):
            if cur == 1 or cur % self.m == 2 % self.m:
                count += 1
            cur = cur - 1 if cur > 1 else self.half
        return count

    def diameters_compatible(self, v1: Vertex, v2: Vertex) -> bool:
        if v1.position == v2.position:
            return v1.flavor != v2.flavor
        k = (v1.position - v2.position) % self.half
        rotated_flavor = v1.flavor
        if self._switches(v1.position, k) % 2:
            rotated_flavor = "dashed" if v1.flavor == "gray" else "gray"
        ceil_km = -(-k // self.m)
        same = v2.flavor == rotated_flavor
        return same == (ceil_km % 2 == 0)

    def compatible(self, v1: Vertex, v2: Vertex) -> bool:
        if v1.kind == "diam" and v2.kind == "diam":
            return self.diameters_compatible(v1, v2)
        return super().compatible(v1, v2)

    def rotate_vertex(self, v: Vertex) -> Vertex:
        if v.kind == "pair":
            return super().rotate_vertex(v)
        flavor = v.flavor
        if self._switches(v.position, 1):
            flavor = "dashed" if flavor == "gray" else "gray"
        return self._diameter(v.position - 1 if v.position > 1 else self.half, flavor)


def noncrossing_graph(n: int, m: int) -> tuple[list[Diagonal], list[int]]:
    """Allowable diagonals and their non-crossing adjacency masks.  No
    budget here: ``ccx dissect`` first bounds the faces by the closed
    forms (``gcc.check_face_budget``)."""
    diags = allowable_diagonals(n, m)
    return diags, compatibility_masks(diags, lambda a, b: not crossing(a, b))


def noncrossing_turn(diags: list[Diagonal], N: int) -> list[int]:
    """The clockwise rotation of the N-gon as a map on the indices of
    ``diags``, which it must permute."""
    index = {d: i for i, d in enumerate(diags)}
    return [index[rotate_diag(d, N)] for d in diags]


def dissection_face_counts(n: int, m: int) -> list[int]:
    """Numbers of non-crossing k-subsets of allowable diagonals, k = 0..n,
    from the links of one diagonal per rotation orbit (``orbit_survey``)."""
    diags, adj = noncrossing_graph(n, m)
    return orbit_survey(adj, n, 0, noncrossing_turn(diags, (n + 1) * m + 2)).counts


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
