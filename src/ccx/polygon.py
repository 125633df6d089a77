"""Polygon dissection models for the classical families.

Type A lives in a convex ((n+1)m+2)-gon whose m-allowable diagonals cut
off arcs with vertex counts divisible by m; the snake encodes negative
simples and clockwise rotation realizes the colored rotation.  Types B
and D are one construction: the type-A model of a centrally symmetric
polygon, folded by the half-turn into symmetric diagonal pairs and
diameters.  Each family keeps only its diameters (plain for B, a gray and
a dashed one at each position for D) and its rule sending a colored
positive root to a model vertex.

A model gives its bijection as ``at``, the model item at each position
of the colored complex.  Its adjacency rule (crossing masks, and the
flavor rule for D diameters, one row per position and phase) applies to
any list of its items: to its own, as ``adj``, which the svg output
lists facets from, and to ``at``, which ``checked_complex`` compares
with the complex row for row.

Polygon vertices are 0..N-1 internally; the 1-based labels of the text
descriptions map by subtracting one, and "clockwise rotation" is v -> v-1.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, permutations
from typing import NamedTuple

from .diagram import InputError, parse_diagram
from .gcc import CliqueComplex, iter_cliques
from .rootsys import RootSystem


class AmbiguousOrbit(RuntimeError):
    """A polygon model's bijection to colored roots failed a check; it
    indicates a model bug."""


Diagonal = tuple[int, int]  # sorted pair of polygon vertices


def _diag(u: int, v: int, N: int) -> Diagonal:
    u %= N
    v %= N
    return (u, v) if u < v else (v, u)


def allowable_diagonals(n: int, m: int) -> list[Diagonal]:
    """All m-allowable diagonals of the ((n+1)m+2)-gon, by a then b: the
    diagonals (a, a + 1 + tm), 1 <= t <= n, which cut off tm and
    (n + 1 - t)m vertices."""
    if n < 1 or m < 1:
        raise InputError("need n >= 1 and m >= 1")
    N = (n + 1) * m + 2
    return [(a, a + 1 + t * m) for a in range(N) for t in range(1, n + 1) if a + 1 + t * m < N]


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


def _crossing_masks(chords: list[Diagonal], N: int, others=None) -> list[int]:
    """Bit j of entry i is set when chord i crosses chord j of ``others``
    (default ``chords``): j has one end strictly between the ends a < b
    of i, found by a prefix XOR of ends around the polygon, and the
    other end is neither a nor b."""
    ends = [0] * N
    for i, (a, b) in enumerate(chords if others is None else others):
        ends[a] |= 1 << i
        ends[b] |= 1 << i
    prefix = [0]
    for e in ends:
        prefix.append(prefix[-1] ^ e)
    return [(prefix[b] ^ prefix[a + 1]) & ~(ends[a] | ends[b]) for a, b in chords]


class TypeAModel:
    """Bijection between colored roots of A_n and m-allowable diagonals.

    Negative simples go to the snake.  A positive root supported on the
    interval [i..j] has exactly m allowable diagonals crossing precisely
    the snake diagonals i..j; they form one clockwise-rotation orbit arc
    whose t-th element carries color t+1; ``arcs`` holds it by support
    mask.  The root system, ``at`` and ``adj`` are built when first
    read, so the model inside a B or D model builds none of them.
    """

    min_rank = 1

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.N = (n + 1) * m + 2
        self.diagonals = allowable_diagonals(n, m)
        self.snake = m_snake(n, m)
        groups: dict[int, set[Diagonal]] = {}
        for d, crossed in zip(self.diagonals, _crossing_masks(self.diagonals, self.N, self.snake)):
            groups.setdefault(crossed, set()).add(d)
        if groups.pop(0, set()) != set(self.snake):
            raise AmbiguousOrbit("the diagonals crossing no snake diagonal are not the snake")
        self.arcs: dict[int, list[Diagonal]] = {}
        for lo in range(n):
            for hi in range(lo, n):
                supp = (2 << hi) - (1 << lo)
                cands = groups.pop(supp, set())
                if len(cands) != m:
                    raise AmbiguousOrbit(f"{len(cands)} candidates for support [{lo}..{hi}]")
                first = [d for d in cands if rotate_diag(d, self.N, -1) not in cands]
                if len(first) != 1:
                    raise AmbiguousOrbit(f"orbit arc not contiguous for support [{lo}..{hi}]")
                arc = self.arcs[supp] = [first[0]]
                while len(arc) < m:
                    arc.append(rotate_diag(arc[-1], self.N))
        if groups:
            raise AmbiguousOrbit("colored-root map is not onto the allowable diagonals")

    @cached_property
    def rs(self) -> RootSystem:
        return RootSystem(parse_diagram(f"A{self.n}"))

    @cached_property
    def at(self) -> list[Diagonal]:
        """The diagonal at each position of the colored complex: the
        snake, then each positive root's orbit arc."""
        supp = self.rs.support_masks
        return self.snake + [d for rid in range(self.n, self.rs.size) for d in self.arcs[supp[rid]]]

    @cached_property
    def adj(self) -> list[int]:
        return self.adjacency(self.diagonals)

    def adjacency(self, chords: list[Diagonal]) -> list[int]:
        """Non-crossing adjacency of the list ``chords``, as bit masks."""
        full = (1 << len(chords)) - 1
        return [full & ~x & ~(1 << i) for i, x in enumerate(_crossing_masks(chords, self.N))]

    def root_diagonal(self, lo: int, hi: int, k: int) -> Diagonal:
        """Diagonal of the positive root supported on [lo..hi] (1-based),
        with color k."""
        return self.arcs[(1 << hi) - (1 << (lo - 1))][k - 1]


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
    ``at`` and ``adj`` are built when first read.
    """

    family: str  # "B" | "D"
    min_rank: int

    def __init__(self, n: int, m: int, a_rank: int):
        if n < self.min_rank:
            raise InputError(f"type {self.family} model needs n >= {self.min_rank}")
        self.n, self.m = n, m
        self.amodel = TypeAModel(a_rank, m)
        self.N = self.amodel.N
        self.half = self.N // 2
        self.turn = self._turn()
        self.vertices: list[Vertex] = self._diameters()
        turned = [self._turned(d) for d in self.amodel.diagonals]
        pairs = dict.fromkeys(frozenset([d, _half_turn(d, self.N)])
                              for d in turned if d[1] - d[0] != self.half)
        self.vertices += [Vertex("pair", orbit) for orbit in pairs]
        self.rs = RootSystem(parse_diagram(f"{self.family}{n}"))

    @cached_property
    def at(self) -> list[Vertex]:
        """The model vertex at each position of the colored complex: the
        negative simples' images, then each colored positive root's."""
        a_rank = self.amodel.n
        snake = [self._turned(d) for d in self.amodel.snake]
        out = [Vertex("pair", frozenset([snake[t], snake[a_rank - 1 - t]]))
               for t in range(a_rank // 2)]
        out += self._central_simples(frozenset([snake[a_rank // 2]]))
        return out + [self._category(rid, k) for rid in range(self.n, self.rs.size)
                      for k in range(1, self.m + 1)]

    @cached_property
    def adj(self) -> list[int]:
        return self.adjacency(self.vertices)

    def adjacency(self, verts: list[Vertex]) -> list[int]:
        """Non-crossing adjacency of the list ``verts``: by the central
        symmetry H, vertices u and v cross exactly when a chord c_u of u
        crosses c_v or H(c_v)."""
        V = len(verts)
        reps = [min(v.chords) for v in verts]
        cross = _crossing_masks(reps + [_half_turn(c, self.N) for c in reps], self.N)
        full = (1 << V) - 1
        return [full & ~(x | x >> V) & ~(1 << i) for i, x in enumerate(cross[:V])]

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

    def rotate_vertex(self, v: Vertex) -> Vertex:
        return v._replace(chords=frozenset(rotate_diag(c, self.N) for c in v.chords))

    def faces(self, k: int) -> list[tuple[int, ...]]:
        """k-subsets of pairwise compatible model vertices."""
        return list(iter_cliques(self.adj, k))


class TypeBModel(_SymmetricModel):
    """Centrally symmetric model in the (2nm+2)-gon: the A_{2n-1} model
    with plain diameters."""

    family = "B"
    min_rank = 2

    def __init__(self, n: int, m: int):
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
        supp = self.rs.support_masks[rid]
        i = (supp & -supp).bit_length()  # the first and last simple index, from 1
        if coords[n - 1] == zero:  # category I: no short-root content
            return Vertex("pair", self._chords(i, supp.bit_length(), k))
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
    min_rank = 3

    def __init__(self, n: int, m: int):
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
        supp = self.rs.support_masks[rid]
        i = (supp & -supp).bit_length()  # the first and last simple index, from 1
        if coords[n - 1] == zero:  # category I
            j = supp.bit_length()
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

    @cached_property
    def _switch_sums(self) -> list[int]:
        """Entry q: the positions 1..q that switch flavor when left."""
        return list(accumulate((q == 1 or q % self.m == 2 % self.m
                                for q in range(1, self.half + 1)), initial=0))

    def _switches(self, p: int, k: int) -> int:
        """Flavor switches over k clockwise steps starting at position p,
        which leave p, p-1, ..., p-k+1 (cyclically in 1..half): whole
        turns, then one cyclic difference of ``_switch_sums``."""
        P, half = self._switch_sums, self.half
        turns, rest = divmod(k, half)
        lo = p - rest
        if lo < 0:  # the last steps wrap from position 1 to half
            turns, lo = turns + 1, lo + half
        return turns * P[half] + P[p] - P[lo]

    def adjacency(self, verts: list[Vertex]) -> list[int]:
        """The non-crossing adjacency of the list ``verts``, the diameters
        by the flavor rule read off their phases b = flavor (gray 0, dashed
        1) + P[p] mod 2 at position p (P is ``_switch_sums``): compatible at
        p = q when the b differ, else when they add up to [p < q] P[half] +
        ceil(((p - q) mod half) / m) mod 2.  A row ORs a mask per position."""
        adj = super().adjacency(verts)
        P, half, m = self._switch_sums, self.half, self.m
        phases = {i: (P[v.position] + (v.flavor == "dashed")) % 2
                  for i, v in enumerate(verts) if v.kind == "diam"}
        masks = [[0, 0] for _ in range(half + 1)]  # masks[q][b]: the diameters at q of phase b
        for i, b in phases.items():
            masks[verts[i].position][b] |= 1 << i
        rows = [pair[::-1] for pair in masks]  # rows[p][b]: the row of phase b at p
        for p, q in permutations(range(1, half + 1), 2):
            t = ((p < q) * P[half] - (-((p - q) % half) // m)) % 2
            rows[p][0] |= masks[q][t]
            rows[p][1] |= masks[q][1 - t]
        dmask = sum(1 << i for i in phases)
        for i, b in phases.items():
            adj[i] = adj[i] & ~dmask | rows[verts[i].position][b]
        return adj

    def rotate_vertex(self, v: Vertex) -> Vertex:
        if v.kind == "pair":
            return super().rotate_vertex(v)
        flavor = v.flavor
        if self._switches(v.position, 1):
            flavor = "dashed" if flavor == "gray" else "gray"
        return self._diameter(v.position - 1 if v.position > 1 else self.half, flavor)


def checked_complex(model) -> CliqueComplex:
    """The colored complex of ``model.rs``, checked against the model's
    map ``model.at``: it must be one-to-one onto the model's items (one
    distinct item per position, and every item), and the model's
    adjacency rule applied to the list itself must equal ``cx.adj`` row
    for row, else ``AmbiguousOrbit``.  ``ccx dissect`` checks the budget
    of ``ccx complex`` before it builds the model."""
    items = model.diagonals if isinstance(model, TypeAModel) else model.vertices
    cx = CliqueComplex([model.rs], model.m)
    at = model.at
    if len(at) != cx.num_vertices() or len(set(at)) != len(at) or set(at) != set(items):
        raise AmbiguousOrbit("the colored roots do not map one-to-one onto the model")
    mismatches = sum((a ^ b).bit_count() for a, b in zip(model.adjacency(at), cx.adj)) // 2
    if mismatches:
        raise AmbiguousOrbit(f"{mismatches} pair mismatches between the model and the complex")
    return cx


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
