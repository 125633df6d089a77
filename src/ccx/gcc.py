"""Colored almost-positive roots and the clique complex they span.

The ground set holds m copies of each positive root (colors 1..m) plus
the negative simples with color 1.  Colored compatibility is built
from its defining property (Fomin and Reading; at m = 1 it is Fomin and
Zelevinsky's compatibility): it is the symmetric relation, invariant
under the colored rotation R_m, that holds at each negative simple
-alpha_i exactly for the colored roots whose support avoids i.  So the
row of each negative simple is read from the supports and carried along
its R_m orbit; ``CliqueComplex`` checks that the rows close up and are
symmetric.  Reducible diagrams are handled as joins: vertices of
different components are always compatible.  Each component's vertices
lie in one run of positions, its negative simples first and then each
positive root's m colors in turn, so a vertex's position is arithmetic
and no list of vertices is kept: the rows, the JSON export and the
polygon models' maps all read the layout from ``CliqueComplex.starts``.
One routine, ``CliqueComplex.write_turn``, writes R_m both for the
whole complex and for the parabolic subsystems that the survey checks.

The clique engine of the package is one survey, one orbit frame and
one lister.  ``clique_survey`` gives a clique complex its face numbers,
unmarked (positive) facet count, ridge degrees and purity in a single
ordered traversal.  ``orbit_frame`` gives the same survey from vertex
links alone: given a checked automorphism of the graph, it surveys the
link of one vertex per orbit and of each marked vertex, and weighs each
link by its orbit.  ``parabolic_survey`` surveys the colored complex for
m >= 1, and through it every polygon model: under the colored rotation
of each parabolic subsystem, every orbit of which meets a negative
simple, the link of a negative simple is a join of parabolic complexes,
each surveyed by the same recursion and combined by ``join_survey``.
Every count is still an enumeration of the compatibility graph, with
each rotation and each join checked exactly on it; neither the closed
forms nor the face recurrence is read.  ``iter_cliques`` lists facets
for ``--facets`` and svg output.  ``check_budget`` refuses, from the
classification alone and before anything is built, a complex or polygon
model over ``FACE_BUDGET`` faces or over ``CCX_BUDGET`` colored
almost-positive roots.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple

from .diagram import CoxeterDiagram, InputError, TypeInfo, _bits, classify, connected_components
from .diagram import mask_components
from .exactmath import _zmul
from .formulas import f_vector_closed
from .rootsys import LookupMiss, NotFiniteType, RootSystem, check_rotation_order

# faces, the empty one included, that one complex or polygon model may
# enumerate: E8 at m = 2 has 1.3e7, and ``ccx complex`` on it takes about
# 0.14-0.17 s (Python 3.11, shared 2-vCPU Xeon host, a fresh process),
# most of it starting Python and importing; building the root system and
# the compatibility graph takes about 0.004 s, and the survey 0.008 s
FACE_BUDGET = 20_000_000


class BudgetExceeded(InputError):
    pass


class MalformedBudget(InputError):
    """``CCX_BUDGET`` is set to something other than an integer."""


def check_budget(infos: list[TypeInfo], m: int) -> None:
    """Refuse a complex over budget from its irreducible components
    ``infos`` alone, before any root system or model is built.

    First the faces: the product over the components of the sum of their
    closed-form f_k(m), summed by increasing k and stopped once the
    product passes ``FACE_BUDGET``, so the refusal gives the count reached
    by then.  Then the colored almost-positive roots, n + max(m, 1) * nh/2
    per component, against ``CCX_BUDGET`` (2000 when unset): the vertices
    for m >= 1, and at m = 0 the roots of the systems still built."""
    raw = os.environ.get("CCX_BUDGET")
    try:
        cap = int(raw) if raw else 2000
    except ValueError:
        raise MalformedBudget(f"CCX_BUDGET must be an integer, got {raw!r}") from None
    faces = 1
    for info in infos:
        total = 0
        for f_k in f_vector_closed(info, m):
            total += f_k
            if faces * total > FACE_BUDGET:
                raise BudgetExceeded(
                    f"at least {faces * total} faces predicted, over the budget of {FACE_BUDGET}"
                )
        faces *= total
    roots = sum(info.n + max(m, 1) * info.n * info.h // 2 for info in infos)
    if roots > cap:
        counted = "vertices" if m else "almost-positive roots"
        raise BudgetExceeded(f"{roots} {counted} exceed budget {cap}")


# the f- and h-vectors ``ccx fvector`` and ``ccx hvector`` compute: A1000
# and B1000 at m = 1 (13 000 and 14 000 bits predicted) take 0.15-0.2 s
# each in process, and the join of a thousand A1 at m = 8190 (16 000
# bits), about the slowest admitted input, 1.6 s (Python 3.11, shared
# 2-vCPU host).  A join is convolved in rank^2 steps, hence the rank.
TABLE_RANK_BUDGET = 1000
TABLE_BITS_BUDGET = 16_000


def check_table_budget(infos: list[TypeInfo], m: int) -> None:
    """Refuse the face table of a finite type at m from its irreducible
    components ``infos`` alone, before any value is computed: a total
    rank over ``TABLE_RANK_BUDGET``, or a largest entry predicted to need
    more than ``TABLE_BITS_BUDGET`` bits.

    The prediction, the sum over the components of n (2 + the bit length
    of h (m + 1)), bounds every f_k and |h_k| from above: per component
    f_n = prod (hm + 1 + e)/(e + 1) <= (h (m + 1))^n, the complexes are
    pure, so f_k <= C(n, k) f_n <= 2^n f_n, and h_k is a signed sum of
    the C(n - i, k - i) f_i, so |h_k| <= 2^n (f_0 + ... + f_n)."""
    rank = sum(info.n for info in infos)
    if rank > TABLE_RANK_BUDGET:
        raise BudgetExceeded(f"rank {rank} exceeds the face-table budget {TABLE_RANK_BUDGET}")
    bits = sum(info.n * (2 + (info.h * (m + 1)).bit_length()) for info in infos)
    if bits > TABLE_BITS_BUDGET:
        raise BudgetExceeded(
            f"entries of up to {bits} bits predicted, over the budget of {TABLE_BITS_BUDGET}"
        )


class CliqueSurvey(NamedTuple):
    counts: list[int]         # cliques of sizes 0..top
    unmarked_top: int         # top-cliques with no vertex in ``marked``
    ridge_degrees: frozenset  # common-neighbor counts of the (top-1)-cliques
    pure: bool                # every maximal clique has exactly top vertices


def clique_survey(adj: list[int], top: int, marked: int = 0, within: int | None = None) -> CliqueSurvey:
    """Face numbers, unmarked facets, ridge degrees and purity of the
    clique complex of the graph that ``adj`` induces on the vertex mask
    ``within`` (the whole graph when None), with facet size ``top``, in
    one ordered traversal.

    A node is a clique with ``later``, its common neighbors above its
    last vertex, and ``common``, all its common neighbors.  Candidates
    are taken lowest first, so each clique is visited once, in
    increasing vertex order.  A nonempty clique below ``top`` with no
    common neighbor is maximal, so the complex is impure; the empty
    clique is not checked, so the graph without vertices counts as pure.
    The top-cliques are counted from ``later`` at each (top-1)-clique
    without being visited, and one AND each confirms that none of them
    has a common neighbor.  Every node's masks lie in ``within`` once the
    root's do, so the induced graph is surveyed in place.  ``orbit_frame``
    runs it on vertex links, and ``parabolic_survey`` on its rank-1
    leaves.
    """
    if within is None:
        within = (1 << len(adj)) - 1
    V = within.bit_count()
    if top == 0:
        return CliqueSurvey([1], 1, frozenset(), V == 0)
    if top == 1:  # the empty clique is the one ridge, the vertices are the facets
        pure = not any(adj[v] & within for v in _bits(within))
        return CliqueSurvey([1, V], (within & ~marked).bit_count(), frozenset({V}), pure)
    counts = [0] * (top + 1)
    counts[0] = 1
    ridges: set[int] = set()
    unmarked = 0
    pure = True

    def rec(later: int, common: int, clean: bool, size: int):
        # the children of a (size-1)-clique, which have ``size`` vertices
        nonlocal unmarked, pure
        counts[size] += later.bit_count()
        if size < top - 1:
            while later:
                low = later & -later
                later ^= low
                a = adj[low.bit_length() - 1]
                nxt = common & a
                if not nxt:
                    pure = False
                elif later & a:
                    rec(later & a, nxt, clean and not marked & low, size + 1)
            return
        # the children are the ridges; their own children are facets
        while later:
            low = later & -later
            later ^= low
            a = adj[low.bit_length() - 1]
            nxt = common & a
            ridges.add(nxt.bit_count())
            up = later & a
            if not up:
                if not nxt:
                    pure = False
                continue
            counts[top] += up.bit_count()
            if clean and not marked & low:
                unmarked += (up & ~marked).bit_count()
            while pure and up:
                low = up & -up
                up ^= low
                if nxt & adj[low.bit_length() - 1]:
                    pure = False

    rec(within, within, True, 1)
    return CliqueSurvey(counts, unmarked, frozenset(ridges), pure)


def _image(mask: int, to) -> int:
    """The image of the vertex set ``mask`` under a vertex map given as
    ``to``, a list or a dict from each vertex of ``mask`` to the mask of
    its image."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= to[low.bit_length() - 1]
    return out


def _stepped(turn: list[int], verts) -> tuple[int, list[int]]:
    """The vertex map ``turn``, read at the vertices ``verts``, split in
    two: the mask of the vertices it steps to the next one, v to v + 1,
    whose image is one shift of the mask, and a list holding the image
    mask of each other vertex of ``verts``, for ``_image`` (0 elsewhere).
    The colored rotations step every color of a root but its last."""
    step = 0
    to = [0] * len(turn)
    for v in verts:
        t = turn[v]
        if t == v + 1:
            step |= 1 << v
        else:
            to[v] = 1 << t
    return step, to


def check_automorphism(adj: list[int], turn: list[int], within: int) -> None:
    """Raise ``ValueError`` unless ``turn``, a list read only at the vertex
    mask ``within``, permutes it and maps each edge among them to an edge.
    A permutation maps the edges one-to-one, so onto themselves, so it
    maps non-edges to non-edges as well.  The vertices that ``turn``
    steps (``_stepped``) are imaged as one shift of each row, and only
    the rest are walked bit by bit."""
    verts = _bits(within)
    if sorted(turn[v] for v in verts) != verts:
        raise ValueError("the turn is not a permutation of the vertices")
    step, to = _stepped(turn, verts)
    for v in verts:
        mask = adj[v] & within & -(2 << v)
        moved = mask & step
        image = moved << 1
        mask ^= moved
        while mask:
            low = mask & -mask
            mask ^= low
            image |= to[low.bit_length() - 1]
        if image & ~adj[turn[v]]:
            raise ValueError(f"the turn is not an automorphism: it breaks the edges at vertex {v}")


def orbit_frame(adj: list[int], within: int, top: int, marked: int, turn,
                link_survey) -> CliqueSurvey:
    """``clique_survey`` of the graph that ``adj`` induces on the vertex
    mask ``within``, with facet size ``top`` and the vertices of
    ``marked`` marked, from vertex links only.

    ``turn`` is an automorphism of that graph, already checked
    (``check_automorphism``), so the links along one of its orbits are
    isomorphic.  Each orbit is represented by its first marked vertex,
    or by its lowest vertex if it has none.  Each vertex i that is marked
    or a representative has its link surveyed with facet size top-1,
    marking the marked vertices below it: ``link_survey(i, below)``.  A
    k-face lies in the links of
    its k vertices, so f_k is the sum over the representatives of
    |orbit| * f_{k-1}(link) / k.  A facet with a marked vertex is counted
    once, in the link of the lowest one, as a link facet with no marked
    vertex.  Every ridge lies in the link of one of its vertices with the
    same common neighbors, and a nonempty clique is maximal exactly when
    the rest of it is maximal in the link of each of its vertices: the
    empty link too, which ``clique_survey`` does not count as impure.
    Below top 2 the links say nothing, and ``clique_survey`` runs on the
    graph itself, in place.
    """
    if top <= 1:
        return clique_survey(adj, top, marked, within)
    verts = _bits(within)
    weight: dict[int, int] = {}  # representative -> orbit size
    done = 0
    for start in verts:
        if done >> start & 1:
            continue
        orbit = []
        v = start
        while not done >> v & 1:
            done |= 1 << v
            orbit.append(v)
            v = turn[v]
        # start is the lowest vertex of its orbit
        weight[min((v for v in orbit if marked >> v & 1), default=start)] = len(orbit)
    sums = [0] * (top + 1)
    marked_facets = 0
    ridges: set[int] = set()
    pure = True
    for i in verts:
        if not (marked >> i & 1 or i in weight):
            continue
        part = link_survey(i, marked & ((1 << i) - 1))
        if marked >> i & 1:
            marked_facets += part.unmarked_top
        w = weight.get(i)
        if w:
            for k in range(top):
                sums[k + 1] += w * part.counts[k]
            ridges |= part.ridge_degrees
            pure = pure and part.pure and bool(adj[i] & within)
    counts = [1]
    for k in range(1, top + 1):
        q, r = divmod(sums[k], k)
        if r:
            raise RuntimeError(f"the links count {sums[k]} vertices of {k}-faces, not a multiple of {k}")
        counts.append(q)
    return CliqueSurvey(counts, counts[top] - marked_facets, frozenset(ridges), pure)


def join_survey(parts: list[CliqueSurvey]) -> CliqueSurvey:
    """The survey of the join of pure clique complexes from theirs: the
    face numbers convolve, a facet is unmarked when each of its parts is,
    a ridge is a ridge of one part joined to facets of the others, and
    the join is pure.  The join of no complex is the empty clique."""
    counts = [1]
    unmarked = 1
    ridges: set[int] = set()
    for part in parts:
        if not part.pure:
            raise ValueError("the join of an impure complex is not read from its parts")
        counts = _zmul(counts, part.counts)
        unmarked *= part.unmarked_top
        ridges |= part.ridge_degrees
    return CliqueSurvey(counts, unmarked, frozenset(ridges), True)


def is_join(adj: list[int], parts: list[int]) -> bool:
    """Whether every vertex of each vertex mask in ``parts`` is adjacent
    to every vertex of the other masks, so that the graph they induce
    together is the join of the graphs each induces."""
    whole = 0
    for p in parts:
        whole |= p
    for p in parts:
        rest = whole & ~p
        while p:
            low = p & -p
            p ^= low
            if adj[low.bit_length() - 1] & rest != rest:
                return False
    return True


def iter_cliques(adj: list[int], k: int):
    """The k-cliques as increasing index tuples, in lexicographic order."""

    def rec(prefix: tuple[int, ...], cand: int, need: int):
        if need == 1:
            while cand:
                low = cand & -cand
                cand ^= low
                yield prefix + (low.bit_length() - 1,)
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            yield from rec(prefix + (i,), cand & adj[i], need - 1)

    if k == 0:
        yield ()
    else:
        yield from rec((), (1 << len(adj)) - 1, k)


def check_color_count(m: int) -> None:
    """Reject a negative color count; m = 0 is valid."""
    if m < 0:
        raise InputError("color count must be >= 0")


class CliqueComplex:
    """The clique complex of colored compatibility.

    A vertex is a position, and ``adj`` is a list of bitmasks over the
    positions.  The vertices of component c lie at positions
    ``starts[c]`` up to ``starts[c + 1]`` (the last entry is the vertex
    count): its negative simples first, then the m colors of each
    positive root in consecutive positions, so ``position`` is
    arithmetic, and the component, root and color at a position are
    read from ``starts``.  ``turn`` is R_m as a table on positions,
    written by ``write_turn``; it is None at m = 0, where R_m is not
    defined.  A negative m is refused.
    """

    def __init__(self, systems: list[RootSystem], m: int):
        check_color_count(m)
        self.systems = systems
        self.m = m
        self.n = sum(rs.n for rs in systems)
        self.starts = [0]
        for rs in systems:
            self.starts.append(self.starts[-1] + rs.n + m * rs.num_positive)
        self.turn = None
        if m:
            self.turn = list(range(1, self.starts[-1] + 1))
            for c, rs in enumerate(systems):
                self.write_turn(self.turn, c, range(rs.size), rs.rotation)
        self.adj = self._rows()
        # R_m has its order on each component: this refuses some wrong
        # tables that pass the row checks
        for c, rs in enumerate(systems if m else ()):
            lo, hi = self.starts[c], self.starts[c + 1]
            check_rotation_order([t - lo for t in self.turn[lo:hi]], rs, m)

    def position(self, comp: int, root: int, color: int = 1) -> int:
        """The position of color ``color`` of root ``root`` of ``comp``."""
        start, n = self.starts[comp], self.systems[comp].n
        return start + root if root < n else start + n + (root - n) * self.m + color - 1

    def write_turn(self, turn: list[int], comp: int, rids, images) -> int:
        """Write R_m into ``turn`` at the colored roots of ``comp`` whose
        root ids are ``rids``, under the rotation that sends them to
        ``images``, and return the vertex mask of those colored roots.

        R_m steps a color below m to the next one, the next position,
        which ``turn`` must already hold; it sends the last color of a
        root (a negative simple's one) to color 1 of the root's image.
        From ``rs.rotation`` on every root id this is R_m on the
        component; from ``rs.rotation_within(K)`` it is R_m of the
        parabolic subsystem on K, on the vertices of K."""
        m, n, start = self.m, self.systems[comp].n, self.starts[comp]
        off = start + n - n * m  # color 1 of positive root r is at off + r * m
        colors = (1 << m) - 1
        mask = 0
        for rid, image in zip(rids, images):
            if rid < n:
                at = start + rid
                mask |= 1 << at
            else:
                at = off + rid * m
                mask |= colors << at
                at += m - 1
            turn[at] = start + image if image < n else off + image * m
        return mask

    def _rows(self) -> list[int]:
        """The rows of colored compatibility, from its defining property.

        The row of a negative simple -alpha_i is every vertex of the other
        components and every vertex of its own whose root's support
        avoids i, an OR of runs: the m colors of each such positive root,
        and the other negative simples.  Since u ~ v exactly when R_m u ~
        R_m v, the row of R_m x is the image of the row of x under R_m.
        So each row is carried forward along its R_m orbit to every
        vertex before the next negative simple, where it must arrive as
        that vertex's own row; the rows are then invariant under R_m.
        R_m is a permutation, so the walks cover disjoint arcs of the
        orbits; every vertex must get a row, so every orbit must meet a
        negative simple.  R_m moves any pair to one that holds a
        negative simple, so the rows are symmetric once the column of
        each negative simple equals its row.  A failed check raises
        ``LookupMiss``.  At m = 0 every vertex is a negative simple, and
        the rows are the whole graph.

        R_m steps every color below m to the next position
        (``_stepped``), so a row is carried as one shift of its bits at
        those vertices, and only its bits at the last colors and the
        negative simples are walked: (m-1)/m of the positive roots' bits
        take one shift.
        """
        V = self.starts[-1]
        negative = self.negative_mask()
        rows: list = [None] * V
        colors = (1 << self.m) - 1
        for c, rs in enumerate(self.systems):
            lo, hi = self.starts[c], self.starts[c + 1]
            others = (1 << V) - (1 << hi) | (1 << lo) - 1
            for i in range(rs.n):
                row = others | ((1 << rs.n) - 1 ^ 1 << i) << lo
                for rid in range(rs.n, rs.size):
                    if not rs.support_masks[rid] >> i & 1:
                        row |= colors << self.position(c, rid)
                rows[lo + i] = row
        if self.turn is not None:
            turn = self.turn
            step, to = _stepped(turn, range(V))

            def image(row: int) -> int:
                moved = row & step
                return moved << 1 | _image(row ^ moved, to)

            for s in _bits(negative):
                row, g = image(rows[s]), turn[s]
                while not negative >> g & 1:
                    rows[g] = row
                    row, g = image(row), turn[g]
                if row != rows[g]:
                    raise LookupMiss(f"the row of negative simple {s} arrives at {g} as another row")
        if None in rows:
            raise LookupMiss(f"the R_m orbit of vertex {rows.index(None)} meets no negative simple")
        for t in _bits(negative):
            if sum(1 << g for g in range(V) if rows[g] >> t & 1) != rows[t]:
                raise LookupMiss(f"the rows are not symmetric at negative simple {t}")
        return rows

    # -- structural queries ------------------------------------------------

    def num_vertices(self) -> int:
        return self.starts[-1]

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def rotate_vertex(self, i: int) -> int:
        """The position of the colored rotation's image of vertex i, from
        ``turn``; R_m is defined for m >= 1 only."""
        if self.turn is None:
            raise InputError("the colored rotation R_m is defined for m >= 1, not m = 0")
        return self.turn[i]

    def negative_mask(self) -> int:
        """The positions of the negative simples, as a vertex mask: the
        first n positions of each component."""
        return sum(((1 << rs.n) - 1) << start for rs, start in zip(self.systems, self.starts))

    @cached_property
    def survey(self) -> CliqueSurvey:
        """The one survey every count and audit reads, with the negative
        simples marked.  For m >= 1 it is ``parabolic_survey``: the join
        of the components' complexes, each surveyed through the links of
        its negative simples, recursively.  At m = 0 (a simplex) it is
        ``clique_survey`` on the graph."""
        if self.m and self.systems:
            return parabolic_survey(self)
        return clique_survey(self.adj, self.n, self.negative_mask())

    def f_vector(self) -> list[int]:
        """Exact clique counts f_0..f_n."""
        return list(self.survey.counts)

    def cliques_of_size(self, size: int) -> list[tuple[int, ...]]:
        return list(iter_cliques(self.adj, size))

    def facets(self) -> list[tuple[int, ...]]:
        """All n-cliques; by purity these are exactly the maximal faces."""
        return self.cliques_of_size(self.n)

    def facet_count(self) -> int:
        return self.survey.counts[self.n]

    def positive_facet_count(self) -> int:
        """Facets avoiding every negative simple root; the empty facet
        of rank 0 is one."""
        return self.survey.unmarked_top

    # -- audits --------------------------------------------------------

    def audit_pure(self) -> bool:
        """Every maximal clique has exactly n vertices."""
        return self.survey.pure

    def audit_ridge_degree(self) -> bool:
        """Every (n-1)-clique extends to exactly m+1 facets."""
        return self.survey.ridge_degrees <= {self.m + 1}

    def link_vertices(self, i: int) -> list[int]:
        return _bits(self.adj[i])

    # -- export ---------------------------------------------------------

    def vertices_json(self) -> list[dict]:
        """The vertices in position order, as JSON records."""
        verts = []
        for c, rs in enumerate(self.systems):
            for rid in range(rs.size):
                coords = [round(x, 6) for x in rs.roots[rid]]
                for color in range(1, (1 if rs.is_negative(rid) else self.m) + 1):
                    verts.append({"component": c, "coords": coords,
                                  "negative_simple": rs.is_negative(rid), "color": color})
        return verts


def finite_infos(G: CoxeterDiagram, m: int) -> list[TypeInfo]:
    """The irreducible components of G, admitted at m: ``NotFiniteType``
    unless G is of finite type, and a negative m refused
    (``check_color_count``)."""
    cls = classify(G)
    if not cls.is_finite:
        raise NotFiniteType(f"{G.to_spec()} is not of finite type")
    check_color_count(m)
    return cls.infos


def build_complex(G: CoxeterDiagram, m: int) -> CliqueComplex:
    """Complex of the (possibly reducible) finite-type diagram G, within
    the budget."""
    check_budget(finite_infos(G, m), m)
    systems = [RootSystem(c) for c in connected_components(G)]
    return CliqueComplex(systems, m)


def parabolic_survey(cx: CliqueComplex) -> CliqueSurvey:
    """``clique_survey(cx.adj, cx.n, negative simples)`` for m >= 1, by
    parabolic recursion.

    For a connected set K of simple indices of one component, the
    vertices of K are the colored roots whose support lies in K.  They
    induce the complex of the parabolic subsystem on K, whose colored
    rotation under the inherited bipartition is written by
    ``CliqueComplex.write_turn`` from ``RootSystem.rotation_within`` (one
    list pass per simple reflection of K), and checked exactly as an
    automorphism of the graph they induce, once per K.  A state is K
    with some of its negative simples marked, a mask of simple indices
    that, shifted to the component's start, marks their positions; it is
    surveyed by ``orbit_frame`` under K's rotation, every orbit of which
    holds a negative simple.  The link of -alpha_j in K holds the
    vertices of the components of K minus j, and is the join of the
    complexes they induce: each part is surveyed as the state with the
    marks below j, and ``join_survey`` combines them.  A link that is not exactly that
    join (``is_join``) or has an impure part, and the link of a vertex
    that is not a negative simple, is surveyed whole by
    ``clique_survey``, in place; so is a link in a K of rank 2, an A1 at
    facet size 1.  A singleton K, a part of a join, is an A1 too, and
    ``orbit_frame`` surveys it by ``clique_survey``.  The whole complex
    is the join of its components, each the state of all its indices,
    all marked, or else, where ``cx.adj`` is not that join, is surveyed
    whole by ``clique_survey``.  K and the states are memoized within the
    call only; every count is still read from ``cx.adj``.
    """
    adj = cx.adj
    # every color below the last steps to the next position
    stepped = list(range(1, len(adj) + 1))
    shapes: dict[tuple[int, int], tuple[int, list[int]]] = {}
    memo: dict[tuple[int, int, int], CliqueSurvey] = {}

    def shape(c: int, K: int) -> tuple[int, list[int]]:
        """The vertex mask of K and K's colored rotation on it, checked,
        as a list read only at that mask."""
        got = shapes.get((c, K))
        if got is None:
            turn = list(stepped)
            vmask = cx.write_turn(turn, c, *cx.systems[c].rotation_within(K))
            check_automorphism(adj, turn, vmask)
            got = shapes[c, K] = (vmask, turn)
        return got

    def join(whole: int, states: list[tuple[int, int, int]]) -> CliqueSurvey | None:
        """The survey of the graph on the vertex mask ``whole`` as the
        join of the states' vertex sets, or None where it is not exactly
        that join or a part is impure."""
        masks = [shape(c, K)[0] for c, K, _ in states]
        if sum(masks) != whole or not is_join(adj, masks):
            return None
        parts = [survey(*state) for state in states]
        return join_survey(parts) if all(part.pure for part in parts) else None

    def survey(c: int, K: int, marks: int) -> CliqueSurvey:
        got = memo.get((c, K, marks))
        if got is not None:
            return got
        rs, start = cx.systems[c], cx.starts[c]
        vmask, turn = shape(c, K)
        top = K.bit_count()

        def link_survey(i: int, below: int) -> CliqueSurvey:
            j = i - start  # the root id of a negative simple
            link = adj[i] & vmask
            if j < rs.n and top > 2:
                under = marks & ((1 << j) - 1)
                parts = mask_components(K & ~(1 << j), rs.neighbor_masks)
                got = join(link, [(c, P, under & P) for P in parts])
                if got is not None:
                    return got
            return clique_survey(adj, top - 1, below, link)

        got = memo[c, K, marks] = orbit_frame(adj, vmask, top, marks << start, turn, link_survey)
        return got

    whole = join((1 << len(adj)) - 1, [(c, (1 << rs.n) - 1, (1 << rs.n) - 1)
                                       for c, rs in enumerate(cx.systems)])
    if whole is not None:
        return whole
    return clique_survey(adj, cx.n, cx.negative_mask())


def link_decomposition_check(cx: CliqueComplex, i: int) -> bool:
    """Rotate vertex i to a negative simple and compare its link there
    with the join of the complexes of the remaining vertices' diagram.

    Checks both the vertex set of the link (roots avoiding the removed
    vertex) and edge-by-edge agreement of compatibility with the
    parabolic complex built from scratch, whose vertices are matched to
    the parent's by position.
    """
    negative = cx.negative_mask()
    cur = i
    for _ in range(cx.num_vertices()):  # an orbit has at most that many vertices
        if negative >> cur & 1:
            break
        cur = cx.rotate_vertex(cur)
    else:
        raise RuntimeError("rotation never reached a negative simple")

    c = bisect_right(cx.starts, cur) - 1
    lo, hi, j = cx.starts[c], cx.starts[c + 1], cur - cx.starts[c]
    rs = cx.systems[c]
    link = set(cx.link_vertices(cur))
    expected = set(range(lo)) | set(range(hi, cx.num_vertices()))
    expected |= {cx.position(c, rid, k) for rid in range(rs.size)
                 if rid != j and not rs.support_masks[rid] >> j & 1
                 for k in range(1, (1 if rs.is_negative(rid) else cx.m) + 1)}
    if link != expected:
        return False

    # parabolic complex on the remaining vertices of this component
    removed_vertex = rs.diagram.vertices[j]
    embs = rs.parabolic_embeddings([u for u in rs.diagram.vertices if u != removed_vertex])
    sub = CliqueComplex([crs for crs, _ in embs], cx.m)

    # identify sub vertices with parent vertices via the embeddings
    ident: dict[int, int] = {}
    for ci, (crs, emb) in enumerate(embs):
        for sub_rid, parent_rid in emb.items():
            for k in range(1, (cx.m if sub_rid >= crs.n else 1) + 1):
                ident[sub.position(ci, sub_rid, k)] = cx.position(c, parent_rid, k)
    if set(ident.values()) != {g for g in link if lo <= g < hi}:
        return False
    for a in ident:
        for b in ident:
            if a >= b:
                continue
            sub_edge = bool(sub.adj[a] >> b & 1)
            par_edge = bool(cx.adj[ident[a]] >> ident[b] & 1)
            if sub_edge != par_edge:
                return False
    return True
