"""Coxeter diagrams: parsing, the named types, induced subdiagrams,
canonical keys, the subset lattice, bipartition, classification and the
data of the finite types.

A diagram is a loopless undirected graph with integer edge labels >= 3;
every absent pair implicitly carries label 2.  Vertices are integers in
declaration order, and induced subdiagrams keep their parent's ids so
that vertex subsets work as memoization keys.  The recursions over
induced subdiagrams run on the class table of a ``SubsetLattice``
instead and build no diagram objects: one ascending sweep over the
vertex masks, when the lattice is built, finds each mask's components
from those of the mask without its lowest vertex and keys each mask by
the isomorphism class of its subdiagram, so the recursions take one
step per class, not per mask, and the lattice counts the submasks of a
class by class.

The constructors ``_named`` and ``_named_affine`` are the one
description of each finite and affine type.  Classification is
membership in the catalog they draw: one classifier reads the adjacency
of a connected diagram, for ``classify`` and the lattice masks alike,
and names a tree by its AHU name (``_tree_key``, an int from the one
table the catalogs and the lattice keys share); the affine cycles ~A
are the one shape checked directly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
import re

from .tables import exponent_levels


class InputError(ValueError):
    """An input the program rejects: a bad spec, parameter or budget.
    The CLI reports it as exit 1; any other ``ValueError`` is a bug."""


class DiagramError(InputError):
    pass


class OddCycle(DiagramError):
    """The label>=3 skeleton is not bipartite."""


class CoxeterDiagram:
    """Immutable labeled graph. ``labels`` maps sorted pairs to m_ij >= 3."""

    __slots__ = ("vertices", "labels", "_adj", "_nbr")

    def __init__(self, vertices, labels):
        vs = tuple(vertices)
        index = {v: k for k, v in enumerate(vs)}
        if len(index) != len(vs):
            raise DiagramError("duplicate vertex ids")
        norm: dict[tuple[int, int], int] = {}
        for (i, j), lab in dict(labels).items():
            if i == j:
                raise DiagramError(f"self-loop at vertex {i}")
            if i not in index or j not in index:
                raise DiagramError(f"edge {{{i},{j}}} uses unknown vertex")
            if not isinstance(lab, int):
                raise DiagramError(f"label {lab!r} is not an integer")
            if lab < 2:
                raise DiagramError(f"label {lab} < 2 on edge {{{i},{j}}}")
            key = (min(i, j), max(i, j))
            if key in norm and norm[key] != lab:
                raise DiagramError(f"conflicting labels on edge {{{i},{j}}}")
            if lab >= 3:
                norm[key] = lab
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "labels", norm)
        adj: dict[int, dict[int, int]] = {v: {} for v in vs}
        for (i, j), lab in norm.items():
            adj[i][j] = lab
            adj[j][i] = lab
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_nbr", None)

    def __setattr__(self, *a):
        raise AttributeError("CoxeterDiagram is immutable")

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @property
    def nbr(self) -> tuple[int, ...]:
        """The neighbour mask of each vertex, by its index: bit i stands
        for ``vertices[i]``.  Built when first read, since a diagram of
        rank n takes up to n^2/2 bits of them."""
        if self._nbr is None:
            index = {v: k for k, v in enumerate(self.vertices)}
            nbr = [0] * len(index)
            for i, j in self.labels:
                nbr[index[i]] |= 1 << index[j]
                nbr[index[j]] |= 1 << index[i]
            object.__setattr__(self, "_nbr", tuple(nbr))
        return self._nbr

    def label(self, i: int, j: int) -> int:
        if i == j:
            raise DiagramError("no label between a vertex and itself")
        return self.labels.get((min(i, j), max(i, j)), 2)

    def neighbors(self, v: int) -> dict[int, int]:
        """Vertices joined to v by an edge of label >= 3."""
        return self._adj[v]

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, lab) for (i, j), lab in self.labels.items())

    def __eq__(self, other):
        return (
            isinstance(other, CoxeterDiagram)
            and self.vertices == other.vertices
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.labels.items()))))

    def __repr__(self):
        return f"CoxeterDiagram({self.to_spec()!r})"

    def to_spec(self) -> str:
        """Canonical ``n=...; i-j:l`` form, vertices renumbered 1..n."""
        index = {v: k + 1 for k, v in enumerate(sorted(self.vertices))}
        parts = [f"n={self.rank};"]
        edges = sorted(
            (index[i], index[j], lab) for (i, j), lab in self.labels.items()
        )
        parts.extend(f"{i}-{j}:{lab}" for i, j, lab in edges)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# construction of named diagrams


def _path(n: int, labels: list[int]) -> CoxeterDiagram:
    return CoxeterDiagram(
        range(1, n + 1), {(i, i + 1): labels[i - 1] for i in range(1, n)}
    )


def _named(kind: str, n: int, a: int | None = None) -> CoxeterDiagram:
    if kind == "A":
        if n < 1:
            raise DiagramError("A_n needs n >= 1")
        return _path(n, [3] * (n - 1))
    if kind == "B":
        if n < 2:
            raise DiagramError("B_n needs n >= 2")
        return _path(n, [3] * (n - 2) + [4])
    if kind == "D":
        if n < 3:
            raise DiagramError("D_n needs n >= 3")
        labels = {(i, i + 1): 3 for i in range(1, n - 1)}
        labels[(n - 2, n)] = 3
        return CoxeterDiagram(range(1, n + 1), labels)
    if kind == "E":
        # Bourbaki: path 1-3-4-...-n with vertex 2 hanging off vertex 4
        if n not in (6, 7, 8):
            raise DiagramError("E_n exists for n in {6,7,8}")
        labels = {(1, 3): 3, (2, 4): 3}
        labels.update({(i, i + 1): 3 for i in range(3, n)})
        return CoxeterDiagram(range(1, n + 1), labels)
    if kind == "F":
        if n != 4:
            raise DiagramError("F_n exists for n = 4")
        return _path(4, [3, 4, 3])
    if kind == "G":
        if n != 2:
            raise DiagramError("G_n exists for n = 2")
        return _path(2, [6])
    if kind == "H":
        if n not in (2, 3, 4):
            raise DiagramError("H_n exists for n in {2,3,4}")
        return _path(n, [5] + [3] * (n - 2))
    if kind == "I":
        if a is None or a < 2:
            raise DiagramError("I2(a) needs an integer a >= 2")
        return CoxeterDiagram([1, 2], {(1, 2): a} if a >= 3 else {})
    raise DiagramError(f"unknown family {kind!r}")


def _named_affine(kind: str, n: int) -> CoxeterDiagram:
    if kind == "A":
        if n < 2:
            raise DiagramError("~A_n supported for n >= 2 (integer labels only)")
        labels = {(i, i + 1): 3 for i in range(1, n + 1)}
        labels[(1, n + 1)] = 3
        return CoxeterDiagram(range(1, n + 2), labels)
    if kind == "B":
        if n == 2:
            return _named_affine("C", 2)
        if n < 3:
            raise DiagramError("~B_n needs n >= 2")
        labels = {(1, 3): 3, (2, 3): 3}
        labels.update({(i, i + 1): 3 for i in range(3, n)})
        labels[(n, n + 1)] = 4
        return CoxeterDiagram(range(1, n + 2), labels)
    if kind == "C":
        if n < 2:
            raise DiagramError("~C_n needs n >= 2")
        return _path(n + 1, [4] + [3] * (n - 2) + [4])
    if kind == "D":
        if n < 4:
            raise DiagramError("~D_n needs n >= 4")
        labels = {(1, 3): 3, (2, 3): 3, (n - 1, n): 3, (n - 1, n + 1): 3}
        labels.update({(i, i + 1): 3 for i in range(3, n - 1)})
        return CoxeterDiagram(range(1, n + 2), labels)
    if kind == "E":
        arms = {6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}
        if n not in arms:
            raise DiagramError("~E_n exists for n in {6,7,8}")
        return _tripod(*arms[n])
    if kind == "F":
        if n != 4:
            raise DiagramError("~F_n exists for n = 4")
        return _path(5, [3, 3, 4, 3])
    if kind == "G":
        if n != 2:
            raise DiagramError("~G_n exists for n = 2")
        return _path(3, [6, 3])
    raise DiagramError(f"unknown affine family {kind!r}")


def _tripod(p: int, q: int, r: int) -> CoxeterDiagram:
    """Tree with three simply-laced arms of p, q, r edges from a hub."""
    n = p + q + r + 1
    labels = {}
    hub = 1
    v = 1
    for arm in (p, q, r):
        prev = hub
        for _ in range(arm):
            v += 1
            labels[(min(prev, v), max(prev, v))] = 3
            prev = v
    return CoxeterDiagram(range(1, n + 1), labels)


_NAMED_RE = re.compile(r"^(~?)([A-IH])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+)\)$")


def parse_diagram(text: str) -> CoxeterDiagram:
    """Parse a named type (``B3``, ``I2(7)``, ``~A3``) or an explicit
    ``n=<k>; i-j:label ...`` edge list."""
    s = text.strip()
    if not s:
        raise DiagramError("empty diagram spec")
    if "inf" in s.lower() or "∞" in s:
        raise DiagramError("infinite labels are not supported")
    m = _I2_RE.match(s)
    if m:
        return _named("I", 2, int(m.group(1)))
    m = _NAMED_RE.match(s)
    if m:
        affine, kind, num = m.group(1) == "~", m.group(2), int(m.group(3))
        if affine:
            return _named_affine(kind, num)
        if kind == "C":
            kind = "B"  # Remark: the B_n and C_n complexes are isomorphic
        return _named(kind, num)
    if "=" not in s:
        raise DiagramError(f"unrecognized diagram spec {text!r}")
    head, _, tail = s.partition(";")
    head = head.strip()
    if not head.startswith("n="):
        raise DiagramError("explicit spec must start with n=<count>")
    try:
        n = int(head[2:])
    except ValueError as e:
        raise DiagramError(f"bad vertex count in {head!r}") from e
    if n < 0:
        raise DiagramError("vertex count must be >= 0")
    labels: dict[tuple[int, int], int] = {}
    for tok in tail.split():
        em = re.match(r"^(\d+)-(\d+):(-?\d+)$", tok)
        if not em:
            raise DiagramError(f"bad edge token {tok!r}")
        i, j, lab = int(em.group(1)), int(em.group(2)), int(em.group(3))
        if not (1 <= i <= n and 1 <= j <= n):
            raise DiagramError(f"vertex index out of range in {tok!r}")
        if i == j:
            raise DiagramError(f"self-loop in {tok!r}")
        if lab < 2:
            raise DiagramError(f"label {lab} < 2 in {tok!r}")
        key = (min(i, j), max(i, j))
        if key in labels and labels[key] != lab:
            raise DiagramError(f"conflicting labels for edge {key}")
        labels[key] = lab
    return CoxeterDiagram(range(1, n + 1), labels)


# ---------------------------------------------------------------------------
# subdiagrams


def induced_subdiagram(G: CoxeterDiagram, S) -> CoxeterDiagram:
    S = set(S)
    unknown = S - set(G.vertices)
    if unknown:
        raise DiagramError(f"unknown vertex ids {sorted(unknown)}")
    verts = tuple(v for v in G.vertices if v in S)
    labels = {
        (i, j): lab for (i, j), lab in G.labels.items() if i in S and j in S
    }
    return CoxeterDiagram(verts, labels)


def _components(G: CoxeterDiagram) -> tuple[dict[int, int], list[list[int]]]:
    """One breadth-first search of the label>=3 skeleton, in one pass over
    the vertices: each vertex's component number, and the vertices of each
    component in the parent's order, the components in the order of their
    first vertices.  Linear in the diagram: no neighbour masks are built."""
    comp: dict[int, int] = {}
    verts: list[list[int]] = []
    for v in G.vertices:
        if v not in comp:
            comp[v] = len(verts)
            queue = [v]
            for u in queue:
                for w in G._adj[u]:
                    if w not in comp:
                        comp[w] = len(verts)
                        queue.append(w)
            verts.append([])
        verts[comp[v]].append(v)
    return comp, verts


def is_connected(G: CoxeterDiagram) -> bool:
    """One component, without building it; the empty diagram has none."""
    return len(_components(G)[1]) == 1


def connected_components(G: CoxeterDiagram) -> list[CoxeterDiagram]:
    """Components of the label>=3 skeleton, each keeping parent ids and
    the parent's order of vertices and labels, in the order of their
    first vertices.  One search finds the components; one pass over the
    labels shares them out."""
    comp, verts = _components(G)
    labels: list[dict[tuple[int, int], int]] = [{} for _ in verts]
    for (i, j), lab in G.labels.items():
        labels[comp[i]][i, j] = lab
    return [CoxeterDiagram(vs, labs) for vs, labs in zip(verts, labels)]


# ---------------------------------------------------------------------------
# canonical keys: equal exactly when the labelled diagrams are isomorphic


# AHU names: the sorted (label, child name) pairs of the root of each rooted
# tree met so far -> a small int; one table for the catalogs and every lattice.
_NAMES: dict[tuple[tuple[int, int], ...], int] = {}


def _name(pairs: list[tuple[int, int]]) -> int:
    """The name of the rooted tree whose root has these (label, child name)
    pairs: equal exactly for rooted trees isomorphic with their labels."""
    key = tuple(sorted(pairs))
    return _NAMES.setdefault(key, len(_NAMES))


def _tree_key(adj: dict[int, dict[int, int]]) -> int:
    """Exact isomorphism-invariant key of a connected diagram whose
    skeleton is a tree, given as its adjacency: each vertex maps to its
    neighbours and their labels.  The key is the AHU name (Aho, Hopcroft
    & Ullman 1974) of the tree rooted at its centre.

    Leaves are stripped layer by layer until one or two centres remain;
    each stripped vertex is named from its (label, child name) pairs, at
    a cost of O(children), and hands (label, name) to its one neighbour
    left.  With two centres the key is the lesser name rooted at either.
    Keys are equal exactly for trees isomorphic with their labels.
    """
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    below: dict[int, list[tuple[int, int]]] = {v: [] for v in adj}
    layer = [v for v, d in degree.items() if d == 1]
    while len(below) > 2:
        nxt = []
        for v in layer:
            name = _name(below.pop(v))
            for w, lab in adj[v].items():
                if w in below:
                    below[w].append((lab, name))
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    if len(below) == 1:
        return _name(*below.values())
    (a, pa), (b, pb) = below.items()
    lab = adj[a][b]
    return min(_name(pa + [(lab, _name(pb))]), _name(pb + [(lab, _name(pa))]))


def _ring_key(adj: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """Exact isomorphism-invariant key of a connected diagram whose every
    vertex has two neighbours, given as its adjacency: a cycle.  Its
    edge labels read around the cycle form a sequence, and two labelled
    cycles are isomorphic exactly when their sequences agree up to
    rotation and reflection; the key is the least of the 2n sequences."""
    start = prev = next(iter(adj))
    v, lab = next(iter(adj[start].items()))
    seq = [lab]
    while v != start:
        (a, la), (b, lb) = adj[v].items()
        prev, v, lab = (v, b, lb) if a == prev else (v, a, la)
        seq.append(lab)
    n = len(seq)
    return min(tuple(d[i:i + n]) for d in (seq * 2, seq[::-1] * 2) for i in range(n))


def _refine(nbrs: list[list[tuple[int, int]]], colour: list[int]) -> list[int]:
    """Label-aware colour refinement to the coarsest stable colouring
    below ``colour``.

    A round gives each vertex the signature (its colour, the sorted
    (label, colour) pairs of its neighbours) and recolours by the rank
    of the signature among all of them.  A signature starts with the old
    colour, so cells split in place and keep their order; colours are
    ranks of values, never of vertex numbers, so the result is
    equivariant: relabelling the vertices relabels the colouring.
    """
    count = len(set(colour))
    while True:
        sigs = [
            (colour[v], tuple(sorted((lab, colour[w]) for w, lab in pairs)))
            for v, pairs in enumerate(nbrs)
        ]
        rank = {sig: k for k, sig in enumerate(sorted(set(sigs)))}
        colour = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colour
        count = len(rank)


def _certificate(rows: list[list[int]], order: list[int]) -> tuple[int, ...]:
    """The label matrix above the diagonal, vertices in ``order``: the
    certificate of a search leaf."""
    return tuple(rows[a][b] for i, a in enumerate(order) for b in order[i + 1:])


def _twin_classes(rows: list[list[int]]) -> list[int]:
    """A class number per vertex: u and v share one when they carry the
    same label to every other vertex.  Such twins carry one label l to
    each other, and their rows agree once both diagonals read l."""
    n = len(rows)
    twin = list(range(n))
    for lab in {x for row in rows for x in row}:
        first: dict[tuple[int, ...], int] = {}
        for v, row in enumerate(rows):
            rep = first.setdefault((*row[:v], lab, *row[v + 1:]), v)
            if rep != v:
                twin[v] = twin[rep]
    return twin


def _graph_key(adj: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """Exact isomorphism-invariant key of a diagram, given as its
    adjacency; used for the connected ones whose skeleton has a cycle.

    Refinement plus individualisation (McKay & Piperno, "Practical graph
    isomorphism II", 2014): refine to a stable colouring.  While a cell
    holds more than one twin class (``_twin_classes``), take the first
    such cell and branch once per twin class in it: the class's vertices
    get colours of their own, first in the cell, and the colouring is
    refined again.  A leaf is a colouring whose every cell is one twin
    class; its ``_certificate`` takes the vertices by colour, twins in
    any order, and the key is the least certificate over the leaves.

    Twins are exchanged by automorphisms that fix every other vertex,
    and refinement never separates them, so the order chosen inside a
    twin class changes no certificate, and giving a class's vertices
    colours of their own splits no other cell.  Hence the leaves of two
    isomorphic diagrams correspond with equal certificates, and the
    least ones agree; equal certificates are one labelled diagram, so
    the key is exact.  Complete and complete bipartite diagrams take one
    or two leaves instead of a factorial number.
    """
    pos = {v: i for i, v in enumerate(adj)}
    n = len(pos)
    nbrs = [[(pos[w], lab) for w, lab in adj[v].items()] for v in adj]
    rows = [[2] * n for _ in range(n)]
    for v, pairs in enumerate(nbrs):
        for w, lab in pairs:
            rows[v][w] = lab
    twin = _twin_classes(rows)
    best = None
    stack = [_refine(nbrs, [0] * n)]
    while stack:
        colour = stack.pop()
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        split = [vs for vs in cells.values() if len({twin[v] for v in vs}) > 1]
        if not split:
            cert = _certificate(rows, sorted(range(n), key=colour.__getitem__))
            if best is None or cert < best:
                best = cert
            continue
        branches: dict[int, list[int]] = {}
        for v in min(split, key=lambda vs: colour[vs[0]]):
            branches.setdefault(twin[v], []).append(v)
        for group in branches.values():
            # the group's vertices first in their cell, in any order
            place = {v: k for k, v in enumerate(group)}
            keys = [(c, place.get(v, n)) for v, c in enumerate(colour)]
            rank = {k: r for r, k in enumerate(sorted(set(keys)))}
            stack.append(_refine(nbrs, [rank[k] for k in keys]))
    return best


# ---------------------------------------------------------------------------
# the subset lattice and bipartition


def _bits(mask: int) -> list[int]:
    """The vertices of ``mask`` in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def mask_components(mask: int, nbr: Sequence[int]) -> tuple[int, ...]:
    """The connected components of the vertex mask ``mask`` in the graph
    with neighbour masks ``nbr``, as masks, in the order of their lowest
    vertex."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        mask &= ~comp
    return tuple(out)


class SubsetLattice:
    """The induced subdiagrams of one diagram as int masks, and the class
    table of their isomorphism classes.

    Bit i stands for ``G.vertices[i]``, as in ``G.nbr``, which the
    lattice reads as ``nbr``, so masks compare in the order of the
    vertex lists of the subdiagrams they name.

    One ascending sweep over the masks, when the lattice is built, keys
    every mask (``_sweep``); ``key(mask)`` reads its class, a small int.
    Two masks of one lattice share a class exactly when their induced
    subdiagrams are isomorphic with their labels.  Per class the table
    holds its least mask (``least``), which stands for the class in any
    function of the subdiagram alone, and its rank (``ranks``); a
    connected class its codim-1 child classes (``children``, the
    classes of its least mask with one vertex removed, lowest first); a
    disconnected class its split (``split``): the class of its component
    of least class and the class of the rest.  ``connected`` lists the
    connected classes by rank, then least mask.  The invariant
    recursions run on class ids and keep their memos in lists indexed
    by class, so each runs once per class, not once per vertex subset.
    ``census(cls)`` counts the proper submasks of a class by class, so a
    sum over every submask takes one term per class.  ``fpolys`` is the
    face-polynomial store of ``formulas.face_polys``, shared by every
    caller of the lattice and keyed by class as well.
    """

    __slots__ = ("diagram", "rank", "full", "nbr", "_labels", "_class", "_low",
                 "least", "ranks", "children", "split", "connected", "_census", "fpolys")

    def __init__(self, G: CoxeterDiagram):
        self.diagram = G
        self.rank = G.rank
        self.full = (1 << G.rank) - 1
        self.nbr = G.nbr
        bit = {v: 1 << i for i, v in enumerate(G.vertices)}
        self._labels = {bit[i] | bit[j]: lab for (i, j), lab in G.labels.items()}
        self._sweep()
        self._census: list[tuple[tuple[int, int], ...] | None] = [None] * len(self.least)
        self.fpolys: dict = {}

    def _sweep(self) -> None:
        """Build the class table: one pass over the masks, ascending.

        The components of a mask m are those of m without its lowest
        vertex v, with the ones that touch v merged with v; ``_low`` keeps
        the component of each mask's lowest vertex, so the components of
        any mask are a chain of reads.  A disconnected mask is keyed by
        the sorted classes of its components; a connected tree by
        ``_tree_key``, a connected mask whose every vertex has two
        neighbours, a ring, by ``_ring_key``, and any other connected
        mask by ``_graph_key``: each connected mask's canonical form is
        built once.  A form is numbered the first time the sweep meets
        it, at the least mask of its class.
        """
        nbr, size = self.nbr, self.full + 1
        low = self._low = [0] * size
        classes = self._class = [0] * size
        forms: dict[tuple, int] = {(): 0}  # canonical form -> class; () is the empty mask's
        parts: list[tuple[int, ...]] = [()]  # the sorted component classes of each class
        least, ranks, children, split = [0], [0], [None], [None]
        for m in range(1, size):
            v = m & -m
            comp, rest = v, m ^ v
            touch = nbr[v.bit_length() - 1] & rest
            while touch:
                c = low[rest]
                if c & touch:
                    comp |= c
                    touch &= ~c
                rest ^= c
            low[m] = comp
            if comp == m:
                adj = self._adjacency(m)
                degrees = [len(nbrs) for nbrs in adj.values()]
                if sum(degrees) == 2 * (len(adj) - 1):
                    form = ("tree", _tree_key(adj))
                elif degrees.count(2) == len(degrees):
                    form = ("ring", _ring_key(adj))
                else:
                    form = ("cycle", _graph_key(adj))
            else:
                form = tuple(sorted((*parts[classes[m ^ comp]], classes[comp])))
            cls = forms.get(form)
            if cls is None:
                cls = forms[form] = len(least)
                least.append(m)
                ranks.append(m.bit_count())
                if comp == m:
                    parts.append((cls,))
                    children.append(tuple(classes[sub] for sub in self.codim1(m)))
                    split.append(None)
                else:
                    parts.append(form)
                    first = min(self.components(m), key=classes.__getitem__)
                    children.append(None)
                    split.append((classes[first], classes[m ^ first]))
            classes[m] = cls
        self.least, self.ranks, self.children, self.split = least, ranks, children, split
        # classes are numbered in the order of their least masks
        self.connected = tuple(sorted((cls for cls, kids in enumerate(children) if kids is not None),
                                      key=ranks.__getitem__))

    def vertices(self, mask: int) -> list[int]:
        return [v for i, v in enumerate(self.diagram.vertices) if mask >> i & 1]

    def label(self, pair_mask: int) -> int:
        """Label of the pair of vertices whose two bits are set."""
        return self._labels.get(pair_mask, 2)

    def key(self, mask: int) -> int:
        """The class of the subdiagram of mask."""
        return self._class[mask]

    def components(self, mask: int) -> tuple[int, ...]:
        """Component masks of the label>=3 skeleton, lowest bit first."""
        out = []
        while mask:
            comp = self._low[mask]
            out.append(comp)
            mask ^= comp
        return tuple(out)

    def census(self, cls: int) -> tuple[tuple[int, int], ...]:
        """The classes of the proper submasks of class cls: one pair (the
        class, how many submasks of a mask of cls fall in it) per class
        met.  A sum of a function of the subdiagram alone over the
        submasks takes one term per class, times its count.  Memoized
        per class: one walk over the submasks of the least mask serves
        every caller."""
        out = self._census[cls]
        if out is None:
            counts = Counter(map(self._class.__getitem__, self.submasks(self.least[cls])))
            del counts[cls]  # the mask itself, the one submask of its rank
            out = self._census[cls] = tuple(counts.items())
        return out

    def _adjacency(self, mask: int) -> dict[int, dict[int, int]]:
        """Each bit of mask: its neighbours in mask, with their labels."""
        adj = {}
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1] = {}
            others = self.nbr[low.bit_length() - 1] & mask
            while others:
                b = others & -others
                others ^= b
                nbrs[b.bit_length() - 1] = self._labels[low | b]
        return adj

    def codim1(self, mask: int) -> list[int]:
        """The masks with one vertex removed, lowest removed bit first."""
        return [mask ^ 1 << k for k in _bits(mask)]

    def submasks(self, mask: int):
        """Every subset of mask, ascending, from 0 to mask itself."""
        sub = 0
        while True:
            yield sub
            if sub == mask:
                return
            sub = (sub - mask) & mask


@lru_cache(maxsize=1)
def subset_lattice(G: CoxeterDiagram) -> SubsetLattice:
    """The lattice of G, kept while G is the diagram last asked for, so
    the invariant methods of one report share its memos."""
    return SubsetLattice(G)


def bipartition(G: CoxeterDiagram) -> tuple[frozenset[int], frozenset[int]]:
    """Deterministic 2-coloring of the skeleton: the smallest vertex id of
    each component lands in the plus class; BFS extends the coloring."""
    color: dict[int, int] = {}
    for start in sorted(G.vertices):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in G.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise OddCycle(f"odd cycle through vertex {w}")
    plus = frozenset(v for v, c in color.items() if c == 0)
    minus = frozenset(v for v, c in color.items() if c == 1)
    return plus, minus


# ---------------------------------------------------------------------------
# classification against the finite / affine catalogs


class TypeInfo:
    """Resolved data for one finite irreducible type, read from its
    exponent levels: the exponents are their first entries and h is the
    largest exponent plus one."""

    def __init__(self, family: str, n: int, a: int | None = None):
        self.family = family
        self.n = n
        self.a = a
        self.levels = exponent_levels(family, n, a)
        self.exponents = sorted(e for e, _ in self.levels)
        self.h = self.exponents[-1] + 1

    @staticmethod
    def of(name_or_diagram) -> "TypeInfo":
        """The type of a diagram, or of a name that ``parse_diagram`` reads."""
        G = name_or_diagram
        if isinstance(G, TypeInfo):
            return G
        cls = classify(G if isinstance(G, CoxeterDiagram) else parse_diagram(str(G)))
        if cls.info is None:
            raise ValueError(f"not finite irreducible: {cls.type_name or cls.kind}")
        return cls.info


@dataclass(frozen=True)
class Classification:
    kind: str  # "finite" | "finite-reducible" | "affine" | "other-infinite"
    type_name: str | None = None
    rank: int = 0
    exponents: tuple[int | Fraction, ...] | None = None
    coxeter_number: Fraction | None = None
    minus_one_longest: bool | None = None
    components: tuple["Classification", ...] = ()
    info: TypeInfo | None = field(default=None, compare=False, repr=False)

    @property
    def is_finite(self) -> bool:
        return self.kind in ("finite", "finite-reducible")

    @property
    def infos(self) -> list[TypeInfo]:
        """The types of the finite irreducible components; none for the
        empty diagram."""
        return [p.info for p in self.components or (self,) if p.info is not None]


def _finite(family: str, n: int, a: int | None = None) -> Classification:
    """A finite irreducible type; -1 lies in W iff every exponent is odd."""
    info = TypeInfo(family, n, a)
    if family == "I2":
        name = {3: "A2", 4: "B2", 6: "G2"}.get(a, f"I2({a})")
    else:
        name = family if family[-1].isdigit() else f"{family}{n}"
    exps = tuple(info.exponents)
    return Classification(
        "finite", name, n, exps, Fraction(info.h), all(e % 2 for e in exps), info=info
    )


@lru_cache(maxsize=None)
def _catalog(n: int) -> dict[int, Classification]:
    """The finite and affine types of rank n >= 3 whose diagram is a
    tree, keyed by ``_tree_key`` of the diagram their constructor draws.

    Membership here is what it means to be of a named type.  The
    constructors decide which types exist at rank n; where two draw the
    same tree, the first name in family order A C B D E F G H wins, so
    D3 reads as A3 and ~B2 as ~C2.  ~A is the cycle and has no key.
    """
    table: dict[int, Classification] = {}
    for letter in "ACBDEFGH":
        for affine in (False, True):
            try:
                G = _named_affine(letter, n - 1) if affine else _named(letter, n)
            except DiagramError:
                continue
            if len(G.labels) != n - 1:
                continue
            if affine:
                cls = Classification("affine", f"~{letter}{n - 1}", n)
            else:  # level data: A, B, D by letter, the others by full name
                cls = _finite(letter if letter in "ABD" else f"{letter}{n}", n)
            table.setdefault(_tree_key(G._adj), cls)
    return table


def _classify_connected(adj: dict[int, dict[int, int]]) -> Classification:
    """The class of a connected diagram given as its adjacency, as
    ``CoxeterDiagram._adj`` and ``SubsetLattice._adjacency`` give it."""
    n = len(adj)
    if n == 0:
        return Classification("finite", "empty", 0, (), Fraction(0), True)
    if n == 1:
        return _finite("A", 1)
    if n == 2:
        (lab,) = next(iter(adj.values())).values()
        return _finite("I2", 2, lab)
    if sum(map(len, adj.values())) >= 2 * n:  # the skeleton has a cycle
        plain_cycle = all(len(nbrs) == 2 for nbrs in adj.values())
        if plain_cycle and all(lab == 3 for nbrs in adj.values() for lab in nbrs.values()):
            return Classification("affine", f"~A{n - 1}", n)
        return Classification("other-infinite", None, n)
    named = _catalog(n).get(_tree_key(adj))
    return named if named is not None else Classification("other-infinite", None, n)


def classify(G: CoxeterDiagram) -> Classification:
    """The class of G; each component is classified from ``G._adj``
    restricted to its vertices, and no component diagram is built."""
    comps = _components(G)[1]
    if len(comps) <= 1:
        return _classify_connected(G._adj)
    parts = tuple(_classify_connected({v: G._adj[v] for v in vs}) for vs in comps)
    if all(p.kind == "finite" for p in parts):
        # larger rank first, then by name: the vertex order must not matter
        parts = tuple(sorted(parts, key=lambda p: (-p.rank, p.type_name or "?")))
        return Classification(
            "finite-reducible",
            "x".join(p.type_name or "?" for p in parts),
            G.rank,
            components=parts,
        )
    return Classification("other-infinite", None, G.rank, components=parts)
