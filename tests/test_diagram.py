from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccx import diagram
from ccx.diagram import (
    CoxeterDiagram,
    DiagramError,
    OddCycle,
    SubsetLattice,
    bipartition,
    classify,
    connected_components,
    induced_subdiagram,
    is_connected,
    parse_diagram,
)
from ccx.formulas import TypeInfo
import component_oracle

INTERLEAVED_SPEC = "n=7; 1-3:3 3-5:3 5-7:3 2-4:3 4-6:4"  # A4 on the odd ids, B3 on the even


def codim1_subdiagrams(G: CoxeterDiagram) -> list[tuple[int, CoxeterDiagram]]:
    """One entry per vertex: (removed vertex, remaining diagram)."""
    vs = set(G.vertices)
    return [(v, induced_subdiagram(G, vs - {v})) for v in G.vertices]


def test_parse_dihedral():
    G = parse_diagram("I2(7)")
    assert G.rank == 2
    assert G.edges() == [(1, 2, 7)]


def test_parse_explicit_triangle():
    G = parse_diagram("n=3; 1-2:3 2-3:3 1-3:3")
    assert G.rank == 3
    assert classify(G).type_name == "~A2"


def test_parse_h3():
    G = parse_diagram("H3")
    assert G.edges() == [(1, 2, 5), (2, 3, 3)]
    assert classify(G).coxeter_number == 10


def test_c_is_alias_of_b():
    assert parse_diagram("C4") == parse_diagram("B4")


@pytest.mark.parametrize(
    "bad",
    [
        "n=2; 1-2:1",
        "n=2; 1-3:3",
        "n=2; 1-2:3 1-2:4",
        "n=2; 1-1:3",
        "Q5",
        "n=x",
        "I2(inf)",
        "",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(DiagramError):
        parse_diagram(bad)


def test_explicit_label_two_is_missing_edge():
    G = parse_diagram("n=2; 1-2:2")
    assert G.label(1, 2) == 2
    assert G.edges() == []


def test_induced_subdiagram_nonadjacent():
    G = parse_diagram("A3")
    S = induced_subdiagram(G, {1, 3})
    assert S.rank == 2 and S.label(1, 3) == 2


def test_induced_subdiagram_b3():
    G = parse_diagram("B3")  # label 4 on {2,3}
    S = induced_subdiagram(G, {2, 3})
    assert S.label(2, 3) == 4


def test_induced_subdiagram_k4_triangle():
    K4 = parse_diagram("n=4;1-2:3 2-3:3 3-4:3 1-4:3 1-3:3 2-4:3")
    for _, sub in codim1_subdiagrams(K4):
        assert classify(sub).type_name == "~A2"


def test_induced_identity_and_empty():
    G = parse_diagram("D4")
    assert induced_subdiagram(G, G.vertices) == G
    assert induced_subdiagram(G, set()).rank == 0
    with pytest.raises(DiagramError):
        induced_subdiagram(G, {9})


def test_codim1_counts():
    G = parse_diagram("B3")
    subs = codim1_subdiagrams(G)
    assert len(subs) == 3
    assert all(d.rank == 2 for _, d in subs)
    kinds = sorted(classify(d).type_name for _, d in subs)
    assert kinds == ["A1xA1", "A2", "B2"]


def test_connected_components():
    assert len(connected_components(parse_diagram("n=2;"))) == 2
    assert len(connected_components(parse_diagram("D4"))) == 1
    assert connected_components(parse_diagram("n=0;")) == []


@pytest.mark.parametrize(
    "spec", ["n=0;", "A1", "n=2;", "D4", "n=3; 1-2:3", "n=5; 1-2:3 4-5:4 2-4:2", "~A5", INTERLEAVED_SPEC]
)
def test_is_connected_counts_the_components(spec):
    G = parse_diagram(spec)
    assert is_connected(G) == (len(connected_components(G)) == 1)


@st.composite
def interleaved_diagrams(draw):
    """Rank 0-9 with sparse edges labelled 3-6, vertex ids drawn from
    1..30 and declared unsorted, so components interleave by id and the
    vertex order is not the id order."""
    ids = draw(st.lists(st.integers(min_value=1, max_value=30), max_size=9, unique=True))
    pairs = draw(st.lists(st.sampled_from(list(combinations(ids, 2))), max_size=len(ids))
                 if len(ids) > 1 else st.just([]))
    return CoxeterDiagram(ids, {pair: draw(st.integers(min_value=3, max_value=6)) for pair in pairs})


@given(interleaved_diagrams())
@settings(max_examples=200, deadline=None)
@example(parse_diagram(INTERLEAVED_SPEC))
@example(CoxeterDiagram([9, 2, 7, 4], {(9, 7): 3, (2, 4): 4}))
def test_components_agree_with_the_mask_search_oracle(G):
    """The breadth-first search over ids and the mask search over
    ``G.nbr``, which goes by vertex order, not by id, find the same
    components, connectivity and classification."""
    want = component_oracle.components(G)
    got = connected_components(G)
    assert [(C.vertices, list(C.labels.items())) for C in got] == [
        (C.vertices, list(C.labels.items())) for C in want
    ]
    assert is_connected(G) == (len(want) == 1)
    assert classify(G) == component_oracle.classify(G)


def test_connected_components_reads_the_parent_once():
    """One search plus one pass over the vertices and one over the
    labels, whatever the number of components: every vertex of the
    parent is visited at most twice and every label once."""
    n = 2000
    G = parse_diagram(f"n={n}; " + " ".join(f"{i}-{i + 1}:{3 + i % 4}" for i in range(1, n, 2)))
    visits = {"vertices": 0, "labels": 0}

    class Vertices(tuple):
        def __iter__(self):
            visits["vertices"] += len(self)
            return super().__iter__()

    class Labels(dict):
        def items(self):
            visits["labels"] += len(self)
            return super().items()

    object.__setattr__(G, "vertices", Vertices(G.vertices))
    object.__setattr__(G, "labels", Labels(G.labels))
    comps = connected_components(G)
    assert [c.edges() for c in comps] == [[(i, i + 1, 3 + i % 4)] for i in range(1, n, 2)]
    assert visits["vertices"] <= 2 * n and visits["labels"] <= n // 2


def test_bipartition_path():
    assert bipartition(parse_diagram("A3")) == (frozenset({1, 3}), frozenset({2}))
    assert bipartition(parse_diagram("I2(5)")) == (frozenset({1}), frozenset({2}))


def test_bipartition_odd_cycle():
    with pytest.raises(OddCycle):
        bipartition(parse_diagram("~A2"))


def test_bipartition_classes_disconnected():
    for name in ["A5", "D5", "E6", "F4", "H4"]:
        G = parse_diagram(name)
        plus, minus = bipartition(G)
        for part in (plus, minus):
            assert all(
                G.label(i, j) == 2 for i in part for j in part if i < j
            )


def test_classify_h4():
    cls = classify(parse_diagram("H4"))
    assert cls.kind == "finite"
    assert cls.coxeter_number == 30
    assert cls.exponents == (1, 11, 19, 29)


def test_classify_e8():
    cls = classify(parse_diagram("E8"))
    assert cls.exponents == (1, 7, 11, 13, 17, 19, 23, 29)


def test_classify_labeled_four_cycle_infinite():
    cls = classify(parse_diagram("n=4;1-2:3 2-3:4 3-4:3 1-4:4"))
    assert cls.kind == "other-infinite"


@pytest.mark.parametrize(
    "name,h",
    [
        ("A1", 2),
        ("A6", 7),
        ("B5", 10),
        ("D6", 10),
        ("E6", 12),
        ("E7", 18),
        ("F4", 12),
        ("G2", 6),
        ("H3", 10),
        ("I2(9)", 9),
        ("A2", 3),
        ("B2", 4),
        ("B8", 16),
        ("D4", 6),
        ("D8", 14),
        ("E8", 30),
        ("H4", 30),
        ("I2(5)", 5),
        ("I2(12)", 12),
    ],
)
def test_classify_agrees_with_named_constructors(name, h):
    G = parse_diagram(name)
    cls = classify(G)
    assert cls.kind == "finite"
    assert cls.coxeter_number == h
    n = cls.rank
    assert len(cls.exponents) == n
    assert F(2, n) * sum(cls.exponents) == F(h)
    # catalog laws: e <-> h - e pairs the exponents, the levels carry the
    # same exponents, and -1 lies in W iff every exponent is odd
    assert sorted(h - e for e in cls.exponents) == list(cls.exponents)
    assert sorted(e for e, _ in TypeInfo.of(G).levels) == list(cls.exponents)
    assert cls.minus_one_longest == all(e % 2 for e in cls.exponents)


@pytest.mark.parametrize(
    "name", ["~A2", "~A5", "~B2", "~B3", "~B5", "~C2", "~C4", "~D4", "~D6", "~E6", "~E7", "~E8", "~F4", "~G2"]
)
def test_classify_affine_names(name):
    cls = classify(parse_diagram(name))
    assert cls.kind == "affine"
    canonical = "~C2" if name == "~B2" else name
    assert cls.type_name == canonical


def test_canonical_spec_roundtrip():
    for name in ["A4", "B3", "D5", "E6", "H4", "I2(7)", "~C3"]:
        G = parse_diagram(name)
        assert parse_diagram(G.to_spec()) == G


def test_subdiagrams_keep_parent_ids():
    G = parse_diagram("A4")
    sub = induced_subdiagram(G, {2, 3, 4})
    assert sub.vertices == (2, 3, 4)
    assert sub.label(3, 4) == 3


@st.composite
def shuffled_diagrams(draw):
    """Rank 0-8, every pair labelled 2-8 (2 drops the edge), vertex ids
    declared in a random order."""
    rank = draw(st.integers(min_value=0, max_value=8))
    ids = draw(st.permutations(range(1, rank + 1)))
    labels = st.integers(min_value=2, max_value=8)
    return CoxeterDiagram(ids, {pair: draw(labels) for pair in combinations(ids, 2)})


@given(shuffled_diagrams(), st.data())
@settings(max_examples=100, deadline=None)
def test_subset_lattice_matches_reference_helpers(G, data):
    lat = SubsetLattice(G)
    bit = {v: 1 << i for i, v in enumerate(G.vertices)}
    for i, j in combinations(G.vertices, 2):
        assert lat.label(bit[i] | bit[j]) == G.label(i, j)
    connected = []
    for mask in range(lat.full + 1):
        if len(connected_components(induced_subdiagram(G, lat.vertices(mask)))) == 1:
            connected.append(mask)
    assert sorted(component_oracle.connected_masks(lat)) == connected
    assert [m.bit_count() for m in component_oracle.connected_masks(lat)] == sorted(
        m.bit_count() for m in connected
    )
    for mask in data.draw(st.lists(st.integers(min_value=0, max_value=lat.full), max_size=8)):
        D = induced_subdiagram(G, lat.vertices(mask))
        assert [lat.vertices(c) for c in lat.components(mask)] == [
            list(C.vertices) for C in connected_components(D)
        ]
        assert [lat.vertices(c) for c in lat.codim1(mask)] == [
            list(sub.vertices) for _, sub in codim1_subdiagrams(D)
        ]
        assert list(lat.submasks(mask)) == [s for s in range(lat.full + 1) if s & mask == s]


def _relabel(G: CoxeterDiagram, perm, order) -> CoxeterDiagram:
    """G with vertex G.vertices[k] renamed perm[k], declared in ``order``."""
    f = dict(zip(G.vertices, perm))
    return CoxeterDiagram(order, {(f[i], f[j]): lab for (i, j), lab in G.labels.items()})


@pytest.mark.parametrize(
    "spec,name",
    [
        # two branch vertices whose short arms are not both leaves: the
        # adjacency eigenvalue exceeds 2, so neither tree is affine
        ("n=7; 1-2:3 2-3:3 2-4:3 4-5:3 5-6:3 4-7:3", None),
        ("n=8; 1-6:3 1-7:3 2-3:3 2-4:3 2-6:3 5-6:3 7-8:3", None),
        # named trees with their vertex ids reversed
        ("n=7; 7-5:3 6-5:3 5-4:3 4-3:3 3-2:3 3-1:3", "~D6"),
        ("n=8; 8-6:3 7-6:3 6-5:3 5-4:3 4-3:3 3-2:3 3-1:3", "~D7"),
        ("n=4; 1-2:4 2-3:3 3-4:3", "B4"),
        ("n=7; 7-5:3 6-4:3 5-4:3 4-3:3 3-2:3 2-1:3", "E7"),
    ],
)
def test_classify_tree_shapes(spec, name):
    cls = classify(parse_diagram(spec))
    assert cls.type_name == name
    if name is None:
        assert cls.kind == "other-infinite"


@pytest.mark.parametrize("name", ["A1000", "B1000", "~D1000"])
def test_classify_rank_1000(name):
    assert classify(parse_diagram(name)).type_name == name


@pytest.mark.parametrize("name", ["A2000", "B2000", "~D2000"])
def test_tree_names_cost_a_pair_per_edge(monkeypatch, name):
    """Once the catalog of the rank is built, classifying a tree names
    its vertices from at most 2n (label, child name) pairs in all: a
    vertex costs its children, not its subtree."""
    G = parse_diagram(name)
    assert classify(G).type_name == name
    named = []
    real = diagram._name

    def counting(pairs):
        named.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(diagram, "_name", counting)
    assert classify(G).type_name == name
    assert 0 < sum(named) <= 2 * G.rank


# every named constructor up to rank 12; D3 is drawn as A3 and ~B2 as ~C2
NAMED = (
    [f"{f}{n}" for f in "ABD" for n in range(3, 13)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"~{f}{n}" for f in "ABC" for n in range(2, 12)]
    + [f"~D{n}" for n in range(4, 12)]
    + ["~E6", "~E7", "~E8", "~F4", "~G2"]
)
ALIASES = {"D3": "A3", "~B2": "~C2"}


@given(st.sampled_from(NAMED), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_named_constructors_keep_their_names_after_relabelling(spec, rng):
    G = parse_diagram(spec)
    perm = rng.sample(range(1, 2 * G.rank + 1), G.rank)
    order = rng.sample(perm, G.rank)
    cls = classify(_relabel(G, perm, order))
    assert cls.kind == ("affine" if spec[0] == "~" else "finite")
    assert cls.type_name == ALIASES.get(spec, spec)
    assert cls == classify(G)


def _isomorphic(G: CoxeterDiagram, H: CoxeterDiagram) -> bool:
    """Brute force: some bijection of the vertices carries G's labelled
    edges onto H's."""
    if sorted(G.labels.values()) != sorted(H.labels.values()):
        return False
    if sorted(map(len, map(G.neighbors, G.vertices))) != sorted(
        map(len, map(H.neighbors, H.vertices))
    ):
        return False
    for perm in permutations(H.vertices):
        f = dict(zip(G.vertices, perm))
        if all(H.label(f[i], f[j]) == lab for (i, j), lab in G.labels.items()):
            return True
    return False


# the named trees of ranks 3-7, one name per diagram
NAMED_TREES: dict[int, list[tuple[str, CoxeterDiagram]]] = {}
for _name in NAMED:
    _G = parse_diagram(_name)
    if _name not in ALIASES and _G.rank <= 7 and len(_G.labels) == _G.rank - 1:
        NAMED_TREES.setdefault(_G.rank, []).append((_name, _G))


@st.composite
def labelled_trees(draw):
    """A random tree on 3-7 vertices with random vertex ids; at most two
    edges carry a label 4-7, the others 3, so named trees come up often."""
    n = draw(st.integers(min_value=3, max_value=7))
    ids = draw(st.permutations(range(1, n + 1)))
    edges = [(ids[draw(st.integers(min_value=0, max_value=v - 1))], ids[v]) for v in range(1, n)]
    labels = dict.fromkeys(edges, 3)
    for e in draw(st.lists(st.sampled_from(edges), max_size=2)):
        labels[e] = draw(st.integers(min_value=4, max_value=7))
    return CoxeterDiagram(range(1, n + 1), labels)


@given(labelled_trees())
@settings(max_examples=150, deadline=None)
def test_tree_is_named_exactly_when_isomorphic_to_a_named_diagram(G):
    matches = {name for name, H in NAMED_TREES[G.rank] if _isomorphic(G, H)}
    cls = classify(G)
    assert matches == ({cls.type_name} if cls.type_name else set())
    if not matches:
        assert cls.kind == "other-infinite"


def _union(G: CoxeterDiagram, H: CoxeterDiagram) -> tuple[SubsetLattice, int, int]:
    """The lattice of G beside a copy of H, and the masks of the two:
    keys are numbered per lattice, so both must live in one."""
    n = G.rank
    labels = dict(G.labels)
    labels.update({(i + n, j + n): lab for (i, j), lab in H.labels.items()})
    lat = SubsetLattice(CoxeterDiagram(range(1, n + H.rank + 1), labels))
    low = (1 << n) - 1
    return lat, low, lat.full ^ low


def _diagram(n: int, pairs, label: int = 3) -> CoxeterDiagram:
    return CoxeterDiagram(range(1, n + 1), dict.fromkeys(pairs, label))


K33 = _diagram(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
PRISM = _diagram(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])
# 4-regular, but a vertex of the triangle's complement and one of the
# square's lie in different orbits: colour refinement leaves one cell
# that is not a twin class
CO_C3_C4 = _diagram(7, [(i, j) for i, j in combinations(range(1, 8), 2)
                     if {i, j} not in ({1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {6, 7}, {4, 7})])


@st.composite
def diagram_pairs(draw):
    """G on 1-7 vertices with few distinct labels, so that colour
    refinement often leaves cells to search; H is G renamed by a random
    permutation, with one pair relabelled half the time."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = st.sampled_from(draw(st.sampled_from([(2, 3), (2, 2, 3), (2, 3, 4), (2, 3, 4, 5)])))
    pairs = list(combinations(range(1, n + 1), 2))
    G = CoxeterDiagram(range(1, n + 1), {p: draw(labels) for p in pairs})
    H = _relabel(G, draw(st.permutations(G.vertices)), G.vertices)
    if pairs and draw(st.booleans()):
        changed = dict(H.labels)
        changed[draw(st.sampled_from(pairs))] = draw(st.integers(min_value=2, max_value=5))
        H = CoxeterDiagram(H.vertices, changed)
    return G, H


def _ring(labels) -> CoxeterDiagram:
    """The cycle 1-2-...-n-1 whose edges, in that order, carry ``labels``."""
    n = len(labels)
    return CoxeterDiagram(range(1, n + 1), {(min(i, i % n + 1), max(i, i % n + 1)): lab
                                            for i, lab in enumerate(labels, 1)})


@example((K33, PRISM))
@example((_ring([3, 3, 4, 4, 5]), _ring([4, 3, 3, 5, 4])))  # rotated and reflected
@example((_ring([3, 4, 3, 4]), _ring([3, 3, 4, 4])))  # the same labels, not isomorphic
@example((CO_C3_C4, _relabel(CO_C3_C4, [5, 6, 7, 1, 2, 3, 4], CO_C3_C4.vertices)))
@example((_diagram(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), _diagram(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 4)))
@given(diagram_pairs())
@settings(max_examples=300, deadline=None)
def test_lattice_keys_are_equal_exactly_for_isomorphic_subdiagrams(pair):
    G, H = pair
    lat, g, h = _union(G, H)
    assert (lat.key(g) == lat.key(h)) == _isomorphic(G, H)


def test_rings_are_keyed_without_search(monkeypatch):
    """Every connected mask of ~A8 and ~A11 is a path or the whole
    cycle, so no mask needs the refinement search."""
    def refused(adj):
        raise AssertionError("a ring went to _graph_key")

    monkeypatch.setattr(diagram, "_graph_key", refused)
    for name in ("~A8", "~A11"):
        lat = SubsetLattice(parse_diagram(name))
        for mask in range(lat.full + 1):
            lat.key(mask)
        assert len({lat.key(m) for m in component_oracle.connected_masks(lat)}) == lat.rank


@st.composite
def random_diagrams(draw):
    """A diagram on 1-7 vertices, each pair labelled 2 (no edge) half the
    time and 3-5 otherwise."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = st.sampled_from([2, 2, 2, 3, 3, 4, 5])
    return CoxeterDiagram(range(1, n + 1),
                          {p: draw(labels) for p in combinations(range(1, n + 1), 2)})


@given(random_diagrams())
@settings(max_examples=60, deadline=None)
def test_census_counts_the_proper_submasks_by_class(G):
    lat = SubsetLattice(G)
    for mask in component_oracle.connected_masks(lat):
        census = lat.census(lat.key(mask))
        brute: dict[int, int] = {}
        for sub in range(lat.full + 1):
            if sub & mask == sub and sub != mask:
                brute[lat.key(sub)] = brute.get(lat.key(sub), 0) + 1
        assert dict(census) == brute
        assert len(census) == len(brute)  # one pair per class
        # the least mask of each class stands for it
        assert all(lat.least[cls] == min(m for m in range(lat.full + 1) if lat.key(m) == cls)
                   for cls, _ in census)
        assert lat.census(lat.key(mask)) is census


@pytest.mark.parametrize("spec", [
    "~E8",
    "n=6; 1-2:3 2-3:3 3-4:3 4-5:3 5-6:3 1-6:3 1-4:4",  # trees, rings and thetas
    "n=7; 1-2:3 3-4:4 4-5:3 5-3:5 6-7:3",  # disconnected
])
def test_sweep_keys_each_connected_mask_once(monkeypatch, spec):
    """Work count, no clock: building the lattice builds the canonical
    form of each connected mask once, and runs no breadth-first search
    (``mask_components``): each mask's components come from those of the
    mask without its lowest vertex."""
    keyed = []

    def recording(key):
        def run(adj):
            keyed.append(sum(1 << v for v in adj))
            return key(adj)
        return run

    for name in ("_tree_key", "_ring_key", "_graph_key"):
        monkeypatch.setattr(diagram, name, recording(getattr(diagram, name)))

    def refused(*args):
        raise AssertionError("the lattice ran a breadth-first search")

    monkeypatch.setattr(diagram, "mask_components", refused)
    G = parse_diagram(spec)
    lat = SubsetLattice(G)
    assert sorted(keyed) == sorted(component_oracle.connected_masks(lat))
    assert len(set(keyed)) == len(keyed)
    connected = [m for m in range(1, lat.full + 1)
                 if is_connected(induced_subdiagram(G, lat.vertices(m)))]
    assert sorted(component_oracle.connected_masks(lat)) == connected


def test_lattice_class_counts():
    lat = SubsetLattice(parse_diagram("~A8"))
    assert len({lat.key(m) for m in component_oracle.connected_masks(lat)}) == 9  # A1..A8 and the cycle
    lat = SubsetLattice(parse_diagram("~E8"))
    assert len({lat.key(m) for m in component_oracle.connected_masks(lat)}) == 17


@pytest.mark.parametrize(
    "G,leaves",
    [
        (_diagram(12, combinations(range(1, 13), 2)), 1),
        (_diagram(12, [(i, j) for i in range(1, 7) for j in range(7, 13)]), 2),
        (_diagram(12, [(1, j) for j in range(2, 13)]), 0),
    ],
)
def test_key_search_takes_one_leaf_per_twin_free_branch(monkeypatch, G, leaves):
    """K12, K6,6 and the rank-12 star: twins are exchanged without
    search, so a complete mask takes one leaf, a complete bipartite one
    at most two (one per side, when the sides are equal), and a star,
    being a tree, none.  The leaves are counted per connected mask as
    the lattice's sweep keys it."""
    from ccx import diagram

    count = [0]
    certificate, graph_key = diagram._certificate, diagram._graph_key

    def counting(rows, order):
        count[0] += 1
        assert count[0] <= leaves, "twins were searched"
        return certificate(rows, order)

    def per_mask(adj):
        count[0] = 0
        return graph_key(adj)

    monkeypatch.setattr(diagram, "_certificate", counting)
    monkeypatch.setattr(diagram, "_graph_key", per_mask)
    SubsetLattice(G)
