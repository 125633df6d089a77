from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccx.diagram import (
    CoxeterDiagram,
    DiagramError,
    OddCycle,
    SubsetLattice,
    bipartition,
    classify,
    codim1_subdiagrams,
    connected_components,
    induced_subdiagram,
    parse_diagram,
)
from ccx.formulas import TypeInfo


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
    "name", ["~A2", "~A5", "~B3", "~B5", "~C2", "~C4", "~D4", "~D6", "~E6", "~E7", "~E8", "~F4", "~G2"]
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
    assert sorted(lat.connected_masks()) == connected
    assert [m.bit_count() for m in lat.connected_masks()] == sorted(
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
