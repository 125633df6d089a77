import itertools
import random
from fractions import Fraction as F

import pytest

from ccx.diagram import InputError
from ccx.formulas import TypeInfo, N_product, f_k_closed
from ccx.gcc import BudgetExceeded, CliqueComplex, check_budget
from ccx.polygon import (
    AmbiguousOrbit,
    TypeAModel,
    TypeBModel,
    TypeDModel,
    allowable_diagonals,
    checked_complex,
    m_snake,
    render_svg,
    rotate_diag,
)
from colored_layout import ColoredRoot, colored_ground_set


# Oracles for the tests below, built on the models and the non-crossing
# graph they check.


def crossing(d1, d2) -> bool:
    """True when the chords meet in the interior (shared endpoints don't)."""
    a, b = d1
    c, d = d2
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def is_allowable(d, N: int, m: int) -> bool:
    """Both arcs a diagonal cuts off hold a positive multiple of m vertices."""
    a, b = d
    arc1 = b - a - 1
    arc2 = N - (b - a) - 1
    return arc1 > 0 and arc2 > 0 and arc1 % m == 0 and arc2 % m == 0


def ground_set(model):
    return colored_ground_set([model.rs], model.m)


def model_map(model) -> dict:
    """The model item of each colored root: ``model.at`` read through
    the oracle layout."""
    return dict(zip(ground_set(model), model.at))


def diameters_compatible(model, v1, v2) -> bool:
    """The flavor rule for two diameters of a D model, pair by pair: at
    one position they are compatible when their flavors differ;
    otherwise v1 is turned k = (p1 - p2) mod half steps clockwise onto
    v2's position, switching flavor as ``_switches`` counts, and they are
    compatible when v2 has the flavor it reaches exactly when ceil(k/m)
    is even.  A test oracle for ``TypeDModel.adjacency``."""
    if v1.position == v2.position:
        return v1.flavor != v2.flavor
    k = (v1.position - v2.position) % model.half
    rotated_flavor = v1.flavor
    if model._switches(v1.position, k) % 2:
        rotated_flavor = "dashed" if v1.flavor == "gray" else "gray"
    return (v2.flavor == rotated_flavor) == (-(-k // model.m) % 2 == 0)


def vertex_compatible(model, v1, v2) -> bool:
    """Compatibility of two B/D model vertices, chord by chord: no chord
    of one crosses a chord of the other, except that two D diameters
    follow the flavor rule."""
    if isinstance(model, TypeDModel) and v1.kind == v2.kind == "diam":
        return diameters_compatible(model, v1, v2)
    return not any(crossing(c1, c2) for c1 in v1.chords for c2 in v2.chords)


def switches_by_walk(model, p: int, k: int) -> int:
    """Flavor switches over k clockwise steps of a D model from position
    p, step by step: a test oracle for ``TypeDModel._switches``."""
    count = 0
    for _ in range(k):
        if p == 1 or p % model.m == 2 % model.m:
            count += 1
        p = p - 1 if p > 1 else model.half
    return count


def all_diameter_flavoring(n: int, m: int, positions) -> list[tuple[str, ...]]:
    """All ways to flavor diameters at the given positions so they are
    pairwise compatible: either none, or exactly two (global flips)."""
    model = TypeDModel(n, m)
    positions = list(positions)
    out = []
    for bits in range(1 << len(positions)):
        flavors = tuple(
            "gray" if bits >> t & 1 else "dashed" for t in range(len(positions))
        )
        verts = [model._diameter(p, f) for p, f in zip(positions, flavors)]
        if all(vertex_compatible(model, u, v) for u, v in itertools.combinations(verts, 2)):
            out.append(flavors)
    return out


def diameter_gap_condition(n: int, m: int, positions) -> bool:
    """Sorted starting indices must have consecutive gaps <= m, cyclically."""
    a = sorted(positions)
    a.append(a[0] + (n - 1) * m + 1)
    return all(a[t + 1] - a[t] <= m for t in range(len(a) - 1))


def cliques_by_brute_force(adj: list[int], k: int) -> list[tuple[int, ...]]:
    """The k-subsets of vertices that ``adj`` makes pairwise adjacent,
    from every k-subset in lexicographic order."""
    return [
        c
        for c in itertools.combinations(range(len(adj)), k)
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(c, 2))
    ]


def count_dissection_faces(n: int, m: int, k: int) -> int:
    """Count of non-crossing k-subsets of allowable diagonals, by brute
    force on the type-A model's adjacency; there are none above k = n."""
    return len(cliques_by_brute_force(TypeAModel(n, m).adj, k))


def dissection_facets(n: int, m: int):
    """The maximal dissections: non-crossing n-subsets of allowable
    diagonals, in lexicographic diagonal order, by brute force on the
    type-A model's adjacency."""
    model = TypeAModel(n, m)
    return [tuple(model.diagonals[i] for i in c) for c in cliques_by_brute_force(model.adj, n)]


def test_crossing_predicate():
    assert crossing((0, 2), (1, 3))
    assert not crossing((0, 2), (2, 4))  # shared endpoint
    assert not crossing((0, 1), (2, 3))
    assert not crossing((0, 3), (1, 2))  # nested


def test_allowable_counts_match_vertex_counts():
    for n in range(1, 5):
        for m in range(1, 4):
            diags = allowable_diagonals(n, m)
            assert len(diags) == m * n * (n + 1) // 2 + n
            assert len(set(diags)) == len(diags)


def test_pentagon_allowable_m3():
    # pentagon has 5 diagonals; only 4 satisfy both arc conditions mod 3
    diags = allowable_diagonals(1, 3)
    assert len(diags) == 4


def test_allowable_diagonals_are_the_filtered_scan_of_all_pairs():
    for n in range(1, 7):
        for m in range(1, 6):
            N = (n + 1) * m + 2
            pairs = [(a, b) for a in range(N) for b in range(a + 1, N)]
            scan = [d for d in pairs if is_allowable(d, N, m)]
            assert allowable_diagonals(n, m) == scan, (n, m)
    diagonals = allowable_diagonals(1, 1999)
    assert len(diagonals) == 2000 and diagonals[-1] == (1999, 3999)


def test_snake_matches_displayed_indices():
    # the 5-snake of the rank-4 model, 0-based endpoints
    snake = m_snake(4, 5)
    assert snake == [(0, 21), (5, 21), (5, 16), (10, 16)]


def test_snake_is_allowable_noncrossing_facet():
    for n in range(1, 6):
        for m in range(1, 4):
            N = (n + 1) * m + 2
            snake = m_snake(n, m)
            assert len(snake) == n
            assert all(is_allowable(d, N, m) for d in snake)
            assert all(
                not crossing(a, b) for a, b in itertools.combinations(snake, 2)
            )


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (1, 3)])
def test_type_a_bijection_is_isomorphism(n, m):
    model = TypeAModel(n, m)
    gs = ground_set(model)
    assert len(gs) == len(model.diagonals)
    cx = CliqueComplex([model.rs], m)
    image = model_map(model)
    for u, v in itertools.combinations(gs, 2):
        assert bool(cx.adj[cx.position(*u)] >> cx.position(*v) & 1) == (
            not crossing(image[u], image[v])
        )
    for v in gs:
        assert image[gs[cx.turn[cx.position(*v)]]] == rotate_diag(image[v], model.N)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 1), (3, 2), (4, 3), (6, 2)])
def test_type_a_adjacency_is_non_crossing(n, m):
    model = TypeAModel(n, m)
    diags = model.diagonals
    assert len(model.adj) == len(diags)
    for i, j in itertools.product(range(len(diags)), repeat=2):
        assert bool(model.adj[i] >> j & 1) == (i != j and not crossing(diags[i], diags[j]))


@pytest.mark.parametrize("cls,n,m", [(TypeBModel, 2, 3), (TypeBModel, 4, 2), (TypeDModel, 3, 2),
                                     (TypeDModel, 5, 3), (TypeDModel, 6, 1)])
def test_symmetric_model_adjacency_is_its_compatibility(cls, n, m):
    """The crossing masks and the diameter flavor rule give the relation
    stated chord by chord."""
    model = cls(n, m)
    verts = model.vertices
    for i, j in itertools.product(range(len(verts)), repeat=2):
        want = i != j and vertex_compatible(model, verts[i], verts[j])
        assert bool(model.adj[i] >> j & 1) == want


def test_type_a_root_diagonal_agrees_with_the_bijection():
    model = TypeAModel(4, 3)
    for v, d in model_map(model).items():
        if v.root >= model.n:
            supp = model.rs.support_masks[v.root]
            lo, hi = (supp & -supp).bit_length(), supp.bit_length()
            assert model.root_diagonal(lo, hi, v.color) == d


def test_type_a_model_inside_b_and_d_builds_no_root_system_or_adjacency():
    for model in (TypeBModel(3, 2), TypeDModel(4, 2)):
        assert {"rs", "at", "adj"}.isdisjoint(vars(model.amodel))


def test_type_a_negative_simples_map_to_snake():
    model = TypeAModel(3, 2)
    snake = m_snake(3, 2)
    image = model_map(model)
    for i in range(3):
        assert image[ColoredRoot(0, i, 1)] == snake[i]


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_type_b_bijection_is_isomorphism(n, m):
    model = TypeBModel(n, m)
    gs = ground_set(model)
    assert len(gs) == len(model.vertices)
    cx = CliqueComplex([model.rs], m)
    image = model_map(model)
    for u, v in itertools.combinations(gs, 2):
        assert bool(cx.adj[cx.position(*u)] >> cx.position(*v) & 1) == vertex_compatible(
            model, image[u], image[v]
        )
    for v in gs:
        assert image[gs[cx.turn[cx.position(*v)]]] == model.rotate_vertex(image[v])


def test_type_b_counts():
    model = TypeBModel(2, 2)
    assert sum(1 for v in model.vertices if v.kind == "diam") == 5  # nm+1
    assert len(model.faces(2)) == 15 == N_product(TypeInfo("B", 2), 2)
    for n, m in [(2, 1), (3, 1), (3, 2)]:
        model = TypeBModel(n, m)
        assert len(model.faces(n)) == N_product(TypeInfo("B", n), m)


def test_type_b_diameter_fraction():
    for n, m in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        model = TypeBModel(n, m)
        for k in range(1, n + 1):
            faces = model.faces(k)
            with_diam = sum(
                1 for f in faces if any(model.vertices[i].kind == "diam" for i in f)
            )
            assert F(with_diam, len(faces)) == F(k, n)


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_type_d_bijection_is_isomorphism(n, m):
    model = TypeDModel(n, m)
    gs = ground_set(model)
    assert len(gs) == len(model.vertices)
    cx = CliqueComplex([model.rs], m)
    image = model_map(model)
    for u, v in itertools.combinations(gs, 2):
        assert bool(cx.adj[cx.position(*u)] >> cx.position(*v) & 1) == vertex_compatible(
            model, image[u], image[v]
        )
    for v in gs:
        assert image[gs[cx.turn[cx.position(*v)]]] == model.rotate_vertex(image[v])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_type_d_switch_count_equals_the_walk(n, m):
    model = TypeDModel(n, m)
    for p in range(1, model.half + 1):
        for k in range(3 * model.half):
            assert model._switches(p, k) == switches_by_walk(model, p, k), (p, k)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_type_d_diameter_rows_equal_the_pairwise_rule(n, m):
    """The rows that ``adjacency`` ORs per position and phase hold, among
    the diameters, exactly the pairs of the flavor rule, in the model's
    order and in the complex's."""
    model = TypeDModel(n, m)
    for verts in (model.vertices, model.at):
        adj = model.adjacency(verts)
        diams = [i for i, v in enumerate(verts) if v.kind == "diam"]
        assert len(diams) == 2 * model.half
        for i, j in itertools.product(diams, repeat=2):
            want = i != j and diameters_compatible(model, verts[i], verts[j])
            assert bool(adj[i] >> j & 1) == want, (verts[i], verts[j])


@pytest.mark.parametrize("cls,n,m", [(TypeAModel, 3, 2), (TypeAModel, 5, 1), (TypeBModel, 3, 2),
                                     (TypeDModel, 4, 2), (TypeDModel, 3, 3)])
def test_adjacency_rule_reads_any_order_of_the_items(cls, n, m):
    """The rule applied to a shuffled list of the model's items is
    ``adj`` shuffled alike, wherever the D diameters land."""
    model = cls(n, m)
    items = model.diagonals if cls is TypeAModel else model.vertices
    perm = list(range(len(items)))
    random.Random(n * 10 + m).shuffle(perm)
    adj = model.adjacency([items[i] for i in perm])
    for a, b in itertools.product(range(len(perm)), repeat=2):
        assert bool(adj[a] >> b & 1) == bool(model.adj[perm[a]] >> perm[b] & 1)


@pytest.mark.parametrize("cls,n,m", [(TypeAModel, 3, 2), (TypeBModel, 3, 2), (TypeDModel, 4, 2)])
def test_checked_complex_refuses_a_map_off_by_one_position(cls, n, m):
    """The model's list rotated by one position is still one-to-one onto
    the model, but its rows are not the complex's."""
    model = cls(n, m)
    assert checked_complex(model).num_vertices() == len(model.at)
    model.at = model.at[1:] + model.at[:1]
    with pytest.raises(AmbiguousOrbit, match="pair mismatches"):
        checked_complex(model)


@pytest.mark.parametrize("cls,n,m", [(TypeAModel, 3, 2), (TypeBModel, 3, 2), (TypeDModel, 4, 2)])
def test_checked_complex_refuses_a_map_that_is_not_one_to_one(cls, n, m):
    model = cls(n, m)
    at = list(model.at)
    model.at = at[:-1] + at[:1]  # the first item twice, the last one missing
    with pytest.raises(AmbiguousOrbit, match="one-to-one"):
        checked_complex(model)
    model.at = at[:-1]
    with pytest.raises(AmbiguousOrbit, match="one-to-one"):
        checked_complex(model)


def test_type_d_same_position_opposite_flavors_compatible():
    model = TypeDModel(3, 2)
    diams = [v for v in model.vertices if v.kind == "diam"]
    for v1, v2 in itertools.combinations(diams, 2):
        if v1.position == v2.position:
            assert vertex_compatible(model, v1, v2) == (v1.flavor != v2.flavor)


def test_type_d_gray_primary_facet_count():
    model = TypeDModel(3, 2)
    gray = next(
        i
        for i, v in enumerate(model.vertices)
        if v.kind == "diam" and v.position == 1 and v.flavor == "gray"
    )
    assert sum(1 for f in model.faces(3) if gray in f) == 12


def test_type_d_facet_counts():
    for n, m in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        model = TypeDModel(n, m)
        assert len(model.faces(n)) == N_product(TypeInfo("D", n), m)


def test_all_diameter_flavoring_two_or_none():
    n, m = 3, 2
    half = (n - 1) * m + 1
    for positions in itertools.combinations(range(1, half + 1), n):
        flavorings = all_diameter_flavoring(n, m, positions)
        assert len(flavorings) in (0, 2)
        assert (len(flavorings) == 2) == diameter_gap_condition(n, m, positions)
        if flavorings:
            f1, f2 = flavorings
            assert all(a != b for a, b in zip(f1, f2))


def test_all_diameter_flavoring_rejects_small_n_as_the_model_does():
    with pytest.raises(InputError, match="type D model needs n >= 3"):
        all_diameter_flavoring(2, 1, [1])


def test_gap_condition_violated():
    # consecutive starting indices more than m apart leave no flavoring
    assert not diameter_gap_condition(3, 2, [1, 1, 4])
    assert all_diameter_flavoring(3, 2, [1, 1, 4]) == []


def test_all_diameter_census_matches_bruteforce():
    n, m = 3, 2
    model = TypeDModel(n, m)
    facets = model.faces(n)
    diam_facets = [
        f for f in facets if all(model.vertices[i].kind == "diam" for i in f)
    ]
    half = (n - 1) * m + 1
    census = 0
    for positions in itertools.combinations_with_replacement(range(1, half + 1), n):
        if any(positions.count(p) > 2 for p in set(positions)):
            continue
        census += len(all_diameter_flavoring(n, m, positions))
    assert census == len(diam_facets)


def test_dissection_counts():
    for n in range(1, 5):
        for m in range(1, 4):
            for k in range(n + 1):
                assert count_dissection_faces(n, m, k) == f_k_closed(
                    TypeInfo("A", n), k
                )(m)
    assert count_dissection_faces(2, 2, 2) == 12
    assert count_dissection_faces(3, 1, 3) == 14  # triangulations of a hexagon
    assert count_dissection_faces(4, 3, 0) == 1


def test_dissection_budget():
    """Type-A dissections read the budget of ``ccx complex``: A6 m=4,
    with 90 allowable diagonals, is counted, and A12 m=1, with 7.1e7
    faces, is refused by the face budget."""
    assert count_dissection_faces(6, 4, 2) == f_k_closed(TypeInfo("A", 6), 2)(4)
    check_budget([TypeInfo("A", 6)], 4)
    with pytest.raises(BudgetExceeded, match="faces predicted"):
        check_budget([TypeInfo("A", 12)], 1)


def test_dissection_facets_contain_snake():
    for n, m in [(2, 1), (2, 2), (3, 2)]:
        facets = dissection_facets(n, m)
        assert len(facets) == N_product(TypeInfo("A", n), m)
        assert frozenset(m_snake(n, m)) in {frozenset(f) for f in facets}


def test_svg_render_smoke():
    svg = render_svg(8, [((0, 4), "gray"), ((1, 5), "dashed"), ((2, 6), "plain")])
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<line") == 3
    assert "stroke-dasharray" in svg
