import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccx import gcc
from ccx.diagram import InputError, parse_diagram, classify
from ccx.formulas import N_plus_product
from ccx.gcc import (
    BudgetExceeded,
    CliqueComplex,
    CliqueSurvey,
    build_complex,
    clique_survey,
    iter_cliques,
    link_decomposition_check,
)
from ccx.cli import main
from ccx.diagram import mask_components
from ccx.rootsys import LookupMiss, RootSystem
from colored_layout import ColoredRoot, colored_ground_set, layout


def rotate_colored(rs: RootSystem, v: ColoredRoot, m: int, rotation=None) -> ColoredRoot:
    """Colored rotation R_m, vertex by vertex: a test oracle for
    ``CliqueComplex.write_turn``.  Bump the color while it is below m,
    otherwise rotate the underlying root and reset the color to 1.  The
    rotation is ``rs.rotation``, or ``rotation`` (a map on root ids)."""
    if not rs.is_negative(v.root) and v.color < m:
        return ColoredRoot(v.comp, v.root, v.color + 1)
    return ColoredRoot(v.comp, (rs.rotation if rotation is None else rotation)[v.root], 1)


def test_ground_set_sizes():
    rs = RootSystem(parse_diagram("B2"))
    assert len(colored_ground_set([rs], 3)) == 14
    assert len(colored_ground_set([rs], 0)) == 2
    rs1 = RootSystem(parse_diagram("A1"))
    for m in range(4):
        assert len(colored_ground_set([rs1], m)) == m + 1


def test_negative_simples_carry_color_one():
    cx = build_complex(parse_diagram("A2"), 3)
    records = cx.vertices_json()
    assert [r["color"] for r in records if r["negative_simple"]] == [1, 1]
    assert [r["color"] for r in records if not r["negative_simple"]] == [1, 2, 3] * 3


INTERLEAVED = "n=7; 1-3:3 3-5:3 5-7:3 2-4:3 4-6:4"  # A4 on the odd ids, B3 on the even


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "G2", "D4", "E6", "H3",
                                  "I2(5)", "n=5; 1-2:3 4-5:5", INTERLEAVED])
def test_positions_and_written_turns_follow_the_rule_vertex_by_vertex(spec, m):
    """Each vertex's arithmetic position is its index in the ground set;
    ``turn`` is R_m vertex by vertex; and for every connected K of every
    component, the turn written from K's rotation is R_m of K's
    parabolic on the vertices whose support lies in K."""
    cx = build_complex(parse_diagram(spec), m)
    V = cx.num_vertices()
    verts = layout(cx)
    assert [cx.position(*v) for v in verts] == list(range(V))
    assert cx.turn == [cx.position(*rotate_colored(cx.systems[v.comp], v, m)) for v in verts]
    for c, rs in enumerate(cx.systems):
        for K in range(1, 1 << rs.n):
            if len(mask_components(K, rs.neighbor_masks)) > 1:
                continue
            turn = list(range(1, V + 1))
            rids, images = rs.rotation_within(K)
            vmask = cx.write_turn(turn, c, rids, images)
            inside = [g for g, v in enumerate(verts)
                      if v.comp == c and not rs.support_masks[v.root] & ~K]
            assert vmask == sum(1 << g for g in inside), (spec, m, c, K)
            rotation = dict(zip(rids, images))
            for g in inside:
                want = rotate_colored(rs, verts[g], m, rotation)
                assert turn[g] == cx.position(*want), (spec, m, c, K, g)


@pytest.mark.parametrize("m", [0, 2])
def test_export_lists_the_vertices_record_for_record_as_the_oracle(m):
    cx = build_complex(parse_diagram(INTERLEAVED), m)
    want = []
    for v in layout(cx):
        rs = cx.systems[v.comp]
        want.append({"component": v.comp, "coords": [round(x, 6) for x in rs.roots[v.root]],
                     "negative_simple": rs.is_negative(v.root), "color": v.color})
    assert cx.vertices_json() == want


@pytest.mark.parametrize("spec,m", [("A3", 2), ("B3", 3), ("E6", 1), ("n=5; 1-2:3 4-5:5", 2),
                                    (INTERLEAVED, 1), ("A2", 0)])
def test_negative_simple_rows_equal_the_support_scan(spec, m):
    """The row of -alpha_i, built from color runs, is every vertex of the
    other components and every vertex of its own whose support avoids i."""
    cx = build_complex(parse_diagram(spec), m)
    verts = layout(cx)
    for s, v in enumerate(verts):
        if cx.systems[v.comp].is_negative(v.root):
            supp = cx.systems[v.comp].support_masks
            want = sum(1 << g for g, w in enumerate(verts)
                       if w.comp != v.comp or not supp[w.root] >> v.root & 1)
            assert cx.adj[s] == want, (spec, m, v)


def test_colored_rotation_branches():
    rs = RootSystem(parse_diagram("A2"))
    pos = rs.n  # first positive root id
    assert rotate_colored(rs, ColoredRoot(0, pos, 1), 3) == ColoredRoot(0, pos, 2)
    img = rotate_colored(rs, ColoredRoot(0, 0, 1), 3)
    assert img == ColoredRoot(0, rs.rotation[0], 1)


@pytest.mark.parametrize(
    "name,m", [("A1", 2), ("A2", 2), ("B2", 3), ("A3", 2), ("H3", 1)]
)
def test_colored_rotation_order(name, m):
    rs = RootSystem(parse_diagram(name))
    cls = classify(rs.diagram)
    h = int(cls.coxeter_number)
    expected = (m * h + 2) // 2 if cls.minus_one_longest else m * h + 2
    verts = colored_ground_set([rs], m)
    # order of the permutation over the whole colored ground set
    perm = {v: rotate_colored(rs, v, m) for v in verts}
    order = 1
    seen = set()
    from math import gcd

    for start in verts:
        if start in seen:
            continue
        cur, length = start, 0
        while True:
            seen.add(cur)
            cur = perm[cur]
            length += 1
            if cur == start:
                break
        order = order * length // gcd(order, length)
    assert order == expected


def edge(cx: CliqueComplex, u: ColoredRoot, v: ColoredRoot) -> bool:
    """Whether the colored roots u and v are compatible in ``cx``."""
    return bool(cx.adj[cx.position(*u)] >> cx.position(*v) & 1)


def test_support_rule_for_negative_simples():
    rs = RootSystem(parse_diagram("B2"))
    m = 3
    cx = CliqueComplex([rs], m)
    for i in range(rs.n):
        neg = ColoredRoot(0, i, 1)
        for rid in range(rs.n, rs.size):
            for k in range(1, m + 1):
                expected = not rs.support_masks[rid] >> i & 1
                assert edge(cx, neg, ColoredRoot(0, rid, k)) == expected
        # its own positive copy is incompatible in every color
        pos_same = rs.root_id([1.0 if t == i else 0.0 for t in range(rs.n)])
        for k in range(1, m + 1):
            assert not edge(cx, neg, ColoredRoot(0, pos_same, k))


@pytest.mark.parametrize("name,m", [("A2", 3), ("A3", 3), ("B3", 2), ("I2(5)", 3)])
def test_m_compatibility_is_symmetric_and_rotation_invariant(name, m):
    rs = RootSystem(parse_diagram(name))
    cx = CliqueComplex([rs], m)
    verts = layout(cx)
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            u, v = verts[a], verts[b]
            c = edge(cx, u, v)
            assert c == edge(cx, v, u)
            assert c == edge(cx, rotate_colored(rs, u, m), rotate_colored(rs, v, m))


def test_lower_color_complex_is_induced_subcomplex():
    rs = RootSystem(parse_diagram("B2"))
    big = CliqueComplex([rs], 3)
    small = CliqueComplex([rs], 2)
    verts = layout(small)
    for a, u in enumerate(verts):
        for b in range(a + 1, len(verts)):
            v = verts[b]
            big_edge = edge(big, u, v)
            assert big_edge == bool(small.adj[a] >> b & 1)


def test_f_vectors_match_named_counts():
    assert build_complex(parse_diagram("A2"), 1).f_vector() == [1, 5, 5]
    assert build_complex(parse_diagram("A2"), 2).f_vector() == [1, 8, 12]
    cx = build_complex(parse_diagram("B2"), 3)
    assert cx.f_vector() == [1, 14, 28]
    assert {cx.degree(i) for i in range(14)} == {4}


def test_zero_colors_gives_simplex():
    cx = build_complex(parse_diagram("B3"), 0)
    assert cx.f_vector() == [1, 3, 3, 1]
    assert cx.audit_pure() and cx.audit_ridge_degree()
    assert cx.positive_facet_count() == 0


def test_facet_counts():
    assert build_complex(parse_diagram("D4"), 2).facet_count() == 336
    cx = build_complex(parse_diagram("H3"), 1)
    assert cx.facet_count() == 32
    assert cx.positive_facet_count() == 21
    assert build_complex(parse_diagram("A2"), 1).positive_facet_count() == 2


def test_purity_and_ridge_degree():
    for name, m in [("A3", 2), ("B3", 2), ("H3", 2), ("I2(7)", 3)]:
        cx = build_complex(parse_diagram(name), m)
        assert cx.audit_pure()
        assert cx.audit_ridge_degree()


def test_duality_alias():
    for m in (1, 2):
        assert (
            build_complex(parse_diagram("B3"), m).f_vector()
            == build_complex(parse_diagram("C3"), m).f_vector()
        )


def test_join_of_components():
    cx = build_complex(parse_diagram("n=3; 1-2:3"), 1)  # A2 x A1
    f_a2 = build_complex(parse_diagram("A2"), 1).f_vector()
    f_a1 = build_complex(parse_diagram("A1"), 1).f_vector()
    expect = [0] * 4
    for i, x in enumerate(f_a2):
        for j, y in enumerate(f_a1):
            expect[i + j] += x * y
    assert cx.f_vector() == expect


def test_links_decompose():
    for name in ["A3", "B3", "H3"]:
        for m in (1, 2):
            cx = build_complex(parse_diagram(name), m)
            assert all(
                link_decomposition_check(cx, i) for i in range(cx.num_vertices())
            )


def test_link_decomposition_check_refuses_an_orbit_without_a_negative_simple():
    """The walk along R_m stops after as many steps as there are vertices."""
    cx = build_complex(parse_diagram("A2"), 2)
    cx.negative_mask = lambda: 0
    with pytest.raises(RuntimeError, match="never reached a negative simple"):
        link_decomposition_check(cx, 0)


def test_link_of_vertex_in_rank_one_is_empty():
    cx = build_complex(parse_diagram("A1"), 3)
    assert all(cx.adj[i] == 0 for i in range(cx.num_vertices()))


def test_link_of_negative_simple_in_a2():
    m = 3
    cx = build_complex(parse_diagram("A2"), m)
    i = cx.position(0, 0, 1)
    assert len(cx.link_vertices(i)) == m + 1  # a rank-one complex


@pytest.mark.parametrize("name,m", [("B3", 2), ("A4", 2), ("D4", 1)])
def test_colored_restriction_all_parabolics(name, m):
    # colored compatibility agrees with each parabolic subsystem's own,
    # for arbitrary vertex subsets, not just vertex deletions; the
    # components of J are the components of the parabolic complex
    rs = RootSystem(parse_diagram(name))
    cx = CliqueComplex([rs], m)
    verts = list(rs.diagram.vertices)
    for size in range(1, rs.n):
        for J in itertools.combinations(verts, size):
            embs = rs.parabolic_embeddings(J)
            sub = CliqueComplex([crs for crs, _ in embs], m)
            parent = {v: ColoredRoot(0, embs[v.comp][1][v.root], v.color) for v in layout(sub)}
            for su, sv in itertools.combinations(layout(sub), 2):
                assert edge(sub, su, sv) == edge(cx, parent[su], parent[sv]), (name, J, su, sv)


def test_budget(monkeypatch):
    """``CCX_BUDGET`` bounds the vertices for m >= 1, and the
    almost-positive roots at m = 0: A2 has 2 + 2 * 3 vertices at m = 2,
    and 2 + 3 roots."""
    monkeypatch.setenv("CCX_BUDGET", "8")
    assert build_complex(parse_diagram("A2"), 2).num_vertices() == 8
    monkeypatch.setenv("CCX_BUDGET", "5")
    with pytest.raises(BudgetExceeded, match="^8 vertices exceed budget 5$"):
        build_complex(parse_diagram("A2"), 2)
    assert build_complex(parse_diagram("A2"), 0).num_vertices() == 2
    monkeypatch.setenv("CCX_BUDGET", "4")
    with pytest.raises(BudgetExceeded, match="^5 almost-positive roots exceed budget 4$"):
        build_complex(parse_diagram("A2"), 0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CCX_BUDGET", "6")
    with pytest.raises(BudgetExceeded):
        build_complex(parse_diagram("A2"), 2)


def test_budget_env_malformed(monkeypatch):
    monkeypatch.setenv("CCX_BUDGET", "abc")
    with pytest.raises(ValueError, match="CCX_BUDGET.*'abc'"):
        build_complex(parse_diagram("A2"), 1)


@st.composite
def graphs(draw):
    """A graph on at most 12 vertices as bitmask adjacency, plus a
    random vertex mask."""
    V = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(V), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [0] * V
    for (i, j), edge in zip(pairs, edges):
        if edge:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj, draw(st.integers(0, (1 << V) - 1))


@settings(max_examples=150, deadline=2000)
@given(graphs())
def test_clique_engine_matches_brute_force(graph):
    adj, cand = graph
    V = len(adj)
    members = [i for i in range(V) if cand >> i & 1]

    def brute(k, vertices):
        return [
            c
            for c in itertools.combinations(vertices, k)
            if all(adj[a] >> b & 1 for a, b in itertools.combinations(c, 2))
        ]

    top = V + 1
    outside = ((1 << V) - 1) & ~cand
    assert [clique_survey(adj, k, outside).unmarked_top for k in range(top + 1)] == [
        len(brute(k, members)) for k in range(top + 1)
    ]
    assert clique_counts(adj, top) == [len(brute(k, range(V))) for k in range(top + 1)]
    for k in range(top + 1):
        assert list(iter_cliques(adj, k)) == sorted(brute(k, range(V)))


def clique_counts(adj: list[int], top: int) -> list[int]:
    """Numbers of cliques of sizes 0..top, by ordered recursive
    enumeration: a test oracle for the face counts.

    Each clique is visited once, in increasing vertex order: candidates
    are taken lowest first, so the ones left all lie above the vertex
    just taken and ``cand & adj[i]`` keeps only later common neighbors.
    """
    counts = [0] * (top + 1)
    counts[0] = 1

    def rec(cand: int, size: int):
        while cand:
            low = cand & -cand
            cand ^= low
            counts[size] += 1
            if size < top:
                nxt = cand & adj[low.bit_length() - 1]
                if nxt:
                    rec(nxt, size + 1)

    if top:
        rec((1 << len(adj)) - 1, 1)
    return counts


def depths(rs: RootSystem) -> list[int]:
    """The rotations each root id needs to reach a negative root."""
    out = []
    for rid in range(rs.size):
        d = 0
        while not rs.is_negative(rid):
            rid, d = rs.rotation[rid], d + 1
        out.append(d)
    return out


def pair_compatible(rs: RootSystem, a: int, b: int) -> bool:
    """Uncolored compatibility of two root ids: rotate the pair until one
    root is a negative simple, then test whether the other avoids it."""
    if a == b:
        return False
    for _ in range(rs.rotation_order + 1):
        if rs.is_negative(a):
            return not rs.support_masks[b] >> a & 1
        if rs.is_negative(b):
            return not rs.support_masks[a] >> b & 1
        a, b = rs.rotation[a], rs.rotation[b]
    raise AssertionError("no negative simple reached within one period")


def compatibility_masks(items, compatible) -> list[int]:
    """Bitmask adjacency of a symmetric relation: bit j of entry i is
    set when ``compatible(items[i], items[j])`` holds."""
    adj = [0] * len(items)
    for i, j in itertools.combinations(range(len(items)), 2):
        if compatible(items[i], items[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def five_case_adjacency(cx: CliqueComplex) -> list[int]:
    """Colored compatibility on the vertices of ``cx`` by the five-case
    rule over the color comparison and the rotation depths: a test
    oracle for ``cx.adj``.  Vertices of different components are always
    compatible.  Of two colored roots of one component, the one of the
    higher color is rotated first when its depth is at most the other's
    (so a tie on both rotates the higher-colored root)."""
    tables = [[[pair_compatible(rs, a, b) for b in range(rs.size)] for a in range(rs.size)]
              for rs in cx.systems]
    depth = [depths(rs) for rs in cx.systems]

    def compatible(u: ColoredRoot, v: ColoredRoot) -> bool:
        if u.comp != v.comp:
            return True
        rs, d = cx.systems[u.comp], depth[u.comp]
        a, b = u.root, v.root
        if u.color > v.color and d[a] <= d[b]:
            a = rs.rotation[a]
        elif u.color < v.color and d[a] >= d[b]:
            b = rs.rotation[b]
        return tables[u.comp][a][b]

    return compatibility_masks(layout(cx), compatible)


def brute_survey(adj: list[int], top: int, marked: int) -> CliqueSurvey:
    """``clique_survey`` from every vertex subset, by itertools."""
    V = len(adj)
    cliques = [
        c
        for k in range(V + 1)
        for c in itertools.combinations(range(V), k)
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(c, 2))
    ]

    def common(c):
        out = (1 << V) - 1
        for i in c:
            out &= adj[i]
        return out & ~sum(1 << i for i in c)

    return CliqueSurvey(
        [sum(len(c) == k for c in cliques) for k in range(top + 1)],
        sum(len(c) == top and not any(marked >> i & 1 for i in c) for c in cliques),
        frozenset(common(c).bit_count() for c in cliques if len(c) == top - 1),
        V == 0 or all(len(c) == top for c in cliques if not common(c)),
    )


@settings(max_examples=150, deadline=4000)
@given(graphs())
def test_clique_survey_matches_brute_force(graph):
    adj, marked = graph
    for top in range(len(adj) + 2):
        assert clique_survey(adj, top, marked) == brute_survey(adj, top, marked)


@settings(max_examples=150, deadline=4000)
@given(graphs(), st.data())
def test_clique_survey_within_a_mask_is_the_survey_of_the_induced_graph(graph, data):
    adj, within = graph
    marked = data.draw(st.integers(0, (1 << len(adj)) - 1))
    verts = gcc._bits(within)
    local = [sum(1 << b for b, w in enumerate(verts) if adj[v] >> w & 1) for v in verts]
    marks = sum(1 << b for b, v in enumerate(verts) if marked >> v & 1)
    for top in range(len(verts) + 2):
        assert clique_survey(adj, top, marked, within) == brute_survey(local, top, marks)


def orbit_survey(adj: list[int], top: int, marked: int, turn: list[int]) -> CliqueSurvey:
    """``clique_survey(adj, top, marked)`` from vertex links only:
    ``check_automorphism`` on every vertex, then ``orbit_frame``."""
    if len(turn) != len(adj):
        raise ValueError("the turn is not a permutation of the vertices")
    gcc.check_automorphism(adj, turn, (1 << len(adj)) - 1)

    def link_survey(i: int, below: int) -> CliqueSurvey:
        return clique_survey(adj, top - 1, below, adj[i])

    return gcc.orbit_frame(adj, (1 << len(adj)) - 1, top, marked, turn, link_survey)


@pytest.mark.parametrize(
    "adj,top,marked,expected",
    [
        # no vertices: pure at every top, and one ridge (the empty clique) at top 1
        ([], 0, 0, ([1], 1, frozenset(), True)),
        ([], 1, 0, ([1, 0], 0, frozenset({0}), True)),
        ([], 2, 0, ([1, 0, 0], 0, frozenset(), True)),
        # top 0 on a nonempty graph: the empty clique is not maximal
        ([0b10, 0b01], 0, 0b01, ([1], 1, frozenset(), False)),
        # top 1: the empty ridge sees every vertex; an edge makes it impure
        ([0b10, 0b01], 1, 0b01, ([1, 2], 1, frozenset({2}), False)),
        ([0, 0], 1, 0b01, ([1, 2], 1, frozenset({2}), True)),
        # a triangle at top 2: every edge has a common neighbor
        ([0b110, 0b101, 0b011], 2, 0b001, ([1, 3, 3], 1, frozenset({2}), False)),
        # an isolated vertex is a ridge with no common neighbor at top 2
        ([0b010, 0b001, 0], 2, 0, ([1, 3, 1], 1, frozenset({0, 1}), False)),
    ],
)
def test_clique_survey_edge_cases(adj, top, marked, expected):
    assert clique_survey(adj, top, marked) == CliqueSurvey(*expected)
    assert brute_survey(adj, top, marked) == CliqueSurvey(*expected)
    assert orbit_survey(adj, top, marked, list(range(len(adj)))) == CliqueSurvey(*expected)


@st.composite
def symmetric_graphs(draw):
    """A graph on at most 10 vertices that a random permutation ``turn``
    preserves: a union of edge orbits of ``turn``.  Up to two further
    vertices, which ``turn`` permutes among themselves, get no edge, so
    their links are empty.  Also a facet size 0..5 and a marked set."""
    V = draw(st.integers(0, 8))
    extra = draw(st.integers(0, 2))
    turn = draw(st.permutations(range(V))) + [V + t for t in draw(st.permutations(range(extra)))]
    adj = [0] * (V + extra)
    pairs = [(i, j) for i in range(V) for j in range(V) if i != j]
    for edge in draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []:
        i, j = edge
        while True:  # the edge orbit
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            i, j = turn[i], turn[j]
            if (i, j) == edge:
                break
    marked = draw(st.integers(0, (1 << (V + extra)) - 1))
    return adj, turn, draw(st.integers(0, 5)), marked


@settings(max_examples=200, deadline=4000)
@given(symmetric_graphs(), st.data())
def test_orbit_survey_matches_brute_force(graph, data):
    adj, turn, top, marked = graph
    expected = brute_survey(adj, top, marked)
    assert orbit_survey(adj, top, marked, turn) == expected
    assert clique_survey(adj, top, marked) == expected
    # the same graph with one edge flipped that the turn moves elsewhere
    moved = [(i, j) for i in range(len(adj)) for j in range(i)
             if {turn[i], turn[j]} != {i, j}]
    if moved:
        i, j = data.draw(st.sampled_from(moved))
        broken = list(adj)
        broken[i] ^= 1 << j
        broken[j] ^= 1 << i
        with pytest.raises(ValueError, match="automorphism"):
            orbit_survey(broken, top, marked, turn)
    if len(adj) >= 2:
        with pytest.raises(ValueError, match="permutation"):
            orbit_survey(adj, top, marked, [turn[0]] + turn[:-1])


@pytest.mark.parametrize(
    "adj,turn",
    [
        ([0b10, 0b01], [0]),  # too short
        ([0b10, 0b01], [0, 1, 2]),  # too long
        ([0b10, 0b01], [1, 1]),  # not one-to-one
        ([0b010, 0b001, 0], [0, 2, 1]),  # moves the edge 0-1 onto a non-edge
    ],
)
def test_orbit_survey_refuses_a_map_that_is_not_an_automorphism(adj, turn):
    for top in range(4):
        with pytest.raises(ValueError):
            orbit_survey(adj, top, 0, turn)


def _orbits(turn: list[int]) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in range(len(turn)):
        orbit = []
        while start not in seen:
            seen.add(start)
            orbit.append(start)
            start = turn[start]
        if orbit:
            out.append(orbit)
    return out


def _counting_kernel(monkeypatch) -> list[int]:
    """Record the number of vertices each ``clique_survey`` call surveys:
    those of its ``within`` mask, or of the whole graph."""
    calls: list[int] = []
    real = gcc.clique_survey

    def counting(adj, top, marked=0, within=None):
        calls.append(len(adj) if within is None else within.bit_count())
        return real(adj, top, marked, within)

    monkeypatch.setattr(gcc, "clique_survey", counting)
    return calls


def test_complex_survey_runs_one_link_per_marked_vertex_or_orbit(monkeypatch):
    cx = build_complex(parse_diagram("E6"), 2)
    V = cx.num_vertices()
    negative = [i for i, v in enumerate(layout(cx)) if cx.systems[v.comp].is_negative(v.root)]
    orbits = _orbits([cx.rotate_vertex(i) for i in range(V)])
    unmarked = [o for o in orbits if not set(o) & set(negative)]
    # the colored rotation meets a negative simple in every orbit, and
    # -w0 acts on E6, so some orbits meet two
    assert unmarked == [] and len(orbits) < len(negative)
    calls = _counting_kernel(monkeypatch)
    survey = cx.survey
    # the parabolic recursion runs the kernel on A1s only: the rank-1
    # states it reaches and the links in its rank-2 parabolics
    assert len(calls) == 14
    assert all(size < V for size in calls)
    assert survey == clique_survey(cx.adj, cx.n, sum(1 << i for i in negative))


SURVEY_DIAGRAMS = (
    ["n=0;", "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
     "D4", "D5", "D6", "E6", "F4", "G2", "H3"]
    + ["n=4; 1-2:3 3-4:4", "n=3; 2-3:5", "n=5; 1-2:3 4-5:5"]  # reducible
)
SURVEY_CASES = ([(d, m) for d in SURVEY_DIAGRAMS for m in range(4)]
                + [("E7", 1), ("E7", 2), ("E8", 1)])


@pytest.mark.parametrize("spec,m", SURVEY_CASES)
def test_complex_survey_equals_the_survey_of_the_whole_graph(spec, m):
    cx = build_complex(parse_diagram(spec), m)
    assert cx.survey == clique_survey(cx.adj, cx.n, cx.negative_mask())


E6_A2 = "n=8; 1-2:3 2-3:3 3-4:3 4-5:3 3-6:3 7-8:3"


@pytest.mark.parametrize("spec,m", SURVEY_CASES + [("E8", 2), ("E7", 3), ("D8", 2), (E6_A2, 2)])
def test_adjacency_equals_the_five_case_rule(spec, m):
    cx = build_complex(parse_diagram(spec), m)
    assert cx.adj == five_case_adjacency(cx)


def _swap_written_images(monkeypatch, real, a: int, b: int) -> None:
    """Make ``CliqueComplex.write_turn`` (``real``) swap the images of
    the positions a and b once it has written them."""
    def swapped(self, turn, comp, rids, images):
        mask = real(self, turn, comp, rids, images)
        turn[a], turn[b] = turn[b], turn[a]
        return mask

    monkeypatch.setattr(CliqueComplex, "write_turn", swapped)


@pytest.mark.parametrize("spec,a,b,check", [
    ("A2", 0, 1, "arrives"),  # -alpha_1 and -alpha_2
    ("A3", 0, 2, "not symmetric"),  # -alpha_1 and -alpha_3
])
def test_colored_rows_refuse_a_rotation_with_two_images_swapped(monkeypatch, spec, a, b, check):
    rs = RootSystem(parse_diagram(spec))
    _swap_written_images(monkeypatch, CliqueComplex.write_turn, a, b)
    with pytest.raises(LookupMiss, match=check):
        CliqueComplex([rs], 1)


@pytest.mark.parametrize("spec,m", [("A2", 2), ("A3", 1), ("B2", 2), ("A3", 2), ("B3", 1),
                                    ("G2", 2), ("A4", 1), ("D4", 1)])
def test_colored_rotation_with_any_two_images_swapped_builds_no_wrong_graph(monkeypatch, spec, m):
    """Each swap of two images of R_m either raises or, where the swap
    leaves the rows unchanged, builds the right graph.  The row checks
    alone pass nine wrong tables here; the order check refuses them."""
    rs = RootSystem(parse_diagram(spec))
    right = CliqueComplex([rs], m).adj
    real = CliqueComplex.write_turn
    refused = 0
    for (a, u), (b, v) in itertools.combinations(enumerate(colored_ground_set([rs], m)), 2):
        _swap_written_images(monkeypatch, real, a, b)
        try:
            cx = CliqueComplex([rs], m)
        except LookupMiss:
            refused += 1
            continue
        assert cx.adj == right, f"the swap of the images of {u} and {v} built a wrong graph"
    assert refused


@pytest.mark.parametrize("spec,ms", [(s, (1, 2, 3)) for s in (
    "A1", "A2", "A3", "A4", "B2", "B3", "G2", "D4", "D5", "E6", "E7", "F4", "H3", "H4", "I2(5)")]
    + [("E8", (1, 2)), ("n=5; 1-2:3 4-5:5", (1, 2))])
def test_colored_rotation_has_the_order_the_paper_gives(spec, ms):
    """(mh+2)/2 when w0 = -1, mh+2 otherwise: ``CliqueComplex`` checks it
    on each component, so a build that does not raise has these orders."""
    for m in ms:
        cx = build_complex(parse_diagram(spec), m)
        for c, rs in enumerate(cx.systems):
            want = (m * rs.h + 2) // (2 if rs.classification.minus_one_longest else 1)
            orbits = [o for o in _orbits(cx.turn) if cx.starts[c] <= o[0] < cx.starts[c + 1]]
            assert math.lcm(*map(len, orbits)) == want


def test_colored_rows_refuse_a_rotation_of_the_wrong_order(monkeypatch):
    rs = RootSystem(parse_diagram("A2"))
    monkeypatch.setattr(rs, "h", 4)
    with pytest.raises(LookupMiss, match="R_1 has order 5 on A2, not 6"):
        CliqueComplex([rs], 1)


@pytest.mark.parametrize("spec,m,check", [("A2", 1, "arrives"), ("B2", 2, "not symmetric")])
def test_colored_rows_refuse_a_tampered_negative_simple_row(spec, m, check):
    rs = RootSystem(parse_diagram(spec))
    rs.support_masks[rs.n] ^= 1  # alpha_1 avoids 1: the row of -alpha_1 gains it
    with pytest.raises(LookupMiss, match=check):
        CliqueComplex([rs], m)


def test_colored_rows_refuse_an_orbit_without_a_negative_simple(monkeypatch):
    rs = RootSystem(parse_diagram("A3"))
    assert [1, 4, 8] == [1, rs.rotation[1], rs.rotation[4]] and rs.rotation[8] == 1
    real = CliqueComplex.negative_mask
    # -alpha_2 is the one negative simple of its R_1 orbit; left out, the orbit meets none
    monkeypatch.setattr(CliqueComplex, "negative_mask", lambda self: real(self) & ~0b10)
    with pytest.raises(LookupMiss, match="meets no negative simple"):
        CliqueComplex([rs], 1)


@pytest.mark.parametrize("spec,m", [("E8", 1), ("E7", 2)])
def test_complex_survey_enumerates_cliques_on_rank_one_leaves_only(monkeypatch, spec, m):
    cx = build_complex(parse_diagram(spec), m)
    tops: list[int] = []
    real = gcc.clique_survey

    def counting(adj, top, marked=0, within=None):
        tops.append(top)
        assert within.bit_count() == m + 1  # an A1: its negative simple and m colors of its root
        return real(adj, top, marked, within)

    monkeypatch.setattr(gcc, "clique_survey", counting)
    cx.survey
    assert tops and set(tops) == {1}


def _without_edge_orbit(cx: CliqueComplex, i: int, j: int) -> list[int]:
    """``cx.adj`` less the orbit of the edge i-j under the colored
    rotation, which stays an automorphism."""
    adj = list(cx.adj)
    a, b = i, j
    while True:
        adj[a] &= ~(1 << b)
        adj[b] &= ~(1 << a)
        a, b = cx.rotate_vertex(a), cx.rotate_vertex(b)
        if {a, b} == {i, j}:
            return adj


@pytest.mark.parametrize("spec,m", [("n=4; 1-2:3 3-4:4", 1), ("n=3; 2-3:5", 2)])
def test_complex_survey_reads_a_join_only_where_the_graph_is_one(spec, m):
    cx = build_complex(parse_diagram(spec), m)
    last = cx.num_vertices() - 1
    verts = layout(cx)
    assert verts[0].comp != verts[last].comp and cx.adj[0] >> last & 1
    cx.adj = _without_edge_orbit(cx, 0, last)  # no longer the join of its components
    assert cx.survey == clique_survey(cx.adj, cx.n, cx.negative_mask())
    assert cx.survey.counts[2] < build_complex(parse_diagram(spec), m).f_vector()[2]


def test_complex_survey_checks_each_parabolic_rotation(monkeypatch):
    cx = build_complex(parse_diagram("A3"), 2)
    rs = cx.systems[0]
    real = RootSystem.rotation_within
    a, b = rs.n, rs.n + 1  # alpha_1 and alpha_2, the roots of the parabolic A2 on {1, 2}

    def broken(self, within):
        rids, images = real(self, within)
        if within == 0b011:  # the images of alpha_1 and alpha_2 swapped
            at = {rid: k for k, rid in enumerate(rids)}
            images = [images[at[b if rid == a else a if rid == b else rid]] for rid in rids]
        return rids, images

    monkeypatch.setattr(RootSystem, "rotation_within", broken)
    with pytest.raises(ValueError, match="automorphism"):
        cx.survey


@st.composite
def stepping_maps(draw):
    """A vertex map ``turn`` read at the vertices of ``within`` (-1
    elsewhere), sending some of them to the next vertex and the others
    anywhere, and a mask within ``within``, possibly empty.  Some maps
    step no vertex."""
    V = draw(st.integers(0, 12))
    within = draw(st.integers(0, (1 << V) - 1))
    turn = [-1] * V
    for v in range(V):
        if within >> v & 1:
            step = v + 1 < V and draw(st.booleans())
            turn[v] = v + 1 if step else draw(st.integers(0, V - 1))
    mask = draw(st.integers(0, (1 << V) - 1)) & within
    return turn, within, mask


@settings(max_examples=300, deadline=4000)
@given(stepping_maps())
def test_stepped_split_equals_the_bit_walk(drawn):
    turn, within, mask = drawn
    step, to = gcc._stepped(turn, gcc._bits(within))
    assert not step & ~within and all(turn[v] == v + 1 for v in gcc._bits(step))
    moved = mask & step
    walk = [1 << t if within >> v & 1 else 0 for v, t in enumerate(turn)]
    assert moved << 1 | gcc._image(mask ^ moved, to) == gcc._image(mask, walk)


@st.composite
def stepping_graphs(draw):
    """A graph on at most 12 vertices that ``turn`` preserves, where
    ``turn`` steps most vertices to the next one, as the colored
    rotations do: runs of consecutive vertices, each stepping up to its
    last, which goes to the first vertex of a run (a permutation of the
    runs).  The graph is a union of edge orbits of ``turn``."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    starts = list(itertools.accumulate([0] + sizes))
    order = draw(st.permutations(range(len(sizes))))
    turn: list[int] = []
    for r, size in enumerate(sizes):
        turn += list(range(starts[r] + 1, starts[r + 1])) + [starts[order[r]]]
    V = len(turn)
    adj = [0] * V
    pairs = [(i, j) for i in range(V) for j in range(V) if i != j]
    for edge in draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []:
        i, j = edge
        while True:  # the edge orbit
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            i, j = turn[i], turn[j]
            if (i, j) == edge:
                break
    return adj, turn


@settings(max_examples=200, deadline=4000)
@given(stepping_graphs(), st.data())
def test_check_automorphism_on_turns_that_step(graph, data):
    adj, turn = graph
    full = (1 << len(adj)) - 1
    gcc.check_automorphism(adj, turn, full)
    # on a union of orbits of ``turn``, read from a list that is garbage
    # elsewhere
    orbits = _orbits(turn)
    within = sum(1 << v for o in orbits if data.draw(st.booleans()) for v in o)
    partial = [t if within >> v & 1 else -1 for v, t in enumerate(turn)]
    gcc.check_automorphism(adj, partial, within)
    # each edge flip that the turn moves elsewhere is found, stepped or not
    moved = [(i, j) for i in range(len(adj)) for j in range(i)
             if {turn[i], turn[j]} != {i, j}]
    if moved:
        i, j = data.draw(st.sampled_from(moved))
        broken = list(adj)
        broken[i] ^= 1 << j
        broken[j] ^= 1 << i
        with pytest.raises(ValueError, match="automorphism"):
            gcc.check_automorphism(broken, turn, full)


@st.composite
def join_parts(draw):
    """Two or three graphs of at most 4 vertices, each pure: a complete
    multipartite graph, with a facet size and marks."""
    parts = []
    for _ in range(draw(st.integers(2, 3))):
        sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        blocks = [b for b, size in enumerate(sizes) for _ in range(size)]
        adj = [sum(1 << w for w, c in enumerate(blocks) if c != b) for b in blocks]
        parts.append((adj, len(sizes), draw(st.integers(0, (1 << len(blocks)) - 1))))
    return parts


@settings(max_examples=100, deadline=4000)
@given(join_parts())
def test_join_survey_matches_the_survey_of_the_join(parts):
    V = sum(len(local) for local, _, _ in parts)
    adj: list[int] = []
    masks, marked = [], 0
    for local, _, marks in parts:
        start = len(adj)
        mask = ((1 << len(local)) - 1) << start
        masks.append(mask)
        marked |= marks << start
        adj += [a << start | ((1 << V) - 1) & ~mask for a in local]
    top = sum(t for _, t, _ in parts)
    surveys = [clique_survey(local, t, marks) for local, t, marks in parts]
    assert all(s.pure for s in surveys)
    assert gcc.is_join(adj, masks)
    assert gcc.join_survey(surveys) == clique_survey(adj, top, marked) == brute_survey(adj, top, marked)
    # one cross edge dropped: not a join any more
    i, j = masks[0].bit_length() - 1, masks[1].bit_length() - 1
    adj[i] &= ~(1 << j)
    adj[j] &= ~(1 << i)
    assert not gcc.is_join(adj, masks)


def test_join_survey_refuses_an_impure_part():
    with pytest.raises(ValueError, match="impure"):
        gcc.join_survey([clique_survey([0b10, 0b01, 0], 2)])


def test_rotate_vertex_refuses_m_zero(monkeypatch):
    cx = build_complex(parse_diagram("B3"), 0)
    with pytest.raises(InputError, match="m >= 1"):
        cx.rotate_vertex(0)

    def refuse(self, i):
        raise AssertionError("the survey rotated a vertex at m = 0")

    monkeypatch.setattr(CliqueComplex, "rotate_vertex", refuse)
    assert cx.survey == CliqueSurvey([1, 3, 3, 1], 0, frozenset({1}), True)


def test_reducible_complex_audits():
    G = parse_diagram("n=4; 1-2:3 3-4:4")  # A2 x B2
    cx = build_complex(G, 2)
    assert cx.audit_pure() and cx.audit_ridge_degree()
    nplus = N_plus_product("A2", 2) * N_plus_product("B2", 2)
    assert cx.positive_facet_count() == nplus == 70


def test_export_json_deterministic(capsys):
    """``ccx complex --facets`` prints the same vertices and facets twice."""
    blobs = []
    for _ in range(2):
        assert main(["complex", "--type", "A2", "-m", "1", "--facets"]) == 0
        blobs.append(capsys.readouterr().out)
    data = json.loads(blobs[0])
    assert len(data["vertices"]) == 5
    assert data["f_vector"] == [1, 5, 5]  # five vertices, five edges
    assert len(data["facets"]) == 5
    assert blobs[0] == blobs[1]
