import math

import pytest

from ccx.diagram import parse_diagram, classify
from ccx.gcc import CliqueComplex
from ccx.rootsys import NotFiniteType, RootSystem
from colored_layout import layout

CATALOG = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2", "H3", "H4",
    "I2(5)", "I2(7)", "I2(8)", "I2(12)",
] + [f"I2({a})" for a in range(9, 31) if a != 12]


@pytest.mark.parametrize("name", CATALOG)
def test_positive_root_count_and_rotation_order(name):
    rs = RootSystem(parse_diagram(name))
    cls = classify(rs.diagram)
    h = int(cls.coxeter_number)
    assert rs.num_positive == rs.n * h // 2
    expected_order = (h + 2) // 2 if cls.minus_one_longest else h + 2
    assert rs.rotation_order == expected_order
    assert rs.minus_one_longest == cls.minus_one_longest


def test_not_finite_type_rejected():
    with pytest.raises(NotFiniteType):
        RootSystem(parse_diagram("~A2"))


def test_rank_one_rotation_swaps_signs():
    rs = RootSystem(parse_diagram("A1"))
    assert rs.rotation == [1, 0]


def test_every_orbit_meets_negative_simples():
    for name in ["A3", "B3", "D4", "H3", "I2(7)"]:
        rs = RootSystem(parse_diagram(name))
        seen = set()
        for start in range(rs.size):
            if start in seen:
                continue
            orbit = [start]
            cur = rs.rotation[start]
            while cur != start:
                orbit.append(cur)
                cur = rs.rotation[cur]
            seen.update(orbit)
            assert any(rs.is_negative(r) for r in orbit)


def test_orbit_size_small_rank():
    rs = RootSystem(parse_diagram("A2"))
    orbit = [0]
    cur = rs.rotation[0]
    while cur != 0:
        orbit.append(cur)
        cur = rs.rotation[cur]
    assert len(orbit) == 5  # h + 2 with h = 3


def compatibility(rs: RootSystem) -> list[int]:
    """Uncolored compatibility as bit masks on root ids: the colored
    complex at m = 1, whose vertex positions are the root ids."""
    cx = CliqueComplex([rs], 1)
    assert [v.root for v in layout(cx)] == list(range(rs.size))
    return cx.adj


def test_negative_simple_compatibility_rules():
    rs = RootSystem(parse_diagram("B3"))
    adj = compatibility(rs)
    for i in range(rs.n):
        for j in range(rs.n):
            if i != j:
                assert adj[i] >> j & 1
        # the positive copy of the same simple root is never compatible
        pos_same = rs.root_id([1.0 if t == i else 0.0 for t in range(rs.n)])
        assert not adj[i] >> pos_same & 1


def test_simple_roots_incompatible_when_adjacent():
    rs = RootSystem(parse_diagram("A2"))
    adj = compatibility(rs)
    a1 = rs.root_id([1.0, 0.0])
    a2 = rs.root_id([0.0, 1.0])
    assert not adj[a1] >> a2 & 1
    assert sum(a.bit_count() for a in adj) == 2 * 5  # pentagon


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "B4", "D4", "F4", "H3", "I2(6)"])
def test_compatibility_rotation_invariant_and_symmetric(name):
    rs = RootSystem(parse_diagram(name))
    adj = compatibility(rs)
    for a in range(rs.size):
        for b in range(a + 1, rs.size):
            c = rs.compatible(a, b)
            assert c == rs.compatible(b, a) == bool(adj[a] >> b & 1)
            assert c == rs.compatible(rs.rotation[a], rs.rotation[b])


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4"])
def test_compatibility_first_hit_is_well_defined(name):
    # rotating until *either* root is negative simple must not depend on
    # which one lands first
    rs = RootSystem(parse_diagram(name))

    def compat_preferring(x, y, prefer_first):
        for _ in range(rs.rotation_order + 1):
            first, second = (x, y) if prefer_first else (y, x)
            if rs.is_negative(first):
                return not rs.support_masks[second] >> first & 1
            if rs.is_negative(second):
                return not rs.support_masks[first] >> second & 1
            x, y = rs.rotation[x], rs.rotation[y]
        raise AssertionError("no negative simple reached")

    for a in range(rs.size):
        for b in range(rs.size):
            if a == b:
                continue
            assert compat_preferring(a, b, True) == compat_preferring(a, b, False)


def test_b2_roots_match_crystallographic_directions():
    rs = RootSystem(parse_diagram("B2"))
    rounded = {tuple(round(c, 4) for c in r) for r in rs.positive_roots}
    # alpha1 + sqrt2 alpha2 and sqrt2 alpha1 + alpha2 are the unit-length
    # images of alpha1 + alpha2 and 2 alpha1 + alpha2
    assert (1.0, 1.4142) in rounded and (1.4142, 1.0) in rounded


def test_dihedral_float_roots_match_closed_form():
    # the positive roots of I2(a) are (s_(k+1), s_k), k = 0..a-1, with
    # s_k = sin(k pi/a)/sin(pi/a); their exact coefficients grow like
    # (1 + sqrt2)^k, so the floats must not be summed from them
    for a in [*range(3, 122), 500]:
        rs = RootSystem(parse_diagram(f"I2({a})"))
        s = [math.sin(k * math.pi / a) / math.sin(math.pi / a) for k in range(a + 1)]
        expected = [(s[k + 1], s[k]) for k in range(a)]
        assert len(rs.positive_roots) == a
        for r in rs.positive_roots:
            gap = min(max(abs(r[0] - x), abs(r[1] - y)) for x, y in expected)
            assert gap <= 1e-9, (a, r)


def test_parabolic_identity_and_empty():
    rs = RootSystem(parse_diagram("B3"))
    full = rs.parabolic_embeddings(set(rs.diagram.vertices))
    assert len(full) == 1
    crs, emb = full[0]
    assert sorted(emb.values()) == list(range(rs.size))
    assert rs.parabolic_embeddings(set()) == []


def test_parabolic_b3_contains_dihedral():
    rs = RootSystem(parse_diagram("B3"))
    embs = rs.parabolic_embeddings({2, 3})
    assert len(embs) == 1
    crs, emb = embs[0]
    assert crs.num_positive == 4  # I2(4)
    for sub_rid, parent_rid in emb.items():
        assert crs.is_negative(sub_rid) == rs.is_negative(parent_rid)


def test_parabolic_inherits_sign_classes():
    rs = RootSystem(parse_diagram("A3"))
    (crs, _), = rs.parabolic_embeddings({2, 3})
    assert crs.I_plus == frozenset({3})
    assert crs.I_minus == frozenset({2})


def dump_roots(rs: RootSystem) -> str:
    """One root per line, coordinates to 6 decimals."""
    return "\n".join(f"{rid}\t" + " ".join(f"{c:.6f}" for c in coords)
                     for rid, coords in enumerate(rs.roots))


def test_root_dump_format():
    rs = RootSystem(parse_diagram("A2"))
    lines = dump_roots(rs).splitlines()
    assert len(lines) == rs.size
    assert lines[0].split("\t")[1] == "-1.000000 0.000000"


@pytest.mark.parametrize("name", ["A3", "B3", "A4", "B4", "D4", "F4", "H4"])
def test_restriction_of_compatibility_all_parabolics(name):
    # non-colored compatibility agrees between the full system and every
    # parabolic subsystem
    import itertools

    rs = RootSystem(parse_diagram(name))
    adj = compatibility(rs)
    verts = list(rs.diagram.vertices)
    for size in range(1, rs.n):
        for J in itertools.combinations(verts, size):
            for crs, emb in rs.parabolic_embeddings(J):
                sub = compatibility(crs)
                ids = sorted(emb)
                for a in ids:
                    for b in ids:
                        if a < b:
                            assert sub[a] >> b & 1 == adj[emb[a]] >> emb[b] & 1, (name, J, a, b)


@pytest.mark.parametrize("name", CATALOG)  # every type up to rank 8, H3, H4, I2(5), I2(7)
def test_reflection_table_matches_the_coordinates(name):
    # s_i on every root id, against the Z[zeta] reflection; a root that
    # leaves the almost-positive ids (s_i of -alpha_j, j a neighbour of i)
    # has no entry
    rs = RootSystem(parse_diagram(name))
    for i in range(rs.n):
        assert len(rs.reflection[i]) == rs.size
        for rid in range(rs.size):
            assert rs.reflection[i][rid] == rs._index.get(rs._reflect(i, rs.exact[rid]))
            if not rs.is_negative(rid):
                assert rs.reflection[i][rid] is not None


def coordinate_rotation(rs: RootSystem) -> list[int]:
    """The rotation from the two twists, each reflecting Z[zeta]
    coordinates class by class."""

    def twist(own, other, rid):
        if rs.is_negative(rid) and rs.diagram.vertices[rid] in other:
            return rid
        root = rs.exact[rid]
        for v in own:
            root = rs._reflect(rs.vertex_index[v], root)
        return rs._index[root]

    return [twist(rs.I_minus, rs.I_plus, twist(rs.I_plus, rs.I_minus, rid))
            for rid in range(rs.size)]


@pytest.mark.parametrize("name", CATALOG)
def test_rotation_from_the_table_matches_the_coordinates(name):
    rs = RootSystem(parse_diagram(name))
    assert rs.rotation == coordinate_rotation(rs)
    assert rs.rotation_within((1 << rs.n) - 1) == (list(range(rs.size)), rs.rotation)


@pytest.mark.parametrize("name", ["A4", "B4", "D5", "E6", "F4", "G2", "H3", "H4", "I2(5)", "I2(7)"])
def test_parabolic_rotation_matches_the_parabolic_root_system(name):
    # the rotation within a set J of simple indices, as one pass over J's
    # roots, against the rotation of each component's own root system
    # (inherited bipartition), taken from its coordinates and carried
    # through its embedding; within J or within the component alone
    import itertools

    rs = RootSystem(parse_diagram(name))
    verts = list(rs.diagram.vertices)
    for size in range(1, rs.n + 1):
        for J in itertools.combinations(verts, size):
            within = sum(1 << rs.vertex_index[v] for v in J)
            passed = dict(zip(*rs.rotation_within(within)))
            for crs, emb in rs.parabolic_embeddings(J):
                comp = sum(1 << rs.vertex_index[v] for v in crs.diagram.vertices)
                alone = dict(zip(*rs.rotation_within(comp)))
                rotation = coordinate_rotation(crs)
                for rid in range(crs.size):
                    image = emb[rotation[rid]]
                    assert passed[emb[rid]] == image, (name, J, rid)
                    assert alone[emb[rid]] == image, (name, J, rid)
                    assert rs.support_masks[emb[rid]] & ~comp == 0


@pytest.mark.parametrize("name", ["A4", "B4", "D5", "E6", "F4", "G2", "H3", "H4", "I2(5)", "I2(8)"])
def test_rotation_within_equals_the_rotation_of_each_root(name):
    # the per-table pass over a parabolic's roots, against the twists
    # applied to one root at a time, on every mask of simple indices
    rs = RootSystem(parse_diagram(name))
    for within in range(1 << rs.n):
        rids, images = rs.rotation_within(within)
        assert rids == [rid for rid in range(rs.size) if not rs.support_masks[rid] & ~within]
        assert images == [rs._twists([rid], within)[0] for rid in rids], (name, within)
    assert rs.rotation_within((1 << rs.n) - 1) == (list(range(rs.size)), rs.rotation)


def test_float_roots_are_replayed_when_first_read(monkeypatch):
    """Work counts, no clock: building E8 reflects no float coordinates;
    reading ``roots`` replays one float reflection per positive root that
    is not simple, and reading it again none."""
    calls = []
    real = RootSystem._reflect_float

    def counting(self, i, coords):
        calls.append(i)
        return real(self, i, coords)

    monkeypatch.setattr(RootSystem, "_reflect_float", counting)
    rs = RootSystem(parse_diagram("E8"))
    assert calls == []
    rs.roots
    assert len(calls) == rs.num_positive - rs.n == 112
    rs.positive_roots, rs.roots
    assert len(calls) == 112


@pytest.mark.parametrize("name", ["A5", "D5", "E6", "B4", "H3", "I2(7)"])
def test_support_and_index_match_the_coordinates(name):
    # the support masks tracked through the closure, and the lazily built
    # coordinate index, against the coordinates
    rs = RootSystem(parse_diagram(name))
    for rid, root in enumerate(rs.exact):
        supp = {j for j, c in enumerate(root) if any(c)}
        assert rs.support_masks[rid] == sum(1 << j for j in supp)
        assert rs._index[root] == rid
        assert all(len(c) == rs.degree for c in root)
