import hashlib
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccx import exactmath, formulas, invariants, tables
from ccx.diagram import CoxeterDiagram, DiagramError, parse_diagram, subset_lattice
from ccx.exactmath import Poly
from ccx.formulas import (
    TypeInfo,
    N_plus_product,
    N_product,
    f_k_closed,
    f_plus_poly,
    f_polys_recursive,
    f_vector_closed,
    face_polys,
    h_k_closed,
    h_vector_closed,
    h_vector_from_f,
    reduced_euler,
)
from ccx.invariants import compute_all
from face_oracle import face_polys_per_entry


# The paper's closed forms for type A and the type-B model, kept here as
# oracles independent of the formulas under test.


def f_plus(info, k: int, m) -> F:
    """The reciprocal face number f+_k(m) from the closed form."""
    return f_plus_poly(f_k_closed(info, k), k)(m)


def kirkman_cayley(n: int, k: int) -> F:
    return F(comb(n, k) * comb(n + k + 2, k), k + 1)


def fuss_number(n: int, m: int) -> F:
    return F(comb((n + 1) * (m + 1), n), n + 1)


def binomial_poly(p: Poly, k: int) -> Poly:
    """binom(p, k) expanded as the falling factorial p(p-1)...(p-k+1)/k!."""
    if k < 0:
        return Poly()
    out = Poly([1])
    fact = 1
    for t in range(k):
        out = out * (p - t)
        fact *= t + 1
    return out / fact


def binomial_forms(info, k: int) -> tuple[Poly, Poly]:
    """f_k and h_k of a classical type (A, B or D) by the binomial forms
    of Fomin-Reading and Athanasiadis."""
    n = info.n
    if info.family == "A":
        f = binomial_poly(Poly([k + 1, n + 1]), k) * comb(n, k) / (k + 1)
        return f, binomial_poly(Poly([0, n + 1]), k) * comb(n, k) / (k + 1)
    if info.family == "B":
        return binomial_poly(Poly([k, n]), k) * comb(n, k), binomial_poly(Poly([0, n]), k) * comb(n, k)
    low = comb(n - 2, k - 2) if k >= 2 else 0
    f = binomial_poly(Poly([k, n - 1]), k) * comb(n, k)
    h = binomial_poly(Poly([0, n - 1]), k) * comb(n, k)
    return f + binomial_poly(Poly([k - 1, n - 1]), k) * low, h + binomial_poly(Poly([1, n - 1]), k) * low


def exponent_products(info) -> tuple[Poly, Poly]:
    """The facet count prod (hm + e + 1)/(e + 1) and the positive facet
    count prod (hm + e - 1)/(e + 1), over the exponents e."""
    facets, positive = Poly([1]), Poly([1])
    for e in info.exponents:
        facets = facets * Poly([e + 1, info.h]) / (e + 1)
        positive = positive * Poly([e - 1, info.h]) / (e + 1)
    return facets, positive


def h_vector(info, m: int) -> list[F]:
    """h-vector of the m-colored complex from the closed-form f-vector."""
    return h_vector_from_f([f_k_closed(info, k, m) for k in range(info.n + 1)])


def diameter_face_count(n: int, k: int, m: int) -> int:
    """k-element faces of the type-B model containing a diameter."""
    return comb(n - 1, k - 1) * comb(n * m + k, k)


class IdentityViolated(AssertionError):
    pass


def reduced_euler_checked(info, fvec) -> int:
    """Reduced Euler characteristic with the facet-count identity
    asserted: it must equal +-N(type, m-1) with sign (-1)^(n-1)."""
    info = TypeInfo.of(info)
    n = len(fvec) - 1
    chi = reduced_euler(fvec)
    m = None
    # recover m from f_1 = m*|positives| + n
    num_pos = info.n * info.h // 2
    if n >= 1:
        m = F(fvec[1] - info.n, num_pos)
    expected = (-1) ** (n - 1) * N_product(info, m - 1)
    if chi != expected:
        raise IdentityViolated(f"chi={chi} but (-1)^(n-1) N(m-1)={expected}")
    return chi

ALL_TYPES = [
    ("A1", TypeInfo("A", 1)),
    ("A2", TypeInfo("A", 2)),
    ("A5", TypeInfo("A", 5)),
    ("B2", TypeInfo("B", 2)),
    ("B4", TypeInfo("B", 4)),
    ("D4", TypeInfo("D", 4)),
    ("D5", TypeInfo("D", 5)),
    ("D8", TypeInfo("D", 8)),
    ("E6", TypeInfo("E6", 6)),
    ("E7", TypeInfo("E7", 7)),
    ("E8", TypeInfo("E8", 8)),
    ("F4", TypeInfo("F4", 4)),
    ("H3", TypeInfo("H3", 3)),
    ("H4", TypeInfo("H4", 4)),
    ("I2(7)", TypeInfo("I2", 2, 7)),
]


def test_type_names_resolve_through_the_diagram_parser():
    def key(info):
        return (info.family, info.n, info.a)

    h2 = TypeInfo.of("H2")
    assert key(h2) == ("I2", 2, 5)
    assert (h2.h, h2.exponents, h2.levels) == (5, [1, 4], [(1, 1), (4, 2)])
    with pytest.raises(DiagramError):
        TypeInfo.of("E9")
    g2 = key(TypeInfo.of("G2"))
    assert g2 == ("I2", 2, 6)
    assert key(TypeInfo.of("I2(6)")) == g2 == key(TypeInfo.of(parse_diagram("G2")))


def _tables_dump() -> str:
    lines = []
    for fam in ("A", "B", "D", "I2"):
        lines.append(f"levels {fam} {tables.exponent_levels(fam, 8, 9)}")
    for fam in ("E6", "E7", "E8", "F4", "G2", "H3", "H4"):
        lines.append(f"levels {fam} {tables.exponent_levels(fam, 0)}")
    for table, tag in ((tables.FACE_CORRECTIONS, "cf"), (tables.H_CORRECTIONS, "ch")):
        for key in sorted(table):
            lines.append(f"{tag} {key} {table[key].serialize()}")
    for table, tag in ((tables.FACE_CORRECTIONS_D8, "cfD8"), (tables.H_CORRECTIONS_D8, "chD8")):
        for key in sorted(table):
            lines.append(f"{tag} {key} {table[key].serialize()}")
    return "\n".join(lines)


TABLES_DIGEST = "80f1f04e06fb47241e9971a10ca99859303e192b37a22da3b5a4540ceb804213"


def test_tables_self_check():
    """Digest audit of ``ccx.tables`` plus the two structural laws the
    factors satisfy: constant terms of the face factors are 1 and their
    degree is k minus the number of exponents at level <= k."""
    assert hashlib.sha256(_tables_dump().encode()).hexdigest() == TABLES_DIGEST
    for (fam, k), poly in tables.FACE_CORRECTIONS.items():
        assert poly.coeff(0) == 1
        low = sum(1 for _, lv in tables.exponent_levels(fam, 0) if lv <= k)
        assert poly.degree == k - low, (fam, k)
    for k, poly in tables.FACE_CORRECTIONS_D8.items():
        assert poly.coeff(0) == 1
        coeffs, den = tables.face_correction("D", 8, k)
        assert poly == Poly(coeffs) / den, ("D8", k)
    for k, poly in tables.H_CORRECTIONS_D8.items():
        coeffs, den = tables.h_correction("D", 8, k)
        assert poly == Poly(coeffs) / den, ("D8h", k)


@pytest.mark.parametrize("name,info", ALL_TYPES)
def test_recurrence_equals_closed_forms_symbolically(name, info):
    rec = f_polys_recursive(parse_diagram(name))
    for k in range(info.n + 1):
        closed = f_k_closed(info, k)
        assert rec[k] == closed, (name, k)


@pytest.mark.parametrize("name,info", ALL_TYPES)
def test_h_routes_agree_symbolically(name, info):
    fsym = [f_k_closed(info, k) for k in range(info.n + 1)]
    hsym = h_vector_from_f(fsym)
    for k in range(info.n + 1):
        assert hsym[k] == h_k_closed(info, k), (name, k)


CLASSICAL = (
    [TypeInfo("A", n) for n in range(1, 41)]
    + [TypeInfo("B", n) for n in range(2, 41)]
    + [TypeInfo("D", n) for n in range(4, 41)]
)


@pytest.mark.parametrize("family", ["A", "B", "D"])
def test_level_product_equals_the_binomial_forms(family):
    for info in [info for info in CLASSICAL if info.family == family]:
        for k in range(info.n + 1):
            closed = f_k_closed(info, k), h_k_closed(info, k)
            assert closed == binomial_forms(info, k), (info.n, k)


def test_facet_counts_equal_the_exponent_products():
    exceptional = [TypeInfo.of(name) for name in ("E6", "E7", "E8", "F4", "H3", "H4")]
    dihedral = [TypeInfo("I2", 2, a) for a in range(3, 40)]
    for info in CLASSICAL + exceptional + dihedral:
        top = f_k_closed(info, info.n)
        assert (top, f_plus_poly(top, info.n)) == exponent_products(info), (info.family, info.n)


@pytest.mark.parametrize("name,info", ALL_TYPES)
def test_closed_forms_at_m_are_the_polynomials_evaluated(name, info):
    for k in range(info.n + 1):
        f = f_k_closed(info, k)
        for m in (-2, -1, 0, 1, 3, F(-1, 2), F(5, 3)):
            assert f_k_closed(info, k, m) == f(m), (name, k, m)
    for m in (-1, 0, 2):
        assert N_product(info, m) == f_k_closed(info, info.n)(m)
        assert N_plus_product(info, m) == f_plus_poly(f_k_closed(info, info.n), info.n)(m)


@pytest.mark.parametrize("name,info", ALL_TYPES)
def test_euler_identity_symbolically(name, info):
    n = info.n
    fs = [f_k_closed(info, k) for k in range(n + 1)]
    alternating = Poly()
    for k in range(n + 1):
        alternating = alternating + fs[k] * ((-1) ** (n - k))
    assert alternating == f_k_closed(info, n).shifted_arg(-1)


@pytest.mark.parametrize("name,info", ALL_TYPES)
def test_top_h_number_is_previous_facet_count(name, info):
    assert h_k_closed(info, info.n) == f_k_closed(info, info.n).shifted_arg(-1)


def test_first_face_numbers():
    assert f_k_closed(TypeInfo("A", 1), 1) == Poly([1, 1])
    info = TypeInfo("I2", 2, 9)
    assert f_k_closed(info, 1) == Poly([2, 9])
    assert f_k_closed(info, 2) == Poly([2, 9]) * Poly([1, 1]) / 2


def test_rank3_closed_form_from_recurrence():
    # N(G, m) for the rank-3 diagram with label sum a
    for labels, a in [((4, 3, 2), 9), ((5, 3, 2), 10), ((3, 3, 2), 8)]:
        spec = f"n=3;1-2:{labels[0]} 2-3:{labels[1]} 1-3:{labels[2]}"
        G = parse_diagram(spec)
        rec = f_polys_recursive(G)
        expect = (
            Poly([1, 1]) * Poly([6, a]) * Poly([12 - a, a]) / (6 * (12 - a))
        )
        assert rec[3] == expect


def test_specific_values():
    assert f_k_closed(TypeInfo("A", 2), 2)(2) == 12
    assert f_k_closed(TypeInfo("D", 4), 4)(1) == 50
    assert N_product(TypeInfo("A", 2), 2) == fuss_number(2, 2) == 12
    assert N_product(TypeInfo("H3", 3), 1) == 32
    assert N_product(TypeInfo("A", 2), 1) == 5


def test_e8_quartic_correction_appears():
    # the one non-linear correction factor in the catalog: two exponents
    # of E8 have level <= 4, so the product alone has degree 2
    f4 = f_k_closed(TypeInfo("E8", 8), 4)
    assert f4 == f_polys_recursive(parse_diagram("E8"))[4]
    assert f4.degree == 4


def test_binomial_poly_matches_binomials():
    p = Poly([0, 3])  # 3m
    q = binomial_poly(p, 3)
    for m in range(1, 6):
        assert q(m) == comb(3 * m, 3)


def test_kirkman_cayley_specialization():
    for n in range(1, 7):
        for k in range(n + 1):
            assert f_k_closed(TypeInfo("A", n), k)(1) == kirkman_cayley(n, k)


def test_fuss_specialization():
    for n in range(1, 6):
        for m in range(4):
            assert N_product(TypeInfo("A", n), m) == fuss_number(n, m)


def test_positive_counts():
    assert N_plus_product(TypeInfo("A", 2), 1) == 2
    assert N_plus_product(TypeInfo("H3", 3), 1) == 21
    info = TypeInfo("I2", 2, 5)
    assert f_plus_poly(f_k_closed(info, 2), 2) == Poly([0, F(3, 2), F(5, 2)])


def test_reciprocal_face_numbers():
    # the top reciprocal number is the positive facet count, which
    # test_facet_counts_equal_the_exponent_products checks on every type;
    # here the rank-3 closed form m(am+a-6)(am+2a-12)/(6(12-a))
    G = parse_diagram("H3")
    a = 10
    npoly = f_polys_recursive(G)[3]
    expect = Poly([0, 1]) * Poly([a - 6, a]) * Poly([2 * a - 12, a]) / (6 * (12 - a))
    assert f_plus_poly(npoly, 3) == expect


def test_recurrence_builds_no_diagram_per_subdiagram(monkeypatch):
    """The recurrence classifies each class of subdiagrams on the lattice
    masks; once the catalogs are built, no diagram object is made."""
    G = parse_diagram("E8")
    expect = f_polys_recursive(G)
    built = []
    real = CoxeterDiagram.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CoxeterDiagram, "__init__", counting)
    assert f_polys_recursive(G) == expect
    assert built == []


def test_recurrence_names_the_subdiagram_not_of_finite_type():
    G = parse_diagram("n=6; 1-2:3 2-3:3 4-5:3 5-6:3 6-4:3")
    with pytest.raises(ValueError, match="^n=3; 1-2:3 1-3:3 2-3:3 has no classified"):
        f_polys_recursive(G)


def test_h_vectors():
    assert h_vector(TypeInfo("A", 2), 1) == [1, 3, 1]
    assert h_vector(TypeInfo("I2", 2, 4), 1) == [1, 4, 1]
    assert h_vector(TypeInfo("B", 3), 2) == [
        comb(3, k) * comb(6, k) for k in range(4)
    ]
    for name, info in ALL_TYPES:
        for m in (1, 2):
            hv = h_vector(info, m)
            assert hv[0] == 1
            assert all(x >= 0 for x in hv)
            assert hv[info.n] == N_product(info, m - 1)


def test_reduced_euler():
    assert reduced_euler([1, 8, 12]) == -5
    assert reduced_euler_checked(TypeInfo("A", 2), [1, 8, 12]) == -5
    with pytest.raises(IdentityViolated):
        reduced_euler_checked(TypeInfo("A", 2), [1, 8, 13])
    # simplex case: identity via a vanishing facet-count factor
    for name, info in ALL_TYPES:
        assert N_product(info, -1) == 0
        fv = [comb(info.n, k) for k in range(info.n + 1)]
        assert reduced_euler_checked(info, fv) == 0


def test_diameter_face_count_identities():
    for n in range(2, 5):
        for m in range(1, 4):
            for k in range(1, n + 1):
                val = diameter_face_count(n, k, m)
                assert val == (n * m + 1) * f_k_closed(TypeInfo("A", n - 1), k - 1)(m)
                assert val == F(k, n) * f_k_closed(TypeInfo("B", n), k)(m)
    assert diameter_face_count(2, 1, 3) == 7
    assert diameter_face_count(2, 2, 2) == 15


def test_f_plus_values():
    # (am + a - 2) m / 2 at a=5, m=1
    assert f_plus(TypeInfo("I2", 2, 5), 2, 1) == 4
    assert f_plus(TypeInfo("A", 2), 2, 1) == 2


# ---------------------------------------------------------------------------
# the recurrence over one denominator against the per-entry walk


FINITE_UP_TO_7 = ["A1", "A2", "A7", "B4", "B7", "D5", "D7", "E6", "E7", "F4", "H3", "H4",
                  "I2(7)"]


@st.composite
def diagrams_up_to_rank_7(draw):
    """Named finite types, or labels 2-6 drawn on every pair of up to 7
    vertices: connected or not, finite or not."""
    if draw(st.booleans()):
        return parse_diagram(draw(st.sampled_from(FINITE_UP_TO_7)))
    rank = draw(st.integers(min_value=0, max_value=7))
    labels = st.sampled_from([2, 2, 2, 3, 4, 5, 6])
    edges = [f"{i}-{j}:{a}" for i in range(1, rank + 1) for j in range(i + 1, rank + 1)
             for a in [draw(labels)] if a > 2]
    return parse_diagram(" ".join([f"n={rank};", *edges]))


@given(diagrams_up_to_rank_7(),
       st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=1,
                max_size=6))
@settings(max_examples=80, deadline=None)
def test_face_vectors_equal_the_per_entry_walk(G, hs):
    """Each class gets an arbitrary rational h, an isomorphism invariant
    through its class; ``face_polys`` must give every mask's f_0..f_r
    and hand ``h_of`` every class's sums entry for entry as the walk
    that makes each f_k its own Poly."""
    lat = subset_lattice(G)
    got_sums, want_sums = {}, {}

    def h_rule(seen):
        def h_of(cls, sums):
            seen[cls] = list(sums)
            return hs[cls % len(hs)]
        return h_of

    got, want = face_polys(lat, h_rule(got_sums)), face_polys_per_entry(lat, h_rule(want_sums))
    for mask in range(lat.full + 1):
        assert list(got(lat.key(mask))) == list(want(lat.key(mask))), mask
    assert got_sums == want_sums


def _count_reductions(monkeypatch) -> list:
    """Count every Poly reduction (``exactmath._set``) from here on."""
    sets, real = [], exactmath._set
    monkeypatch.setattr(exactmath, "_set", lambda *a: sets.append(1) or real(*a))
    return sets


def test_face_recurrence_reduces_only_the_entries_it_returns(monkeypatch):
    """Work counts, no clock.  With cold caches, ``f_polys_recursive(E8)``
    reduces the 9 Polys it returns and nothing else: every other vector
    of the recurrence is reduced once as a whole.  With each f_k its own
    Poly it made 352 reductions.  ``compute_all(E8)`` makes 315 (926 then)."""
    G = parse_diagram("E8")
    subset_lattice.cache_clear()
    sets = _count_reductions(monkeypatch)
    rec = f_polys_recursive(G)
    assert len(sets) == 9
    assert rec == [f_k_closed(TypeInfo("E8", 8), k) for k in range(9)]
    del sets[:]
    subset_lattice.cache_clear()
    invariants._exponents.cache_clear()
    assert compute_all(G).consensus == "agree"
    subset_lattice.cache_clear()
    assert len(sets) <= 400


# ---------------------------------------------------------------------------
# the closed forms in one pass


def level_product(info: TypeInfo, k: int, m, correction, sign: int):
    """The closed form at one k, the level product built anew for that k:
    c(m) C(n, k) prod (hm + 1 + sign e)/(e + 1) over the levels <= k."""
    coeffs, den = correction(info.family, info.n, k)
    out = 0
    for c in reversed(coeffs):
        out = out * m + c
    out *= comb(info.n, k)
    for e, level in info.levels:
        if level <= k:
            out = out * (info.h * m + 1 + sign * e)
            den *= e + 1
    return out * F(1, den)


@pytest.mark.parametrize("info", [TypeInfo.of(name) for name in ("E6", "E7", "E8", "F4", "H3",
                                                                  "H4", "D20", "B12", "A15")]
                         + [TypeInfo("I2", 2, 11)])
def test_one_pass_closed_forms_equal_the_per_k_product(info):
    for vector, correction, sign in ((f_vector_closed, tables.face_correction, 1),
                                     (h_vector_closed, tables.h_correction, -1)):
        for m in (formulas.M, 0, 1, 3, F(-2, 3)):
            want = [level_product(info, k, m, correction, sign) for k in range(info.n + 1)]
            assert list(vector(info, m)) == want, (info.family, info.n, m)
    with pytest.raises(ValueError, match="out of range"):
        f_k_closed(info, info.n + 1)
    with pytest.raises(ValueError, match="out of range"):
        h_k_closed(info, -1, 2)

