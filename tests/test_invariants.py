from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccx import exactmath, invariants
from ccx.diagram import (
    CoxeterDiagram,
    SubsetLattice,
    classify,
    connected_components,
    induced_subdiagram,
    parse_diagram,
    subset_lattice,
)
from ccx.exactmath import Poly, poly_divide_exact, poly_gcd, rational_roots, real_roots
from ccx.formulas import f_plus_poly
from ccx.invariants import (
    METHODS,
    YIELDING,
    MethodFailure,
    MethodResult,
    _each_connected,
    _method_json,
    compute_all,
    euler_method,
    exponents_from_facet_poly,
    mg_method,
    reciprocity_general_method,
    reciprocity_simple_method,
    symmetry_method,
)
from ccx.rootsys import RootSystem
from ccx.verify import FAKE_CATALOG
from reciprocity_oracle import reciprocity_at_1
import component_oracle


def test_rank3_euler_h():
    for labels in [(3, 3, 2), (4, 3, 2), (5, 3, 2), (3, 3, 3), (4, 4, 3)]:
        a = sum(labels)
        G = parse_diagram(f"n=3;1-2:{labels[0]} 2-3:{labels[1]} 1-3:{labels[2]}")
        res = euler_method(G)
        assert res.status in ("ok", "negative-h")
        assert res.h == F(2 * a, 12 - a)


def test_rank3_exponents():
    G = parse_diagram("B3")  # a = 9
    res = euler_method(G)
    assert list(res.exponents.rational) == [1, 3, 5]
    res = symmetry_method(parse_diagram("H3"))
    assert res.h == 10 and list(res.exponents.rational) == [1, 5, 9]


def test_rank3_a12_zero_denominator():
    G = parse_diagram("n=3;1-2:4 1-3:4 2-3:4")
    for method in METHODS.values():
        assert method(G).status == "zero-denominator"


def test_symmetry_q_polynomial_route():
    # Q = (am+6)/2 for rank 3; h from the coefficient ratio
    res = symmetry_method(parse_diagram("A3"))
    assert res.h == 4
    assert res.facet_poly == Poly([1, 1]) * Poly([6, 8]) * Poly([4, 8]) / 24


def test_reciprocity_simple_values():
    # N(H) table at m=1: N=2/N+=1 for a point, N=b+2/N+=b-1 for an edge
    res = reciprocity_simple_method(parse_diagram("H3"))
    assert res.h == 10
    assert res.facet_poly(1) == 32
    assert res.positive_poly(1) == 21


def test_reciprocity_general_full_catalog_constants():
    for name in ["A3", "B4", "D5", "F4", "H3", "H4"]:
        G = parse_diagram(name)
        res = reciprocity_general_method(G)
        assert res.status == "ok"
        assert res.h == classify(G).coxeter_number


def test_mg_values_table():
    cases = {
        "A4": 1, "A7": 1, "B3": 3, "B6": 6, "D4": 2, "D7": 5,
        "E6": 7, "E7": 16, "E8": 44, "F4": 10, "H3": 8, "H4": 42,
    }
    for name, want in cases.items():
        assert mg_method(parse_diagram(name)).full_support_count == want
    # dihedral base: M = a - 2 through the rank-2 postulates
    rep = compute_all(parse_diagram("I2(7)"))
    assert rep.methods["mg"].full_support_count == 5


def test_mg_k4_zero_denominator():
    K4 = parse_diagram("n=4;1-2:3 2-3:3 3-4:3 1-4:3 1-3:3 2-4:3")
    assert mg_method(K4).status == "zero-denominator"


def test_full_catalog_all_methods():
    names = (
        [f"A{n}" for n in range(3, 9)]
        + [f"B{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "H3", "H4"]
    )
    for name in names:
        G = parse_diagram(name)
        cls = classify(G)
        rep = compute_all(G)
        assert rep.consensus == "agree", name
        for mname, res in rep.methods.items():
            assert res.status == "ok", (name, mname, res.status)
            assert res.h == cls.coxeter_number, (name, mname)
            assert list(res.exponents.rational) == [F(e) for e in cls.exponents]
            assert res.exponents.residual is None


def test_affine_a_yields_next_b_invariants():
    for n in range(3, 7):
        rep = compute_all(parse_diagram(f"~A{n - 1}"))
        assert rep.consensus == "agree"
        for res in rep.methods.values():
            assert res.status == "ok"
            assert res.h == 2 * n
            assert list(res.exponents.rational) == list(range(1, 2 * n, 2))


def test_fake_g2_and_c2():
    rep = compute_all(parse_diagram("~G2"))
    for res in rep.methods.values():
        assert res.h == 22
        assert list(res.exponents.rational) == [1, 11, 21]
    rep = compute_all(parse_diagram("~B2"))
    for res in rep.methods.values():
        assert res.h == 10
        assert list(res.exponents.rational) == [1, 5, 9]


def test_fake_c3_sqrt17():
    rep = compute_all(parse_diagram("~C3"))
    for res in rep.methods.values():
        assert res.status == "ok"
        assert res.h == 13
        assert list(res.exponents.rational) == [1, 12]
        assert list(res.exponents.residual.coeffs) == [38, -13, 1]
        lo = (13 - 17**0.5) / 2
        hi = (13 + 17**0.5) / 2
        assert res.exponents.approx == pytest.approx((1.0, lo, hi, 12.0), abs=1e-9)


def test_irrational_exponents_next_to_a_rational_one_are_reported():
    # (2*10^18 (e-1)^2 - 1)(e-1) in mu = -e-1: the residual's real roots
    # 1 +- 1/sqrt(2*10^18) lie within 1e-7 of the rational exponent 1
    e_minus_1 = Poly([-2, -1])
    npoly = (e_minus_1 * e_minus_1 * 2 * 10**18 - 1) * e_minus_1
    ex = exponents_from_facet_poly(npoly, F(1))
    assert ex.rational == (1,)
    offset = 1 / (2 * 10**18) ** 0.5
    report = _method_json(MethodResult(status="ok", h=F(1), exponents=ex))
    block = report["exponents"][1]
    assert block["approx"] == pytest.approx([1 - offset, 1 + offset], abs=1e-15)
    assert block["approx"] == list(ex.residual_approx)
    assert ex.approx == (ex.residual_approx[0], 1.0, ex.residual_approx[1])


def test_method_json_prints_an_h_over_the_str_limit():
    """An h whose numerator and denominator each have about 5000 digits
    goes through JSON and back exactly."""
    import json
    from decimal import Decimal

    h = F(10**5000 + 3, 10**4999 + 1)
    text = json.loads(json.dumps(_method_json(MethodResult(status="ok", h=h))))["h"]
    assert text == "1" + "0" * 4999 + "3/1" + "0" * 4998 + "1"
    num, den = text.split("/")
    assert F(int(Decimal(num)), int(Decimal(den))) == h


def test_fake_b3_fractional():
    rep = compute_all(parse_diagram("~B3"))
    for res in rep.methods.values():
        assert res.status == "ok"
        assert "non-integer-h" in res.flags
        assert res.h == F(76, 5)
        assert list(res.exponents.rational) == [1, F(33, 5), F(43, 5), F(71, 5)]


def test_fake_d4_star():
    rep = compute_all(parse_diagram("~D4"))
    assert not rep.methods["euler"].yielded
    sym = rep.methods["symmetry"]
    assert sym.status == "asymmetric-Q"
    assert sym.h == 14
    for mname in ("symmetry", "reciprocity_simple", "reciprocity_general", "mg"):
        res = rep.methods[mname]
        assert res.h == 14
        assert list(res.exponents.rational) == [1, 6, 6, 9, 13]


def test_fake_four_cycle_one_label_four():
    rep = compute_all(parse_diagram("n=4;1-2:3 2-3:3 3-4:3 1-4:4"))
    for res in rep.methods.values():
        assert res.status == "ok"
        assert res.h == F(43, 2)
        assert list(res.exponents.rational) == [1, F(41, 2)]
        assert list(res.exponents.residual.coeffs) == [213, -43, 2]


def test_fake_four_cycle_one_label_five_negative_h():
    rep = compute_all(parse_diagram("n=4;1-2:3 2-3:3 3-4:3 1-4:5"))
    for res in rep.methods.values():
        assert res.status == "negative-h"
        assert res.h == -22
        assert list(res.exponents.rational) == [-23, 1]
        approx = [x for x in res.exponents.approx]
        assert approx == pytest.approx(
            sorted([-23.0, -11 - 2 * 3**0.5, -11 + 2 * 3**0.5, 1.0]), abs=1e-9
        )


def test_fake_paths_with_integer_h():
    rep = compute_all(parse_diagram("n=4;1-2:3 2-3:4 3-4:4"))
    assert rep.consensus == "agree"
    assert all(res.h == 98 for res in rep.methods.values() if res.yielded)
    rep = compute_all(parse_diagram("n=4;1-2:4 2-3:3 3-4:5"))
    assert rep.consensus == "agree"
    assert all(res.h == 104 for res in rep.methods.values() if res.yielded)


def test_failures_k4_and_labeled_cycle():
    for spec in [
        "n=4;1-2:3 2-3:3 3-4:3 1-4:3 1-3:3 2-4:3",
        "n=4;1-2:3 2-3:4 3-4:3 1-4:4",
    ]:
        rep = compute_all(parse_diagram(spec))
        assert all(not res.yielded for res in rep.methods.values())
        assert rep.consensus == "partial"


def test_affine_b5_full_support_oddity():
    rep = compute_all(parse_diagram("~B5"))
    assert rep.methods["reciprocity_general"].status == "non-constant-h"
    mg = rep.methods["mg"]
    assert mg.h == 22
    assert mg.full_support_count == 26
    assert "specialization-suspect" in mg.flags
    assert rep.consensus == "partial"


def test_affine_b4_fractional_full_support_h():
    res = mg_method(parse_diagram("~B4"))
    assert res.h == F(94, 5)
    assert "non-integer-h" in res.flags


def test_other_affine_types_fail_main_methods():
    # sampled up to rank 8: the linear-equation, symmetry, and general
    # reciprocity methods all fail (non-constant h or broken symmetry)
    failing = ("non-constant-h", "asymmetric-Q", "zero-denominator", "non-polynomial-Q")
    for spec in ["~B4", "~B5", "~C4", "~C5", "~D5", "~D6", "~D7", "~E6", "~E7", "~F4"]:
        rep = compute_all(parse_diagram(spec))
        for mname in ("euler", "symmetry", "reciprocity_general"):
            assert rep.methods[mname].status in failing, (spec, mname)


def test_affine_c_family_full_support_values():
    for n in (3, 4, 5):
        mg = mg_method(parse_diagram(f"~C{n}"))
        assert mg.h == 3 * n + 4
        assert mg.full_support_count == 3 * n + 2


def test_affine_e8_full_support_values():
    mg = mg_method(parse_diagram("~E8"))
    assert mg.h == 98
    assert mg.full_support_count == 306


def test_specialization_consistency():
    # the m=1 method agrees with the general method evaluated at m=1,
    # and M equals n times the linear coefficient of N+(G, m)
    for spec in ["A4", "B4", "D5", "F4", "H4", "~A3", "~G2", "~C3"]:
        G = parse_diagram(spec)
        simple = reciprocity_simple_method(G)
        general = reciprocity_general_method(G)
        assert simple.h == general.h
        assert simple.facet_poly(1) == general.facet_poly(1)
        mg = mg_method(G)
        assert mg.full_support_count == G.rank * general.positive_poly.coeff(1)


def test_reflection_count_identity():
    # sum of M over connected induced subgraphs equals the number of
    # positive roots
    for name in ["A4", "B3", "D4", "F4", "H3", "E6"]:
        G = parse_diagram(name)
        rs = RootSystem(G)
        verts = list(G.vertices)
        total = F(0)
        for mask in range(1, 1 << G.rank):
            subset = [v for t, v in enumerate(verts) if mask >> t & 1]
            sub = induced_subdiagram(G, subset)
            if len(connected_components(sub)) != 1:
                continue
            if sub.rank <= 2:
                total += 1 if sub.rank == 1 else _label_of(sub) - 2
            else:
                total += mg_method(sub).full_support_count
        assert total == rs.num_positive


def _label_of(D):
    v1, v2 = D.vertices
    return D.label(v1, v2)


def test_exponent_extraction_helper():
    # N(A2, m) = (3m+2)(m+1)/2 with h = 3 gives exponents 1, 2
    npoly = Poly([2, 3]) * Poly([1, 1]) / 2
    data = exponents_from_facet_poly(npoly, F(3))
    assert list(data.rational) == [1, 2]
    assert data.residual is None


def test_disconnected_not_applicable():
    rep = compute_all(parse_diagram("n=2;"))
    assert all(res.status == "not-applicable" for res in rep.methods.values())
    rep = compute_all(parse_diagram("n=0;"))
    assert all(res.status == "not-applicable" for res in rep.methods.values())


def test_methods_on_disconnected_diagram_not_applicable():
    G = parse_diagram("n=3; 1-2:3")
    for method in METHODS.values():
        assert method(G).status == "not-applicable"


def test_rank_budget():
    rep = compute_all(parse_diagram("A13"))
    assert all(res.status == "budget-exceeded" for res in rep.methods.values())
    assert compute_all(parse_diagram("A12")).consensus == "agree"


@pytest.mark.parametrize(
    "spec, status",
    [("A3000", "budget-exceeded"), ("n=13; 1-2:3", "not-applicable")],
)
def test_over_the_budget_no_lattice_is_built(monkeypatch, spec, status):
    """Over the rank budget the methods tell a connected diagram from a
    disconnected one without a subset lattice, and neither they nor
    ``classify`` read the neighbour masks, rank^2/2 bits on a path."""
    built = []
    real = SubsetLattice.__init__

    def counting(self, G):
        built.append(G)
        real(self, G)

    def refused(self):
        raise AssertionError("the neighbour masks were read")

    monkeypatch.setattr(SubsetLattice, "__init__", counting)
    monkeypatch.setattr(CoxeterDiagram, "nbr", property(refused))
    subset_lattice.cache_clear()
    rep = compute_all(parse_diagram(spec))
    assert {res.status for res in rep.methods.values()} == {status}
    assert built == []


@pytest.mark.parametrize(
    "spec, status, detail",
    [
        ("A3000", "budget-exceeded", "rank 3000 exceeds the recursion budget 12"),
        ("n=13; 1-2:3", "not-applicable", "invariants are defined for connected nonempty diagrams"),
    ],
)
def test_over_the_budget_no_diagram_is_built(monkeypatch, spec, status, detail):
    """Over the rank budget the connectivity test copies no component."""
    G = parse_diagram(spec)
    built = []
    real = CoxeterDiagram.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CoxeterDiagram, "__init__", counting)
    rep = compute_all(G)
    assert {(res.status, res.detail) for res in rep.methods.values()} == {(status, detail)}
    assert built == []


def test_rank_two_base_report():
    rep = compute_all(parse_diagram("I2(6)"))
    assert rep.consensus == "agree"
    for name, res in rep.methods.items():
        assert res.status == "ok"
        assert res.h == 6
        assert list(res.exponents.rational) == [1, 5]
        if name == "mg":
            assert res.full_support_count == 4
        else:
            assert res.full_support_count is None


@pytest.mark.parametrize(
    "spec", ["A1", "A2", "B2", "G2", "I2(5)", "I2(12)", "n=3; 1-2:3", "n=0;", "A13"]
)
def test_direct_method_calls_match_the_report(spec):
    """A method called on its own gives what compute_all reports for it,
    also where the diagram is postulated, disconnected or over budget."""
    G = parse_diagram(spec)
    report = compute_all(G).to_json()["methods"]
    for name, method in METHODS.items():
        assert _method_json(method(G)) == report[name]


def test_one_method_alone_is_partial_at_every_rank():
    for spec in ("A1", "I2(5)", "A3"):
        assert compute_all(parse_diagram(spec), ["euler"]).consensus == "partial"


def test_report_json_shape():
    rep = compute_all(parse_diagram("~C3"))
    blob = rep.to_json()
    assert blob["diagram"] == "n=4; 1-2:4 2-3:3 3-4:4"
    assert blob["classification"]["kind"] == "affine"
    assert set(blob["methods"]) == {
        "euler",
        "symmetry",
        "reciprocity_simple",
        "reciprocity_general",
        "mg",
    }
    entry = blob["methods"]["euler"]
    assert entry["h"] == "13"
    assert entry["exponents"][0] == "1"
    irr = entry["exponents"][-1]
    assert irr["poly"] == ["38", "-13", "1"]
    assert len(irr["approx"]) == 2
    assert blob["methods"]["mg"]["M"] == "11"


def test_cross_method_agreement_over_catalog():
    specs = (
        ["A3", "A5", "B4", "D4", "D6", "E6", "F4", "H3", "H4"]
        + ["~A2", "~A4", "~G2", "~B2", "~C3", "~B3", "~D4"]
        + ["n=4;1-2:3 2-3:3 3-4:3 1-4:4", "n=4;1-2:3 2-3:3 3-4:3 1-4:5"]
    )
    for spec in specs:
        rep = compute_all(parse_diagram(spec))
        keys = {
            res.agreement_key()
            for res in rep.methods.values()
            if res.yielded and "specialization-suspect" not in res.flags
        }
        assert len(keys) <= 1, spec


STATUSES = {
    "ok",
    "negative-h",
    "asymmetric-Q",
    "non-constant-h",
    "zero-denominator",
    "non-polynomial-Q",
    "not-applicable",
    "budget-exceeded",
}


def _check_report(rep):
    assert rep.consensus in ("agree", "disagree", "partial")
    for res in rep.methods.values():
        assert res.status in STATUSES
        if res.status in YIELDING:
            assert res.h is not None
            assert res.facet_poly is not None and res.positive_poly is not None
            assert res.exponents is not None


def test_huge_residual_diagram_reports():
    # the exponent residual of this diagram has coefficients past float range
    G = parse_diagram("n=6; 1-2:7 1-4:8 1-6:8 2-5:5 3-4:6 3-5:7 4-5:3 5-6:6")
    _check_report(compute_all(G))


@st.composite
def infinite_diagrams(draw):
    """Diagrams of rank 3-9 with labels 2-8, not of finite type: a random
    spanning tree plus random further edges, where label 2 drops an edge
    and so may disconnect the diagram."""
    rank = draw(st.integers(min_value=3, max_value=9))
    labels = st.integers(min_value=2, max_value=8)
    edges = {}
    for v in range(2, rank + 1):
        edges[(draw(st.integers(min_value=1, max_value=v - 1)), v)] = draw(labels)
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            if (i, j) not in edges and draw(st.booleans()):
                edges[(i, j)] = draw(labels)
    spec = f"n={rank}; " + " ".join(f"{i}-{j}:{a}" for (i, j), a in sorted(edges.items()))
    G = parse_diagram(spec)
    assume(classify(G).kind != "finite")
    return G


@given(infinite_diagrams())
@settings(max_examples=25, deadline=None)
def test_compute_all_never_raises_on_random_diagrams(G):
    rep = compute_all(G)
    _check_report(rep)
    assert rep.to_json() == compute_all(G).to_json()


M1_NAMED = ["A3", "B4", "D5", "E6", "E8", "F4", "H3", "H4", "~A3", "~A5", "~B4", "~C3",
            "~D4", "~E6", "~E8", "~F4", "~G2"]


@example(parse_diagram("~E8"))
@given(st.one_of(st.sampled_from(M1_NAMED).map(parse_diagram), infinite_diagrams()))
@settings(max_examples=40, deadline=None)
def test_reciprocity_simple_agrees_with_the_m1_oracle(G):
    """The method reads S, T and U off the face polynomials; the oracle
    solves the m = 1 system on Fractions of its own.  They give the same
    h and status, and the method's N and N+ at 1 are the oracle's."""
    res, want = reciprocity_simple_method(G), reciprocity_at_1(G)
    if isinstance(want, MethodFailure):
        assert (res.status, res.detail) == (want.status, want.detail)
        return
    h, n1, np1 = want
    if h == 0:  # the frame reads no exponents at h = 0
        assert res.status == "zero-denominator"
        return
    assert res.h == h and res.status == ("negative-h" if h < 0 else "ok")
    assert res.facet_poly(1) == n1 and res.positive_poly(1) == np1


def test_invariants_build_few_fractions(monkeypatch):
    """Work counts, no clock.  The rules carry their per-class values as
    integer rows over a denominator, and the face walk takes each h as
    its rule returns it, so on ~E8 a report and its JSON build 153
    Fractions (212 with a second Fraction per class's h, 761 with
    Fraction-valued m = 1, M and sigma sums), reciprocity_simple 40 (55,
    389) and mg 41 (56, 179), on Python 3.11; a Fraction is left for each
    h, each exponent and the postulates.
    Python 3.12 and later build fewer: arithmetic results skip the
    constructor."""
    count = [0]
    new = F.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    G = parse_diagram("~E8")

    def built(fn) -> int:
        subset_lattice.cache_clear()
        invariants._exponents.cache_clear()
        invariants._postulated.cache_clear()
        count[0] = 0
        with monkeypatch.context() as mp:
            mp.setattr(F, "__new__", staticmethod(counting))
            fn()
        return count[0]

    try:
        assert built(lambda: compute_all(G).to_json()) <= 170
        assert built(lambda: reciprocity_simple_method(G)) <= 80
        assert built(lambda: mg_method(G)) <= 80
    finally:
        subset_lattice.cache_clear()
    assert compute_all(G).methods["mg"].h == 98


def test_compute_all_extracts_roots_once_per_facet_poly(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return rational_roots(p)

    monkeypatch.setattr(invariants, "rational_roots", counting)
    invariants._exponents.cache_clear()
    rep = compute_all(parse_diagram("E8"))
    assert rep.consensus == "agree"
    assert len(calls) == 1


def test_recursions_sum_exact_terms_once(monkeypatch):
    # Pairwise accumulation makes 3417 Poly additions and 5441 reductions
    # (_set) on ~E8; one n-ary sum of integer rows per sum keeps both far
    # lower, with no wall clock involved.
    counts = {"add": 0, "set": 0}
    add, reduce_ = Poly.__add__, exactmath._set

    def counting_add(*args):
        counts["add"] += 1
        return add(*args)

    def counting_set(*args):
        counts["set"] += 1
        return reduce_(*args)

    monkeypatch.setattr(Poly, "__add__", counting_add)
    monkeypatch.setattr(Poly, "__radd__", counting_add)
    monkeypatch.setattr(exactmath, "_set", counting_set)
    subset_lattice.cache_clear()
    invariants._exponents.cache_clear()
    rep = compute_all(parse_diagram("~E8"))
    subset_lattice.cache_clear()
    assert rep.methods["mg"].h == 98 and rep.methods["euler"].status == "non-constant-h"
    assert counts["add"] <= 100
    assert counts["set"] <= 2500


def test_recursions_decide_h_without_gcds(monkeypatch):
    """Work counts, no clock.  On ~E8 the h rules decide that a rational
    function of m is constant by cross-multiplying, so no polynomial gcd
    runs (reducing each quotient took 30), and the face recurrence
    reduces each whole vector once, a convolution over components being
    one ``vec_convolve`` of unreduced products: Poly reductions (_set)
    were 1911 with each product reduced on its own and 1307 with one per
    entry, and are 404 with one per vector (the bound is 1500)."""
    gcds, sets = [], []
    gcd, reduce_ = exactmath.poly_gcd, exactmath._set
    monkeypatch.setattr(exactmath, "poly_gcd", lambda *a: gcds.append(1) or gcd(*a))
    monkeypatch.setattr(exactmath, "_set", lambda *a: sets.append(1) or reduce_(*a))
    subset_lattice.cache_clear()
    invariants._exponents.cache_clear()
    rep = compute_all(parse_diagram("~E8"))
    subset_lattice.cache_clear()
    assert rep.methods["mg"].h == 98
    assert rep.methods["euler"].status == rep.methods["reciprocity_general"].status == "non-constant-h"
    assert gcds == [] and len(sets) <= 1500


def _relabelled(G, perm) -> str:
    """Explicit spec of G with vertex i renamed perm[i - 1]."""
    edges = " ".join(f"{perm[i - 1]}-{perm[j - 1]}:{a}" for i, j, a in G.edges())
    return f"n={G.rank}; {edges}"


@st.composite
def relabellings(draw):
    G = draw(infinite_diagrams())
    return G, draw(st.permutations(range(1, G.rank + 1)))


# two subdiagrams of this diagram fail with different statuses under
# euler and reciprocity_general; the vertex order once chose between them
@example((
    parse_diagram("n=6; 1-2:7 1-3:5 1-5:4 2-3:6 2-4:8 2-5:6 2-6:4 3-4:6 3-5:6 5-6:3"),
    [3, 4, 1, 5, 6, 2],
))
@example((parse_diagram("n=3; 1-3:3"), [2, 1, 3]))  # reducible type name A2xA1
@given(relabellings())
@settings(max_examples=25, deadline=None)
def test_report_invariant_under_relabelling(pair):
    G, perm = pair
    H = parse_diagram(_relabelled(G, perm))
    a, b = compute_all(G).to_json(), compute_all(H).to_json()
    assert a["methods"] == b["methods"]
    assert a["consensus"] == b["consensus"]
    assert (classify(G).kind, classify(G).type_name) == (classify(H).kind, classify(H).type_name)


def test_reported_failure_is_the_least_of_the_lowest_failing_rank():
    """The path 3-4-5 and its reverse: three connected classes of rank
    two, two of rank three.  Steps fail by the labels of their class;
    the least failure of rank two is raised under both vertex orders,
    and each class is stepped once, none above the failing rank."""
    failing = {
        (3,): MethodFailure("zero-denominator", "b"),
        (5,): MethodFailure("zero-denominator", "c"),
        (4,): MethodFailure("zero-denominator", "a"),
        (3, 4): MethodFailure("non-constant-h", "a"),
    }
    for spec in ("n=4; 1-2:3 2-3:4 3-4:5", "n=4; 1-2:5 2-3:4 3-4:3"):
        G = parse_diagram(spec)
        lat = SubsetLattice(G)
        stepped = []

        def step(cls):
            stepped.append(cls)
            labels = tuple(sorted(induced_subdiagram(G, lat.vertices(lat.least[cls])).labels.values()))
            if labels in failing:
                raise failing[labels]

        with pytest.raises(MethodFailure) as info:
            _each_connected(lat, step)
        assert info.value is failing[(4,)]
        assert sorted(stepped) == sorted(cls for cls in lat.connected if lat.ranks[cls] <= 2)


def test_submask_sums_run_once_per_class(monkeypatch):
    """~A8 has 73 connected masks in 9 classes; reciprocity_general sums
    over the submasks of one mask of each class of rank >= 3 and nowhere
    else: its facet polynomial comes from the face recurrence."""
    from ccx.diagram import SubsetLattice

    calls = []
    submasks = SubsetLattice.submasks

    def counting(self, mask):
        calls.append(mask)
        return submasks(self, mask)

    monkeypatch.setattr(SubsetLattice, "submasks", counting)
    G = parse_diagram("~A8")
    assert reciprocity_general_method(G).status == "ok"
    lat = subset_lattice(G)
    classes = {lat.key(m) for m in component_oracle.connected_masks(lat) if m.bit_count() >= 3}
    assert len(classes) == 7 and len(component_oracle.connected_masks(lat)) == 73
    assert sorted(map(lat.key, calls)) == sorted(classes)


def test_methods_share_one_census_per_class(monkeypatch):
    """Work count, no clock: U of reciprocity_simple, sigma2 of mg and the
    graded sum of reciprocity_general read the lattice's census, so on
    ~E8 the submasks of each class of rank >= 3 are walked once in all,
    not once per method."""
    from ccx.diagram import SubsetLattice

    calls = []
    submasks = SubsetLattice.submasks

    def counting(self, mask):
        calls.append(mask)
        return submasks(self, mask)

    monkeypatch.setattr(SubsetLattice, "submasks", counting)
    subset_lattice.cache_clear()
    G = parse_diagram("~E8")
    rep = compute_all(G)
    lat = subset_lattice(G)
    subset_lattice.cache_clear()
    assert rep.methods["mg"].h == 98
    assert rep.methods["reciprocity_simple"].status == "ok"
    classes = [lat.key(m) for m in component_oracle.connected_masks(lat) if m.bit_count() >= 3]
    assert sorted(map(lat.key, calls)) == sorted(set(classes))


STAR12 = "n=12; " + " ".join(f"1-{j}:3" for j in range(2, 13))


def test_each_per_class_function_runs_once_per_class(monkeypatch):
    """Work count, no clock: on the rank-12 star (23 classes, 12 of them
    connected) every per-class function of every method, the h rules
    the face recurrence asks and the memoized steps alike, runs at most
    once per class.  Euler and reciprocity_general fail there; a failing
    class once failed again for each of its masks (reciprocity_general's
    step ran 467 times)."""
    calls = []
    per_class, face_polys = invariants._per_class, invariants.face_polys

    def counted(fn):
        def run(cls, *args):
            calls.append((fn, cls))
            return fn(cls, *args)
        return run

    monkeypatch.setattr(invariants, "_per_class", lambda lat, fn: per_class(lat, counted(fn)))
    monkeypatch.setattr(invariants, "face_polys", lambda lat, h_of: face_polys(lat, counted(h_of)))
    subset_lattice.cache_clear()
    G = parse_diagram(STAR12)
    rep = compute_all(G)
    lat = subset_lattice(G)
    subset_lattice.cache_clear()
    assert rep.methods["euler"].status == "non-constant-h"
    assert rep.methods["reciprocity_general"].status == "non-constant-h"
    assert len(lat.least) == 23 and len(lat.connected) == 12
    assert calls and len(calls) == len(set(calls))


def test_failing_methods_format_no_polynomial(monkeypatch):
    """Work count, no clock: a rational function that is not constant
    raises ``NotConstant`` with a fixed message, so compute_all on the
    rank-12 star, where two methods fail so, formats no Poly (1584 did
    when the message carried both polynomials)."""
    reprs = []
    real = Poly.__repr__
    monkeypatch.setattr(Poly, "__repr__", lambda p: reprs.append(1) or real(p))
    subset_lattice.cache_clear()
    rep = compute_all(parse_diagram(STAR12))
    subset_lattice.cache_clear()
    assert rep.methods["euler"].status == "non-constant-h"
    assert reprs == []


# Drawn once as a random spanning tree plus further edges, labels 3-6,
# keeping draws on which reciprocity_general yields: four of rank 4 of
# infinite type, and at ranks 5 and 6, where every yielding draw was of
# finite or affine type (none of some 15 000 of other infinite type
# yielded), D5 and D6 relabelled.
RECIPROCITY_DRAWS = [
    "n=4; 1-2:4 1-4:4 2-3:5",
    "n=4; 1-2:6 1-3:3 2-4:6",
    "n=4; 1-2:3 1-3:3 2-3:5 2-4:4",
    "n=4; 1-2:3 2-3:4 3-4:4",
    "n=5; 1-2:3 1-3:3 2-4:3 2-5:3",
    "n=6; 1-2:3 1-4:3 2-3:3 2-6:3 4-5:3",
]


@pytest.mark.parametrize("spec", [e["spec"] for e in FAKE_CATALOG] + ["~D4"] + RECIPROCITY_DRAWS)
def test_reciprocity_general_facet_poly_is_the_subset_sum(spec):
    """N is the sum over every vertex subset H of the product of N+ over
    the components of H, and N+ is the reciprocal of N.  The N+ of each
    component comes from the method run on its induced subdiagram."""
    G = parse_diagram(spec)
    res = reciprocity_general_method(G)
    assert res.yielded

    nplus: dict[frozenset, Poly] = {}

    def nplus_of(C) -> Poly:
        verts = frozenset(C.vertices)
        if verts not in nplus:
            sub = reciprocity_general_method(C)
            assert sub.yielded, C.to_spec()
            nplus[verts] = sub.positive_poly
        return nplus[verts]

    total = Poly()
    for bits in range(1 << G.rank):
        H = induced_subdiagram(G, [v for i, v in enumerate(G.vertices) if bits >> i & 1])
        term = Poly([1])
        for C in connected_components(H):
            term = term * nplus_of(C)
        total = total + term
    assert res.facet_poly == total
    assert res.positive_poly == f_plus_poly(res.facet_poly, G.rank)


# -- correct rounding of irrational roots -----------------------------------

STAR6 = "n=6; 1-2:3 1-3:3 1-4:3 1-5:3 1-6:3"
RANK8 = "n=8; 1-2:3 1-3:4 1-6:5 1-8:3 2-7:5 3-4:3 3-5:3"


def _squarefree_part(p: Poly) -> Poly:
    deriv = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
    return poly_divide_exact(p, poly_gcd(p, deriv))


def _bisected(f: Poly, x: float, bits: int = 200) -> float:
    """float() of the midpoint of an exact bisection, down to 2^-bits
    relative width, of the one root of the square-free f within 2^-30
    relative of x; fails unless f changes sign across that window."""
    lo, hi = F(x) * (1 - F(1, 2**30)), F(x) * (1 + F(1, 2**30))
    lo, hi = min(lo, hi), max(lo, hi)
    s = f(lo)
    assert s * f(hi) < 0, f"no root of {f!r} next to {x!r}"
    width = abs(F(x)) / 2**bits
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = f(mid)
        if v == 0:
            return float(mid)
        lo, hi = (mid, hi) if (v > 0) == (s > 0) else (lo, mid)
    return float((lo + hi) / 2)


def _has_rational_root(cs: list[int]) -> bool:
    """Rational root test by the divisors of the end coefficients."""
    divs = lambda n: [d for d in range(1, abs(n) + 1) if n % d == 0]  # noqa: E731
    return any(Poly(cs)(F(s * p, q)) == 0
               for p in divs(cs[0]) for q in divs(cs[-1]) for s in (1, -1))


@st.composite
def irreducible_low_degree(draw):
    """An integer quadratic or cubic without a rational root, so
    irreducible over Q."""
    deg = draw(st.sampled_from((2, 3)))
    cs = draw(st.lists(st.integers(min_value=-40, max_value=40), min_size=deg + 1,
                       max_size=deg + 1))
    assume(cs[0] and cs[-1] and not _has_rational_root(cs))
    return cs


small_roots = st.builds(F, st.integers(min_value=-60, max_value=60),
                        st.integers(min_value=1, max_value=12))


@given(
    st.dictionaries(small_roots, st.integers(min_value=1, max_value=3), max_size=3),
    irreducible_low_degree(),
)
@settings(max_examples=80, deadline=None)
def test_irrational_roots_are_correctly_rounded(roots, irreducible):
    q = Poly(irreducible)
    p = q
    for r, mult in roots.items():
        for _ in range(mult):
            p = p * Poly([-r.numerator, r.denominator])
    rs = rational_roots(p)
    for x in rs.residual_approx:
        assert x == _bisected(q, x)
    # the values of real_roots left once the rational roots are taken out
    rest = list(real_roots(p))
    for r in rs.rational_multiset():
        rest.remove(float(r))
    assert len(rest) == len(rs.residual_approx)
    for x in rest:
        assert x == _bisected(q, x)


@pytest.mark.parametrize("spec", ["~D7", "~D8", "~E7", STAR6])
def test_irrational_exponents_are_correctly_rounded(spec):
    checked = 0
    for res in compute_all(parse_diagram(spec)).methods.values():
        ex = res.exponents
        if ex is None or ex.residual is None:
            continue
        f = _squarefree_part(ex.residual)
        for x in ex.residual_approx:
            assert x == _bisected(f, x), (res, x)
            checked += 1
    assert checked >= 12


@st.composite
def clustered_polys(draw):
    """An integer polynomial of degree 4-8 near prod (x - r_i), roots
    r_i = u/v + j_i/2^16 with distinct |j_i| <= 2^8 and |u/v| <= 16,
    v odd and 40-80 bits: the product's integer numerator plus a small
    integer.  Its roots are irrational but for rare draws, at most 2^-12
    apart and carried by coefficients of hundreds of bits, so the Newton
    proposals of IrrationalRoot.rounded miss and it bisects."""
    deg = draw(st.integers(min_value=4, max_value=8))
    v = 2 * draw(st.integers(min_value=2**39, max_value=2**79)) + 1
    u = draw(st.integers(min_value=-16 * v, max_value=16 * v))
    js = draw(st.lists(st.integers(min_value=-(2**8), max_value=2**8), min_size=deg,
                       max_size=deg, unique=True))
    p = Poly([1])
    for j in js:
        r = F(u, v) + F(j, 2**16)
        p = p * Poly([-r.numerator, r.denominator])
    nudge = draw(st.integers(min_value=1, max_value=5)) * draw(st.sampled_from((1, -1)))
    return Poly(p.num) + nudge


@given(clustered_polys())
@settings(max_examples=40, deadline=None)
def test_clustered_roots_are_correctly_rounded(p):
    rs = rational_roots(p)
    assert len(rs.residual_approx) >= 2
    f = _squarefree_part(rs.residual)
    for x in rs.residual_approx:
        assert x == _bisected(f, x)


def _bisection_zevals(root, c1: int, c0: int, d: int) -> int:
    """The exact evaluations that ``IrrationalRoot.rounded`` makes by
    bisection alone: one a step, until both ends of the bracket round to
    the same double."""
    f, lo, k, top = root
    hi, count = lo + 1, 0
    while True:
        num, den = c1 * lo + (c0 << k), d << k
        if num / den == (num + c1 * (hi - lo)) / den:
            return count
        mid, k = lo + hi, k + 1
        count += 1
        lo, hi = (2 * lo, mid) if (exactmath._zeval(f, mid, 1 << k) > 0) == top else (mid, 2 * hi)


@given(clustered_polys())
@settings(max_examples=30, deadline=None)
def test_clustered_roots_take_at_most_the_bisection_work(p):
    """Work counts, no clock: near close neighbouring roots the Newton
    proposals narrow until they hold, so rounding every irrational root
    evaluates f no more often than bisection alone."""
    roots = [r for r, _ in rational_roots(p).irrational]
    bisection = sum(_bisection_zevals(r, 1, 0, 1) for r in roots)
    zevals = []
    zeval = exactmath._zeval

    def counting_zeval(f, num, den):
        zevals.append(1)
        return zeval(f, num, den)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactmath, "_zeval", counting_zeval)
        for r in roots:
            r.rounded(1, 0, 1)
    assert len(zevals) <= bisection


@pytest.mark.parametrize("spec", ["~D7", "~D8", "~E7", STAR6, RANK8])
def test_rounding_work_is_bounded(spec, monkeypatch):
    """Work counts, no clock: correct rounding of each irrational
    exponent evaluates a polynomial exactly at most 40 times (20-27
    here).  Bisection alone, one evaluation a bit, took 51-59."""
    zevals, per_root = [], []
    zeval, rounded = exactmath._zeval, exactmath.IrrationalRoot.rounded

    def counting_zeval(f, num, den):
        zevals.append(1)
        return zeval(f, num, den)

    def counting_rounded(self, *args):
        before = len(zevals)
        x = rounded(self, *args)
        per_root.append(len(zevals) - before)
        return x

    monkeypatch.setattr(exactmath, "_zeval", counting_zeval)
    monkeypatch.setattr(exactmath.IrrationalRoot, "rounded", counting_rounded)
    invariants._exponents.cache_clear()
    compute_all(parse_diagram(spec))
    assert per_root and max(per_root) <= 40, per_root


def test_compute_all_isolates_only_in_mu(monkeypatch):
    """Real roots are isolated only for the cofactors left without
    rational roots, once each facet polynomial's rational roots are
    divided out: per extraction, their product is the square-free part
    of the residual.  None is isolated outside root extraction in mu, so
    none for the residual in the exponent variable, whose roots are
    refined from their mu-intervals."""
    calls, isolated = [], []
    isolate = exactmath._isolate

    def counting_roots(p):
        before = len(isolated)
        rs = rational_roots(p)
        calls.append((rs, isolated[before:]))
        return rs

    def counting_isolate(f):
        isolated.append(f)
        return isolate(f)

    monkeypatch.setattr(invariants, "rational_roots", counting_roots)
    monkeypatch.setattr(exactmath, "_isolate", counting_isolate)
    invariants._exponents.cache_clear()
    rep = compute_all(parse_diagram(STAR6))
    assert any(r.exponents.residual_approx for r in rep.methods.values() if r.exponents)
    assert isolated and sum(len(fs) for _, fs in calls) == len(isolated)
    for rs, fs in calls:
        cofactors = [Poly(f) for f in fs]
        for f in cofactors:
            assert all(f(r) != 0 for r, _ in rs.rational)
        if rs.residual is None:
            assert cofactors == []
            continue
        product = Poly([1])
        for f in cofactors:
            product = product * f
        part = _squarefree_part(rs.residual)
        assert product / product.leading() == part / part.leading()


@pytest.mark.parametrize("spec", [RANK8, "~D8"])
def test_root_extraction_work_is_bounded(spec, monkeypatch):
    """Work counts, no clock.  On the rank-8 diagram, whose facet
    polynomials carry coefficients of up to 2160 bits, compute_all
    evaluates a polynomial exactly at most 3000 times; bisecting every
    root down to 1/|a_n| took 28 148.  Yun's decomposition runs only on
    a polynomial that no small prime certifies square-free: never on the
    rank-8 diagram, and on ~D8, whose facet polynomials have the square
    factor (2 mu + 1)^2."""
    zevals, yun = [], []
    zeval, squarefree = exactmath._zeval, exactmath._squarefree_factors

    def counting_zeval(f, num, den):
        zevals.append(1)
        return zeval(f, num, den)

    monkeypatch.setattr(exactmath, "_zeval", counting_zeval)
    monkeypatch.setattr(exactmath, "_squarefree_factors", lambda f: yun.append(f) or squarefree(f))
    invariants._exponents.cache_clear()
    compute_all(parse_diagram(spec))
    for f in yun:
        assert not any(exactmath._certifies_squarefree(f, p) for p in exactmath._SMALL_PRIMES)
    if spec == RANK8:
        assert len(zevals) <= 3000 and yun == []
    else:
        assert yun


# -- integer rows: the exponent map, the symmetry audit, no compose ----------

nonzero_fracs = st.fractions(min_value=-12, max_value=12, max_denominator=7).filter(bool)


@example([3, -1, 2], F(-2))
@example([0, 5, 0, 1], F(7, 3))
@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=6)
       .filter(lambda a: a[-1] != 0),
       nonzero_fracs)
@settings(max_examples=150, deadline=None)
def test_exponent_row_is_the_composed_residual(a, h):
    # the residual a(mu) in e, mu = -(e + 1)/h: once by a scale and a
    # shift, once by composing with the Fraction line, both made
    # primitive with a positive leading coefficient
    want = exactmath._zprimitive(list(Poly(a).compose(Poly([-1 / h, -1 / h])).num))
    want = want if want[-1] > 0 else [-c for c in want]
    assert invariants._exponent_row(a, h.numerator, h.denominator) == want


@st.composite
def audits(draw):
    """(Q's integer row, h, k): Q symmetric about -c/2, c = (h + 2)/h, by
    construction (pairs of roots mu, -c - mu, and -c/2 when the degree is
    odd), such a Q with one coefficient moved, or drawn freely; h = -2
    (c = 0) and negative h among them; k a nonzero factor of c's terms."""
    h = draw(st.one_of(st.just(F(-2)), nonzero_fracs))
    c = (h + 2) / h
    kind = draw(st.sampled_from(["symmetric", "moved", "free"]))
    if kind == "free":
        Q = Poly(draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6)))
    else:
        Q = Poly([draw(st.integers(min_value=1, max_value=5))])
        for mu in draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                max_size=3)):
            Q = Q * Poly([-mu, 1]) * Poly([c + mu, 1])
        if draw(st.booleans()):
            Q = Q * Poly([c / 2, 1])
        if kind == "moved":
            i = draw(st.integers(min_value=0, max_value=Q.degree))
            Q = Q + Poly([0] * i + [F(draw(st.integers(min_value=1, max_value=3)), Q.den)])
    assume(Q.degree >= 1)
    return list(Q.num), h, draw(st.sampled_from([1, -1, 2, -3]))


@example(([-1, 0, 1], F(-2), 1))  # m^2 - 1: c = 0, symmetric
@example(([-1, 1, 1], F(-2), 1))  # c = 0, not symmetric
@example(([1, 3, 2], F(-1), -2))  # (m + 1)(2m + 1): c = -1, t < 0
@example(([10, 21, 9], F(-4, 3), 1))  # (3m + 2)(3m + 5): c = -1/2, t > 1
# m^2 - m is symmetric about 1/2 (c = -1); moving its m coefficient by
# the screening prime keeps it symmetric modulo that prime only
@example(([0, invariants._SCREEN - 1, 1], F(-1), 1))
@given(audits())
@settings(max_examples=200, deadline=None)
def test_symmetry_audit_is_the_composed_comparison(audit):
    a, h, k = audit
    c = (h + 2) / h
    Q = Poly(a)
    want = Q.compose(Poly([-c, -1])) == Q * (-1) ** Q.degree
    assert invariants._symmetric(a, k * c.numerator, k * c.denominator) == want


@pytest.mark.parametrize("spec", ["~E8", "~D4", RANK8])
def test_h_rules_compose_nothing_and_build_no_ratfun(monkeypatch, spec):
    """No clock: with ``Poly.compose`` and ``RatFun`` refused, the report
    is the one computed without the refusal.  The exponent map, the
    symmetry audit, Euler's T, N+ and the constant tests run on integer
    rows; each diagram's top Q fails the audit."""
    G = parse_diagram(spec)
    subset_lattice.cache_clear()
    invariants._exponents.cache_clear()
    want = compute_all(G).to_json()

    def refuse(*args):
        raise AssertionError("a substitution or a RatFun on a program path")

    monkeypatch.setattr(Poly, "compose", refuse)
    monkeypatch.setattr(exactmath.RatFun, "__init__", refuse)
    subset_lattice.cache_clear()
    invariants._exponents.cache_clear()
    got = compute_all(G).to_json()
    subset_lattice.cache_clear()
    assert got == want
    assert got["methods"]["symmetry"]["status"] == "asymmetric-Q"
