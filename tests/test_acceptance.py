"""Acceptance suite: one test per criterion, each printing a pass/fail
line per check.  Tolerances are exact (integer / rational equality)
except where an explicit 1e-9 window on irrational exponents applies.
"""

import pytest

from ccx.diagram import parse_diagram
from ccx.formulas import (
    TypeInfo,
    N_plus_product,
    N_product,
    f_k_closed,
    f_polys_recursive,
    h_k_closed,
    h_vector_from_f,
    reduced_euler,
)
from ccx.gcc import build_complex, link_decomposition_check
from ccx.invariants import compute_all
from ccx.verify import oracle_instances, suite_catalog, suite_models


def _report(label: str, checks):
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        line = f"  {'PASS' if ok else 'FAIL'} {name}"
        if detail and not ok:
            line += f"  [{detail}]"
        print(line)
    print(f"{label}: {len(checks) - len(failed)}/{len(checks)} passed")
    assert not failed, f"{label}: {[c[0] for c in failed]}"


def test_criterion_1_oracle_equivalence():
    checks = []
    for name, rank, m in oracle_instances(max_rank=5, max_m=3):
        G = parse_diagram(name)
        info = TypeInfo.of(G)
        brute = build_complex(G, m).f_vector()
        closed = [f_k_closed(info, k)(m) for k in range(rank + 1)]
        recur = [p(m) for p in f_polys_recursive(G)]
        checks.append(
            (f"f-vector {name} m={m}", brute == closed == recur, f"{brute}")
        )
    _report("criterion 1 (oracle equivalence)", checks)


def test_criterion_2_structure_theorems():
    checks = []
    for name, rank, m in oracle_instances(max_rank=5, max_m=3):
        cx = build_complex(parse_diagram(name), m)
        checks.append((f"purity {name} m={m}", cx.audit_pure(), ""))
        checks.append(
            (f"ridge-degree {name} m={m}", cx.audit_ridge_degree(), "")
        )
    for name in ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4", "I2(5)", "I2(6)"]:
        G = parse_diagram(name)
        for m in (1, 2):
            cx = build_complex(G, m)
            ok = all(link_decomposition_check(cx, i) for i in range(G.rank))
            checks.append((f"restriction {name} m={m}", ok, ""))
    _report("criterion 2 (structure theorems)", checks)


def test_criterion_3_named_counts():
    checks = []
    cx = build_complex(parse_diagram("A2"), 2)
    checks.append(("Delta^2(A2) = (8 vertices, 12 edges)", cx.f_vector() == [1, 8, 12], ""))
    cx = build_complex(parse_diagram("B2"), 3)
    degrees = {cx.degree(i) for i in range(cx.num_vertices())}
    checks.append(
        ("Delta^3(B2) 4-regular on 14 vertices", cx.f_vector()[1] == 14 and degrees == {4}, "")
    )
    got = build_complex(parse_diagram("D4"), 2).facet_count()
    checks.append(
        ("Delta^2(D4) facets = 336", got == 336 == N_product(TypeInfo.of("D4"), 2), str(got))
    )
    got = build_complex(parse_diagram("H3"), 1).facet_count()
    checks.append(
        ("Delta^1(H3) facets = 32", got == 32 == N_product(TypeInfo.of("H3"), 1), str(got))
    )
    _report("criterion 3 (named counts)", checks)


def test_criterion_4_h_vectors_and_euler():
    checks = []
    for name, rank, m in oracle_instances(max_rank=5, max_m=3):
        G = parse_diagram(name)
        info = TypeInfo.of(G)
        fv = build_complex(G, m).f_vector()
        hv = h_vector_from_f(fv)
        closed = [h_k_closed(info, k)(m) for k in range(rank + 1)]
        checks.append((f"h-vector {name} m={m}", hv == closed, f"{hv}"))
        chi = reduced_euler(fv)
        want = (-1) ** (rank - 1) * N_product(info, m - 1)
        checks.append((f"euler {name} m={m}", chi == want, f"{chi} vs {want}"))
    checks.append(
        ("chi(Delta^2(A2)) = -5", reduced_euler(build_complex(parse_diagram("A2"), 2).f_vector()) == -5, "")
    )
    _report("criterion 4 (h-vectors and Euler characteristic)", checks)


def test_criterion_5_positive_clusters():
    checks = []
    for name, rank, m in oracle_instances(max_rank=5, max_m=3):
        G = parse_diagram(name)
        got = build_complex(G, m).positive_facet_count()
        want = N_plus_product(TypeInfo.of(G), m)
        checks.append((f"positive facets {name} m={m}", got == want, f"{got} vs {want}"))
    checks.append(
        ("N+(A2,1) = 2", build_complex(parse_diagram("A2"), 1).positive_facet_count() == 2, "")
    )
    checks.append(
        ("N+(H3,1) = 21", build_complex(parse_diagram("H3"), 1).positive_facet_count() == 21, "")
    )
    _report("criterion 5 (positive clusters)", checks)


def test_criterion_6_polygon_models():
    _report("criterion 6 (polygon models)", suite_models(max_rank=4, max_m=3))


@pytest.fixture(scope="module")
def catalog_checks():
    """The catalog suite is shared by criteria 7-9; run it once."""
    return suite_catalog(max_rank=8)


def test_criterion_7_invariant_catalog(catalog_checks):
    checks = [c for c in catalog_checks if c[0].startswith(("catalog", "M("))]
    # E8 is singled out by the criterion
    rep = compute_all(parse_diagram("E8"))
    ok = all(
        r.status == "ok"
        and r.h == 30
        and list(r.exponents.rational) == [1, 7, 11, 13, 17, 19, 23, 29]
        for r in rep.methods.values()
    )
    checks.append(("E8 all methods", ok, ""))
    checks.append(("M(E8) = 44", rep.methods["mg"].full_support_count == 44, ""))
    _report("criterion 7 (invariant catalog rank 3..8)", checks)


def test_criterion_8_fake_catalog(catalog_checks):
    checks = [
        c
        for c in catalog_checks
        if c[0].startswith(("fake", "rank3", "fail"))
    ]
    _report("criterion 8 (fake invariants)", checks)


def test_criterion_9_cross_method_agreement(catalog_checks):
    checks = [c for c in catalog_checks if c[0] == "cross-method agreement"]
    # plus the negative-h and integer-h exotic examples, which criterion 8
    # does not fold into the shared pool
    for spec in ["n=4;1-2:3 2-3:3 3-4:3 1-4:5", "n=4;1-2:3 2-3:4 3-4:4", "n=4;1-2:4 2-3:3 3-4:5"]:
        rep = compute_all(parse_diagram(spec))
        keys = {
            r.agreement_key()
            for r in rep.methods.values()
            if r.yielded and "specialization-suspect" not in r.flags
        }
        checks.append((f"agreement {spec}", len(keys) <= 1, ""))
    _report("criterion 9 (cross-method agreement)", checks)
