"""Verification suites: brute-force oracles vs closed forms, polygon model
audits, and the invariant-method catalog.

Each check returns (name, passed, detail); suites aggregate them so the
command line and the test suite share one implementation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .diagram import parse_diagram, classify
from .formulas import (
    TypeInfo,
    N_plus_product,
    N_product,
    f_polys_recursive,
    f_vector_closed,
    h_vector_closed,
    h_vector_from_f,
    reduced_euler,
)
from .gcc import build_complex, link_decomposition_check
from .invariants import compute_all
from .polygon import (
    AmbiguousOrbit,
    TypeAModel,
    TypeBModel,
    TypeDModel,
    checked_complex,
    rotate_diag,
)
from .tables import M_VALUES

F = Fraction

Check = tuple[str, bool, str]

ORACLE_TYPES: list[tuple[str, int]] = (
    [(f"A{n}", n) for n in range(1, 6)]
    + [(f"B{n}", n) for n in range(2, 5)]
    + [("D4", 4), ("F4", 4), ("H3", 3)]
    + [(f"I2({a})", 2) for a in range(3, 9)]
)


def oracle_instances(max_rank: int = 5, max_m: int = 3):
    for name, rank in ORACLE_TYPES:
        if rank > max_rank:
            continue
        ms = [1, 2] + ([3] if rank <= 2 else [])
        for m in ms:
            if m <= max_m:
                yield name, rank, m


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# oracle suite: criteria 1-5


def suite_oracle(max_rank: int = 5, max_m: int = 3) -> list[Check]:
    checks: list[Check] = []
    for name, rank, m in oracle_instances(max_rank, max_m):
        G = parse_diagram(name)
        info = TypeInfo.of(G)
        cx = build_complex(G, m)
        fv = cx.f_vector()
        closed = [p(m) for p in f_vector_closed(info)]
        rec = [p(m) for p in f_polys_recursive(G)]
        checks.append(
            _check(
                f"fvector {name} m={m}",
                fv == closed == rec,
                f"brute={fv} closed={closed} recur={rec}",
            )
        )
        checks.append(_check(f"purity {name} m={m}", cx.audit_pure()))
        checks.append(
            _check(f"ridge-degree {name} m={m}", cx.audit_ridge_degree())
        )
        hv = h_vector_from_f(fv)
        hclosed = [p(m) for p in h_vector_closed(info)]
        checks.append(
            _check(
                f"hvector {name} m={m}",
                hv == hclosed,
                f"F(x-1)={hv} closed={hclosed}",
            )
        )
        chi = reduced_euler(fv)
        expected = (-1) ** (rank - 1) * N_product(info, m - 1)
        checks.append(
            _check(
                f"euler {name} m={m}",
                chi == expected,
                f"chi={chi} expected={expected}",
            )
        )
        pos = cx.positive_facet_count()
        checks.append(
            _check(
                f"positive-facets {name} m={m}",
                pos == N_plus_product(info, m),
                f"enumerated={pos} product={N_plus_product(info, m)}",
            )
        )
    # named counts (criterion 3)
    cx = build_complex(parse_diagram("A2"), 2)
    checks.append(_check("named Delta^2(A2)", cx.f_vector() == [1, 8, 12]))
    cx = build_complex(parse_diagram("B2"), 3)
    degs = {cx.degree(i) for i in range(cx.num_vertices())}
    checks.append(
        _check(
            "named Delta^3(B2)",
            cx.f_vector()[1] == 14 and degs == {4},
        )
    )
    if max_rank >= 4 and max_m >= 2:
        cx = build_complex(parse_diagram("D4"), 2)
        checks.append(
            _check(
                "named Delta^2(D4) facets",
                cx.facet_count() == 336 == N_product(TypeInfo.of("D4"), 2),
            )
        )
    cx = build_complex(parse_diagram("H3"), 1)
    checks.append(
        _check(
            "named Delta^1(H3) facets",
            cx.facet_count() == 32 == N_product(TypeInfo.of("H3"), 1),
        )
    )
    checks.append(
        _check("named chi Delta^2(A2)", reduced_euler([1, 8, 12]) == -5)
    )
    # restriction property (criterion 2): links of negative simples
    for name in ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4", "I2(5)"]:
        G = parse_diagram(name)
        if G.rank > max_rank:
            continue
        for m in (1, 2):
            if m > max_m:
                continue
            cx = build_complex(G, m)
            ok = all(
                link_decomposition_check(cx, i) for i in range(G.rank)
            )
            checks.append(_check(f"restriction {name} m={m}", ok))
    return checks


# ---------------------------------------------------------------------------
# model suite: criterion 6


def _model_audit(model, label: str, checks: list[Check]):
    """The colored complex of ``model.rs`` against the polygon model under
    its bijection (``polygon.checked_complex``): the same adjacency, and
    the colored rotation as the model's, ``at[turn[p]] == rotate(at[p])``
    at every position p."""
    rotate = partial(rotate_diag, N=model.N) if isinstance(model, TypeAModel) else model.rotate_vertex
    try:
        cx = checked_complex(model)
    except AmbiguousOrbit as e:
        checks += [_check(f"model-iso {label}", False, str(e)), _check(f"model-rotation {label}", False)]
        return
    checks.append(_check(f"model-iso {label}", True))
    at = model.at
    rot_ok = all(at[cx.rotate_vertex(p)] == rotate(x) for p, x in enumerate(at))
    checks.append(_check(f"model-rotation {label}", rot_ok))


def suite_models(max_rank: int = 4, max_m: int = 3) -> list[Check]:
    checks: list[Check] = []
    for model_cls, family, ranks in (
        (TypeAModel, "A", (2, 3, 4)),
        (TypeBModel, "B", (2, 3)),
        (TypeDModel, "D", (3, 4)),
    ):
        for n in ranks:
            if n > max_rank:
                continue
            for m in (1, 2):
                if m > max_m:
                    continue
                _model_audit(model_cls(n, m), f"{family}{n} m={m}", checks)
    # dissection counts
    for n in range(1, min(4, max_rank) + 1):
        for m in range(1, min(3, max_m) + 1):
            want = [p(m) for p in f_vector_closed(TypeInfo("A", n))]
            got = checked_complex(TypeAModel(n, m)).survey.counts
            checks.append(
                _check(f"dissection-counts A{n} m={m}", got == want, f"{got} vs {want}")
            )
    # type B: diameter fraction k/n
    for n in (2, 3):
        if n > max_rank:
            continue
        for m in (1, 2):
            if m > max_m:
                continue
            model = TypeBModel(n, m)
            ok = True
            for k in range(1, n + 1):
                faces = model.faces(k)
                with_diam = sum(
                    1
                    for f in faces
                    if any(model.vertices[i].kind == "diam" for i in f)
                )
                if Fraction(with_diam, len(faces)) != Fraction(k, n):
                    ok = False
            checks.append(_check(f"diameter-fraction B{n} m={m}", ok))
    # the twelve facets at the gray primary diameter of the rank-3 model
    if max_rank >= 3 and max_m >= 2:
        model = TypeDModel(3, 2)
        gray = next(
            i
            for i, v in enumerate(model.vertices)
            if v.kind == "diam" and v.position == 1 and v.flavor == "gray"
        )
        count = sum(1 for f in model.faces(3) if gray in f)
        checks.append(_check("D3 m=2 gray-primary facets", count == 12, str(count)))
    return checks


# ---------------------------------------------------------------------------
# catalog suite: criteria 7-9


FAKE_CATALOG: list[dict] = [
    {"spec": "~A2", "h": F(6), "exponents": [1, 3, 5]},
    {"spec": "~A3", "h": F(8), "exponents": [1, 3, 5, 7]},
    {"spec": "~A4", "h": F(10), "exponents": [1, 3, 5, 7, 9]},
    {"spec": "~A5", "h": F(12), "exponents": [1, 3, 5, 7, 9, 11]},
    {"spec": "~G2", "h": F(22), "exponents": [1, 11, 21]},
    {"spec": "~B2", "h": F(10), "exponents": [1, 5, 9]},
    {
        "spec": "~C3",
        "h": F(13),
        "exponents": [1, 12],
        "residual": [38, -13, 1],  # roots (13 +- sqrt(17))/2
    },
    {
        "spec": "~B3",
        "h": F(76, 5),
        "exponents": [1, F(33, 5), F(43, 5), F(71, 5)],
    },
    {
        "spec": "n=4;1-2:3 2-3:3 3-4:3 1-4:4",
        "h": F(43, 2),
        "exponents": [1, F(41, 2)],
        "residual": [213, -43, 2],  # roots (43 +- sqrt(145))/4
    },
]


def suite_catalog(max_rank: int = 8, max_m: int = 3) -> list[Check]:
    checks: list[Check] = []
    disagree: list[str] = []  # the specs whose report's methods disagree

    def pool(spec: str, rep) -> None:
        if rep.consensus == "disagree":
            disagree.append(spec)

    # finite catalog, every method
    names = (
        [f"A{n}" for n in range(3, 9)]
        + [f"B{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "H3", "H4"]
    )
    for name in names:
        G = parse_diagram(name)
        if G.rank > max_rank:
            continue
        cls = classify(G)
        rep = compute_all(G)
        ok = True
        for res in rep.methods.values():
            if res.status != "ok":
                ok = False
            elif res.h != cls.coxeter_number or list(
                res.exponents.rational
            ) != [F(e) for e in cls.exponents] or res.exponents.residual is not None:
                ok = False
        pool(name, rep)
        checks.append(_check(f"catalog {name}", ok, f"consensus={rep.consensus}"))
        info = TypeInfo.of(G)
        mg = rep.methods["mg"].full_support_count
        fam = info.family
        want = M_VALUES[fam]
        want = want(info.n if fam != "I2" else info.a) if callable(want) else want
        checks.append(_check(f"M({name})", mg == want, f"{mg} vs {want}"))

    # fake catalog (criterion 8)
    for entry in FAKE_CATALOG:
        G = parse_diagram(entry["spec"])
        if G.rank > max_rank:
            continue
        rep = compute_all(G)
        ok = True
        for res in rep.methods.values():
            if not res.yielded:
                ok = False
                continue
            if res.h != entry["h"]:
                ok = False
            if list(res.exponents.rational) != [F(e) for e in entry["exponents"]]:
                ok = False
            want_res = entry.get("residual")
            got_res = (
                list(res.exponents.residual.coeffs)
                if res.exponents.residual is not None
                else None
            )
            if want_res is None:
                if got_res is not None:
                    ok = False
            elif got_res != [F(c) for c in want_res]:
                ok = False
        pool(entry["spec"], rep)
        checks.append(_check(f"fake {entry['spec']}", ok, f"consensus={rep.consensus}"))

    # rank-3 family: h = 2a/(12-a) for a in 8..11
    for labels in [(3, 3, 2), (3, 3, 3), (4, 3, 2), (5, 3, 2), (4, 4, 2), (4, 3, 3), (6, 3, 2), (5, 4, 2), (4, 4, 3), (5, 3, 3)]:
        a = sum(labels)
        spec = f"n=3;1-2:{labels[0]} 2-3:{labels[1]} 1-3:{labels[2]}"
        G = parse_diagram(spec)
        rep = compute_all(G)
        want = F(2 * a, 12 - a)
        ok = all(res.yielded and res.h == want for res in rep.methods.values())
        pool(spec, rep)
        checks.append(_check(f"rank3 a={a} {labels}", ok, f"h={want}"))

    # failing diagrams with their statuses
    K4 = "n=4;1-2:3 2-3:3 3-4:3 1-4:3 1-3:3 2-4:3"
    rep = compute_all(parse_diagram(K4))
    checks.append(
        _check(
            "fail K4",
            all(not res.yielded for res in rep.methods.values())
            and rep.methods["mg"].status == "zero-denominator",
        )
    )
    rep = compute_all(parse_diagram("n=4;1-2:3 2-3:4 3-4:3 1-4:4"))
    checks.append(
        _check("fail 4-cycle(3,4,3,4)", all(not r.yielded for r in rep.methods.values()))
    )
    rep = compute_all(parse_diagram("n=3;1-2:4 1-3:4 2-3:4"))
    checks.append(
        _check(
            "fail rank3 a=12",
            all(r.status == "zero-denominator" for r in rep.methods.values()),
        )
    )
    # D4-affine star: reciprocity succeeds, symmetry flagged, euler fails
    rep = compute_all(parse_diagram("~D4"))
    res_r = rep.methods["reciprocity_general"]
    ok = (
        res_r.status == "ok"
        and res_r.h == 14
        and list(res_r.exponents.rational) == [1, 6, 6, 9, 13]
        and rep.methods["symmetry"].status == "asymmetric-Q"
        and rep.methods["symmetry"].h == 14
        and not rep.methods["euler"].yielded
    )
    checks.append(_check("fake ~D4", ok))
    pool("~D4", rep)

    # cross-method agreement (criterion 9): each report's own consensus
    checks.append(
        _check("cross-method agreement", not disagree, f"{sorted(disagree)}" if disagree else "")
    )
    return checks


SUITES = {
    "oracle": suite_oracle,
    "models": suite_models,
    "catalog": suite_catalog,
}


def run_suites(names, max_rank: int, max_m: int) -> list[Check]:
    out: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        out.extend(SUITES[name](max_rank, max_m))
    return out
