import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccx
from ccx.cli import main
from ccx.diagram import TypeInfo, classify, parse_diagram


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complex_b2(capsys):
    code, out, err = run_cli(capsys, "complex", "--type", "B2", "-m", "3")
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [1, 14, 28]
    assert data["audit_pure"] and data["audit_ridge_degree"]


def test_complex_facets(capsys):
    code, out, _ = run_cli(capsys, "complex", "--type", "A2", "-m", "2", "--facets")
    data = json.loads(out)
    assert len(data["facets"]) == 12


def test_complex_rejects_affine(capsys):
    code, out, err = run_cli(
        capsys, "complex", "--diagram", "n=3;1-2:3 1-3:3 2-3:3", "-m", "1"
    )
    assert code == 1
    assert json.loads(err)["error"] == "not-finite-type"


def test_complex_budget(capsys, monkeypatch):
    monkeypatch.setenv("CCX_BUDGET", "4")
    code, out, err = run_cli(capsys, "complex", "--type", "A2", "-m", "1")
    assert code == 1
    assert json.loads(err)["error"] == "budget"


@pytest.mark.parametrize(
    "argv,faces",
    [
        (["complex", "--type", "E8", "-m", "3"], 119326002),
        (["complex", "--diagram", "n=9; 1-2:3 2-3:3 4-5:3 5-6:3 6-7:3 7-8:3 8-9:4", "-m", "4"],
         None),
        (["dissect", "--family", "A", "-n", "9", "-m", "3"], None),
        (["dissect", "--family", "B", "-n", "9", "-m", "3"], 622361423),
        (["dissect", "--family", "D", "-n", "9", "-m", "3"], None),
        (["dissect", "--family", "B", "-n", "1000000", "-m", "1"], None),
    ],
)
def test_face_budget_refuses_before_enumerating(capsys, argv, faces):
    """The refusal gives the predicted count reached when the budget
    was passed: a lower bound on the complex's face count."""
    from ccx.gcc import FACE_BUDGET

    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    data = json.loads(err)
    assert data["error"] == "budget"
    predicted = int(data["message"].split()[2])
    assert FACE_BUDGET < predicted <= (faces or predicted)


def test_dissect_counts_a4_m4_and_refuses_a12_m1(capsys):
    """A4 m=4, with 44 allowable diagonals, counts its faces as the
    closed forms do, and A12 m=1, with 7.1e7 faces, is refused by the
    face budget."""
    from ccx.formulas import f_k_closed

    code, out, err = run_cli(capsys, "dissect", "--family", "A", "-n", "4", "-m", "4")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["allowable_diagonals"] == 44
    assert data["noncrossing_subset_counts"] == [
        f_k_closed(TypeInfo("A", 4), k)(4) for k in range(5)
    ]
    code, out, err = run_cli(capsys, "dissect", "--family", "A", "-n", "12", "-m", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "budget"


@pytest.mark.parametrize("family,n,m", [("E8", 8, 2), ("B", 8, 2)])
def test_face_budget_admits_the_largest_measured_complexes(family, n, m):
    from ccx.gcc import FACE_BUDGET, check_budget
    from ccx.formulas import f_k_closed

    info = TypeInfo(family, n)
    assert sum(f_k_closed(info, k)(m) for k in range(n + 1)) < FACE_BUDGET
    check_budget([info], m)


def test_complex_i2_200_has_no_root_cap(capsys):
    code, out, err = run_cli(capsys, "complex", "--type", "I2(200)", "-m", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["f_vector"] == [1, 202, 202]


class Built(Exception):
    """Raised by a stubbed constructor: the command went past its budget."""


def refuse_to_build(monkeypatch, *classes):
    """Make each class's constructor raise ``Built``."""

    def stub(self, *args, **kwargs):
        raise Built(type(self).__name__)

    for cls in classes:
        monkeypatch.setattr(cls, "__init__", stub)


@pytest.mark.parametrize("m", [0, 1])
def test_complex_refuses_i2_20000_before_any_root_system(capsys, monkeypatch, m):
    """I2(20000) has 20 002 almost-positive roots, over ``CCX_BUDGET``
    at m = 0 too, and its root system is never built."""
    from ccx.rootsys import RootSystem

    refuse_to_build(monkeypatch, RootSystem)
    code, out, err = run_cli(capsys, "complex", "--type", "I2(20000)", "-m", str(m))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "budget"


@pytest.mark.parametrize("family,n", [("A", 1), ("B", 2)])
def test_dissect_refuses_over_the_vertex_budget_before_any_diagonal(capsys, monkeypatch,
                                                                     family, n):
    from ccx import polygon

    def allowable_diagonals(n, m):
        raise Built("allowable_diagonals")

    monkeypatch.setattr(polygon, "allowable_diagonals", allowable_diagonals)
    code, out, err = run_cli(capsys, "dissect", "--family", family, "-n", str(n), "-m", "2000")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "budget"


def test_dissect_and_complex_refuse_the_same_inputs(capsys, monkeypatch):
    """``ccx dissect --family F -n n -m m`` is refused for its budget
    exactly when ``ccx complex --type Fn -m m`` is; with every model and
    root system constructor stubbed, neither command builds anything.
    An input either refuses for another reason (B1, D1, D2) is refused
    by neither for its budget."""
    from ccx.polygon import TypeAModel, TypeBModel, TypeDModel
    from ccx.rootsys import RootSystem

    refuse_to_build(monkeypatch, TypeAModel, TypeBModel, TypeDModel, RootSystem)

    def over_budget(*argv) -> bool:
        try:
            code, out, err = run_cli(capsys, *argv)
        except Built:
            return False
        assert code == 1 and out == ""
        return json.loads(err)["error"] == "budget"

    refused = set()
    for family in "ABD":
        for n in range(1, 9):
            for m in (1, 3, 250, 700, 2000):
                dissect = over_budget("dissect", "--family", family, "-n", str(n), "-m", str(m))
                complex_ = over_budget("complex", "--type", f"{family}{n}", "-m", str(m))
                assert dissect == complex_, (family, n, m)
                if dissect:
                    refused.add((family, n, m))
    # over the vertex budget, over the face budget, and within both
    assert {("A", 1, 2000), ("A", 2, 700), ("B", 2, 700), ("A", 3, 250), ("D", 8, 3)} <= refused
    assert not {("A", 1, 700), ("B", 2, 250), ("A", 8, 3), ("D", 8, 1), ("B", 1, 2000)} & refused


def test_dissect_malformed_budget(capsys, monkeypatch):
    monkeypatch.setenv("CCX_BUDGET", "abc")
    code, out, err = run_cli(capsys, "dissect", "--family", "B", "-n", "2", "-m", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "usage",
        "message": "CCX_BUDGET must be an integer, got 'abc'",
    }


def test_complex_malformed_budget(capsys, monkeypatch):
    monkeypatch.setenv("CCX_BUDGET", "abc")
    code, out, err = run_cli(capsys, "complex", "--type", "A2", "-m", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "usage",
        "message": "CCX_BUDGET must be an integer, got 'abc'",
    }


def test_fvector_csv(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--type", "B2", "-m", "3", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,n,m,k,f_k,h_k"
    assert lines[1] == "B2,2,3,0,1,1"
    assert lines[-1] == "B2,2,3,2,28,15"


def test_hvector_json(capsys):
    code, out, _ = run_cli(capsys, "hvector", "--type", "A2", "-m", "1")
    data = json.loads(out)
    assert data["h_vector"] == ["1", "3", "1"]


COMPONENTS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "D5", "E6", "F4", "G2", "H3",
              "H4", "I2(5)", "I2(8)"]


def disjoint_union(names: list[str]) -> str:
    """The spec of the diagram whose components are the named types."""
    edges, offset = [], 0
    for name in names:
        G = parse_diagram(name)
        index = {v: offset + k + 1 for k, v in enumerate(sorted(G.vertices))}
        edges += [f"{index[i]}-{index[j]}:{lab}" for i, j, lab in G.edges()]
        offset += G.rank
    return " ".join([f"n={offset};", *edges])


def cli_stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@given(st.lists(st.sampled_from(COMPONENTS), min_size=2, max_size=3), st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_face_numbers_of_reducible_diagrams_are_the_recurrence_values(names, m):
    """On a reducible diagram, ``ccx fvector`` and ``ccx hvector`` convolve
    the closed-form values of the components; the recurrence over
    subdiagrams, evaluated at m, is the oracle."""
    from ccx.exactmath import format_fraction
    from ccx.formulas import f_polys_recursive, h_vector_from_f

    spec = disjoint_union(names)
    G = parse_diagram(spec)
    fv = [p(m) for p in f_polys_recursive(G)]
    hv = h_vector_from_f(fv)
    fs, hs = [format_fraction(x) for x in fv], [format_fraction(x) for x in hv]
    name = classify(G).type_name
    rows = ["type,n,m,k,f_k,h_k"]
    rows += [f"{name},{G.rank},{m},{k},{fs[k]},{hs[k]}" for k in range(G.rank + 1)]
    for command in ("fvector", "hvector"):
        data = json.loads(cli_stdout(command, "--diagram", spec, "-m", str(m)))
        assert (data["f_vector"], data["h_vector"]) == (fs, hs)
        csv = cli_stdout(command, "--diagram", spec, "-m", str(m), "--emit", "csv")
        assert csv.splitlines() == rows


def test_face_numbers_and_the_budget_build_no_polynomial(capsys, monkeypatch):
    """``ccx fvector`` and ``check_budget`` read the closed forms as values
    at m: every Poly is made through ``exactmath._set``, and none is."""
    from ccx import exactmath
    from ccx.gcc import BudgetExceeded, check_budget

    built = []
    real = exactmath._set

    def counting(*args):
        built.append(args[1:])
        return real(*args)

    monkeypatch.setattr(exactmath, "_set", counting)
    code, out, _ = run_cli(capsys, "fvector", "--type", "A300", "-m", "1")
    assert code == 0 and len(json.loads(out)["f_vector"]) == 301
    check_budget([TypeInfo("D", 6)], 1)
    check_budget([TypeInfo("E8", 8)], 1)
    check_budget([TypeInfo("B", 3), TypeInfo("I2", 2, 7), TypeInfo("F4", 4)], 2)
    with pytest.raises(BudgetExceeded):
        check_budget([TypeInfo("A", 300)], 1)
    assert built == []


@pytest.mark.parametrize("command", ["fvector", "hvector"])
def test_face_numbers_make_no_call_to_h_vector_from_f(capsys, monkeypatch, command):
    """``ccx fvector`` and ``ccx hvector`` convolve the components'
    closed-form h values; ``h_vector_from_f``, the quadratic route from
    the f-vector, is left to ``verify`` as the independent check."""
    from ccx import cli, formulas

    calls = []
    real = formulas.h_vector_from_f
    for module in (cli, formulas):
        monkeypatch.setattr(module, "h_vector_from_f",
                            lambda fv: calls.append(fv) or real(fv), raising=False)
    for spec in ("A30", disjoint_union(["B3", "D4", "H3"]), "n=5; 1-2:3 4-5:5", "n=0;"):
        code, out, _ = run_cli(capsys, command, "--diagram", spec, "-m", "2")
        assert code == 0 and json.loads(out)["h_vector"][0] == "1"
    assert calls == []


@pytest.mark.parametrize("command,spec,m", [
    ("fvector", "A1001", 1),          # rank over TABLE_RANK_BUDGET
    ("hvector", "n=1001;", 0),
    ("hvector", "A1000", 16),         # 1000 (2 + 15) bits predicted
    ("fvector", "n=1000;", 8191),     # 1000 (2 + 15) bits
    ("hvector", "I2(5)", 2 ** 8000),  # 2 (2 + 8003) bits
])
def test_face_tables_refuse_over_budget_before_any_value(capsys, monkeypatch, command, spec, m):
    from ccx import formulas

    def level_products(*args):
        raise Built("_level_products")

    monkeypatch.setattr(formulas, "_level_products", level_products)
    code, out, err = run_cli(capsys, command, "--diagram", spec, "-m", str(m))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "budget"


def test_face_table_budget_admits_a1000_and_b1000():
    from ccx.gcc import TABLE_BITS_BUDGET, check_table_budget

    for info in (TypeInfo("A", 1000), TypeInfo("B", 1000), TypeInfo("D", 1000)):
        check_table_budget([info], 1)
    check_table_budget([TypeInfo("A", 1)] * 1000, 8190)  # 1000 (2 + 14) bits
    check_table_budget([TypeInfo("A", 1000)], 15)
    check_table_budget([TypeInfo("I2", 2, 5)], 2 ** (TABLE_BITS_BUDGET // 2 - 7))


def test_hvector_builds_each_level_product_once_per_vector(capsys, monkeypatch):
    """Work count, no clock: the closed forms give a component's whole
    f- or h-vector from one running product over its levels, so A1000
    builds one product for its f-vector and one for its h-vector."""
    from ccx import formulas

    calls = []
    real = formulas._level_products

    def counting(info, m, correction, sign):
        calls.append((info.family, info.n, sign))
        return real(info, m, correction, sign)

    monkeypatch.setattr(formulas, "_level_products", counting)
    code, out, _ = run_cli(capsys, "hvector", "--type", "A1000", "-m", "1")
    data = json.loads(out)
    assert code == 0 and len(data["f_vector"]) == len(data["h_vector"]) == 1001
    assert data["h_vector"][1] == str(1000 * 1001 // 2)  # the Narayana number N(1001, 2)
    assert sorted(calls) == [("A", 1000, -1), ("A", 1000, 1)]
    del calls[:]
    code, _, _ = run_cli(capsys, "fvector", "--diagram", disjoint_union(["B3", "D4", "H3"]),
                         "-m", "2")
    assert code == 0
    assert sorted(calls) == sorted((f, n, s) for f, n in (("B", 3), ("D", 4), ("H3", 3))
                                   for s in (1, -1))


def test_invariants_h4(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--type", "H4")
    data = json.loads(out)
    assert data["consensus"] == "agree"
    for res in data["methods"].values():
        assert res["status"] == "ok"
        assert res["h"] == "30"
        assert res["exponents"] == ["1", "11", "19", "29"]


def test_invariants_affine_a3(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--diagram", "~A3")
    data = json.loads(out)
    for res in data["methods"].values():
        assert res["h"] == "8"
        assert res["exponents"] == ["1", "3", "5", "7"]


def test_invariants_k4_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariants",
        "--diagram",
        "n=4;1-2:3 2-3:3 3-4:3 1-4:3 1-3:3 2-4:3",
    )
    data = json.loads(out)
    assert code == 0
    statuses = {res["status"] for res in data["methods"].values()}
    assert statuses == {"zero-denominator"}


def test_invariants_single_method(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--type", "B3", "--method", "mg")
    data = json.loads(out)
    assert list(data["methods"]) == ["mg"]
    assert data["methods"]["mg"]["M"] == "3"


def test_dissect_a(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--family", "A", "-n", "2", "-m", "2")
    data = json.loads(out)
    assert data["allowable_diagonals"] == 8
    assert data["noncrossing_subset_counts"] == [1, 8, 12]


def test_dissect_a11_counts_equal_the_closed_form(capsys):
    from ccx.formulas import f_k_closed

    code, out, _ = run_cli(capsys, "dissect", "--family", "A", "-n", "11", "-m", "1")
    data = json.loads(out)
    assert code == 0 and data["allowable_diagonals"] == 77 and data["polygon"] == 14
    want = [f_k_closed(TypeInfo("A", 11), k)(1) for k in range(12)]
    assert data["noncrossing_subset_counts"] == want


@pytest.mark.parametrize("family,n,m", [("A", 3, 2), ("B", 3, 2), ("D", 4, 2)])
def test_dissect_refuses_a_tampered_bijection(capsys, monkeypatch, family, n, m):
    """Swapping entries 0 and n of the model's list on positions, the
    images of -alpha_1 and alpha_1 (color 1), keeps the map one-to-one,
    but the model's adjacency rule on the list no longer gives the
    complex's rows, so the counts are not read: exit 1, internal-error."""
    from ccx.polygon import TypeAModel, TypeBModel, TypeDModel

    cls = {"A": TypeAModel, "B": TypeBModel, "D": TypeDModel}[family]
    real = cls.at.func

    def tampered(self):
        at = list(real(self))
        assert self.rs.support_masks[n] == 1  # root id n is alpha_1
        at[0], at[n] = at[n], at[0]
        return at

    argv = ("dissect", "--family", family, "-n", str(n), "-m", str(m))
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cls, "at", property(tampered))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "internal-error" and "pair mismatches" in error["message"]
    for emit in ("json", "text"):
        assert run_cli(capsys, *argv, "--emit", emit)[0] == 1


@pytest.mark.parametrize("family,n,m", [("A", 6, 2), ("B", 4, 2), ("D", 5, 2)])
def test_dissect_surveys_no_graph_as_large_as_the_model(capsys, monkeypatch, family, n, m):
    """The counts come from the parabolic survey of the complex, which
    enumerates cliques on its rank-1 leaves only, each an A1 of m + 1
    vertices; the model graph itself is never surveyed."""
    from ccx import gcc

    sizes: list[int] = []
    real = gcc.clique_survey

    def counting(adj, top, marked=0, within=None):
        sizes.append(len(adj) if within is None else within.bit_count())
        return real(adj, top, marked, within)

    monkeypatch.setattr(gcc, "clique_survey", counting)
    code, out, _ = run_cli(capsys, "dissect", "--family", family, "-n", str(n), "-m", str(m))
    data = json.loads(out)
    V = data["allowable_diagonals" if family == "A" else "model_vertices"]
    assert code == 0 and set(sizes) == {m + 1} and m + 1 < V


def test_dissect_svg(capsys):
    code, out, _ = run_cli(
        capsys, "dissect", "--family", "D", "-n", "3", "-m", "2", "--emit", "svg"
    )
    assert code == 0
    assert out.startswith("<svg")


def test_dissect_svg_lists_facets_only_up_to_the_index(capsys, monkeypatch):
    from ccx.gcc import iter_cliques

    drawn = []

    def counting(adj, k):
        for facet in iter_cliques(adj, k):
            drawn.append(facet)
            yield facet

    monkeypatch.setattr(ccx.cli, "iter_cliques", counting)
    args = ("dissect", "--family", "D", "-n", "6", "-m", "3", "--emit", "svg", "--facet")
    code, out, _ = run_cli(capsys, *args, "3")
    assert code == 0 and out.startswith("<svg")
    assert 0 < len(drawn) <= 4
    code, _, err = run_cli(capsys, *args, "-1")
    assert code == 1 and "out of range" in err


def test_dissect_svg_draws_diameters_in_their_flavors(capsys):
    """A D facet draws each gray chord gray and each dashed chord dashed;
    B diameters, which have no flavor, draw plain."""
    from ccx.polygon import TypeBModel, TypeDModel

    model = TypeDModel(3, 2)
    idx, facet = next(
        (idx, f)
        for idx, f in enumerate(model.faces(3))
        if {model.vertices[i].flavor for i in f} >= {"gray", "dashed"}
    )
    flavors = [model.vertices[i].flavor for i in facet for _ in model.vertices[i].chords]
    code, out, _ = run_cli(
        capsys, "dissect", "--family", "D", "-n", "3", "-m", "2",
        "--emit", "svg", "--facet", str(idx),
    )
    assert code == 0
    assert out.count('stroke="#888888"') == flavors.count("gray") > 0
    assert out.count("stroke-dasharray") == flavors.count("dashed") > 0

    model = TypeBModel(3, 2)
    for idx in (0, 5):
        assert any(model.vertices[i].kind == "diam" for i in model.faces(3)[idx])
        code, out, _ = run_cli(
            capsys, "dissect", "--family", "B", "-n", "3", "-m", "2",
            "--emit", "svg", "--facet", str(idx),
        )
        assert code == 0 and out.count("<line") == 2 * 3 - 1
        assert "#888888" not in out and "stroke-dasharray" not in out


def test_dissect_b_counts(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--family", "B", "-n", "2", "-m", "2")
    data = json.loads(out)
    assert data["facet_count"] == 15


@pytest.mark.parametrize(
    "family,n,m",
    [(f, n, m) for f, ns in (("B", (2, 3, 4)), ("D", (3, 4, 5))) for n in ns for m in (1, 2)],
)
def test_dissect_counts_match_complex(capsys, family, n, m):
    from ccx.diagram import parse_diagram
    from ccx.gcc import build_complex

    code, out, _ = run_cli(
        capsys, "dissect", "--family", family, "-n", str(n), "-m", str(m)
    )
    assert code == 0
    data = json.loads(out)
    fv = build_complex(parse_diagram(f"{family}{n}"), m).f_vector()
    assert data["face_counts"] == fv
    assert data["facet_count"] == fv[n]


def test_verify_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "models", "--max-rank", "3", "--max-m", "1"
    )
    assert code == 0
    assert "checks passed" in out.strip().splitlines()[-1]
    assert "FAIL" not in out


def test_outputs_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "invariants", "--type", "F4")
    _, out2, _ = run_cli(capsys, "invariants", "--type", "F4")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complex"])  # missing -m
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    import argparse

    import ccx.cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    ccx.cli.build_parser.cache_clear()
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["complex"])  # missing -m
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
        assert run_cli(capsys, "fvector", "--type", "A2", "-m", "1")[0] == 0
    assert built.count("ccx") == 1
    # a parser built afresh reports the same usage error
    with pytest.raises(SystemExit) as exc:
        ccx.cli.build_parser.__wrapped__().parse_args(["complex"])
    assert exc.value.code == 2
    assert errs == [capsys.readouterr().err] * 2 and "-m" in errs[0]


def test_missing_diagram_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "complex", "-m", "1")
    assert code == 1
    assert json.loads(err)["error"] == "usage"


def test_internal_check_failure_is_structured_exit_1(capsys, monkeypatch):
    import ccx.cli
    from ccx.rootsys import LookupMiss

    def broken(*args, **kwargs):
        raise LookupMiss("reflected root not found")

    monkeypatch.setattr(ccx.cli, "build_complex", broken)
    code, out, err = run_cli(capsys, "complex", "--type", "A2", "-m", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "internal-error",
        "message": "LookupMiss: reflected root not found",
    }


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["complex", "--type", "A2", "-m", "-1"],
         {"error": "domain-error", "message": "color count must be >= 0"}),
        (["fvector", "--type", "A3", "-m", "-1"],
         {"error": "domain-error", "message": "color count must be >= 0"}),
        (["hvector", "--type", "A3", "-m", "-1"],
         {"error": "domain-error", "message": "color count must be >= 0"}),
        (["dissect", "--family", "A", "-n", "0", "-m", "1"],
         {"error": "domain-error", "message": "need n >= 1 and m >= 1"}),
        (["dissect", "--family", "B", "-n", "1", "-m", "1"],
         {"error": "bad-parameters", "message": "type B model needs n >= 2"}),
    ],
)
def test_input_errors_are_structured_exit_1(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == expected


def test_bare_value_error_is_internal(capsys, monkeypatch):
    import ccx.cli

    def broken(*args, **kwargs):
        raise ValueError("an unexpected value")

    monkeypatch.setattr(ccx.cli, "build_complex", broken)
    code, out, err = run_cli(capsys, "complex", "--type", "A2", "-m", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "internal-error",
        "message": "ValueError: an unexpected value",
    }


def test_empty_diagram_complex(capsys):
    code, out, _ = run_cli(capsys, "complex", "--diagram", "n=0;", "-m", "1")
    data = json.loads(out)
    assert code == 0
    assert data["f_vector"] == [1] and data["facet_count"] == 1
    assert data["positive_facet_count"] == 1
    assert data["audit_pure"] and data["audit_ridge_degree"]


@pytest.mark.parametrize("command", ["fvector", "hvector"])
def test_empty_diagram_face_numbers(capsys, command):
    code, out, _ = run_cli(capsys, command, "--diagram", "n=0;", "-m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == ["1"] and data["h_vector"] == ["1"]


def test_cli_imports_only_the_standard_library():
    src = str(Path(ccx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ccx.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_lost_root_factor_is_internal_error(capsys, monkeypatch):
    """A root extraction that loses a factor fails its audit, which the
    command reports as an internal error, exit 1."""
    from ccx import exactmath, invariants
    from test_exactmath import _losing_a_root

    invariants._exponents.cache_clear()  # so that the roots are extracted here
    monkeypatch.setattr(exactmath, "_padic_roots", _losing_a_root(exactmath._padic_roots))
    code, out, err = run_cli(capsys, "invariants", "--type", "~E8")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "internal-error",
        "message": "ArithmeticError: root extraction lost a factor",
    }
