"""Command line surface: complex, fvector, hvector, dissect, invariants, verify.

JSON on stdout by default; exit code 0 on success, 1 on domain errors
and failed internal checks (with a structured error object on stderr),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import islice

from . import __version__
from .diagram import CoxeterDiagram, InputError, TypeInfo, classify, parse_diagram
from .formulas import f_vector_closed, h_vector_closed, join_vector, reduced_euler
from .exactmath import format_fraction
from .gcc import (
    BudgetExceeded,
    MalformedBudget,
    build_complex,
    check_budget,
    check_table_budget,
    finite_infos,
    iter_cliques,
)
from .invariants import METHOD_ALIASES, compute_all
from .polygon import (
    AmbiguousOrbit,
    TypeAModel,
    TypeBModel,
    TypeDModel,
    checked_complex,
    render_svg,
)
from .rootsys import LookupMiss, NotFiniteType
from .verify import SUITES, run_suites


class DomainError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _emit(payload: dict, emit: str):
    payload = {"version": __version__, **payload}
    if emit == "json":
        print(json.dumps(payload, sort_keys=True))
    elif emit == "text":
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    else:
        raise DomainError("bad-emit", f"unsupported emit format {emit!r}")


def _load_diagram(args) -> CoxeterDiagram:
    if getattr(args, "type", None):
        return parse_diagram(args.type)
    if getattr(args, "diagram", None):
        return parse_diagram(args.diagram)
    raise DomainError("usage", "one of --type/--diagram is required")


def cmd_complex(args) -> int:
    G = _load_diagram(args)
    cx = build_complex(G, args.m)
    fv = cx.f_vector()
    payload = {
        "diagram": G.to_spec(),
        "m": args.m,
        "rank": cx.n,
        "num_vertices": cx.num_vertices(),
        "f_vector": fv,
        "facet_count": fv[cx.n],
        "positive_facet_count": cx.positive_facet_count(),
        "reduced_euler": reduced_euler(fv),
        "audit_pure": cx.audit_pure(),
        "audit_ridge_degree": cx.audit_ridge_degree(),
    }
    if args.facets:
        payload["facets"] = [list(f) for f in cx.facets()]
        payload["vertices"] = cx.vertices_json()
    _emit(payload, args.emit)
    return 0


def _face_table(G: CoxeterDiagram, m: int) -> tuple[list, list]:
    infos = finite_infos(G, m)
    check_table_budget(infos, m)
    return join_vector(infos, m, f_vector_closed), join_vector(infos, m, h_vector_closed)


def _emit_face_csv(G: CoxeterDiagram, m: int, fv, hv):
    cls = classify(G)
    name = cls.type_name or G.to_spec()
    print("type,n,m,k,f_k,h_k")
    for k in range(G.rank + 1):
        print(f"{name},{G.rank},{m},{k},{format_fraction(fv[k])},{format_fraction(hv[k])}")


def cmd_fvector(args) -> int:
    G = _load_diagram(args)
    fv, hv = _face_table(G, args.m)
    if args.emit == "csv":
        _emit_face_csv(G, args.m, fv, hv)
        return 0
    _emit(
        {
            "diagram": G.to_spec(),
            "m": args.m,
            "f_vector": [format_fraction(x) for x in fv],
            "h_vector": [format_fraction(x) for x in hv],
        },
        args.emit,
    )
    return 0


def cmd_dissect(args) -> int:
    n, m = args.n, args.m
    model_cls = {"A": TypeAModel, "B": TypeBModel, "D": TypeDModel}[args.family]
    if n >= model_cls.min_rank and m >= 1:  # otherwise the model refuses the parameters
        check_budget([TypeInfo(args.family, n)], m)
    if args.family == "A":
        model = TypeAModel(n, m)
        styled = [[(d, "plain")] for d in model.diagonals]
    else:
        try:
            model = model_cls(n, m)
        except InputError as e:
            raise DomainError("bad-parameters", str(e))
        styled = [[(c, v.flavor or "plain") for c in v.chords] for v in model.vertices]
    if args.emit == "svg":
        facets = iter_cliques(model.adj, n)
        facet = next(islice(facets, args.facet, None), None) if args.facet >= 0 else None
        if facet is None:
            raise DomainError("bad-parameters", f"facet index {args.facet} out of range")
        print(render_svg(model.N, [chord for i in facet for chord in styled[i]]))
        return 0
    fv = checked_complex(model).survey.counts
    if args.family == "A":
        counts = {"allowable_diagonals": len(styled), "noncrossing_subset_counts": fv}
    else:
        counts = {"model_vertices": len(styled), "facet_count": fv[n], "face_counts": fv}
    _emit({"family": args.family, "n": n, "m": m, "polygon": model.N, **counts}, args.emit)
    return 0


def cmd_invariants(args) -> int:
    G = _load_diagram(args)
    if args.method == "all":
        methods = None
    else:
        methods = [METHOD_ALIASES[args.method]]
    report = compute_all(G, methods)
    print(json.dumps({"version": __version__, **report.to_json()}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(suites, args.max_rank, args.max_m)
    failed = 0
    for name, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        line = f"{mark} {name}"
        if detail and not ok:
            line += f"  [{detail}]"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ccx`` parser, built once per process and reused by ``main``."""
    p = argparse.ArgumentParser(
        prog="ccx",
        description="generalized cluster complexes and Coxeter diagram invariants",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_diagram_opts(sp):
        sp.add_argument("--type", help="named type, e.g. B3, I2(7), ~A3")
        sp.add_argument("--diagram", help="explicit spec: 'n=3; 1-2:3 2-3:4'")

    sp = sub.add_parser("complex", help="build a colored cluster complex")
    add_diagram_opts(sp)
    sp.add_argument("-m", type=int, required=True, help="number of colors")
    sp.add_argument("--facets", action="store_true", help="include the facet list")
    sp.add_argument("--emit", default="json", choices=["json", "text"])
    sp.set_defaults(func=cmd_complex)

    for name, help_text in (
        ("fvector", "face numbers from the closed forms"),
        ("hvector", "face and h numbers from the closed forms"),
    ):
        sp = sub.add_parser(name, help=help_text)
        add_diagram_opts(sp)
        sp.add_argument("-m", type=int, required=True)
        sp.add_argument("--emit", default="json", choices=["json", "text", "csv"])
        sp.set_defaults(func=cmd_fvector)

    sp = sub.add_parser("dissect", help="polygon dissection models")
    sp.add_argument("--family", required=True, choices=["A", "B", "D"])
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--facet", type=int, default=0, help="facet index for svg")
    sp.add_argument("--emit", default="json", choices=["json", "text", "svg"])
    sp.set_defaults(func=cmd_dissect)

    sp = sub.add_parser("invariants", help="run the diagram invariant methods")
    add_diagram_opts(sp)
    sp.add_argument(
        "--method",
        default="all",
        choices=["all", "euler", "symmetry", "recip", "recipm", "mg"],
    )
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--max-rank", type=int, default=8)
    sp.add_argument("--max-m", type=int, default=3)
    sp.add_argument(
        "--suite", default="all", choices=[*SUITES, "all"]
    )
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:
        kind, message = e.kind, str(e)
    except InputError as e:
        kinds = {BudgetExceeded: "budget", MalformedBudget: "usage", NotFiniteType: "not-finite-type"}
        kind, message = kinds.get(type(e), "domain-error"), str(e)
    except (LookupMiss, AmbiguousOrbit, ArithmeticError, ValueError) as e:
        # a failed internal check (a root-system invariant, a polygon
        # bijection, root reassembly) or any other ValueError: a bug
        kind, message = "internal-error", f"{type(e).__name__}: {e}"
    print(json.dumps({"error": kind, "message": message}, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
