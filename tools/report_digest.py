"""Print digest lines for comparing two versions of ccx.

Each report line is the diagram spec and the sha256 of the canonical
JSON of ``compute_all(G).to_json()`` (sorted keys), with the float
approximations of the exponents (``approx``, ``exponents_approx``)
removed, since only the exact values are meant to be identical.

The diagrams: the finite catalog of ranks 1-8, the fake catalog, the
affine types, and a fixed random draw of rank 3-6 with labels 2-8.
Then diagrams whose subdiagrams fall into few isomorphism classes, or
into classes that are hard to tell apart (``class_cases``): the stars
of rank 8, 9 and 10 (the rank-10 star's exponent residuals reach
1398-bit coefficients, the largest of any report line), the
complete diagrams K5-K7 with every label 3, K3,3 and the triangular
prism (which colour refinement alone does not separate), the square
with labels 3-4-3-4, and a fixed random draw of connected rank-7
diagrams whose skeleton has a cycle.

Then each type of the finite catalog gets a ``catalog`` line: the sha256
of its closed forms ``f_k_closed`` and ``h_k_closed`` for every k, then
the facet count f_n again and its reciprocal ``f_plus_poly``, the
positive facet count, and the fields of ``classify``, among them
``minus_one_longest``, which no CLI output shows.
Each diagram of ``classify_cases`` gets a ``classify`` line, the sha256 of
the same ``classify`` fields: types of rank 1000-2000, the edgeless
diagram, a reducible diagram whose components interleave their ids, the
cycle ~A5 and a 5-cycle that one label 4 keeps from being ~A4, and a
path of even rank with its label 4 at the low end, which the catalog
draws at the high end (two centres, named from either side).

Then each (diagram, m) of ``complex_cases`` gets a ``complex`` line: the
sha256 of the JSON stdout of ``ccx complex --diagram <spec> -m <m>``,
which carries the f-vector, the facet counts and both audits.  Among
them are the edge cases of the survey by rotation orbits and parabolic
links (``gcc.parabolic_survey``): m = 0, a rank-1 component, orbits
holding two negative simples, and the deepest recursions, E8 at m = 2,
E7 at m = 3, D8 at m = 2 and the reducible E6 + A2 at m = 2.  These
lines are the same whether the complex is surveyed whole
(``gcc.clique_survey``), by orbits or by parabolic links.

Then each (diagram, m) of ``fvector_cases`` gets an ``fvector`` line: the
sha256 of the stdout of ``ccx fvector --diagram <spec> -m <m>``, as JSON
and as CSV.  The diagrams are reducible, so the face numbers are the
convolution of the closed-form values of their components at m
(``formulas.f_vector``); these lines were first written when the
recurrence over subdiagrams (``f_polys_recursive``) supplied them.

Then each (type, m) of ``facet_cases`` gets a ``facets`` line: the
sha256 of ``ccx complex --type <type> -m <m> --facets``, whose vertex
``coords`` are the root coordinates rounded to 6 decimals, so these lines
pin the root order and values of the non-simply-laced types.  The last
of them, the reducible diagram whose components interleave their ids at
m = 2, pins the position of each component's vertices, the vertex order
(negative simples first, then each positive root's colors in turn) and
the facets of a complex with several components.

Then each diagram of the fake catalog and each affine type gets a
``stdout`` line: the sha256 of the full stdout of ``ccx invariants
--diagram <spec>``, floats included, so these lines pin the last bit of
the ``approx`` and ``exponents_approx`` values that the report lines
leave out.  So do the cases of ``stdout_cases``: diagrams the methods
postulate (A1, I2(5)) or refuse, as disconnected (``n=3; 1-2:3``), over
the rank budget (A13) or both (``n=13; 1-2:3``), ~C3 with each
``--method`` alias alone, and two diagrams whose facet polynomials have
huge coefficients: the rank-8 diagram ``RANK8``, whose report holds
7564-bit integers, and the rank-12 star, at the rank budget, with
6782-bit integers.

Then each command of ``dissect_cases`` gets a ``dissect`` line: the sha256
of the exit code, stdout and stderr of ``ccx dissect``, so these lines pin
the polygon models' face counts, their SVG facets (chord order and
diameter styles) and the errors on bad parameters.

Last, one ``verify`` line: the sha256 of the stdout of ``ccx verify``,
every check's name and result and the closing count.

Usage, from the root of a checkout (standard library only)::

    PYTHONPATH=src python3 tools/report_digest.py > digests.txt

``tools/report_digest.txt`` holds the expected lines, and
``tests/test_digest.py`` compares a fresh run with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from ccx.cli import main as ccx_main
from ccx.diagram import classify, connected_components, parse_diagram
from ccx.formulas import TypeInfo, f_k_closed, f_plus_poly, h_k_closed
from ccx.invariants import METHOD_ALIASES, compute_all
from ccx.verify import FAKE_CATALOG

RANDOM_SEED = 20050505
RANDOM_PER_RANK = 8
CYCLE_SEED = 20140301


def finite_catalog() -> list[str]:
    return (
        ["A1", "A2", "B2", "G2", "I2(5)", "I2(12)"]
        + [f"A{n}" for n in range(3, 9)]
        + [f"B{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "H3", "H4"]
    )


def affine_list() -> list[str]:
    return (
        [f"~A{n}" for n in range(2, 9)]
        + [f"~B{n}" for n in range(3, 9)]
        + [f"~C{n}" for n in range(2, 9)]
        + [f"~D{n}" for n in range(4, 9)]
        + ["~E6", "~E7", "~E8", "~F4", "~G2"]
    )


def random_spec(rng: random.Random, rank: int) -> str:
    """A random spanning tree plus each further pair with probability
    0.3, every label drawn from 2-8 (label 2 drops the edge)."""
    edges = {(rng.randint(1, v - 1), v): rng.randint(2, 8) for v in range(2, rank + 1)}
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            if (i, j) not in edges and rng.random() < 0.3:
                edges[(i, j)] = rng.randint(2, 8)
    return f"n={rank}; " + " ".join(f"{i}-{j}:{a}" for (i, j), a in sorted(edges.items()))


def random_draw() -> list[str]:
    rng = random.Random(RANDOM_SEED)
    return [random_spec(rng, rank) for rank in range(3, 7) for _ in range(RANDOM_PER_RANK)]


def edge_spec(n: int, pairs) -> str:
    return f"n={n}; " + " ".join(f"{i}-{j}:3" for i, j in pairs)


def class_cases() -> list[str]:
    """Diagrams whose many masks share few classes, or whose classes
    need more than colour refinement to tell apart."""
    stars = [edge_spec(k, [(1, j) for j in range(2, k + 1)]) for k in (8, 9, 10)]
    cliques = [edge_spec(k, [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)])
               for k in (5, 6, 7)]
    k33 = edge_spec(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
    prism = edge_spec(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])
    square = "n=4; 1-2:3 2-3:4 3-4:3 1-4:4"
    rng = random.Random(CYCLE_SEED)
    cyclic: list[str] = []
    while len(cyclic) < RANDOM_PER_RANK:
        spec = random_spec(rng, 7)
        G = parse_diagram(spec)
        if len(connected_components(G)) == 1 and len(G.labels) >= G.rank:
            cyclic.append(spec)
    return stars + cliques + [k33, prism, square] + cyclic


def complex_cases() -> list[tuple[str, int]]:
    """The benchmark's complex pairs, small types at m = 0..3, a
    reducible diagram and the empty one.  Then the edge cases of the
    survey by rotation orbits: the reducible diagram at m = 0 (where the
    identity stands in for the rotation), 1 and 3, a diagram with an
    isolated vertex (a rank-1 component) at m = 0..2, and E6 at m = 1,
    whose rotation orbits each hold two negative simples or one fixed by
    -w0.  Last, the deepest parabolic recursions under ``FACE_BUDGET``:
    E8 at m = 2, E7 at m = 3, D8 at m = 2, and E6 + A2 at m = 2, a join
    of two components that each recurse."""
    bench = [("E8", 1), ("E7", 2), ("E6", 2), ("D6", 2), ("F4", 3),
             ("H4", 2), ("B5", 2), ("A6", 2), ("A5", 3), ("I2(7)", 3)]
    small = [(name, m) for name in ("A1", "A2", "A3", "B2", "G2", "H3") for m in range(4)]
    orbit = ([("n=4; 1-2:3 3-4:4", m) for m in (0, 1, 3)]
             + [("n=3; 2-3:5", m) for m in range(3)] + [("E6", 1)])
    deep = [("E8", 2), ("E7", 3), ("D8", 2), ("n=8; 1-2:3 2-3:3 3-4:3 4-5:3 3-6:3 7-8:3", 2)]
    return bench + small + [("n=4; 1-2:3 3-4:4", 2), ("n=0;", 1)] + orbit + deep


INTERLEAVED = "n=7; 1-3:3 3-5:3 5-7:3 2-4:3 4-6:4"  # A4 on the odd ids, B3 on the even
RANK8 = "n=8; 1-2:3 1-3:4 1-6:5 1-8:3 2-7:5 3-4:3 3-5:3"


def classify_cases() -> list[str]:
    """Diagrams for ``classify`` alone, large ones among them."""
    return ["A2000", "B2000", "D2000", "~B1000", "~C1000", "~D1000", "n=2000;",
            INTERLEAVED, "~A5", "n=5; 1-2:3 2-3:3 3-4:3 4-5:3 1-5:4",
            "n=6; 1-2:4 2-3:3 3-4:3 4-5:3 5-6:3"]


def fvector_cases() -> list[tuple[str, int]]:
    """Reducible diagrams of finite type, whose face numbers take the
    recursive route."""
    return [("n=4; 1-2:3 3-4:4", 2), (INTERLEAVED, 1), (INTERLEAVED, 3),
            ("n=6; 1-2:5 3-4:6 5-6:3", 2), ("n=5; 2-4:3 4-5:5", 1)]


def facet_cases() -> list[tuple[str, int]]:
    """Non-simply-laced types, whose root coordinates lie in Z[sqrt 2]
    (B3, F4), Z[golden ratio] (H4), Z[sqrt 3] (G2) and Z[2cos(pi/7)],
    then A4 + B3 on interleaved ids."""
    return [("H4", 1), ("B3", 2), ("F4", 1), ("G2", 2), ("I2(7)", 3), (INTERLEAVED, 2)]


def stdout_cases() -> list[list[str]]:
    """Arguments of ``ccx invariants`` beyond the catalogs: every check
    before the recursions, and each method run on its own."""
    cases = [["--diagram", spec]
             for spec in ("A1", "I2(5)", "n=3; 1-2:3", "A13", "n=13; 1-2:3")]
    cases += [["--diagram", "~C3", "--method", alias] for alias in METHOD_ALIASES]
    star12 = edge_spec(12, [(1, j) for j in range(2, 13)])
    return cases + [["--diagram", RANK8], ["--diagram", star12]]


def dissect_cases() -> list[list[str]]:
    """Arguments of ``ccx dissect``: every family at m = 1..3 as JSON,
    text and three SVG facets (an index past the last facet is an
    error), then parameters each family refuses, and A4 at m = 4, with
    44 allowable diagonals."""
    ranks = {"A": range(1, 5), "B": range(2, 6), "D": range(3, 7)}
    cases = [["--family", family, "-n", str(n), "-m", str(m)]
             for family in ranks for n in ranks[family] for m in range(1, 4)]
    out = [case + ["--emit", emit] for case in cases for emit in ("json", "text")]
    out += [case + ["--emit", "svg", "--facet", facet]
            for case in cases for facet in ("0", "3", "7")]
    bad = [("A", "0", "1"), ("B", "1", "1"), ("D", "2", "1")]
    return out + [["--family", family, "-n", n, "-m", m] for family, n, m in bad + [("A", "4", "4")]]


def cli_run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``ccx`` on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ccx_main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_stdout(argv: list[str]) -> str:
    return cli_run(argv)[1]


def canonical(report: dict) -> str:
    for res in report["methods"].values():
        res.pop("exponents_approx", None)
        for e in res.get("exponents", []):
            if isinstance(e, dict):
                e.pop("approx", None)
    return json.dumps(report, sort_keys=True)


def class_fields(G) -> str:
    cls = classify(G)
    return repr((cls.kind, cls.type_name, cls.rank, cls.exponents, cls.coxeter_number,
                 cls.minus_one_longest, cls.components))


def catalog_text(spec: str) -> str:
    G = parse_diagram(spec)
    info = TypeInfo.of(G)
    polys = [f_k_closed(info, k) for k in range(G.rank + 1)]
    polys += [h_k_closed(info, k) for k in range(G.rank + 1)]
    polys += [polys[G.rank], f_plus_poly(polys[G.rank], G.rank)]
    return "\n".join([class_fields(G)] + [" ".join(p.serialize()) for p in polys])


def main() -> None:
    specs = (finite_catalog() + [e["spec"] for e in FAKE_CATALOG] + affine_list()
             + random_draw() + class_cases())
    for spec in specs:
        text = canonical(compute_all(parse_diagram(spec)).to_json())
        print(spec, hashlib.sha256(text.encode()).hexdigest())
    for spec in finite_catalog():
        print(spec, "catalog", hashlib.sha256(catalog_text(spec).encode()).hexdigest())
    for spec in classify_cases():
        text = class_fields(parse_diagram(spec))
        print(spec, "classify", hashlib.sha256(text.encode()).hexdigest())
    for spec, m in complex_cases():
        text = cli_stdout(["complex", "--diagram", spec, "-m", str(m)])
        print(spec, f"m={m}", "complex", hashlib.sha256(text.encode()).hexdigest())
    for spec, m in fvector_cases():
        for emit in ("json", "csv"):
            text = cli_stdout(["fvector", "--diagram", spec, "-m", str(m), "--emit", emit])
            print(spec, f"m={m}", emit, "fvector", hashlib.sha256(text.encode()).hexdigest())
    for name, m in facet_cases():
        text = cli_stdout(["complex", "--type", name, "-m", str(m), "--facets"])
        print(name, f"m={m}", "facets", hashlib.sha256(text.encode()).hexdigest())
    for spec in [e["spec"] for e in FAKE_CATALOG] + affine_list():
        text = cli_stdout(["invariants", "--diagram", spec])
        print(spec, "stdout", hashlib.sha256(text.encode()).hexdigest())
    for args in stdout_cases():
        text = cli_stdout(["invariants", *args])
        print(*args[1:], "stdout", hashlib.sha256(text.encode()).hexdigest())
    for args in dissect_cases():
        text = repr(cli_run(["dissect", *args]))
        print(*args, "dissect", hashlib.sha256(text.encode()).hexdigest())
    text = cli_stdout(["verify"])
    print("verify", hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
