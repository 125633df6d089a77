"""Workload definitions: the items each workload runs and how each item's
output is checked.

An item is one ``ccx`` command line (argv for ``ccx.cli.main``) plus the
reference its stdout must agree with.  ``--seed`` relabels every diagram
(a random vertex permutation written as an explicit ``n=...`` spec), so
each seed hands the program different input strings while the work
stays the same: the spread across seeds then measures the machine, not
the draw.  Items run in catalog order; shuffling them moved the peak RSS
of complex-enum by 15% through heap reuse between items.

The random infinite-type diagrams come from a fixed draw (``POOL_SEED``):
a fresh draw per seed swings the item median by 20-30% between seeds,
because a handful of rank-5/6 diagrams take seconds and most take
milliseconds.  The draw is never filtered by runtime.

Everything here imports ``ccx`` lazily, after the worker has timed the
``import ccx.cli`` that ``setup_s`` reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Per-item deadline in seconds.  At the seed three invariants-infinite
# items never finish within it: ~B8 (~22 s on a 2-vCPU Xeon), the rank-5
# ROADMAP diagram (> 40 s) and the random diagram random-r6-1 (> 60 s),
# all in exact root extraction.  The next slowest, ~C8 and ~E8 (~2.5 s),
# stay clear of it even when a shared machine runs twice as slow; a
# deadline close to an item's time would turn machine drift into
# failures.  complex-enum gets a guard deadline no seed item comes near.
DEADLINES = {
    "invariants-infinite": 6.0,
    "complex-enum": 30.0,
}
WORKLOADS = tuple(DEADLINES)

POOL_SEED = 20050505  # the fixed draw of random infinite-type diagrams
POOL_PER_RANK = 2  # random diagrams per rank 3..6

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
YIELDING = {"ok", "negative-h", "asymmetric-Q"}
METHODS = {"euler", "symmetry", "reciprocity_simple", "reciprocity_general", "mg"}

AFFINE_NAMES = (
    [f"~A{n}" for n in range(2, 9)]
    + [f"~B{n}" for n in range(3, 9)]
    + [f"~C{n}" for n in range(2, 9)]
    + [f"~D{n}" for n in range(4, 9)]
    + ["~E6", "~E7", "~E8", "~F4", "~G2"]
)
TRIANGLE_LABELS = [(3, 3, 2), (3, 3, 3), (4, 3, 2), (5, 3, 2), (4, 4, 2),
                   (4, 3, 3), (6, 3, 2), (5, 4, 2), (4, 4, 3), (5, 3, 3)]
FAKE_SQUARE = "n=4;1-2:3 2-3:3 3-4:3 1-4:4"
K4 = "n=4;1-2:3 2-3:3 3-4:3 1-4:3 1-3:3 2-4:3"
CYCLE_3434 = "n=4;1-2:3 2-3:4 3-4:3 1-4:4"
TRIANGLE_12 = "n=3;1-2:4 1-3:4 2-3:4"
RANK5_ROADMAP = "n=5; 1-2:4 1-3:7 1-4:5 2-3:4 2-4:4 3-4:7 3-5:7"
COMPLEX_CASES = [("E8", 1), ("E7", 2), ("E6", 2), ("D6", 2), ("F4", 3),
                 ("H4", 2), ("B5", 2), ("A6", 2), ("A5", 3), ("I2(7)", 3)]
DISSECT_CASES = [("A", 4, 2), ("B", 4, 2), ("B", 5, 2), ("D", 5, 3), ("D", 6, 2)]


@dataclass
class Item:
    key: str  # stable name, independent of the seed
    argv: list[str]
    check: Callable[[str], None]  # raises Mismatch when stdout disagrees


class Mismatch(Exception):
    pass


def _need(cond, what):
    if not cond:
        raise Mismatch(what)


def relabel(G, rng: random.Random) -> str:
    """Explicit spec of G under a random vertex permutation."""
    perm = list(range(1, G.rank + 1))
    rng.shuffle(perm)
    idx = {v: perm[k] for k, v in enumerate(G.vertices)}
    edges = sorted(
        (min(idx[i], idx[j]), max(idx[i], idx[j]), lab)
        for (i, j), lab in G.labels.items()
    )
    return f"n={G.rank}; " + " ".join(f"{i}-{j}:{lab}" for i, j, lab in edges)


def random_infinite_diagram(rng: random.Random, rank: int, parse, classify) -> str:
    """A connected diagram with labels 3..8 that is not of finite type:
    a random spanning tree plus each further pair with probability 0.3."""
    while True:
        edges = {}
        for v in range(2, rank + 1):
            edges[(rng.randint(1, v - 1), v)] = rng.randint(3, 8)
        for i in range(1, rank + 1):
            for j in range(i + 1, rank + 1):
                if (i, j) not in edges and rng.random() < 0.3:
                    edges[(i, j)] = rng.randint(3, 8)
        spec = f"n={rank}; " + " ".join(
            f"{i}-{j}:{lab}" for (i, j), lab in sorted(edges.items())
        )
        if classify(parse(spec)).kind != "finite":
            return spec


# ---------------------------------------------------------------------------
# output checks


def _report(text: str) -> dict:
    """Parse an invariants report; documented statuses only, and every
    yielding method carries h, both polynomials and exponents."""
    data = json.loads(text)
    _need(set(data["methods"]) == METHODS, "method set")
    _need(data["consensus"] in ("agree", "disagree", "partial"), "consensus value")
    for name, res in data["methods"].items():
        _need(res["status"] in STATUSES, f"{name}: undocumented status {res['status']}")
        if res["status"] in YIELDING:
            for k in ("h", "N_poly", "Nplus_poly", "exponents"):
                _need(k in res, f"{name}: yielding status without {k}")
    return data


def _rational_exponents(res) -> list[Fraction]:
    return [Fraction(e) for e in res["exponents"] if not isinstance(e, dict)]


def _residual(res):
    blocks = [e for e in res["exponents"] if isinstance(e, dict)]
    return [Fraction(c) for c in blocks[0]["poly"]] if blocks else None


def _check_fake(entry):
    want_exps = [Fraction(e) for e in entry["exponents"]]
    want_res = [Fraction(c) for c in entry["residual"]] if "residual" in entry else None

    def check(text):
        for mname, res in _report(text)["methods"].items():
            _need(res["status"] in YIELDING, f"{mname}: status {res['status']}")
            _need(Fraction(res["h"]) == entry["h"], f"{mname}: h {res['h']}")
            _need(_rational_exponents(res) == want_exps, f"{mname}: exponents")
            _need(_residual(res) == want_res, f"{mname}: residual")

    return check


def _check_kind(kinds):
    def check(text):
        kind = _report(text)["classification"]["kind"]
        _need(kind in kinds, f"classification {kind}")

    return check


def _check_triangle(a):
    want = Fraction(2 * a, 12 - a)

    def check(text):
        for mname, res in _report(text)["methods"].items():
            _need(res["status"] in YIELDING and Fraction(res["h"]) == want,
                  f"{mname}: h {res.get('h')} != {want}")

    return check


def _check_failing(rule):
    def check(text):
        methods = _report(text)["methods"]
        _need(all(r["status"] not in YIELDING for r in methods.values()),
              "a method yielded")
        if rule == "mg-zero":
            _need(methods["mg"]["status"] == "zero-denominator", "mg status")
        elif rule == "all-zero":
            _need(all(r["status"] == "zero-denominator" for r in methods.values()),
                  "statuses")

    return check


def _check_d4(text):
    methods = _report(text)["methods"]
    rg, sym = methods["reciprocity_general"], methods["symmetry"]
    _need(rg["status"] == "ok" and Fraction(rg["h"]) == 14, "reciprocity_general h")
    _need(_rational_exponents(rg) == [1, 6, 6, 9, 13], "reciprocity_general exponents")
    _need(sym["status"] == "asymmetric-Q" and Fraction(sym["h"]) == 14, "symmetry")
    _need(methods["euler"]["status"] not in YIELDING, "euler yielded")


def _check_complex(n, m, closed, recursive, nplus):
    def check(text):
        data = json.loads(text)
        fv = data["f_vector"]
        _need(fv == closed, f"f-vector {fv} != closed {closed}")
        _need(fv == recursive, f"f-vector {fv} != recursive {recursive}")
        _need(data["audit_pure"] is True, "purity audit")
        _need(data["audit_ridge_degree"] is True, "ridge-degree audit")
        _need(data["positive_facet_count"] == nplus, "positive facets")
        _need(data["facet_count"] == fv[n] and data["rank"] == n and data["m"] == m,
              "facet count")

    return check


def _check_dissect(family, n, closed):
    def check(text):
        data = json.loads(text)
        counts = data["noncrossing_subset_counts" if family == "A" else "face_counts"]
        _need(counts == closed, f"face counts {counts} != closed {closed}")
        if family != "A":
            _need(data["facet_count"] == closed[n], "facet count")

    return check


# ---------------------------------------------------------------------------
# item lists


def build_items(workload: str, seed: int) -> list[Item]:
    """Items of a workload for a seed, in the order they run."""
    from ccx.diagram import classify, parse_diagram
    from ccx.formulas import TypeInfo, N_plus_product, f_k_closed, f_polys_recursive
    from ccx.verify import FAKE_CATALOG

    rng = random.Random(f"{workload}:{seed}")
    items: list[Item] = []

    def invariants(key, spec, check):
        G = parse_diagram(spec)
        items.append(Item(key, ["invariants", "--diagram", relabel(G, rng)], check))

    if workload == "invariants-infinite":
        fake = {parse_diagram(e["spec"]).to_spec(): e for e in FAKE_CATALOG}

        def curated(key, spec, check):
            entry = fake.get(parse_diagram(spec).to_spec())
            invariants(key, spec, _check_fake(entry) if entry else check)

        for name in AFFINE_NAMES:
            curated(name, name, _check_d4 if name == "~D4" else _check_kind({"affine"}))
        curated("fake-square", FAKE_SQUARE, _check_kind({"other-infinite"}))
        for labels in TRIANGLE_LABELS:
            spec = f"n=3;1-2:{labels[0]} 2-3:{labels[1]} 1-3:{labels[2]}"
            curated(f"triangle{labels}", spec, _check_triangle(sum(labels)))
        curated("fail-K4", K4, _check_failing("mg-zero"))
        curated("fail-cycle3434", CYCLE_3434, _check_failing("none"))
        curated("fail-triangle12", TRIANGLE_12, _check_failing("all-zero"))
        curated("rank5-roadmap", RANK5_ROADMAP, _check_kind({"other-infinite"}))
        pool = random.Random(POOL_SEED)
        for rank in range(3, 7):
            for k in range(POOL_PER_RANK):
                spec = random_infinite_diagram(pool, rank, parse_diagram, classify)
                curated(f"random-r{rank}-{k}", spec,
                        _check_kind({"affine", "other-infinite"}))
    elif workload == "complex-enum":
        for name, m in COMPLEX_CASES:
            G = parse_diagram(name)
            info = TypeInfo.of(G)
            n = G.rank
            closed = [int(f_k_closed(info, k)(m)) for k in range(n + 1)]
            recursive = [int(p(m)) for p in f_polys_recursive(G)]
            nplus = int(N_plus_product(info, m))
            items.append(Item(
                f"complex {name} m={m}",
                ["complex", "--diagram", relabel(G, rng), "-m", str(m)],
                _check_complex(n, m, closed, recursive, nplus),
            ))
        for family, n, m in DISSECT_CASES:
            closed = [int(f_k_closed(TypeInfo(family, n), k)(m)) for k in range(n + 1)]
            items.append(Item(
                f"dissect {family}{n} m={m}",
                ["dissect", "--family", family, "-n", str(n), "-m", str(m)],
                _check_dissect(family, n, closed),
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
