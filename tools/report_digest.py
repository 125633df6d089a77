"""Print one digest line per diagram for comparing two versions of ccx.

Each line is the diagram spec and the sha256 of the canonical JSON of
``compute_all(G).to_json()`` (sorted keys), with the float
approximations of the exponents (``approx``, ``exponents_approx``)
removed, since only the exact values are meant to be identical.

The diagrams: the finite catalog of ranks 3-8, the fake catalog, the
affine types, and a fixed random draw of rank 3-6 with labels 2-8.

Usage, from the root of a checkout (standard library only)::

    PYTHONPATH=src python3 tools/report_digest.py > digests.txt
"""

from __future__ import annotations

import hashlib
import json
import random

from ccx.diagram import parse_diagram
from ccx.invariants import compute_all
from ccx.verify import FAKE_CATALOG

RANDOM_SEED = 20050505
RANDOM_PER_RANK = 8


def finite_catalog() -> list[str]:
    return (
        [f"A{n}" for n in range(3, 9)]
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


def random_draw() -> list[str]:
    """A random spanning tree plus each further pair with probability
    0.3, every label drawn from 2-8 (label 2 drops the edge)."""
    rng = random.Random(RANDOM_SEED)
    out = []
    for rank in range(3, 7):
        for _ in range(RANDOM_PER_RANK):
            edges = {(rng.randint(1, v - 1), v): rng.randint(2, 8) for v in range(2, rank + 1)}
            for i in range(1, rank + 1):
                for j in range(i + 1, rank + 1):
                    if (i, j) not in edges and rng.random() < 0.3:
                        edges[(i, j)] = rng.randint(2, 8)
            out.append(f"n={rank}; " + " ".join(
                f"{i}-{j}:{a}" for (i, j), a in sorted(edges.items())))
    return out


def canonical(report: dict) -> str:
    for res in report["methods"].values():
        res.pop("exponents_approx", None)
        for e in res.get("exponents", []):
            if isinstance(e, dict):
                e.pop("approx", None)
    return json.dumps(report, sort_keys=True)


def main() -> None:
    specs = finite_catalog() + [e["spec"] for e in FAKE_CATALOG] + affine_list() + random_draw()
    for spec in specs:
        text = canonical(compute_all(parse_diagram(spec)).to_json())
        print(spec, hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
