"""Time the slowest invariant reports and print their hashes.

For each diagram: the seconds of ``compute_all``, the seconds spent
inside ``exactmath.rational_roots`` during it, and the seconds of
``to_json()``; then the byte count and the full sha256 of the sorted
dump ``json.dumps(report.to_json(), sort_keys=True)``.  The caches of
the subset lattice and of the exponent map are cleared before each
diagram, so every report is computed cold, in one process.

The diagrams are the rank-8 diagram of ``tools/report_digest.py`` and
the two rank-10 diagrams of the ROADMAP baseline table.  The random
rank-10 one takes minutes.  Name some of them to run only those::

    PYTHONPATH=src python3 tools/slow_reports.py [rank8] [rank10] [random10]

Not part of the test suite: it reads the wall clock.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import ccx.invariants as inv
from ccx.diagram import parse_diagram, subset_lattice

DIAGRAMS = {
    "rank8": "n=8; 1-2:3 1-3:4 1-6:5 1-8:3 2-7:5 3-4:3 3-5:3",
    "rank10": "n=10; 1-2:3 1-3:4 1-6:5 1-8:3 2-7:5 3-4:3 3-5:3 4-10:3 7-9:4",
    "random10": "n=10; 1-2:4 1-3:5 1-4:4 1-5:3 1-7:3 1-9:3 4-6:3 5-8:5 6-8:3 9-10:4",
}


def measure(spec: str) -> dict:
    """The timings, byte count and sha256 of one cold report."""
    inside = [0.0]
    roots = inv.rational_roots

    def timed_roots(p):
        t = time.perf_counter()
        try:
            return roots(p)
        finally:
            inside[0] += time.perf_counter() - t

    G = parse_diagram(spec)
    subset_lattice.cache_clear()
    inv._exponents.cache_clear()
    inv.rational_roots = timed_roots
    try:
        t0 = time.perf_counter()
        report = inv.compute_all(G)
        t1 = time.perf_counter()
    finally:
        inv.rational_roots = roots
    payload = report.to_json()
    t2 = time.perf_counter()
    text = json.dumps(payload, sort_keys=True).encode()
    return {
        "compute_all_s": round(t1 - t0, 3),
        "rational_roots_s": round(inside[0], 3),
        "to_json_s": round(t2 - t1, 3),
        "bytes": len(text),
        "sha256": hashlib.sha256(text).hexdigest(),
    }


def main(names: list[str]) -> None:
    for name in names or list(DIAGRAMS):
        out = measure(DIAGRAMS[name])
        print(name, " ".join(f"{k}={v}" for k, v in out.items()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
