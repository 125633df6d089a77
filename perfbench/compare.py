"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files, or directories of files, of captured
``run.py`` stdout (``run.py ... >> base.jsonl``); the record is the
line before the result.  Records are paired by workload, trace mode and
seed.  For every workload and metric the command prints each side's
median and quartiles and a verdict, using the bounds and directions in
``BENCHMARK.json``:

* better: the change wins at least nine tenths of at least ten pairs
  (ties count for neither side) and the medians differ, in its favour,
  by more than the base's own quartile spread;
* worse: the change's median is worse than the base's by more than the
  metric's bound (per-layer metrics, which have no bound: the base wins
  as "better" would require of the change);
* unresolved: neither of the above, and the base's quartile spread is
  wider than the bound while not every change run beats every base run,
  or fewer than ten pairs show a gain;
* same: otherwise;
* invalid: a run of the workload on either side was not correct (an
  output disagreed with its reference), so its times do not count.

Run the two sides alternately (base, change, base, ...) with the same
``--seconds`` and seeds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
                records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base: list[float], change: list[float], pairs, better: str, bound):
    """(verdict, pairs the change won) for one workload and metric."""
    sign = 1 if better == "higher" else -1
    bm, cm = statistics.median(base), statistics.median(change)
    gain = sign * (cm - bm)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    enough = len(pairs) >= MIN_PAIRS
    if gain > spread and wins >= WIN_SHARE * len(pairs) and pairs:
        return ("better" if enough else "unresolved"), wins
    if bound is None:
        if enough and -gain > spread and losses >= WIN_SHARE * len(pairs):
            return "worse", wins
        return "same", wins
    if bm == 0:
        worse_share = float("inf") if gain < 0 else 0.0
    else:
        worse_share = -gain / abs(bm)
    if worse_share > bound:
        return "worse", wins
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if bm and spread / abs(bm) > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def compare(base: list[dict], change: list[dict], spec: dict) -> list[list[str]]:
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    group = lambda r: (r["workload"], r.get("trace", 0))  # noqa: E731
    rows = []
    for key in sorted({group(r) for r in base} & {group(r) for r in change}):
        b_runs = [r for r in base if group(r) == key]
        c_runs = [r for r in change if group(r) == key]
        invalid = not all(r["correct"] for r in b_runs + c_runs)
        for name, (better, bound) in rules.items():
            b_seed = {r["seed"]: r["metrics"][name]["value"] for r in b_runs
                      if name in r["metrics"]}
            c_seed = {r["seed"]: r["metrics"][name]["value"] for r in c_runs
                      if name in r["metrics"]}
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not b or not c:
                continue
            common = sorted(set(b_seed) & set(c_seed))
            pairs = [(b_seed[s], c_seed[s]) for s in common] if common else list(zip(b, c))
            label, wins = verdict(b, c, pairs, better, bound)
            if invalid:
                label = "invalid"
            bq, cq = quartiles(b), quartiles(c)
            bm, cm = statistics.median(b), statistics.median(c)
            rows.append([
                key[0], name,
                f"{bm:.6g} [{bq[0]:.6g}, {bq[1]:.6g}] n={len(b)}",
                f"{cm:.6g} [{cq[0]:.6g}, {cq[1]:.6g}] n={len(c)}",
                f"{100 * (cm - bm) / bm:+.1f}%" if bm else "n/a",
                f"{wins}/{len(pairs)}", label,
            ])
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    if not base or not change:
        print("no benchmark records found in one of the inputs", file=sys.stderr)
        return 1
    rows = compare(base, change, spec)
    header = ["workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
              "change", "wins", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
