"""One workload in one fresh, single-threaded process.

Run by ``run.py``; prints one JSON object with the measured figures.
Items are ``ccx.cli.main(argv)`` calls made in this process with stdout
captured and checked, each under a SIGALRM deadline; a timed-out item is
charged the deadline and counts as failed, and any other failure (an
exception, a non-zero exit, a mismatch) makes the run incorrect.

Passes over the item list repeat while the next pass is predicted to end
within ``--seconds`` (at least one pass).  Within a pass, items under
REPEAT_S are sampled several times and their median is used; every
sample is scaled to the reference machine speed of ``refspeed.py``:
shared 2-vCPU machines drift by tens of percent within seconds.  With
``--trace 1`` one untraced round runs first, then the tracer is
installed and traced rounds (no repeats, raw seconds) give per-layer
figures per round over the item list.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEAT_S = 2.0  # an item under this is sampled up to MAX_SAMPLES times a pass
MAX_SAMPLES = 5


class ItemDeadline(BaseException):
    """Raised by SIGALRM inside an item; BaseException so that no
    ``except Exception`` in the program can swallow it."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        raise ItemDeadline()


class PeakRss:
    """Peak resident set size over the watched items that finish, sampled from
    /proc/self/statm every millisecond of CPU time.  ``ru_maxrss`` would also
    count what a killed item had allocated by its deadline, which
    measures how far it got on this machine, not what the program needs."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self.peak = self._item_peak = self._read()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)

    def _read(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _sample(self, *_):
        self._item_peak = max(self._item_peak, self._read())

    def start_item(self):
        self._item_peak = self._read()

    def end_item(self, finished: bool):
        self._sample()
        if finished:
            self.peak = max(self.peak, self._item_peak)

    def close(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        os.close(self._fd)


def run_item(main, item, deadline: float, tracer=None, index: int = 0,
             rss: PeakRss | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, outcome = None, "ok"
    if rss is not None:
        rss.start_item()
    t0 = time.perf_counter()
    try:
        _armed[0] = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = main(item.argv)
                else:
                    rc = tracer.item_span(index, main, item.argv)
        except SystemExit as e:
            rc = e.code
        finally:
            _armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemDeadline:
        outcome = "timeout"
    except Exception as e:  # an item that raises is a failed item, not a crash
        outcome = f"raised {type(e).__name__}: {e}"
    end = time.perf_counter()
    _armed[0] = False
    if rss is not None:
        rss.end_item(outcome != "timeout")
    if outcome == "ok" and rc not in (0, None):
        outcome = f"exit {rc}: {err.getvalue().strip()[:200]}"
    elif outcome == "ok":
        try:
            item.check(out.getvalue())
        except Exception as e:  # noqa: BLE001  (any malformed output is a mismatch)
            outcome = f"mismatch: {type(e).__name__}: {e}"
    return {"start": t0, "end": end, "outcome": outcome, "stdout": out.getvalue()}


def canonical(stdout: str) -> str:
    """Item stdout with the float exponent approximations removed."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return stdout

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items()
                    if k not in ("exponents_approx", "approx")}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return json.dumps(strip(data), sort_keys=True, separators=(",", ":"))


def output_digest(items, results) -> str:
    h = hashlib.sha256()
    for item, res in sorted(zip(items, results), key=lambda p: p[0].key):
        body = canonical(res["stdout"]) if res["outcome"] == "ok" else res["outcome"]
        h.update(f"{item.key}\t{body}\n".encode())
    return h.hexdigest()


def run_pass(main, items, deadline, repeat, tracer=None, rss=None, speed=None) -> dict:
    """One round over the items in catalog order, then, with ``repeat``,
    more rounds over the items that finished in under REPEAT_S until each
    has about REPEAT_S worth of samples (at most MAX_SAMPLES).  The
    repeats are checked, but only the first round counts towards
    attempted and failed, and only the first round is watched by ``rss``.
    ``speed`` takes a reference sample before every item sample."""
    def sample(i, watch):
        if speed is not None:
            speed.sample()
        return run_item(main, items[i], deadline, tracer, i, watch)

    samples = [[sample(i, rss)] for i in range(len(items))]
    owed = [min(MAX_SAMPLES, max(1, int(REPEAT_S / (s[0]["end"] - s[0]["start"]))))
            if repeat and s[0]["outcome"] == "ok" else 1 for s in samples]
    repeat_problems = []
    for n in range(1, MAX_SAMPLES):
        for i in [i for i, k in enumerate(owed) if k > n]:
            r = sample(i, None)
            r["stdout"] = ""
            samples[i].append(r)
            if r["outcome"] != "ok":
                repeat_problems.append(f"{items[i].key} (repeat): {r['outcome']}")
    return {"samples": samples, "first": [s[0] for s in samples],
            "repeat_problems": repeat_problems}


def item_times(pass_, deadline, factor=None) -> list[float]:
    """Per item, the median of its sample times, a timeout charged the
    deadline; ``factor(start, end)`` scales a finished sample."""
    def seconds(r):
        if r["outcome"] == "timeout":
            return deadline
        raw = r["end"] - r["start"]
        return raw * factor(r["start"], r["end"]) if factor else raw

    return [statistics.median(seconds(r) for r in s) for s in pass_["samples"]]


def summarise(passes, deadline, factor=None) -> dict:
    """Timing figures of a run: the median pass wall time (the sum of its
    item times) and the median and tail of the per-item medians."""
    per_pass = [item_times(p, deadline, factor) for p in passes]
    per_item = [statistics.median(t[i] for t in per_pass) for i in range(len(per_pass[0]))]
    tail_s, tail_pct, tail_n = tail(per_item)
    walls = [sum(t) for t in per_pass]
    return {"wall_s": statistics.median(walls), "pass_walls": walls,
            "item_p50_s": statistics.median(per_item), "item_tail_s": tail_s,
            "tail_percentile": tail_pct, "tail_items": tail_n, "per_item": per_item}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with >= 10 values beyond it (the
    largest value when there are fewer than 11), that percentile, and n."""
    v = sorted(values)
    idx = max(len(v) - 11, 0) if len(v) > 10 else len(v) - 1
    return v[idx], 100.0 * (idx + 1) / len(v), len(v)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import ccx.cli

    sys.path.insert(0, str(HERE))
    from workloads import DEADLINES, build_items

    items = build_items(args.workload, args.seed)
    deadline = DEADLINES[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    cli_main = ccx.cli.main

    tracer = rss = speed = None
    untraced_wall = None
    if args.trace:
        # untraced reference for the overhead ratio; no repeats, so
        # per-layer figures are per round over the item list
        untraced_wall = sum(item_times(run_pass(cli_main, items, deadline, False),
                                       deadline))
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = ccx.cli.main
    else:
        from refspeed import Speedometer

        rss, speed = PeakRss(), Speedometer()

    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        t = time.perf_counter()
        # peak RSS over the first round only: later rounds start from a heap
        # shaped by timing-dependent repeats, which moved it by 10%
        passes.append(run_pass(cli_main, items, deadline, tracer is None,
                               tracer, None if passes else rss, speed))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > args.seconds:
            break
    if speed is not None:
        speed.sample()
    if rss is not None:
        rss.close()

    raw = summarise(passes, deadline)
    timing = summarise(passes, deadline, speed.factor) if speed else raw
    outcomes = [(it.key, r["outcome"]) for p in passes for it, r in zip(items, p["first"])]
    failed = [o for _, o in outcomes if o != "ok"]
    repeat_problems = [x for p in passes for x in p["repeat_problems"]]
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "passes": len(passes),
        **{k: v for k, v in timing.items() if k != "per_item"},
        "raw": {k: v for k, v in raw.items() if k != "per_item"},
        "reference_s": statistics.median(speed.samples) if speed else None,
        "attempted": len(outcomes),
        "failed": len(failed),
        "correct": all(o == "timeout" for o in failed) and not repeat_problems,
        "problems": sorted({f"{k}: {o}" for k, o in outcomes if o != "ok"}
                           | set(repeat_problems)),
        "deadline_s": deadline,
        "peak_rss_mb": rss.peak / 2**20 if rss else maxrss_mb,
        "ru_maxrss_mb": maxrss_mb,
        "output_digest": output_digest(items, passes[0]["first"]),
        "inputs": [it.argv for it in items],
        "inputs_digest": hashlib.sha256(
            json.dumps([it.argv for it in items]).encode()).hexdigest(),
        "item_times": {it.key: t for it, t in zip(items, timing["per_item"])},
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(passes))
        layers["trace.overhead_ratio"] = raw["wall_s"] / untraced_wall
        report["layers"] = layers
        report["spans"] = len(tracer.spans)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        with gzip.open(span_file, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\titem\tname\tstart\tend\tself_s\n")
            for s in tracer.spans:
                fh.write("\t".join(map(str, s)) + "\n")
        report["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(report), file=sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
