"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the run times
``import ccx.cli`` in several fresh processes (``setup_s``), then runs
the workload in one more fresh process (``worker.py``) and reports the
end-to-end metrics; with ``--trace 1`` the worker installs the layer
tracer and the run reports the per-layer metrics.  End-to-end times are
normalised to a reference machine speed (see ``refspeed.py``); the raw
seconds are in the record.  The last line of stdout is the result
object; the line before it is the full record (seed, inputs digest,
output digest, machine, tail percentile, raw times, ...), which
``compare.py`` reads from the captured stdout.  Metric units are taken
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from refspeed import NOMINAL_S, reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # the whole run ends within this, worker included
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ccx.cli; "
    "print(time.perf_counter() - t)"
)

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CCX_BUDGET", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"python": platform.python_version(), "cpu": cpu, "nproc": nproc}


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(raw, normalised) import times of ccx.cli in fresh processes, after
    one untimed import has written the bytecode cache; each is scaled by
    the median of reference loops timed in this process around it."""
    probe = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(probe, env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=60)
    samples = []
    for _ in range(SETUP_SAMPLES):
        refs = [reference_seconds() for _ in range(3)]
        out = subprocess.run(probe, env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        ref = statistics.median(refs + [reference_seconds() for _ in range(3)])
        raw = float(out.stdout.split()[-1])
        samples.append((raw, raw * NOMINAL_S / ref))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "ccx" / "cli.py").is_file():
        print(f"no ccx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    setup = [] if args.trace else measure_setup(env)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {RUN_LIMIT_S:.0f} s and was killed", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = report.pop("layers")
    else:
        values = {
            "wall_s": report["wall_s"],
            "item_p50_s": report["item_p50_s"],
            "item_tail_s": report["item_tail_s"],
            "ok_ratio": 1.0 - report["failed"] / report["attempted"],
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(x for _, x in setup),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "fail_ratio": report["failed"] / report["attempted"],
        "setup_samples": setup,
        "machine": machine(),
        **{k: v for k, v in report.items() if k not in result},
    }
    if not report["correct"]:
        for problem in report["problems"]:
            print(problem, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
