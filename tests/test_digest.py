"""The golden digest: ``tools/report_digest.py``, run afresh, must print
``tools/report_digest.txt`` line for line.  Its lines pin every report,
catalog, complex, f-vector, facet, invariant stdout (floats included)
and dissection output that the tool lists."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_report_digest_is_unchanged():
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True, timeout=600,
    )
    got = run.stdout.splitlines()
    want = (ROOT / "tools" / "report_digest.txt").read_text().splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {i + 1} differs: got {a!r}, expected {b!r}"
    assert len(got) == len(want), f"{len(got)} lines, expected {len(want)}"
