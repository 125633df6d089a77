"""Re-runnable mutants: each one breaks the program in one place and
names the tests that must then fail.

    python tools/mutants.py

runs every mutant, one after another.  For each mutant the script copies ``src``, ``tests``, ``tools`` and
``pyproject.toml`` of this checkout to a temporary directory, replaces
the mutant's anchor text, which must occur exactly once in its file,
and runs pytest there on the mutant's tests.  The mutant is killed when
pytest reports a failing test, and survived when every test passes.  The
script prints one line per mutant and exits 1 if a mutant survived, an
anchor did not occur exactly once, or pytest could not run the tests.
Standard library only, apart from the pytest that runs the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    anchor: str  # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, at least one expected to fail


MUTANTS = (
    Mutant(
        "one-way-nbr", "src/ccx/diagram.py",
        "nbr[index[j]] |= 1 << index[i]", "pass",
        ("tests/test_diagram.py::test_components_agree_with_the_mask_search_oracle",
         "tests/test_diagram.py::test_subset_lattice_matches_reference_helpers"),
    ),
    Mutant(
        "components-out-of-order", "src/ccx/diagram.py",
        "        out.append(comp)\n        mask &= ~comp",
        "        out.insert(0, comp)\n        mask &= ~comp",
        ("tests/test_diagram.py::test_components_agree_with_the_mask_search_oracle",),
    ),
    Mutant(
        "join-vector-wrong-denominator", "src/ccx/formulas.py",
        "for x in xs]), den * d", "for x in xs]), den + d",
        ("tests/test_cli.py::test_face_numbers_of_reducible_diagrams_are_the_recurrence_values",),
    ),
    Mutant(
        "finite-infos-no-color-check", "src/ccx/gcc.py",
        "    check_color_count(m)\n    return cls.infos", "    return cls.infos",
        ("tests/test_cli.py::test_input_errors_are_structured_exit_1",),
    ),
    Mutant(
        "consensus-reads-agree", "src/ccx/verify.py",
        'if rep.consensus == "disagree":', 'if rep.consensus == "agree":',
        ("tests/test_acceptance.py::test_criterion_9_cross_method_agreement",),
    ),
    Mutant(
        "category-off-by-one-bit", "src/ccx/polygon.py",
        'return Vertex("pair", self._chords(i, supp.bit_length(), k))',
        'return Vertex("pair", self._chords(i, supp.bit_length() + 1, k))',
        ("tests/test_polygon.py",),
    ),
    Mutant(
        "root-audit-as-assert", "src/ccx/exactmath.py",
        '    if rebuilt != prim:\n        raise ArithmeticError("root extraction lost a factor")',
        '    assert rebuilt == prim, "root extraction lost a factor"',
        ("tests/test_exactmath.py::test_root_audit_survives_python_O",),
    ),
)


def anchor_count(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's anchor occurs in its file."""
    return (root / mutant.file).read_text().count(mutant.anchor)


def run(mutant: Mutant) -> tuple[str, str]:
    """The verdict on one mutant, "killed", "survived" or "error", and
    the last line pytest printed (or why it did not run)."""
    with tempfile.TemporaryDirectory(prefix="ccx-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tree / name)
        count = anchor_count(mutant, tree)
        if count != 1:
            return "error", f"the anchor occurs {count} times in {mutant.file}"
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.anchor, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    last = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return verdict, last


def main() -> int:
    bad = 0
    start = time.perf_counter()
    for m in MUTANTS:
        t = time.perf_counter()
        verdict, last = run(m)
        bad += verdict != "killed"
        print(f"{verdict:8} {m.name}  ({time.perf_counter() - t:.1f} s; {last})", flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
