"""Mutation audit of the dumped-line reader's check pass and the move table.

    python3 tools/mutation_audit.py [--work DIR]

Each mutation is one source substitution in one file under ``src/iomma``,
applied to a fresh ``git archive`` copy of HEAD. The script runs
the Tier-1 suite on each copy with ``-x``, hypothesis's search seeded
(``--hypothesis-seed=0``, so each run is the same run) and only
``test_criterion_10_goto_model`` deselected (its known failure would stop
the run before any other test), and prints a table: the mutation, killed
or survived, the first failing test and the wall time. A mutation that does
not match its source exactly once is an error, so the list cannot go stale
in silence. ``--work`` names the directory the copies go in (a temporary
one by default); each copy is removed after its run.
Uses only the standard library, git and the test suite's own requirements.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_DESELECT = "tests/test_acceptance.py::test_criterion_10_goto_model"

# name -> (source, substitute) in src/iomma/tracefile.py: each drops or
# weakens one check of _read_span's check pass (out is None)
_READER = {
    "separator count": (
        "        if len(seps) % 4:\n            return None\n",
        "",
    ),
    "LF on every fourth separator": (
        '(sep_bytes[3::4] != ord("\\n")).any() or ',
        "",
    ),
    "space count": (
        ' or np.count_nonzero(sep_bytes == ord(" ")) != 3 * lines',
        "",
    ),
    "head-letter table": (
        "if (ops < 0).any() or ",
        "if ",
    ),
    "head token length": (
        " or (digits[0::4] != 1).any()",
        "",
    ),
    "matrix letter off F lines": (
        "(named == fma).any()",
        "(named & fma).any()",
    ),
    "no matrix letter on F lines": (
        "(named == fma).any()",
        "(~named & ~fma).any()",
    ),
    "matrix token length": (
        "((digits[1::4] != 1) & named).any() or ",
        "",
    ),
    "18-digit bound": (
        "(digits - 1).view(np.uint64) >= 18",
        "(digits - 1).view(np.uint64) >= 19",
    ),
    "1-digit bound": (
        "(digits - 1).view(np.uint64) >= 18",
        "(digits - 1) >= 18",
    ),
    "digit-count equality": (
        "np.count_nonzero(is_digit) != digits.sum() - 2 * lines + np.count_nonzero(fma)",
        "np.count_nonzero(is_digit) > digits.sum() - 2 * lines + np.count_nonzero(fma)",
    ),
}

# name -> (source, substitute) in src/iomma/model.py: each moves one entry of
# the operand map OPERAND_AXES, or of the fma row of _move_axes, to another axis
_OPERAND_MAP = "OPERAND_AXES = ((0, 2), (2, 1), (0, 1))"
_FMA_ROW = "[(3, 0, 1, 2)]"
_MOVE_TABLE = {
    "A row axis i -> j": (_OPERAND_MAP, "OPERAND_AXES = ((1, 2), (2, 1), (0, 1))"),
    "A col axis p -> j": (_OPERAND_MAP, "OPERAND_AXES = ((0, 1), (2, 1), (0, 1))"),
    "B row axis p -> i": (_OPERAND_MAP, "OPERAND_AXES = ((0, 2), (0, 1), (0, 1))"),
    "B col axis j -> i": (_OPERAND_MAP, "OPERAND_AXES = ((0, 2), (2, 0), (0, 1))"),
    "C row axis i -> p": (_OPERAND_MAP, "OPERAND_AXES = ((0, 2), (2, 1), (2, 1))"),
    "C col axis j -> p": (_OPERAND_MAP, "OPERAND_AXES = ((0, 2), (2, 1), (0, 2))"),
    "fma opcode moves with i": (_FMA_ROW, "[(0, 0, 1, 2)]"),
    "fma i field moves with j": (_FMA_ROW, "[(3, 1, 1, 2)]"),
    "fma j field moves with p": (_FMA_ROW, "[(3, 0, 2, 2)]"),
    "fma p field moves with i": (_FMA_ROW, "[(3, 0, 1, 0)]"),
}

# name -> (file under the tree, source, substitute)
MUTATIONS = {
    **{name: ("src/iomma/tracefile.py", *sub) for name, sub in _READER.items()},
    **{name: ("src/iomma/model.py", *sub) for name, sub in _MOVE_TABLE.items()},
}


def _copy(root: Path, into: Path) -> None:
    """Extract HEAD's tree into ``into``."""
    archive = subprocess.run(["git", "-C", str(root), "archive", "HEAD"], capture_output=True, check=True)
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def _mutate(path: Path, source: str, substitute: str) -> None:
    text = path.read_text()
    count = text.count(source)
    if count != 1:
        raise SystemExit(f"error: mutation source found {count} times in {path.name}: {source!r}")
    path.write_text(text.replace(source, substitute))


def _first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return match.group(1) if match else "-"


def run(name: str, root: Path, work: Path) -> tuple[str, str, float]:
    """Killed or survived, the first failing test and the wall time in s of
    one mutation's Tier-1 run."""
    target, source, substitute = MUTATIONS[name]
    copy = work / re.sub(r"\W+", "-", name)
    _copy(root, copy)
    try:
        _mutate(copy / target, source, substitute)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
             "--continue-on-collection-errors", "--deselect", _DESELECT],
            cwd=copy, env=env, capture_output=True, text=True, check=False,
        )
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(copy)
    verdict = "survived" if done.returncode == 0 else "killed"
    return verdict, _first_failure(done.stdout), wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, help="where the copies go")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        print(f"{'mutation':30s} {'verdict':9s} {'wall s':>7s}  first failing test")
        for name in MUTATIONS:
            verdict, failure, wall = run(name, root, Path(work))
            print(f"{name:30s} {verdict:9s} {wall:7.1f}  {failure}", flush=True)


if __name__ == "__main__":
    main()
