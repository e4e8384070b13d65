"""Peak memory and wall time of the two trace commands at one size.

    python3 tools/trace_rss.py --n 120 [--src DIR] [--repeat 3]

Runs ``iomma simulate`` without a trace, ``simulate --trace-out`` and
``phases --trace-in`` for alg-c at S=64 on an n x n x n problem, each in a
fresh interpreter, and prints each command's VmHWM (peak resident set, from
the process's own status file, Linux only) and the wall time of its
``main()`` call, the import excluded. With ``--repeat`` each figure is the median over that many
fresh processes. ``--src`` names the ``src`` directory to import ``iomma``
from; by default, the one beside this script. Uses only the standard library
and ``iomma``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_ALG, _S = "alg-c", 64
# run in the child: one CLI command, then its own figures as JSON on stderr
_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from iomma.cli import main
start = time.perf_counter()
code = main(sys.argv[2:])
wall = time.perf_counter() - start
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "vmhwm_mb": kb / 1024, "wall_s": wall}), file=sys.stderr)
"""


def _measure(src: Path, argv: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
    )
    figures = json.loads(done.stderr.strip().splitlines()[-1])
    if figures["code"] != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {figures['code']}")
    return figures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=120, help="m = n = k")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    dims = ["-m", str(args.n), "-n", str(args.n), "-k", str(args.n), "-S", str(_S)]
    with tempfile.TemporaryDirectory() as work:
        trace = str(Path(work) / "trace.txt")
        commands = {
            "simulate": ["simulate", *dims, "--alg", _ALG, "-o", str(Path(work) / "s.json")],
            "simulate --trace-out": ["simulate", *dims, "--alg", _ALG, "--trace-out", trace,
                                     "-o", str(Path(work) / "t.json")],
            "phases --trace-in": ["phases", *dims, "--trace-in", trace, "-o", str(Path(work) / "p.csv")],
        }
        runs = {name: [] for name in commands}
        for _ in range(args.repeat):
            for name, argv in commands.items():
                runs[name].append(_measure(args.src, argv))
        events = Path(trace).read_bytes().count(b"\n")
    print(f"{_ALG} {args.n}^3 S={_S}: {events} events, src {args.src}")
    print(f"{'command':24s} {'VmHWM MB':>9s} {'wall s':>8s}")
    for name, figures in runs.items():
        rss = statistics.median(f["vmhwm_mb"] for f in figures)
        wall = statistics.median(f["wall_s"] for f in figures)
        print(f"{name:24s} {rss:9.1f} {wall:8.3f}")


if __name__ == "__main__":
    main()
