"""Peak memory and wall time of the two trace commands at one size.

    python3 tools/trace_rss.py --n 120 [--src DIR] [--repeat 3]

Runs ``iomma simulate`` without a trace, ``simulate --trace-out`` and
``phases --trace-in`` for alg-c at S=64 on an n x n x n problem, and
``phases --trace-in`` on that trace at S=4, where the fifth load breaks the
capacity rule and the command exits 1. The two ``phases`` rows run again
on a FIFO (``os.mkfifo``) that a writer process feeds the trace through,
so the command reads a pipe, which cannot seek. Each runs in a fresh
interpreter.
The tool prints each command's VmHWM (peak resident set, from the process's
own status file, Linux only), and the wall time and minor page faults
(``getrusage``'s ``ru_minflt``) of its ``main()`` call: the import of
``iomma.cli`` is excluded, and the import of the layers that ``main()``
loads for the command is included. With ``--repeat`` each figure
is the median over that many fresh processes. ``--src`` names the ``src``
directory to import ``iomma`` from; by default, the one beside this script.
Uses only the standard library and ``iomma``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_ALG, _S = "alg-c", 64
# run in the child: one CLI command, then its own figures as JSON on stderr
_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from iomma.cli import main
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
code = main(sys.argv[2:])
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "vmhwm_mb": kb / 1024, "wall_s": wall, "minflt": faults}),
      file=sys.stderr)
"""


# run in the writer: copy one file into another, here a FIFO, which
# shutil.copyfile refuses
_FEED = """
import shutil, sys
with open(sys.argv[1], "rb") as source, open(sys.argv[2], "wb") as sink:
    shutil.copyfileobj(source, sink)
"""


def _measure(src: Path, argv: list[str], code: int, feed: tuple[str, str] | None) -> dict:
    """The figures of one fresh run of ``argv``, which must exit ``code``,
    while a writer process copies the file ``feed[0]`` into the FIFO
    ``feed[1]``, if given."""
    writer = feed and subprocess.Popen([sys.executable, "-c", _FEED, *feed])
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
            timeout=600,
        )
    finally:
        if writer:
            # a command that never opened the FIFO leaves the writer blocked
            try:
                writer.wait(timeout=60)
            except subprocess.TimeoutExpired:
                writer.kill()
                writer.wait()
    figures = json.loads(done.stderr.strip().splitlines()[-1])
    if figures["code"] != code:
        raise SystemExit(f"error: {' '.join(argv)} exited {figures['code']}, not {code}")
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
        fifo = str(Path(work) / "fifo")
        os.mkfifo(fifo)
        # name -> (argv, exit code, (file, FIFO) to feed or None)
        commands = {
            "simulate": (["simulate", *dims, "--alg", _ALG, "-o", str(Path(work) / "s.json")], 0, None),
            "simulate --trace-out": (["simulate", *dims, "--alg", _ALG, "--trace-out", trace,
                                      "-o", str(Path(work) / "t.json")], 0, None),
        }
        for source, feed in (("", None), (" pipe", (trace, fifo))):
            path = fifo if feed else trace
            commands[f"phases --trace-in{source}"] = (
                ["phases", *dims, "--trace-in", path, "-o", str(Path(work) / "p.csv")], 0, feed)
            commands[f"phases --trace-in{source} -S 4"] = (
                ["phases", *dims[:-1], "4", "--trace-in", path, "-o", str(Path(work) / "e.csv")], 1, feed)
        runs = {name: [] for name in commands}
        for _ in range(args.repeat):
            for name, (argv, code, feed) in commands.items():
                runs[name].append(_measure(args.src, argv, code, feed))
        events = Path(trace).read_bytes().count(b"\n")
    print(f"{_ALG} {args.n}^3 S={_S}: {events} events, src {args.src}")
    print(f"{'command':29s} {'VmHWM MB':>9s} {'wall s':>8s} {'minflt':>8s}")
    for name, figures in runs.items():
        rss, wall, faults = (statistics.median(f[key] for f in figures)
                             for key in ("vmhwm_mb", "wall_s", "minflt"))
        print(f"{name:29s} {rss:9.1f} {wall:8.3f} {faults:8.0f}")


if __name__ == "__main__":
    main()
