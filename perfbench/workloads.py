"""The benchmark's workloads and the correctness gate on their outputs.

A workload is a fixed list of ``iomma`` CLI commands that one client runs
back to back in one thread: a closed loop with a single client, which is how
this offline tool is used. Every command writes its report with ``-o`` into
a work directory, and the gate reads those files after the timed pass.

Why each workload exists, and which layers it bypasses:

- ``simulate``: schedule generation and ``execute`` do the work; no trace
  I/O and no phase analysis. The non-divisible shapes exercise the remainder
  blocks of the blocked generators.
- ``trace-phases``: ``simulate --trace-out`` then ``phases --trace-in`` for
  two shapes, so ``dump_trace``, ``parse_trace`` and ``partition_phases``
  dominate and ``execute`` is a small share.
- ``sweep``: ``predicted_io`` over a grid; no events are built at all.
- ``exact-search``: ``tiny_optimal_schedule`` on instances that all prove
  their optimum under the default node budget; the only workload that
  reaches the exact search.

The seed goes to ``simulate --seed``; ``sweep`` and ``brute-force`` take no
random input. The recorded counts and digests in ``expected.json`` do not
depend on the seed: matrix values change only the product, which the CLI
checks bitwise against ``reference_gemm`` itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# (algorithm, (m, n, k), S); b = floor(sqrt(S)) - 1 leaves remainder blocks
# in every dimension of the first four shapes.
SIMULATE_CASES = [
    ("alg-a", (36, 36, 36), 64),
    ("alg-b", (36, 36, 36), 64),
    ("alg-c", (36, 36, 36), 64),
    ("alg-c", (35, 27, 31), 20),
    ("naive", (18, 18, 18), 16),
]
# (algorithm, (m, n, k), S, phase report format)
TRACE_PHASES_CASES = [
    ("alg-c", (30, 30, 30), 16, "csv"),
    ("alg-b", (34, 24, 30), 36, "json"),
]
SWEEP_CASES = [
    ["--sizes", "60,120,240,480,960,1920", "--capacities", "16,64,256"],
    ["--m-list", "30,90,270", "--n-list", "20,200", "--k-list", "50,500",
     "--capacities", "9,36,144"],
]
# (m, n, k, S); every instance proves optimal within the default budget
EXACT_SEARCH_CASES = [
    (2, 2, 2, 5),
    (2, 2, 2, 6),
    (1, 2, 4, 4),
    (2, 1, 4, 4),
    (4, 2, 1, 5),
    (1, 8, 1, 4),
]

WORKLOADS = ("simulate", "trace-phases", "sweep", "exact-search")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the gate needs to judge its output."""

    key: str  # entry in expected.json, also the output file's stem
    argv: tuple[str, ...]
    kind: str  # simulate | phases | sweep | brute-force
    output: Path
    S: int = 0
    dims: tuple[int, int, int] = (0, 0, 0)
    phase_format: str = ""
    paired: str = ""  # key of the simulate command whose trace phases reads


def _dims_args(dims: tuple[int, int, int]) -> list[str]:
    m, n, k = dims
    return ["-m", str(m), "-n", str(n), "-k", str(k)]


def build_commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The workload's commands, writing their outputs under ``workdir``."""
    commands: list[Command] = []

    def add(key: str, argv: list[str], kind: str, **extra) -> None:
        output = workdir / f"{key}.out"
        commands.append(
            Command(key, tuple(argv + ["-o", str(output)]), kind, output, **extra)
        )

    if workload == "simulate":
        for alg, dims, S in SIMULATE_CASES:
            key = f"simulate-{alg}-{'x'.join(map(str, dims))}-S{S}"
            argv = ["simulate", *_dims_args(dims), "-S", str(S), "--alg", alg,
                    "--seed", str(seed)]
            add(key, argv, "simulate", S=S, dims=dims)
    elif workload == "trace-phases":
        for alg, dims, S, fmt in TRACE_PHASES_CASES:
            stem = f"{alg}-{'x'.join(map(str, dims))}-S{S}"
            trace = workdir / f"trace-{stem}.txt"
            sim_key = f"simulate-{stem}"
            add(sim_key, ["simulate", *_dims_args(dims), "-S", str(S), "--alg", alg,
                          "--seed", str(seed), "--trace-out", str(trace)],
                "simulate", S=S, dims=dims)
            add(f"phases-{stem}", ["phases", *_dims_args(dims), "-S", str(S),
                                   "--trace-in", str(trace), "--format", fmt],
                "phases", S=S, dims=dims, phase_format=fmt, paired=sim_key)
    elif workload == "sweep":
        for index, grid in enumerate(SWEEP_CASES):
            add(f"sweep-{index}", ["sweep", *grid], "sweep")
    elif workload == "exact-search":
        for m, n, k, S in EXACT_SEARCH_CASES:
            add(f"brute-force-{m}x{n}x{k}-S{S}",
                ["brute-force", *_dims_args((m, n, k)), "-S", str(S)],
                "brute-force", S=S, dims=(m, n, k))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return commands


def load_expected() -> dict:
    with open(EXPECTED_FILE) as handle:
        return json.load(handle)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Gate:
    """Judges each command's output against the values recorded in expected.json.

    ``check`` returns None for a correct output and a one-line reason
    otherwise. It never raises for a wrong output: a crash or a missing file
    is a failed command too.
    """

    def __init__(self, expected: dict, seed: int):
        self.expected = expected
        self.seed = seed

    def check(self, cmd: Command, outcome, by_key: dict[str, Command]) -> str | None:
        if isinstance(outcome, BaseException):
            return f"{cmd.key}: raised {type(outcome).__name__}: {outcome}"
        if outcome != 0:
            return f"{cmd.key}: exit code {outcome}"
        if cmd.key not in self.expected:
            return f"{cmd.key}: no recorded expectation"
        try:
            return getattr(self, "_" + cmd.kind.replace("-", "_"))(cmd, by_key)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{cmd.key}: unreadable output ({type(exc).__name__}: {exc})"

    def _simulate(self, cmd: Command, by_key) -> str | None:
        payload = json.loads(cmd.output.read_text())
        want = self.expected[cmd.key]
        got = {name: payload[name] for name in ("reads", "writes", "fmas")}
        if payload["match"] is not True:
            return f"{cmd.key}: match is {payload['match']!r}"
        if got != want:
            return f"{cmd.key}: counts {got} != recorded {want}"
        return None

    def _phases(self, cmd: Command, by_key) -> str | None:
        rows = _phase_rows(cmd.output, cmd.phase_format)
        sim = json.loads(by_key[cmd.paired].output.read_text())
        M = 2 * cmd.S
        sums = tuple(sum(r[f] for r in rows) for f in ("loads", "stores", "fmas"))
        if sums != (sim["reads"], sim["writes"], sim["fmas"]):
            return f"{cmd.key}: phase sums {sums} do not conserve {cmd.paired}"
        for r in rows[:-1]:
            if r["loads"] + r["stores"] != M:
                return f"{cmd.key}: non-final phase {r['phase']} has {r['loads'] + r['stores']} transfers, not {M}"
        for r in rows:
            if r["fmas"] ** 2 > r["x"] * r["y"] * r["z"]:
                return f"{cmd.key}: phase {r['phase']} breaks fmas^2 <= x*y*z"
            if r["x"] + r["y"] + r["z"] > cmd.S + M:
                return f"{cmd.key}: phase {r['phase']} footprint exceeds S+M"
        return self._digest(cmd)

    def _sweep(self, cmd: Command, by_key) -> str | None:
        return self._digest(cmd)

    def _digest(self, cmd: Command) -> str | None:
        digest = sha256_of(cmd.output)
        want = self.expected[cmd.key]["sha256"]
        if digest != want:
            return f"{cmd.key}: output digest {digest[:12]} != recorded {want[:12]}"
        return None

    def _brute_force(self, cmd: Command, by_key) -> str | None:
        from iomma.inputs import seeded_matrices
        from iomma.memsim import MemoryConfig, execute, parse_trace
        from iomma.model import ProblemDims

        payload = json.loads(cmd.output.read_text())
        want = self.expected[cmd.key]["min_io"]
        if payload["optimal"] is not True:
            return f"{cmd.key}: optimum not proven"
        if payload["min_io"] != want:
            return f"{cmd.key}: min_io {payload['min_io']} != recorded {want}"
        dims = ProblemDims(*cmd.dims)
        schedule = parse_trace("".join(line + "\n" for line in payload["trace"]), dims)
        stats = execute(schedule, MemoryConfig(cmd.S), *seeded_matrices(dims, self.seed)).stats
        if stats.io_total != want:
            return f"{cmd.key}: witness replays to {stats.io_total}, not {want}"
        return None


_PHASE_FIELDS = ("phase", "loads", "stores", "fmas", "x", "y", "z")


def _phase_rows(path: Path, fmt: str) -> list[dict[str, int]]:
    text = path.read_text()
    if fmt == "json":
        return [{f: row[f] for f in _PHASE_FIELDS} for row in json.loads(text)["phases"]]
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        rows.append({f: int(cells[f]) for f in _PHASE_FIELDS})
    return rows
