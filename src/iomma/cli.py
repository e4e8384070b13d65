"""Command-line front end.

Subcommands: simulate, predict, bounds, phases, goto, sweep, brute-force,
verify. All output is deterministic for identical arguments and seed: JSON
with stable key order, CSV with '.' decimals and LF line endings. Exit codes:
0 success, 1 invalid arguments or unsatisfiable preconditions, 2 correctness
mismatch or a failing verify suite.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import re
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

from .algorithms import Algorithm, build_schedule, predicted_io
from .bounds import DEFAULT_NODE_BUDGET, BoundReport, lower_bound_final, tiny_optimal_schedule
from .goto import DEFAULT_SUBOPTIMAL_THRESHOLD, GotoParams, goto_report
from .model import ProblemDims, SimulationError

if TYPE_CHECKING:
    from .memsim import MemoryConfig
    from .phases import PhaseConfig

# The layers each command uses beyond the parser's: main() imports them
# before it parses the command, and no other command loads them.
_COMMAND_LAYERS = {
    "simulate": ("inputs", "memsim"),
    "phases": ("memsim", "phases"),
    "brute-force": ("memsim",),
}


def _deferred(layer: str, name: str):
    """A stand-in for ``name`` of the module ``layer``, which looks the name
    up on its first call and then calls straight through.

    The commands call these through this module's globals, where perfbench
    wraps them, so each stays a plain function of this module.
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(f".{layer}", __package__), name)
        return target(*args, **kwargs)

    return call


seeded_matrices = _deferred("inputs", "seeded_matrices")
execute = _deferred("memsim", "execute")
reference_gemm = _deferred("memsim", "reference_gemm")
dump_trace = _deferred("memsim", "dump_trace")
parse_trace = _deferred("memsim", "parse_trace")
partition_phases = _deferred("phases", "partition_phases")
phases_to_csv = _deferred("phases", "phases_to_csv")

_DEFAULT_SEED = 42

SWEEP_CSV_HEADER = "alg,m,n,k,S,reads,writes,io_total,lb_final,ratio"

_ALG_NAMES = ",".join(alg.value for alg in Algorithm)


def _token(pattern: str, convert, what: str, name: str):
    """The flag type ``name``: ``convert`` of a token that ``pattern`` matches
    whole; any other is refused as not ``what``. argparse names a value that
    ``convert`` raises ValueError on by the type's ``__name__``."""

    def parse(text: str):
        if not re.fullmatch(pattern, text):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text}")
        return convert(text)
    parse.__name__ = name
    return parse


def _list(item, name: str):
    """The flag type ``name``: comma-separated ``item`` tokens; empty items
    are skipped, so "" is none."""

    def parse(text: str) -> list:
        return [item(part) for part in text.split(",") if part]
    parse.__name__ = name
    return parse


# integers are ASCII decimal digits alone, as a trace coordinate: no sign,
# underscore, whitespace or other script's digits, but a seed may have a
# leading '-'; a decimal is 1, 1.05 or 2e-1, never nan or inf
_positive_int = _token("[0-9]*[1-9][0-9]*", int, "a positive integer", "_positive_int")
_int = _token("-?[0-9]+", int, "an integer", "_int")
_decimal = _token(r"[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?", float, "a decimal number", "_decimal")
_algorithm = _token(_ALG_NAMES.replace(",", "|"), Algorithm, f"one of {_ALG_NAMES}", "_algorithm")
_int_list = _list(_positive_int, "_int_list")
_alg_list = _list(_algorithm, "_alg_list")


# the flags several commands take, each declared here once
_SHARED = {
    "-m": {"type": _positive_int, "required": True, "help": "rows of A and C"},
    "-n": {"type": _positive_int, "required": True, "help": "cols of B and C"},
    "-k": {"type": _positive_int, "required": True, "help": "cols of A, rows of B"},
    "-S": {"type": _positive_int, "required": True, "help": "fast-memory capacity in scalars"},
    "-M": {"type": _positive_int, "help": "phase size (default 2S)"},
    "--alg": {"type": _algorithm, "required": True, "metavar": f"{{{_ALG_NAMES}}}"},
}
_DIMS = ("-m", "-n", "-k")


def _add(parser, *names: str, **overrides) -> None:
    """Declare the named shared flags on a command or an argument group."""
    for name in names:
        parser.add_argument(name, **{**_SHARED[name], **overrides})


def _add_output(parser: argparse.ArgumentParser, *formats: str) -> None:
    """-o, and --format over the given report formats, the first the default."""
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0], dest="out_format")
    parser.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: building it costs more than
    most commands, and main() may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog="iomma",
        description="I/O accounting, lower bounds and phase analysis for "
        "blocked matrix multiplication on a two-level memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="execute a generated schedule and count I/O")
    _add(p, *_DIMS, "-S", "--alg")
    p.add_argument("--seed", type=_int, default=_DEFAULT_SEED)
    p.add_argument("--trace-out", default=None, help="also dump the trace to this file")
    _add_output(p, "json", "csv")

    p = sub.add_parser("predict", help="structural I/O counts without simulating")
    _add(p, *_DIMS, "-S", "--alg")
    _add_output(p, "json", "csv")

    p = sub.add_parser("bounds", help="evaluate the transfer lower bounds")
    _add(p, *_DIMS, "-S", "-M")
    _add_output(p, "json", "csv")

    p = sub.add_parser("phases", help="split a trace into M-transfer phases")
    _add(p, *_DIMS, "-S", "-M")
    source = p.add_mutually_exclusive_group(required=True)
    _add(source, "--alg", required=False)
    source.add_argument("--trace-in", default=None, help="read a dumped trace instead")
    _add_output(p, "csv", "json")

    p = sub.add_parser("goto", help="two-level cache read model for a blocked kernel")
    _add(p, *_DIMS)
    p.add_argument("--n-c", type=_positive_int, required=True)
    p.add_argument("--k-c", type=_positive_int, required=True)
    p.add_argument("--m-c", type=_positive_int, required=True)
    p.add_argument("--n-r", type=_positive_int, default=4)
    p.add_argument("--m-r", type=_positive_int, default=4)
    p.add_argument("--s2", type=_positive_int, required=True, help="L2 capacity in scalars")
    p.add_argument("--s3", type=_positive_int, required=True, help="L3 capacity in scalars")
    p.add_argument(
        "--threshold", type=_decimal, default=DEFAULT_SUBOPTIMAL_THRESHOLD,
        help="l3_ratio above this flags the blocking as suboptimal",
    )
    _add_output(p, "json", "csv")

    p = sub.add_parser("sweep", help="predicted cost vs lower bound over a parameter grid")
    p.add_argument("--algs", type=_alg_list, default=tuple(Algorithm),
                   help=f"comma list of {_ALG_NAMES} (default all)")
    p.add_argument("--sizes", type=_int_list, default=None, help="comma list, m=n=k per entry")
    p.add_argument("--m-list", type=_int_list, default=None)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--k-list", type=_int_list, default=None)
    p.add_argument("--capacities", type=_int_list, required=True, help="comma list of S values")
    _add_output(p)  # CSV only

    p = sub.add_parser("brute-force", help="exact minimal I/O for a tiny instance")
    _add(p, *_DIMS, "-S")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    _add_output(p, "json")  # the witness trace has no one-row CSV form

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--quick", action="store_true", help="smaller grids, about two seconds")

    return parser


def _dims(ns: argparse.Namespace) -> ProblemDims:
    return ProblemDims(ns.m, ns.n, ns.k)


def _phase_budget(ns: argparse.Namespace) -> int:
    """M, defaulting to 2S."""
    return ns.M or 2 * ns.S


def _fields(report, names: tuple[str, ...]) -> dict:
    """The named attributes of a report, in the given (output) order."""
    return {name: getattr(report, name) for name in names}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _one_row_csv(report: dict) -> str:
    """A header of the report's keys over one row of its values; the items of
    a nested dict stand in its place."""
    flat: dict = {}
    for key, value in report.items():
        flat.update(value if isinstance(value, dict) else {key: value})
    return ",".join(flat) + "\n" + ",".join(map(_csv_cell, flat.values())) + "\n"


def _write(ns: argparse.Namespace, report: dict | str) -> None:
    """Send a report to -o or stdout: a dict as JSON or, under --format csv,
    as a one-row CSV; a string as it is."""
    if isinstance(report, dict) and ns.out_format == "csv":
        report = _one_row_csv(report)
    elif isinstance(report, dict):
        report = json.dumps(report, indent=2) + "\n"
    if ns.output:
        with open(ns.output, "w", newline="\n") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)


def cmd_simulate(ns: argparse.Namespace) -> dict:
    from .memsim import MemoryConfig, write_trace

    dims = _dims(ns)
    schedule = build_schedule(ns.alg, dims, ns.S)
    a, b, c = seeded_matrices(dims, ns.seed)
    result = execute(schedule, MemoryConfig(ns.S), a, b, c)
    reference = reference_gemm(a, b, c)
    bitwise = result.output_c.tobytes() == reference.tobytes()
    predicted = predicted_io(ns.alg, dims, ns.S)
    stats = result.stats
    counts_match = predicted.matches(stats)
    if ns.trace_out:
        with open(ns.trace_out, "w", newline="\n") as handle:
            write_trace(schedule, handle)
    return {
        "command": "simulate",
        "algorithm": ns.alg.value,
        **asdict(dims),
        "S": ns.S,
        "seed": ns.seed,
        **_fields(stats, ("reads", "reads_a", "reads_b", "reads_c", "writes", "fmas",
                          "io_total", "peak_residency")),
        "effective_io": max(stats.reads, stats.writes),
        "predicted_reads": predicted.reads,
        "predicted_writes": predicted.writes,
        "closed_form_reads": predicted.closed_form_reads,
        "closed_form_writes": predicted.closed_form_writes,
        "counts_match": counts_match,
        "bitwise_match": bitwise,
        "match": counts_match and bitwise,
    }


def cmd_predict(ns: argparse.Namespace) -> dict:
    dims = _dims(ns)
    predicted = predicted_io(ns.alg, dims, ns.S)
    return {
        "command": "predict",
        "algorithm": ns.alg.value,
        **asdict(dims),
        "S": ns.S,
        **_fields(predicted, ("reads", "writes", "io_total", "effective_io",
                              "closed_form_reads", "closed_form_writes")),
    }


def cmd_bounds(ns: argparse.Namespace) -> dict:
    return asdict(BoundReport.compute(_dims(ns), ns.S, _phase_budget(ns)))


def _read_phases(path: str, dims: ProblemDims, config: PhaseConfig, memory: MemoryConfig) -> list:
    """The phases of a trace file that must fit in ``memory``. parse_trace
    reads a file of dump_trace's lines a span at a time, and partition_phases
    replays and splits it in one walk. A broken rule names its file line
    too: in such a file each line is an event, and any other file's text is
    read whole then, or first if the file cannot seek."""
    from .memsim import decode_trace, trace_line

    with open(path, "rb") as handle:
        text = None if handle.seekable() else decode_trace(handle.read())
        schedule = parse_trace(handle if text is None else text, dims)
        try:
            return partition_phases(schedule, config, memory)
        except SimulationError as exc:
            # name the file line too; a missing writeback has no event to point at
            where = ""
            if exc.index < len(schedule):
                if schedule._file_lines:
                    line = exc.index + 1
                else:
                    if text is None:
                        handle.seek(0)
                        text = decode_trace(handle.read())
                    line = trace_line(text, exc.index)
                where = f"trace line {line}: "
            exc.args = (f"{where}invalid trace: {exc}",)
            raise


def cmd_phases(ns: argparse.Namespace) -> dict | str:
    from .memsim import MemoryConfig
    from .phases import (
        PHASE_COLUMNS,
        PhaseConfig,
        check_capacity,
        check_loomis_whitney,
        phase_efficiency,
        phase_row,
    )

    dims = _dims(ns)
    M = _phase_budget(ns)
    if ns.trace_in:
        reports = _read_phases(ns.trace_in, dims, PhaseConfig(M), MemoryConfig(ns.S))
    else:
        reports = partition_phases(build_schedule(ns.alg, dims, ns.S), PhaseConfig(M))
    if ns.out_format == "csv":
        return phases_to_csv(reports)
    return {
        **asdict(dims),
        "S": ns.S,
        "M": M,
        "algorithm": ns.alg.value if ns.alg else None,
        "phases": [dict(zip(PHASE_COLUMNS, phase_row(r))) for r in reports],
        "efficiency": phase_efficiency(reports) if reports else None,
        "loomis_whitney_ok": all(check_loomis_whitney(r) for r in reports),
        "capacity_ok": all(check_capacity(r, ns.S, M) for r in reports),
    }


def cmd_goto(ns: argparse.Namespace) -> dict:
    dims = _dims(ns)
    params = GotoParams(
        n_c=ns.n_c, k_c=ns.k_c, m_c=ns.m_c, n_r=ns.n_r, m_r=ns.m_r, S2=ns.s2, S3=ns.s3,
    )
    report = goto_report(dims, params, ns.threshold)
    return {"dims": asdict(dims), "params": asdict(params), **asdict(report)}


def _sweep_points(ns: argparse.Namespace) -> list[tuple[Algorithm, int, int, int, int]]:
    lists = (ns.m_list, ns.n_list, ns.k_list)
    given = sum(lst is not None for lst in lists)
    if ns.sizes is not None and given:
        raise ValueError("pass either --sizes or --m-list/--n-list/--k-list, not both")
    if ns.sizes is not None:
        shapes = [(s, s, s) for s in ns.sizes]
    elif given == 3:
        shapes = list(itertools.product(*lists))
    elif given:
        raise ValueError("--m-list, --n-list and --k-list must be given together")
    else:
        raise ValueError("sweep needs --sizes or --m-list/--n-list/--k-list")
    points = [
        (alg, m, n, k, S)
        for alg in ns.algs
        for (m, n, k) in shapes
        for S in ns.capacities
    ]
    points.sort(key=lambda t: (t[0].value, t[1], t[2], t[3], t[4]))
    return points


def _sweep_row(point: tuple[Algorithm, int, int, int, int]) -> str:
    alg, m, n, k, S = point
    dims = ProblemDims(m, n, k)
    predicted = predicted_io(alg, dims, S)
    lb = lower_bound_final(dims, S)
    io_total = predicted.io_total
    ratio = io_total / lb if lb > 0 else None
    return (
        f"{alg.value},{m},{n},{k},{S},{predicted.reads},{predicted.writes},"
        f"{io_total},{lb!r},{'' if ratio is None else repr(ratio)}"
    )


def cmd_sweep(ns: argparse.Namespace) -> str:
    rows = [_sweep_row(p) for p in _sweep_points(ns)]
    return "\n".join([SWEEP_CSV_HEADER] + rows) + "\n"


def cmd_brute_force(ns: argparse.Namespace) -> dict:
    dims = _dims(ns)
    result = tiny_optimal_schedule(dims, ns.S, ns.budget)
    return {
        "command": "brute-force",
        **asdict(dims),
        "S": ns.S,
        "budget": ns.budget,
        **_fields(result, ("min_io", "optimal", "nodes")),
        "lower_bound_final": lower_bound_final(dims, ns.S),
        "trace": dump_trace(result.schedule).splitlines(),
    }


def cmd_verify(ns: argparse.Namespace) -> int:
    from . import verify  # on use only: no other command needs the suite

    first_failure = None
    passed = 0
    for name, check in verify.CHECKS:
        try:
            ok, detail = check(ns.quick)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name:32s} {detail}")
        if ok:
            passed += 1
        elif first_failure is None:
            first_failure = name
    if first_failure is None:
        print(f"{passed}/{len(verify.CHECKS)} checks passed")
        return 0
    print(f"{passed}/{len(verify.CHECKS)} checks passed; first failure: {first_failure}")
    return 2


_REPORTS = {
    "simulate": cmd_simulate,
    "predict": cmd_predict,
    "bounds": cmd_bounds,
    "phases": cmd_phases,
    "goto": cmd_goto,
    "sweep": cmd_sweep,
    "brute-force": cmd_brute_force,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The command is the first argument, as the parser takes no option before
    # it. Its layers load first, so the memory a compile peaks at is free
    # again before the parser is built and the command starts.
    for layer in _COMMAND_LAYERS.get(argv[0] if argv else None, ()):
        importlib.import_module(f".{layer}", __package__)
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if ns.command == "verify":  # prints each check as it finishes
            return cmd_verify(ns)
        report = _REPORTS[ns.command](ns)
        _write(ns, report)
    except (ValueError, OSError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # simulate's is the one report with a verdict: a mismatch exits 2
    return 2 if isinstance(report, dict) and report.get("match") is False else 0


if __name__ == "__main__":
    sys.exit(main())
