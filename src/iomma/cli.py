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
import json
import re
import sys
from dataclasses import asdict

from .algorithms import Algorithm, build_schedule, predicted_io
from .bounds import DEFAULT_NODE_BUDGET, BoundReport, lower_bound_final, tiny_optimal_schedule
from .goto import DEFAULT_SUBOPTIMAL_THRESHOLD, GotoParams, goto_report
from .inputs import seeded_matrices
from .memsim import (
    MemoryConfig,
    SimulationError,
    dump_trace,
    execute,
    parse_trace,
    reference_gemm,
    trace_line,
)
from .model import ProblemDims
from .phases import (
    PHASE_COLUMNS,
    PhaseConfig,
    check_capacity,
    check_loomis_whitney,
    partition_phases,
    phase_efficiency,
    phase_row,
    phases_to_csv,
    validate_trace,
)

_DEFAULT_SEED = 42

SWEEP_CSV_HEADER = "alg,m,n,k,S,reads,writes,io_total,lb_final,ratio"

_ALG_NAMES = ",".join(alg.value for alg in Algorithm)


def _positive_int(text: str) -> int:
    """ASCII decimal digits alone, as a trace coordinate: no sign,
    underscore, whitespace or other script's digits."""
    if not re.fullmatch("[0-9]+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(text)


def _int(text: str) -> int:
    """As _positive_int, but any value, with an optional leading '-'."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text}")
    return int(text)


def _decimal(text: str) -> float:
    """ASCII digits with an optional fraction and exponent, as 1, 1.05 or
    2e-1: no sign, underscore, whitespace, nan or inf."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {text}")
    return float(text)


def _algorithm(text: str) -> Algorithm:
    try:
        return Algorithm(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected one of {_ALG_NAMES}, got {text}") from None


def _int_list(text: str) -> list[int]:
    """Comma-separated positive ints; empty items are skipped, so "" is none."""
    return [_positive_int(part) for part in text.split(",") if part]


def _alg_list(text: str) -> list[Algorithm]:
    """Comma-separated algorithm names, skipping empty items as _int_list does."""
    return [_algorithm(part) for part in text.split(",") if part]


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
            handle.write(dump_trace(schedule))
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


def cmd_phases(ns: argparse.Namespace) -> dict | str:
    dims = _dims(ns)
    text = None
    if ns.trace_in:
        with open(ns.trace_in) as handle:
            text = handle.read()
        schedule = parse_trace(text, dims)
    else:
        schedule = build_schedule(ns.alg, dims, ns.S)
    M = _phase_budget(ns)
    try:
        if text is not None:  # a read trace must fit in -S; it replays once
            validate_trace(schedule, MemoryConfig(ns.S))
        reports = partition_phases(schedule, PhaseConfig(M))
    except SimulationError as exc:
        # name the file line too; a missing writeback has no event to point at
        where = ""
        if text is not None and exc.index < len(schedule.codes):
            where = f"trace line {trace_line(text, exc.index)}: "
        exc.args = (f"{where}invalid trace: {exc}",)
        raise
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
    if ns.sizes is not None and any(lst is not None for lst in lists):
        raise ValueError("pass either --sizes or --m-list/--n-list/--k-list, not both")
    if ns.sizes is not None:
        shapes = [(s, s, s) for s in ns.sizes]
    elif any(lst is not None for lst in lists):
        if any(lst is None for lst in lists):
            raise ValueError("--m-list, --n-list and --k-list must be given together")
        shapes = [(m, n, k) for m in ns.m_list for n in ns.n_list for k in ns.k_list]
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
