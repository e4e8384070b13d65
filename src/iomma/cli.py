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
    PhaseConfig,
    UnvalidatedTraceError,
    check_capacity,
    check_loomis_whitney,
    partition_phases,
    phase_efficiency,
    phases_to_csv,
)

_DEFAULT_SEED = 42

SWEEP_CSV_HEADER = "alg,m,n,k,S,reads,writes,io_total,lb_final,ratio"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    return [int(part) for part in text.split(",") if part.strip()]


def _alg_list(text: str) -> list[Algorithm]:
    if not text.strip():
        return []
    return [Algorithm(part.strip()) for part in text.split(",") if part.strip()]


def _add_dims(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=_positive_int, required=True, help="rows of A and C")
    parser.add_argument("-n", type=_positive_int, required=True, help="cols of B and C")
    parser.add_argument("-k", type=_positive_int, required=True, help="cols of A, rows of B")


def _add_output(
    parser: argparse.ArgumentParser,
    default_format: str = "json",
    formats: tuple[str, ...] = ("json", "csv"),
) -> None:
    parser.add_argument(
        "--format", choices=formats, default=default_format, dest="out_format"
    )
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
    _add_dims(p)
    p.add_argument("-S", type=_positive_int, required=True, help="fast-memory capacity in scalars")
    p.add_argument("--alg", type=Algorithm, required=True, choices=list(Algorithm))
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.add_argument("--trace-out", default=None, help="also dump the trace to this file")
    _add_output(p)

    p = sub.add_parser("predict", help="structural I/O counts without simulating")
    _add_dims(p)
    p.add_argument("-S", type=_positive_int, required=True)
    p.add_argument("--alg", type=Algorithm, required=True, choices=list(Algorithm))
    _add_output(p)

    p = sub.add_parser("bounds", help="evaluate the transfer lower bounds")
    _add_dims(p)
    p.add_argument("-S", type=_positive_int, required=True)
    p.add_argument("-M", type=_positive_int, default=None, help="phase size (default 2S)")
    _add_output(p)

    p = sub.add_parser("phases", help="split a trace into M-transfer phases")
    _add_dims(p)
    p.add_argument("-S", type=_positive_int, required=True)
    p.add_argument("-M", type=_positive_int, default=None, help="phase size (default 2S)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alg", type=Algorithm, default=None, choices=list(Algorithm))
    group.add_argument("--trace-in", default=None, help="read a dumped trace instead")
    _add_output(p, default_format="csv")

    p = sub.add_parser("goto", help="two-level cache read model for a blocked kernel")
    _add_dims(p)
    p.add_argument("--n-c", type=_positive_int, required=True)
    p.add_argument("--k-c", type=_positive_int, required=True)
    p.add_argument("--m-c", type=_positive_int, required=True)
    p.add_argument("--n-r", type=_positive_int, default=4)
    p.add_argument("--m-r", type=_positive_int, default=4)
    p.add_argument("--s2", type=_positive_int, required=True, help="L2 capacity in scalars")
    p.add_argument("--s3", type=_positive_int, required=True, help="L3 capacity in scalars")
    p.add_argument(
        "--threshold", type=float, default=DEFAULT_SUBOPTIMAL_THRESHOLD,
        help="l3_ratio above this flags the blocking as suboptimal",
    )
    _add_output(p)

    p = sub.add_parser("sweep", help="predicted cost vs lower bound over a parameter grid")
    p.add_argument("--algs", type=_alg_list, default=tuple(Algorithm))
    p.add_argument("--sizes", type=_int_list, default=None, help="comma list, m=n=k per entry")
    p.add_argument("--m-list", type=_int_list, default=None)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--k-list", type=_int_list, default=None)
    p.add_argument("--capacities", type=_int_list, required=True, help="comma list of S values")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("brute-force", help="exact minimal I/O for a tiny instance")
    _add_dims(p)
    p.add_argument("-S", type=_positive_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    _add_output(p, formats=("json",))  # the witness trace has no one-row CSV form

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


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.output:
        with open(ns.output, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _flat_csv(payload: dict) -> str:
    flat: dict = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for inner_key, inner_value in value.items():
                flat[inner_key] = inner_value
        elif isinstance(value, list):
            continue
        else:
            flat[key] = value
    header = ",".join(flat)
    row = ",".join(_csv_cell(v) for v in flat.values())
    return header + "\n" + row + "\n"


def _emit_payload(ns: argparse.Namespace, payload: dict) -> None:
    if ns.out_format == "csv":
        _emit(ns, _flat_csv(payload))
    else:
        _emit(ns, _json_text(payload))


def cmd_simulate(ns: argparse.Namespace) -> int:
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
    payload = {
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
    _emit_payload(ns, payload)
    return 0 if payload["match"] else 2


def cmd_predict(ns: argparse.Namespace) -> int:
    dims = _dims(ns)
    predicted = predicted_io(ns.alg, dims, ns.S)
    payload = {
        "command": "predict",
        "algorithm": ns.alg.value,
        **asdict(dims),
        "S": ns.S,
        **_fields(predicted, ("reads", "writes", "io_total", "effective_io",
                              "closed_form_reads", "closed_form_writes")),
    }
    _emit_payload(ns, payload)
    return 0


def cmd_bounds(ns: argparse.Namespace) -> int:
    _emit_payload(ns, asdict(BoundReport.compute(_dims(ns), ns.S, _phase_budget(ns))))
    return 0


def cmd_phases(ns: argparse.Namespace) -> int:
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
        reports = partition_phases(schedule, PhaseConfig(M))
    except UnvalidatedTraceError as exc:
        # name the file line too; a missing writeback has no event to point at
        if text is None or exc.index >= len(schedule.codes):
            raise
        line = trace_line(text, exc.index)
        raise UnvalidatedTraceError(f"trace line {line}: {exc}", exc.index) from exc
    if ns.out_format == "csv":
        _emit(ns, phases_to_csv(reports))
        return 0
    payload = {
        **asdict(dims),
        "S": ns.S,
        "M": M,
        "algorithm": ns.alg.value if ns.alg else None,
        "phases": [
            {"phase": r.index,
             **_fields(r, ("loads", "stores", "fmas", "x", "y", "z", "lw_bound",
                           "resident_at_start"))}
            for r in reports
        ],
        "efficiency": phase_efficiency(reports, ns.S, M) if reports else None,
        "loomis_whitney_ok": all(check_loomis_whitney(r) for r in reports),
        "capacity_ok": all(check_capacity(r, ns.S, M) for r in reports),
    }
    _emit(ns, _json_text(payload))
    return 0


def cmd_goto(ns: argparse.Namespace) -> int:
    dims = _dims(ns)
    params = GotoParams(
        n_c=ns.n_c, k_c=ns.k_c, m_c=ns.m_c, n_r=ns.n_r, m_r=ns.m_r, S2=ns.s2, S3=ns.s3,
    )
    report = goto_report(dims, params, ns.threshold)
    _emit_payload(ns, {"dims": asdict(dims), "params": asdict(params), **asdict(report)})
    return 0


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


def cmd_sweep(ns: argparse.Namespace) -> int:
    rows = [_sweep_row(p) for p in _sweep_points(ns)]
    _emit(ns, "\n".join([SWEEP_CSV_HEADER] + rows) + "\n")
    return 0


def cmd_brute_force(ns: argparse.Namespace) -> int:
    dims = _dims(ns)
    result = tiny_optimal_schedule(dims, ns.S, ns.budget)
    payload = {
        "command": "brute-force",
        **asdict(dims),
        "S": ns.S,
        "budget": ns.budget,
        **_fields(result, ("min_io", "optimal", "nodes")),
        "lower_bound_final": lower_bound_final(dims, ns.S),
        "trace": dump_trace(result.schedule).splitlines(),
    }
    _emit(ns, _json_text(payload))
    return 0


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


_DISPATCH = {
    "simulate": cmd_simulate,
    "predict": cmd_predict,
    "bounds": cmd_bounds,
    "phases": cmd_phases,
    "goto": cmd_goto,
    "sweep": cmd_sweep,
    "brute-force": cmd_brute_force,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _DISPATCH[ns.command](ns)
    except (ValueError, OSError, SimulationError, UnvalidatedTraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
