"""Command-line front end.

Subcommands: simulate, predict, bounds, phases, goto, sweep, brute-force,
verify. All output is deterministic for identical arguments and seed: JSON
with stable key order, CSV with '.' decimals and LF line endings. Exit codes:
0 success, 1 invalid arguments or unsatisfiable preconditions, 2 correctness
mismatch or a failing verify suite.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field

from . import algorithms
from .algorithms import Algorithm, build_schedule, predicted_io
from .bounds import (
    BoundReport,
    fmax,
    grid_search_xyz,
    lower_bound_final,
    lower_bound_general,
    lower_bound_MS,
    optimal_M,
    optimal_xyz,
    tiny_optimal_schedule,
)
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
from .model import ProblemDims, fma_count
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
_DEFAULT_BUDGET = 3_000_000
_ALL_ALGS = [Algorithm.NAIVE, Algorithm.A, Algorithm.B, Algorithm.C]

SWEEP_CSV_HEADER = "alg,m,n,k,S,reads,writes,io_total,lb_final,ratio"


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from the parsed arguments."""

    command: str
    dims: ProblemDims | None = None
    S: int | None = None
    M: int | None = None
    algorithm: Algorithm | None = None
    seed: int = _DEFAULT_SEED
    out_format: str = "json"
    output: str | None = None
    trace_in: str | None = None
    trace_out: str | None = None
    goto_params: GotoParams | None = None
    suboptimal_threshold: float = DEFAULT_SUBOPTIMAL_THRESHOLD
    algs: list[Algorithm] = field(default_factory=list)
    sizes: list[int] | None = None
    m_list: list[int] | None = None
    n_list: list[int] | None = None
    k_list: list[int] | None = None
    capacities: list[int] | None = None
    budget: int = _DEFAULT_BUDGET
    quick: bool = False

    def phase_budget(self) -> int:
        """M, defaulting to 2S."""
        if self.M is not None:
            return self.M
        return 2 * self.S


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


def _add_output(parser: argparse.ArgumentParser, default_format: str = "json") -> None:
    parser.add_argument(
        "--format", choices=("json", "csv"), default=default_format, dest="out_format"
    )
    parser.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--algs", type=_alg_list, default=list(_ALL_ALGS))
    p.add_argument("--sizes", type=_int_list, default=None, help="comma list, m=n=k per entry")
    p.add_argument("--m-list", type=_int_list, default=None)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--k-list", type=_int_list, default=None)
    p.add_argument("--capacities", type=_int_list, required=True, help="comma list of S values")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("brute-force", help="exact minimal I/O for a tiny instance")
    _add_dims(p)
    p.add_argument("-S", type=_positive_int, required=True)
    p.add_argument("--budget", type=_positive_int, default=_DEFAULT_BUDGET)
    _add_output(p)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--quick", action="store_true", help="smaller grids, under a minute")

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    if hasattr(ns, "m"):
        cfg.dims = ProblemDims(ns.m, ns.n, ns.k)
    for name in ("S", "M", "seed", "out_format", "output", "trace_in", "trace_out",
                 "algs", "sizes", "m_list", "n_list", "k_list", "capacities",
                 "budget", "quick"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if getattr(ns, "alg", None) is not None:
        cfg.algorithm = ns.alg
    if ns.command == "goto":
        cfg.goto_params = GotoParams(
            n_c=ns.n_c, k_c=ns.k_c, m_c=ns.m_c, n_r=ns.n_r, m_r=ns.m_r,
            S2=ns.s2, S3=ns.s3,
        )
        cfg.suboptimal_threshold = ns.threshold
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", newline="\n") as handle:
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


def _emit_payload(cfg: RunConfig, payload: dict) -> None:
    if cfg.out_format == "csv":
        _emit(cfg, _flat_csv(payload))
    else:
        _emit(cfg, _json_text(payload))


def cmd_simulate(cfg: RunConfig) -> int:
    dims = cfg.dims
    schedule = build_schedule(cfg.algorithm, dims, cfg.S)
    a, b, c = seeded_matrices(dims, cfg.seed)
    result = execute(schedule, MemoryConfig(cfg.S), a, b, c)
    reference = reference_gemm(a, b, c)
    bitwise = result.output_c.tobytes() == reference.tobytes()
    predicted = predicted_io(cfg.algorithm, dims, cfg.S)
    stats = result.stats
    counts_match = (
        stats.reads == predicted.reads and stats.writes == predicted.writes
    )
    if cfg.trace_out:
        with open(cfg.trace_out, "w", newline="\n") as handle:
            handle.write(dump_trace(schedule))
    payload = {
        "command": "simulate",
        "algorithm": cfg.algorithm.value,
        "m": dims.m,
        "n": dims.n,
        "k": dims.k,
        "S": cfg.S,
        "seed": cfg.seed,
        "reads": stats.reads,
        "writes": stats.writes,
        "fmas": stats.fmas,
        "io_total": stats.io_total,
        "peak_residency": stats.peak_residency,
        "effective_io": max(stats.reads, stats.writes),
        "predicted_reads": predicted.reads,
        "predicted_writes": predicted.writes,
        "closed_form_reads": predicted.closed_form_reads,
        "closed_form_writes": predicted.closed_form_writes,
        "counts_match": counts_match,
        "bitwise_match": bitwise,
        "match": counts_match and bitwise,
    }
    _emit_payload(cfg, payload)
    return 0 if payload["match"] else 2


def cmd_predict(cfg: RunConfig) -> int:
    predicted = predicted_io(cfg.algorithm, cfg.dims, cfg.S)
    payload = {
        "command": "predict",
        "algorithm": cfg.algorithm.value,
        "m": cfg.dims.m,
        "n": cfg.dims.n,
        "k": cfg.dims.k,
        "S": cfg.S,
        "reads": predicted.reads,
        "writes": predicted.writes,
        "io_total": predicted.io_total,
        "effective_io": predicted.effective_io,
        "closed_form_reads": predicted.closed_form_reads,
        "closed_form_writes": predicted.closed_form_writes,
    }
    _emit_payload(cfg, payload)
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    report = BoundReport.compute(cfg.dims, cfg.S, cfg.phase_budget())
    payload = {
        "dims": {"m": cfg.dims.m, "n": cfg.dims.n, "k": cfg.dims.k},
        "S": report.S,
        "M": report.M,
        "f_max": report.f_max,
        "general_bound": report.general_bound,
        "bound_M_eq_S": report.bound_M_eq_S,
        "bound_M_eq_2S": report.bound_M_eq_2S,
        "hong_kung_reference": report.hong_kung_reference,
    }
    _emit_payload(cfg, payload)
    return 0


def cmd_phases(cfg: RunConfig) -> int:
    dims = cfg.dims
    text = None
    if cfg.trace_in:
        with open(cfg.trace_in) as handle:
            text = handle.read()
        schedule = parse_trace(text, dims)
    else:
        schedule = build_schedule(cfg.algorithm, dims, cfg.S)
    M = cfg.phase_budget()
    try:
        reports = partition_phases(schedule, PhaseConfig(M))
    except UnvalidatedTraceError as exc:
        # name the file line too; a missing writeback has no event to point at
        if text is None or exc.index >= len(schedule.events):
            raise
        line = trace_line(text, exc.index)
        raise UnvalidatedTraceError(f"trace line {line}: {exc}", exc.index) from exc
    if cfg.out_format == "csv":
        _emit(cfg, phases_to_csv(reports))
        return 0
    payload = {
        "m": dims.m,
        "n": dims.n,
        "k": dims.k,
        "S": cfg.S,
        "M": M,
        "algorithm": cfg.algorithm.value if cfg.algorithm else None,
        "phases": [
            {
                "phase": r.index,
                "loads": r.loads,
                "stores": r.stores,
                "fmas": r.fmas,
                "x": r.x,
                "y": r.y,
                "z": r.z,
                "lw_bound": r.lw_bound,
                "resident_at_start": r.resident_at_start,
            }
            for r in reports
        ],
        "efficiency": phase_efficiency(reports, cfg.S, M) if reports else None,
        "loomis_whitney_ok": all(check_loomis_whitney(r) for r in reports),
        "capacity_ok": all(check_capacity(r, cfg.S, M) for r in reports),
    }
    _emit(cfg, _json_text(payload))
    return 0


def cmd_goto(cfg: RunConfig) -> int:
    params = cfg.goto_params
    report = goto_report(cfg.dims, params, cfg.suboptimal_threshold)
    payload = {
        "dims": {"m": cfg.dims.m, "n": cfg.dims.n, "k": cfg.dims.k},
        "params": {
            "n_c": params.n_c,
            "k_c": params.k_c,
            "m_c": params.m_c,
            "n_r": params.n_r,
            "m_r": params.m_r,
            "S2": params.S2,
            "S3": params.S3,
        },
        "l3_reads": report.l3_reads,
        "l2_reads": report.l2_reads,
        "l3_reference": report.l3_reference,
        "l2_reference": report.l2_reference,
        "l3_ratio": report.l3_ratio,
        "l2_ratio": report.l2_ratio,
        "l3_suboptimal": report.l3_suboptimal,
    }
    _emit_payload(cfg, payload)
    return 0


def _sweep_points(cfg: RunConfig) -> list[tuple[Algorithm, int, int, int, int]]:
    if cfg.sizes is not None and any(
        lst is not None for lst in (cfg.m_list, cfg.n_list, cfg.k_list)
    ):
        raise ValueError("pass either --sizes or --m-list/--n-list/--k-list, not both")
    if cfg.sizes is not None:
        shapes = [(s, s, s) for s in cfg.sizes]
    elif cfg.m_list is not None or cfg.n_list is not None or cfg.k_list is not None:
        if not (cfg.m_list is not None and cfg.n_list is not None and cfg.k_list is not None):
            raise ValueError("--m-list, --n-list and --k-list must be given together")
        shapes = [
            (m, n, k) for m in cfg.m_list for n in cfg.n_list for k in cfg.k_list
        ]
    else:
        raise ValueError("sweep needs --sizes or --m-list/--n-list/--k-list")
    points = [
        (alg, m, n, k, S)
        for alg in cfg.algs
        for (m, n, k) in shapes
        for S in cfg.capacities
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


def cmd_sweep(cfg: RunConfig) -> int:
    rows = [_sweep_row(p) for p in _sweep_points(cfg)]
    _emit(cfg, "\n".join([SWEEP_CSV_HEADER] + rows) + "\n")
    return 0


def cmd_brute_force(cfg: RunConfig) -> int:
    result = tiny_optimal_schedule(cfg.dims, cfg.S, cfg.budget)
    payload = {
        "command": "brute-force",
        "m": cfg.dims.m,
        "n": cfg.dims.n,
        "k": cfg.dims.k,
        "S": cfg.S,
        "budget": cfg.budget,
        "min_io": result.min_io,
        "optimal": result.optimal,
        "nodes": result.nodes,
        "lower_bound_final": lower_bound_final(cfg.dims, cfg.S),
        "trace": dump_trace(result.schedule).splitlines(),
    }
    _emit(cfg, _json_text(payload))
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-module invariant suite
# ---------------------------------------------------------------------------


def _all_dims(limit: int) -> list[ProblemDims]:
    return [
        ProblemDims(m, n, k)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        for k in range(1, limit + 1)
    ]


def _input_cache():
    cache: dict = {}

    def get(dims: ProblemDims):
        key = (dims.m, dims.n, dims.k)
        if key not in cache:
            cache[key] = seeded_matrices(dims, _DEFAULT_SEED)
        return cache[key]

    return get


def _check_agreement(quick: bool):
    limit = 4 if quick else 6
    s_values = (4, 9, 16) if quick else (4, 9, 16, 25)
    inputs = _input_cache()
    cases = 0
    for dims in _all_dims(limit):
        for S in s_values:
            for alg in _ALL_ALGS:
                label = f"{alg.value} ({dims.m},{dims.n},{dims.k}) S={S}"
                try:
                    schedule = build_schedule(alg, dims, S)
                    a, b, c = inputs(dims)
                    result = execute(schedule, MemoryConfig(S), a, b, c)
                except Exception as exc:
                    return False, f"{label}: {exc}"
                predicted = predicted_io(alg, dims, S)
                stats = result.stats
                if stats.reads != predicted.reads or stats.writes != predicted.writes:
                    return False, (
                        f"{label}: simulated ({stats.reads},{stats.writes}) != "
                        f"predicted ({predicted.reads},{predicted.writes})"
                    )
                if stats.fmas != fma_count(dims):
                    return False, f"{label}: {stats.fmas} fmas != {fma_count(dims)}"
                cases += 1
    return True, f"{cases} cases exact"


def _check_closed_forms(quick: bool):
    combos = [(6, 16), (9, 16), (4, 9), (8, 9), (3, 16)]
    if not quick:
        combos += [(12, 16), (10, 36), (5, 36)]
    cases = 0
    for size, S in combos:
        dims = ProblemDims(size, size, size)
        b = algorithms.block_size(S)
        if size % b:
            continue
        for alg in _ALL_ALGS:
            predicted = predicted_io(alg, dims, S)
            if predicted.reads != predicted.closed_form_reads or (
                predicted.writes != predicted.closed_form_writes
            ):
                return False, (
                    f"{alg.value} m=n=k={size} S={S}: structural "
                    f"({predicted.reads},{predicted.writes}) != closed form "
                    f"({predicted.closed_form_reads},{predicted.closed_form_writes})"
                )
            cases += 1
    return True, f"{cases} divisible cases exact"


def _check_bitwise(quick: bool):
    limit = 4 if quick else 6
    s_values = (4, 9, 16)
    inputs = _input_cache()
    cases = 0
    for dims in _all_dims(limit):
        a, b, c = inputs(dims)
        reference_bytes = reference_gemm(a, b, c).tobytes()
        for S in s_values:
            for alg in _ALL_ALGS:
                schedule = build_schedule(alg, dims, S)
                result = execute(schedule, MemoryConfig(S), a, b, c)
                if result.output_c.tobytes() != reference_bytes:
                    return False, (
                        f"{alg.value} ({dims.m},{dims.n},{dims.k}) S={S}: "
                        "output differs from the reference loop"
                    )
                cases += 1
    return True, f"{cases} executions bitwise identical"


def _check_phase_inequalities(quick: bool):
    limit = 4 if quick else 6
    s_values = (4, 9, 16)
    checked = 0
    for dims in _all_dims(limit):
        for S in s_values:
            for alg in _ALL_ALGS:
                schedule = build_schedule(alg, dims, S)
                for M in (S, 2 * S):
                    for report in partition_phases(schedule, PhaseConfig(M)):
                        if not check_loomis_whitney(report):
                            return False, (
                                f"{alg.value} ({dims.m},{dims.n},{dims.k}) "
                                f"S={S} M={M} phase {report.index}: "
                                f"fmas^2 > x*y*z"
                            )
                        if not check_capacity(report, S, M):
                            return False, (
                                f"{alg.value} ({dims.m},{dims.n},{dims.k}) "
                                f"S={S} M={M} phase {report.index}: "
                                f"footprint exceeds capacity"
                            )
                        checked += 1
    return True, f"{checked} phases within both inequalities"


def _check_phase_conservation(quick: bool):
    limit = 3 if quick else 5
    s_values = (4, 16)
    inputs = _input_cache()
    cases = 0
    for dims in _all_dims(limit):
        for S in s_values:
            for alg in _ALL_ALGS:
                schedule = build_schedule(alg, dims, S)
                a, b, c = inputs(dims)
                stats = execute(schedule, MemoryConfig(S), a, b, c).stats
                M = 2 * S
                reports = partition_phases(schedule, PhaseConfig(M))
                loads = sum(r.loads for r in reports)
                stores = sum(r.stores for r in reports)
                fmas = sum(r.fmas for r in reports)
                if (loads, stores, fmas) != (stats.reads, stats.writes, stats.fmas):
                    return False, (
                        f"{alg.value} ({dims.m},{dims.n},{dims.k}) S={S}: phase "
                        f"sums ({loads},{stores},{fmas}) != stats "
                        f"({stats.reads},{stats.writes},{stats.fmas})"
                    )
                for report in reports[:-1]:
                    if report.loads + report.stores != M:
                        return False, (
                            f"{alg.value} ({dims.m},{dims.n},{dims.k}) S={S}: "
                            f"non-final phase {report.index} has "
                            f"{report.loads + report.stores} transfers, not {M}"
                        )
                cases += 1
    return True, f"{cases} traces conserve counters"


def _relative_gap(left: float, right: float) -> float:
    scale = max(1.0, abs(left), abs(right))
    return abs(left - right) / scale


def _check_bound_identities(quick: bool):
    rng = random.Random(20250819)
    samples = 60 if quick else 300
    worst = 0.0
    for _ in range(samples):
        dims = ProblemDims(
            rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 64)
        )
        S = rng.randint(1, 512)
        worst = max(
            worst,
            _relative_gap(lower_bound_general(dims, S, 2 * S), lower_bound_final(dims, S)),
            _relative_gap(lower_bound_general(dims, S, S), lower_bound_MS(dims, S)),
        )
        worst = max(worst, _relative_gap(fmax(S, 2 * S), S * (S**0.5)))
    if worst > 1e-12:
        return False, f"worst relative gap {worst:.3e} exceeds 1e-12"
    return True, f"{samples} samples, worst relative gap {worst:.3e}"


def _check_xyz_oracle(quick: bool):
    exact = grid_search_xyz(16, 32, 1.0)
    analytic = optimal_xyz(16, 32)
    if (exact.x, exact.y, exact.z) != (16.0, 16.0, 16.0) or exact.f != 64.0:
        return False, (
            f"grid optimum ({exact.x},{exact.y},{exact.z}) f={exact.f}, "
            "expected (16,16,16) f=64"
        )
    if exact.f != analytic.f or abs(exact.f - fmax(16, 32)) > 1e-12 * exact.f:
        return False, "grid, analytic and fmax values disagree at S=16, M=32"
    rng = random.Random(7)
    samples = 4 if quick else 10
    for _ in range(samples):
        S = rng.randint(4, 300)
        M = rng.randint(4, 600)
        best = grid_search_xyz(S, M, (S + M) / 100)
        cap = fmax(S, M)
        if not best.f <= cap * (1 + 1e-12):
            return False, f"grid f {best.f} exceeds analytic cap {cap} at S={S} M={M}"
        if cap - best.f > 0.01 * cap:
            return False, f"grid f {best.f} more than 1% below cap {cap} at S={S} M={M}"
    return True, f"exact at (16,32); {samples} random grids within 1%"


def _check_optimal_M(quick: bool):
    for S in (16, 64) if quick else (16, 64, 256):
        low, high = S / 4, 8 * S
        grid = [low + i * (high - low) / 199 for i in range(200)]
        got = optimal_M(S, grid)
        nearest = min(grid, key=lambda candidate: (abs(candidate - 2 * S), candidate))
        if got != nearest:
            return False, f"S={S}: picked M={got}, nearest grid point to 2S is {nearest}"
    return True, "argmax lands nearest 2S on every grid"


def _check_attainment_trend(quick: bool):
    S = 16
    ratios = []
    for size in (60, 120, 240):
        dims = ProblemDims(size, size, size)
        predicted = predicted_io(Algorithm.C, dims, S)
        ratios.append(predicted.io_total / lower_bound_final(dims, S))
    if not (ratios[0] > ratios[1] > ratios[2]):
        return False, f"ratios {ratios} are not strictly decreasing"
    if ratios[-1] > 1.45:
        return False, f"ratio at 240 is {ratios[-1]:.4f} > 1.45"
    return True, f"ratios {', '.join(f'{r:.4f}' for r in ratios)} decreasing toward 4/3"


def _check_tiny_optima(quick: bool):
    inputs = _input_cache()
    for (dims_tuple, S, expected) in (((1, 1, 1), 3, 4), ((2, 2, 1), 4, 12)):
        dims = ProblemDims(*dims_tuple)
        result = tiny_optimal_schedule(dims, S)
        if not result.optimal or result.min_io != expected:
            return False, (
                f"({dims.m},{dims.n},{dims.k}) S={S}: found {result.min_io} "
                f"(optimal={result.optimal}), expected {expected}"
            )
        a, b, c = inputs(dims)
        stats = execute(result.schedule, MemoryConfig(S), a, b, c).stats
        if stats.io_total != result.min_io:
            return False, f"witness replays to {stats.io_total}, not {result.min_io}"
        for alg in _ALL_ALGS:
            try:
                predicted = predicted_io(alg, dims, S)
            except algorithms.TooSmallError:
                continue
            if result.min_io > predicted.io_total:
                return False, (
                    f"exact optimum {result.min_io} exceeds {alg.value} cost "
                    f"{predicted.io_total} at ({dims.m},{dims.n},{dims.k}) S={S}"
                )
    return True, "exact optima 4 and 12 reproduced and beaten by no algorithm"


_VERIFY_CHECKS = [
    ("schedule/prediction agreement", _check_agreement),
    ("divisible closed forms", _check_closed_forms),
    ("bitwise agreement", _check_bitwise),
    ("phase inequalities", _check_phase_inequalities),
    ("phase conservation", _check_phase_conservation),
    ("bound identities", _check_bound_identities),
    ("xyz grid oracle agreement", _check_xyz_oracle),
    ("optimal M selection", _check_optimal_M),
    ("attainment trend", _check_attainment_trend),
    ("tiny exact optima", _check_tiny_optima),
]


def cmd_verify(cfg: RunConfig) -> int:
    first_failure = None
    passed = 0
    for name, check in _VERIFY_CHECKS:
        try:
            ok, detail = check(cfg.quick)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name:32s} {detail}")
        if ok:
            passed += 1
        elif first_failure is None:
            first_failure = name
    if first_failure is None:
        print(f"{passed}/{len(_VERIFY_CHECKS)} checks passed")
        return 0
    print(f"{passed}/{len(_VERIFY_CHECKS)} checks passed; first failure: {first_failure}")
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
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _config_from(ns)
        return _DISPATCH[cfg.command](cfg)
    except (ValueError, OSError, SimulationError, UnvalidatedTraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
