"""The cross-module invariant suite behind ``iomma verify``.

Each check takes ``quick`` and returns ``(ok, detail)``: the detail states
what was covered and the tolerance applied, or names the first case that
broke it. Where an acceptance criterion covers the same invariant, the full
grid is that criterion's grid, seed and sample count, and the acceptance
suite calls the check itself, so each invariant has one home. ``quick=True``
shrinks the grids so the whole suite runs in about two seconds.
"""

from __future__ import annotations

import itertools
import random
import time

from .algorithms import Algorithm, block_size, build_schedule, predicted_io, runnable_costs
from .bounds import (
    compulsory_io,
    fmax,
    grid_search_xyz,
    lower_bound_final,
    lower_bound_general,
    lower_bound_MS,
    optimal_M,
    optimal_xyz,
    tiny_optimal_schedule,
)
from .inputs import seeded_matrices
from .memsim import MemoryConfig, execute, reference_gemm
from .model import ProblemDims, fma_count
from .phases import PhaseConfig, check_capacity, check_loomis_whitney, partition_phases

SEED = 42
_ALGS = tuple(Algorithm)


def _runs(limit: int, s_values: tuple[int, ...]):
    """(label, algorithm, dims, S, seeded inputs) of every algorithm at each S
    in s_values on each dims in {1..limit}^3, dims outermost; the inputs are
    drawn once per dims."""
    for m, n, k in itertools.product(range(1, limit + 1), repeat=3):
        dims = ProblemDims(m, n, k)
        inputs = seeded_matrices(dims, SEED)
        for S, alg in itertools.product(s_values, _ALGS):
            yield f"{alg.value} ({m},{n},{k}) S={S}", alg, dims, S, inputs


def _relative_gap(left: float, right: float) -> float:
    scale = max(1.0, abs(left), abs(right))
    return abs(left - right) / scale


def _counts(report) -> str:
    """(reads, reads_a, reads_b, reads_c, writes) of an IOStats or PredictedIO."""
    return f"({report.reads},{report.reads_a},{report.reads_b},{report.reads_c},{report.writes})"


def check_agreement(quick: bool) -> tuple[bool, str]:
    """Simulated reads, operand by operand, and writes equal ``predicted_io``;
    every fma runs once."""
    limit = 4 if quick else 6
    s_values = (4, 9, 16) if quick else (4, 9, 16, 25)
    cases = 0
    for label, alg, dims, S, inputs in _runs(limit, s_values):
        try:
            stats = execute(build_schedule(alg, dims, S), MemoryConfig(S), *inputs).stats
        except Exception as exc:
            return False, f"{label}: {exc}"
        predicted = predicted_io(alg, dims, S)
        if not predicted.matches(stats):
            return False, f"{label}: simulated {_counts(stats)} != predicted {_counts(predicted)}"
        if stats.fmas != fma_count(dims):
            return False, f"{label}: {stats.fmas} fmas != {fma_count(dims)}"
        cases += 1
    return True, f"{cases} cases exact"


def check_closed_forms(quick: bool) -> tuple[bool, str]:
    """Structural counts equal the closed forms when b divides every dimension."""
    combos = [(6, 16), (9, 16), (4, 9), (8, 9), (3, 16)]
    if not quick:
        combos += [(12, 16), (10, 36), (5, 36)]
    cases = 0
    for size, S in combos:
        if size % block_size(S):
            continue
        dims = ProblemDims(size, size, size)
        for alg in _ALGS:
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


def check_bitwise(quick: bool) -> tuple[bool, str]:
    """Every schedule's C is byte-identical to ``reference_gemm`` (criterion 8)."""
    limit = 4 if quick else 8
    cases = 0
    reference_dims = None
    for label, alg, dims, S, inputs in _runs(limit, (4, 9, 16)):
        if dims != reference_dims:  # once per dims, as the inputs are
            reference_dims, expected = dims, reference_gemm(*inputs).tobytes()
        result = execute(build_schedule(alg, dims, S), MemoryConfig(S), *inputs)
        if result.output_c.tobytes() != expected:
            return False, (
                f"{label}: output differs from the reference loop (zero byte-level "
                "mismatches required)"
            )
        cases += 1
    return True, (
        f"dims {{1..{limit}}}^3, S in {{4,9,16}}, all algorithms: {cases} runs, "
        "0 byte-level mismatches (zero required)"
    )


def check_phase_inequalities(quick: bool) -> tuple[bool, str]:
    """Every phase obeys Loomis-Whitney and x+y+z <= S+M (criterion 6)."""
    limit = 4 if quick else 8
    phases = 0
    for label, alg, dims, S, _ in _runs(limit, (4, 9, 16)):
        schedule = build_schedule(alg, dims, S)
        for M in (S, 2 * S):
            for report in partition_phases(schedule, PhaseConfig(M)):
                where = f"{label} M={M} phase {report.index}"
                if not check_loomis_whitney(report):
                    return False, f"{where}: fmas^2 > x*y*z (zero violations required)"
                if not check_capacity(report, S, M):
                    return False, f"{where}: footprint exceeds capacity (zero violations required)"
                phases += 1
    return True, (
        f"dims {{1..{limit}}}^3, S in {{4,9,16}}, M in {{S,2S}}, all algorithms: "
        f"{phases} phases, 0 violations (zero required)"
    )


def check_phase_conservation(quick: bool) -> tuple[bool, str]:
    """Phase sums equal the simulated counters; non-final phases hold M transfers."""
    limit = 3 if quick else 5
    cases = 0
    for label, alg, dims, S, inputs in _runs(limit, (4, 16)):
        schedule = build_schedule(alg, dims, S)
        stats = execute(schedule, MemoryConfig(S), *inputs).stats
        M = 2 * S
        reports = partition_phases(schedule, PhaseConfig(M))
        loads = sum(r.loads for r in reports)
        stores = sum(r.stores for r in reports)
        fmas = sum(r.fmas for r in reports)
        if (loads, stores, fmas) != (stats.reads, stats.writes, stats.fmas):
            return False, (
                f"{label}: phase sums ({loads},{stores},{fmas}) != stats "
                f"({stats.reads},{stats.writes},{stats.fmas})"
            )
        for report in reports[:-1]:
            if report.loads + report.stores != M:
                return False, (
                    f"{label}: non-final phase {report.index} has "
                    f"{report.loads + report.stores} transfers, not {M}"
                )
        cases += 1
    return True, f"{cases} traces conserve counters"


def check_bound_identities(quick: bool) -> tuple[bool, str]:
    """The general bound at M=2S and M=S equals the named bounds, fmax(S,2S) is
    S^1.5, and the final bound at (6,6,6) S=16 is exactly 76 (criterion 3)."""
    seed, samples, dim_hi, s_hi = (20250819, 60, 64, 512) if quick else (31415, 1000, 100, 1000)
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        dims = ProblemDims(rng.randint(1, dim_hi), rng.randint(1, dim_hi), rng.randint(1, dim_hi))
        S = rng.randint(1, s_hi)
        worst = max(
            worst,
            _relative_gap(lower_bound_general(dims, S, 2 * S), lower_bound_final(dims, S)),
            _relative_gap(lower_bound_general(dims, S, S), lower_bound_MS(dims, S)),
            _relative_gap(fmax(S, 2 * S), S * (S**0.5)),
        )
    exact76 = lower_bound_final(ProblemDims(6, 6, 6), 16)
    return worst <= 1e-12 and exact76 == 76.0, (
        f"{samples} samples, worst relative gap {worst:.2e} (tol 1e-12); "
        f"final bound at (6,6,6,16) = {exact76} (exact 76 required)"
    )


def check_xyz_oracle(quick: bool) -> tuple[bool, str]:
    """The xyz grid search finds fmax exactly at (16,32) and comes within 1% of
    it, never above, on random grids (criterion 4)."""
    best = grid_search_xyz(16, 32, 1.0)
    exact_ok = (
        (best.x, best.y, best.z) == (16.0, 16.0, 16.0)
        and best.f == 64.0
        and best.f == optimal_xyz(16, 32).f
        and abs(best.f - fmax(16, 32)) <= 1e-12 * best.f
    )
    seed, samples, s_hi, m_hi, steps = (7, 4, 300, 600, 100) if quick else (2718, 20, 400, 800, 200)
    rng = random.Random(seed)
    worst = 0.0
    above = []
    for _ in range(samples):
        S = rng.randint(4, s_hi)
        M = rng.randint(4, m_hi)
        f = grid_search_xyz(S, M, (S + M) / steps).f
        cap = fmax(S, M)
        if not f <= cap * (1 + 1e-12):
            above.append((S, M))
        worst = max(worst, (cap - f) / cap)
    return exact_ok and not above and worst <= 0.01, (
        f"grid(16,32,1) = ({best.x:.0f},{best.y:.0f},{best.z:.0f}) f={best.f} (exact 64, "
        f"equal to analytic, fmax within 1e-12); {samples} random grids within "
        f"{worst:.3%} below analytic (tol 1%), above it at {above or 'none'} (tol 1e-12)"
    )


def check_optimal_M(quick: bool) -> tuple[bool, str]:
    """``optimal_M`` picks the grid point nearest 2S (criterion 5)."""
    s_values = (16, 64) if quick else (16, 64, 256, 1024)
    failures = []
    for S in s_values:
        low, high = S / 4, 8 * S
        grid = [low + i * (high - low) / 199 for i in range(200)]
        got = optimal_M(S, grid)
        nearest = min(grid, key=lambda M: (abs(M - 2 * S), M))
        if got != nearest:
            failures.append((S, got, nearest))
    return not failures, (
        f"S in {{{','.join(map(str, s_values))}}}: argmax over 200-point [S/4,8S] grid "
        f"equals the point nearest 2S (exact); failures: {failures or 'none'}"
    )


def check_attainment_trend(quick: bool) -> tuple[bool, str]:
    """Simulation matches the structural count at the anchor size, and alg-c's
    io / final bound falls strictly toward 4/3 over 60, 120, 240 (criterion 7)."""
    S = 16
    size = 12 if quick else 60
    anchor_dims = ProblemDims(size, size, size)
    schedule = build_schedule(Algorithm.C, anchor_dims, S)
    stats = execute(schedule, MemoryConfig(S), *seeded_matrices(anchor_dims, SEED)).stats
    predicted = predicted_io(Algorithm.C, anchor_dims, S)
    anchored = predicted.matches(stats)
    ratios = []
    for n in (60, 120, 240):
        dims = ProblemDims(n, n, n)
        ratios.append(predicted_io(Algorithm.C, dims, S).io_total / lower_bound_final(dims, S))
    return anchored and ratios[0] > ratios[1] > ratios[2] and ratios[2] <= 1.45, (
        f"simulation equals structural io at {size}^3 ({anchored}); ratios "
        f"{ratios[0]:.4f} > {ratios[1]:.4f} > {ratios[2]:.4f}, last <= 1.45"
    )


def check_tiny_optima(quick: bool) -> tuple[bool, str]:
    """The exact search proves 4 at (1,1,1) S=3 and 12 at (2,2,1) S=4 within
    60 s; each witness replays to its cost, which is at least the final bound
    and the compulsory floor and at most every runnable algorithm's
    (criterion 9).

    The compulsory floor mk + kn + 2mn counts one load of every element and
    one store of every C element. At these sizes it is the bound that
    constrains: the final bound is negative at (2,2,1) S=4.
    """
    cases = ((ProblemDims(1, 1, 1), 3, 4), (ProblemDims(2, 2, 1), 4, 12))
    t0 = time.perf_counter()
    found = [tiny_optimal_schedule(dims, S) for dims, S, _ in cases]
    elapsed = time.perf_counter() - t0
    for (dims, S, expected), result in zip(cases, found):
        where = f"({dims.m},{dims.n},{dims.k}) S={S}"
        if not result.optimal or result.min_io != expected:
            return False, (
                f"{where}: found {result.min_io} (optimal={result.optimal}), "
                f"expected {expected}"
            )
        replayed = execute(
            result.schedule, MemoryConfig(S), *seeded_matrices(dims, SEED)
        ).stats.io_total
        if replayed != result.min_io:
            return False, f"{where}: witness replays to {replayed}, not {result.min_io}"
        bound = lower_bound_final(dims, S)
        if result.min_io < bound:
            return False, f"{where}: optimum {result.min_io} is below the final bound {bound}"
        floor = compulsory_io(dims)
        if result.min_io < floor:
            return False, f"{where}: optimum {result.min_io} is below the compulsory floor {floor}"
        for alg, cost in runnable_costs(dims, S).items():
            if result.min_io > cost:
                return False, f"{where}: optimum {result.min_io} exceeds {alg.value} cost {cost}"
    floors = [compulsory_io(dims) for dims, _, _ in cases]
    return elapsed < 60.0, (
        f"(1,1,1,S=3) -> {found[0].min_io} (expect 4), (2,2,1,S=4) -> {found[1].min_io} "
        f"(expect 12); both replay exactly, >= final bound, >= compulsory floor "
        f"({floors[0]}, {floors[1]}) and <= every runnable algorithm; "
        f"search took {elapsed:.2f}s (< 60s)"
    )


CHECKS = (
    ("schedule/prediction agreement", check_agreement),
    ("divisible closed forms", check_closed_forms),
    ("bitwise agreement", check_bitwise),
    ("phase inequalities", check_phase_inequalities),
    ("phase conservation", check_phase_conservation),
    ("bound identities", check_bound_identities),
    ("xyz grid oracle agreement", check_xyz_oracle),
    ("optimal M selection", check_optimal_M),
    ("attainment trend", check_attainment_trend),
    ("tiny exact optima", check_tiny_optima),
)
