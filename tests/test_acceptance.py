"""Acceptance suite: ten numbered criteria, one test each.

Every test prints exactly one `criterion NN: PASS/FAIL (...)` line before
asserting, so a single glance at the verbose run shows the whole gate.
Tolerances are stated inline: integer counts are exact, analytic identities
allow 1e-12 relative error, grid-vs-analytic comparisons allow 1%.
Criteria 3-9 run the matching `iomma.verify` check on its full grid, the
same function `iomma verify` runs, so each invariant has one home.
"""

from iomma import (
    Algorithm,
    GotoParams,
    MemoryConfig,
    ProblemDims,
    block_size,
    build_schedule,
    execute,
    goto_report,
    l2_reads,
    l3_reads,
    seeded_matrices,
    verify,
)

SEED = 42


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _simulate(alg, dims, S):
    schedule = build_schedule(alg, dims, S)
    a, b, c = seeded_matrices(dims, SEED)
    return execute(schedule, MemoryConfig(S), a, b, c)


def test_criterion_01_alg_c_exact_counts():
    small = _simulate(Algorithm.C, ProblemDims(6, 6, 6), 16).stats
    big = _simulate(Algorithm.C, ProblemDims(60, 60, 60), 16).stats
    ok = (
        (small.reads, small.writes, small.fmas, small.peak_residency)
        == (180, 36, 216, 15)
        and (big.reads, big.writes) == (147600, 3600)
    )
    _report(
        1, ok,
        f"(6,6,6,16): r={small.reads} w={small.writes} f={small.fmas} "
        f"peak={small.peak_residency}; (60,60,60,16): r={big.reads} w={big.writes}; "
        "exact match required",
    )


def test_criterion_02_alg_a_b_exact_counts():
    dims = ProblemDims(6, 6, 6)
    stats_a = _simulate(Algorithm.A, dims, 16).stats
    stats_b = _simulate(Algorithm.B, dims, 16).stats
    mnk_over_b = 216 // block_size(16)
    ok = (
        (stats_a.reads, stats_a.writes) == (180, 72)
        and (stats_b.reads, stats_b.writes) == (180, 72)
        and stats_b.writes == mnk_over_b
        and stats_b.writes <= stats_b.reads
        and stats_a.writes <= stats_a.reads
    )
    _report(
        2, ok,
        f"A: r={stats_a.reads} w={stats_a.writes}; B: r={stats_b.reads} "
        f"w={stats_b.writes}; mnk/b={mnk_over_b}; writes<=reads both; exact",
    )


def test_criterion_03_bound_identities():
    _report(3, *verify.check_bound_identities(quick=False))


def test_criterion_04_xyz_grid_oracle():
    _report(4, *verify.check_xyz_oracle(quick=False))


def test_criterion_05_optimal_M_near_2S():
    _report(5, *verify.check_optimal_M(quick=False))


def test_criterion_06_phase_inequalities_full_grid():
    ok, detail = verify.check_phase_inequalities(quick=False)
    _report(6, ok and " 337958 phases, " in detail, detail)  # the whole grid was checked


def test_criterion_07_attainment_trend():
    _report(7, *verify.check_attainment_trend(quick=False))


def test_criterion_08_bitwise_agreement_full_grid():
    ok, detail = verify.check_bitwise(quick=False)
    _report(8, ok and " 6144 runs, " in detail, detail)  # the whole grid was run


def test_criterion_09_tiny_exact_optima():
    _report(9, *verify.check_tiny_optima(quick=False))


def test_criterion_10_goto_model():
    d96 = ProblemDims(96, 96, 96)
    params96 = GotoParams(n_c=48, k_c=12, m_c=12, n_r=4, m_r=4, S2=144, S3=576)
    l3 = l3_reads(d96, params96)
    l2 = l2_reads(d96, params96)
    l2_ratio = goto_report(d96, params96).l2_ratio

    d4096 = ProblemDims(4096, 4096, 4096)
    square = GotoParams(
        n_c=1024, k_c=1024, m_c=64, n_r=4, m_r=4, S2=65536, S3=1 << 20
    )
    l3_ratio_4096 = goto_report(d4096, square).l3_ratio

    clauses = [
        l3 == 101376.0,
        l2 == 156672.0,
        abs(l2_ratio - 1.0625) <= 1e-12,
        l3_ratio_4096 <= 1.10,
    ]
    ok = all(clauses)
    _report(
        10, ok,
        f"l3(96^3,n_c=48,k_c=12)={l3:.0f} (expect 101376, {clauses[0]}); "
        f"l2(96^3,m_c=k_c=12)={l2:.0f} (expect 156672, {clauses[1]}); "
        f"l2_ratio={l2_ratio} (expect 1.0625 +- 1e-12, {clauses[2]}); "
        f"l3_ratio(4096^3,S3=2^20,n_c=k_c=1024)={l3_ratio_4096} "
        f"(required <= 1.10, {clauses[3]}: the three read terms give "
        f"2*mnk/sqrt(S3)*(1 + sqrt(S3)/(2m)) = 1.125 at these sizes)",
    )
