"""Lower-bound formulas, the xyz payoff surface, and the exact tiny search."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iomma import (
    Algorithm,
    BoundReport,
    CapsExceededError,
    GridTooFineError,
    MemoryConfig,
    ProblemDims,
    Schedule,
    cheapest_runnable,
    compulsory_io,
    execute,
    fmax,
    grid_search_xyz,
    lower_bound_final,
    lower_bound_general,
    lower_bound_MS,
    optimal_M,
    optimal_xyz,
    phase_size_payoff,
    predicted_io,
    runnable_costs,
    seeded_matrices,
    tiny_optimal_schedule,
)
from iomma import verify
from iomma.model import MATRIX_CODE, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE

D666 = ProblemDims(6, 6, 6)


def test_fmax_frozen_values():
    assert fmax(16, 16) == pytest.approx(34.83718745291631, rel=1e-15)
    assert fmax(16, 32) == pytest.approx(64.0, rel=1e-12)


def test_fmax_scales_as_power_three_halves():
    # quadrupling S+M should multiply fmax by 8
    assert fmax(100, 100) * 8 == pytest.approx(fmax(400, 400), rel=1e-12)


def test_optimal_xyz_balanced():
    opt = optimal_xyz(10, 20)
    assert (opt.x, opt.y, opt.z) == (10.0, 10.0, 10.0)
    assert opt.f == pytest.approx(31.622776601683793, rel=1e-15)
    assert opt.f == pytest.approx(fmax(10, 20), rel=1e-12)


def test_grid_search_exact_at_16_32():
    best = grid_search_xyz(16, 32, 1.0)
    assert (best.x, best.y, best.z) == (16.0, 16.0, 16.0)
    assert best.f == 64.0


def test_grid_search_near_analytic():
    rng = random.Random(5)
    for _ in range(20):
        S = rng.randint(4, 200)
        M = rng.randint(4, 400)
        best = grid_search_xyz(S, M, (S + M) / 200)
        cap = fmax(S, M)
        assert best.f <= cap * (1 + 1e-12)
        assert cap - best.f <= 0.01 * cap
        assert best.x + best.y + best.z <= S + M + 1e-9


def test_grid_search_rejects_bad_step():
    with pytest.raises(ValueError):
        grid_search_xyz(16, 32, 0.0)
    with pytest.raises(GridTooFineError):
        grid_search_xyz(1000, 2000, 1e-4)


def test_lower_bound_frozen_values():
    assert lower_bound_final(D666, 16) == 76.0
    assert lower_bound_MS(D666, 16) == pytest.approx(83.2043345827187, rel=1e-15)
    assert lower_bound_general(D666, 16, 16) == pytest.approx(83.2043345827187, rel=1e-12)
    big = ProblemDims(1000, 1000, 1000)
    assert lower_bound_MS(big, 10_000) == pytest.approx(18361173.070873834, rel=1e-12)


def test_general_specializes_to_named_bounds():
    rng = random.Random(99)
    for _ in range(500):
        dims = ProblemDims(rng.randint(1, 80), rng.randint(1, 80), rng.randint(1, 80))
        S = rng.randint(1, 700)
        for general, named in (
            (lower_bound_general(dims, S, 2 * S), lower_bound_final(dims, S)),
            (lower_bound_general(dims, S, S), lower_bound_MS(dims, S)),
        ):
            scale = max(1.0, abs(general), abs(named))
            assert abs(general - named) <= 1e-12 * scale


def test_bounds_never_clamped():
    tiny = ProblemDims(1, 1, 1)
    assert lower_bound_final(tiny, 16) < 0


def test_final_bound_asymptote():
    # for m=n=k >> S the bound tends to 2*mnk/sqrt(S) from below
    S = 16
    size = 4096
    dims = ProblemDims(size, size, size)
    ratio = lower_bound_final(dims, S) / (2 * size**3 / math.sqrt(S))
    assert 0.99 < ratio < 1.0


def test_payoff_peaks_at_twice_capacity():
    for S in (7, 16, 250):
        peak = phase_size_payoff(S, 2 * S)
        assert peak == pytest.approx(2 / math.sqrt(S), rel=1e-12)
        assert peak > phase_size_payoff(S, 2 * S - 1)
        assert peak > phase_size_payoff(S, 2 * S + 1)
    with pytest.raises(ValueError, match="M must be positive"):
        phase_size_payoff(16, 0)


@pytest.mark.parametrize("S", [16, 64, 256, 1024])
def test_optimal_M_lands_near_2S(S):
    low, high = S / 4, 8 * S
    grid = [low + i * (high - low) / 199 for i in range(200)]
    nearest = min(grid, key=lambda M: (abs(M - 2 * S), M))
    assert optimal_M(S, grid) == nearest


def test_optimal_M_first_wins_ties():
    # symmetric points around the peak have equal payoff only at the peak
    # itself, so feed duplicates instead
    assert optimal_M(16, [32.0, 32.0, 16.0]) == 32.0
    with pytest.raises(ValueError, match="grid must not be empty"):
        optimal_M(16, [])


def test_bound_report_fields():
    report = BoundReport.compute(D666, 16, 32)
    assert report.S == 16 and report.M == 32
    assert report.f_max == pytest.approx(64.0, rel=1e-12)
    assert report.general_bound == pytest.approx(76.0, rel=1e-12)
    assert report.bound_M_eq_S == pytest.approx(83.2043345827187, rel=1e-12)
    assert report.bound_M_eq_2S == 76.0
    assert report.hong_kung_reference == 108.0  # 2*216/sqrt(16)


def test_tiny_search_known_optima():
    one = tiny_optimal_schedule(ProblemDims(1, 1, 1), 3)
    assert one.min_io == 4 and one.optimal
    flat = tiny_optimal_schedule(ProblemDims(2, 2, 1), 4)
    assert flat.min_io == 12 and flat.optimal


def test_tiny_search_witness_replays():
    for dims, S in ((ProblemDims(1, 1, 1), 3), (ProblemDims(2, 2, 1), 4),
                    (ProblemDims(2, 2, 2), 5)):
        found = tiny_optimal_schedule(dims, S)
        a, b, c = seeded_matrices(dims, 2)
        stats = execute(found.schedule, MemoryConfig(S), a, b, c).stats
        assert stats.io_total == found.min_io


def test_tiny_search_within_hand_bounds():
    # (2,2,2) at S=4: every c element costs one load and one store, every a
    # and b element at least one load, so 16 <= optimum <= blocked cost 24
    found = tiny_optimal_schedule(ProblemDims(2, 2, 2), 4)
    assert found.optimal
    assert 16 <= found.min_io <= 24
    for alg in Algorithm:
        predicted = predicted_io(alg, ProblemDims(2, 2, 2), 4)
        assert found.min_io <= predicted.io_total


def test_tiny_search_monotone_in_capacity():
    costs = [tiny_optimal_schedule(ProblemDims(2, 2, 2), S).min_io for S in (4, 5, 6)]
    assert costs[0] >= costs[1] >= costs[2]


def test_tiny_search_caps():
    with pytest.raises(CapsExceededError):
        tiny_optimal_schedule(ProblemDims(3, 3, 1), 4)  # mnk = 9
    with pytest.raises(CapsExceededError):
        tiny_optimal_schedule(ProblemDims(2, 2, 2), 7)
    with pytest.raises(ValueError):
        tiny_optimal_schedule(ProblemDims(1, 1, 1), 2)


@pytest.mark.parametrize(
    "S,budget",
    [(4.5, 100), (3.0, 100), (True, 100), (7.5, 100), (4, 0), (4, -5), (4, 2.5), (4, None)],
)
def test_tiny_search_rejects_invalid_capacity_and_budget(S, budget):
    # S=4.5 used to answer for S=5 with a witness MemoryConfig(4.5) rejects,
    # and a budget below 1 used to return the naive schedule unproven
    with pytest.raises(ValueError, match="must be a positive integer"):
        tiny_optimal_schedule(ProblemDims(2, 2, 1), S, budget)


def test_tiny_search_budget_degrades_gracefully():
    # a search cut short keeps its incumbent, a 1x2 element-streamed block
    # of A at 20, not alg-c's 24 or naive's 32; the optimum is 18
    dims = ProblemDims(2, 2, 2)
    a, b, c = seeded_matrices(dims, 2)
    for budget in (1, 50):
        found = tiny_optimal_schedule(dims, 4, budget=budget)
        assert (found.min_io, found.optimal) == (20, False)
        stats = execute(found.schedule, MemoryConfig(4), a, b, c).stats
        assert stats.io_total == found.min_io


@pytest.mark.parametrize("budget", [1, 2, 3_000_000])
def test_incumbent_at_the_floor_is_optimal_at_any_budget(budget):
    # a 2x1 element-streamed block of A meets the floor of 12 at (2,2,1)
    # S=4, so the search proves it optimal at its root, even if the budget
    # runs out there
    found = tiny_optimal_schedule(ProblemDims(2, 2, 1), 4, budget=budget)
    assert (found.min_io, found.optimal, found.nodes) == (12, True, 1)


def _set_search(dims, S, budget):
    """The exact search as it was written on sets and dicts of (row, col)
    tuples; the oracle for the bitmask search. Returns (min_io, optimal,
    nodes, witness schedule)."""
    m, n, k = dims.m, dims.n, dims.k
    A, B, C = MATRIX_CODE.values()
    triples = [(i, j, p) for i in range(m) for j in range(n) for p in range(k)]
    remaining = set(triples)
    uses_a: dict[tuple[int, int], int] = {}
    uses_b: dict[tuple[int, int], int] = {}
    uses_c: dict[tuple[int, int], int] = {}
    for i, j, p in triples:
        uses_a[(i, p)] = uses_a.get((i, p), 0) + 1
        uses_b[(p, j)] = uses_b.get((p, j), 0) + 1
        uses_c[(i, j)] = uses_c.get((i, j), 0) + 1
    needed_a = set(uses_a)
    needed_b = set(uses_b)
    needed_c = set(uses_c)

    res_a: set[tuple[int, int]] = set()
    res_b: set[tuple[int, int]] = set()
    res_c: dict[tuple[int, int], bool] = {}  # (i, j) -> dirty

    # the cheapest generated schedule that runs at S is the incumbent; it is
    # built only if nothing beats it
    best_cost, build = cheapest_runnable(dims, S)
    best_events = None
    events: list = []
    memo: dict = {}
    nodes = 0
    exhausted = False

    def remaining_floor() -> int:
        load_a = len(needed_a) - len(needed_a & res_a)
        load_b = len(needed_b) - len(needed_b & res_b)
        load_c = sum(1 for ij in needed_c if ij not in res_c)
        stores = len(needed_c) + sum(
            1 for ij, dirty in res_c.items() if dirty and ij not in needed_c
        )
        return load_a + load_b + load_c + stores

    def dfs(cost: int) -> None:
        nonlocal nodes, exhausted, best_cost, best_events
        if exhausted:
            return
        if not remaining and not any(res_c.values()):
            if cost < best_cost:
                best_cost = cost
                best_events = list(events)
            return
        # the root is examined, and counted, even at the incumbent's cost
        if events and cost + remaining_floor() >= best_cost:
            return
        key = (
            frozenset(res_a),
            frozenset(res_b),
            tuple(sorted(res_c.items())),
            frozenset(remaining),
        )
        seen = memo.get(key)
        if seen is not None and seen <= cost:
            return
        memo[key] = cost
        nodes += 1
        if nodes >= budget:
            exhausted = True
            return

        occupancy = len(res_a) + len(res_b) + len(res_c)

        # forced move: a dirty slot with no fmas left must be stored sooner or
        # later; storing now frees a slot and commutes with everything else.
        for ij in sorted(res_c):
            if res_c[ij] and ij not in needed_c:
                events.append((OP_STORE, C, ij[0], ij[1]))
                del res_c[ij]
                dfs(cost + 1)
                res_c[ij] = True
                events.pop()
                return
        # forced move: a clean resident no pending fma uses is dead weight.
        for rc in sorted(res_a):
            if rc not in needed_a:
                events.append((OP_EVICT, A, rc[0], rc[1]))
                res_a.discard(rc)
                dfs(cost)
                res_a.add(rc)
                events.pop()
                return
        for rc in sorted(res_b):
            if rc not in needed_b:
                events.append((OP_EVICT, B, rc[0], rc[1]))
                res_b.discard(rc)
                dfs(cost)
                res_b.add(rc)
                events.pop()
                return
        for ij in sorted(res_c):
            if not res_c[ij] and ij not in needed_c:
                events.append((OP_EVICT, C, ij[0], ij[1]))
                dirty = res_c.pop(ij)
                dfs(cost)
                res_c[ij] = dirty
                events.pop()
                return

        # loads of operands some pending fma still needs
        if occupancy < S:
            for rc in sorted(needed_a - res_a):
                res_a.add(rc)
                events.append((OP_LOAD, A, rc[0], rc[1]))
                dfs(cost + 1)
                events.pop()
                res_a.discard(rc)
            for rc in sorted(needed_b - res_b):
                res_b.add(rc)
                events.append((OP_LOAD, B, rc[0], rc[1]))
                dfs(cost + 1)
                events.pop()
                res_b.discard(rc)
            for ij in sorted(needed_c):
                if ij not in res_c:
                    res_c[ij] = False
                    events.append((OP_LOAD, C, ij[0], ij[1]))
                    dfs(cost + 1)
                    events.pop()
                    del res_c[ij]

        # fmas whose three inputs are resident
        for triple in sorted(remaining):
            i, j, p = triple
            if (i, p) in res_a and (p, j) in res_b and (i, j) in res_c:
                was_dirty = res_c[(i, j)]
                res_c[(i, j)] = True
                remaining.discard(triple)
                uses_a[(i, p)] -= 1
                if uses_a[(i, p)] == 0:
                    needed_a.discard((i, p))
                uses_b[(p, j)] -= 1
                if uses_b[(p, j)] == 0:
                    needed_b.discard((p, j))
                uses_c[(i, j)] -= 1
                if uses_c[(i, j)] == 0:
                    needed_c.discard((i, j))
                events.append((OP_FMA, i, j, p))
                dfs(cost)
                events.pop()
                if uses_c[(i, j)] == 0:
                    needed_c.add((i, j))
                uses_c[(i, j)] += 1
                if uses_b[(p, j)] == 0:
                    needed_b.add((p, j))
                uses_b[(p, j)] += 1
                if uses_a[(i, p)] == 0:
                    needed_a.add((i, p))
                uses_a[(i, p)] += 1
                remaining.add(triple)
                res_c[(i, j)] = was_dirty

        # stores of dirty slots with work left (partial writeback)
        for ij in sorted(res_c):
            if res_c[ij]:
                events.append((OP_STORE, C, ij[0], ij[1]))
                del res_c[ij]
                dfs(cost + 1)
                res_c[ij] = True
                events.pop()

        # evictions of still-needed clean residents: only worthwhile at full
        # occupancy, to make room
        if occupancy >= S:
            for rc in sorted(res_a):
                events.append((OP_EVICT, A, rc[0], rc[1]))
                res_a.discard(rc)
                dfs(cost)
                res_a.add(rc)
                events.pop()
            for rc in sorted(res_b):
                events.append((OP_EVICT, B, rc[0], rc[1]))
                res_b.discard(rc)
                dfs(cost)
                res_b.add(rc)
                events.pop()
            for ij in sorted(res_c):
                if not res_c[ij]:
                    events.append((OP_EVICT, C, ij[0], ij[1]))
                    del res_c[ij]
                    dfs(cost)
                    res_c[ij] = False
                    events.pop()

    floor = remaining_floor()
    dfs(0)
    witness = build() if best_events is None else Schedule(best_events, dims)
    # a schedule at the compulsory floor is optimal even if the search was cut
    return best_cost, not exhausted or best_cost == floor, nodes, witness


def _assert_matches_set_search(dims, S, budget=3_000_000):
    found = tiny_optimal_schedule(dims, S, budget)
    min_io, optimal, nodes, witness = _set_search(dims, S, budget)
    assert (found.min_io, found.optimal, found.nodes) == (min_io, optimal, nodes)
    assert np.array_equal(found.schedule.codes, witness.codes)
    stats = execute(found.schedule, MemoryConfig(S), *seeded_matrices(dims, 3)).stats
    assert stats.io_total == found.min_io


# the instances of perfbench's exact-search workload, (m, n, k, S)
EXACT_SEARCH_CASES = [
    (2, 2, 2, 5), (2, 2, 2, 6), (1, 2, 4, 4), (2, 1, 4, 4), (4, 2, 1, 5), (1, 8, 1, 4),
]
SMALL_DIMS = [
    ProblemDims(m, n, k)
    for m in range(1, 5) for n in range(1, 5) for k in range(1, 5) if m * n * k <= 4
]


# one of the two capped instances, with (2,4,1) at S=5, whose node count
# changes if clean C elements are never evicted at full occupancy
C_EVICT_CASE = (2, 3, 1, 4)


@pytest.mark.parametrize("m,n,k,S", EXACT_SEARCH_CASES + [C_EVICT_CASE])
def test_bitmask_search_matches_set_search_on_named_cases(m, n, k, S):
    _assert_matches_set_search(ProblemDims(m, n, k), S)


def test_bitmask_search_matches_set_search_up_to_mnk_4():
    for dims in SMALL_DIMS:
        for S in range(3, 7):
            _assert_matches_set_search(dims, S)


@pytest.mark.parametrize("budget", [1, 50, 500])
def test_bitmask_search_truncates_like_set_search(budget):
    # (2,2,2) at S=4 needs about 20k nodes, so each budget cuts it short
    _assert_matches_set_search(ProblemDims(2, 2, 2), 4, budget)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.sampled_from(SMALL_DIMS + [ProblemDims(2, 2, 2), ProblemDims(1, 2, 3)]),
    S=st.integers(min_value=3, max_value=6),
    budget=st.integers(min_value=1, max_value=300),
)
def test_bitmask_search_matches_set_search_under_any_budget(dims, S, budget):
    _assert_matches_set_search(dims, S, budget)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SMALL_DIMS),
    S=st.integers(min_value=3, max_value=6),
    budget=st.integers(min_value=1, max_value=300),
)
def test_truncated_search_is_never_worse_than_a_preset(dims, S, budget):
    found = tiny_optimal_schedule(dims, S, budget)
    assert found.min_io <= min(runnable_costs(dims, S).values())
    assert found.min_io <= cheapest_runnable(dims, S)[0]


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SMALL_DIMS + [ProblemDims(2, 2, 2)]),
    S=st.integers(min_value=3, max_value=6),
    budget=st.integers(min_value=1, max_value=300),
)
def test_truncated_search_claims_only_proven_optima(dims, S, budget):
    # optimal under any budget means the untruncated optimum, and an
    # incumbent at the floor is optimal under every budget
    found = tiny_optimal_schedule(dims, S, budget)
    if found.optimal:
        assert found.min_io == tiny_optimal_schedule(dims, S).min_io
    if cheapest_runnable(dims, S)[0] == compulsory_io(dims):
        assert found.optimal


def test_compulsory_io_counts_one_transfer_per_element():
    assert compulsory_io(ProblemDims(2, 2, 1)) == 12  # 2 + 2 + 2*4
    assert compulsory_io(ProblemDims(1, 8, 1)) == 25
    assert compulsory_io(ProblemDims(2, 3, 4)) == 8 + 12 + 12


def test_tiny_optima_check_enforces_compulsory_floor(monkeypatch):
    ok, detail = verify.check_tiny_optima(quick=True)
    assert ok and "compulsory floor (4, 12)" in detail
    monkeypatch.setattr(verify, "compulsory_io", lambda dims: compulsory_io(dims) + 1)
    ok, detail = verify.check_tiny_optima(quick=True)
    assert not ok
    assert detail == "(1,1,1) S=3: optimum 4 is below the compulsory floor 5"
