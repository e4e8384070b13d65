"""Phase partitioning, the Loomis-Whitney and capacity checks, and the
fmas-per-transfer efficiency ratio."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iomma.model
import iomma.phases
from iomma import (
    Algorithm,
    EmptyInputError,
    IncompleteWritebackError,
    Matrix,
    MemoryConfig,
    NonResidentOperandError,
    OutOfBoundsError,
    PHASE_CSV_HEADER,
    PhaseConfig,
    ProblemDims,
    Schedule,
    SimulationError,
    StoreNonResidentError,
    build_schedule,
    check_capacity,
    check_loomis_whitney,
    execute,
    naive_schedule,
    parse_trace,
    partition_phases,
    phase_efficiency,
    phases_to_csv,
    seeded_matrices,
)
from iomma.model import _CHUNK, MATRIX_CODE, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE


def _alg_c_phases(size=6, S=16, M=32):
    dims = ProblemDims(size, size, size)
    schedule = build_schedule(Algorithm.C, dims, S)
    return schedule, partition_phases(schedule, PhaseConfig(M))


def test_alg_c_6_phase_structure():
    _, reports = _alg_c_phases()
    assert len(reports) == 7
    transfers = [r.loads + r.stores for r in reports]
    assert transfers == [32, 32, 32, 32, 32, 32, 24]
    assert sum(r.fmas for r in reports) == 216
    assert reports[0].resident_at_start == 0
    for r in reports:
        assert check_loomis_whitney(r)
        assert check_capacity(r, 16, 32)
        assert r.resident_at_start <= 15  # never above the peak residency


def test_phase_counts_match_execution():
    dims = ProblemDims(5, 4, 3)
    for alg in Algorithm:
        schedule = build_schedule(alg, dims, 9)
        a, b, c = seeded_matrices(dims, 7)
        stats = execute(schedule, MemoryConfig(9), a, b, c).stats
        for M in (9, 18, 5):
            reports = partition_phases(schedule, PhaseConfig(M))
            assert sum(r.loads for r in reports) == stats.reads
            assert sum(r.stores for r in reports) == stats.writes
            assert sum(r.fmas for r in reports) == stats.fmas
            for r in reports[:-1]:
                assert r.loads + r.stores == M
            assert 1 <= reports[-1].loads + reports[-1].stores <= M


def test_footprints_count_distinct_elements():
    dims = ProblemDims(1, 1, 2)
    # two fmas on one c element: z=1 even though it is touched twice
    reports = partition_phases(naive_schedule(dims), PhaseConfig(100))
    assert len(reports) == 1
    r = reports[0]
    assert (r.x, r.y, r.z) == (2, 2, 1)
    assert r.fmas == 2
    assert check_loomis_whitney(r)


def test_trailing_compute_belongs_to_last_phase():
    # M transfers then fmas and evicts: the tail must not open a new phase
    dims = ProblemDims(1, 1, 1)
    trace = "L A 0 0\nL B 0 0\nL C 0 0\nF 0 0 0\nS C 0 0\nE A 0 0\nE B 0 0\n"
    reports = partition_phases(parse_trace(trace, dims), PhaseConfig(4))
    assert len(reports) == 1
    assert reports[0].loads == 3 and reports[0].stores == 1
    assert reports[0].fmas == 1


def test_phase_boundary_right_after_mth_transfer():
    dims = ProblemDims(1, 1, 2)
    reports = partition_phases(naive_schedule(dims), PhaseConfig(4))
    # 8 transfers total: two full phases, fma of the second iteration lands
    # in phase 1 because it follows the 4th transfer
    assert [r.loads + r.stores for r in reports] == [4, 4]
    assert [r.fmas for r in reports] == [1, 1]


def test_empty_trace_yields_no_phases():
    reports = partition_phases(Schedule([], ProblemDims(1, 1, 1)), PhaseConfig(4))
    assert reports == []


@pytest.mark.parametrize("alg", list(Algorithm), ids=lambda alg: alg.value)
@pytest.mark.parametrize("M", [1, 2, 9, 18])  # 1, 2, S and 2S
def test_resident_at_start_matches_independent_replay(alg, M):
    dims = ProblemDims(4, 3, 5)
    schedule = build_schedule(alg, dims, 9)
    reports = partition_phases(schedule, PhaseConfig(M))
    # replay occupancy by hand: +1 on load, -1 on store and evict
    occupancy = 0
    boundaries = [0]
    io_seen = 0
    for op, *_ in schedule.codes.tolist():
        if op == OP_LOAD:
            if io_seen == M:
                boundaries.append(occupancy)
                io_seen = 0
            occupancy += 1
            io_seen += 1
        elif op == OP_STORE:
            if io_seen == M:
                boundaries.append(occupancy)
                io_seen = 0
            occupancy -= 1
            io_seen += 1
        elif op == OP_EVICT:
            occupancy -= 1
    assert [r.resident_at_start for r in reports] == boundaries[: len(reports)]


def _replayed_phases(schedule, M):
    """Each phase's loads, stores, fmas, x, y, z and resident_at_start,
    replayed row by row with a set of the A, B and C elements its fmas use."""
    phases = []
    occupancy = transfers = 0
    for op, *fields in schedule.codes.tolist():
        transfer = op in (OP_LOAD, OP_STORE)
        if not phases or (transfer and transfers == M):
            phases.append(([0, 0, 0, 0], (set(), set(), set()), occupancy))
            transfers = 0
        counts, footprints, _ = phases[-1]
        counts[op] += 1
        transfers += transfer
        if op == OP_FMA:
            i, j, p = fields
            for footprint, element in zip(footprints, ((i, p), (p, j), (i, j))):
                footprint.add(element)
        else:
            occupancy += 1 if op == OP_LOAD else -1
    return [
        (counts[OP_LOAD], counts[OP_STORE], counts[OP_FMA], *map(len, footprints), start)
        for counts, footprints, start in phases
    ]


def _assert_phases_replayed(schedule, M):
    reports = partition_phases(schedule, PhaseConfig(M))
    assert [r.index for r in reports] == list(range(len(reports)))
    rows = [(r.loads, r.stores, r.fmas, r.x, r.y, r.z, r.resident_at_start) for r in reports]
    assert rows == _replayed_phases(schedule, M)


@pytest.mark.parametrize("alg", list(Algorithm), ids=lambda alg: alg.value)
@pytest.mark.parametrize("M", [1, 2, 9, 18])  # 1, 2, S and 2S
@pytest.mark.parametrize("chunk", [3, 5, 17, _CHUNK])
def test_phase_reports_match_set_replay(alg, M, chunk, monkeypatch):
    # short chunks put chunk boundaries inside phases, so the counts and
    # footprints of an open phase carry across them
    schedule = build_schedule(alg, ProblemDims(4, 3, 5), 9)
    expected = _replayed_phases(schedule, M)
    monkeypatch.setattr(iomma.model, "_CHUNK", chunk)
    reports = partition_phases(schedule, PhaseConfig(M))
    assert [r.index for r in reports] == list(range(len(reports)))
    assert [(r.loads, r.stores, r.fmas, r.x, r.y, r.z, r.resident_at_start) for r in reports] == expected


def test_invalid_traces_rejected():
    dims = ProblemDims(1, 1, 1)
    with pytest.raises(NonResidentOperandError) as exc:
        partition_phases(parse_trace("F 0 0 0\n", dims), PhaseConfig(4))
    assert exc.value.index == 0
    with pytest.raises(StoreNonResidentError) as exc:
        partition_phases(parse_trace("S C 0 0\n", dims), PhaseConfig(4))
    assert exc.value.index == 0
    with pytest.raises(IncompleteWritebackError) as exc:
        # dirty at end of trace
        partition_phases(parse_trace("L A 0 0\nL B 0 0\nL C 0 0\nF 0 0 0\n", dims), PhaseConfig(4))
    assert exc.value.index == 4
    with pytest.raises(OutOfBoundsError) as exc:
        partition_phases(parse_trace("L C 0 0\nL A 5 0\n", dims), PhaseConfig(4))
    # execute's own error, with its index and its text
    assert exc.value.index == 1
    assert str(exc.value) == "event 1: A row 5 outside [0, 1)"


def _counting_execute(monkeypatch):
    """Record every execute() call partition_phases makes."""
    calls = []
    real = iomma.phases.execute

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(iomma.phases, "execute", counted)
    return calls


def _counting_replays(monkeypatch):
    """Record the capacity of every replay partition_phases starts."""
    calls = []
    real = iomma.phases._Replay

    def counted(dims, cap, values, length):
        calls.append(cap)
        return real(dims, cap, values, length)

    monkeypatch.setattr(iomma.phases, "_Replay", counted)
    return calls


def test_executed_schedule_is_not_validated_again(monkeypatch):
    dims = ProblemDims(5, 4, 3)
    executed = build_schedule(Algorithm.C, dims, 9)
    execute(executed, MemoryConfig(9), *seeded_matrices(dims, 7))
    fresh = build_schedule(Algorithm.C, dims, 9)
    calls = _counting_execute(monkeypatch)
    for M in (9, 18):
        assert partition_phases(executed, PhaseConfig(M)) == partition_phases(fresh, PhaseConfig(M))
    # the executed schedule never, the fresh one on its first call only
    assert len(calls) == 1 and calls[0] is fresh


def test_invalid_trace_rejected_on_every_call(monkeypatch):
    dims = ProblemDims(1, 1, 1)
    trace = parse_trace("L C 0 0\nL A 5 0\n", dims)
    with pytest.raises(OutOfBoundsError):
        execute(trace, MemoryConfig(4), *seeded_matrices(dims, 1))
    calls = _counting_replays(monkeypatch)
    for M in (4, 4, 8):
        with pytest.raises(OutOfBoundsError) as exc:
            partition_phases(trace, PhaseConfig(M))
        assert exc.value.index == 1
    # one replay per call, with room for all three elements
    assert calls == [3] * 3


@st.composite
def _random_trace(draw):
    """Small dims and mostly illegal events, coordinates in [-1, dim]."""
    m, n, k = (draw(st.integers(1, 3)) for _ in range(3))

    def coord(dim):  # in range more often than not
        return draw(st.integers(-1, dim) | st.integers(0, dim - 1))

    a, b, c = (MATRIX_CODE[mat] for mat in Matrix)
    shapes = {a: (m, k), b: (k, n), c: (m, n)}
    # half the traces start by loading most elements at random, so
    # that fmas, stores and dirty evictions can get past the residency check
    warm = draw(st.booleans())
    codes = [
        (OP_LOAD, mat, row, col)
        for mat, (rows, cols) in shapes.items() if warm
        for row in range(rows) for col in range(cols) if draw(st.integers(0, 3))
    ]
    for _ in range(draw(st.sampled_from([0, 1, 2, 4, 8, 16, 24]))):
        kind = draw(st.sampled_from("LLSEFF"))
        if kind == "F":
            i, j, p = coord(m), coord(n), coord(k)
            codes.append((OP_FMA, i, j, p))
        else:
            mat = draw(st.sampled_from(list(shapes)))
            rows, cols = shapes[mat]
            op = {"L": OP_LOAD, "S": OP_STORE, "E": OP_EVICT}[kind]
            codes.append((op, mat, coord(rows), coord(cols)))
    return Schedule(codes, ProblemDims(m, n, k)), draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(_random_trace())
def test_partition_phases_rejects_what_execute_rejects(case):
    trace, M = case
    m, n, k = trace.dims.m, trace.dims.n, trace.dims.k
    a, b, c = seeded_matrices(trace.dims, 3)
    unbounded = MemoryConfig(m * k + k * n + m * n)
    try:
        stats = execute(trace, unbounded, a, b, c).stats
    except (SimulationError, OutOfBoundsError) as exc:
        with pytest.raises(SimulationError) as rejected:
            partition_phases(trace, PhaseConfig(M))
        assert type(rejected.value) is type(exc)
        assert rejected.value.index == exc.index
        return
    reports = partition_phases(trace, PhaseConfig(M))
    assert sum(r.loads for r in reports) == stats.reads
    assert sum(r.stores for r in reports) == stats.writes
    assert sum(r.fmas for r in reports) == stats.fmas
    # a legal trace's phases match the replay at 1, 2, S and 2S, where S
    # is the least capacity that runs it
    S = max(stats.peak_residency, 1)
    for phase_size in (M, 1, 2, S, 2 * S):
        _assert_phases_replayed(trace, phase_size)


def test_loomis_whitney_is_exact_integer_comparison():
    good = _report(fmas=6, x=6, y=6, z=1)
    assert check_loomis_whitney(good)
    bad = _report(fmas=7, x=6, y=6, z=1)  # 49 > 36
    assert not check_loomis_whitney(bad)


def test_capacity_check_both_inequalities():
    r = _report(fmas=1, x=10, y=10, z=10, loads=20, resident_at_start=12)
    assert check_capacity(r, S=16, M=32)  # 30 <= 48 and 30 <= 32
    assert not check_capacity(r, S=4, M=8)  # 30 > 12
    starved = _report(fmas=1, x=10, y=10, z=10, loads=5, resident_at_start=3)
    assert not check_capacity(starved, S=16, M=32)  # 30 > 8


def _report(fmas=0, x=0, y=0, z=0, loads=0, stores=0, resident_at_start=0):
    from iomma import PhaseReport

    return PhaseReport(
        index=0, loads=loads, stores=stores, fmas=fmas,
        x=x, y=y, z=z, resident_at_start=resident_at_start,
    )


def test_naive_efficiency_is_quarter():
    dims = ProblemDims(4, 5, 6)
    reports = partition_phases(naive_schedule(dims), PhaseConfig(8))
    assert phase_efficiency(reports) == 0.25


def test_blocked_efficiency_approaches_half_block():
    _, reports = _alg_c_phases(size=60, S=16, M=32)
    eff = phase_efficiency(reports)
    assert eff == 216000 / 151200  # fmas / (147600 + 3600)
    # within 5% of the b/2 = 1.5 asymptote already at m=n=k=60
    assert abs(eff - 1.5) / 1.5 < 0.05


def test_efficiency_rejects_empty():
    with pytest.raises(EmptyInputError):
        phase_efficiency([])
    with pytest.raises(EmptyInputError, match="no transfers"):
        phase_efficiency([_report(fmas=1), _report()])


def test_csv_format():
    _, reports = _alg_c_phases()
    text = phases_to_csv(reports)
    lines = text.splitlines()
    assert lines[0] == PHASE_CSV_HEADER
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1:4] == ["32", "0", "27"]
    assert first[7] == "27.0"  # sqrt(9*9*9)
    assert text.endswith("\n")
