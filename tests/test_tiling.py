"""Schedules held as runs: the rows their chunks give against whole-array
builders, equality read chunk by chunk, and memory that stays bounded as
the trace grows."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iomma.memsim
import iomma.model
import iomma.tracefile
from iomma import (
    Algorithm,
    CapacityExceededError,
    DoubleLoadError,
    Matrix,
    MemoryConfig,
    OutOfBoundsError,
    PhaseConfig,
    ProblemDims,
    Schedule,
    SimulationError,
    StoreNonCError,
    block_size,
    build_schedule,
    dump_trace,
    execute,
    naive_schedule,
    parse_trace,
    partition_phases,
    reference_gemm,
    seeded_matrices,
)
from iomma.algorithms import blocked_schedule
from iomma.tracefile import write_trace
from iomma.model import MATRIX_CODE, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE, OPERAND_AXES, layout

# The whole-array builders the runs replaced, kept as the oracle: each event
# is an (op, kind, i, j, p) row, kind the matrix code or 3 for an fma, and
# the rows become codes at the end.
_FIELDS = np.array([(1, 2 + row, 2 + col) for row, col in OPERAND_AXES] + [(2, 3, 4)])
_AXES = dict(zip(Matrix, OPERAND_AXES))


def _loop(*loops):
    axes = [axis for axis, _ in loops]
    extents = [extent for _, extent in loops]
    ijp = np.zeros((math.prod(extents), 3), dtype=np.int64)
    ijp[:, axes] = np.indices(extents).reshape(len(loops), -1).T
    return ijp


def _rows(op, kind, ijp):
    rows = np.empty((len(ijp), 5), dtype=np.int64)
    rows[:, 0] = op
    rows[:, 1] = kind
    rows[:, 2:] = ijp
    return rows


def _repeat(rows, axis, count):
    out = np.tile(rows, (count, 1))
    out[:, 2 + axis] += np.repeat(np.arange(count), len(rows))
    return out


def _to_codes(rows, fields):
    codes = np.empty((len(rows), 4), dtype=np.int64)
    codes[:, 0] = rows[:, 0]
    codes[:, 1:] = np.take_along_axis(rows, fields, axis=1)
    return codes


def _naive_codes(dims):
    a, b, c = (MATRIX_CODE[matrix] for matrix in Matrix)
    origin = np.zeros((1, 3), dtype=np.int64)
    step = np.concatenate([
        _rows(OP_LOAD, a, origin), _rows(OP_LOAD, b, origin), _rows(OP_LOAD, c, origin),
        _rows(OP_FMA, 3, origin), _rows(OP_STORE, c, origin),
        _rows(OP_EVICT, a, origin), _rows(OP_EVICT, b, origin),
    ])
    rows = _repeat(_repeat(_repeat(step, 2, dims.k), 1, dims.n), 0, dims.m)
    return _to_codes(rows, _FIELDS[rows[:, 1]])


def _leave(matrix):
    return OP_STORE if matrix is Matrix.C else OP_EVICT


def _block_codes(resident, shape, steps, by_element):
    row_axis, col_axis = _AXES[resident]
    stream_axis = 3 - row_axis - col_axis
    extents = dict(zip((row_axis, col_axis), shape))
    streamed = [matrix for matrix in Matrix if matrix is not resident]
    piece, piece_axis = {}, {}
    for matrix in streamed:
        (axis,) = (axis for axis in _AXES[matrix] if axis != stream_axis)
        piece_axis[matrix] = axis
        piece[matrix] = _loop((axis, extents[axis]))
    if not by_element:
        step = [_rows(OP_LOAD, MATRIX_CODE[matrix], piece[matrix]) for matrix in streamed]
        step.append(_rows(OP_FMA, 3, _loop(*sorted(extents.items()))))
        if Matrix.C in piece:
            step.append(_rows(OP_STORE, MATRIX_CODE[Matrix.C], piece[Matrix.C]))
        step += [
            _rows(OP_EVICT, MATRIX_CODE[matrix], piece[matrix])
            for matrix in streamed if matrix is not Matrix.C
        ]
    else:
        held, element = sorted(streamed, key=lambda matrix: len(piece[matrix]))
        origin = np.zeros((1, 3), dtype=np.int64)
        one = np.concatenate([
            _rows(OP_LOAD, MATRIX_CODE[element], origin),
            _rows(OP_FMA, 3, piece[held]),
            _rows(_leave(element), MATRIX_CODE[element], origin),
        ])
        axis = piece_axis[element]
        step = [
            _rows(OP_LOAD, MATRIX_CODE[held], piece[held]),
            _repeat(one, axis, extents[axis]),
            _rows(_leave(held), MATRIX_CODE[held], piece[held]),
        ]
    block = _loop(*extents.items())
    rows = np.concatenate([
        _rows(OP_LOAD, MATRIX_CODE[resident], block),
        _repeat(np.concatenate(step), stream_axis, steps),
        _rows(_leave(resident), MATRIX_CODE[resident], block),
    ])
    fields = _FIELDS[rows[:, 1]]
    shifts = []
    for axis in (row_axis, col_axis):
        shift = np.zeros((len(rows), 4), dtype=np.int64)
        shift[:, 1:] = fields == 2 + axis
        shifts.append(shift)
    return _to_codes(rows, fields), *shifts


def _segments(length, b):
    return [(start, min(b, length - start)) for start in range(0, length, b)]


def _blocked_codes(resident, dims, shape, by_element=False):
    extent = (dims.m, dims.n, dims.k)
    row_axis, col_axis = _AXES[resident]
    steps = extent[3 - row_axis - col_axis]
    blocks = [
        (r0, c0, (rows, cols))
        for r0, rows in _segments(extent[row_axis], shape[0])
        for c0, cols in _segments(extent[col_axis], shape[1])
    ]
    built = {}
    for _, _, size in blocks:
        if size not in built:
            built[size] = _block_codes(resident, size, steps, by_element)
    out = np.empty((sum(len(built[size][0]) for _, _, size in blocks), 4), dtype=np.int64)
    start = 0
    for r0, c0, size in blocks:
        codes, row_shift, col_shift = built[size]
        end = start + len(codes)
        out[start:end] = codes
        out[start:end] += r0 * row_shift + c0 * col_shift
        start = end
    return out


_RESIDENT = {Algorithm.A: Matrix.A, Algorithm.B: Matrix.B, Algorithm.C: Matrix.C}


@st.composite
def _cases(draw):
    """A schedule built from runs and the oracle's codes for it: a preset at
    an S from its least to 40, or an element-streamed block of any operand."""
    dims = ProblemDims(*(draw(st.integers(1, 13)) for _ in range(3)))
    if draw(st.booleans()):
        alg = draw(st.sampled_from(list(Algorithm)))
        if alg is Algorithm.NAIVE:
            return build_schedule(alg, dims, draw(st.integers(3, 40))), _naive_codes(dims)
        S = draw(st.integers(4, 40))
        b = block_size(S)
        return build_schedule(alg, dims, S), _blocked_codes(_RESIDENT[alg], dims, (b, b))
    resident = draw(st.sampled_from(list(Matrix)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    schedule = blocked_schedule(resident, dims, shape, by_element=True)
    return schedule, _blocked_codes(resident, dims, shape, by_element=True)


def _executed(schedule, S):
    """The stats and the bytes of C that execute makes of the schedule at
    capacity S, or the error's class, index and message."""
    try:
        result = execute(schedule, MemoryConfig(S), *seeded_matrices(schedule.dims, 3))
    except SimulationError as exc:
        return type(exc), exc.index, str(exc)
    return result.stats, result.output_c.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=_cases(), chunk=st.one_of(st.integers(1, 17), st.just(4096)))
def test_runs_give_the_whole_array_builders_codes(case, chunk):
    schedule, expected = case
    literal = Schedule(expected, schedule.dims)
    size = sum(rows * cols for rows, cols, _ in layout(schedule.dims))
    peak = execute(literal, MemoryConfig(size), *seeded_matrices(schedule.dims, 1)).stats.peak_residency
    short = _executed(literal, peak - 1)
    assert short[0] is CapacityExceededError
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.model, "_CHUNK", chunk)
        chunks = [part.copy() for part in schedule.chunks()]
        assert all(len(part) == chunk for part in chunks[:-1])
        assert np.array_equal(np.concatenate(chunks), expected)
        assert len(schedule) == len(expected)
        assert np.array_equal(schedule.codes, expected)
        assert schedule == literal
        assert _executed(schedule, peak - 1) == short
    assert schedule._value_range() == (min(expected.min(), 0), max(expected.max(), 0))
    assert dump_trace(schedule) == dump_trace(literal)


def test_chunks_are_read_only_and_equality_reads_them():
    dims = ProblemDims(5, 4, 3)
    schedule = build_schedule(Algorithm.C, dims, 9)
    codes = schedule.codes
    with pytest.raises(ValueError):
        next(schedule.chunks())[0, 0] = 1
    assert len(schedule) == len(codes) and repr(schedule) == f"Schedule(<{len(codes)} events>, {dims!r})"
    assert schedule == Schedule(codes, dims) == build_schedule(Algorithm.C, dims, 9)
    changed = codes.copy()
    changed[-1, 2] += 1
    assert schedule != Schedule(changed, dims)
    assert schedule != Schedule(codes[:-1], dims)
    assert schedule != Schedule(codes, ProblemDims(5, 4, 4))
    assert len(Schedule([], dims)) == 0 and list(Schedule([], dims).chunks()) == []


@pytest.mark.parametrize("chunk", [1, 2, 5, 4096])
def test_runs_move_each_field_by_its_axis(chunk, monkeypatch):
    # a run's rows, moved by hand: an fma adds (i, j, p) to its three
    # fields, a load, store or evict its matrix's row and col axes
    template = np.array([
        [OP_LOAD, MATRIX_CODE[Matrix.A], 1, 2],
        [OP_FMA, 1, 2, 3],
        [OP_STORE, MATRIX_CODE[Matrix.C], 4, 5],
        [OP_EVICT, MATRIX_CODE[Matrix.B], 6, 7],
    ])
    moves = np.array([[0, 0, 0], [-9, 4, 2], [3, -8, -7]])
    other = np.array([[OP_FMA, 0, 0, 0]])
    expected = []
    for move in moves.tolist():
        for op, field, row, col in template.tolist():
            if op == OP_FMA:
                expected.append([op, field + move[0], row + move[1], col + move[2]])
            else:
                row_axis, col_axis = OPERAND_AXES[field]
                expected.append([op, field, row + move[row_axis], col + move[col_axis]])
    expected += [[OP_FMA, 5, 6, 0], [OP_FMA, 5, 6, 0]]
    dims = ProblemDims(1, 1, 1)
    schedule = Schedule._tiled([(template, moves), (other, np.array([[5, 6, 0]] * 2))], dims)
    monkeypatch.setattr(iomma.model, "_CHUNK", chunk)
    assert schedule.codes.tolist() == expected
    assert schedule._value_range() == (np.min(expected), np.max(expected)) == (-8, 11)
    assert dump_trace(schedule) == dump_trace(Schedule(expected, dims))


def _traced_peak(n):
    """tracemalloc's peak over building, executing and partitioning alg-c
    at n^3 with S = 64, in MB."""
    dims = ProblemDims(n, n, n)
    inputs = seeded_matrices(dims, 1)
    tracemalloc.start()
    try:
        schedule = build_schedule(Algorithm.C, dims, 64)
        execute(schedule, MemoryConfig(64), *inputs)
        partition_phases(schedule, PhaseConfig(128))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_as_the_trace_grows():
    # 48^3 is 179712 events and 96^3 1419264; a whole code array alone
    # would be 5.5 and 43.3 MB
    small, large = _traced_peak(48), _traced_peak(96)
    assert small < 3 and large < 3
    assert large < 1.5 * small


def _streamed_peaks(n, tmp_path):
    """tracemalloc's peaks over write_trace of alg-c at n^3 with S = 64,
    and over parse_trace of that file and partition_phases of what it
    reads at that S, in MB."""
    dims = ProblemDims(n, n, n)
    schedule = build_schedule(Algorithm.C, dims, 64)
    path = tmp_path / f"{n}.txt"
    peaks = []
    with open(path, "w") as handle:
        tracemalloc.start()
        try:
            write_trace(schedule, handle)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    tracemalloc.start()
    try:
        with open(path, "rb") as handle:
            partition_phases(parse_trace(handle, dims), PhaseConfig(128), MemoryConfig(64))
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def test_trace_files_are_written_and_read_in_bounded_memory(tmp_path):
    # the 96^3 file is 14.7 MB and its codes would be 43.3 MB; write_trace
    # holds a chunk's text, and the streamed read a span and a chunk
    (write_small, read_small), (write_large, read_large) = (_streamed_peaks(n, tmp_path) for n in (48, 96))
    assert write_small < 1 and write_large < 1
    assert write_large < 1.5 * write_small
    assert read_small < 3 and read_large < 3
    assert read_large < 1.5 * read_small


def test_a_piped_trace_is_read_in_its_bytes_and_the_file_bound(tmp_path):
    # a pipe is held as bytes once, then read as a file is: beside its 14.7
    # MB, the read peaks within the 3 MB that the file's read above keeps to
    dims = ProblemDims(96, 96, 96)
    data = dump_trace(build_schedule(Algorithm.C, dims, 64)).encode()
    read, write = os.pipe()

    def feed():
        with open(write, "wb") as writer:
            writer.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    tracemalloc.start()
    try:
        with open(read, "rb") as handle:
            assert not handle.seekable()
            partition_phases(parse_trace(handle, dims), PhaseConfig(128), MemoryConfig(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        writer.join()
    assert peak < len(data) + 3 * 2**20


def _parse_peak(n):
    """tracemalloc's peak over parsing the dumped alg-c trace at n^3 with
    S = 64, and the bytes of its text and of its codes."""
    dims = ProblemDims(n, n, n)
    text = dump_trace(build_schedule(Algorithm.C, dims, 64))
    tracemalloc.start()
    try:
        schedule = parse_trace(text, dims)
        return tracemalloc.get_traced_memory()[1], len(text), 32 * len(schedule)
    finally:
        tracemalloc.stop()


def test_parse_memory_is_the_codes_and_a_span_budget():
    # the texts are 1.8 and 14.7 MB: parse_trace holds their bytes, which
    # are less than their codes, and one span's temporaries at a time,
    # whatever the trace's length
    for n in (48, 96):
        peak, text, codes = _parse_peak(n)
        assert peak - codes < 32 * iomma.tracefile._READ_SPAN
        assert peak - text < 32 * iomma.tracefile._READ_SPAN


# execute translates the moves of a run's template when it can: the chunk
# replay of the same rows as one literal run is the oracle


def _runs(schedule):
    """The schedule's runs as (template, (B, 3) moves), as _tiled takes them."""
    return [(template, moves[:, :3].copy()) for template, _, moves in schedule._runs]


def _assert_tiled_as_literal(schedule, S, chunks=(1, 5, 64)):
    literal = Schedule(schedule.codes, schedule.dims)
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(iomma.model, "_CHUNK", chunk)
            expected = _executed(literal, S)
            assert _executed(schedule, S) == expected
    return expected


@st.composite
def _perturbed(draw):
    """A preset or an element-streamed block at shapes with remainders,
    sometimes with one move shifted, one template row's field shifted or
    one template row dropped, and a capacity."""
    dims = ProblemDims(*(draw(st.integers(2, 9)) for _ in range(3)))
    if draw(st.booleans()):
        schedule = build_schedule(draw(st.sampled_from(list(Algorithm))), dims, draw(st.integers(4, 40)))
    else:
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        schedule = blocked_schedule(draw(st.sampled_from(list(Matrix))), dims, shape, by_element=True)
    # mostly room for any of them, at times too little
    S = draw(st.one_of(st.just(64), st.integers(3, 40)))
    runs = _runs(schedule)
    how = draw(st.sampled_from(["none", "move", "move", "field", "drop"]))
    if how == "move":
        moves = runs[draw(st.integers(0, len(runs) - 1))][1]
        moves[draw(st.integers(0, len(moves) - 1)), draw(st.integers(0, 2))] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif how != "none":
        # every run of the chosen template takes the changed copy
        old = runs[draw(st.integers(0, len(runs) - 1))][0]
        row = draw(st.integers(0, len(old) - 1))
        if how == "field":
            # a coordinate field: an fma's i, j or p, another row's row or col
            new = old.copy()
            field = draw(st.integers(1 if new[row, 0] == OP_FMA else 2, 3))
            new[row, field] += draw(st.sampled_from([-1, 1]))
        else:
            new = np.delete(old, row, axis=0)
        runs = [(new if template is old else template, moves) for template, moves in runs]
    return Schedule._tiled(runs, dims), S


@settings(max_examples=120, deadline=None)
@given(case=_perturbed())
def test_translated_moves_match_the_literal_replay(case):
    _assert_tiled_as_literal(*case)


@pytest.mark.parametrize("case", [*Algorithm, *Matrix])
def test_presets_and_element_blocks_translate_as_literal(case):
    # a preset at S = 16, or a 2-by-3 element-streamed block, at a shape
    # with remainder blocks; then one slot short of the peak
    dims = ProblemDims(7, 5, 6)
    if isinstance(case, Algorithm):
        schedule = build_schedule(case, dims, 16)
    else:
        schedule = blocked_schedule(case, dims, (2, 3), by_element=True)
    stats, output = _assert_tiled_as_literal(schedule, 64)
    assert output == reference_gemm(*seeded_matrices(dims, 3)).tobytes()
    assert _assert_tiled_as_literal(schedule, stats.peak_residency - 1)[0] is CapacityExceededError


def _naive_step():
    """The round trip of c(0,0)'s first fma: load its operands, run it,
    store C and evict A and B."""
    return naive_schedule(ProblemDims(1, 1, 1)).codes.copy()


def _row(op, matrix, row, col):
    return np.array([[op, MATRIX_CODE[matrix], row, col]])


def test_run_entered_with_an_element_resident_is_replayed():
    # the template ends empty after the first run, but B(1,1) stays
    # resident across the second, so that run peaks at 4, not 3
    dims = ProblemDims(2, 2, 2)
    moves = np.array([(i, j, 0) for i in range(2) for j in range(2)] * 4)
    one = np.zeros((1, 3), dtype=np.int64)
    step = _naive_step()
    runs = [(step, moves), (_row(OP_LOAD, Matrix.B, 1, 1), one), (step, moves), (_row(OP_EVICT, Matrix.B, 1, 1), one)]
    stats = _assert_tiled_as_literal(Schedule._tiled(runs, dims), 4)[0]
    assert stats.peak_residency == 4 and stats.fmas == 32
    error = _assert_tiled_as_literal(Schedule._tiled(runs, dims), 3)
    first = len(step) * len(moves) + 1
    assert error == (CapacityExceededError, first + 2, f"event {first + 2}: load of C(0,0) exceeds capacity 3")
    # a resident A(0,0) is loaded again by the second run's first move
    runs[1] = (_row(OP_LOAD, Matrix.A, 0, 0), one)
    assert _assert_tiled_as_literal(Schedule._tiled(runs, dims), 4)[:2] == (DoubleLoadError, first)


def test_later_move_that_reloads_a_dirty_c_fails_at_its_index():
    # A(0,0) and B(0,0) stay loaded while a template that loads C(0,0) and
    # updates it moves twice in place: the second move reloads C while it
    # is dirty, at event 4
    dims = ProblemDims(1, 1, 1)
    one = np.zeros((1, 3), dtype=np.int64)
    load_ab = np.concatenate([_row(OP_LOAD, Matrix.A, 0, 0), _row(OP_LOAD, Matrix.B, 0, 0)])
    update = np.concatenate([_row(OP_LOAD, Matrix.C, 0, 0), [[OP_FMA, 0, 0, 0]]])
    runs = [(load_ab, one), (update, np.zeros((2, 3), dtype=np.int64)), (_naive_step()[-3:], one)]
    error = (DoubleLoadError, 4, "event 4: C(0,0) is already resident")
    assert _assert_tiled_as_literal(Schedule._tiled(runs, dims), 4) == error


def test_template_that_does_not_end_empty_is_replayed():
    # each move leaves its B(0,j) resident, so occupancy climbs by one a move
    dims = ProblemDims(1, 8, 1)
    template = _naive_step()[:-1]
    schedule = Schedule._tiled([(template, np.array([(0, j, 0) for j in range(8)]))], dims)
    assert _assert_tiled_as_literal(schedule, 10)[0].peak_residency == 3 + 7
    # the fifth move finds four B resident and fails loading its C
    error = _assert_tiled_as_literal(schedule, 6)
    assert error[:2] == (CapacityExceededError, 4 * len(template) + 2)


@pytest.mark.parametrize("axis, value, row, message", [
    (1, 3, 1, "B col 3 outside [0, 3)"),  # B(p,3), the move's first bad field
    (0, -1, 0, "A row -1 outside [0, 3)"),  # A(-1,p)
])
def test_out_of_bounds_move_fails_at_its_first_bad_row(axis, value, row, message):
    dims = ProblemDims(3, 3, 3)
    moves = np.array([(i, j, p) for i in range(3) for j in range(3) for p in range(3)])
    moves[17, axis] = value
    schedule = Schedule._tiled([(_naive_step(), moves)], dims)
    index = 17 * 7 + row
    assert _assert_tiled_as_literal(schedule, 3) == (OutOfBoundsError, index, f"event {index}: {message}")


@pytest.mark.parametrize("move, row, message", [
    ((-1, 3, 0), 0, "C row -1 outside [0, 9)"),  # C(-1,3), the block's first row
    ((7, 3, 0), 6, "C row 9 outside [0, 9)"),  # C(9,3), its first row with i = 2
])
def test_block_moved_past_an_edge_fails_at_its_first_bad_row(move, row, message):
    # alg-c's 3-by-3 block of C, moved over a 3-by-3 grid of blocks
    dims = ProblemDims(9, 9, 4)
    ((template, moves),) = _runs(build_schedule(Algorithm.C, dims, 16))
    moves[4] = move
    index = 4 * len(template) + row
    error = _assert_tiled_as_literal(Schedule._tiled([(template, moves)], dims), 16)
    assert error == (OutOfBoundsError, index, f"event {index}: {message}")


def test_template_that_stores_a_fails_where_the_literal_does():
    dims = ProblemDims(4, 4, 4)
    step = _naive_step()
    step[5] = _row(OP_STORE, Matrix.A, 0, 0)
    moves = np.array([(i, j, p) for i in range(4) for j in range(4) for p in range(4)])
    runs = _runs(build_schedule(Algorithm.C, dims, 9)) + [(step, moves)]
    schedule = Schedule._tiled(runs, dims)
    error = _assert_tiled_as_literal(schedule, 9)
    assert error[:2] == (StoreNonCError, len(schedule) - len(step) * len(moves) + 5)


def _replayed_rows(schedule, S):
    """How many rows reach the chunk replay in one execute at capacity S,
    the rest being translated, and what _executed makes of it."""
    replayed = []
    original = iomma.memsim._replay

    def counted(ops, *args):
        replayed.append(len(ops))
        return original(ops, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.memsim, "_replay", counted)
        executed = _executed(schedule, S)
    return sum(replayed), executed


def _one_move_each(schedule):
    """The rows of one move of each template."""
    return sum({id(template): len(template) for template, _, _ in schedule._runs}.values())


# every (i, j, p) of 2x2x3, p slowest: 84 rows of the step, more than the
# largest chunk the oracle tries
_STEP_MOVES = [(i, j, p) for p in range(3) for i in range(2) for j in range(2)]


def _step_runs(moves):
    """One-move runs of the naive step, one per (i, j, p) move."""
    step = _naive_step()
    return [(step, np.array([move])) for move in moves]


def test_template_first_seen_in_a_one_move_run_translates_later_ones():
    # alg-c's 3-by-1 edge block of C ends each row of blocks, a run of its own
    dims = ProblemDims(9, 10, 4)
    schedule = build_schedule(Algorithm.C, dims, 16)
    assert [len(moves) for _, _, moves in schedule._runs] == [3, 1] * 3
    stats = _assert_tiled_as_literal(schedule, 16)[0]
    assert _assert_tiled_as_literal(schedule, stats.peak_residency - 1)[0] is CapacityExceededError
    # at the default chunk neither template holds a chunk of rows, so every
    # row is replayed; every chunk size in the oracle learns both
    assert _replayed_rows(schedule, 16)[0] == len(schedule)
    for chunk in (1, 5, 64):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(iomma.model, "_CHUNK", chunk)
            assert _replayed_rows(schedule, 16) == (_one_move_each(schedule), _executed(schedule, 16))
    # so do the naive step's one-move runs
    schedule = Schedule._tiled(_step_runs([(i, j, 0) for i in range(3) for j in range(3)]), ProblemDims(3, 3, 1))
    assert _assert_tiled_as_literal(schedule, 3)[0].fmas == 9
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.model, "_CHUNK", 5)
        assert _replayed_rows(schedule, 3)[0] == len(_naive_step())


def test_one_move_run_entered_with_an_element_resident_is_replayed():
    # the step's one-move runs with a run that loads B(1,1) and one that
    # evicts it: the step's run between them finds it resident
    dims = ProblemDims(2, 2, 3)
    one = np.zeros((1, 3), dtype=np.int64)
    runs = _step_runs(_STEP_MOVES)
    runs[3:3] = [(_row(OP_LOAD, Matrix.B, 1, 1), one)]
    runs[5:5] = [(_row(OP_EVICT, Matrix.B, 1, 1), one)]
    assert _assert_tiled_as_literal(Schedule._tiled(runs, dims), 4)[0].peak_residency == 4
    first = 3 * 7 + 1  # the fourth step's first row
    error = (CapacityExceededError, first + 2, f"event {first + 2}: load of C(1,1) exceeds capacity 3")
    assert _assert_tiled_as_literal(Schedule._tiled(runs, dims), 3) == error
    # the fourth step loads B(0,1), which a resident B(0,1) makes a double load
    runs[3] = (_row(OP_LOAD, Matrix.B, 0, 1), one)
    error = (DoubleLoadError, first + 1, f"event {first + 1}: B(0,1) is already resident")
    assert _assert_tiled_as_literal(Schedule._tiled(runs, dims), 4) == error


@pytest.mark.parametrize("move, row, message", [
    ((1, 2, 0), 1, "B col 2 outside [0, 2)"),  # B(0,2), the move's first bad field
    ((-1, 0, 1), 0, "A row -1 outside [0, 2)"),  # A(-1,1)
])
def test_one_move_run_out_of_bounds_fails_at_its_first_bad_row(move, row, message):
    moves = list(_STEP_MOVES)
    moves[5] = move
    schedule = Schedule._tiled(_step_runs(moves), ProblemDims(2, 2, 3))
    index = 5 * 7 + row
    assert _assert_tiled_as_literal(schedule, 3) == (OutOfBoundsError, index, f"event {index}: {message}")


@pytest.mark.parametrize("alg, shape, S", [
    pytest.param(Algorithm.A, (36, 36, 36), 64, id="alg-a"),
    pytest.param(Algorithm.B, (36, 36, 36), 64, id="alg-b"),
    pytest.param(Algorithm.C, (36, 36, 36), 64, id="alg-c"),
    pytest.param(Algorithm.C, (35, 27, 31), 20, id="alg-c-35x27x31-S20"),
    pytest.param(Algorithm.B, (34, 24, 30), 36, id="alg-b-34x24x30-S36"),
    pytest.param(Algorithm.NAIVE, (18, 18, 18), 16, id="naive-18x18x18-S16"),
])
def test_translation_replays_one_move_per_template(alg, shape, S):
    # perfbench's schedules: only the first move of each template reaches
    # the chunk replay, the blocked ones' one-move edge runs included
    dims = ProblemDims(*shape)
    schedule = build_schedule(alg, dims, S)
    rows, (_, output) = _replayed_rows(schedule, S)
    assert output == reference_gemm(*seeded_matrices(dims, 3)).tobytes()
    assert rows == _one_move_each(schedule) < len(schedule) / 10
