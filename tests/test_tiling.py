"""Schedules held as runs: the rows their chunks give against whole-array
builders, equality read chunk by chunk, and memory that stays bounded as
the trace grows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iomma.model
from iomma import (
    Algorithm,
    Matrix,
    MemoryConfig,
    PhaseConfig,
    ProblemDims,
    Schedule,
    SimulationError,
    block_size,
    build_schedule,
    dump_trace,
    execute,
    partition_phases,
    seeded_matrices,
)
from iomma.algorithms import blocked_schedule
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


def _failure(schedule, S):
    """The class, index and message of execute's error at capacity S."""
    with pytest.raises(SimulationError) as error:
        execute(schedule, MemoryConfig(S), *seeded_matrices(schedule.dims, 1))
    return type(error.value), error.value.index, str(error.value)


@settings(max_examples=150, deadline=None)
@given(case=_cases(), chunk=st.one_of(st.integers(1, 17), st.just(4096)))
def test_runs_give_the_whole_array_builders_codes(case, chunk):
    schedule, expected = case
    literal = Schedule(expected, schedule.dims)
    size = sum(rows * cols for rows, cols, _ in layout(schedule.dims))
    peak = execute(literal, MemoryConfig(size), *seeded_matrices(schedule.dims, 1)).stats.peak_residency
    short = _failure(literal, peak - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.model, "_CHUNK", chunk)
        chunks = [part.copy() for part in schedule.chunks()]
        assert all(len(part) == chunk for part in chunks[:-1])
        assert np.array_equal(np.concatenate(chunks), expected)
        assert len(schedule) == len(expected)
        assert np.array_equal(schedule.codes, expected)
        assert schedule == literal
        assert _failure(schedule, peak - 1) == short
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
    # 24^3 is 24192 events and 48^3 179712; a whole code array alone would
    # be 0.7 and 5.5 MB
    small, large = _traced_peak(24), _traced_peak(48)
    assert small < 3 and large < 3
    assert large < 1.5 * small
