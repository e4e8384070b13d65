"""Simulator semantics: residency, dirty accounting, the error taxonomy,
and the trace wire format."""

import importlib
import itertools
import math
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iomma
from iomma import (
    Algorithm,
    CapacityExceededError,
    DirtyEvictionError,
    DoubleLoadError,
    IncompleteWritebackError,
    Matrix,
    MemoryConfig,
    NonResidentOperandError,
    OutOfBoundsError,
    ProblemDims,
    Schedule,
    ShapeMismatchError,
    SimulationError,
    StoreNonCError,
    StoreNonResidentError,
    build_schedule,
    dump_trace,
    execute,
    naive_schedule,
    parse_trace,
    reference_gemm,
    seeded_matrices,
)
from iomma.memsim import trace_line
from iomma.model import _CHUNK, MATRICES, MATRIX_CODE, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE, layout

A = Matrix.A
B = Matrix.B
C = Matrix.C


def _run(trace, dims, S, a, b, c):
    return execute(parse_trace(trace, dims), MemoryConfig(S), a, b, c)


def _line(fields):
    """The trace line of an event's fields, as in ("L", "A", 0, 1)."""
    return " ".join(map(str, fields))


def _assert_at(exc_info, index):
    """The failure names the offending event's position, in .index and text."""
    assert exc_info.value.index == index
    assert str(exc_info.value).startswith(f"event {index}: ")


def test_naive_one_by_one():
    dims = ProblemDims(1, 1, 2)
    a = [[2.0, 3.0]]
    b = [[5.0], [7.0]]
    c = [[11.0]]
    result = _run(dump_trace(naive_schedule(dims)), dims, 3, a, b, c)
    assert result.stats.reads == 6
    assert result.stats.writes == 2
    assert result.stats.fmas == 2
    assert result.stats.peak_residency == 3
    # 11 + 2*5 + 3*7 accumulated across two store/reload round trips
    assert result.output_c[0][0] == 42.0


def test_c_accumulates_in_place():
    dims = ProblemDims(1, 1, 2)
    trace = """
        L A 0 0
        L A 0 1
        L B 0 0
        L B 1 0
        L C 0 0
        F 0 0 0
        F 0 0 1
        S C 0 0
        E A 0 0
        E A 0 1
        E B 0 0
        E B 1 0
    """
    result = _run(trace, dims, 5, [[2.0, 3.0]], [[5.0], [7.0]], [[11.0]])
    assert result.stats.reads == 5
    assert result.stats.writes == 1
    assert result.output_c[0][0] == 42.0


def test_double_load_rejected():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(DoubleLoadError) as exc:
        _run("L A 0 0\nL A 0 0\n", dims, 4, a, b, c)
    _assert_at(exc, 1)


def test_capacity_enforced():
    dims = ProblemDims(2, 2, 2)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(CapacityExceededError) as exc:
        _run("L A 0 0\nL A 0 1\nL A 1 0\n", dims, 2, a, b, c)
    _assert_at(exc, 2)
    assert str(exc.value) == "event 2: load of A(1,0) exceeds capacity 2"


def test_fma_requires_all_three_operands():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(NonResidentOperandError) as exc:
        _run("L A 0 0\nL B 0 0\nF 0 0 0\n", dims, 4, a, b, c)
    _assert_at(exc, 2)


def test_store_only_c_and_only_resident():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(StoreNonCError) as exc:
        _run("L A 0 0\nS A 0 0\n", dims, 4, a, b, c)
    _assert_at(exc, 1)
    with pytest.raises(StoreNonResidentError) as exc:
        _run("S C 0 0\n", dims, 4, a, b, c)
    _assert_at(exc, 0)
    # the read-only check comes before the bounds check
    with pytest.raises(StoreNonCError):
        _run("S A 9 9\n", dims, 4, a, b, c)


def test_store_frees_slot():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    trace = """
        L C 0 0
        S C 0 0
        # slot freed, so S=1 admits the next load; a second store must fail
        L C 0 0
        S C 0 0
        S C 0 0
    """
    with pytest.raises(StoreNonResidentError) as exc:
        _run(trace, dims, 1, a, b, c)
    _assert_at(exc, 4)


def test_dirty_eviction_rejected():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(DirtyEvictionError) as exc:
        _run("L A 0 0\nL B 0 0\nL C 0 0\nF 0 0 0\nE C 0 0\n", dims, 4, a, b, c)
    _assert_at(exc, 4)


def test_clean_c_evictable():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    result = _run("L C 0 0\nE C 0 0\n", dims, 1, a, b, c)
    assert result.stats.reads == 1 and result.stats.writes == 0


def test_evict_requires_resident():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(NonResidentOperandError) as exc:
        _run("E B 0 0\n", dims, 4, a, b, c)
    _assert_at(exc, 0)


def test_incomplete_writeback_detected():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(IncompleteWritebackError) as exc:
        _run("L A 0 0\nL B 0 0\nL C 0 0\nF 0 0 0\n", dims, 4, a, b, c)
    # found after the last event, so the index is the schedule length
    _assert_at(exc, 4)
    assert str(exc.value) == "event 4: dirty C(0,0) still resident at end of schedule"


def test_out_of_bounds_event_rejected():
    dims = ProblemDims(2, 2, 2)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(OutOfBoundsError) as exc:
        _run("L A 2 0\n", dims, 4, a, b, c)
    _assert_at(exc, 0)
    assert str(exc.value) == "event 0: A row 2 outside [0, 2)"


def test_out_of_bounds_is_a_simulation_error():
    # one family for every broken rule, and still a bad value to ValueError
    schedule = Schedule([[OP_LOAD, MATRIX_CODE[A], 5, 0]], ProblemDims(1, 1, 1))
    with pytest.raises(SimulationError) as exc:
        execute(schedule, MemoryConfig(3), *seeded_matrices(schedule.dims, 1))
    assert isinstance(exc.value, OutOfBoundsError) and isinstance(exc.value, ValueError)
    _assert_at(exc, 0)
    assert str(exc.value) == "event 0: A row 5 outside [0, 1)"


@pytest.mark.parametrize(
    "event,coordinate",
    [
        (("S", "C", 2, 0), "row"),
        (("S", "C", 0, -1), "col"),
        (("E", "A", -1, 0), "row"),
        (("E", "B", 0, 3), "col"),
        (("E", "C", 0, 3), "col"),
    ],
)
def test_store_and_evict_bounds_checked(event, coordinate):
    dims = ProblemDims(2, 3, 4)  # A is 2x4, B 4x3, C 2x3
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(OutOfBoundsError) as exc:
        _run(f"L C 0 0\n{_line(event)}\n", dims, 4, a, b, c)
    assert exc.value.coordinate == coordinate
    _assert_at(exc, 1)


@pytest.mark.parametrize(
    "index,event,error",
    [
        (5000, ("E", "A", 0, 0), NonResidentOperandError),
        (6000, ("L", "A", 0, 1000), OutOfBoundsError),
        (6999, ("S", "B", 0, 0), StoreNonCError),
    ],
)
def test_failure_found_past_the_first_chunk(index, event, error):
    # 7000 events: execute works through them a few thousand at a time
    dims = ProblemDims(1, 1, 1000)
    a, b, c = seeded_matrices(dims, 1)
    lines = dump_trace(naive_schedule(dims)).splitlines()
    result = _run("\n".join(lines), dims, 3, a, b, c)
    assert (result.stats.reads, result.stats.peak_residency) == (3000, 3)
    lines.insert(index, _line(event))
    with pytest.raises(error) as exc:
        _run("\n".join(lines), dims, 3, a, b, c)
    _assert_at(exc, index)


def test_shape_mismatch_rejected():
    dims = ProblemDims(2, 3, 4)
    a, b, c = seeded_matrices(dims, 1)
    wrong = np.zeros((3, 3))
    with pytest.raises(ShapeMismatchError):
        _run("", dims, 4, wrong, b, c)
    with pytest.raises(ShapeMismatchError):
        _run("", dims, 4, a, b, np.zeros((2, 4)))


def test_untouched_c_passes_through():
    dims = ProblemDims(2, 2, 1)
    a, b, c = seeded_matrices(dims, 9)
    result = _run("", dims, 4, a, b, c)
    assert np.array_equal(result.output_c, np.asarray(c, dtype=float))


def test_reference_gemm_small():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[5.0, 6.0], [7.0, 8.0]]
    c = [[1.0, 0.0], [0.0, 1.0]]
    out = reference_gemm(a, b, c)
    assert out.tolist() == [[20.0, 22.0], [43.0, 51.0]]


def _loop_gemm(a, b, c_in):
    """The triple loop over Python floats, p innermost and ascending: the
    oracle for reference_gemm."""
    a_rows = np.asarray(a, dtype=float).tolist()
    b_rows = np.asarray(b, dtype=float).tolist()
    out = np.asarray(c_in, dtype=float).tolist()
    for a_row, out_row in zip(a_rows, out):
        for j in range(len(out_row)):
            acc = out_row[j]
            for p, a_ip in enumerate(a_row):
                acc += a_ip * b_rows[p][j]
            out_row[j] = acc
    return np.array(out, dtype=float).reshape(np.shape(c_in))


def _loop_replay(ops, xs, ys, zs, values, state, occupancy, peak, cap, keys=None):
    """The per-event loop execute once ran: one Python step per event, on
    Python floats and a bytearray of states. The oracle for _replay, with
    its signature; ``keys`` is unused."""
    fast, flags = values.tolist(), bytearray(state.tobytes())
    done = 0
    for op, x, y, z in zip(ops.tolist(), xs.tolist(), ys.tolist(), zs.tolist()):
        if op == OP_FMA:
            if not (flags[x] and flags[y] and flags[z]):
                break
            fast[z] += fast[x] * fast[y]
            flags[z] = 2
        elif op == OP_LOAD:
            if flags[x] or occupancy >= cap:
                break
            flags[x] = 1
            occupancy += 1
            peak = max(peak, occupancy)
        elif op == OP_STORE:
            if not flags[x]:
                break
            flags[x] = 0
            occupancy -= 1
        else:
            if flags[x] != 1:
                break
            flags[x] = 0
            occupancy -= 1
        done += 1
    values[:] = fast
    state[:] = np.frombuffer(bytes(flags), dtype=np.int8)
    return done, occupancy, peak


def _assert_same_bits(got, expected):
    """Equal bit for bit, -0.0 included, except that any NaN matches any NaN.
    IEEE 754 leaves open which NaN an operation on two NaNs returns: numpy's
    vector and scalar loops, and CPython's generic and specialized float
    additions, return different ones."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def _outcome(codes, dims, S, inputs, **patches):
    """What execute makes of the codes with memsim's names patched: the
    stats and the bytes of C, or the error's class, index and message.
    Warnings are errors."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, value in patches.items():
            patch.setattr(iomma.memsim, name, value)
        try:
            result = execute(Schedule(codes, dims), MemoryConfig(S), *inputs)
        except SimulationError as exc:
            return type(exc), exc.index, str(exc)
    return result.stats, result.output_c.tobytes()


# one NaN input; inf * 0 and inf - inf make the other, so the two meet in C
_ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.5, 0.1, 3.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]
)
_ARBITRARY_ROW = st.tuples(
    st.integers(0, 3), st.integers(-1, 3), st.integers(-1, 3), st.integers(-1, 3)
).map(lambda row: row if row[0] == OP_FMA else (row[0], row[1] % 3, *row[2:]))


@st.composite
def _replay_cases(draw):
    """A problem, a capacity, inputs with non-finite entries, and code rows:
    arbitrary events alone, or a stream of legal events that is sometimes
    written back in full and sometimes has one more event inserted."""
    m, n, k = (draw(st.integers(1, 3)) for _ in range(3))
    dims = ProblemDims(m, n, k)
    S = draw(st.integers(1, 6))
    inputs = tuple(
        np.array(draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        for rows, cols, _ in layout(dims)
    )
    if draw(st.integers(0, 3)) == 0:
        return dims, S, inputs, draw(st.lists(_ARBITRARY_ROW, max_size=8))
    elements = [
        (code, row, col)
        for code, (rows, cols, _) in enumerate(layout(dims))
        for row in range(rows)
        for col in range(cols)
    ]
    all_fmas = list(itertools.product(range(m), range(n), range(k)))
    state, rows = {}, []

    def operands(i, j, p):
        return [(0, i, p), (1, p, j), (2, i, j)]

    def apply(move):
        op, *field = move
        if op == OP_FMA:
            state[(2, field[0], field[1])] = 2
        elif op == OP_LOAD:
            state[tuple(field)] = 1
        else:
            del state[tuple(field)]
        rows.append(move)

    for _ in range(draw(st.integers(0, 30))):
        if S >= 3 and draw(st.booleans()):
            # an fma, after loading its missing operands into room made by
            # writing back or evicting others
            i, j, p = draw(st.sampled_from(all_fmas))
            needed = operands(i, j, p)
            for element in needed:
                while element not in state and len(state) >= S:
                    victim = draw(st.sampled_from([other for other in state if other not in needed]))
                    clean_c = victim[0] == MATRIX_CODE[C] and state[victim] == 1
                    write_back = state[victim] == 2 or (clean_c and draw(st.booleans()))
                    apply((OP_STORE if write_back else OP_EVICT, *victim))
                if element not in state:
                    apply((OP_LOAD, *element))
            apply((OP_FMA, i, j, p))
            continue
        # any legal event
        fmas = [(OP_FMA, *ijp) for ijp in all_fmas if set(operands(*ijp)) <= state.keys()]
        stores = [(OP_STORE, *element) for element in state if element[0] == MATRIX_CODE[C]]
        evicts = [(OP_EVICT, *element) for element, flag in state.items() if flag == 1]
        loads = [(OP_LOAD, *element) for element in elements if element not in state] if len(state) < S else []
        kinds = [moves for moves in (fmas, stores, evicts, loads) if moves]
        if kinds:
            apply(draw(st.sampled_from(draw(st.sampled_from(kinds)))))
    dirty = [element for element, flag in state.items() if flag == 2]
    if draw(st.booleans()):
        rows += [(OP_STORE, *element) for element in dirty]
    if draw(st.booleans()):
        # most often an event inside the problem, which the state may forbid
        in_bounds = [(op, *element) for op in (OP_LOAD, OP_STORE, OP_EVICT) for element in elements]
        in_bounds += [(OP_FMA, *ijp) for ijp in itertools.product(range(m), range(n), range(k))]
        events = [st.sampled_from(in_bounds), _ARBITRARY_ROW]
        events += [st.sampled_from([(OP_EVICT, *element) for element in dirty])] if dirty else []
        rows.insert(draw(st.integers(0, len(rows))), draw(st.one_of(events)))
    return dims, S, inputs, rows


@settings(max_examples=400, deadline=None)
@given(case=_replay_cases(), chunk=st.integers(3, 17))
def test_replay_matches_event_loop(case, chunk):
    # the loop sees the schedule as one chunk, the numpy step as many, so
    # states, occupancy and failures cross chunk boundaries
    dims, S, inputs, rows = case
    codes = np.array(rows, dtype=np.int64).reshape(-1, 4)
    expected = _outcome(codes, dims, S, inputs, _replay=_loop_replay)
    got = _outcome(codes, dims, S, inputs, _CHUNK=chunk)
    if isinstance(expected[0], type):  # an error's class, index and message
        assert got == expected
    else:
        assert got[0] == expected[0]
        _assert_same_bits(np.frombuffer(got[1]), np.frombuffer(expected[1]))


@pytest.mark.parametrize("alg", list(Algorithm))
def test_replay_matches_event_loop_on_generated_schedules(alg):
    dims = ProblemDims(7, 5, 6)
    codes = build_schedule(alg, dims, 16).codes
    inputs = seeded_matrices(dims, 4)
    expected = _outcome(codes, dims, 16, inputs, _replay=_loop_replay)
    assert expected[1] == reference_gemm(*inputs).tobytes()
    for chunk in (5, 64, 4096):
        assert _outcome(codes, dims, 16, inputs, _CHUNK=chunk) == expected
    # a capacity one short of the peak fails at the same load on both paths
    short = expected[0].peak_residency - 1
    expected = _outcome(codes, dims, short, inputs, _replay=_loop_replay)
    assert expected[0] is CapacityExceededError
    assert _outcome(codes, dims, short, inputs, _CHUNK=64) == expected


def test_replay_sorts_wide_element_ids():
    # past 2**18 elements, ids and 14 position bits overflow 32-bit sort keys
    dims = ProblemDims(300, 300, 300)
    assert iomma.memsim._TouchKeys(3 * 300 * 300, iomma.model._CHUNK).dtype == np.uint64
    a_code, b_code, c_code = (MATRIX_CODE[mat] for mat in (A, B, C))
    rows = [(OP_LOAD, c_code, 299, 299), (OP_LOAD, a_code, 299, 7), (OP_LOAD, b_code, 7, 299)]
    rows += [(OP_FMA, 299, 299, 7)] * 3 + [(OP_EVICT, a_code, 299, 7), (OP_STORE, c_code, 299, 299)]
    rows += [(OP_EVICT, b_code, 7, 299), (OP_EVICT, b_code, 7, 299)]
    inputs = seeded_matrices(dims, 5)
    codes = np.array(rows, dtype=np.int64)
    expected = _outcome(codes, dims, 3, inputs, _replay=_loop_replay)
    assert expected[0] is NonResidentOperandError and expected[1] == len(rows) - 1
    assert _outcome(codes, dims, 3, inputs, _CHUNK=4) == expected
    assert _outcome(codes[:-1], dims, 3, inputs) == _outcome(codes[:-1], dims, 3, inputs, _replay=_loop_replay)


@pytest.mark.parametrize(
    "a,b,c",
    [
        ([[1e308, 1.0]], [[10.0], [1.0]], [[0.0]]),  # overflow to inf
        ([[math.inf, 1.0]], [[0.0], [1.0]], [[0.0]]),  # inf * 0 is nan
        ([[-math.inf, 1.0]], [[2.0], [math.inf]], [[0.0]]),  # -inf + inf is nan
        ([[math.nan, 2.0]], [[1.0], [3.0]], [[1.0]]),  # nan propagates
        ([[0.0, -0.0]], [[-1.0], [1.0]], [[-0.0]]),  # -0.0 + -0.0 keeps its sign
        ([[-1e308, -1e308], [1.0, 2.0]], [[10.0, 0.5], [1.0, 0.0]], [[1.0, -0.0], [math.inf, 2.0]]),
    ],
)
def test_non_finite_inputs_match_the_loops_silently(a, b, c):
    dims = ProblemDims(len(a), len(b[0]), len(b))
    codes = naive_schedule(dims).codes
    expected = _outcome(codes, dims, 3, (a, b, c), _replay=_loop_replay)
    assert expected == _outcome(codes, dims, 3, (a, b, c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reference_gemm(a, b, c).tobytes() == _loop_gemm(a, b, c).tobytes() == expected[1]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 4), k=st.integers(0, 4))
def test_reference_gemm_matches_triple_loop(data, m, n, k):
    entries = st.one_of(_ENTRIES, st.floats(width=64))

    def matrix(rows, cols):
        values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return np.array(values, dtype=float).reshape(rows, cols)

    a, b, c = matrix(m, k), matrix(k, n), matrix(m, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_bits(reference_gemm(a, b, c), _loop_gemm(a, b, c))


def test_trace_round_trip():
    dims = ProblemDims(2, 3, 2)
    schedule = naive_schedule(dims)
    text = dump_trace(schedule)
    assert text.endswith("\n")
    first = text.splitlines()[0].split()
    assert first[0] in {"L", "S", "E", "F"}
    parsed = parse_trace(text, dims)
    assert parsed == schedule
    assert dump_trace(parsed) == text
    # text dump_trace could not have written reads the same, line by line
    spaced = "# header\n" + text.replace(" ", "  ").replace("\n", " # note\n")
    assert parse_trace(spaced, dims) == schedule


def _formatted_lines(codes):
    """The trace text of code rows, one %-formatted line per row."""
    lines = []
    for op, field, row, col in codes.tolist():
        if op == OP_FMA:
            lines.append("F %d %d %d\n" % (field, row, col))
        else:
            lines.append("%s %s %d %d\n" % ("LSE"[op], MATRICES[field].value, row, col))
    return "".join(lines)


def _assert_dumped_as_formatted(codes):
    """dump_trace writes each row as the %-format does, and where every
    coordinate fits the grammar's 18 digits, parse_trace reads it back."""
    dims = ProblemDims(1, 1, 1)
    schedule = Schedule(codes, dims)
    text = dump_trace(schedule)
    assert text == _formatted_lines(codes)
    if all(-10**18 < value < 10**18 for value in codes.ravel().tolist()):
        assert parse_trace(text, dims) == schedule


# one kind of coordinate per trace: dense near zero, dense far from it,
# spread over int64, or its extremes
_COORDINATES = st.sampled_from([
    st.integers(-3, 40),
    st.integers(10**17 - 3, 10**17 + 3),
    st.integers(-2**63, 2**63 - 1),
    st.sampled_from([2**63 - 1, -(2**63 - 1), -2**63, -1, 0, 5]),
])


@st.composite
def _dump_codes(draw):
    coordinate = draw(_COORDINATES)
    row = st.tuples(st.integers(0, 3), st.integers(0, 2), coordinate, coordinate, coordinate)
    rows = draw(st.lists(row, max_size=40))
    codes = [(op, i if op == OP_FMA else matrix, row, col) for op, matrix, i, row, col in rows]
    return np.array(codes, dtype=np.int64).reshape(-1, 4)


@settings(max_examples=300, deadline=None)
@given(codes=_dump_codes(), chunk=st.integers(1, 9))
def test_dump_trace_matches_per_row_format(codes, chunk):
    # short chunks, so that traces cross chunk boundaries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.memsim, "_CHUNK", chunk)
        _assert_dumped_as_formatted(codes)


@pytest.mark.parametrize("events", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@pytest.mark.parametrize("low,high", [(-3, 30), (-2**40, 2**40), (-2**63, 2**63 - 1)])
def test_dump_trace_matches_per_row_format_across_chunks(events, low, high):
    rng = np.random.default_rng(events)
    ops = rng.integers(0, 4, events)
    fields = rng.integers(low, high, (events, 3), endpoint=True)
    matrices = rng.integers(0, 3, events)
    codes = np.column_stack([ops, np.where(ops == OP_FMA, fields[:, 0], matrices), fields[:, 1:]])
    _assert_dumped_as_formatted(codes)


def test_long_trace_round_trip_across_match_spans():
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = dump_trace(schedule)
    assert len(text) > 2 * iomma.memsim._SPAN
    assert parse_trace(text, dims) == schedule
    # a comment in the last span, after an event
    commented = text[:-1] + " # last\n"
    assert parse_trace(commented, dims) == schedule


class _SpanCounter:
    """Stands in for the trace grammar's regex and counts the characters of
    every span handed to it, and the longest span."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.chars = self.longest = 0

    def match(self, text, start, end):
        self.chars += end - start
        self.longest = max(self.longest, end - start)
        return self.pattern.match(text, start, end)


def _forbid_line_reader(monkeypatch):
    """Accepted traces never reach the per-line code, which only explains
    rejections or names the line of an event."""
    monkeypatch.setattr(iomma.memsim, "_rejection", None)
    monkeypatch.setattr(iomma.memsim, "_event_lines", None)


def _assert_matched_once(monkeypatch, text, dims, schedule):
    assert len(text) > 2 * iomma.memsim._SPAN
    counter = _SpanCounter(iomma.memsim._LINES)
    monkeypatch.setattr(iomma.memsim, "_LINES", counter)
    _forbid_line_reader(monkeypatch)
    assert parse_trace(text, dims) == schedule
    assert counter.chars == len(text)
    # spans end at the first line break of any kind past _SPAN characters,
    # so the regex engine's memory stays bounded
    assert counter.longest < 2 * iomma.memsim._SPAN


@pytest.mark.parametrize("tail", ["", "# end\n", "\n  # iomma 20 20 20 16\n"])
def test_canonical_lines_are_matched_once(monkeypatch, tail):
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    _assert_matched_once(monkeypatch, dump_trace(schedule) + tail, dims, schedule)


@pytest.mark.parametrize("newline", ["\r", "\r\n", " # note\n", "\t#\r\n"])
def test_other_line_ends_are_matched_once(monkeypatch, newline):
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = dump_trace(schedule).replace("\n", newline)
    _assert_matched_once(monkeypatch, text, dims, schedule)


def test_whole_line_comments_keep_the_fast_path(monkeypatch):
    dims = ProblemDims(6, 6, 6)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = dump_trace(schedule)
    lines = text.splitlines(keepends=True)
    headed = "# iomma 6 6 6 16\n" + "".join(lines[:5]) + "\n  \t\n\t# mid\n" + "".join(lines[5:]) + "# end\n"
    _forbid_line_reader(monkeypatch)
    assert parse_trace(headed, dims) == parse_trace(text, dims) == schedule


@pytest.mark.parametrize("tail", ["", "# end", "  # end", "\n# end"])
def test_missing_final_newline_keeps_the_fast_path(monkeypatch, tail):
    dims = ProblemDims(3, 3, 3)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = dump_trace(schedule)
    unterminated = text[:-1] if not tail else text + tail
    _forbid_line_reader(monkeypatch)
    assert parse_trace(unterminated, dims) == schedule


@pytest.mark.parametrize("text", ["", "\n", "# only\n", " \t\r\n"])
def test_trace_without_events_is_empty(text):
    parsed = parse_trace(text, ProblemDims(1, 1, 1))
    assert parsed.codes.shape == (0, 4) and parsed.codes.dtype == np.int64


def test_skipped_lines_keep_their_numbers_in_errors():
    dims = ProblemDims(1, 1, 1)
    with pytest.raises(ValueError, match="^trace line 4: unknown event letter 'X'"):
        parse_trace("# iomma 1 1 1 3\n\nL A 0 0\nX Q 0 0\n", dims)
    with pytest.raises(ValueError, match="^trace line 2: unknown event letter 'X'"):
        parse_trace("L A 0 0\nX Q 0 0", dims)  # no final newline
    with pytest.raises(ValueError, match="^trace line 3: expected 'F i j p'"):
        parse_trace("L A 0 0\r\n\rF 0 0\r\n", dims)  # CRLF is one break, CR another
    text = "# head\nL A 0 0\n# gap\nL B 0 0\nL C 0 0\nF 0 0 0\n"
    assert [trace_line(text, index) for index in range(4)] == [2, 4, 5, 6]
    for index in (4, 6, -1):
        with pytest.raises(IndexError, match=f"no event {index}$"):
            trace_line(text, index)


def test_comment_ends_at_every_line_break():
    # str.splitlines() ends a line at each of these, so the event after it counts
    for brk in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        text = f"# note{brk}L A 0 0{brk}F 0 0 0 # c{brk}"
        parsed = parse_trace(text, ProblemDims(1, 1, 1))
        assert parsed.codes.tolist() == [[OP_LOAD, MATRIX_CODE[A], 0, 0], [OP_FMA, 0, 0, 0]], repr(brk)
        assert trace_line(text, 1) == 3


def test_regexes_compile_before_python_3_11():
    # atomic groups and possessive quantifiers arrived in 3.11's re
    modules = [
        importlib.import_module(f"iomma.{info.name}") for info in pkgutil.iter_modules(iomma.__path__)
    ]
    patterns = [
        value.pattern
        for module in modules
        for value in vars(module).values()
        if isinstance(value, re.Pattern)
    ]
    assert patterns
    for pattern in patterns:
        assert "(?>" not in pattern
        assert not re.search(r"[*+?}]\+", pattern), pattern


def test_parse_trace_rejects_coordinates_beyond_64_bits():
    with pytest.raises(ValueError, match="trace line 2: coordinate 99999999999999999999"):
        parse_trace("L A 0 0\nL A 99999999999999999999 0\n", ProblemDims(1, 1, 1))


def test_codes_must_name_known_events():
    dims = ProblemDims(1, 1, 1)
    with pytest.raises(ValueError, match="opcode"):
        Schedule([[4, 0, 0, 0]], dims)
    with pytest.raises(ValueError, match="matrix"):
        Schedule([[0, 3, 0, 0]], dims)
    with pytest.raises(ValueError, match="shape"):
        Schedule([0, 0, 0, 0], dims)
    assert len(Schedule([[3, 5, 5, 5]], dims).codes) == 1  # fma fields are free
    # an empty sequence is zero events, as an empty trace is
    for empty in ([], (), np.array([])):
        codes = Schedule(empty, dims).codes
        assert codes.dtype == np.int64 and np.array_equal(codes, parse_trace("", dims).codes)
    # codes are integers as given: nothing is truncated, rounded, parsed or
    # wrapped into int64
    for codes, dtype in (
        ([[0, 0, 0.7, 0]], "float64"),
        ([[0, 0, 1.9, 0]], "float64"),
        (np.zeros((1, 4)), "float64"),
        (np.zeros((0, 4)), "float64"),
        ([["0", "0", "1", "0"]], "<U1"),
        (np.zeros((1, 4), dtype=bool), "bool"),
        # np.asarray would read a bool among ints as an int
        ([[3, True, 0, 0]], "bool"),
        (((0, 0, 0, 0), (3, 0, 0, False)), "bool"),
        ([[0, 0, np.False_, 0]], "bool"),
        ([np.array([3, 1, 0, 0]), np.array([True, False, False, False])], "bool"),
        ([[3, 2**63, 0, 0]], "float64"),
        ([[3, 2**70, 0, 0]], "object"),
        (np.zeros((1, 4), dtype=np.uint64), "uint64"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"dtype {dtype}")):
            Schedule(codes, dims)
    unsigned = np.array([[0, 1, 0, 0]], dtype=np.uint8)
    assert Schedule(unsigned, dims).codes.tolist() == [[0, 1, 0, 0]]
    extremes = Schedule([[3, 2**63 - 1, -2**63, 0]], dims)
    assert extremes.codes.tolist() == [[3, 2**63 - 1, -2**63, 0]]


def test_schedule_cannot_change_after_construction():
    dims = ProblemDims(1, 1, 1)
    big = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0]], dtype=np.int64)
    schedule = Schedule(big[:2], dims)
    big[0, 2] = 5  # the caller's array stays writeable and apart
    assert big.flags.writeable
    assert schedule.codes.tolist() == [[0, 0, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(ValueError):
        schedule.codes[0, 2] = 5
    for name, value in (("codes", big), ("dims", ProblemDims(2, 2, 2)), ("_legal", True)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(schedule, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        del schedule.dims
    assert schedule.dims == dims and not schedule._legal
    # events is another name for the codes, so len counts the events
    assert schedule.events is schedule.codes and len(schedule.events) == 2


def test_parse_trace_accepts_readme_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Wire formats", 1)[1]
    block = section.split("```\n", 2)[1]
    assert "# load a(0,3)" in block
    parsed = parse_trace(block + "\n# a comment-only line\n", ProblemDims(2, 3, 4))
    a, b, c = (MATRIX_CODE[mat] for mat in (A, B, C))
    assert parsed.codes.tolist() == [
        [OP_LOAD, a, 0, 3],
        [OP_STORE, c, 1, 2],
        [OP_EVICT, b, 3, 1],
        [OP_FMA, 0, 2, 1],
    ]
    assert dump_trace(parsed) == "L A 0 3\nS C 1 2\nE B 3 1\nF 0 2 1\n"


def test_parse_trace_rejects_garbage():
    dims = ProblemDims(1, 1, 1)
    with pytest.raises(ValueError, match="line 2"):
        parse_trace("L A 0 0\nX Q 0 0\n", dims)
    with pytest.raises(ValueError):
        parse_trace("L A 0\n", dims)
    with pytest.raises(ValueError):
        parse_trace("F 0 0\n", dims)


def _line_reader_codes(text):
    """The line reader that parse_trace once fell back to for any text outside
    dump_trace's form: str.splitlines(), a '#' comment, str.split() and
    int(). The oracle for the trace grammar."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        try:
            rows.append(_line_reader_row(parts))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _line_reader_row(parts):
    def coordinate(token):
        value = int(token)
        if not -(1 << 63) <= value < 1 << 63:
            raise ValueError(f"coordinate {value} does not fit in 64 bits")
        return value

    kind = parts[0]
    if kind == "F":
        if len(parts) != 4:
            raise ValueError("expected 'F i j p'")
        return OP_FMA, coordinate(parts[1]), coordinate(parts[2]), coordinate(parts[3])
    op = {"L": OP_LOAD, "S": OP_STORE, "E": OP_EVICT}.get(kind)
    if op is None:
        raise ValueError(f"unknown event letter {kind!r}")
    if len(parts) != 4:
        raise ValueError(f"expected '{kind} X row col'")
    return op, MATRIX_CODE[Matrix(parts[1])], coordinate(parts[2]), coordinate(parts[3])


@st.composite
def _coordinate_token(draw):
    """An int64 coordinate of at most 18 digits, sometimes zero-padded."""
    value = draw(st.integers(-(10**18) + 1, 10**18 - 1))
    digits = str(abs(value))
    digits = "0" * draw(st.integers(0, 18 - len(digits))) + digits
    return "-" * (value < 0) + digits


@st.composite
def _trace_text(draw, mutate=False):
    """Random events rendered with blank lines, comment-only lines, inline
    comments, runs of spaces and tabs, and LF, CRLF or CR breaks, the last
    one optional. With ``mutate``, one event line is malformed."""
    gap = st.text(" \t", max_size=3)
    # comments may hold event letters, digits, '#' and characters that
    # str.split() but not the grammar takes for whitespace
    comment = st.text("LSEFABC-0123456789# \t\x1f\xa0\xe9\u3000", max_size=6).map("#".__add__)
    kinds = draw(st.lists(st.sampled_from(["event", "event", "blank", "comment"]), max_size=12))
    if mutate:
        kinds.append("event")
        bad = draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind == "event"]))
    lines = []
    for index, kind in enumerate(kinds):
        if kind != "event":
            lines.append(draw(gap) + (draw(comment) if kind == "comment" else ""))
            continue
        letter = draw(st.sampled_from("LSEF"))
        head = [letter] if letter == "F" else [letter, draw(st.sampled_from("ABC"))]
        fields = head + [draw(_coordinate_token()) for _ in range(4 - len(head))]
        if mutate and index == bad:
            how = draw(st.sampled_from(["letter", "fewer", "more", "wide"]))
            if how == "letter":
                fields[0] = draw(st.sampled_from(["X", "l", "FF", "A"]))
            elif how == "fewer":
                fields.pop()
            elif how == "more":
                fields.append("0")
            else:
                fields[-1] = draw(st.sampled_from(["", "-"])) + "9" * 20
        spaced = "".join(field + draw(gap.map(lambda g: g or " ")) for field in fields)
        lines.append(draw(gap) + spaced + draw(st.one_of(st.just(""), comment)))
    breaks = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


def _rejected_line(parse, text):
    with pytest.raises(ValueError) as info:
        parse(text)
    found = re.match(r"trace line (\d+): ", str(info.value))
    assert found, str(info.value)
    return int(found.group(1))


@settings(max_examples=200, deadline=None)
@given(text=_trace_text())
def test_grammar_matches_line_reader(text):
    dims = ProblemDims(1, 1, 1)
    assert np.array_equal(parse_trace(text, dims).codes, _line_reader_codes(text))


@settings(max_examples=200, deadline=None)
@given(text=_trace_text(mutate=True))
def test_grammar_rejects_where_line_reader_does(text):
    dims = ProblemDims(1, 1, 1)
    new = _rejected_line(lambda t: parse_trace(t, dims), text)
    assert new == _rejected_line(_line_reader_codes, text)


@pytest.mark.parametrize("field", ["+1", "1_0", "\u0661", "1234567890123456789"])
def test_grammar_rejects_what_only_int_and_split_let_through(field):
    # the line reader read each of these ("1_0" as 10); the grammar names the line
    for text in (f"L A 0 0\nF 0 {field} 0\n", f"L A 0 0\nF\xa00 0 {field}\n"):
        assert len(_line_reader_codes(text)) == 2
        with pytest.raises(ValueError, match="^trace line 2: "):
            parse_trace(text, ProblemDims(1, 1, 1))


@pytest.mark.parametrize("line", ["\xa0\xa0", "L A 0 0\x1f", "\u2007", "#\r\n L\u3000A 0 0"])
def test_every_rejection_names_its_line(line):
    with pytest.raises(ValueError, match=r"^trace line \d+: "):
        parse_trace("L A 0 0\n" + line + "\n", ProblemDims(1, 1, 1))
