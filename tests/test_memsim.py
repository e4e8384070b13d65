"""Simulator semantics: residency, dirty accounting, the error taxonomy,
and the trace wire format."""

import contextlib
import importlib
import io
import itertools
import math
import os
import pkgutil
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iomma
import iomma.tracefile
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
from iomma.cli import main
from iomma.tracefile import decode_trace, trace_line, write_trace
from iomma.phases import PhaseConfig, partition_phases, phases_to_csv, validate_trace
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


def test_reload_of_a_dirty_element_rejected():
    # every other double load here reloads a clean element; this one
    # reloads C while its fma's update is unwritten
    dims = ProblemDims(1, 1, 1)
    trace = "L A 0 0\nL B 0 0\nL C 0 0\nF 0 0 0\nL C 0 0\nS C 0 0\nE A 0 0\nE B 0 0\n"
    with pytest.raises(DoubleLoadError) as exc:
        _run(trace, dims, 4, *seeded_matrices(dims, 1))
    _assert_at(exc, 4)
    assert str(exc.value) == "event 4: C(0,0) is already resident"


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
    with pytest.raises(ShapeMismatchError, match="two-dimensional"):
        reference_gemm(a, b, np.zeros(8))
    with pytest.raises(ShapeMismatchError, match=r"^a is \(2, 4\) but b is \(3, 3\)$"):
        reference_gemm(a, wrong, c)
    with pytest.raises(ShapeMismatchError, match=r"^c_in must have shape \(2, 3\), got \(2, 4\)$"):
        reference_gemm(a, b, np.zeros((2, 4)))


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
    """What execute makes of the codes with memsim's names, or model's
    _CHUNK, patched: the stats and the bytes of C, or the error's class,
    index and message. Warnings are errors."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, value in patches.items():
            patch.setattr(iomma.model if name == "_CHUNK" else iomma.memsim, name, value)
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
    for chunk in (3, 5, 17, 64, _CHUNK):
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
        patch.setattr(iomma.model, "_CHUNK", chunk)
        _assert_dumped_as_formatted(codes)


def _random_codes(low, high, events):
    """Code rows of random events whose fields run from low to high; the
    first row holds both ends, so its values span exactly [low, high]."""
    rng = np.random.default_rng(events)
    ops = rng.integers(0, 4, events)
    fields = rng.integers(low, high, (events, 3), endpoint=True)
    fields[:1, 1:] = low, high
    matrices = rng.integers(0, 3, events)
    return np.column_stack([ops, np.where(ops == OP_FMA, fields[:, 0], matrices), fields[:, 1:]])


# (low, high, events): lengths across chunk edges at three spreads, then
# dump_trace's edge, where the values 0 to _CHUNK - 1 serve two rows each
# (its word table) and then one row fewer (a %-format per chunk)
_RANDOM_TRACES = [
    (low, high, events)
    for low, high in [(-3, 30), (-2**40, 2**40), (-2**63, 2**63 - 1)]
    for events in [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
] + [(0, _CHUNK - 1, 2 * _CHUNK), (0, _CHUNK - 1, 2 * _CHUNK - 1)]
_ALG_C = build_schedule(Algorithm.C, ProblemDims(20, 20, 20), 16).codes


@pytest.mark.parametrize("codes", [
    *(pytest.param(_random_codes(*case), id="{}-{}-{}".format(*case)) for case in _RANDOM_TRACES),
    # an alg-c trace takes the word table, and one int64-extreme row more takes it off
    pytest.param(_ALG_C, id="alg-c"),
    pytest.param(np.vstack([_ALG_C, [[OP_FMA, -2**63, 0, 2**63 - 1]]]), id="alg-c-int64-row"),
])
def test_dump_trace_matches_per_row_format_across_chunks(codes):
    _assert_dumped_as_formatted(codes)


def test_long_trace_round_trip_across_match_spans():
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = dump_trace(schedule)
    assert len(text) > 2 * iomma.tracefile._SPAN
    assert parse_trace(text, dims) == schedule
    # a header comment sends the whole text to the regex, span by span
    assert parse_trace("# iomma 20 20 20 16\n" + text, dims) == schedule
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
    rejections."""
    monkeypatch.setattr(iomma.tracefile, "_rejection", None)


def _assert_matched_once(monkeypatch, text, dims, schedule):
    assert len(text) > 2 * iomma.tracefile._SPAN
    counter = _SpanCounter(iomma.tracefile._LINES)
    monkeypatch.setattr(iomma.tracefile, "_LINES", counter)
    _forbid_line_reader(monkeypatch)
    assert parse_trace(text, dims) == schedule
    assert counter.chars == len(text)
    # spans end at the first line break of any kind past _SPAN characters,
    # so the regex engine's memory stays bounded
    assert counter.longest < 2 * iomma.tracefile._SPAN


@pytest.mark.parametrize("tail", ["", "# end\n", "\n  # iomma 20 20 20 16\n"])
def test_canonical_lines_are_matched_once(monkeypatch, tail):
    # a header comment keeps even the bare dump from the dumped-line reader
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = "# iomma 20 20 20 16\n" + dump_trace(schedule) + tail
    _assert_matched_once(monkeypatch, text, dims, schedule)


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
    with pytest.raises(ValueError, match="trace line 2: coordinate '99999999999999999999' is not"):
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
    # events is another name for the codes, built afresh like them
    assert np.array_equal(schedule.events, schedule.codes)
    assert schedule.events is not schedule.codes and len(schedule) == len(schedule.events) == 2


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
    with pytest.raises(ValueError, match="^trace line 1: unknown matrix letter 'D'$"):
        parse_trace("L D 0 0\n", dims)


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


def _read_outcome(parse, text):
    """The codes a parser reads from a text, as lists, or its error message."""
    try:
        return np.asarray(parse(text)).tolist()
    except ValueError as exc:
        return str(exc)


def _regex_codes(text):
    """parse_trace without its dumped-line reader: the grammar regex alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.tracefile, "file_rows", lambda handle: None)
        return parse_trace(text, ProblemDims(1, 1, 1)).codes


# bytes that the dumped form holds, and bytes that it does not but that the
# line reader and the grammar read alike: '#' starts a comment, a tab parts
# fields, CR and VT end lines, and the rest are no part of any token
_INSIDE = "LSEFABC0123456789- \n"
_OUTSIDE = "X#\t\r\x0b\x00.a\xe9"


@st.composite
def _mutated_dump(draw, dumps=()):
    """A dumped trace with up to three byte-level edits, which fall next to
    a space or LF half of the time: one of ``dumps`` half the time, if
    given, else the dump of random rows."""
    coordinate = st.one_of(st.integers(-3, 40), st.integers(-(10**18) + 1, 10**18 - 1))
    row = st.tuples(st.integers(0, 3), st.integers(0, 2), coordinate, coordinate, coordinate)
    rows = draw(st.lists(row, max_size=12))
    codes = [(op, i if op == OP_FMA else matrix, r, c) for op, matrix, i, r, c in rows]
    text = dump_trace(Schedule(np.array(codes, dtype=np.int64).reshape(-1, 4), ProblemDims(1, 1, 1)))
    if dumps and draw(st.booleans()):
        text = draw(st.sampled_from(dumps))
    for _ in range(draw(st.integers(0, 3))):
        if not text:
            break
        seps = [i for i, char in enumerate(text) if char in " \n"]
        edges = sorted({i + side for i in seps for side in (0, 1)} - {len(text)})
        at = draw(st.sampled_from(edges) if edges and draw(st.booleans()) else st.integers(0, len(text) - 1))
        numbers = [match.start() for match in re.finditer(r"(?<= )-?[0-9]+", text)]
        how = draw(st.sampled_from(
            ["byte", "insert", "double", "drop", "move", "minus", "zero", "wide", "matrix", "end"]
        ))
        if how in ("byte", "insert"):
            byte = draw(st.sampled_from(_INSIDE + _OUTSIDE))
            text = text[:at] + byte + text[at + (how == "byte"):]
        elif how in ("double", "drop"):
            at = draw(st.sampled_from(seps))
            text = text[:at] + (text[at] * 2 if how == "double" else "") + text[at + 1:]
        elif how == "move" and "\n" in text[:-1]:
            # a line break trades places with a space a token away
            at = draw(st.sampled_from([i for i, char in enumerate(text[:-1]) if char == "\n"]))
            spaces = [i for i in (text.rfind(" ", 0, at), text.find(" ", at)) if i >= 0]
            if not spaces:
                continue
            space = draw(st.sampled_from(spaces))
            text = text[:at] + " " + text[at + 1:]
            text = text[:space] + "\n" + text[space + 1:]
        elif how == "minus":
            text = text[:at] + "-" + text[at:]
        elif how == "zero" and numbers:
            at = draw(st.sampled_from(numbers))
            at += text[at] == "-"
            text = text[:at] + "0" + text[at:]
        elif how == "wide" and numbers:
            at = draw(st.sampled_from(numbers))
            end = re.match(r"-?[0-9]+", text[at:]).end() + at
            digits = draw(st.sampled_from([18, 19]))
            text = text[:at] + draw(st.sampled_from(["", "-"])) + "9" * digits + text[end:]
        elif how == "matrix" and "F " in text:
            at = draw(st.sampled_from([m.start() for m in re.finditer("F ", text)]))
            text = text[:at + 2] + draw(st.sampled_from("ABC")) + " " + text[at + 2:]
        elif how == "end":
            text = text[:-1]
    return text


@settings(max_examples=600, deadline=None)
@given(text=_mutated_dump(), span=st.integers(8, 80))
def test_dumped_line_reader_matches_grammar_and_line_reader(text, span):
    # small spans put line ends on and around every span edge
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.tracefile, "_READ_SPAN", span)
        got = _read_outcome(lambda t: parse_trace(t, ProblemDims(1, 1, 1)).codes, text)
    # the grammar alone reads the same codes, or rejects in the same words
    assert got == _read_outcome(_regex_codes, text)
    if not isinstance(got, str):
        assert got == _line_reader_codes(text).tolist()
        return
    lineno = int(re.match(r"trace line (\d+): ", got).group(1))
    try:
        _line_reader_codes(text)
    except ValueError as exc:
        if str(exc).startswith(f"trace line {lineno}: "):
            return
    # int() reads 19 digits, which the grammar refuses
    assert re.search("[0-9]{19}", text.splitlines()[lineno - 1]), (text, got)


# one line each that breaks a single check of the dumped-line reader, and a
# few that the grammar takes though they are not dumped lines
_NEAR_DUMPED = [
    "X A 0 0", "L0 A 0 0", "LL A 0 0", "- A 0 0", "L A0 0 0", "L AB 0 0", "L 0 0 0",
    "F A 0 0", "F A 0 0 0", "L A 0 -", "L A 0 --1", "L A 0 1-", "L A 0 -1-", "L A 0 1A",
    "L A " + "1" * 18 + " 0", "L A " + "1" * 19 + " 0", "F -" + "9" * 19 + " 0 0",
    "L\rA 0 0", "L\x00A 0 0", "L\x0bA 0 0", "L\tA 0 0", "L A 0 0 ", " L A 0 0", "L  A 0 0",
    "", "F", "L A", "L A 0", "L A 0 0 L\nA 0 0", "L A 0\n0 L A 0 0", "L A 0 0 # c", "L A 0 0\r",
]


@pytest.mark.parametrize("line", _NEAR_DUMPED)
@pytest.mark.parametrize("span", [64, 1 << 14])
@pytest.mark.parametrize("at", [50, None])
def test_dumped_line_reader_declines_near_dumped_lines(line, span, at, monkeypatch):
    # in the middle, or last, where a short line ends the last span
    lines = dump_trace(build_schedule(Algorithm.C, ProblemDims(4, 4, 4), 16)).splitlines(keepends=True)
    text = "".join(lines[:at]) + line + "\n" + "".join(lines[at:] if at else [])
    monkeypatch.setattr(iomma.tracefile, "_READ_SPAN", span)
    got = _read_outcome(lambda t: parse_trace(t, ProblemDims(1, 1, 1)).codes, text)
    assert got == _read_outcome(_regex_codes, text)


def test_memsim_forwards_parse_trace_and_holds_no_trace_text_code():
    # callers that import parse_trace from memsim parse as tracefile does
    memsim = importlib.import_module("iomma.memsim")
    dims = ProblemDims(6, 6, 6)
    text = dump_trace(build_schedule(Algorithm.C, dims, 16))
    for text in (text, "# header\n" + text):
        assert memsim.parse_trace(text, dims) == parse_trace(text, dims)
    with pytest.raises(ValueError, match="^trace line 2: unknown event letter 'X'$"):
        memsim.parse_trace("L A 0 0\nX A 0 0\n", dims)
    for name in ("dump_trace", "write_trace", "decode_trace", "trace_line", "re", "tracefile"):
        assert not hasattr(memsim, name), name


def test_dumped_trace_reaches_neither_regex_nor_fromstring(monkeypatch):
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    text = dump_trace(schedule)
    assert len(text) > 4 * iomma.tracefile._READ_SPAN

    def refuse(*args, **kwargs):
        raise AssertionError("a dumped trace took the regex path")

    monkeypatch.setattr(iomma.tracefile, "_LINES", SimpleNamespace(match=refuse))
    monkeypatch.setattr(np, "fromstring", refuse)
    _forbid_line_reader(monkeypatch)
    assert parse_trace(text, dims) == schedule


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


def test_rejection_quotes_a_bad_coordinate():
    # a control byte is shown escaped, as in a bad event or matrix letter
    with pytest.raises(ValueError) as exc:
        parse_trace("L A 0 0\x00\n", ProblemDims(1, 1, 1))
    assert str(exc.value) == "trace line 1: coordinate '0\\x00' is not an integer of 1 to 18 decimal digits"


# phases --trace-in streams a file of dumped lines through one walk; it must
# read every file as the whole-text steps do, in every output and error
_STREAM_DIMS = ProblemDims(2, 3, 2)
_STREAM_DUMPS = [
    dump_trace(build_schedule(algorithm, _STREAM_DIMS, S))
    for algorithm, S in ((Algorithm.C, 9), (Algorithm.NAIVE, 4), (Algorithm.B, 16))
]


def _whole_text_phases(data: bytes, S: int):
    """phases --trace-in's exit code, stdout and stderr by the whole-text
    steps: decode_trace, parse_trace of the text, validate_trace, then
    partition_phases."""
    try:
        text = decode_trace(data)
        schedule = parse_trace(text, _STREAM_DIMS)
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    try:
        validate_trace(schedule, MemoryConfig(S))
    except SimulationError as exc:
        where = f"trace line {trace_line(text, exc.index)}: " if exc.index < len(schedule) else ""
        return 1, "", f"error: {where}invalid trace: {exc}\n"
    return 0, phases_to_csv(partition_phases(schedule, PhaseConfig(2 * S))), ""


def _streamed_phases(path: Path, data: bytes, S: int):
    """The exit code, stdout and stderr of phases --trace-in on the bytes."""
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    dims = ["-m", "2", "-n", "3", "-k", "2", "-S", str(S)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["phases", *dims, "--trace-in", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    text=_mutated_dump(_STREAM_DUMPS),
    S=st.sampled_from([4, 9, 16]),
    span=st.sampled_from([8, 9, 24, 64, 1 << 14]),
    chunk=st.sampled_from([1, 3, 4096]),
)
def test_streamed_phases_match_the_whole_text_steps(tmp_path_factory, text, S, span, chunk):
    # an 8-byte span holds one line at most; small chunks put span and
    # chunk edges inside the trace
    data = text.encode("utf-8")
    path = tmp_path_factory.mktemp("trace") / "t.txt"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iomma.tracefile, "_READ_SPAN", span)
        patch.setattr(iomma.model, "_CHUNK", chunk)
        assert _streamed_phases(path, data, S) == _whole_text_phases(data, S)


# files the streamed reader declines or gives up on; the last breaks a rule
# in its first span at S=4, where its fifth load overflows, and the grammar
# on its last line
_NAMED_FILES = {
    "crlf": _STREAM_DUMPS[0].replace("\n", "\r\n").encode(),
    "cr": _STREAM_DUMPS[0].replace("\n", "\r").encode(),
    "no-final-lf": _STREAM_DUMPS[0][:-1].encode(),
    "empty": b"",
    "comment-only": b"# no events\n",
    "utf-8-letter-in-a-dumped-line": _STREAM_DUMPS[0].replace("L A 0 0", "L A 0 \u00e90", 1).encode(),
    "non-utf-8-byte-in-a-dumped-line": _STREAM_DUMPS[0].encode().replace(b"L A 0 0", b"L A 0 \xe90", 1),
    "non-ascii-head": _STREAM_DUMPS[0].replace("L A 0 0", "\u00c9 A 0 0", 1).encode(),
    "rule-error-before-a-grammar-error": (_STREAM_DUMPS[0] + "L A 0 0x\n").encode(),
}


@pytest.mark.parametrize("name", list(_NAMED_FILES))
@pytest.mark.parametrize("span", [8, 64, 1 << 14])
def test_streamed_phases_match_the_whole_text_steps_on_named_files(tmp_path, name, span, monkeypatch):
    data = _NAMED_FILES[name]
    monkeypatch.setattr(iomma.tracefile, "_READ_SPAN", span)
    for S in (4, 9):
        got = _streamed_phases(tmp_path / "t.txt", data, S)
        assert got == _whole_text_phases(data, S)
    if name == "rule-error-before-a-grammar-error":
        lines = data.count(b"\n")
        assert len(data) > 2 * 64 and got[2].startswith(f"error: trace line {lines}: coordinate '0x' ")
    elif name in ("crlf", "cr", "no-final-lf"):
        assert got[0] == 0


def test_dumped_trace_file_streams_without_its_text(tmp_path, monkeypatch):
    # a dumped file is never decoded, parsed as text or replayed by execute
    dims = ProblemDims(20, 20, 20)
    schedule = build_schedule(Algorithm.C, dims, 16)
    path = tmp_path / "t.txt"
    with open(path, "w") as handle:
        write_trace(schedule, handle)
    assert path.read_text() == dump_trace(schedule)
    expected = partition_phases(schedule, PhaseConfig(32))
    for name in ("decode_trace", "_grammatical_end"):
        monkeypatch.setattr(iomma.tracefile, name, None)
    monkeypatch.setattr(iomma.phases, "execute", None)
    for chunk in (5, 4096):
        monkeypatch.setattr(iomma.model, "_CHUNK", chunk)
        with open(path, "rb") as handle:
            streamed = parse_trace(handle, dims)
            assert len(streamed) == len(schedule)
            assert streamed == schedule
            sizes = [len(rows) for rows in streamed.chunks()]
            assert set(sizes[:-1]) == {chunk} and 0 < sizes[-1] <= chunk
            # two walks of one file, interleaved chunk by chunk
            handle.seek(0)
            assert parse_trace(handle, dims) == streamed
            assert partition_phases(streamed, PhaseConfig(32), MemoryConfig(16)) == expected


# files that are not all dumped lines: empty, CRLF, a comment, a tab, a
# blank line, no final LF, a grammar error on line 2, a byte not UTF-8
_OTHER_FILES = [
    b"", b"L A 0 0\r\nE A 0 0\r\n", b"L A 0 0\n# c\xc3\xa9\nE A 0 0\n", b"L A 0 0\n# c\nE A 0 0\n",
    b"L\tA 0 0\nE A 0 0\n", b"L A 0 0\n\nE A 0 0\n", b"L A 0 0\nE A 0 0", b"L A 0 0\nE A 0 0x\n",
    b"L A 0 0\nE A 0 \xe9\n",
]


def _file_outcome(handle, dims):
    """parse_trace of an open file as (length, codes), or its error message."""
    try:
        schedule = parse_trace(handle, dims)
    except ValueError as exc:
        return str(exc)
    return len(schedule), schedule.codes.tolist()


def _text_outcome(data, dims):
    """The same for decode_trace then parse_trace of a file's bytes."""
    try:
        schedule = parse_trace(decode_trace(data), dims)
    except ValueError as exc:
        return str(exc)
    return len(schedule), schedule.codes.tolist()


@pytest.mark.parametrize("data", _OTHER_FILES)
def test_file_read_whole_unless_dumped_lines(tmp_path, data):
    # parse_trace of such a file returns what its text gives, or raises
    # what its text raises: never a schedule that miscounts or fails a walk
    dims = ProblemDims(1, 1, 1)
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with open(path, "rb") as handle:
        assert _file_outcome(handle, dims) == _text_outcome(data, dims)
    # a pipe cannot seek back, so it is read whole
    read, write = os.pipe()
    with open(read, "rb") as handle:
        with open(write, "wb") as writer:
            writer.write(data)
        assert not handle.seekable()
        assert _file_outcome(handle, dims) == _text_outcome(data, dims)


def test_dumped_file_parses_from_where_it_stands(tmp_path, monkeypatch):
    # a file's first lines may be read before parse_trace, which checks the
    # rest, leaves the file where it stood and reads only the rest on a walk
    dims = ProblemDims(1, 1, 1)
    path = tmp_path / "t.txt"
    path.write_bytes(b"# header\nL A 0 0\nE A 0 0\n")
    monkeypatch.setattr(iomma.tracefile, "_READ_SPAN", 8)
    with open(path, "rb") as handle:
        handle.readline()
        schedule = parse_trace(handle, dims)
        assert handle.tell() == len(b"# header\n")
        assert len(schedule) == 2 and schedule == parse_trace("L A 0 0\nE A 0 0\n", dims)
    # the reader takes a byte past ASCII for no opcode
    assert iomma.tracefile._read_span(np.frombuffer(b"\xe9 A 0 0\n", np.uint8)) is None


def test_walk_of_a_changed_dumped_file_raises(tmp_path):
    dims = ProblemDims(1, 1, 1)
    path = tmp_path / "t.txt"
    path.write_bytes(b"L A 0 0\nE A 0 0\n")
    with open(path, "rb") as handle:
        schedule = parse_trace(handle, dims)
        path.write_bytes(b"L A 0 0\n")
        with pytest.raises(ValueError, match="^the trace file changed while it was read$"):
            schedule.codes
