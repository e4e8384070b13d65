"""Simulator semantics: residency, dirty accounting, the error taxonomy,
and the trace wire format."""

import importlib
import pkgutil
import re
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
    Evict,
    Fma,
    IncompleteWritebackError,
    Load,
    Matrix,
    MemoryConfig,
    NonResidentOperandError,
    OperandRef,
    OutOfBoundsError,
    ProblemDims,
    Schedule,
    ShapeMismatchError,
    SimulationError,
    Store,
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
from iomma.model import MATRIX_CODE, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE

A = Matrix.A
B = Matrix.B
C = Matrix.C


def _ref(mat, i, j):
    return OperandRef(mat, i, j)


def _run(events, dims, S, a, b, c):
    return execute(Schedule(tuple(events), dims), MemoryConfig(S), a, b, c)


def _assert_at(exc_info, index):
    """The failure names the offending event's position, in .index and text."""
    assert exc_info.value.index == index
    assert str(exc_info.value).startswith(f"event {index}: ")


def test_naive_one_by_one():
    dims = ProblemDims(1, 1, 2)
    a = [[2.0, 3.0]]
    b = [[5.0], [7.0]]
    c = [[11.0]]
    result = _run(naive_schedule(dims).events, dims, 3, a, b, c)
    assert result.stats.reads == 6
    assert result.stats.writes == 2
    assert result.stats.fmas == 2
    assert result.stats.peak_residency == 3
    # 11 + 2*5 + 3*7 accumulated across two store/reload round trips
    assert result.output_c[0][0] == 42.0


def test_c_accumulates_in_place():
    dims = ProblemDims(1, 1, 2)
    events = [
        Load(_ref(A, 0, 0)), Load(_ref(A, 0, 1)),
        Load(_ref(B, 0, 0)), Load(_ref(B, 1, 0)),
        Load(_ref(C, 0, 0)),
        Fma(0, 0, 0), Fma(0, 0, 1),
        Store(_ref(C, 0, 0)),
        Evict(_ref(A, 0, 0)), Evict(_ref(A, 0, 1)),
        Evict(_ref(B, 0, 0)), Evict(_ref(B, 1, 0)),
    ]
    result = _run(events, dims, 5, [[2.0, 3.0]], [[5.0], [7.0]], [[11.0]])
    assert result.stats.reads == 5
    assert result.stats.writes == 1
    assert result.output_c[0][0] == 42.0


def test_double_load_rejected():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    events = [Load(_ref(A, 0, 0)), Load(_ref(A, 0, 0))]
    with pytest.raises(DoubleLoadError) as exc:
        _run(events, dims, 4, a, b, c)
    _assert_at(exc, 1)


def test_capacity_enforced():
    dims = ProblemDims(2, 2, 2)
    a, b, c = seeded_matrices(dims, 1)
    events = [Load(_ref(A, 0, 0)), Load(_ref(A, 0, 1)), Load(_ref(A, 1, 0))]
    with pytest.raises(CapacityExceededError) as exc:
        _run(events, dims, 2, a, b, c)
    _assert_at(exc, 2)
    assert str(exc.value) == "event 2: load of A(1,0) exceeds capacity 2"


def test_fma_requires_all_three_operands():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    partial = [Load(_ref(A, 0, 0)), Load(_ref(B, 0, 0)), Fma(0, 0, 0)]
    with pytest.raises(NonResidentOperandError) as exc:
        _run(partial, dims, 4, a, b, c)
    _assert_at(exc, 2)


def test_store_only_c_and_only_resident():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(StoreNonCError) as exc:
        _run([Load(_ref(A, 0, 0)), Store(_ref(A, 0, 0))], dims, 4, a, b, c)
    _assert_at(exc, 1)
    with pytest.raises(StoreNonResidentError) as exc:
        _run([Store(_ref(C, 0, 0))], dims, 4, a, b, c)
    _assert_at(exc, 0)
    # the read-only check comes before the bounds check
    with pytest.raises(StoreNonCError):
        _run([Store(_ref(A, 9, 9))], dims, 4, a, b, c)


def test_store_frees_slot():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    events = [
        Load(_ref(C, 0, 0)), Store(_ref(C, 0, 0)),
        # slot freed, so S=1 admits the next load; a second store must fail
        Load(_ref(C, 0, 0)), Store(_ref(C, 0, 0)), Store(_ref(C, 0, 0)),
    ]
    with pytest.raises(StoreNonResidentError) as exc:
        _run(events, dims, 1, a, b, c)
    _assert_at(exc, 4)


def test_dirty_eviction_rejected():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    events = [
        Load(_ref(A, 0, 0)), Load(_ref(B, 0, 0)), Load(_ref(C, 0, 0)),
        Fma(0, 0, 0), Evict(_ref(C, 0, 0)),
    ]
    with pytest.raises(DirtyEvictionError) as exc:
        _run(events, dims, 4, a, b, c)
    _assert_at(exc, 4)


def test_clean_c_evictable():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    events = [Load(_ref(C, 0, 0)), Evict(_ref(C, 0, 0))]
    result = _run(events, dims, 1, a, b, c)
    assert result.stats.reads == 1 and result.stats.writes == 0


def test_evict_requires_resident():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(NonResidentOperandError) as exc:
        _run([Evict(_ref(B, 0, 0))], dims, 4, a, b, c)
    _assert_at(exc, 0)


def test_incomplete_writeback_detected():
    dims = ProblemDims(1, 1, 1)
    a, b, c = seeded_matrices(dims, 1)
    events = [
        Load(_ref(A, 0, 0)), Load(_ref(B, 0, 0)), Load(_ref(C, 0, 0)),
        Fma(0, 0, 0),
    ]
    with pytest.raises(IncompleteWritebackError) as exc:
        _run(events, dims, 4, a, b, c)
    # found after the last event, so the index is the schedule length
    _assert_at(exc, 4)
    assert str(exc.value) == "event 4: dirty C(0,0) still resident at end of schedule"


def test_out_of_bounds_event_rejected():
    dims = ProblemDims(2, 2, 2)
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(OutOfBoundsError) as exc:
        _run([Load(_ref(A, 2, 0))], dims, 4, a, b, c)
    _assert_at(exc, 0)
    assert str(exc.value) == "event 0: A row 2 outside [0, 2)"


def test_out_of_bounds_is_a_simulation_error():
    # one family for every broken rule, and still a bad value to ValueError
    schedule = Schedule.from_codes([[OP_LOAD, MATRIX_CODE[A], 5, 0]], ProblemDims(1, 1, 1))
    with pytest.raises(SimulationError) as exc:
        execute(schedule, MemoryConfig(3), *seeded_matrices(schedule.dims, 1))
    assert isinstance(exc.value, OutOfBoundsError) and isinstance(exc.value, ValueError)
    _assert_at(exc, 0)
    assert str(exc.value) == "event 0: A row 5 outside [0, 1)"


@pytest.mark.parametrize(
    "event,coordinate",
    [
        (Store(_ref(C, 2, 0)), "row"),
        (Store(_ref(C, 0, -1)), "col"),
        (Evict(_ref(A, -1, 0)), "row"),
        (Evict(_ref(B, 0, 3)), "col"),
        (Evict(_ref(C, 0, 3)), "col"),
    ],
)
def test_store_and_evict_bounds_checked(event, coordinate):
    dims = ProblemDims(2, 3, 4)  # A is 2x4, B 4x3, C 2x3
    a, b, c = seeded_matrices(dims, 1)
    with pytest.raises(OutOfBoundsError) as exc:
        _run([Load(_ref(C, 0, 0)), event], dims, 4, a, b, c)
    assert exc.value.coordinate == coordinate
    _assert_at(exc, 1)


@pytest.mark.parametrize(
    "index,event,error",
    [
        (5000, Evict(_ref(A, 0, 0)), NonResidentOperandError),
        (6000, Load(_ref(A, 0, 1000)), OutOfBoundsError),
        (6999, Store(_ref(B, 0, 0)), StoreNonCError),
    ],
)
def test_failure_found_past_the_first_chunk(index, event, error):
    # 7000 events: execute works through them a few thousand at a time
    dims = ProblemDims(1, 1, 1000)
    a, b, c = seeded_matrices(dims, 1)
    events = list(naive_schedule(dims).events)
    result = _run(events, dims, 3, a, b, c)
    assert (result.stats.reads, result.stats.peak_residency) == (3000, 3)
    events.insert(index, event)
    with pytest.raises(error) as exc:
        _run(events, dims, 3, a, b, c)
    _assert_at(exc, index)


def test_shape_mismatch_rejected():
    dims = ProblemDims(2, 3, 4)
    a, b, c = seeded_matrices(dims, 1)
    wrong = np.zeros((3, 3))
    with pytest.raises(ShapeMismatchError):
        _run([], dims, 4, wrong, b, c)
    with pytest.raises(ShapeMismatchError):
        _run([], dims, 4, a, b, np.zeros((2, 4)))


def test_untouched_c_passes_through():
    dims = ProblemDims(2, 2, 1)
    a, b, c = seeded_matrices(dims, 9)
    result = _run([], dims, 4, a, b, c)
    assert np.array_equal(result.output_c, np.asarray(c, dtype=float))


def test_reference_gemm_small():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[5.0, 6.0], [7.0, 8.0]]
    c = [[1.0, 0.0], [0.0, 1.0]]
    out = reference_gemm(a, b, c)
    assert out.tolist() == [[20.0, 22.0], [43.0, 51.0]]


def test_trace_round_trip():
    dims = ProblemDims(2, 3, 2)
    schedule = naive_schedule(dims)
    text = dump_trace(schedule)
    assert text.endswith("\n")
    first = text.splitlines()[0].split()
    assert first[0] in {"L", "S", "E", "F"}
    parsed = parse_trace(text, dims)
    assert parsed.events == schedule.events
    assert dump_trace(parsed) == text
    # text dump_trace could not have written reads the same, line by line
    spaced = "# header\n" + text.replace(" ", "  ").replace("\n", " # note\n")
    assert parse_trace(spaced, dims) == schedule


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
        assert parsed.events == (Load(_ref(A, 0, 0)), Fma(0, 0, 0)), repr(brk)
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


def test_events_view_decodes_on_access(monkeypatch):
    dims = ProblemDims(1, 1, 2)
    events = (
        Load(_ref(A, 0, 1)), Load(_ref(B, 1, 0)), Load(_ref(C, 0, 0)),
        Fma(0, 0, 1), Store(_ref(C, 0, 0)), Evict(_ref(A, 0, 1)), Evict(_ref(B, 1, 0)),
    )
    schedule = Schedule(events, dims)
    view = schedule.events
    assert view == events and events == view and view == list(events)
    assert view != events[:-1]
    assert view[3] == Fma(0, 0, 1) and view[-1] == Evict(_ref(B, 1, 0))
    assert view[1:3] == events[1:3]
    assert Schedule(view, dims) == schedule
    with pytest.raises(ValueError):
        schedule.codes[0, 0] = 1  # read-only
    # len is the code array's: it decodes nothing
    monkeypatch.setattr("iomma.model._decode", None)
    assert len(view) == 7


def test_codes_must_name_known_events():
    dims = ProblemDims(1, 1, 1)
    with pytest.raises(ValueError, match="opcode"):
        Schedule.from_codes([[4, 0, 0, 0]], dims)
    with pytest.raises(ValueError, match="matrix"):
        Schedule.from_codes([[0, 3, 0, 0]], dims)
    with pytest.raises(ValueError, match="shape"):
        Schedule.from_codes([0, 0, 0, 0], dims)
    assert len(Schedule.from_codes([[3, 5, 5, 5]], dims).events) == 1  # fma fields are free
    # codes are integers as given: nothing is truncated, rounded or parsed
    for codes, dtype in (
        ([[0, 0, 0.7, 0]], "float64"),
        ([[0, 0, 1.9, 0]], "float64"),
        ([["0", "0", "1", "0"]], "<U1"),
        (np.zeros((1, 4), dtype=bool), "bool"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"dtype {dtype}")):
            Schedule.from_codes(codes, dims)
    unsigned = np.array([[0, 1, 0, 0]], dtype=np.uint8)
    assert Schedule.from_codes(unsigned, dims).codes.tolist() == [[0, 1, 0, 0]]
    # so are events: each field an int in int64, each matrix a Matrix
    good = Load(_ref(A, 0, 0))
    for bad, message in (
        (Fma(0.7, 0, 0), "fields must be int64 integers, got 0.7"),
        (Fma(1.9, 0, 0), "fields must be int64 integers, got 1.9"),
        (Fma("1", 0, 0), "fields must be int64 integers, got '1'"),
        (Fma(True, 0, 0), "fields must be int64 integers, got True"),
        (Load(_ref(A, 0.5, 1)), "fields must be int64 integers, got 0.5"),
        (Fma(2**70, 0, 0), f"fields must be int64 integers, got {2**70}"),
        (Fma(0, -2**63 - 1, 0), f"fields must be int64 integers, got {-2**63 - 1}"),
        (Evict(OperandRef("D", 0, 0)), "matrix must be a Matrix, got 'D'"),
        (Store(OperandRef("C", 0, 0)), "matrix must be a Matrix, got 'C'"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"event 1: {message}")):
            Schedule((good, bad), dims)
    extremes = Schedule((Fma(2**63 - 1, -2**63, 0),), dims)
    assert extremes.codes.tolist() == [[3, 2**63 - 1, -2**63, 0]]


def test_schedule_cannot_change_after_construction():
    dims = ProblemDims(1, 1, 1)
    big = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0]], dtype=np.int64)
    schedule = Schedule.from_codes(big[:2], dims)
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


def test_parse_trace_accepts_readme_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Wire formats", 1)[1]
    block = section.split("```\n", 2)[1]
    assert "# load a(0,3)" in block
    parsed = parse_trace(block + "\n# a comment-only line\n", ProblemDims(2, 3, 4))
    assert parsed.events == (
        Load(_ref(A, 0, 3)),
        Store(_ref(C, 1, 2)),
        Evict(_ref(B, 3, 1)),
        Fma(0, 2, 1),
    )
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
