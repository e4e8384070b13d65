"""Simulator semantics: residency, dirty accounting, the error taxonomy,
and the trace wire format."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import iomma
from iomma import (
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
    Store,
    StoreNonCError,
    StoreNonResidentError,
    alg_c_schedule,
    dump_trace,
    execute,
    naive_schedule,
    parse_trace,
    reference_gemm,
    seeded_matrices,
)
from iomma.memsim import trace_line

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
    schedule = alg_c_schedule(dims, 16)
    text = dump_trace(schedule)
    assert len(text) > 2 * iomma.memsim._CANONICAL_SPAN
    assert iomma.memsim._is_canonical(text)
    assert parse_trace(text, dims) == schedule
    # one comment in the last span sends the whole text down the line reader
    commented = text[:-1] + " # last\n"
    assert not iomma.memsim._is_canonical(commented)
    assert parse_trace(commented, dims) == schedule


class _SpanCounter:
    """Stands in for the canonical-line regex and counts the characters of
    every span handed to it."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.chars = 0

    def match(self, text, start, end):
        self.chars += end - start
        return self.pattern.match(text, start, end)

    def fullmatch(self, text, start, end):
        self.chars += end - start
        return self.pattern.fullmatch(text, start, end)


@pytest.mark.parametrize("tail", ["", "# end\n", "\n  # iomma 20 20 20 16\n"])
def test_canonical_lines_are_matched_once(monkeypatch, tail):
    dims = ProblemDims(20, 20, 20)
    schedule = alg_c_schedule(dims, 16)
    text = dump_trace(schedule) + tail
    assert len(text) > 2 * iomma.memsim._CANONICAL_SPAN
    counter = _SpanCounter(iomma.memsim._CANONICAL)
    monkeypatch.setattr(iomma.memsim, "_CANONICAL", counter)
    monkeypatch.setattr(iomma.memsim, "_parse_lines", None)  # the line reader
    assert parse_trace(text, dims) == schedule
    # trailing comment lines cost a match of the lines after the events, not
    # a second match of the whole text
    assert counter.chars == len(text)


def test_whole_line_comments_keep_the_fast_path(monkeypatch):
    dims = ProblemDims(6, 6, 6)
    schedule = alg_c_schedule(dims, 16)
    text = dump_trace(schedule)
    lines = text.splitlines(keepends=True)
    headed = "# iomma 6 6 6 16\n" + "".join(lines[:5]) + "\n  \t\n\t# mid\n" + "".join(lines[5:]) + "# end\n"
    monkeypatch.setattr(iomma.memsim, "_parse_lines", None)  # the line reader
    assert parse_trace(headed, dims) == parse_trace(text, dims) == schedule


@pytest.mark.parametrize("tail", ["", "# end", "  # end", "\n# end"])
def test_missing_final_newline_keeps_the_fast_path(monkeypatch, tail):
    dims = ProblemDims(3, 3, 3)
    schedule = alg_c_schedule(dims, 16)
    text = dump_trace(schedule)
    unterminated = text[:-1] if not tail else text + tail
    monkeypatch.setattr(iomma.memsim, "_parse_lines", None)  # the line reader
    assert parse_trace(unterminated, dims) == schedule


def test_skipped_lines_keep_their_numbers_in_errors():
    dims = ProblemDims(1, 1, 1)
    with pytest.raises(ValueError, match="^trace line 4: unknown event letter 'X'"):
        parse_trace("# iomma 1 1 1 3\n\nL A 0 0\nX Q 0 0\n", dims)
    with pytest.raises(ValueError, match="^trace line 2: unknown event letter 'X'"):
        parse_trace("L A 0 0\nX Q 0 0", dims)  # no final newline
    text = "# head\nL A 0 0\n# gap\nL B 0 0\nL C 0 0\nF 0 0 0\n"
    assert [trace_line(text, index) for index in range(4)] == [2, 4, 5, 6]


def test_comment_ends_at_every_line_break():
    # str.splitlines() ends a line at \r too, so the event after it counts
    parsed = parse_trace("# note\rL A 0 0\nF 0 0 0\n", ProblemDims(1, 1, 1))
    assert parsed.events == (Load(_ref(A, 0, 0)), Fma(0, 0, 0))


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
