"""Two-level memory simulator.

Fast memory holds at most S scalars and starts empty; slow memory holds the
three matrices. The simulator executes a schedule one event at a time,
enforces residency and capacity rules, counts every transfer, and checks
that all accumulated C values reach slow memory before the schedule ends.

A scalar slot is the unit of accounting: no cache lines, no replacement
policy. Eviction of clean data is explicit and free; writing back a dirty
C element costs one write.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

import numpy as np

from .model import (
    _CHUNK,
    MATRICES,
    MATRIX_CODE,
    OP_FMA,
    OP_LOAD,
    OP_STORE,
    IOStats,
    Matrix,
    OutOfBoundsError,
    ProblemDims,
    Schedule,
    _check_positive,
    fma_operand_ids,
    layout,
)


class SimulationError(Exception):
    """Base class for schedule-execution failures; see execute() for ``index``."""

    index: int | None = None


class NonResidentOperandError(SimulationError):
    """An Fma input or an evicted element is not in fast memory."""


class CapacityExceededError(SimulationError):
    """A load would push occupancy past the S-scalar capacity."""


class DoubleLoadError(SimulationError):
    """A load names an element that is already resident."""


class DirtyEvictionError(SimulationError):
    """An evict names a C element with unwritten updates."""


class StoreNonCError(SimulationError):
    """Only C elements may be stored; A and B are read-only."""


class StoreNonResidentError(SimulationError):
    """A store names a C element that is not in fast memory."""


class IncompleteWritebackError(SimulationError):
    """The schedule ended while a dirty C element was still resident."""


class ShapeMismatchError(ValueError):
    """A matrix argument does not match the problem dimensions."""


@dataclass(frozen=True)
class MemoryConfig:
    """Fast-memory capacity in scalars. Any schedule with an Fma needs S >= 3."""

    S: int

    def __post_init__(self):
        _check_positive(S=self.S)


@dataclass(frozen=True)
class ExecutionResult:
    stats: IOStats
    trace: Schedule
    output_c: np.ndarray


def _flat(mat, rows: int, cols: int, name: str) -> list[float]:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape != (rows, cols):
        raise ShapeMismatchError(
            f"{name} must have shape ({rows}, {cols}), got {arr.shape}"
        )
    return arr.ravel().tolist()


_C = MATRIX_CODE[Matrix.C]


def execute(
    schedule: Schedule, config: MemoryConfig, a, b, c_in
) -> ExecutionResult:
    """Run a schedule and count every transfer exactly.

    Loads of C bring the current slow-memory value in clean; the first Fma on
    a C slot marks it dirty; a store writes the slot back and frees it. The
    schedule must leave no dirty slot behind. Returns the counters, the
    as-executed trace, and the final C as a fresh array.

    This is the one home of the model's rules. A failure's ``index`` is the
    offending event's position (the schedule's length for a missing
    writeback), and its message starts with ``event <index>: ``.
    """
    dims = schedule.dims
    cap = config.S
    shapes = layout(dims)
    c_rows, c_cols, c_off = shapes[_C]
    # state per element id is 0 (absent), 1 (clean) or 2 (dirty), and the
    # ids follow layout(): A, then B, then C. One value per element serves as
    # both copies: a fast copy differs from slow memory only while dirty,
    # and a dirty slot cannot leave fast memory except by a store.
    fast = []
    for (rows, cols, _), mat, name in zip(shapes, (a, b, c_in), ("a", "b", "c_in")):
        fast += _flat(mat, rows, cols, name)
    state = bytearray(len(fast))
    occupancy = peak = 0

    codes = schedule.codes
    for start in range(0, len(codes), _CHUNK):
        chunk = codes[start:start + _CHUNK]
        ops, xs, ys, zs = _operand_ids(chunk, dims)
        done, occupancy, peak = _replay(ops, xs, ys, zs, fast, state, occupancy, peak, cap)
        if done < len(chunk):
            error = _event_error(chunk[done].tolist(), dims, state, occupancy, cap)
            raise _locate(error, start + done)

    dirty = state.find(2, c_off)
    if dirty >= 0:
        row, col = divmod(dirty - c_off, c_cols)
        message = f"dirty C({row},{col}) still resident at end of schedule"
        raise _locate(IncompleteWritebackError(message), len(codes))

    ops = codes[:, 0]
    loads, stores, _, fmas = np.bincount(ops, minlength=4).tolist()
    reads_a, reads_b, reads_c = np.bincount(codes[ops == OP_LOAD, 1], minlength=3).tolist()
    stats = IOStats(
        reads=loads, writes=stores, fmas=fmas, peak_residency=peak,
        reads_a=reads_a, reads_b=reads_b, reads_c=reads_c,
    )
    output_c = np.array(fast[c_off:], dtype=float).reshape(c_rows, c_cols)
    schedule._mark_legal()
    return ExecutionResult(stats=stats, trace=schedule, output_c=output_c)


def _operand_ids(chunk: np.ndarray, dims: ProblemDims):
    """Opcodes and element ids of the chunk's events up to its first bounds
    or read-only-store violation, as lists.

    A load, store or evict names its element in the first id list; an fma
    names its A, B and C elements in the three lists.
    """
    m, n, k = dims.m, dims.n, dims.k
    op, f1, f2, f3 = chunk.T
    fma = op == OP_FMA
    mat = np.where(fma, 0, f1)
    rows, cols, offset = (np.array(column) for column in zip(*layout(dims)))
    rows, cols = rows[mat], cols[mat]
    bad = np.where(
        fma,
        (f1 < 0) | (f1 >= m) | (f2 < 0) | (f2 >= n) | (f3 < 0) | (f3 >= k),
        ((op == OP_STORE) & (f1 != _C)) | (f2 < 0) | (f2 >= rows) | (f3 < 0) | (f3 >= cols),
    )
    end = int(bad.argmax()) if bad.any() else len(chunk)
    op, f1, f2, f3, mat, cols = (column[:end] for column in (op, f1, f2, f3, mat, cols))
    a_ids, ys, zs = fma_operand_ids(dims, f1, f2, f3)
    xs = np.where(op == OP_FMA, a_ids, offset[mat] + f2 * cols + f3)
    return op.tolist(), xs.tolist(), ys.tolist(), zs.tolist()


def _replay(ops, xs, ys, zs, fast, state, occupancy, peak, cap):
    """Apply events in order until one breaks a residency or capacity rule.

    Returns the number applied, then occupancy and peak after them.
    """
    FMA, LOAD, STORE = OP_FMA, OP_LOAD, OP_STORE
    remaining = iter(ops)
    for op, x, y, z in zip(remaining, xs, ys, zs):
        if op == FMA:
            if not (state[x] and state[y] and state[z]):
                break
            fast[z] += fast[x] * fast[y]
            state[z] = 2
        elif op == LOAD:
            if state[x] or occupancy >= cap:
                break
            state[x] = 1
            occupancy += 1
            if occupancy > peak:
                peak = occupancy
        elif op == STORE:
            if not state[x]:
                break
            state[x] = 0
            occupancy -= 1
        else:
            if state[x] != 1:
                break
            state[x] = 0
            occupancy -= 1
    else:
        return len(ops), occupancy, peak
    # zip drew the failing opcode last, so it is not among the remaining
    return len(ops) - operator.length_hint(remaining) - 1, occupancy, peak


def _event_error(row: list[int], dims: ProblemDims, state, occupancy: int, cap: int):
    """The rule one event breaks in the current state, checked in order:
    read-only store, coordinates, then residency and capacity."""
    op, f1, f2, f3 = row
    if op == OP_FMA:
        i, j, p = f1, f2, f3
        for name, value, size in (("i", i, dims.m), ("j", j, dims.n), ("p", p, dims.k)):
            if not 0 <= value < size:
                return OutOfBoundsError(name, f"fma {name}={value} outside [0, {size})")
        # the fma failed, so an operand is absent: name the first
        ids = fma_operand_ids(dims, i, j, p)
        for mat, (_, cols, first), element in zip(MATRICES, layout(dims), ids):
            if not state[element]:
                row, col = divmod(element - first, cols)
                message = f"fma({i},{j},{p}) needs {mat.value}({row},{col}) resident"
                return NonResidentOperandError(message)
    mat = MATRICES[f1]
    if op == OP_STORE and mat is not Matrix.C:
        return StoreNonCError(f"cannot store read-only {mat.value}")
    rows, cols, off = layout(dims)[f1]
    if not 0 <= f2 < rows:
        return OutOfBoundsError("row", f"{mat.value} row {f2} outside [0, {rows})")
    if not 0 <= f3 < cols:
        return OutOfBoundsError("col", f"{mat.value} col {f3} outside [0, {cols})")
    status = state[off + f2 * cols + f3]
    where = f"{mat.value}({f2},{f3})"
    if op == OP_LOAD:
        if status:
            return DoubleLoadError(f"{where} is already resident")
        return CapacityExceededError(f"load of {where} exceeds capacity {cap}")
    if op == OP_STORE:
        return StoreNonResidentError(f"store of non-resident {where}")
    if not status:
        return NonResidentOperandError(f"evict of non-resident {where}")
    return DirtyEvictionError(f"evict of dirty {where}; store it first")


def _locate(exc: Exception, index: int) -> Exception:
    """Stamp a rule violation with the position of the event that broke it."""
    exc.index = index
    exc.args = (f"event {index}: {exc.args[0]}",)
    return exc


def reference_gemm(a, b, c_in) -> np.ndarray:
    """C := A*B + C by the canonical triple loop with p innermost, ascending.

    Every shipped schedule generator accumulates each c(i,j) over p in the
    same order, so simulator output agrees with this loop bit for bit.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    c_arr = np.asarray(c_in, dtype=float)
    if a_arr.ndim != 2 or b_arr.ndim != 2 or c_arr.ndim != 2:
        raise ShapeMismatchError("a, b and c_in must be two-dimensional")
    m, k = a_arr.shape
    kb, n = b_arr.shape
    if kb != k:
        raise ShapeMismatchError(f"a is {a_arr.shape} but b is {b_arr.shape}")
    if c_arr.shape != (m, n):
        raise ShapeMismatchError(f"c_in must have shape ({m}, {n}), got {c_arr.shape}")
    a_rows = a_arr.tolist()
    b_rows = b_arr.tolist()
    out = c_arr.tolist()
    for i in range(m):
        a_row = a_rows[i]
        out_row = out[i]
        for j in range(n):
            acc = out_row[j]
            for p in range(k):
                acc += a_row[p] * b_rows[p][j]
            out_row[j] = acc
    return np.array(out, dtype=float)


# one line format per (opcode, matrix) pair of a load, store or evict, then the fma's
_LINE_FORMATS = tuple(
    f"{letter} {matrix.value} %d %d\n" for letter in "LSE" for matrix in MATRICES
) + ("F %d %d %d\n",)
# every character str.splitlines() ends a line at; "\r\n" is one break
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = f"(?:\r\n|[{_BREAKS}])"
_LINE_BREAK = re.compile(_BREAK)
_COMMENT = f"#[^{_BREAKS}]*"
_INT = "-?[0-9]{1,18}"  # a coordinate, short enough for int64
# one line exactly as dump_trace writes it
_DUMPED = f"(?:[LSE] [ABC]|F {_INT}) {_INT} {_INT}\n"
# any line: an optional event with spaces or tabs around its fields, an
# optional comment and any line break
_ANY = (
    f"[ \t]*(?:(?:[LSE][ \t]+[ABC]|F[ \t]+{_INT})[ \t]+{_INT}[ \t]+{_INT}[ \t]*)?"
    f"(?:{_COMMENT})?{_BREAK}"
)
# the trace grammar. Runs of dumped lines repeat in a loop of their own,
# which is as fast as matching dumped lines alone. Once comments are gone, a
# text of such lines reads as numbers when each letter becomes its code.
_LINES = re.compile(f"(?:{_DUMPED})*(?:{_ANY}(?:{_DUMPED})*)*")
_SPAN = 1 << 14  # characters matched per call; re keeps state per repetition
# each letter becomes its code, and each break a space: numpy's whitespace
# lacks \x1c-\x1e, \x85, \u2028 and \u2029
_LETTER_CODES = str.maketrans("LSEFABC" + _BREAKS, "0123012" + " " * len(_BREAKS))


def dump_trace(schedule: Schedule) -> str:
    """Render a schedule in the line-per-event wire format.

    Lines are ``L A i j`` / ``S C i j`` / ``E X i j`` / ``F i j p`` with a
    trailing newline; all-ASCII, LF line endings.
    """
    codes = schedule.codes
    formats = np.array(_LINE_FORMATS, dtype=object)
    chunks = []
    for start in range(0, len(codes), _CHUNK):
        chunk = codes[start:start + _CHUNK]
        fma = chunk[:, 0] == OP_FMA
        kind = np.where(fma, len(formats) - 1, chunk[:, 0] * 3 + chunk[:, 1])
        # an fma prints all three fields, any other event its row and col
        printed = np.ones((len(chunk), 3), dtype=bool)
        printed[:, 0] = fma
        fields = tuple(chunk[:, 1:][printed].tolist())
        chunks.append("".join(formats[kind].tolist()) % fields)
    return "".join(chunks)


def parse_trace(text: str, dims: ProblemDims) -> Schedule:
    """Inverse of dump_trace. Raises ValueError, naming the first line that
    is not in the trace grammar.

    A ``#`` starts a comment that runs to the end of the line; blank and
    comment-only lines are skipped. Fields are separated by spaces or tabs,
    lines by any break str.splitlines() knows, and a final line without its
    break reads as if it had one.
    """
    if text[-1:] not in _BREAKS:
        text += "\n"
    stop = _grammatical_end(text)
    if stop < len(text):
        raise ValueError(_rejection(text, stop))
    if "#" in text:
        text = re.sub(_COMMENT, "", text)
    if not any(letter in text for letter in "LSEF"):
        # numpy reads a text of whitespace alone as [0]
        return Schedule._wrap(np.empty((0, 4), dtype=np.int64), dims)
    codes = np.fromstring(text.translate(_LETTER_CODES), dtype=np.int64, sep=" ")
    return Schedule._wrap(codes.reshape(-1, 4), dims)


def _grammatical_end(text: str) -> int:
    """Where the run of grammatical lines at the start of the text ends,
    matched a span of whole lines at a time so the regex engine's memory
    stays small."""
    start = 0
    while start < len(text):
        cut = _LINE_BREAK.search(text, start + _SPAN)
        end = cut.end() if cut else len(text)
        stop = _LINES.match(text, start, end).end()
        if stop < end:
            return stop
        start = end
    return start


def _rejection(text: str, stop: int) -> str:
    """Why the line that starts at ``stop`` is not in the trace grammar,
    prefixed with its 1-based line number."""
    lineno = 1 + sum(1 for _ in _LINE_BREAK.finditer(text, 0, stop))
    line = text[stop:_LINE_BREAK.search(text, stop).start()]
    fields = [field for field in line.partition("#")[0].replace("\t", " ").split(" ") if field]
    kind = fields[0]
    if kind not in ("L", "S", "E", "F"):
        reason = f"unknown event letter {kind!r}"
    elif len(fields) != 4:
        reason = "expected 'F i j p'" if kind == "F" else f"expected '{kind} X row col'"
    elif kind != "F" and fields[1] not in ("A", "B", "C"):
        reason = f"unknown matrix letter {fields[1]!r}"
    else:
        # a line with the right letters and field count fails the grammar
        # only on a coordinate
        coordinates = fields[1:] if kind == "F" else fields[2:]
        bad = [token for token in coordinates if not re.fullmatch(_INT, token)]
        reason = f"coordinate {bad[0]} is not an integer of 1 to 18 decimal digits"
    return f"trace line {lineno}: {reason}"


def _event_lines(text: str):
    """(1-based line number, fields) of each line of a trace that holds an event."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if parts:
            yield lineno, parts


def trace_line(text: str, index: int) -> int:
    """1-based line of the trace text that parse_trace() read event ``index`` from."""
    return next(itertools.islice(_event_lines(text), index, None))[0]
