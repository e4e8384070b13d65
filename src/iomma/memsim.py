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
from dataclasses import dataclass

import numpy as np

from .model import (
    Evict,
    Fma,
    IOStats,
    Load,
    Matrix,
    OperandRef,
    OutOfBoundsError,
    ProblemDims,
    Schedule,
    Store,
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
        if not isinstance(self.S, int) or isinstance(self.S, bool) or self.S < 1:
            raise ValueError(f"S must be a positive integer, got {self.S!r}")


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
    m, n, k = dims.m, dims.n, dims.k
    cap = config.S
    b_off = m * k
    c_off = b_off + k * n
    # element ids: A row-major at [0, mk), then B, then C; state per id is
    # 0 (absent), 1 (clean) or 2 (dirty)
    slow = _flat(a, m, k, "a") + _flat(b, k, n, "b") + _flat(c_in, m, n, "c_in")
    fast = [0.0] * len(slow)
    state = bytearray(len(slow))
    shapes = {Matrix.A: (m, k, 0), Matrix.B: (k, n, b_off), Matrix.C: (m, n, c_off)}

    reads = writes = fmas = 0
    occupancy = peak = 0

    events = schedule.events
    it = iter(events)
    try:
        for event in it:
            cls = event.__class__
            if cls is Fma:
                i = event.i
                j = event.j
                p = event.p
                if not 0 <= i < m:
                    raise OutOfBoundsError("i", f"fma i={i} outside [0, {m})")
                if not 0 <= j < n:
                    raise OutOfBoundsError("j", f"fma j={j} outside [0, {n})")
                if not 0 <= p < k:
                    raise OutOfBoundsError("p", f"fma p={p} outside [0, {k})")
                ea = i * k + p
                eb = b_off + p * n + j
                ec = c_off + i * n + j
                if not (state[ea] and state[eb] and state[ec]):
                    missing = (
                        f"A({i},{p})" if not state[ea]
                        else f"B({p},{j})" if not state[eb]
                        else f"C({i},{j})"
                    )
                    raise NonResidentOperandError(
                        f"fma({i},{j},{p}) needs {missing} resident"
                    )
                fast[ec] += fast[ea] * fast[eb]
                state[ec] = 2
                fmas += 1
                continue
            if cls is not Load and cls is not Store and cls is not Evict:
                raise TypeError(f"unknown event type {cls.__name__}")
            ref = event.ref
            mat = ref.matrix
            if cls is Store and mat is not Matrix.C:
                raise StoreNonCError(f"cannot store read-only {mat.value}")
            rows, cols, off = shapes[mat]  # off: the matrix's first id
            row = ref.row
            col = ref.col
            if not 0 <= row < rows:
                raise OutOfBoundsError("row", f"{mat.value} row {row} outside [0, {rows})")
            if not 0 <= col < cols:
                raise OutOfBoundsError("col", f"{mat.value} col {col} outside [0, {cols})")
            e = off + row * cols + col
            status = state[e]
            if cls is Load:
                if status:
                    raise DoubleLoadError(
                        f"{mat.value}({row},{col}) is already resident"
                    )
                if occupancy >= cap:
                    raise CapacityExceededError(
                        f"load of {mat.value}({row},{col}) exceeds capacity {cap}"
                    )
                state[e] = 1
                fast[e] = slow[e]
                reads += 1
                occupancy += 1
                if occupancy > peak:
                    peak = occupancy
                continue
            # store or evict: both free the slot
            if cls is Store:
                if not status:
                    raise StoreNonResidentError(
                        f"store of non-resident C({row},{col})"
                    )
                slow[e] = fast[e]
                writes += 1
            elif not status:
                raise NonResidentOperandError(
                    f"evict of non-resident {mat.value}({row},{col})"
                )
            elif status == 2:
                raise DirtyEvictionError(
                    f"evict of dirty C({row},{col}); store it first"
                )
            state[e] = 0
            occupancy -= 1
    except (SimulationError, OutOfBoundsError) as exc:
        # the iterator knows how many events are left; the failing one was
        # the last it handed out
        _locate(exc, len(events) - operator.length_hint(it) - 1)
        raise

    dirty = state.find(2, c_off)
    if dirty >= 0:
        i, j = divmod(dirty - c_off, n)
        message = f"dirty C({i},{j}) still resident at end of schedule"
        raise _locate(IncompleteWritebackError(message), len(events))

    stats = IOStats(reads=reads, writes=writes, fmas=fmas, peak_residency=peak)
    output_c = np.array(slow[c_off:], dtype=float).reshape(m, n)
    return ExecutionResult(stats=stats, trace=schedule, output_c=output_c)


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


_EVENT_LETTER = {Load: "L", Store: "S", Evict: "E"}
_EVENT_CLASS = {letter: cls for cls, letter in _EVENT_LETTER.items()}
# dict lookup is much cheaper than Matrix(letter); Matrix() still raises on a miss
_MATRIX_BY_LETTER = {matrix.value: matrix for matrix in Matrix}


def dump_trace(schedule: Schedule) -> str:
    """Render a schedule in the line-per-event wire format.

    Lines are ``L A i j`` / ``S C i j`` / ``E X i j`` / ``F i j p`` with a
    trailing newline; all-ASCII, LF line endings.
    """
    lines = []
    for event in schedule.events:
        if isinstance(event, Fma):
            lines.append(f"F {event.i} {event.j} {event.p}")
        else:
            letter = _EVENT_LETTER[type(event)]
            ref = event.ref
            lines.append(f"{letter} {ref.matrix.value} {ref.row} {ref.col}")
    return "\n".join(lines) + ("\n" if lines else "")


def _event_lines(text: str):
    """(1-based line number, fields) of each line of a trace that holds an event."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if parts:
            yield lineno, parts


def parse_trace(text: str, dims: ProblemDims) -> Schedule:
    """Inverse of dump_trace. Raises ValueError on malformed lines.

    A ``#`` starts a comment that runs to the end of the line; blank and
    comment-only lines are skipped.
    """
    events: list = []
    for lineno, parts in _event_lines(text):
        kind = parts[0]
        try:
            if kind == "F":
                if len(parts) != 4:
                    raise ValueError("expected 'F i j p'")
                events.append(Fma(int(parts[1]), int(parts[2]), int(parts[3])))
            elif kind in _EVENT_CLASS:
                if len(parts) != 4:
                    raise ValueError(f"expected '{kind} X row col'")
                matrix = _MATRIX_BY_LETTER.get(parts[1]) or Matrix(parts[1])
                ref = OperandRef(matrix, int(parts[2]), int(parts[3]))
                events.append(_EVENT_CLASS[kind](ref))
            else:
                raise ValueError(f"unknown event letter {kind!r}")
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return Schedule(tuple(events), dims)


def trace_line(text: str, index: int) -> int:
    """1-based line of the trace text that parse_trace() read event ``index`` from."""
    return next(itertools.islice(_event_lines(text), index, None))[0]
