"""Core value types for two-level I/O accounting of C := A*B + C.

Everything downstream (the simulator, the schedule generators, the phase
analyzer) speaks in these types: a problem shape and its operand map, references
to individual matrix elements, the four kinds of trace events, and the schedule
that holds a trace as one array of integer codes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np


def _check_positive(**named: int) -> None:
    """Reject any named value that is not an int of at least 1; bools count
    as not an int."""
    for name, value in named.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


class Matrix(str, Enum):
    """Which of the three operand matrices an element belongs to."""

    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True, slots=True)
class ProblemDims:
    """Shape of the multiply-accumulate: A is m-by-k, B is k-by-n, C is m-by-n."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        _check_positive(m=self.m, n=self.n, k=self.k)


# The operand map, the one statement of which element an fma touches: the
# fma axes i, j, p (0, 1, 2) that index the rows and cols of A, B and C, in
# Matrix order. An fma (i, j, p) reads a(i,p) and b(p,j) and updates c(i,j).
OPERAND_AXES = ((0, 2), (2, 1), (0, 1))


def layout(dims: ProblemDims) -> tuple[tuple[int, int, int], ...]:
    """(rows, cols, first element id) of A, B and C, whose elements take
    consecutive ids, each matrix row-major."""
    extent = (dims.m, dims.n, dims.k)
    shapes = [(extent[row_axis], extent[col_axis]) for row_axis, col_axis in OPERAND_AXES]
    firsts = itertools.accumulate((rows * cols for rows, cols in shapes), initial=0)
    return tuple((rows, cols, first) for (rows, cols), first in zip(shapes, firsts))


def fma_operand_ids(dims: ProblemDims, i, j, p) -> tuple:
    """``layout`` ids of the A, B and C an fma (i, j, p) touches, for ints or
    numpy arrays; A's first id, 0, is not added, saving arrays a pass."""
    ijp = (i, j, p)
    return tuple(
        ijp[row_axis] * cols + ijp[col_axis] + first if first
        else ijp[row_axis] * cols + ijp[col_axis]
        for (_, cols, first), (row_axis, col_axis) in zip(layout(dims), OPERAND_AXES)
    )


@dataclass(frozen=True, slots=True)
class OperandRef:
    """A single scalar element, identified by matrix and zero-based position."""

    matrix: Matrix
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class Load:
    """Copy one element from slow to fast memory. Costs one read."""

    ref: OperandRef


@dataclass(frozen=True, slots=True)
class Store:
    """Write a C element back to slow memory and free its slot. Costs one write."""

    ref: OperandRef


@dataclass(frozen=True, slots=True)
class Evict:
    """Free the slot of a clean resident element. Free of charge."""

    ref: OperandRef


@dataclass(frozen=True, slots=True)
class Fma:
    """c(i,j) += a(i,p) * b(p,j); all three operands must be resident."""

    i: int
    j: int
    p: int


TraceEvent = Load | Store | Evict | Fma


# opcodes of a trace's code rows; matrices are coded 0, 1, 2 in Matrix order
OP_LOAD, OP_STORE, OP_EVICT, OP_FMA = 0, 1, 2, 3
_EVENT_TYPES = (Load, Store, Evict)
_OPCODE = {cls: op for op, cls in enumerate(_EVENT_TYPES)}
MATRICES = tuple(Matrix)
MATRIX_CODE = {matrix: code for code, matrix in enumerate(MATRICES)}
_CHUNK = 1 << 12  # code rows handled per step; bounds the per-step Python lists
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _decode(op: int, f1: int, f2: int, f3: int) -> TraceEvent:
    if op == OP_FMA:
        return Fma(f1, f2, f3)
    return _EVENT_TYPES[op](OperandRef(MATRICES[f1], f2, f3))


def _encode(events: Iterable[TraceEvent]) -> np.ndarray:
    """Code rows of events; a field that is not an int in int64 (bool is not)
    or a matrix that is not a Matrix raises ValueError naming the event."""
    rows = []
    for index, event in enumerate(events):
        cls = event.__class__
        if cls is Fma:
            row = (OP_FMA, event.i, event.j, event.p)
        else:
            op = _OPCODE.get(cls)
            if op is None:
                raise TypeError(f"unknown event type {cls.__name__}")
            ref = event.ref
            if not isinstance(ref.matrix, Matrix):
                raise ValueError(f"event {index}: matrix must be a Matrix, got {ref.matrix!r}")
            row = (op, MATRIX_CODE[ref.matrix], ref.row, ref.col)
        for field in row[1:]:
            if not isinstance(field, int) or isinstance(field, bool) or not _INT64_MIN <= field <= _INT64_MAX:
                raise ValueError(f"event {index}: fields must be int64 integers, got {field!r}")
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


class EventView(Sequence):
    """Read-only sequence of the events a code array holds, decoded on access.

    ``len`` is O(1) and decodes nothing. A view equals another view of the
    same codes, and a tuple or list of the same events.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventView(self.codes[index])
        return _decode(*self.codes[index].tolist())

    def __iter__(self):
        for start in range(0, len(self.codes), _CHUNK):
            for row in self.codes[start:start + _CHUNK].tolist():
                yield _decode(*row)

    def __eq__(self, other):
        if isinstance(other, EventView):
            return np.array_equal(self.codes, other.codes)
        if isinstance(other, (tuple, list)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"EventView(<{len(self)} events>)"


class Schedule:
    """An ordered event trace together with the problem shape it targets.

    The trace is ``codes``, a read-only (N, 4) int64 array with one row per
    event: the opcode (OP_LOAD, OP_STORE, OP_EVICT or OP_FMA), then the
    matrix code, row and col; an fma uses the three fields for i, j and p.
    ``Schedule(events, dims)`` encodes a sequence of Load/Store/Evict/Fma
    events once; ``Schedule.from_codes`` copies a code array. ``events``
    is a view that decodes on access. A schedule is immutable.
    """

    __slots__ = ("codes", "dims", "_legal")

    def __init__(self, events: Iterable[TraceEvent], dims: ProblemDims):
        self._adopt(_encode(events), dims)

    @classmethod
    def from_codes(cls, codes, dims: ProblemDims) -> "Schedule":
        """Wrap a read-only int64 copy of an (N, 4) integer code array.
        Rejects other dtypes, bool included, and unknown opcodes and matrices."""
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
        codes = codes.astype(np.int64)
        if codes.ndim != 2 or codes.shape[1] != 4:
            raise ValueError(f"codes must have shape (N, 4), got {codes.shape}")
        ops = codes[:, 0]
        if ((ops < OP_LOAD) | (ops > OP_FMA)).any():
            raise ValueError("unknown opcode in codes")
        matrices = codes[ops != OP_FMA, 1]
        if ((matrices < 0) | (matrices >= len(MATRICES))).any():
            raise ValueError("unknown matrix code in codes")
        return cls._wrap(codes, dims)

    @classmethod
    def _wrap(cls, codes: np.ndarray, dims: ProblemDims) -> "Schedule":
        """Take over valid codes that nothing else holds, without a copy."""
        schedule = cls.__new__(cls)
        schedule._adopt(codes, dims)
        return schedule

    def _adopt(self, codes: np.ndarray, dims: ProblemDims) -> None:
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "dims", dims)
        # True once execute() has accepted the codes; sound because neither
        # the codes nor the dims can change
        object.__setattr__(self, "_legal", False)

    def _mark_legal(self) -> None:
        object.__setattr__(self, "_legal", True)

    def __setattr__(self, name, value):
        raise AttributeError(f"Schedule is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Schedule is immutable; cannot delete {name!r}")

    @property
    def events(self) -> EventView:
        return EventView(self.codes)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.codes, other.codes)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Schedule(<{len(self.codes)} events>, {self.dims!r})"


@dataclass(frozen=True, slots=True)
class IOStats:
    """Exact counters produced by executing a schedule.

    ``reads_a``, ``reads_b`` and ``reads_c`` split ``reads`` by operand.
    """

    reads: int
    writes: int
    fmas: int
    peak_residency: int
    reads_a: int
    reads_b: int
    reads_c: int

    def __post_init__(self):
        for name in ("reads", "writes", "fmas", "peak_residency",
                     "reads_a", "reads_b", "reads_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.reads_a + self.reads_b + self.reads_c != self.reads:
            raise ValueError("reads_a + reads_b + reads_c must equal reads")

    @property
    def io_total(self) -> int:
        return self.reads + self.writes


def fma_count(dims: ProblemDims) -> int:
    """Total multiply-accumulates a complete schedule must perform: m*n*k."""
    return dims.m * dims.n * dims.k

