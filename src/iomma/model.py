"""Core value types for two-level I/O accounting of C := A*B + C.

Everything downstream (the simulator, the schedule generators, the phase
analyzer) speaks in these types: a problem shape and its operand map, the
opcodes and matrix codes of a trace's rows, and the schedule that holds a
trace as one array of those integer codes.
"""

from __future__ import annotations

import functools
import itertools
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


@functools.lru_cache(maxsize=256)
def layout(dims: ProblemDims) -> tuple[tuple[int, int, int], ...]:
    """(rows, cols, first element id) of A, B and C, whose elements take
    consecutive ids, each matrix row-major. Cached: the result is immutable
    and execute() asks for it on every chunk."""
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


# opcodes of a trace's code rows; matrices are coded 0, 1, 2 in Matrix order
OP_LOAD, OP_STORE, OP_EVICT, OP_FMA = 0, 1, 2, 3
MATRICES = tuple(Matrix)
MATRIX_CODE = {matrix: code for code, matrix in enumerate(MATRICES)}
_CHUNK = 1 << 12  # code rows handled per step; bounds each step's temporary arrays


class Schedule:
    """An ordered event trace together with the problem shape it targets.

    The trace is ``codes``, a read-only (N, 4) int64 array with one row per
    event: the opcode (OP_LOAD, OP_STORE, OP_EVICT or OP_FMA), then the
    matrix code, row and col; an fma uses the three fields for i, j and p.
    ``Schedule(codes, dims)`` takes a read-only copy of integer code rows.
    A schedule is immutable.
    """

    __slots__ = ("codes", "dims", "_legal")

    def __init__(self, codes, dims: ProblemDims):
        """Copy an (N, 4) array or sequence of integer code rows; an empty
        sequence is zero events. Rejects other dtypes, bool and uint64
        included, a bool anywhere in a sequence, values beyond int64, and
        unknown opcodes and matrices."""
        # np.asarray reads a bool among Python ints as an int
        elements = () if isinstance(codes, np.ndarray) else np.array(codes, dtype=object).flat
        codes = np.asarray(codes)
        if codes.size == 0 and codes.ndim == 1:
            codes = codes.astype(np.int64).reshape(0, 4)
        dtype = codes.dtype
        if any(isinstance(element, (bool, np.bool_)) for element in elements):
            dtype = np.dtype(bool)
        if dtype.kind not in "iu" or not np.can_cast(dtype, np.int64):
            raise ValueError(f"codes must be integers within int64, got dtype {dtype}")
        codes = codes.astype(np.int64)
        if codes.ndim != 2 or codes.shape[1] != 4:
            raise ValueError(f"codes must have shape (N, 4), got {codes.shape}")
        ops = codes[:, 0]
        if ((ops < OP_LOAD) | (ops > OP_FMA)).any():
            raise ValueError("unknown opcode in codes")
        matrices = codes[ops != OP_FMA, 1]
        if ((matrices < 0) | (matrices >= len(MATRICES))).any():
            raise ValueError("unknown matrix code in codes")
        self._adopt(codes, dims)

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
    def events(self) -> np.ndarray:
        """Another name for ``codes``: one row per event, so ``len`` counts
        the events."""
        return self.codes

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

