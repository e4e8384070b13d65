"""Core value types for two-level I/O accounting of C := A*B + C.

Everything downstream (the simulator, the schedule generators, the phase
analyzer) speaks in these types: a problem shape and its operand map, the
opcodes and matrix codes of a trace's rows, and the schedule that holds a
trace as runs of those integer codes and yields them a chunk at a time.
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
# Per row kind (a load's, store's or evict's matrix code, or 3 for an fma)
# and code field, the axis (i, j, p = 0, 1, 2) whose offset the field adds
# when a run moves its template, or 3 for none: the opcode and the matrix
# never move, a row and col move with the axes OPERAND_AXES gives them, and
# an fma's fields are its i, j and p.
_MOVE_AXES = np.array([(3, 3, row, col) for row, col in OPERAND_AXES] + [(3, 0, 1, 2)])


class Schedule:
    """An ordered event trace together with the problem shape it targets.

    Each event is a code row of four int64 fields: the opcode (OP_LOAD,
    OP_STORE, OP_EVICT or OP_FMA), then the matrix code, row and col; an
    fma uses the three fields for i, j and p. A schedule holds its rows as
    runs: a template block of rows and a (B, 3) array of (i, j, p) moves.
    The run's rows are the template moved by each offset in turn, each
    field adding the offset of the axis it reads (``_MOVE_AXES``). A literal
    trace is one run with a single zero move; its rows may instead be read
    from a file on each walk (see ``memsim.parse_trace``).

    ``chunks()`` yields the rows a bounded block at a time; ``codes`` builds
    the whole (N, 4) array on each call. ``Schedule(codes, dims)`` takes a
    read-only copy of integer code rows. A schedule is immutable.
    """

    __slots__ = ("_runs", "dims", "_length", "_legal")

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
        self._adopt([_literal(codes)], dims)

    @classmethod
    def _wrap(cls, codes, dims: ProblemDims) -> "Schedule":
        """Take over valid codes that nothing else holds, without a copy, or
        a reader of them: a sized object whose ``chunks()`` yields them."""
        schedule = cls.__new__(cls)
        schedule._adopt([_literal(codes)], dims)
        return schedule

    @classmethod
    def _tiled(cls, runs, dims: ProblemDims) -> "Schedule":
        """Take over runs of valid (template, (B, 3) moves) that nothing else
        holds, without a copy. A template may serve several runs."""
        kinds = {}
        adopted = []
        for template, moves in runs:
            if id(template) not in kinds:
                kinds[id(template)] = _kinds(template)
            adopted.append((template, kinds[id(template)], _padded(moves)))
        schedule = cls.__new__(cls)
        schedule._adopt(adopted, dims)
        return schedule

    def _adopt(self, runs: list, dims: ProblemDims) -> None:
        """Hold runs of (template, kinds, moves): each row's kind indexes
        ``_MOVE_AXES``, and each move has a fourth, zero field. A literal run,
        which has no kinds and one zero move, comes alone. Runs without rows
        are dropped."""
        runs = tuple(run for run in runs if len(run[0]) and len(run[2]))
        for template, _, _ in runs:
            if isinstance(template, np.ndarray):  # not rows read from a file
                template.flags.writeable = False
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_length", sum(len(template) * len(moves) for template, _, moves in runs))
        # True once execute() has accepted the codes; sound because neither
        # the codes nor the dims can change
        object.__setattr__(self, "_legal", False)

    def _mark_legal(self) -> None:
        object.__setattr__(self, "_legal", True)

    def __setattr__(self, name, value):
        raise AttributeError(f"Schedule is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Schedule is immutable; cannot delete {name!r}")

    def __len__(self) -> int:
        return self._length

    def chunks(self):
        """Yield the code rows in order as read-only (rows, 4) arrays, every
        one but the last of exactly ``_CHUNK`` rows, read when the first is
        drawn. A chunk may be a view of one reused buffer, valid only until
        the next is drawn, so copy what must outlive that."""
        return _chunks(self._runs)

    @property
    def codes(self) -> np.ndarray:
        """The whole trace as a read-only (N, 4) array, built on each call."""
        codes = np.empty((self._length, 4), dtype=np.int64)
        start = 0
        for chunk in self.chunks():
            codes[start:start + len(chunk)] = chunk
            start += len(chunk)
        codes.flags.writeable = False
        return codes

    @property
    def events(self) -> np.ndarray:
        """Another name for ``codes``: one row per event, so ``len`` counts
        the events. Like ``codes`` it builds the whole array."""
        return self.codes

    def _value_range(self) -> tuple[int, int]:
        """The least and greatest value in the codes and zero, from each
        run's template and the range of its moves."""
        lo = hi = 0
        for template, kinds, moves in self._runs:
            if kinds is None:
                for chunk in self.chunks():
                    lo, hi = min(lo, int(chunk.min())), max(hi, int(chunk.max()))
                continue
            axes = _MOVE_AXES[kinds]
            lo = min(lo, int((template + moves.min(axis=0)[axes]).min()))
            hi = max(hi, int((template + moves.max(axis=0)[axes]).max()))
        return lo, hi

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        if self.dims != other.dims or len(self) != len(other):
            return False
        return all(map(np.array_equal, self.chunks(), other.chunks()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Schedule(<{len(self)} events>, {self.dims!r})"


def _chunks(runs):
    """The rows of runs of (template, kinds, moves), as ``Schedule.chunks``
    yields them: a literal run, which comes alone, as views of its codes or
    as its file reader yields them, and other runs moved into one reused
    buffer."""
    size = _CHUNK
    if len(runs) == 1 and runs[0][1] is None:
        codes = runs[0][0]
        if not isinstance(codes, np.ndarray):  # rows read from a file
            yield from codes.chunks()
            return
        for start in range(0, len(codes), size):
            yield codes[start:start + size]
        return
    length = sum(len(template) * len(moves) for template, _, moves in runs)
    if not length:
        return
    buffer = np.empty((min(size, length), 4), dtype=np.int64)
    fill = 0
    for template, kinds, moves in runs:
        rows = len(template)
        move = start = 0  # the next row is template row start of move
        while move < len(moves):
            room = size - fill
            if not start and room >= rows:  # whole moves
                count, end = min(room // rows, len(moves) - move), rows
            else:  # part of one move
                count, end = 1, min(rows, start + room)
            out = buffer[fill:fill + count * (end - start)].reshape(count, end - start, 4)
            _move(template[start:end], kinds[start:end], moves[move:move + count], out)
            fill += out.size // 4
            start = end % rows
            if not start:
                move += count
            if fill == size:
                yield _frozen(buffer)
                fill = 0
    if fill:
        yield _frozen(buffer[:fill])


def _kinds(template: np.ndarray) -> np.ndarray:
    """Each row's kind: its matrix code, or 3 for an fma."""
    return np.where(template[:, 0] == OP_FMA, 3, template[:, 1])


def _padded(moves: np.ndarray) -> np.ndarray:
    """(i, j, p) moves with a fourth, zero field: the offset of fields that
    never move."""
    padded = np.zeros((len(moves), 4), dtype=np.int64)
    padded[:, :3] = moves
    return padded


def _move(template: np.ndarray, kinds: np.ndarray, moves: np.ndarray, out: np.ndarray) -> None:
    """Write the template moved by each padded move into out, shaped
    (moves, template rows, 4)."""
    moves.take(_MOVE_AXES, axis=1).take(kinds, axis=1, out=out, mode="clip")
    out += template


def _moved(template: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The rows of a run as one array: the template moved by each (i, j, p)
    move in turn."""
    rows = np.empty((len(moves), len(template), 4), dtype=np.int64)
    _move(template, _kinds(template), _padded(moves), rows)
    return rows.reshape(-1, 4)


def _literal(codes: np.ndarray) -> tuple:
    """The run of code rows as they are."""
    return codes, None, np.zeros((1, 4), dtype=np.int64)


def _frozen(rows: np.ndarray) -> np.ndarray:
    view = rows[:]
    view.flags.writeable = False
    return view


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

