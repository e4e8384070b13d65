"""Two-level memory simulator.

Fast memory holds at most S scalars and starts empty; slow memory holds the
three matrices. The simulator executes a schedule's events in order,
enforces residency and capacity rules, counts every transfer, and checks
that all accumulated C values reach slow memory before the schedule ends.

A scalar slot is the unit of accounting: no cache lines, no replacement
policy. Eviction of clean data is explicit and free; writing back a dirty
C element costs one write.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import model
from .model import (
    MATRICES,
    MATRIX_CODE,
    OP_EVICT,
    OP_FMA,
    OP_LOAD,
    OP_STORE,
    IOStats,
    Matrix,
    ProblemDims,
    Schedule,
    _check_positive,
    fma_operand_ids,
    layout,
)


class SimulationError(Exception):
    """Base class for schedule-execution failures. ``index`` is the position
    of the offending event in the schedule; see execute()."""

    index: int | None = None


class OutOfBoundsError(SimulationError, ValueError):
    """An event coordinate falls outside the problem dimensions.

    ``coordinate`` names the offending index ("i", "j", "p", "row" or "col").
    """

    def __init__(self, coordinate: str, message: str):
        super().__init__(message)
        self.coordinate = coordinate


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
    output_c: np.ndarray


def _flat(mat, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape != (rows, cols):
        raise ShapeMismatchError(
            f"{name} must have shape ({rows}, {cols}), got {arr.shape}"
        )
    return arr.ravel()


_C = MATRIX_CODE[Matrix.C]
# A touch is one element used by one event: a load, store or evict touches
# its element, an fma its A, B and C. Its kind is the event's opcode, except
# that an fma's use of C is _FMA_C.
_FMA_C = OP_FMA + 1
# the state a legal touch leaves, by kind, whatever the state before: a load
# leaves its element clean, a store or evict absent, an fma its A and B
# clean and its C dirty
_AFTER = np.array([1, 0, 0, 1, 2], dtype=np.int8)
# whether a touch breaks a rule, at kind * 3 + state before (absent, clean, dirty)
_ILLEGAL = np.array([
    False, True, True,   # load of a resident element
    True, False, False,  # store of an absent one
    True, False, True,   # evict of an absent or dirty one
    True, False, False,  # fma on an absent A or B
    True, False, False,  # fma on an absent C
])
_LEVEL_STEP = np.array([1, -1, -1, 0])  # occupancy change, by opcode
_FAR = 1 << 62  # a bound no move reaches, on an axis that no template field reads


class _TouchKeys:
    """Sort keys for the touches of a chunk of up to ``size`` events over
    ``elements`` element ids.

    Event e's touches sit at positions 3e, 3e + 1 and 3e + 2: its element,
    or an fma's A, then its B and C. A touch's key is its element id shifted
    left past the positions, or'ed with its position, so the keys are
    distinct and sort into element order, each element's touches in event
    order. ``kinds`` holds each position's touch kind; the first of each
    three is set per chunk.
    """

    def __init__(self, elements: int, size: int):
        self.shift = (3 * size - 1).bit_length()
        self.dtype = np.uint32 if elements << self.shift <= 1 << 32 else np.uint64
        self.positions = np.arange(3 * size, dtype=self.dtype).reshape(size, 3).T.copy()
        self.kinds = np.empty(3 * size, dtype=np.intp)
        self.kinds[1::3] = OP_FMA
        self.kinds[2::3] = _FMA_C


class _Moves:
    """What every move of a template does that keeps its fields in bounds,
    from one replay of it that starts and ends with fast memory empty: that
    replay's ``counts``, and its peak, which the replay has already set. A
    move d is in bounds when least <= d < limit on every axis. ``fmas``
    indexes the template's fma rows: an int32 each, a sixth of their ids."""

    def __init__(self, template, kinds, dims: ProblemDims, counts):
        self.template, self.dims, self.counts = template, dims, counts
        # each axis's least and greatest field; slot 3 takes the fields that never move
        axes, fields = model._MOVE_AXES.take(kinds, axis=0).ravel(), template.ravel()
        least, most = np.full(4, _FAR), np.full(4, -_FAR)
        np.minimum.at(least, axes, fields)
        np.maximum.at(most, axes, fields)
        self.least, self.limit = -least[:3], np.array((dims.m, dims.n, dims.k)) - most[:3]
        self.fmas = np.flatnonzero(template[:, 0] == OP_FMA).astype(np.int32)
        self.origin = np.array(fma_operand_ids(dims, 0, 0, 0))[:, None]

    def legal(self, moves) -> int:
        """How many of the padded moves come before the first out of bounds."""
        steps = moves[:, :3]
        bad = ((steps < self.least) | (steps >= self.limit)).any(axis=1)
        return int(bad.argmax()) if bad.any() else len(moves)

    def do_fmas(self, moves, values) -> None:
        """Do the fmas of the template moved by each padded move, in event
        order, a block of at most ``_CHUNK`` fmas, or one move's, at a time.
        An operand id is linear in the fma's fields, so a move adds its own
        ids, less those of the zero move, to the template's."""
        if not len(self.fmas):
            return
        ids = np.array(fma_operand_ids(self.dims, *self.template.take(self.fmas, axis=0)[:, 1:].T))
        offsets = np.array(fma_operand_ids(self.dims, *moves[:, :3].T)) - self.origin
        step = max(1, model._CHUNK // len(self.fmas))
        for first in range(0, len(moves), step):
            xs, ys, zs = (ids[:, None, :] + offsets[:, first:first + step, None]).reshape(3, -1)
            np.add.at(values, zs, values[xs] * values[ys])


class _Replay:
    """Replays code rows from empty fast memory a chunk at a time, carrying
    the state, and counts them: ``feed`` each chunk in order, then
    ``finish``. A broken rule raises its SimulationError, located at the
    event's index. ``values`` holds every element's value, ids as in
    layout(); the fmas update it."""

    def __init__(self, dims: ProblemDims, cap: int, values, length: int):
        self.dims, self.cap, self.values = dims, cap, values
        # state per element id is 0 (absent), 1 (clean) or 2 (dirty)
        self.state = np.zeros(len(values), dtype=np.int8)
        self.occupancy = self.peak = self.start = 0
        self.table = _event_table(dims)
        self.keys = _TouchKeys(len(values), min(model._CHUNK, length))
        # events by op * 3 + matrix, every fma in the last bin
        self.counts = np.zeros(10, dtype=np.int64)

    def feed(self, chunk):
        """Replay the chunk; return its opcodes and element ids, as
        _operand_ids() gives them."""
        ops, xs, ys, zs, rows = _operand_ids(chunk, self.dims, self.table)
        done, self.occupancy, self.peak = _replay(
            ops, xs, ys, zs, self.values, self.state, self.occupancy, self.peak, self.cap, self.keys)
        if done < len(chunk):
            error = _event_error(chunk[done].tolist(), self.dims, self.state, self.cap)
            raise _locate(error, self.start + done)
        self.counts += np.bincount(np.minimum(rows, 9), minlength=10)
        self.start += done
        return ops, xs, ys, zs

    def finish(self) -> IOStats:
        """The counts, once no dirty C is left in fast memory."""
        _, c_cols, c_off = layout(self.dims)[_C]
        dirty = self.state[c_off:] == 2
        if dirty.any():
            row, col = divmod(int(dirty.argmax()), c_cols)
            message = f"dirty C({row},{col}) still resident at end of schedule"
            raise _locate(IncompleteWritebackError(message), self.start)
        reads_a, reads_b, reads_c, *stores = self.counts[:6].tolist()
        return IOStats(
            reads=reads_a + reads_b + reads_c, writes=sum(stores), fmas=int(self.counts[9]),
            peak_residency=self.peak, reads_a=reads_a, reads_b=reads_b, reads_c=reads_c,
        )


# non-finite inputs give inf and nan silently, in the fmas of _replay and _Moves
@np.errstate(over="ignore", invalid="ignore")
def execute(
    schedule: Schedule, config: MemoryConfig, a, b, c_in
) -> ExecutionResult:
    """Run a schedule and count every transfer exactly.

    Loads of C bring the current slow-memory value in clean; the first Fma on
    a C slot marks it dirty; a store writes the slot back and frees it. The
    schedule must leave no dirty slot behind. Returns the counters and the
    final C as a fresh array.

    This is the one home of the model's rules. A failure's ``index`` is the
    offending event's position (the schedule's length for a missing
    writeback), and its message starts with ``event <index>: ``.

    Rows are replayed a chunk at a time, except later moves of a template
    with more than one move and at least a chunk of rows in the schedule:
    once one move of it, replayed from empty fast memory, has left it empty,
    each later move, in any run, entered empty and in bounds touches the same
    elements shifted, so it adds that replay's counts and peak and only does
    its fmas. The chunk replay decides every error.
    """
    dims = schedule.dims
    shapes = layout(dims)
    c_rows, c_cols, c_off = shapes[_C]
    # one value per element serves as both copies: a fast copy differs from
    # slow memory only while dirty, and a dirty slot cannot leave fast
    # memory except by a store
    values = np.concatenate([
        _flat(mat, rows, cols, name)
        for (rows, cols, _), mat, name in zip(shapes, (a, b, c_in), ("a", "b", "c_in"))
    ])
    replay = _Replay(dims, config.S, values, len(schedule))

    def flush(runs):
        for chunk in model._chunks(runs):
            replay.feed(chunk)

    # each template's rows in the schedule; other rows wait in pending
    rows_of = {}
    for template, _, moves in schedule._runs:
        rows_of[id(template)] = rows_of.get(id(template), 0) + len(template) * len(moves)
    facts = {}  # by template id, stable while the schedule holds its runs
    pending = []
    for run in schedule._runs:
        template, kinds, moves = run
        if not len(template) < rows_of[id(template)] >= model._CHUNK:
            pending.append(run)
            continue
        flush(pending)
        pending = []
        if replay.occupancy:
            pending.append(run)
            continue
        if id(template) not in facts:
            before = replay.counts.copy()
            flush([(template, kinds, moves[:1])])
            facts[id(template)] = None if replay.occupancy else _Moves(template, kinds, dims, replay.counts - before)
            moves = moves[1:]
        fact = facts[id(template)]
        legal = fact.legal(moves) if fact else 0
        if legal:
            fact.do_fmas(moves[:legal], values)
            replay.counts += legal * fact.counts
            replay.start += legal * len(template)
        if legal < len(moves):
            pending.append((template, kinds, moves[legal:]))
    flush(pending)
    stats = replay.finish()
    output_c = values[c_off:].reshape(c_rows, c_cols).copy()
    schedule._mark_legal()
    return ExecutionResult(stats=stats, output_c=output_c)


@functools.lru_cache(maxsize=256)
def _event_table(dims: ProblemDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per event row index op * 3 + matrix, then one last row for an fma:
    the bounds of the four code fields as unsigned ints, then the first
    element id and the cols of the element's matrix. The opcode's bound
    always holds, since a Schedule's opcodes are valid; a store of A or B
    gets a matrix bound of 0. Cached, so the arrays are read-only."""
    shapes = layout(dims)
    bounds, firsts, cols = [], [], []
    for op in (OP_LOAD, OP_STORE, OP_EVICT):
        for code, (rows, width, first) in enumerate(shapes):
            read_only = op == OP_STORE and code != _C
            bounds.append((OP_FMA + 1, 0 if read_only else len(MATRICES), rows, width))
            firsts.append(first)
            cols.append(width)
    bounds.append((OP_FMA + 1, dims.m, dims.n, dims.k))
    firsts.append(0)
    cols.append(dims.k)
    table = np.array(bounds, dtype=np.uint64), np.array(firsts), np.array(cols)
    for column in table:
        column.flags.writeable = False
    return table


def _operand_ids(chunk: np.ndarray, dims: ProblemDims, table):
    """Opcodes and element ids of the chunk's events up to its first bounds
    or read-only-store violation, as arrays, then their rows of ``table``,
    which is _event_table().

    A load, store or evict names its element in the first id array; an fma
    names its A, B and C elements in the three arrays. A row is op * 3 +
    matrix, or at least 9 for an fma.
    """
    bounds, firsts, cols = table
    op, f1, f2, f3 = np.ascontiguousarray(chunk.T)
    # an fma (i, j, p) takes the last row, to which 9 + i clips; an i
    # outside [0, m) fails the i bound in whichever row it takes
    row = op * 3 + f1
    # a negative field reads as a huge unsigned one
    over = chunk.view(np.uint64) >= np.take(bounds, row, axis=0, mode="clip")
    end = int(over.argmax()) // 4 if over.any() else len(chunk)
    op, f1, f2, f3, row = (column[:end] for column in (op, f1, f2, f3, row))
    fma = op == OP_FMA
    a_ids, ys, zs = fma_operand_ids(dims, f1, f2, f3)
    first, width = (np.take(column, row, mode="clip") for column in (firsts, cols))
    xs = np.where(fma, a_ids, first + f2 * width + f3)
    return op, xs, ys, zs, row


def _replay(ops, xs, ys, zs, values, state, occupancy, peak, cap, keys):
    """Apply events in order until one breaks a residency or capacity rule.

    Returns the number applied, then occupancy and peak after them. A legal
    touch leaves a state set by its kind alone, so the state before each
    touch is the one its element's previous touch in the chunk left, or the
    carried state at its first. Until the first illegal event every derived
    state is the true one, which makes that event exact. ``keys`` is a
    _TouchKeys for the chunk.
    """
    count = len(ops)
    if not count:
        return 0, occupancy, peak
    fmas = np.flatnonzero(ops == OP_FMA)
    grid = np.concatenate((xs, ys, zs), dtype=keys.dtype, casting="unsafe").reshape(3, count)
    grid <<= keys.shift
    grid |= keys.positions[:, :count]
    touches = np.sort(np.concatenate((grid[0], grid[1, fmas], grid[2, fmas])))
    ids = (touches >> keys.shift).astype(np.intp)
    positions = (touches & ((1 << keys.shift) - 1)).astype(np.intp)
    kinds = keys.kinds
    kinds[0:3 * count:3] = ops
    kinds = kinds[positions]
    after = _AFTER[kinds]
    first = np.concatenate(([True], ids[1:] != ids[:-1]))
    before = np.where(first, state[ids], np.concatenate(([0], after[:-1])))
    # an event fails if a touch of it is illegal or, for a load, if it
    # pushes occupancy past the capacity; occupancy rises only at loads
    level = occupancy + np.cumsum(_LEVEL_STEP[ops])
    failed = level > cap
    illegal = _ILLEGAL[kinds * 3 + before]
    if illegal.any():
        failed[positions[illegal] // 3] = True
    done = int(failed.argmax()) if failed.any() else count
    if not done:
        return 0, occupancy, peak

    # each element's last touch in the legal prefix sets its state
    last = np.concatenate((first[1:], [True]))
    if done < count:
        applied = positions < 3 * done
        last[:-1] |= ~applied[1:]
        last &= applied
        fmas = fmas[:np.searchsorted(fmas, done)]
    last = np.flatnonzero(last)
    state[ids[last]] = after[last]
    # A and B never change, and add.at applies its updates in event order
    np.add.at(values, zs[fmas], values[xs[fmas]] * values[ys[fmas]])
    return done, int(level[done - 1]), max(peak, int(level[:done].max()))


def _event_error(row: list[int], dims: ProblemDims, state, cap: int):
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
    same order, so on finite inputs simulator output agrees with this loop
    bit for bit. The loop runs as one rank-1 update of all of C per p, which
    keeps each c(i,j)'s left fold over p; non-finite inputs give inf and nan
    silently, and where two NaNs meet, the sign or payload of the NaN here
    and in ``execute`` may differ.
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
    out = c_arr.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(k):
            out += a_arr[:, p, None] * b_arr[None, p, :]
    return out


# the head word of a load, store or evict line, one per (opcode, matrix) pair
_HEADS = tuple(f"{letter} {matrix.value} " for letter in "LSE" for matrix in MATRICES)
# the %-format pattern of a line, by opcode; a load's, store's or evict's %c
# takes its matrix code + ord("A"), the code point of its letter
_PATTERNS = np.array([f"{letter} %c %d %d\n" for letter in "LSE"] + ["F %d %d %d\n"], dtype=object)
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
    return "".join(_chunk_texts(schedule))


def write_trace(schedule: Schedule, handle) -> None:
    """Write dump_trace()'s text to an open text file a chunk at a time."""
    for text in _chunk_texts(schedule):
        handle.write(text)


def _chunk_texts(schedule: Schedule):
    """The lines of each chunk of the schedule, as one string per chunk."""
    # When each value of the codes serves at least two lines, a line is
    # three words of one table over the values: a head ("L A " ... "E C ",
    # or "F i " for an fma), a coordinate and a space, and a coordinate and
    # a newline, each row numbered by value - lo. A table word used about
    # once costs more than formatting the line, so other traces fill each
    # line's pattern. The span covers opcodes and matrix codes too, which
    # the schedule's runs give without a pass over the rows, and zero, so
    # table ids cannot overflow.
    lo, hi = schedule._value_range()
    span = hi - lo + 1
    table = 2 * span <= len(schedule)
    if table:
        values = range(lo, hi + 1)
        words = np.array(
            _HEADS
            + tuple(f"F {value} " for value in values)
            + tuple(f"{value} " for value in values)
            + tuple(f"{value}\n" for value in values),
            dtype=object,
        )
        # the id of value v in a block is that block's offset + v
        offsets = np.arange(len(_HEADS), len(words), span) - lo
    for chunk in schedule.chunks():
        ops = chunk[:, 0]
        if table:
            ids = chunk[:, 1:] + offsets
            # a load, store or evict prints its head in place of its matrix code
            ids[:, 0] = np.where(ops == OP_FMA, ids[:, 0], ops * len(MATRICES) + chunk[:, 1])
            yield "".join(words[ids.ravel()].tolist())
        else:
            # a load, store or evict prints its matrix code as a letter; one
            # %-format of the chunk's patterns is about twice as fast as an
            # f-string per line
            fields = chunk[:, 1:].copy()
            fields[ops != OP_FMA, 0] += ord("A")
            yield "".join(_PATTERNS[ops].tolist()) % tuple(fields.ravel().tolist())


def parse_trace(text, dims: ProblemDims) -> Schedule:
    """Inverse of dump_trace. Raises ValueError, naming the first line that
    is not in the trace grammar.

    ``text`` may also be a file open for binary reading, taken as
    decode_trace() of its bytes from where it stands. When those are all
    dump_trace's lines, which a first pass checks and counts a span at a
    time, the schedule reads its rows from the file on each walk, a span at
    a time into one buffer; the file must stay open and unchanged while the
    schedule is in use. Any other file is read whole, as is one that cannot
    seek, such as a pipe.

    A ``#`` starts a comment that runs to the end of the line; blank and
    comment-only lines are skipped. Fields are separated by spaces or tabs,
    lines by any break str.splitlines() knows, and a final line without its
    break reads as if it had one.

    A text of the lines dump_trace writes is read with numpy, a span of whole
    lines at a time (see ``iomma.tracefile``). Any other text, and every
    rejection, goes through one regex of the grammar, a span of whole lines
    per call, then comment stripping and ``np.fromstring``.
    """
    from . import tracefile

    if not isinstance(text, str):
        rows = tracefile.file_rows(text)
        if rows is None:
            return parse_trace(decode_trace(text.read()), dims)
        return Schedule._wrap(rows, dims)
    codes = tracefile.text_codes(text)
    if codes is not None:
        return Schedule._wrap(codes, dims)
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
        reason = f"coordinate {bad[0]!r} is not an integer of 1 to 18 decimal digits"
    return f"trace line {lineno}: {reason}"


def decode_trace(data: bytes) -> str:
    """The text of a trace file's bytes, read as UTF-8 with CRLF and CR
    made LF, as text-mode open() makes them, so that a dumped trace saved
    with either end is still read as one. Raises ValueError, naming the line
    of the first byte that does not decode."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        lineno = 1 + len(_LINE_BREAK.findall(data[:exc.start].decode("utf-8")))
        reason = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ValueError(f"trace line {lineno}: {reason}") from None


def trace_line(text: str, index: int) -> int:
    """1-based line of the trace text that parse_trace() read event ``index`` from:
    an event's line starts with L, S, E or F after spaces and tabs. Raises
    IndexError if the text holds no such event."""
    if index >= 0:
        lines = enumerate(_LINE_BREAK.split(text), start=1)
        events = (n for n, line in lines if line.lstrip(" \t").startswith(("L", "S", "E", "F")))
        for lineno in itertools.islice(events, index, None):
            return lineno
    raise IndexError(f"trace has no event {index}")
