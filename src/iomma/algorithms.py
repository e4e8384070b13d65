"""Schedule generators for four multiply-accumulate algorithms, plus exact
structural I/O predictions.

All four generators emit every fma for a given c(i,j) with p ascending, so
the simulator reproduces the reference triple loop bitwise. The three blocked
algorithms share the block edge b = max(1, floor(sqrt(S)) - 1), chosen so a
b-by-b block plus two length-b vectors fit in S - 1 slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    MATRIX_CODE,
    OP_EVICT,
    OP_FMA,
    OP_LOAD,
    OP_STORE,
    Matrix,
    ProblemDims,
    Schedule,
    _check_positive,
)


class TooSmallError(ValueError):
    """The capacity cannot hold the schedule's working set: blocked schedules
    need S >= 4 (no b-by-b block fits below that), naive needs S >= 3."""


class Algorithm(str, Enum):
    """CLI-facing algorithm names."""

    NAIVE = "naive"
    A = "alg-a"
    B = "alg-b"
    C = "alg-c"


def block_size(S: int) -> int:
    """Largest block edge b with (b+1)^2 <= S, floored at 1.

    b*b resident block plus a length-b row and a length-b column then occupy
    b^2 + 2b <= S - 1 slots, leaving one slot of headroom.
    """
    if S < 4:
        raise TooSmallError(f"S={S} is too small for a blocked schedule (need S >= 4)")
    return max(1, math.isqrt(S) - 1)


def _segments(length: int, b: int) -> list[tuple[int, int]]:
    """(start, size) runs of width b covering [0, length), short tail last."""
    return [(start, min(b, length - start)) for start in range(0, length, b)]


@dataclass(frozen=True)
class PredictedIO:
    """Structural transfer counts plus the divisible-dims closed forms.

    reads and writes are exact integers in m, n, k and the number of
    b-segments along each dimension, so they match simulation exactly,
    partial edge blocks included. The closed forms are the real-valued
    approximations that ignore remainders.
    """

    reads: int
    writes: int
    closed_form_reads: float
    closed_form_writes: float

    @property
    def io_total(self) -> int:
        return self.reads + self.writes

    @property
    def effective_io(self) -> int:
        """max(reads, writes): the cost when writes overlap reads perfectly."""
        return max(self.reads, self.writes)


# Generators build each event as an (op, kind, i, j, p) row, where kind is
# the matrix code or _KIND_FMA, and turn the rows into trace codes at the end.
# Offsets and loop steps are then plain additions to the i, j or p column.
_KIND_FMA = 3
# per kind, the row columns that feed code columns 1..3: the matrix's
# (kind, row, col), or an fma's (i, j, p)
_FIELDS = ((1, 2, 4), (1, 4, 3), (1, 2, 3), (2, 3, 4))
# the i/j/p axes (0, 1, 2) that index each matrix's rows and cols
_AXES = {Matrix.A: (0, 2), Matrix.B: (2, 1), Matrix.C: (0, 1)}
# per resident matrix, each streamed operand's index in Matrix order, the
# resident axis it lacks, and that axis's place in the block shape
_STREAMED = {
    resident: tuple(
        (index, axis, place)
        for index, matrix in enumerate(Matrix) if matrix is not resident
        for place, axis in enumerate(_AXES[resident]) if axis not in _AXES[matrix]
    )
    for resident in Matrix
}
# the matrix each blocked algorithm keeps a block of resident
_RESIDENT = {Algorithm.A: Matrix.A, Algorithm.B: Matrix.B, Algorithm.C: Matrix.C}


def _loop(*loops: tuple[int, int]) -> np.ndarray:
    """(i, j, p) of every iteration of a loop nest, outermost loop first.

    Each loop is (axis, extent); axes the nest does not mention stay 0.
    """
    axes = [axis for axis, _ in loops]
    extents = [extent for _, extent in loops]
    ijp = np.zeros((math.prod(extents), 3), dtype=np.int64)
    ijp[:, axes] = np.indices(extents).reshape(len(loops), -1).T
    return ijp


def _rows(op: int, kind: int, ijp: np.ndarray) -> np.ndarray:
    rows = np.empty((len(ijp), 5), dtype=np.int64)
    rows[:, 0] = op
    rows[:, 1] = kind
    rows[:, 2:] = ijp
    return rows


def _repeat(rows: np.ndarray, axis: int, count: int) -> np.ndarray:
    """rows once per step 0..count-1 along an axis, in step order."""
    out = np.tile(rows, (count, 1))
    out[:, 2 + axis] += np.repeat(np.arange(count), len(rows))
    return out


def _fields(rows: np.ndarray) -> np.ndarray:
    """Each row's _FIELDS entry."""
    return np.array(_FIELDS)[rows[:, 1]]


def _to_codes(rows: np.ndarray, fields: np.ndarray) -> np.ndarray:
    codes = np.empty((len(rows), 4), dtype=np.int64)
    codes[:, 0] = rows[:, 0]
    codes[:, 1:] = np.take_along_axis(rows, fields, axis=1)
    return codes


def naive_schedule(dims: ProblemDims) -> Schedule:
    """One load-compute-store round trip per fma. Peak residency 3."""
    a, b, c = (MATRIX_CODE[matrix] for matrix in Matrix)
    origin = np.zeros((1, 3), dtype=np.int64)
    step = np.concatenate([
        _rows(OP_LOAD, a, origin),
        _rows(OP_LOAD, b, origin),
        _rows(OP_LOAD, c, origin),
        _rows(OP_FMA, _KIND_FMA, origin),
        _rows(OP_STORE, c, origin),
        _rows(OP_EVICT, a, origin),
        _rows(OP_EVICT, b, origin),
    ])
    rows = _repeat(_repeat(_repeat(step, 2, dims.k), 1, dims.n), 0, dims.m)
    return Schedule._wrap(_to_codes(rows, _fields(rows)), dims)


def _block_codes(resident: Matrix, shape: tuple[int, int], steps: int):
    """Codes of one resident block at the origin, streaming over ``steps``,
    and the change in its codes per unit of row and of col offset.

    The block is loaded row-major. Each step loads the pieces of the two
    other matrices that meet the block, in matrix order, runs the block's
    fmas with the i, j, p loops nested in that order, writes back a streamed
    C piece, evicts the streamed A or B pieces, and advances the streamed
    axis. The block then leaves: stored if it is C, evicted otherwise.
    """
    row_axis, col_axis = _AXES[resident]
    stream_axis = 3 - row_axis - col_axis
    extents = dict(zip((row_axis, col_axis), shape))
    streamed = [matrix for matrix in Matrix if matrix is not resident]
    piece = {}
    for matrix in streamed:
        (axis,) = (axis for axis in _AXES[matrix] if axis != stream_axis)
        piece[matrix] = _loop((axis, extents[axis]))
    step = [_rows(OP_LOAD, MATRIX_CODE[matrix], piece[matrix]) for matrix in streamed]
    step.append(_rows(OP_FMA, _KIND_FMA, _loop(*sorted(extents.items()))))
    if Matrix.C in piece:
        step.append(_rows(OP_STORE, MATRIX_CODE[Matrix.C], piece[Matrix.C]))
    step += [
        _rows(OP_EVICT, MATRIX_CODE[matrix], piece[matrix])
        for matrix in streamed if matrix is not Matrix.C
    ]
    block = _loop(*extents.items())
    leave = OP_STORE if resident is Matrix.C else OP_EVICT
    rows = np.concatenate([
        _rows(OP_LOAD, MATRIX_CODE[resident], block),
        _repeat(np.concatenate(step), stream_axis, steps),
        _rows(leave, MATRIX_CODE[resident], block),
    ])
    # a code column moves with an axis exactly when it reads that axis's i/j/p
    fields = _fields(rows)
    shifts = []
    for axis in (row_axis, col_axis):
        shift = np.zeros((len(rows), 4), dtype=np.int64)
        shift[:, 1:] = fields == 2 + axis
        shifts.append(shift)
    return _to_codes(rows, fields), *shifts


def blocked_schedule(resident: Matrix, dims: ProblemDims, shape: tuple[int, int]) -> Schedule:
    """Keep a (rows, cols) block of one operand resident and stream the rest
    past it; edge blocks are cut short.

    Blocks visit the resident matrix's block grid row-major; the third axis
    streams in full, ascending, through each block. Blocks of one shape
    differ only by an offset, so each shape's codes are built once.
    """
    _check_positive(rows=shape[0], cols=shape[1])
    extent = (dims.m, dims.n, dims.k)
    row_axis, col_axis = _AXES[resident]
    steps = extent[3 - row_axis - col_axis]
    blocks = [
        (r0, c0, (rows, cols))
        for r0, rows in _segments(extent[row_axis], shape[0])
        for c0, cols in _segments(extent[col_axis], shape[1])
    ]
    built = {}
    for _, _, size in blocks:
        if size not in built:
            built[size] = _block_codes(resident, size, steps)
    out = np.empty((sum(len(built[size][0]) for _, _, size in blocks), 4), dtype=np.int64)
    start = 0
    for r0, c0, size in blocks:
        codes, row_shift, col_shift = built[size]
        end = start + len(codes)
        out[start:end] = codes
        out[start:end] += r0 * row_shift + c0 * col_shift
        start = end
    return Schedule._wrap(out, dims)


def blocked_reads(
    resident: Matrix, dims: ProblemDims, shape: tuple[int, int], real: bool = False
) -> tuple:
    """Reads of ``blocked_schedule(resident, dims, shape)``: the total, then
    the A, B and C terms.

    The resident operand is read once, so its term is its size. Each streamed
    operand is read once per block along the resident axis t it lacks:
    mnk/e_t * ceil(e_t/b_t) times for extent e_t and block edge b_t, or
    mnk/b_t in the real form, which ignores edge blocks. The total adds the
    streamed terms first. The schedule's writes are C's term.
    """
    extent = (dims.m, dims.n, dims.k)
    mnk = extent[0] * extent[1] * extent[2]
    row_axis, col_axis = _AXES[resident]
    size = extent[row_axis] * extent[col_axis]
    terms = [size, size, size]
    total = 0
    for index, axis, place in _STREAMED[resident]:
        if real:
            term = mnk / shape[place]
        else:
            term = mnk // extent[axis] * -(-extent[axis] // shape[place])
        terms[index] = term
        total += term
    return total + size, *terms


def alg_c_schedule(dims: ProblemDims, S: int) -> Schedule:
    """Keep a b-by-b block of C resident; apply k rank-1 updates to it.

    C blocks visit in row-major order. Each rank-1 step loads a column piece
    of A and a row piece of B, uses them once, and evicts them. C is read
    once and written once: reads = 2mnk/b + mn, writes = mn on divisible
    dims; peak residency b^2 + 2b.
    """
    return build_schedule(Algorithm.C, dims, S)


def alg_b_schedule(dims: ProblemDims, S: int) -> Schedule:
    """Keep a b-by-b block of B resident; stream rows of A and C past it.

    B blocks visit the (p, j) grid with the p blocks outermost and ascending,
    so each c(i,j) accumulates its partial sums in p order across blocks.
    Each row of C is re-read and re-written once per p block: reads =
    2mnk/b + nk, writes = mnk/b on divisible dims.
    """
    return build_schedule(Algorithm.B, dims, S)


def alg_a_schedule(dims: ProblemDims, S: int) -> Schedule:
    """Keep a b-by-b block of A resident; stream columns of B and C past it.

    The mirror image of the B-resident algorithm: A blocks visit the (i, p)
    grid with the p blocks innermost and ascending. Each column of C is
    re-read and re-written once per p block: reads = 2mnk/b + mk, writes =
    mnk/b on divisible dims.
    """
    return build_schedule(Algorithm.A, dims, S)


def build_schedule(algorithm: Algorithm, dims: ProblemDims, S: int) -> Schedule:
    """Build the named schedule; the blocked ones use a b-by-b block with
    b = block_size(S). Naive ignores S."""
    resident = _RESIDENT.get(Algorithm(algorithm))
    if resident is None:
        return naive_schedule(dims)
    b = block_size(S)
    return blocked_schedule(resident, dims, (b, b))


def predicted_io(algorithm: Algorithm, dims: ProblemDims, S: int) -> PredictedIO:
    """Exact structural read/write counts for one algorithm at one capacity.

    O(1): a blocked algorithm's counts are ``blocked_reads`` of its b-by-b
    block, so they agree with simulation on every input, partial edge blocks
    included; the closed forms are the real form of the same terms.
    """
    resident = _RESIDENT.get(Algorithm(algorithm))
    if resident is None:
        if S < 3:
            raise TooSmallError(f"S={S} is too small for the naive schedule (need S >= 3)")
        mnk = dims.m * dims.n * dims.k
        return PredictedIO(
            reads=3 * mnk,
            writes=mnk,
            closed_form_reads=3.0 * mnk,
            closed_form_writes=float(mnk),
        )
    b = block_size(S)
    reads, _, _, writes = blocked_reads(resident, dims, (b, b))
    closed_reads, _, _, closed_writes = blocked_reads(resident, dims, (b, b), real=True)
    return PredictedIO(reads, writes, closed_reads, float(closed_writes))
