"""Schedule generators for four multiply-accumulate algorithms, plus exact
structural I/O predictions.

All four generators emit every fma for a given c(i,j) with p ascending, so
the simulator reproduces the reference triple loop bitwise. The three
blocked algorithms share the block edge b = floor(sqrt(S)) - 1, chosen so a
b-by-b block plus two length-b vectors fit in S - 1 slots. A blocked schedule
can also bring one streamed operand in an element at a time, as the paper's
attaining schedule does; ``cheapest_runnable`` weighs those blocks against
the algorithms to seed the exact search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING

from .model import (
    MATRIX_CODE,
    OP_EVICT,
    OP_FMA,
    OP_LOAD,
    OP_STORE,
    OPERAND_AXES,
    IOStats,
    Matrix,
    ProblemDims,
    Schedule,
    _check_positive,
    _moved,
    np,
    point,
)

if TYPE_CHECKING:
    from collections.abc import Callable


class TooSmallError(ValueError):
    """The capacity cannot hold an algorithm's working set; each preset's
    shape rule in ``_PRESETS`` raises it below the least S it runs at."""


class Algorithm(str, Enum):
    """CLI-facing algorithm names.

    ``naive`` makes one load-compute-store round trip per fma: peak residency
    3. The blocked ones keep a b-by-b block of one operand resident, with
    b = block_size(S), and peak at b^2 + 2b. ``alg-c`` applies k rank-1
    updates to a block of C, each from a column piece of A and a row piece
    of B. ``alg-b``'s B blocks visit the (p, j) grid with p outermost,
    ``alg-a``'s A blocks the (i, p) grid with p innermost, both ascending.
    """

    NAIVE = "naive"
    A = "alg-a"
    B = "alg-b"
    C = "alg-c"


def block_size(S: int) -> int:
    """Largest block edge b with (b+1)^2 <= S; S >= 4 gives b >= 1.

    b*b resident block plus a length-b row and a length-b column then occupy
    b^2 + 2b <= S - 1 slots, leaving one slot of headroom.
    """
    if S < 4:
        raise TooSmallError(f"S={S} is too small for a blocked schedule (need S >= 4)")
    return math.isqrt(S) - 1


def _no_block(S: int) -> None:
    """Naive's rule: no block, and room for the three elements of one fma."""
    if S < 3:
        raise TooSmallError(f"S={S} is too small for the naive schedule (need S >= 3)")


def _square_block(S: int) -> tuple[int, int]:
    return (block_size(S),) * 2


# Each algorithm's preset: the operand it keeps a block of resident (None
# for naive) and the rule that gives the block's shape at capacity S. A rule
# raises TooSmallError below the least S its schedule fits in.
_PRESETS = {
    Algorithm.NAIVE: (None, _no_block),
    Algorithm.A: (Matrix.A, _square_block),
    Algorithm.B: (Matrix.B, _square_block),
    Algorithm.C: (Matrix.C, _square_block),
}


def _preset(algorithm: Algorithm, S: int) -> tuple[Matrix | None, tuple[int, int] | None]:
    """The resident operand and block shape of an algorithm at capacity S."""
    # Algorithm() costs about as much as predicted_io's result, so a member
    # skips it; a name or a bad value goes through it
    if type(algorithm) is not Algorithm:
        algorithm = Algorithm(algorithm)
    resident, shape = _PRESETS[algorithm]
    return resident, shape(S)


def _segments(length: int, b: int) -> list[tuple[int, int]]:
    """(start, size) runs of width b covering [0, length), short tail last."""
    return [(start, min(b, length - start)) for start in range(0, length, b)]


@dataclass(frozen=True)
class PredictedIO:
    """Structural transfer counts plus the divisible-dims closed forms.

    reads and writes are exact integers in m, n, k and the number of
    b-segments along each dimension, so they match simulation exactly,
    partial edge blocks included; ``reads_a``, ``reads_b`` and ``reads_c``
    split ``reads`` by operand, as ``IOStats`` does. The closed forms are the
    real-valued approximations that ignore remainders.
    """

    reads: int
    writes: int
    closed_form_reads: float
    closed_form_writes: float
    reads_a: int
    reads_b: int
    reads_c: int

    @property
    def io_total(self) -> int:
        return self.reads + self.writes

    @property
    def effective_io(self) -> int:
        """max(reads, writes): the cost when writes overlap reads perfectly."""
        return max(self.reads, self.writes)

    def matches(self, stats: IOStats) -> bool:
        """Whether a simulation counted these reads, operand by operand, and writes."""
        return (
            stats.reads == self.reads and stats.writes == self.writes
            and stats.reads_a == self.reads_a and stats.reads_b == self.reads_b
            and stats.reads_c == self.reads_c
        )


# Generators build code rows at the origin and move them as a schedule's
# runs do (model._moved): loop steps and block offsets add to the fields
# that read an axis.
_AXES = dict(zip(Matrix, OPERAND_AXES))
# the largest extent or element count whose code fields and element ids fit
_INT64_MAX = 2**63 - 1
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


def _loop(*loops: tuple[int, int]) -> np.ndarray:
    """(i, j, p) of every iteration of a loop nest, outermost loop first.

    Each loop is (axis, extent); axes the nest does not mention stay 0.
    """
    axes = [axis for axis, _ in loops]
    extents = [extent for _, extent in loops]
    ijp = np.zeros((math.prod(extents), 3), dtype=np.int64)
    ijp[:, axes] = np.indices(extents).reshape(len(loops), -1).T
    return ijp


def _rows(op: int, matrix: int | None, ijp: np.ndarray) -> np.ndarray:
    """Code rows of one opcode at (i, j, p) points: an fma's fields are its
    point, another event's are its matrix code and the point's row and col
    in that matrix."""
    codes = np.empty((len(ijp), 4), dtype=np.int64)
    codes[:, 0] = op
    if op == OP_FMA:
        codes[:, 1:] = ijp
    else:
        codes[:, 1] = matrix
        codes[:, 2:] = ijp[:, OPERAND_AXES[matrix]]
    return codes


def naive_schedule(dims: ProblemDims) -> Schedule:
    """One load-compute-store round trip per fma. Peak residency 3.

    One run: the round trips of c(0,0) over every p, moved to each (i, j)
    in row-major order."""
    a, b, c = (MATRIX_CODE[matrix] for matrix in Matrix)
    origin = np.zeros((1, 3), dtype=np.int64)
    step = np.concatenate([
        _rows(OP_LOAD, a, origin),
        _rows(OP_LOAD, b, origin),
        _rows(OP_LOAD, c, origin),
        _rows(OP_FMA, None, origin),
        _rows(OP_STORE, c, origin),
        _rows(OP_EVICT, a, origin),
        _rows(OP_EVICT, b, origin),
    ])
    template = _moved(step, _loop((2, dims.k)))
    return Schedule._tiled([(template, _loop((0, dims.m), (1, dims.n)))], dims)


def _leave(matrix: Matrix) -> int:
    """How an element leaves fast memory: a C element is stored, any other evicted."""
    return OP_STORE if matrix is Matrix.C else OP_EVICT


def _block_codes(
    resident: Matrix, shape: tuple[int, int], steps: int, by_element: bool = False
):
    """Codes of one resident block at the origin, streaming over ``steps``.

    The block is loaded row-major. Without ``by_element``, each step loads
    the pieces of the two other matrices that meet the block, in matrix
    order, runs the block's fmas with the i, j, p loops nested in that order,
    writes back a streamed C piece, evicts the streamed A or B pieces, and
    advances the streamed axis. With ``by_element``, each step loads the
    shorter streamed piece whole, then brings the longer one in one element
    at a time: load it, run its fmas, and let it leave (stored if it is C,
    evicted otherwise); the held piece leaves last. On a tie the later matrix
    comes by element: B for a block of C, as in the paper's attaining
    schedule. The block then leaves: stored if it is C, evicted otherwise.
    """
    row_axis, col_axis = _AXES[resident]
    stream_axis = 3 - row_axis - col_axis
    extents = dict(zip((row_axis, col_axis), shape))
    streamed = [matrix for matrix in Matrix if matrix is not resident]
    piece = {}
    piece_axis = {}
    for matrix in streamed:
        (axis,) = (axis for axis in _AXES[matrix] if axis != stream_axis)
        piece_axis[matrix] = axis
        piece[matrix] = _loop((axis, extents[axis]))
    if not by_element:
        step = [_rows(OP_LOAD, MATRIX_CODE[matrix], piece[matrix]) for matrix in streamed]
        step.append(_rows(OP_FMA, None, _loop(*sorted(extents.items()))))
        if Matrix.C in piece:
            step.append(_rows(OP_STORE, MATRIX_CODE[Matrix.C], piece[Matrix.C]))
        step += [
            _rows(OP_EVICT, MATRIX_CODE[matrix], piece[matrix])
            for matrix in streamed if matrix is not Matrix.C
        ]
    else:
        # a stable sort keeps Matrix order on a tie
        held, element = sorted(streamed, key=lambda matrix: len(piece[matrix]))
        origin = np.zeros((1, 3), dtype=np.int64)
        one = np.concatenate([
            _rows(OP_LOAD, MATRIX_CODE[element], origin),
            _rows(OP_FMA, None, piece[held]),
            _rows(_leave(element), MATRIX_CODE[element], origin),
        ])
        axis = piece_axis[element]
        step = [
            _rows(OP_LOAD, MATRIX_CODE[held], piece[held]),
            _moved(one, _loop((axis, extents[axis]))),
            _rows(_leave(held), MATRIX_CODE[held], piece[held]),
        ]
    block = _loop(*extents.items())
    return np.concatenate([
        _rows(OP_LOAD, MATRIX_CODE[resident], block),
        _moved(np.concatenate(step), _loop((stream_axis, steps))),
        _rows(_leave(resident), MATRIX_CODE[resident], block),
    ])


def blocked_schedule(
    resident: Matrix, dims: ProblemDims, shape: tuple[int, int], by_element: bool = False
) -> Schedule:
    """Keep a (rows, cols) block of one operand resident and stream the rest
    past it; edge blocks are cut short.

    Blocks visit the resident matrix's block grid row-major; the third axis
    streams in full, ascending, through each block. Blocks of one shape
    differ only by an offset, so each shape's codes are built once, and each
    stretch of same-shape blocks is one run of the schedule. Without
    ``by_element`` both streamed pieces are loaded whole, and a full block
    peaks at rows*cols + rows + cols; with it, the longer piece comes in an
    element at a time (see ``_block_codes``), and a full block peaks at
    rows*cols + min(rows, cols) + 1.
    The loaded elements, and so ``blocked_reads``, are the same either way.
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
    # one run per stretch of same-shape blocks, its moves the block offsets
    built = {}
    runs = []
    for r0, c0, size in blocks:
        if size not in built:
            built[size] = _block_codes(resident, size, steps, by_element)
        move = [0, 0, 0]
        move[row_axis], move[col_axis] = r0, c0
        if runs and runs[-1][0] is built[size]:
            runs[-1][1].append(move)
        else:
            runs.append((built[size], [move]))
    return Schedule._tiled([(codes, np.array(moves)) for codes, moves in runs], dims)


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


def build_schedule(algorithm: Algorithm, dims: ProblemDims, S: int) -> Schedule:
    """Build the named schedule at capacity S, as its preset gives it.

    Raises ValueError, before it builds anything, for dims whose element
    count does not fit the int64 code rows; every extent is at least 1, so
    the count bounds each extent too."""
    resident, shape = _preset(algorithm, S)
    m, n, k = dims.m, dims.n, dims.k
    if m * k + k * n + m * n > _INT64_MAX:
        raise ValueError(f"{point(m=m, n=n, k=k)} do not fit int64 code rows: "
                         f"the element count m*k + k*n + m*n must be at most 2**63 - 1")
    if resident is None:
        return naive_schedule(dims)
    return blocked_schedule(resident, dims, shape)


def predicted_io(algorithm: Algorithm, dims: ProblemDims, S: int) -> PredictedIO:
    """Exact structural read/write counts for one algorithm at one capacity.

    O(1): a blocked algorithm's counts are ``blocked_reads`` of its preset's
    block, so they agree with simulation on every input, partial edge blocks
    included; the closed forms are the real form of the same terms.
    """
    resident, shape = _preset(algorithm, S)
    if resident is None:
        # every fma reads its three operands and writes its C back
        mnk = dims.m * dims.n * dims.k
        return PredictedIO(3 * mnk, mnk, 3.0 * mnk, float(mnk), mnk, mnk, mnk)
    # the schedule writes C's term back
    reads, reads_a, reads_b, writes = blocked_reads(resident, dims, shape)
    closed_reads, _, _, closed_writes = blocked_reads(resident, dims, shape, real=True)
    return PredictedIO(reads, writes, closed_reads, float(closed_writes), reads_a, reads_b, writes)


def runnable_costs(dims: ProblemDims, S: int) -> dict[Algorithm, int]:
    """Predicted loads + stores of every algorithm that runs at capacity S,
    in ``Algorithm`` order; one whose shape rule raises ``TooSmallError`` is
    left out. Naive runs wherever any algorithm does, so below its least S
    this raises naive's ``TooSmallError`` rather than return nothing."""
    _no_block(S)
    costs = {}
    for algorithm in Algorithm:
        try:
            costs[algorithm] = predicted_io(algorithm, dims, S).io_total
        except TooSmallError:
            continue
    return costs


def cheapest_runnable(dims: ProblemDims, S: int) -> tuple[int, Callable[[], Schedule]]:
    """The fewest loads + stores of any schedule generated here that runs at
    capacity S, and a function that builds that schedule.

    The candidates are every algorithm that runs at S (``runnable_costs``)
    and every element-streamed block: each resident operand, and each
    (rows, cols) shape within its matrix with rows*cols + min(rows, cols) + 1
    <= S, built by ``blocked_schedule`` with ``by_element``. Blocks cost
    their ``blocked_reads`` plus C's term as writes. On a tie the first
    candidate wins: algorithms in ``Algorithm`` order, then blocks of A, B
    and C, each with its shapes in ascending order. Raises naive's
    ``TooSmallError`` below S = 3, as ``runnable_costs`` does.
    """
    costs = runnable_costs(dims, S)
    best = min(costs, key=costs.get)
    best_cost = costs[best]
    build = partial(build_schedule, best, dims, S)
    extent = (dims.m, dims.n, dims.k)
    for resident in Matrix:
        row_axis, col_axis = _AXES[resident]
        for rows in range(1, min(extent[row_axis], S) + 1):
            for cols in range(1, extent[col_axis] + 1):
                if rows * cols + min(rows, cols) + 1 > S:
                    break
                shape = (rows, cols)
                reads, _, _, writes = blocked_reads(resident, dims, shape)
                if reads + writes < best_cost:
                    best_cost = reads + writes
                    build = partial(blocked_schedule, resident, dims, shape, by_element=True)
    return best_cost, build
