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

from .model import (
    Evict,
    Fma,
    Load,
    Matrix,
    OperandRef,
    ProblemDims,
    Schedule,
    Store,
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
class BlockGrid:
    """How a problem tiles into b-blocks along each dimension."""

    b: int
    full_blocks_m: int
    full_blocks_n: int
    full_blocks_k: int
    rem_m: int
    rem_n: int
    rem_k: int

    @classmethod
    def for_dims(cls, dims: ProblemDims, b: int) -> "BlockGrid":
        if b < 1:
            raise ValueError("block edge must be positive")
        return cls(
            b=b,
            full_blocks_m=dims.m // b,
            full_blocks_n=dims.n // b,
            full_blocks_k=dims.k // b,
            rem_m=dims.m % b,
            rem_n=dims.n % b,
            rem_k=dims.k % b,
        )


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


def naive_schedule(dims: ProblemDims) -> Schedule:
    """One load-compute-store round trip per fma. Peak residency 3."""
    events: list = []
    emit = events.append
    for i in range(dims.m):
        for j in range(dims.n):
            for p in range(dims.k):
                a_ref = OperandRef(Matrix.A, i, p)
                b_ref = OperandRef(Matrix.B, p, j)
                c_ref = OperandRef(Matrix.C, i, j)
                emit(Load(a_ref))
                emit(Load(b_ref))
                emit(Load(c_ref))
                emit(Fma(i, j, p))
                emit(Store(c_ref))
                emit(Evict(a_ref))
                emit(Evict(b_ref))
    return Schedule(tuple(events), dims)


def alg_c_schedule(dims: ProblemDims, S: int) -> Schedule:
    """Keep a b-by-b block of C resident; apply k rank-1 updates to it.

    C blocks visit in row-major order. Each rank-1 step loads a column piece
    of A and a row piece of B, uses them once, and evicts them. C is read
    once and written once: reads = 2mnk/b + mn, writes = mn on divisible
    dims; peak residency b^2 + 2b.
    """
    b = block_size(S)
    m, n, k = dims.m, dims.n, dims.k
    events: list = []
    emit = events.append
    for i0, bm in _segments(m, b):
        for j0, bn in _segments(n, b):
            for i in range(i0, i0 + bm):
                for j in range(j0, j0 + bn):
                    emit(Load(OperandRef(Matrix.C, i, j)))
            for p in range(k):
                for i in range(i0, i0 + bm):
                    emit(Load(OperandRef(Matrix.A, i, p)))
                for j in range(j0, j0 + bn):
                    emit(Load(OperandRef(Matrix.B, p, j)))
                for i in range(i0, i0 + bm):
                    for j in range(j0, j0 + bn):
                        emit(Fma(i, j, p))
                for i in range(i0, i0 + bm):
                    emit(Evict(OperandRef(Matrix.A, i, p)))
                for j in range(j0, j0 + bn):
                    emit(Evict(OperandRef(Matrix.B, p, j)))
            for i in range(i0, i0 + bm):
                for j in range(j0, j0 + bn):
                    emit(Store(OperandRef(Matrix.C, i, j)))
    return Schedule(tuple(events), dims)


def alg_b_schedule(dims: ProblemDims, S: int) -> Schedule:
    """Keep a b-by-b block of B resident; stream rows of A and C past it.

    B blocks visit the (p, j) grid with the p blocks outermost and ascending,
    so each c(i,j) accumulates its partial sums in p order across blocks.
    Each row of C is re-read and re-written once per p block: reads =
    2mnk/b + nk, writes = mnk/b on divisible dims.
    """
    b = block_size(S)
    m, n, k = dims.m, dims.n, dims.k
    events: list = []
    emit = events.append
    for p0, bk in _segments(k, b):
        for j0, bn in _segments(n, b):
            for p in range(p0, p0 + bk):
                for j in range(j0, j0 + bn):
                    emit(Load(OperandRef(Matrix.B, p, j)))
            for i in range(m):
                for p in range(p0, p0 + bk):
                    emit(Load(OperandRef(Matrix.A, i, p)))
                for j in range(j0, j0 + bn):
                    emit(Load(OperandRef(Matrix.C, i, j)))
                for j in range(j0, j0 + bn):
                    for p in range(p0, p0 + bk):
                        emit(Fma(i, j, p))
                for j in range(j0, j0 + bn):
                    emit(Store(OperandRef(Matrix.C, i, j)))
                for p in range(p0, p0 + bk):
                    emit(Evict(OperandRef(Matrix.A, i, p)))
            for p in range(p0, p0 + bk):
                for j in range(j0, j0 + bn):
                    emit(Evict(OperandRef(Matrix.B, p, j)))
    return Schedule(tuple(events), dims)


def alg_a_schedule(dims: ProblemDims, S: int) -> Schedule:
    """Keep a b-by-b block of A resident; stream columns of B and C past it.

    The mirror image of the B-resident algorithm: A blocks visit the (i, p)
    grid with the p blocks innermost and ascending. Each column of C is
    re-read and re-written once per p block: reads = 2mnk/b + mk, writes =
    mnk/b on divisible dims.
    """
    b = block_size(S)
    m, n, k = dims.m, dims.n, dims.k
    events: list = []
    emit = events.append
    for i0, bm in _segments(m, b):
        for p0, bk in _segments(k, b):
            for i in range(i0, i0 + bm):
                for p in range(p0, p0 + bk):
                    emit(Load(OperandRef(Matrix.A, i, p)))
            for j in range(n):
                for p in range(p0, p0 + bk):
                    emit(Load(OperandRef(Matrix.B, p, j)))
                for i in range(i0, i0 + bm):
                    emit(Load(OperandRef(Matrix.C, i, j)))
                for i in range(i0, i0 + bm):
                    for p in range(p0, p0 + bk):
                        emit(Fma(i, j, p))
                for i in range(i0, i0 + bm):
                    emit(Store(OperandRef(Matrix.C, i, j)))
                for p in range(p0, p0 + bk):
                    emit(Evict(OperandRef(Matrix.B, p, j)))
            for i in range(i0, i0 + bm):
                for p in range(p0, p0 + bk):
                    emit(Evict(OperandRef(Matrix.A, i, p)))
    return Schedule(tuple(events), dims)


def build_schedule(algorithm: Algorithm, dims: ProblemDims, S: int) -> Schedule:
    """Dispatch to the named generator. Naive ignores S."""
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.NAIVE:
        return naive_schedule(dims)
    if algorithm is Algorithm.A:
        return alg_a_schedule(dims, S)
    if algorithm is Algorithm.B:
        return alg_b_schedule(dims, S)
    return alg_c_schedule(dims, S)


def predicted_io(algorithm: Algorithm, dims: ProblemDims, S: int) -> PredictedIO:
    """Exact structural read/write counts for one algorithm at one capacity.

    O(1): the counts are integer closed forms over the per-dimension segment
    counts of the block grid the generators walk, so they agree with
    simulation on every input, partial edge blocks included.
    """
    algorithm = Algorithm(algorithm)
    m, n, k = dims.m, dims.n, dims.k
    mnk = m * n * k
    if algorithm is Algorithm.NAIVE:
        if S < 3:
            raise TooSmallError(f"S={S} is too small for the naive schedule (need S >= 3)")
        return PredictedIO(
            reads=3 * mnk,
            writes=mnk,
            closed_form_reads=3.0 * mnk,
            closed_form_writes=float(mnk),
        )
    b = block_size(S)
    grid = BlockGrid.for_dims(dims, b)
    # Each generator tiles two dimensions into b-segments and pays a per-block
    # cost linear in the segment sizes (alg-c: bm*bn + k*(bm + bn)). Summed
    # over one dimension's segments, the segment size adds up to the dimension
    # itself and a constant adds up to the segment count ceil(x/b), which is
    # the full blocks plus one for a nonempty tail.
    sm = grid.full_blocks_m + (grid.rem_m > 0)
    sn = grid.full_blocks_n + (grid.rem_n > 0)
    sk = grid.full_blocks_k + (grid.rem_k > 0)
    if algorithm is Algorithm.C:
        reads, writes = m * n + k * (m * sn + n * sm), m * n
        closed_reads, closed_writes = 2.0 * mnk / b + m * n, float(m * n)
    elif algorithm is Algorithm.B:
        reads, writes = k * n + m * (k * sn + n * sk), m * n * sk
        closed_reads, closed_writes = 2.0 * mnk / b + n * k, mnk / b
    else:
        reads, writes = m * k + n * (m * sk + k * sm), m * n * sk
        closed_reads, closed_writes = 2.0 * mnk / b + m * k, mnk / b
    return PredictedIO(reads, writes, closed_reads, closed_writes)
