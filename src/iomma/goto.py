"""Read-volume model for a blocked GEMM in the style of Goto's algorithm.

Two cache levels are modeled independently: reads into L3 from main memory
with a (k_c, n_c) panel of B kept L3-resident, and reads into L2 with an
(m_c, k_c) block of A kept L2-resident. Each level is the real form of
``algorithms.blocked_reads`` for that resident block: block counts divide as
reals and nothing is rounded. On dims the blocks divide, the counts equal
the reads that ``execute`` counts for ``blocked_schedule`` with the same
block. That schedule holds its block plus one streamed piece of each
other operand at its peak: k_c*n_c + k_c + n_c elements at L3 (636 at
k_c = 12, n_c = 48) while GotoParams admits any k_c*n_c <= S3 (576 there),
and m_c*k_c + m_c + k_c at L2 (168 at m_c = k_c = 12, against S2 = 144).
The capacities bound the resident blocks only, not the streamed pieces.
Register tile sizes n_r and m_r are carried along for reporting but drive no
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algorithms import blocked_reads
from .model import Matrix, ProblemDims, _check_positive, fma_count

DEFAULT_SUBOPTIMAL_THRESHOLD = 1.25


@dataclass(frozen=True)
class GotoParams:
    """Blocking parameters of the kernel: cache block sizes, register tile
    sizes, and the two cache capacities (in scalars) they must respect."""

    n_c: int
    k_c: int
    m_c: int
    n_r: int
    m_r: int
    S2: int
    S3: int

    def __post_init__(self):
        _check_positive(**vars(self))
        if self.m_c * self.k_c > self.S2:
            raise ValueError(
                f"m_c*k_c = {self.m_c * self.k_c} does not fit in S2 = {self.S2}"
            )
        if self.k_c * self.n_c > self.S3:
            raise ValueError(
                f"k_c*n_c = {self.k_c * self.n_c} does not fit in S3 = {self.S3}"
            )


@dataclass(frozen=True)
class GotoReport:
    """Predicted reads at both levels against the 2mnk/sqrt(S) reference."""

    l3_reads: float
    l2_reads: float
    l3_reference: float
    l2_reference: float
    l3_ratio: float
    l2_ratio: float
    l3_suboptimal: bool


def l3_reads(dims: ProblemDims, params: GotoParams) -> float:
    """Reads into L3: mnk/n_c + mnk/k_c + nk.

    One pass over A per B panel (mnk/n_c), one pass over C per panel stack
    (mnk/k_c), and B itself once (nk).
    """
    return blocked_reads(Matrix.B, dims, (params.k_c, params.n_c), real=True)[0]


def l2_reads(dims: ProblemDims, params: GotoParams) -> float:
    """Reads into L2: mnk/m_c + mnk/k_c + mk.

    Mirror of the L3 count with the A block resident: B streams per A block
    (mnk/m_c), C streams per block stack (mnk/k_c), and A loads once (mk).
    """
    return blocked_reads(Matrix.A, dims, (params.m_c, params.k_c), real=True)[0]


def goto_report(
    dims: ProblemDims,
    params: GotoParams,
    suboptimal_threshold: float = DEFAULT_SUBOPTIMAL_THRESHOLD,
) -> GotoReport:
    """Evaluate both levels and compare each to its 2mnk/sqrt(S) reference.

    A square block (n_c = k_c = sqrt(S3), m_c = k_c = sqrt(S2)) drives each
    ratio toward 1 as the problem grows; a strongly skewed L3 panel shows up
    as l3_ratio >> 1 and trips the suboptimal flag at the given threshold.
    """
    if not math.isfinite(suboptimal_threshold):
        raise ValueError(f"suboptimal threshold must be finite, got {suboptimal_threshold!r}")
    mnk = fma_count(dims)
    l3 = l3_reads(dims, params)
    l2 = l2_reads(dims, params)
    l3_ref = 2.0 * mnk / math.sqrt(params.S3)
    l2_ref = 2.0 * mnk / math.sqrt(params.S2)
    l3_ratio = l3 / l3_ref
    l2_ratio = l2 / l2_ref
    return GotoReport(
        l3_reads=l3,
        l2_reads=l2,
        l3_reference=l3_ref,
        l2_reference=l2_ref,
        l3_ratio=l3_ratio,
        l2_ratio=l2_ratio,
        l3_suboptimal=l3_ratio > suboptimal_threshold,
    )
