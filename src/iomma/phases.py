"""Phase decomposition of execution traces and the per-phase inequalities.

A phase is a maximal run of events containing exactly M loads plus stores
(the last phase may fall short). Fma and evict events ride along for free
and belong to the phase whose I/O budget was open when they happened; the
boundary falls immediately before the load or store that would be transfer
M + 1. Per phase we record the distinct A, B and C elements the fmas
actually touched, which is what the sqrt(x*y*z) fma cap and the S + M
capacity argument constrain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .memsim import MemoryConfig, SimulationError, execute
from .model import (
    OP_FMA,
    OP_LOAD,
    OP_STORE,
    OutOfBoundsError,
    Schedule,
    _check_positive,
    fma_operand_ids,
    layout,
)


class UnvalidatedTraceError(Exception):
    """The trace breaks a residency or bounds rule and cannot be analyzed.

    ``index`` is the failing event's position, as execute() reported it.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class EmptyInputError(ValueError):
    """No phase reports to aggregate."""


@dataclass(frozen=True)
class PhaseConfig:
    """Phase size M: loads plus stores per phase."""

    M: int

    def __post_init__(self):
        _check_positive(M=self.M)


@dataclass(frozen=True)
class PhaseReport:
    """Counters and fma-input footprints for one phase.

    x, y, z count distinct A elements, B elements and C positions used as
    fma inputs during the phase; resident_at_start is fast-memory occupancy
    when the phase opened.
    """

    index: int
    loads: int
    stores: int
    fmas: int
    x: int
    y: int
    z: int
    resident_at_start: int

    @property
    def lw_bound(self) -> float:
        """Loomis-Whitney fma cap for this footprint: sqrt(x*y*z)."""
        return math.sqrt(self.x * self.y * self.z)


def validate_trace(trace: Schedule, config: MemoryConfig) -> None:
    """Run a trace through execute() on zero matrices at the given capacity.
    Any rule violation raises UnvalidatedTraceError with execute()'s index."""
    zeros = (np.zeros((rows, cols)) for rows, cols, _ in layout(trace.dims))
    try:
        execute(trace, config, *zeros)
    except (SimulationError, OutOfBoundsError) as exc:
        raise UnvalidatedTraceError(f"invalid trace: {exc}", exc.index) from exc


def partition_phases(trace: Schedule, config: PhaseConfig) -> list[PhaseReport]:
    """Split a valid trace at every M-th transfer and report each phase.

    A trace execute() has not yet accepted first goes through validate_trace()
    with room for every element, so the fast-memory size need not be known; a
    broken rule raises UnvalidatedTraceError. An empty trace yields no phases.
    """
    M = config.M
    if not trace._legal:  # set by a successful execute(); a Schedule cannot change
        room = sum(rows * cols for rows, cols, _ in layout(trace.dims))
        validate_trace(trace, MemoryConfig(room))

    codes = trace.codes
    if not len(codes):
        return []
    ops = codes[:, 0]
    load = ops == OP_LOAD
    store = ops == OP_STORE
    fma = ops == OP_FMA
    # an event belongs to the phase of the latest transfer at or before it,
    # and events before the first transfer to phase 0
    phase = np.maximum(np.cumsum(load | store) - 1, 0) // M
    count = int(phase[-1]) + 1
    loads, stores, fmas = (np.bincount(phase[mask], minlength=count) for mask in (load, store, fma))
    # footprints hold the element ids of each fma's A, B and C
    ids = fma_operand_ids(trace.dims, codes[fma, 1], codes[fma, 2], codes[fma, 3])
    xs, ys, zs = (_distinct_per_phase(phase[fma], each, count) for each in ids)
    # occupancy when a phase opens: loads - stores - evicts before its first event
    change = load.astype(np.int64) - (~load & ~fma)
    occupancy = np.cumsum(change) - change
    resident_at_start = occupancy[np.searchsorted(phase, np.arange(count))]
    rows = zip(*(column.tolist() for column in (loads, stores, fmas, xs, ys, zs, resident_at_start)))
    return [PhaseReport(index, *row) for index, row in enumerate(rows)]


def _distinct_per_phase(phase: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    """Number of distinct ids in each phase; phase is non-decreasing."""
    order = np.lexsort((ids, phase))
    phase, ids = phase[order], ids[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (phase[1:] != phase[:-1]) | (ids[1:] != ids[:-1])
    return np.bincount(phase[first], minlength=count)


def check_loomis_whitney(report: PhaseReport) -> bool:
    """fmas^2 <= x*y*z, compared in exact integers."""
    return report.fmas * report.fmas <= report.x * report.y * report.z


def check_capacity(report: PhaseReport, S: int, M: int) -> bool:
    """Footprint fits in resident-plus-transferred data.

    Two exact inequalities: x + y + z <= S + M, and distinct operands used
    <= resident_at_start + loads (every fma input was either already in fast
    memory or brought in during the phase).
    """
    footprint = report.x + report.y + report.z
    return footprint <= S + M and footprint <= report.resident_at_start + report.loads


def phase_efficiency(reports: list[PhaseReport], S: int, M: int) -> float:
    """Total fmas per transfer across all phases.

    At full phases of M = 2S a schedule can reach at most sqrt(S)/2; the
    blocked algorithms approach b/2 at scale. S and M identify the regime
    the reports came from; the ratio itself is pure arithmetic on them.
    """
    if not reports:
        raise EmptyInputError("no phases to aggregate")
    total_fmas = sum(r.fmas for r in reports)
    total_io = sum(r.loads + r.stores for r in reports)
    if total_io == 0:
        raise EmptyInputError("phases contain no transfers")
    return total_fmas / total_io


PHASE_CSV_HEADER = "phase,loads,stores,fmas,x,y,z,lw_bound,resident_at_start"


def phases_to_csv(reports: list[PhaseReport]) -> str:
    """Render reports as the one-row-per-phase CSV wire format."""
    lines = [PHASE_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.index},{r.loads},{r.stores},{r.fmas},{r.x},{r.y},{r.z},"
            f"{r.lw_bound!r},{r.resident_at_start}"
        )
    return "\n".join(lines) + "\n"
