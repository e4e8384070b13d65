"""Phase decomposition of execution traces and the per-phase inequalities.

A phase is a maximal run of events containing exactly M loads plus stores
(the last phase may fall short). Fma and evict events ride along for free
and belong to the phase whose I/O budget was open when they happened; the
boundary falls immediately before the load or store that would be transfer
M + 1. Per phase we count events by opcode and record the distinct A, B
and C elements the fmas actually touched, which is what the sqrt(x*y*z)
fma cap and the S + M capacity argument constrain. A trace that breaks a
residency or bounds rule raises execute()'s own SimulationError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .memsim import MemoryConfig, execute
from .model import (
    OP_FMA,
    OP_STORE,
    Schedule,
    _check_positive,
    fma_operand_ids,
    layout,
)


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
    A broken rule raises execute()'s SimulationError, whose ``index`` names
    the failing event."""
    zeros = (np.zeros((rows, cols)) for rows, cols, _ in layout(trace.dims))
    execute(trace, config, *zeros)


def partition_phases(trace: Schedule, config: PhaseConfig) -> list[PhaseReport]:
    """Split a valid trace at every M-th transfer and report each phase.

    A trace execute() has not yet accepted first goes through validate_trace()
    with room for every element, so the fast-memory size need not be known; a
    broken rule raises execute()'s SimulationError. An empty trace yields no
    phases. Counts come from one (phase, opcode) table; resident_at_start is
    loads - stores - evicts summed over the earlier phases.
    """
    M = config.M
    # element ids of A, B and C run from 0 to size - 1
    size = sum(rows * cols for rows, cols, _ in layout(trace.dims))
    if not trace._legal:  # set by a successful execute(); a Schedule cannot change
        validate_trace(trace, MemoryConfig(size))

    codes = trace.codes
    if not len(codes):
        return []
    ops = codes[:, 0]
    # an event belongs to the phase of the latest transfer at or before it,
    # and events before the first transfer to phase 0; the transfers are
    # ops <= OP_STORE because loads and stores are opcodes 0 and 1
    phase = np.maximum(np.cumsum(ops <= OP_STORE) - 1, 0) // M
    count = int(phase[-1]) + 1
    # one row per phase, one column per opcode
    loads, stores, evicts, fmas = np.bincount(phase * 4 + ops, minlength=4 * count).reshape(count, 4).T
    net = loads - stores - evicts
    resident_at_start = np.cumsum(net) - net
    # footprints hold the element ids of each fma's A, B and C
    fma = ops == OP_FMA
    fma_phase = phase[fma]
    del phase  # frees a whole-trace array before the footprints peak
    ids = fma_operand_ids(trace.dims, codes[fma, 1], codes[fma, 2], codes[fma, 3])
    xs, ys, zs = (_distinct_per_phase(fma_phase, each, count, size) for each in ids)
    rows = zip(*(column.tolist() for column in (loads, stores, fmas, xs, ys, zs, resident_at_start)))
    return [PhaseReport(index, *row) for index, row in enumerate(rows)]


def _distinct_per_phase(phase: np.ndarray, ids: np.ndarray, count: int, size: int) -> np.ndarray:
    """Number of distinct ids in each phase, for ids below size."""
    # one key per (phase, id) pair, below count * size <= N * size for a
    # trace of N events: far inside int64, which a billion events over nine
    # billion elements would take to fill
    keys = np.sort(phase * size + ids)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.bincount(keys[first] // size, minlength=count)


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


def phase_efficiency(reports: list[PhaseReport]) -> float:
    """Total fmas per transfer across all phases.

    At full phases of M = 2S a schedule can reach at most sqrt(S)/2; the
    blocked algorithms approach b/2 at scale.
    """
    if not reports:
        raise EmptyInputError("no phases to aggregate")
    total_fmas = sum(r.fmas for r in reports)
    total_io = sum(r.loads + r.stores for r in reports)
    if total_io == 0:
        raise EmptyInputError("phases contain no transfers")
    return total_fmas / total_io


# The wire columns of a phase, in order: the CSV header, and the keys of each
# phase in `iomma phases --format json`. "phase" holds the report's index,
# every other column the attribute of its name.
PHASE_COLUMNS = ("phase", "loads", "stores", "fmas", "x", "y", "z", "lw_bound", "resident_at_start")
PHASE_CSV_HEADER = ",".join(PHASE_COLUMNS)
phase_row = operator.attrgetter("index", *PHASE_COLUMNS[1:])
_CSV_ROW = ",".join(["%s"] * len(PHASE_COLUMNS))


def phases_to_csv(reports: list[PhaseReport]) -> str:
    """Render reports as the one-row-per-phase CSV wire format."""
    lines = [PHASE_CSV_HEADER]
    lines += (_CSV_ROW % phase_row(r) for r in reports)
    return "\n".join(lines) + "\n"
