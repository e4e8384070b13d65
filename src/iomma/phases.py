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

from .memsim import MemoryConfig, _Replay, execute
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


def partition_phases(
    trace: Schedule, config: PhaseConfig, memory: MemoryConfig | None = None
) -> list[PhaseReport]:
    """Split a valid trace at every M-th transfer and report each phase.

    A trace execute() has not yet accepted is checked by execute()'s rules
    at memory's capacity or, by default, with room for every element, so
    the fast-memory size need not be known; a broken rule raises execute()'s
    SimulationError. A literal trace, such as a parsed one, is replayed in
    the same walk that splits it; other schedules go through
    validate_trace() first, since execute() moves a template's replay
    instead of replaying each move. An empty trace yields no phases. The
    trace is read a chunk at a time; the last phase a chunk reaches stays
    open into the next. Counts come from one (phase, opcode) table per
    chunk; resident_at_start is loads - stores - evicts summed over the
    earlier phases.
    """
    M = config.M
    dims = trace.dims
    # element ids of A, B and C run from 0 to size - 1; bounds holds the
    # first ids of A, B and C, then size
    shapes = layout(dims)
    size = sum(rows * cols for rows, cols, _ in shapes)
    replay = None
    if not trace._legal:  # set by a successful execute(); a Schedule cannot change
        memory = memory or MemoryConfig(size)
        if any(kinds is not None for _, kinds, _ in trace._runs):
            validate_trace(trace, memory)
        else:
            replay = _Replay(dims, memory.S, np.zeros(size), len(trace))
    bounds = np.array([first for *_, first in shapes] + [size])
    # per chunk, its first phase and a row per phase it reaches: loads,
    # stores, evicts, fmas, then the distinct A, B and C elements its fmas use
    parts = []
    transfers = start = 0
    # the open phase an element was last counted in, or -1
    counted = np.full(size, -1, dtype=np.int64)
    for chunk in trace.chunks():
        if replay:
            # the replay's element ids serve the footprints too
            ops, *ids = replay.feed(chunk)
            fma = ops == OP_FMA
            ids = [column[fma] for column in ids]
        else:
            ops = chunk[:, 0]
            fma = ops == OP_FMA
            ids = fma_operand_ids(dims, *chunk[fma, 1:].T)
        # an event belongs to the phase of the latest transfer at or before
        # it, and events before the first transfer to phase 0; the transfers
        # are ops <= OP_STORE because loads and stores are opcodes 0 and 1
        phase = np.cumsum(ops <= OP_STORE)
        phase += transfers - 1
        transfers = int(phase[-1]) + 1
        np.maximum(phase, 0, out=phase)
        phase //= M
        first, last = int(phase[0]), int(phase[-1])
        phase -= first
        count = last - first + 1
        table = np.empty((count, 7), dtype=np.int64)
        table[:, :4] = np.bincount(phase * 4 + ops, minlength=4 * count).reshape(count, 4)
        # one key per (phase, element) pair of the chunk's fmas, sorted and
        # distinct, and where each phase's A, B and C keys start and end
        keys = np.stack(ids)
        keys += phase[fma] * size
        keys = np.sort(keys, axis=None)
        distinct = np.empty(len(keys), dtype=bool)
        distinct[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        keys = keys[distinct]
        edges = np.searchsorted(keys, np.arange(0, count * size, size)[:, None] + bounds)
        table[:, 4:] = np.diff(edges)
        if start:  # the first phase may be open since an earlier chunk
            head = keys[:edges[0, 3]]
            seen = head[counted[head] == first]
            table[0, 4:] -= np.diff(np.searchsorted(seen, bounds))
        start += len(chunk)
        if start < len(trace):  # the last phase may stay open
            counted[keys[edges[-1, 0]:] - (count - 1) * size] = last
        parts.append((first, table))
    if replay:
        replay.finish()
        trace._mark_legal()
    if not parts:
        return []
    if len(parts) > 1:
        table = np.zeros((last + 1, 7), dtype=np.int64)
        for first, part in parts:
            table[first:first + len(part)] += part
    loads, stores, evicts, fmas, xs, ys, zs = table.T
    net = loads - stores - evicts
    resident_at_start = np.cumsum(net) - net
    rows = zip(*(column.tolist() for column in (loads, stores, fmas, xs, ys, zs, resident_at_start)))
    return [PhaseReport(index, *row) for index, row in enumerate(rows)]


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
