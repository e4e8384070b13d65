"""Core value types for two-level I/O accounting of C := A*B + C.

Everything downstream (the simulator, the schedule generators, the phase
analyzer) speaks in these types: a problem shape, references to individual
matrix elements, and the four kinds of trace events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Matrix(str, Enum):
    """Which of the three operand matrices an element belongs to."""

    A = "A"
    B = "B"
    C = "C"


class OutOfBoundsError(ValueError):
    """An event coordinate falls outside the problem dimensions.

    ``coordinate`` names the offending index ("i", "j", "p", "row" or "col");
    ``index`` is the position of the offending event in the schedule.
    """

    index: int | None = None

    def __init__(self, coordinate: str, message: str):
        super().__init__(message)
        self.coordinate = coordinate


@dataclass(frozen=True, slots=True)
class ProblemDims:
    """Shape of the multiply-accumulate: A is m-by-k, B is k-by-n, C is m-by-n."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        for name in ("m", "n", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class OperandRef:
    """A single scalar element, identified by matrix and zero-based position."""

    matrix: Matrix
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class Load:
    """Copy one element from slow to fast memory. Costs one read."""

    ref: OperandRef


@dataclass(frozen=True, slots=True)
class Store:
    """Write a C element back to slow memory and free its slot. Costs one write."""

    ref: OperandRef


@dataclass(frozen=True, slots=True)
class Evict:
    """Free the slot of a clean resident element. Free of charge."""

    ref: OperandRef


@dataclass(frozen=True, slots=True)
class Fma:
    """c(i,j) += a(i,p) * b(p,j); all three operands must be resident."""

    i: int
    j: int
    p: int


TraceEvent = Load | Store | Evict | Fma


@dataclass(frozen=True)
class Schedule:
    """An ordered event sequence together with the problem shape it targets."""

    events: tuple[TraceEvent, ...]
    dims: ProblemDims


@dataclass(frozen=True, slots=True)
class IOStats:
    """Exact counters produced by executing a schedule."""

    reads: int
    writes: int
    fmas: int
    peak_residency: int

    def __post_init__(self):
        for name in ("reads", "writes", "fmas", "peak_residency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def io_total(self) -> int:
        return self.reads + self.writes


def fma_count(dims: ProblemDims) -> int:
    """Total multiply-accumulates a complete schedule must perform: m*n*k."""
    return dims.m * dims.n * dims.k

