"""Core types: dimensions, trace bounds checking, counters.

Bounds are checked by execute(), the one home of the model's rules."""

import re

import pytest

import iomma
from iomma import (
    GotoParams,
    IOStats,
    Matrix,
    MemoryConfig,
    OutOfBoundsError,
    PhaseConfig,
    ProblemDims,
    execute,
    fma_count,
    fmax,
    parse_trace,
    seeded_matrices,
)
from iomma.algorithms import blocked_schedule


def _execute(trace, dims):
    a, b, c = seeded_matrices(dims, 1)
    return execute(parse_trace(trace, dims), MemoryConfig(4), a, b, c)


def test_dims_reject_nonpositive():
    with pytest.raises(ValueError):
        ProblemDims(0, 1, 1)
    with pytest.raises(ValueError):
        ProblemDims(2, -1, 2)


_GOTO = dict(n_c=4, k_c=4, m_c=4, n_r=1, m_r=1, S2=16, S3=16)
# each entry point that takes positive integers, called with one of them set
_POSITIVE_ENTRY_POINTS = {
    "ProblemDims": ("k", lambda value: ProblemDims(2, 2, value)),
    "MemoryConfig": ("S", lambda value: MemoryConfig(value)),
    "PhaseConfig": ("M", lambda value: PhaseConfig(value)),
    "GotoParams": ("m_r", lambda value: GotoParams(**{**_GOTO, "m_r": value})),
    "bounds": ("M", lambda value: fmax(4, value)),
    "blocked_schedule": (
        "cols", lambda value: blocked_schedule(Matrix.C, ProblemDims(2, 2, 2), (2, value))
    ),
}


@pytest.mark.parametrize("value", [0, -1, True, 2.0])
@pytest.mark.parametrize("entry", sorted(_POSITIVE_ENTRY_POINTS))
def test_positive_integer_check_everywhere(entry, value):
    name, call = _POSITIVE_ENTRY_POINTS[entry]
    message = f"{name} must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
    call(3)


def test_every_exported_name_resolves():
    assert len(set(iomma.__all__)) == len(iomma.__all__)
    for name in iomma.__all__:
        assert hasattr(iomma, name), name


def test_fma_count():
    assert fma_count(ProblemDims(6, 6, 6)) == 216
    assert fma_count(ProblemDims(2, 3, 5)) == 30


@pytest.mark.parametrize(
    "ref,coordinate",
    [
        (("A", 2, 0), "row"),
        (("A", 0, 3), "col"),
        (("B", 3, 0), "row"),
        (("C", 0, 4), "col"),
        (("A", -1, 0), "row"),
    ],
)
def test_load_bounds_checked(ref, coordinate):
    dims = ProblemDims(2, 3, 3)  # A is 2x3, B 3x3, C 2x3
    matrix, row, col = ref
    with pytest.raises(OutOfBoundsError) as exc:
        _execute(f"L {matrix} {row} {col}\n", dims)
    assert exc.value.coordinate == coordinate
    assert exc.value.index == 0


@pytest.mark.parametrize(
    "i,j,p,coordinate",
    [(2, 0, 0, "i"), (0, 3, 0, "j"), (0, 0, 4, "p"), (0, -1, 0, "j")],
)
def test_fma_bounds_checked(i, j, p, coordinate):
    dims = ProblemDims(2, 3, 4)
    with pytest.raises(OutOfBoundsError) as exc:
        _execute(f"L A 0 0\nF {i} {j} {p}\n", dims)
    assert exc.value.coordinate == coordinate
    assert exc.value.index == 1


def test_validate_accepts_in_range():
    dims = ProblemDims(2, 3, 4)
    trace = "L A 1 3\nL B 3 2\nL C 1 2\nF 1 2 3\nS C 1 2\nE A 1 3\nE B 3 2\n"
    stats = _execute(trace, dims).stats
    assert (stats.reads, stats.writes, stats.fmas) == (3, 1, 1)


def test_iostats_totals():
    stats = IOStats(
        reads=10, writes=4, fmas=7, peak_residency=3, reads_a=5, reads_b=3, reads_c=2
    )
    assert stats.io_total == 14
    with pytest.raises(ValueError):
        IOStats(
            reads=-1, writes=0, fmas=0, peak_residency=0, reads_a=-1, reads_b=0, reads_c=0
        )
    with pytest.raises(ValueError, match="equal reads"):
        IOStats(reads=10, writes=4, fmas=7, peak_residency=3, reads_a=5, reads_b=3, reads_c=1)
