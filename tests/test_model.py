"""Core types: dimensions, operand references, events, bounds checking.

Bounds are checked by execute(), the one home of the model's rules."""

import re

import pytest

import iomma
from iomma import (
    Evict,
    Fma,
    GotoParams,
    IOStats,
    Load,
    Matrix,
    MemoryConfig,
    OperandRef,
    OutOfBoundsError,
    PhaseConfig,
    ProblemDims,
    Schedule,
    Store,
    execute,
    fma_count,
    fmax,
    seeded_matrices,
)
from iomma.algorithms import blocked_schedule


def _execute(events, dims):
    a, b, c = seeded_matrices(dims, 1)
    return execute(Schedule(tuple(events), dims), MemoryConfig(4), a, b, c)


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


def test_events_compare_by_type():
    ref = OperandRef(Matrix.A, 0, 0)
    assert Load(ref) == Load(OperandRef(Matrix.A, 0, 0))
    assert Load(ref) != Evict(ref)
    assert Store(OperandRef(Matrix.C, 1, 2)) != Load(OperandRef(Matrix.C, 1, 2))


def test_events_hashable_and_frozen():
    ref = OperandRef(Matrix.B, 1, 0)
    assert len({Load(ref), Load(ref), Evict(ref)}) == 2
    with pytest.raises(AttributeError):
        Load(ref).ref = OperandRef(Matrix.A, 0, 0)


@pytest.mark.parametrize(
    "ref,coordinate",
    [
        (OperandRef(Matrix.A, 2, 0), "row"),
        (OperandRef(Matrix.A, 0, 3), "col"),
        (OperandRef(Matrix.B, 3, 0), "row"),
        (OperandRef(Matrix.C, 0, 4), "col"),
        (OperandRef(Matrix.A, -1, 0), "row"),
    ],
)
def test_load_bounds_checked(ref, coordinate):
    dims = ProblemDims(2, 3, 3)  # A is 2x3, B 3x3, C 2x3
    with pytest.raises(OutOfBoundsError) as exc:
        _execute([Load(ref)], dims)
    assert exc.value.coordinate == coordinate
    assert exc.value.index == 0


@pytest.mark.parametrize(
    "i,j,p,coordinate",
    [(2, 0, 0, "i"), (0, 3, 0, "j"), (0, 0, 4, "p"), (0, -1, 0, "j")],
)
def test_fma_bounds_checked(i, j, p, coordinate):
    dims = ProblemDims(2, 3, 4)
    with pytest.raises(OutOfBoundsError) as exc:
        _execute([Load(OperandRef(Matrix.A, 0, 0)), Fma(i, j, p)], dims)
    assert exc.value.coordinate == coordinate
    assert exc.value.index == 1


def test_validate_accepts_in_range():
    dims = ProblemDims(2, 3, 4)
    a_ref = OperandRef(Matrix.A, 1, 3)
    b_ref = OperandRef(Matrix.B, 3, 2)
    c_ref = OperandRef(Matrix.C, 1, 2)
    events = [
        Load(a_ref), Load(b_ref), Load(c_ref), Fma(1, 2, 3),
        Store(c_ref), Evict(a_ref), Evict(b_ref),
    ]
    stats = _execute(events, dims).stats
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
