"""Core types: dimensions, operand references, events, bounds checking.

Bounds are checked by execute(), the one home of the model's rules."""

import pytest

from iomma import (
    Evict,
    Fma,
    IOStats,
    Load,
    Matrix,
    MemoryConfig,
    OperandRef,
    OutOfBoundsError,
    ProblemDims,
    Schedule,
    Store,
    execute,
    fma_count,
    seeded_matrices,
)


def _execute(events, dims):
    a, b, c = seeded_matrices(dims, 1)
    return execute(Schedule(tuple(events), dims), MemoryConfig(4), a, b, c)


def test_dims_reject_nonpositive():
    with pytest.raises(ValueError):
        ProblemDims(0, 1, 1)
    with pytest.raises(ValueError):
        ProblemDims(2, -1, 2)


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
