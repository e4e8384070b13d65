"""Schedule generators: block sizing, exact I/O counts, and agreement
between structural prediction and simulation on arbitrary shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iomma import (
    Algorithm,
    Evict,
    Fma,
    Load,
    Matrix,
    MemoryConfig,
    OperandRef,
    ProblemDims,
    Store,
    TooSmallError,
    block_size,
    build_schedule,
    execute,
    predicted_io,
    reference_gemm,
    seeded_matrices,
    tiny_optimal_schedule,
)
from iomma.algorithms import _segments, blocked_reads, blocked_schedule

ALL_ALGS = list(Algorithm)
BLOCKED = [Algorithm.A, Algorithm.B, Algorithm.C]
RESIDENT = {Algorithm.A: Matrix.A, Algorithm.B: Matrix.B, Algorithm.C: Matrix.C}


@pytest.mark.parametrize("S,b", [(4, 1), (8, 1), (9, 2), (10, 2), (16, 3), (25, 4), (100, 9)])
def test_block_size(S, b):
    assert block_size(S) == b


def test_block_size_too_small():
    for S in (1, 2, 3):
        with pytest.raises(TooSmallError):
            block_size(S)


def test_block_fits_with_streaming_room():
    # a b x b tile plus one column piece and one row piece must fit in S
    for S in range(4, 400):
        b = block_size(S)
        assert b * b + 2 * b <= S


def _counts(alg, dims, S, seed=11):
    schedule = build_schedule(alg, dims, S)
    a, b, c = seeded_matrices(dims, seed)
    return execute(schedule, MemoryConfig(S), a, b, c).stats


def test_naive_counts():
    stats = _counts(Algorithm.NAIVE, ProblemDims(2, 3, 4), 16)
    assert (stats.reads, stats.writes) == (72, 24)
    assert stats.peak_residency == 3


def test_alg_c_counts():
    stats = _counts(Algorithm.C, ProblemDims(6, 6, 6), 16)
    assert (stats.reads, stats.writes) == (180, 36)
    assert stats.peak_residency == 15  # b^2 + 2b at b=3
    stats = _counts(Algorithm.C, ProblemDims(3, 3, 3), 16)
    assert (stats.reads, stats.writes) == (27, 9)


def test_alg_a_b_counts():
    for alg in (Algorithm.A, Algorithm.B):
        stats = _counts(alg, ProblemDims(6, 6, 6), 16)
        assert (stats.reads, stats.writes) == (180, 72)
        assert stats.writes <= stats.reads


def test_mirror_pair_asymmetric_dims():
    # A partitions the (i,p) grid, B the (p,j) grid; on a 6x3x3 problem the
    # two layouts differ, so the mirror symmetry shows up in the counts.
    dims = ProblemDims(6, 3, 3)  # mnk = 54, b = 3
    stats_a = _counts(Algorithm.A, dims, 16)
    assert (stats_a.reads, stats_a.writes) == (54, 18)  # 2*54/3 + m*k, n*m*k/b
    stats_b = _counts(Algorithm.B, dims, 16)
    assert (stats_b.reads, stats_b.writes) == (45, 18)  # 2*54/3 + n*k
    assert predicted_io(Algorithm.A, dims, 16).closed_form_reads == 54.0
    assert predicted_io(Algorithm.B, dims, 16).closed_form_reads == 45.0


def test_too_small_propagates():
    dims = ProblemDims(2, 2, 2)
    for alg in BLOCKED:
        with pytest.raises(TooSmallError):
            build_schedule(alg, dims, 3)
        with pytest.raises(TooSmallError):
            predicted_io(alg, dims, 3)


def test_naive_too_small_raises_from_the_one_rule():
    # naive's schedule used to be built at S=2 and rejected only by execute,
    # and the exact search raised a plain ValueError of its own
    dims = ProblemDims(2, 2, 2)
    message = "S=2 is too small for the naive schedule (need S >= 3)"
    for call in (build_schedule, predicted_io):
        with pytest.raises(TooSmallError) as exc:
            call(Algorithm.NAIVE, dims, 2)
        assert str(exc.value) == message
    with pytest.raises(TooSmallError) as exc:
        tiny_optimal_schedule(dims, 2)
    assert str(exc.value) == message


@pytest.mark.parametrize("alg", ALL_ALGS)
@pytest.mark.parametrize("size,S", [(6, 16), (9, 16), (4, 9), (8, 9), (12, 16)])
def test_closed_forms_on_divisible_dims(alg, size, S):
    dims = ProblemDims(size, size, size)
    if size % block_size(S):
        pytest.skip("not block-aligned")
    predicted = predicted_io(alg, dims, S)
    assert predicted.reads == predicted.closed_form_reads
    assert predicted.writes == predicted.closed_form_writes


dims_strategy = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)


@settings(max_examples=60, deadline=None)
@given(dims=dims_strategy, S=st.sampled_from([4, 9, 16, 25]), alg=st.sampled_from(ALL_ALGS))
def test_prediction_matches_simulation(dims, S, alg):
    dims = ProblemDims(*dims)
    schedule = build_schedule(alg, dims, S)
    a, b, c = seeded_matrices(dims, 3)
    result = execute(schedule, MemoryConfig(S), a, b, c)
    predicted = predicted_io(alg, dims, S)
    assert result.stats.reads == predicted.reads
    assert result.stats.writes == predicted.writes
    stats = result.stats
    assert (stats.reads_a, stats.reads_b, stats.reads_c) == (
        predicted.reads_a, predicted.reads_b, predicted.reads_c
    )
    if alg in RESIDENT:
        # each operand's reads, not only their sum: on square dims two
        # swapped terms would leave the sum unchanged
        edge = block_size(S)
        stats = result.stats
        split = (stats.reads_a, stats.reads_b, stats.reads_c)
        assert split == blocked_reads(RESIDENT[alg], dims, (edge, edge))[1:]
    assert result.stats.fmas == dims.m * dims.n * dims.k
    assert result.stats.peak_residency <= S
    assert predicted.writes <= predicted.reads
    assert result.output_c.tobytes() == reference_gemm(a, b, c).tobytes()


@settings(max_examples=30, deadline=None)
@given(dims=dims_strategy, S=st.sampled_from([9, 16, 25]))
def test_alg_c_reads_beat_naive(dims, S):
    dims = ProblemDims(*dims)
    naive = predicted_io(Algorithm.NAIVE, dims, S)
    blocked = predicted_io(Algorithm.C, dims, S)
    assert blocked.reads <= naive.reads
    assert blocked.writes <= naive.writes


def _summed_io(alg, dims, S):
    """(reads, writes, closed_form_reads, closed_form_writes) by walking every
    block pair the generators emit; the oracle for the closed-form counts."""
    m, n, k = dims.m, dims.n, dims.k
    mnk = m * n * k
    if alg is Algorithm.NAIVE:
        return 3 * mnk, mnk, 3.0 * mnk, float(mnk)
    b = block_size(S)
    reads = writes = 0
    if alg is Algorithm.C:
        for _, bm in _segments(m, b):
            for _, bn in _segments(n, b):
                reads += bm * bn + k * (bm + bn)
        return reads, m * n, 2.0 * mnk / b + m * n, float(m * n)
    if alg is Algorithm.B:
        for _, bk in _segments(k, b):
            for _, bn in _segments(n, b):
                reads += bk * bn + m * (bk + bn)
                writes += m * bn
        return reads, writes, 2.0 * mnk / b + n * k, mnk / b
    for _, bm in _segments(m, b):
        for _, bk in _segments(k, b):
            reads += bm * bk + n * (bm + bk)
            writes += n * bm
    return reads, writes, 2.0 * mnk / b + m * k, mnk / b


@settings(max_examples=500, deadline=None)
@given(
    dims=st.tuples(*[st.integers(min_value=1, max_value=40)] * 3),
    S=st.integers(min_value=4, max_value=400),
    alg=st.sampled_from(ALL_ALGS),
)
def test_predicted_io_matches_block_summation(dims, S, alg):
    # S 4..400 gives b = 1..19, so dims smaller than b and b = 1 both occur
    dims = ProblemDims(*dims)
    predicted = predicted_io(alg, dims, S)
    fields = (predicted.reads, predicted.writes,
              predicted.closed_form_reads, predicted.closed_form_writes)
    assert fields == _summed_io(alg, dims, S)


def test_predicted_io_is_closed_form_at_scale():
    # a block walk would take ~10^11 steps here; ceil(10^6 / 3) = 333334 segments
    dims = ProblemDims(10**6, 10**6, 10**6)
    expected = {
        Algorithm.NAIVE: (3 * 10**18, 10**18),
        Algorithm.C: (666_669 * 10**12, 10**12),
        Algorithm.B: (666_669 * 10**12, 333_334 * 10**12),
        Algorithm.A: (666_669 * 10**12, 333_334 * 10**12),
    }
    for alg, counts in expected.items():
        predicted = predicted_io(alg, dims, 16)
        assert (predicted.reads, predicted.writes) == counts


def _loop_events(alg, dims, S):
    """Every event of a schedule, emitted one at a time by plain loops; the
    oracle for the array-built generators."""
    m, n, k = dims.m, dims.n, dims.k
    A, B, C = Matrix.A, Matrix.B, Matrix.C
    events = []
    emit = events.append
    if alg is Algorithm.NAIVE:
        for i in range(m):
            for j in range(n):
                for p in range(k):
                    a_ref, b_ref, c_ref = OperandRef(A, i, p), OperandRef(B, p, j), OperandRef(C, i, j)
                    for event in (Load(a_ref), Load(b_ref), Load(c_ref), Fma(i, j, p),
                                  Store(c_ref), Evict(a_ref), Evict(b_ref)):
                        emit(event)
        return tuple(events)
    b = block_size(S)
    if alg is Algorithm.C:
        for i0, bm in _segments(m, b):
            for j0, bn in _segments(n, b):
                rows, cols = range(i0, i0 + bm), range(j0, j0 + bn)
                for i in rows:
                    for j in cols:
                        emit(Load(OperandRef(C, i, j)))
                for p in range(k):
                    for i in rows:
                        emit(Load(OperandRef(A, i, p)))
                    for j in cols:
                        emit(Load(OperandRef(B, p, j)))
                    for i in rows:
                        for j in cols:
                            emit(Fma(i, j, p))
                    for i in rows:
                        emit(Evict(OperandRef(A, i, p)))
                    for j in cols:
                        emit(Evict(OperandRef(B, p, j)))
                for i in rows:
                    for j in cols:
                        emit(Store(OperandRef(C, i, j)))
    elif alg is Algorithm.B:
        for p0, bk in _segments(k, b):
            for j0, bn in _segments(n, b):
                ps, cols = range(p0, p0 + bk), range(j0, j0 + bn)
                for p in ps:
                    for j in cols:
                        emit(Load(OperandRef(B, p, j)))
                for i in range(m):
                    for p in ps:
                        emit(Load(OperandRef(A, i, p)))
                    for j in cols:
                        emit(Load(OperandRef(C, i, j)))
                    for j in cols:
                        for p in ps:
                            emit(Fma(i, j, p))
                    for j in cols:
                        emit(Store(OperandRef(C, i, j)))
                    for p in ps:
                        emit(Evict(OperandRef(A, i, p)))
                for p in ps:
                    for j in cols:
                        emit(Evict(OperandRef(B, p, j)))
    else:
        for i0, bm in _segments(m, b):
            for p0, bk in _segments(k, b):
                rows, ps = range(i0, i0 + bm), range(p0, p0 + bk)
                for i in rows:
                    for p in ps:
                        emit(Load(OperandRef(A, i, p)))
                for j in range(n):
                    for p in ps:
                        emit(Load(OperandRef(B, p, j)))
                    for i in rows:
                        emit(Load(OperandRef(C, i, j)))
                    for i in rows:
                        for p in ps:
                            emit(Fma(i, j, p))
                    for i in rows:
                        emit(Store(OperandRef(C, i, j)))
                    for p in ps:
                        emit(Evict(OperandRef(B, p, j)))
                for i in rows:
                    for p in ps:
                        emit(Evict(OperandRef(A, i, p)))
    return tuple(events)


@settings(max_examples=200, deadline=None)
@given(
    dims=dims_strategy,
    S=st.integers(min_value=4, max_value=100),
    alg=st.sampled_from(ALL_ALGS),
)
def test_generators_match_loop_oracle(dims, S, alg):
    # S 4..100 gives b = 1..9, so partial blocks and dims below b both occur
    dims = ProblemDims(*dims)
    assert build_schedule(alg, dims, S).events == _loop_events(alg, dims, S)


@pytest.mark.parametrize(
    "alg,dims,split",
    [
        (Algorithm.C, (6, 6, 6), (72, 72, 36)),  # k*m*sn, k*n*sm, m*n
        (Algorithm.B, (6, 6, 6), (72, 36, 72)),  # m*k*sn, k*n, m*n*sk
        (Algorithm.A, (6, 6, 6), (36, 72, 72)),  # m*k, n*k*sm, n*m*sk
        (Algorithm.NAIVE, (2, 3, 4), (24, 24, 24)),
    ],
)
def test_reads_split_by_operand(alg, dims, split):
    stats = _counts(alg, ProblemDims(*dims), 16)
    assert (stats.reads_a, stats.reads_b, stats.reads_c) == split
    assert sum(split) == stats.reads


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
    shape=st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)),
    resident=st.sampled_from(list(Matrix)),
)
def test_rectangular_blocks_match_blocked_reads(dims, shape, resident):
    # a rows x cols block plus one streamed piece of each other operand
    dims = ProblemDims(*dims)
    rows, cols = shape
    S = rows * cols + rows + cols
    schedule = blocked_schedule(resident, dims, shape)
    a, b, c = seeded_matrices(dims, 5)
    result = execute(schedule, MemoryConfig(S), a, b, c)
    stats = result.stats
    reads = blocked_reads(resident, dims, shape)
    assert (stats.reads, stats.reads_a, stats.reads_b, stats.reads_c) == reads
    assert stats.writes == reads[3]  # C's term
    assert result.output_c.tobytes() == reference_gemm(a, b, c).tobytes()
