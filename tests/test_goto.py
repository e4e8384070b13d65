"""Two-cache read model: exact counts, references, and the suboptimal flag."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iomma import (
    BoundReport,
    DEFAULT_SUBOPTIMAL_THRESHOLD,
    GotoParams,
    Matrix,
    MemoryConfig,
    ProblemDims,
    execute,
    goto_report,
    l2_reads,
    l3_reads,
    seeded_matrices,
)
from iomma.algorithms import blocked_reads, blocked_schedule

D96 = ProblemDims(96, 96, 96)


def _params(**overrides):
    base = dict(n_c=48, k_c=12, m_c=12, n_r=4, m_r=4, S2=144, S3=576)
    base.update(overrides)
    return GotoParams(**base)


def test_l3_reads_frozen():
    assert l3_reads(D96, _params()) == 101376.0


def test_l2_reads_frozen():
    assert l2_reads(D96, _params()) == 156672.0


def test_l2_ratio_with_square_block():
    report = goto_report(D96, _params())
    assert report.l2_reference == 147456.0  # 2*mnk/sqrt(144)
    assert report.l2_ratio == pytest.approx(1.0625, abs=1e-12)


def test_skewed_panel_flagged_suboptimal():
    # 48x12 panel: ratio 101376/73728 = 1.375 above the 1.25 default
    report = goto_report(D96, _params())
    assert report.l3_ratio == pytest.approx(1.375, abs=1e-12)
    assert report.l3_suboptimal
    # square 24x24 panel in the same capacity: 82944/73728 = 1.125
    square = goto_report(D96, _params(n_c=24, k_c=24, m_c=6))
    assert square.l3_ratio == pytest.approx(1.125, abs=1e-12)
    assert not square.l3_suboptimal


def test_threshold_is_adjustable():
    report = goto_report(D96, _params(), suboptimal_threshold=1.5)
    assert not report.l3_suboptimal
    assert DEFAULT_SUBOPTIMAL_THRESHOLD == 1.25


def test_register_tiles_echo_only():
    a = goto_report(D96, _params(n_r=4, m_r=4))
    b = goto_report(D96, _params(n_r=8, m_r=2))
    assert (a.l3_reads, a.l2_reads, a.l3_ratio, a.l2_ratio) == (
        b.l3_reads, b.l2_reads, b.l3_ratio, b.l2_ratio
    )


def test_params_validated():
    with pytest.raises(ValueError):
        _params(n_c=0)
    with pytest.raises(ValueError):
        _params(m_c=13)  # 13*12 = 156 > S2 = 144
    with pytest.raises(ValueError):
        _params(n_c=49)  # 49*12 = 588 > S3 = 576


def test_l3_monotone_in_panel_width():
    wide = l3_reads(D96, _params(n_c=48))
    narrow = l3_reads(D96, _params(n_c=24))
    assert wide < narrow


def test_l2_symmetric_in_block_edges():
    p = _params(m_c=6, k_c=24, n_c=24)
    q = _params(m_c=24, k_c=6, n_c=24, S3=576)
    assert l2_reads(D96, p) == l2_reads(D96, q)


def test_square_l3_block_matches_two_level_reference():
    # n_c = k_c = sqrt(S3) reduces the model to the two-level reference
    # plus the one-time read of B
    dims = ProblemDims(4096, 4096, 4096)
    params = GotoParams(n_c=1024, k_c=1024, m_c=64, n_r=4, m_r=4,
                        S2=65536, S3=1 << 20)
    report = goto_report(dims, params)
    hong_kung = BoundReport.compute(dims, 1 << 20, 1 << 20).hong_kung_reference
    assert report.l3_reference == hong_kung
    assert report.l3_reads == hong_kung + dims.n * dims.k
    # the relative excess is sqrt(S3)/(2m): exactly 1/8 here
    assert report.l3_ratio == pytest.approx(1.125, abs=1e-12)


def test_typical_skew_ratio():
    # n_c much larger than k_c, as packed-panel layouts prefer: the model
    # charges the C pass at mnk/k_c and the ratio lands at 2.25
    dims = ProblemDims(4096, 4096, 4096)
    params = GotoParams(n_c=4096, k_c=256, m_c=64, n_r=4, m_r=4,
                        S2=65536, S3=1 << 20)
    report = goto_report(dims, params)
    assert report.l3_ratio == pytest.approx(2.25, abs=1e-12)
    assert report.l3_suboptimal


def test_l2_consistent_with_blocked_read_form():
    # m_c = k_c = floor(sqrt(S2)) makes the L2 count the continuous twin of
    # the A-resident blocked algorithm's reads 2mnk/b + mk with
    # b = floor(sqrt(S2)) - 1; they agree within the b vs sqrt(S) factor
    from iomma import Algorithm, block_size, predicted_io

    S2 = 144
    edge = block_size(S2) + 1  # 12
    dims = ProblemDims(264, 264, 264)  # divisible by both 11 and 12
    params = GotoParams(n_c=12, k_c=edge, m_c=edge, n_r=4, m_r=4,
                        S2=S2, S3=S2)
    model = l2_reads(dims, params)
    blocked = predicted_io(Algorithm.A, dims, S2).closed_form_reads
    ratio = blocked / model
    assert 1.0 <= ratio <= edge / (edge - 1)


def test_ratio_improves_with_scale():
    params = dict(n_c=1024, k_c=1024, m_c=64, n_r=4, m_r=4, S2=65536, S3=1 << 20)
    ratios = [
        goto_report(ProblemDims(size, size, size), GotoParams(**params)).l3_ratio
        for size in (4096, 8192, 16384)
    ]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[1] == pytest.approx(1.0625, abs=1e-12)


def _simulated_reads(resident, dims, shape):
    """IOStats of blocked_schedule with a rows x cols resident block, run in
    the capacity it needs at most: the block plus one streamed piece of each
    other operand."""
    rows, cols = shape
    peak = rows * cols + rows + cols
    a, b, c = seeded_matrices(dims, 2)
    stats = execute(blocked_schedule(resident, dims, shape), MemoryConfig(peak), a, b, c).stats
    assert stats.peak_residency <= peak
    return stats


def test_l3_and_l2_reads_simulate_exactly_at_criterion_10():
    params = _params()
    l3 = _simulated_reads(Matrix.B, D96, (params.k_c, params.n_c))
    assert l3.reads == l3_reads(D96, params) == 101376
    l2 = _simulated_reads(Matrix.A, D96, (params.m_c, params.k_c))
    assert l2.reads == l2_reads(D96, params) == 156672


def test_schedules_peak_above_the_capacities_that_params_admit():
    # GotoParams checks only the resident panel, k_c*n_c = 576 <= S3; the
    # schedule also holds a k_c piece of A and an n_c piece of C
    params = _params()
    assert params.k_c * params.n_c == params.S3 == 576
    stats = _simulated_reads(Matrix.B, ProblemDims(2, 48, 12), (params.k_c, params.n_c))
    assert stats.peak_residency == params.k_c * params.n_c + params.k_c + params.n_c == 636
    # likewise at L2: m_c*k_c = 144 = S2, plus a k_c piece of B and an m_c piece of C
    stats = _simulated_reads(Matrix.A, ProblemDims(12, 2, 12), (params.m_c, params.k_c))
    assert stats.peak_residency == params.m_c * params.k_c + params.m_c + params.k_c == 168


@pytest.mark.parametrize("dims,params", [
    ((20, 19, 13), dict(n_c=5, k_c=4, m_c=3)),
    ((7, 11, 9), dict(n_c=4, k_c=6, m_c=5)),
    ((13, 5, 17), dict(n_c=9, k_c=2, m_c=7)),
])
def test_blocked_reads_simulate_exactly_on_ragged_dims(dims, params):
    dims = ProblemDims(*dims)
    params = _params(**params, S2=64, S3=64)
    for resident, shape in ((Matrix.B, (params.k_c, params.n_c)),
                            (Matrix.A, (params.m_c, params.k_c))):
        stats = _simulated_reads(resident, dims, shape)
        split = (stats.reads, stats.reads_a, stats.reads_b, stats.reads_c)
        assert split == blocked_reads(resident, dims, shape)


@settings(max_examples=300, deadline=None)
@given(
    dims=st.tuples(*[st.integers(min_value=1, max_value=10**6)] * 3),
    blocks=st.tuples(*[st.integers(min_value=1, max_value=5000)] * 3),
)
def test_reads_match_the_model_expressions(dims, blocks):
    # the model's expressions as first written, the oracle for blocked_reads'
    # real form; equal as floats, not only approximately
    n_c, k_c, m_c = blocks
    params = _params(n_c=n_c, k_c=k_c, m_c=m_c, S2=m_c * k_c, S3=k_c * n_c)
    dims = ProblemDims(*dims)
    mnk = dims.m * dims.n * dims.k
    assert l3_reads(dims, params) == mnk / n_c + mnk / k_c + dims.n * dims.k
    assert l2_reads(dims, params) == mnk / m_c + mnk / k_c + dims.m * dims.k
