"""Seeded input generation: the splitmix64 stream and matrix filling order."""

import numpy as np
import pytest

from iomma import ProblemDims, SplitMix64, seeded_matrices


def test_splitmix64_known_vectors():
    # published outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_stream_is_reproducible():
    dims = ProblemDims(3, 4, 5)
    first = seeded_matrices(dims, 42)
    second = seeded_matrices(dims, 42)
    for x, y in zip(first, second):
        assert x.tobytes() == y.tobytes()
    other = seeded_matrices(dims, 43)
    assert first[0].tobytes() != other[0].tobytes()


def test_values_in_signed_unit_interval():
    a, b, c = seeded_matrices(ProblemDims(8, 8, 8), 0)
    for mat in (a, b, c):
        assert mat.dtype == np.float64
        assert (mat >= -1.0).all() and (mat < 1.0).all()


def test_fill_order_a_b_c_row_major():
    dims = ProblemDims(2, 2, 1)  # A 2x1, B 1x2, C 2x2
    a, b, c = seeded_matrices(dims, 7)
    rng = SplitMix64(7)
    stream = [rng.next_signed_unit() for _ in range(8)]
    assert a.flatten().tolist() == stream[0:2]
    assert b.flatten().tolist() == stream[2:4]
    assert c.flatten().tolist() == stream[4:8]


def test_shapes_follow_dims():
    a, b, c = seeded_matrices(ProblemDims(2, 3, 4), 1)
    assert a.shape == (2, 4)
    assert b.shape == (4, 3)
    assert c.shape == (2, 3)


@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 - 1, 2**70])
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (5, 1, 3), (7, 6, 9)])
def test_closed_form_follows_the_scalar_stream(seed, dims):
    # SplitMix64 states the stream one step at a time; seeded_matrices
    # computes it in closed form, and the two agree bit for bit
    rng = SplitMix64(seed)
    for mat in seeded_matrices(ProblemDims(*dims), seed):
        rows, cols = mat.shape
        expected = [[rng.next_signed_unit() for _ in range(cols)] for _ in range(rows)]
        assert mat.tobytes() == np.array(expected, dtype=float).tobytes()
