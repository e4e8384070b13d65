"""Reproducible test inputs.

Matrix entries come from a splitmix64 stream so any implementation, in any
language, can regenerate them from the seed alone. The recurrence, with all
arithmetic modulo 2**64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31

Each output z maps to the double (z >> 11) * 2**-53 in [0, 1), then to
2*u - 1 in [-1, 1). One stream per seed fills A, then B, then C, each in
row-major order.
"""

from __future__ import annotations

import numpy as np

from .model import ProblemDims, layout

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny deterministic PRNG; same seed, same stream, everywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_signed_unit(self) -> float:
        """A double in [-1, 1), uniform over the 53-bit grid."""
        return (self.next_u64() >> 11) * 2.0**-53 * 2.0 - 1.0


def seeded_matrices(
    dims: ProblemDims, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical (A, B, C) input triple for a seed: A then B then C,
    row-major, from one splitmix64 stream.

    The stream is computed in closed form: the state before the i-th output
    (from 1) is seed + i * gamma modulo 2**64. Only uint64 arrays take part,
    whose arithmetic wraps silently, as the recurrence does.
    """
    shapes = layout(dims)
    count = sum(rows * cols for rows, cols, _ in shapes)
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN_GAMMA)
    z += np.uint64(seed & _MASK64)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    units = (z >> np.uint64(11)).astype(float) * 2.0**-53 * 2.0 - 1.0
    return tuple(
        units[first:first + rows * cols].reshape(rows, cols) for rows, cols, first in shapes
    )
