"""Bit-for-bit comparison of float arrays, for the parity checks.

``np.testing.assert_array_equal`` compares values, so it treats
``-0.0 == 0.0``: a fast path that turns a zero distance into ``-0.0``
still passes it.  :func:`assert_bits_equal` compares the float64 bit
patterns instead, so the sign of a zero (and the payload of a ``nan``)
must match too.  ``benchmarks/bench_featuregen.py --check`` imports it
as well.
"""

from __future__ import annotations

import numpy as np


def assert_bits_equal(actual: object, expected: object,
                      err_msg: str = "") -> None:
    """Raise ``AssertionError`` unless both arrays have the same shape and
    every float64 cell the same bit pattern."""
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        raise AssertionError(f"{err_msg}: shape {actual.shape} != "
                             f"{expected.shape}")
    differ = actual.view(np.uint64) != expected.view(np.uint64)
    if differ.any():
        cells = np.argwhere(differ)[:5]
        shown = ", ".join(f"{tuple(cell.tolist())}: {actual[tuple(cell)]!r}"
                          f" vs {expected[tuple(cell)]!r}" for cell in cells)
        raise AssertionError(f"{err_msg}: {int(differ.sum())} of "
                             f"{differ.size} cells differ in their bits "
                             f"(first: {shown})")
