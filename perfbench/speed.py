"""Machine-speed reference: a fixed kernel timed between operations.

The benchmark runs on shared hosts whose speed drifts by 20-30% for
minutes at a time, and every workload slows down with it.  So the
kernel below, which does not touch the package, is timed between the
timed operations (at most every quarter second), and each operation
time is divided by the faster of the two kernel times around it.
Multiplied by ``NOMINAL_S``, that is the operation's time on this
machine at the speed where the kernel takes ``NOMINAL_S``.  A change to
the package cannot move the kernel, so it moves the scaled times
exactly as it moves the raw ones.

The kernel mixes the two kinds of work the package does: a numpy part
(batched small matmul, a cast, masking and a weighted reduction, over
arrays larger than a core's cache) and a pure-Python integer loop.
"""

from __future__ import annotations

import time

import numpy as np

# About the fastest time of kernel() on a 2-core Intel Xeon sandbox
# (Python 3.11, numpy 2.4).  It sets only the scale of the scaled
# metrics, not their spread or any comparison.
NOMINAL_S = 0.009

_rng = np.random.default_rng(20220531)
_MATS = _rng.integers(0, 64, size=(1024, 3, 3)).astype(np.float32)
_TABLE = _rng.integers(0, 64, size=(3, 1024)).astype(np.float32)
_WEIGHTS = np.array([1, 64, 4096], dtype=np.int32)
# 28 MB, preallocated: larger than a core's cache, so the kernel feels
# the memory traffic of other tenants as the package's kernels do, and
# it never calls the allocator whose state the package leaves behind
_PROD_F = np.empty((1024, 3, 1024), dtype=np.float32)
_PROD_I = np.empty((1024, 3, 1024), dtype=np.int32)
_CODES = np.empty((1024, 1024), dtype=np.int32)


def kernel() -> int:
    np.matmul(_MATS, _TABLE, out=_PROD_F)
    _PROD_I[...] = _PROD_F
    np.bitwise_and(_PROD_I, 63, out=_PROD_I)
    np.einsum("bnq,n->bq", _PROD_I, _WEIGHTS, out=_CODES)
    acc = int(_CODES.sum())
    for i in range(24000):
        acc = (acc * 31 + i) % 1000003
    return acc


_EXPECTED = kernel()


class Speed:
    """Times of the reference kernel, one per call of sample()."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        # an untimed first run brings the arrays back into the caches, so
        # the time depends less on what the package did just before
        kernel()
        t0 = time.perf_counter()
        value = kernel()
        dt = time.perf_counter() - t0
        if value != _EXPECTED:
            raise AssertionError("reference kernel gave a different answer")
        self.samples.append(dt)
        return dt

    def scale(self, before: float, after: float) -> float:
        """Factor from raw seconds to seconds at nominal speed, for work
        timed between two kernel samples."""
        return NOMINAL_S / min(before, after)
