"""The shared deterministic reduction core.

Every port emulation used to finalise its reductions in its own floating
point order — Kokkos summed a whole contribution array with ``np.sum``,
RAJA accumulated per-segment partials left to right, CUDA and OpenCL ran
an in-device tree and then ``np.sum``-ed the block partials on the host,
and OpenMP summed per-thread chunk partials at the join.  Those orders all
differ at ULP level, so CG's ``alpha``/``beta`` diverged across ports and
the drift compounded over hundreds of iterations, breaking the paper's
premise that "core solver logic and parameters were kept consistent
between ports".

This module defines the *one* canonical summation order every port now
finalises through:

1. the contribution vector (one value per interior cell, row-major) is
   zero-padded to a whole number of :data:`CHUNK`-wide chunks;
2. each chunk is folded by the classic power-of-two stride-halving
   pairwise tree — exactly the shared-memory tree the CUDA/OpenCL
   emulations already run per block/work-group of :data:`CHUNK` lanes, so
   their in-device stage *is* the canonical chunk stage;
3. the chunk partials are zero-padded to the next power of two and folded
   by the same pairwise tree (:func:`combine_partials`), replacing each
   port's ad-hoc host-side combine.

Zero-padding is exact for IEEE-754 addition (``x + 0.0 == x`` for every
non-degenerate ``x``), so any port that naturally produces a zero tail —
a GPU launch rounded up to whole blocks, say — already matches the
canonical padding bit for bit.

Each port still *dispatches* its reduction through its own API shape
(functors + reducers, ``ReduceSum`` objects, device partials buffers,
``reduction(+:...)`` chunk partials) and still records its own trace
events; only the floating-point combine order is shared.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Canonical chunk width: the CUDA block size / OpenCL work-group size the
#: TeaLeaf GPU ports launch with, so the device tree equals the chunk tree.
CHUNK = 128


def _tree_fold(work: np.ndarray) -> np.ndarray:
    """Fold the leading axis of ``(2**k, m)`` ``work`` in place; returns row 0.

    This is the shared-memory reduction loop —
    ``if (tid < stride) sdata[tid] += sdata[tid + stride]`` — run for all
    ``m`` columns at once.  Column ``c`` holds one tree's lanes, so every
    level adds two contiguous row blocks.  Each lane pair is added in the
    same order as when the tree ran along a row of the ``(m, 2**k)``
    layout, so the ``m`` results have the same bits.
    """
    stride = work.shape[0] // 2
    while stride >= 1:
        work[:stride] += work[stride : 2 * stride]
        stride //= 2
    return work[0]


def _lane_major(rows: np.ndarray, chunk: int) -> np.ndarray:
    """Zero-padded ``(chunk, k * m)`` transpose of ``k`` equal-length rows.

    Column ``l * m + c`` holds chunk ``c`` of row ``l``: element
    ``[t, l * m + c]`` is ``rows[l, c * chunk + t]``, zero past the end.
    """
    k, n = rows.shape
    m = -(-n // chunk)
    work = np.zeros((chunk, k, m))
    full = n // chunk
    if full:
        work[:, :, :full] = (
            rows[:, : full * chunk].reshape(k, full, chunk).transpose(2, 0, 1)
        )
    if full < m:
        work[: n - full * chunk, :, full] = rows[:, full * chunk :].T
    return work.reshape(chunk, k * m)


def _row_sums(rows: np.ndarray, chunk: int = CHUNK) -> np.ndarray:
    """Canonical sum of each row of ``(k, n)`` ``rows`` -> ``(k,)``.

    Both stages fold every row at once: stage 1 over the ``k * m`` chunks,
    stage 2 over the ``k`` zero-padded partial vectors.
    """
    k, n = rows.shape
    if n == 0:
        return np.zeros(k)
    m = -(-n // chunk)
    partials = _tree_fold(_lane_major(rows, chunk)).reshape(k, m)
    width = 1
    while width < m:
        width <<= 1
    work = np.zeros((width, k))
    work[:m] = partials.T
    return _tree_fold(work)


def chunk_partials(values: np.ndarray, chunk: int = CHUNK) -> np.ndarray:
    """Stage 1: per-chunk pairwise-tree sums of a zero-padded vector."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return np.zeros(0)
    return _tree_fold(_lane_major(flat.reshape(1, -1), chunk)).copy()


def combine_partials(partials: np.ndarray) -> float:
    """Stage 2: fold chunk/block partials by one zero-padded pairwise tree.

    This is the canonical host-side combine: GPU ports call it directly on
    the block partials they copied back from the device.
    """
    flat = np.asarray(partials, dtype=np.float64).ravel()
    if flat.size == 0:
        return 0.0
    width = 1
    while width < flat.size:
        width <<= 1
    work = np.zeros(width)
    work[: flat.size] = flat
    return float(_tree_fold(work))


def deterministic_sum(values: np.ndarray, chunk: int = CHUNK) -> float:
    """The canonical fixed-shape sum every port's reduction finalises with."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    return float(_row_sums(flat.reshape(1, -1), chunk)[0])


def deterministic_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Canonical dot product: elementwise products, canonical sum."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    return deterministic_sum(av * bv)


def deterministic_multi_sum(arrays: Sequence[np.ndarray]) -> tuple[float, ...]:
    """Several canonical sums in one fold (the field summary's four totals).

    ``arrays`` holds equal-length vectors, or is one ``(k, n)`` array whose
    rows are summed; entry ``l`` is bitwise ``deterministic_sum(arrays[l])``.
    A batched context passes one row per lane.
    """
    rows = np.asarray(arrays, dtype=np.float64)
    return tuple(_row_sums(rows.reshape(len(rows), -1)).tolist())
