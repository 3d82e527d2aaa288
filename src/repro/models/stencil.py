"""Shared 5-point stencil arithmetic and interior-index helpers.

Every port applies the same symmetric five-point operator

    (A v)_ij = (1 + kxE + kxW + kyN + kyS) v_ij
               - (kxE v_E + kxW v_W) - (kyN v_N + kyS v_S)

but the paper's ports each re-derived the index arithmetic in their own
idiom: CUDA and OpenCL from a flattened 1-D launch index, Kokkos from
layout-polymorphic strides, RAJA from precomputed indirection lists, and
the OpenMP/OpenACC loop bodies from 2-D row slabs.  The *expressions* were
copy-pasted between those files; this module is the single home for them.

The diagonal term ``1 + kxE + kxW + kyN + kyS`` depends only on the
coefficients, so each port computes it once per write of kx/ky with
:func:`row_diag` and passes the cached array to the matvec helpers.

Bitwise contract: callers pass their own neighbour offsets / slices, and
each helper keeps exactly one association order, so all ports produce
bit-for-bit identical values regardless of how they index (the PR 3
equivalence gate depends on this).
"""

from __future__ import annotations

import numpy as np


def decode_interior(idx: np.ndarray, n: int, pitch: int, h: int, nx: int):
    """Overspill guard + interior flat-index computation for 1-D launches.

    ``idx`` is the batch of global work-item / thread indices; returns
    ``(valid, i, j, k)`` where ``valid`` masks indices below ``n``, ``i``
    is the flat padded-array position of each interior cell, and ``j``/``k``
    are its padded column/row coordinates.
    """
    valid = idx < n
    c = idx[valid]
    k = c // nx + h
    j = c % nx + h
    return valid, k * pitch + j, j, k


def flat_matvec(
    i: np.ndarray, v, diag, kx, ky, east: int, north: int
) -> np.ndarray:
    """A v at flat interior indices ``i`` with explicit neighbour offsets.

    CUDA/OpenCL pass ``east=1, north=pitch`` (row-major flattening), Kokkos
    passes its layout-derived strides, RAJA ``east=1, north=pitch``.
    ``diag`` is the port's cached diag(A), flat in the same layout.
    """
    return (
        diag[i] * v[i]
        - (kx[i + east] * v[i + east] + kx[i] * v[i - east])
        - (ky[i + north] * v[i + north] + ky[i] * v[i - north])
    )


def flat_diag(i: np.ndarray, kx, ky, east: int, north: int) -> np.ndarray:
    """diag(A) at flat interior indices ``i``.

    The flat-index form of :func:`row_diag`, with the same association
    order, for callers that address flat storage.
    """
    return 1.0 + kx[i + east] + kx[i] + ky[i + north] + ky[i]


def row_matvec(v, diag, kx, ky, I, Im, Ip, J, Jm, Jp) -> np.ndarray:
    """A v over a 2-D row slab given centre/shifted row and column slices.

    The OpenMP slab bodies pass slices covering rows ``[r0, r1)``; the
    Kokkos hierarchical port passes a single team row.  ``diag`` is the
    port's cached diag(A) (:func:`row_diag` over the whole interior).
    """
    return (
        diag[I, J] * v[I, J]
        - (kx[I, Jp] * v[I, Jp] + kx[I, J] * v[I, Jm])
        - (ky[Ip, J] * v[Ip, J] + ky[I, J] * v[Im, J])
    )


def row_diag(kx, ky, I, Ip, J, Jp) -> np.ndarray:
    """diag(A) = 1 + kxE + kxW + kyN + kyS over a 2-D row slab.

    kx and ky do not change within a solve, so ports evaluate this once
    per write of either (``Port._diag``) and every matvec, Jacobi sweep
    and preconditioner apply reads the cached array.
    """
    return 1.0 + kx[I, Jp] + kx[I, J] + ky[Ip, J] + ky[I, J]


def face_coefficient(wa, wb, scale):
    """Harmonic-mean face conduction coefficient with rx/ry folded in.

    ``scale * (wa + wb) / (2 wa wb)`` in exactly this association order —
    the tea_leaf_init bodies of every port (and the codegen backend) must
    produce the same bits for kx/ky or nothing downstream matches.
    """
    return scale * (wa + wb) / (2.0 * wa * wb)
