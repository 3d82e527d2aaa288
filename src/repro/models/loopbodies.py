"""The OpenMP-C TeaLeaf loop bodies shared by the directive-based ports.

The paper's OpenMP 4.0 port "added a target region to each of the
performance critical functions" of the OpenMP C codebase, and the OpenACC
port "was possible to use the OpenMP 4.0 codebase as a starting point,
changing the directives but maintaining the same data transitions" (§3.1,
§3.2).  This module is that shared C codebase: each function is one loop
nest over a contiguous slab of interior rows ``[r0, r1)``, written exactly
as the directive models parallelise it (outer rows distributed across
threads/gangs, inner row vectorised).

Kokkos, RAJA, OpenCL and CUDA do **not** use these bodies — their ports
re-express the kernels through their own abstractions, as the paper's did.

All bodies take raw arrays plus the halo depth ``h`` and interior width
``nx`` (stencil bodies also take the port's cached diag(A) array); none
of them reads or writes outside rows ``[h+r0-1, h+r1+1)``,
which is what makes the static row decomposition race-free.  Update kernels
that read neighbour values of an array they also write are split into two
sweeps (matvec sweep, then axpy sweep), mirroring the reference kernels.
"""

from __future__ import annotations

import numpy as np

from repro.models.stencil import face_coefficient, row_matvec


def _rows(h: int, r0: int, r1: int, dk: int = 0) -> slice:
    return slice(h + r0 + dk, h + r1 + dk)


def _cols(h: int, nx: int, dj: int = 0) -> slice:
    return slice(h + dj, h + nx + dj)


def matvec_slab(
    out: np.ndarray,
    v: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """out[slab] = A v over interior rows [r0, r1)."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    Jp = _cols(h, nx, 1)
    Jm = _cols(h, nx, -1)
    Ip = _rows(h, r0, r1, 1)
    Im = _rows(h, r0, r1, -1)
    out[I, J] = row_matvec(v, diag, kx, ky, I, Im, Ip, J, Jm, Jp)


def tea_leaf_init_slab(
    density: np.ndarray,
    energy: np.ndarray,
    u: np.ndarray,
    u0: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    rx: float,
    ry: float,
    recip: bool,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """u = u0 = energy*density; face coefficients from density (harmonic)."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    Jm = _cols(h, nx, -1)
    Im = _rows(h, r0, r1, -1)

    u[I, J] = energy[I, J] * density[I, J]
    u0[I, J] = u[I, J]

    if recip:
        wc = 1.0 / density[I, J]
        wx = 1.0 / density[I, Jm]
        wy = 1.0 / density[Im, J]
    else:
        wc = density[I, J]
        wx = density[I, Jm]
        wy = density[Im, J]
    kx[I, J] = face_coefficient(wx, wc, rx)
    ky[I, J] = face_coefficient(wy, wc, ry)


def zero_boundary_coefficients(
    kx: np.ndarray, ky: np.ndarray, h: int, nx: int, ny: int
) -> None:
    """Zero wall-face coefficients: the reflective (zero-flux) boundary."""
    kx[:, : h + 1] = 0.0
    kx[:, h + nx :] = 0.0
    ky[: h + 1, :] = 0.0
    ky[h + ny :, :] = 0.0


def residual_slab(
    r: np.ndarray,
    u0: np.ndarray,
    u: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """r = u0 - A u."""
    matvec_slab(r, u, diag, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] = u0[I, J] - r[I, J]


def cg_init_slab(
    w: np.ndarray,
    r: np.ndarray,
    p: np.ndarray,
    u: np.ndarray,
    u0: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """w = A u; r = u0 - w; p = r; returns per-cell rro contributions."""
    matvec_slab(w, u, diag, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] = u0[I, J] - w[I, J]
    p[I, J] = r[I, J]
    rr = r[I, J]
    return (rr * rr).ravel()


def cg_calc_w_slab(
    w: np.ndarray,
    p: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """w = A p; returns per-cell pw = p.w contributions."""
    matvec_slab(w, p, diag, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    return (p[I, J] * w[I, J]).ravel()


def cg_calc_ur_slab(
    u: np.ndarray,
    r: np.ndarray,
    p: np.ndarray,
    w: np.ndarray,
    alpha: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """u += alpha p; r -= alpha w; returns per-cell rrn contributions."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    u[I, J] += alpha * p[I, J]
    r[I, J] -= alpha * w[I, J]
    rr = r[I, J]
    return (rr * rr).ravel()


def cg_calc_p_slab(
    p: np.ndarray,
    r: np.ndarray,
    beta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """p = r + beta p."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    p[I, J] = r[I, J] + beta * p[I, J]


def cheby_init_slab(
    r: np.ndarray,
    sd: np.ndarray,
    u: np.ndarray,
    u0: np.ndarray,
    w: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    theta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """r = u0 - A u; sd = r/theta (u update happens in the second sweep)."""
    matvec_slab(w, u, diag, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] = u0[I, J] - w[I, J]
    sd[I, J] = r[I, J] / theta


def cheby_calc_u_slab(
    u: np.ndarray,
    sd: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """u += sd (second sweep of init and iterate)."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    u[I, J] += sd[I, J]


def cheby_iterate_r_slab(
    r: np.ndarray,
    sd: np.ndarray,
    w: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """First sweep: r -= A sd (sd read-only, so slabs are race-free)."""
    matvec_slab(w, sd, diag, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] -= w[I, J]


def cheby_iterate_sd_slab(
    sd: np.ndarray,
    r: np.ndarray,
    u: np.ndarray,
    alpha: float,
    beta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """Second sweep: sd = alpha sd + beta r; u += sd."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    sd[I, J] = alpha * sd[I, J] + beta * r[I, J]
    u[I, J] += sd[I, J]


def ppcg_precon_init_slab(
    w: np.ndarray,
    sd: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    theta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """w = r; sd = w/theta; z = sd."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    w[I, J] = r[I, J]
    sd[I, J] = w[I, J] / theta
    z[I, J] = sd[I, J]


def cg_precon_slab(
    z: np.ndarray,
    r: np.ndarray,
    diag: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """z = r / diag(A), the diagonal-Jacobi preconditioner apply."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    z[I, J] = r[I, J] / diag[I, J]


def jacobi_iterate_slab(
    u: np.ndarray,
    un: np.ndarray,
    u0: np.ndarray,
    diag: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """u from old copy un: the Jacobi sweep; returns per-cell |u - un|."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    Jp = _cols(h, nx, 1)
    Jm = _cols(h, nx, -1)
    Ip = _rows(h, r0, r1, 1)
    Im = _rows(h, r0, r1, -1)
    u[I, J] = (
        u0[I, J]
        + kx[I, Jp] * un[I, Jp]
        + kx[I, J] * un[I, Jm]
        + ky[Ip, J] * un[Ip, J]
        + ky[I, J] * un[Im, J]
    ) / diag[I, J]
    return np.abs(u[I, J] - un[I, J]).ravel()


def finalise_slab(
    energy: np.ndarray,
    u: np.ndarray,
    density: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """energy = u / density."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    energy[I, J] = u[I, J] / density[I, J]


def field_summary_slab(
    density: np.ndarray,
    energy: np.ndarray,
    u: np.ndarray,
    cell_volume: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (volume, mass, internal energy, temperature) contributions.

    Each term is formed per cell — ``vol * d``, not ``vol * sum(d)`` — so
    the contribution values match the other ports' summary kernels bit for
    bit before the shared deterministic reduction folds them.
    """
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    d = density[I, J]
    e = energy[I, J]
    vol = np.full(d.size, cell_volume)
    mass = (cell_volume * d).ravel()
    ie = (cell_volume * d * e).ravel()
    temp = (cell_volume * u[I, J]).ravel()
    return vol, mass, ie, temp
