"""Nystrom discretization of the elastic transmission integral system.

The unknown densities (phi, psi) satisfy the 2x2 block system

    [ St               -S             ] [phi]   [ u_inc           ]
    [ (1/2 I + Kt*)    -(-1/2 I + K*) ] [psi] = [ d u_inc / d nu  ]

with S, K* the single-layer trace and traction operators of the exterior
material and St, Kt* those of the interior material (traction taken with
the interior Lame pair).  The traction of the single layer built on the
outgoing fundamental solution normalized by (L + rho w^2) Gamma = -delta I
jumps as T S|+- = (-+ 1/2 I + K*) with K* the principal value and an
outward normal; the interior limit carries +1/2 (verified numerically to
5e-6 by one-sided extrapolation; see the test suite).

All kernels are integrated with spectrally accurate rules on the uniform
parameter grid:

* weakly singular parts are split as K1(t,s) ln(4 sin^2((t-s)/2)) + K2
  and integrated with the classical periodic log-quadrature weights R;
* the Cauchy principal-value part of the traction kernel is exactly the
  elastostatic (Kelvin) skew kernel; its cot((s-t)/2) component is
  integrated with the Fourier-exact conjugation weights and the smooth
  remainder with the trapezoidal rule.

Diagonal limits of every smooth remainder are evaluated in closed form
(curvature terms), so convergence is superalgebraic for analytic curves.

Off the diagonal the rule needs no explicit split.  Y_nu carries the log
as (2/pi) J_nu ln r, and the kernels are linear in H_nu = J_nu + i Y_nu
with coefficients rational in r, so K1 is the kernel with H_nu replaced
by (i/pi) J_nu.  The weighted entry R_ij K1 + (2 pi/n) K2 is therefore
the kernel's radial formula (wavefields._radial_kernels) applied to

    Z_nu = (2 pi/n) H_nu + (i/pi) (R_ij - (2 pi/n) ln 4 sin^2) J_nu,

times |x'(t_j)|.  One table of J_0, J_1, H_0, H_1 at kappa_P r and
kappa_S r per material then serves both S and K*.  On the boundary
kappa r stays below ~1e2, and H = J + iY from the cephes routines agrees
with the AMOS Hankel routine to ~4e-15 relative at a tenth of the cost;
off-surface targets reach kappa r ~ 1e4, where J + iY loses up to ~1e-12,
so they keep sp.hankel1.

Every shape symmetric about the x_1-axis (circle, ellipse, kite, cosine
Fourier curves) gives a grid whose node n - j mirrors node j.  The
reflection P (node j -> n - j, components times (1, -1), on phi and psi
alike) then commutes with the system matrix A, and in the orthonormal
eigenbases V+ and V- of P the system splits into two 2n x 2n blocks
V+^T A V+ and V-^T A V-.  TransmissionSolver factors those instead of
A; because A V = V B, the blocks need only the rows of nodes 0..n/2, so
assembly evaluates half the rows.  The check is made on the grid data
(QuadratureGrid.mirror_symmetric); any other grid is the one-block case
of the same code, with the identity basis and all rows.

A is never formed for the solver.  Each material's kernel table gives
its S and K* rows, which take their sign and 1/2 I and are projected
straight into their quarter of both blocks; each table and each
operator is dropped before the next is built.  At n=512 the traced peak
of a solver build is 68.4 MB, against the 67.1 MB of blocks and LU
copies it keeps; forming the 33.7 MB of rows first made it 81.2 MB.
assemble_system builds the dense A from the same quarters, as an oracle.

The two eigenblocks are independent, so when the OpenBLAS that
scipy.linalg calls runs one thread, each block's LU and condition
estimate run in a thread of its own, and the two LUs take about the
time of one on two CPUs (n=512: 0.076-0.087 s, against 0.133-0.153 s in
turn).  A multithreaded BLAS already keeps the CPUs busy (two BLAS
threads: 0.120-0.135 s in threads, 0.086-0.095 s in turn), so then, as
for a one-block grid or a BLAS that cannot be queried, the blocks run in
turn on the calling thread.  The threads only call LAPACK
on arrays the calling thread allocated and checked for finiteness:
glibc gives each thread its own malloc arena, and array temporaries
freed in a thread's arena raised the peak memory of repeated solves.
The solves stay on the calling thread: in threads they saved about a
tenth of their 0.05 s at n=512 but made the peak memory of repeated
solves jump by about 34 MB in some runs.  Both orders make the same
LAPACK calls on the same arrays, so they give the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy import linalg as sla
from scipy import special as sp

from .curves import BoundaryCurve
from .errors import DomainError, ResonanceError
from .wavefields import (
    Material,
    MaterialPair,
    _gamma_components,
    _gamma_tensor,
    _hankel_radial,
    _radial_kernels,
    _traction_components,
)

logger = logging.getLogger(__name__)

_EULER = float(np.euler_gamma)
_E_SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])

COND_LIMIT = 1e12
MIRROR_TOL = 1e-12
_SQRT_HALF = np.sqrt(0.5)


class NearBoundaryWarning(UserWarning):
    """Target close to the boundary: plain quadrature loses accuracy."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform-parameter boundary grid with geometric data at the nodes."""

    curve: BoundaryCurve
    t: np.ndarray
    nodes: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    jacobians: np.ndarray  # |x'(t)| at nodes
    accel: np.ndarray
    n_nodes: int

    @property
    def weights(self) -> np.ndarray:
        """Trapezoidal arc-length weights (2 pi / n) |x'|."""
        return (2.0 * np.pi / self.n_nodes) * self.jacobians

    def spacing(self) -> float:
        return float(np.min(self.jacobians)) * 2.0 * np.pi / self.n_nodes

    @property
    def mirror_symmetric(self) -> bool:
        """Whether node n - j is the mirror image of node j in the x_1-axis.

        Checked on the grid data: nodes, normals and accelerations at n - j
        must equal those at j with the x_2 component negated, and the
        jacobians must agree, each within MIRROR_TOL times the largest
        entry of its array.  Rounding keeps circles, ellipses (aspect up to
        50), kites and cosine-only Fourier curves below 3e-14 for n up to
        8192; a Fourier sine term of 1e-11 already fails.
        """
        flip = np.array([1.0, -1.0])
        for data, sign in (
            (self.nodes, flip),
            (self.normals, flip),
            (self.accel, flip),
            (self.jacobians, 1.0),
        ):
            image = sign * np.roll(data[::-1], 1, axis=0)  # data[(n - j) % n]
            if np.max(np.abs(image - data)) > MIRROR_TOL * np.max(np.abs(data)):
                return False
        return True


@dataclass
class DensityPair:
    """Solution densities of the transmission system at the grid nodes."""

    phi: np.ndarray  # interior-kernel density, (n, 2) complex
    psi: np.ndarray  # exterior-kernel density, (n, 2) complex
    residual: float = 0.0
    stability_ratio: float = 0.0


def build_grid(curve: BoundaryCurve, n_nodes: int) -> QuadratureGrid:
    """Sample a curve at n_nodes uniform parameter values.

    n_nodes must be even and >= 16 (the log/cot quadratures pair Fourier
    modes).  Normals point outward for the counterclockwise orientation.
    """
    if n_nodes < 16 or n_nodes % 2 != 0:
        raise DomainError("n_nodes must be an even integer >= 16")
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    x = curve.position(t)
    v = curve.velocity(t)
    a = curve.accel(t)
    speed = np.hypot(v[:, 0], v[:, 1])
    tangents = v / speed[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=-1)
    return QuadratureGrid(
        curve=curve,
        t=t,
        nodes=x,
        normals=normals,
        tangents=tangents,
        jacobians=speed,
        accel=a,
        n_nodes=n_nodes,
    )


# ---------------------------------------------------------------------------
# quadrature weight matrices on the uniform grid
# ---------------------------------------------------------------------------


def _log_row(n: int) -> np.ndarray:
    """R_ij as a function of the offset k = |i - j| (mod n), k = 0..n/2."""
    theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    m = np.arange(1, n // 2)
    row = -(4.0 * np.pi / n) * np.cos(np.outer(theta, m)) @ (1.0 / m)
    return row - (4.0 * np.pi / (n * n)) * np.cos((n / 2.0) * theta)


def _offsets(n: int, rows: int | None = None) -> np.ndarray:
    """(rows x n) offsets (i - j) mod n; rows defaults to n."""
    return (np.arange(n if rows is None else rows)[:, None] - np.arange(n)[None, :]) % n


def _even_circulant(row: np.ndarray, n: int, rows: int | None = None) -> np.ndarray:
    """Exactly symmetric matrix row[min(k, n - k)], k = (i - j) mod n, first rows rows."""
    idx = _offsets(n, rows)
    return row[np.minimum(idx, n - idx)]


def cot_weights(n: int, rows: int | None = None) -> np.ndarray:
    """Weights C_ij for p.v. (1/2pi) int cot((s - t_i)/2) f(s) ds.

    Exact for trigonometric polynomials of degree < n/2 (the conjugate
    function operator: e^{ims} -> i sign(m) e^{imt}).  The row function
    is odd, so C_ij = row(t_i - t_j) with row(h) = -(2/n) sum_m sin(m h).
    Only the first rows rows (default all n) are formed.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    m = np.arange(1, n // 2)
    row = -(2.0 / n) * np.sin(np.outer(theta, m)).sum(axis=1)
    return row[_offsets(n, rows)]


# ---------------------------------------------------------------------------
# Nystrom kernels
# ---------------------------------------------------------------------------


def _static_constants(material: Material):
    lam, mu = material.lam, material.mu
    c1 = (lam + 3.0 * mu) / (4.0 * np.pi * mu * (lam + 2.0 * mu))
    c2 = (lam + mu) / (4.0 * np.pi * mu * (lam + 2.0 * mu))
    m_c = mu / (2.0 * np.pi * (lam + 2.0 * mu))
    p_c = (lam + mu) / (np.pi * (lam + 2.0 * mu))
    return c1, c2, m_c, p_c


def _pairwise(grid: QuadratureGrid, rows: int):
    x = grid.nodes
    dv = x[:rows, None, :] - x[None, :, :]
    r = np.hypot(dv[..., 0], dv[..., 1])
    np.fill_diagonal(r, 1.0)  # placeholder, diagonals set analytically
    return r, dv / r[..., None]


class KernelTable(NamedTuple):
    """Quadrature-weighted radial kernels of one material on a grid.

    Row i is target node i; a table may hold only the first rows rows.
    """

    rhat: np.ndarray  # (rows, n, 2) unit vectors (x_i - x_j) / r_ij
    phi: np.ndarray  # (rows, n) radial parts of S, diagonal not meaningful
    chi: np.ndarray
    traction: tuple  # (a1, a2, a4) of K*, same layout


def _kernel_tables(
    grid: QuadratureGrid, omega: float, material: Material, rows: int | None = None
) -> KernelTable:
    """Radial kernels of one material at the folded Z_nu of the module docstring.

    Only target rows 0..rows-1 (default all) are evaluated.

    Z is symmetric in (i, j) because r, R and ln 4 sin^2 are; |x'(t_j)|
    multiplies the results, not Z, so the rounding of the P-S cancellation
    near the diagonal stays the same for (i, j) and (j, i) and largely
    drops out of smooth integrals.
    """
    n = grid.n_nodes
    rows = n if rows is None else rows
    h = 2.0 * np.pi / n
    r, rhat = _pairwise(grid, rows)
    w_row = _log_row(n)  # R - (2 pi/n) ln 4 sin^2 by offset; the diagonal is unused
    w_row[1:] -= h * np.log(4.0 * np.sin(np.pi * np.arange(1, n // 2 + 1) / n) ** 2)
    w_log = _even_circulant(w_row / np.pi, n, rows)
    z = []
    for kappa in (material.kappa_p(omega), material.kappa_s(omega)):
        t = kappa * r
        z.append(
            tuple(
                h * jv + 1j * (h * yv + w_log * jv)
                for jv, yv in ((sp.j0(t), sp.y0(t)), (sp.j1(t), sp.y1(t)))
            )
        )
    phi, chi, traction = _radial_kernels(z[0], z[1], r, omega, material)
    jac = grid.jacobians
    return KernelTable(rhat, phi * jac, chi * jac, tuple(a * jac for a in traction))


def _node_blocks(comp, diag: np.ndarray) -> np.ndarray:
    """(2 rows x 2n) matrix from 2x2 component arrays (rows, n) and diagonal blocks (n, 2, 2)."""
    rows, n = comp[0][0].shape
    op = np.empty((rows, 2, n, 2), dtype=complex)
    for k in (0, 1):
        for l in (0, 1):
            op[:, k, :, l] = comp[k][l]
    di = np.arange(rows)
    op[di, :, di, :] = diag[:rows]
    return op.reshape(2 * rows, 2 * n)


def single_layer_matrix(
    grid: QuadratureGrid, omega: float, material: Material, tables: KernelTable | None = None
):
    """Discrete single-layer trace operator (2n x 2n).

    Given a table of the first rows nodes, only their 2 * rows rows are formed.
    Diagonal blocks are R_ii m1_ii + (2 pi/n) m2_ii from the closed-form
    limits of the log split M = M1 ln 4 sin^2 + M2.
    """
    tab = tables if tables is not None else _kernel_tables(grid, omega, material)
    n = grid.n_nodes
    jac = grid.jacobians
    c1, c2, _, _ = _static_constants(material)
    mu, lam2mu = material.mu, material.lam + 2.0 * material.mu
    g_big_s = 0.25j - (np.log(material.kappa_s(omega) / 2.0) + _EULER) / (2.0 * np.pi)
    g_big_p = 0.25j - (np.log(material.kappa_p(omega) / 2.0) + _EULER) / (2.0 * np.pi)
    phi0 = g_big_s / (2.0 * mu) + g_big_p / (2.0 * lam2mu) - c2 / 2.0
    m1 = -0.5 * c1 * jac
    m2 = (phi0 - c1 * np.log(jac)) * jac
    tau_outer = grid.tangents[:, :, None] * grid.tangents[:, None, :]
    diag = (_log_row(n)[0] * m1 + (2.0 * np.pi / n) * m2)[:, None, None] * np.eye(2)
    diag = diag + ((2.0 * np.pi / n) * c2 * jac)[:, None, None] * tau_outer
    return _node_blocks(_gamma_components(tab.phi, tab.chi, tab.rhat), diag)


def traction_layer_matrix(
    grid: QuadratureGrid, omega: float, material: Material, tables: KernelTable | None = None
):
    """Discrete principal-value traction operator K* (2n x 2n).

    Given a table of the first rows nodes, only their 2 * rows rows are formed.
    Off the diagonal, K*_ij = radial part + m_c E ((2 pi/n) cot((t_j - t_i)/2)/2
    - pi C_ij): the Kelvin skew kernel's cot term leaves the trapezoidal
    rule for the conjugation weights C.  Diagonal blocks are (2 pi/n)
    times the curvature limits (C_ii = 0 and the log coefficient vanishes).
    """
    tab = tables if tables is not None else _kernel_tables(grid, omega, material)
    n = grid.n_nodes
    rows = tab.phi.shape[0]
    h = 2.0 * np.pi / n
    jac, nrm = grid.jacobians, grid.normals
    _, _, m_c, p_c = _static_constants(material)
    dtheta = grid.t[None, :] - grid.t[:rows, None]
    np.fill_diagonal(dtheta, np.pi)  # placeholder, the diagonal is set below
    kelvin = m_c * (0.5 * h / np.tan(dtheta / 2.0) - np.pi * cot_weights(n, rows))
    comp = _traction_components(tab.traction, tab.rhat, nrm[:rows, None, :])
    comp = ((comp[0][0], comp[0][1] + kelvin), (comp[1][0] - kelvin, comp[1][1]))
    cross = nrm[:, 0] * grid.accel[:, 1] - nrm[:, 1] * grid.accel[:, 0]  # n x x''
    add_n = np.einsum("ij,ij->i", grid.accel, nrm)  # x'' . n
    tau_outer = grid.tangents[:, :, None] * grid.tangents[:, None, :]
    diag = h * (
        -m_c * (cross / (2.0 * jac))[:, None, None] * _E_SKEW
        + (add_n / (2.0 * jac))[:, None, None] * (m_c * np.eye(2) + p_c * tau_outer)
    )
    return _node_blocks(comp, diag)


def _system_quarters(
    grid: QuadratureGrid, pair: MaterialPair, omega: float, rows: int | None = None
):
    """Yield (equation, density, quarter) for the four quarters of the system.

    Equation 0 is the trace equation (S), 1 the traction-jump equation
    (K* + 1/2 I); density 0 is phi (interior material), 1 psi (exterior,
    negated).  Each quarter is a (2 rows x 2n) operator of the nodes
    0..rows-1 (default all).  A material's kernel table is dropped once its
    K* is built, so the caller, by dropping each quarter before it asks for
    the next, holds at most one table and one quarter at a time.
    """
    if omega <= 0:
        raise DomainError("omega must be positive")
    diag = np.arange(2 * (grid.n_nodes if rows is None else rows))
    for density, material in enumerate((pair.interior, pair.exterior)):
        tab = _kernel_tables(grid, omega, material, rows)
        for equation, layer in enumerate((single_layer_matrix, traction_layer_matrix)):
            quarter = layer(grid, omega, material, tab)
            if density:
                quarter *= -1.0
            if equation:
                del tab
                quarter[diag, diag] += 0.5
            yield equation, density, quarter
            del quarter


def assemble_system(grid: QuadratureGrid, pair: MaterialPair, omega: float):
    """Dense transmission system matrix of size (4 n_nodes)^2.

    Row blocks: trace equation, traction-jump equation; column blocks:
    phi (interior density), psi (exterior density).  TransmissionSolver
    builds its eigenblocks from the same quarters without this matrix.
    """
    n2 = 2 * grid.n_nodes
    a = np.empty((2 * n2, 2 * n2), dtype=complex)
    for equation, density, quarter in _system_quarters(grid, pair, omega):
        a[equation * n2 : (equation + 1) * n2, density * n2 : (density + 1) * n2] = quarter
    return a


class _MirrorBasis(NamedTuple):
    """Orthonormal eigenbasis of the grid reflection P on one density (n, 2).

    P maps node j to n - j and the components by signs (1, -1).  Nodes
    1..pairs are paired with n-1..n-pairs: a paired node j spans
    (e_j + sign e_{n-j}) / sqrt 2, an unpaired one e_j.  Each entry of
    blocks is one eigenblock, given per component c as (lo, hi, sign):
    nodes lo..hi-1 of component c span it.  Its equations are formed at
    nodes 0..rows-1.  A grid without the symmetry has one block, all
    nodes unpaired and all rows.
    """

    n: int
    rows: int
    pairs: int
    blocks: tuple

    @property
    def partners(self) -> slice:
        """Nodes n-1..n-pairs, the partners of nodes 1..pairs in order."""
        return slice(self.n - 1, self.n - 1 - self.pairs, -1)

    def size(self, spec) -> int:
        return sum(hi - lo for lo, hi, _ in spec)

    def parts(self, spec):
        """Per component c of a block: (c, its nodes, its slice of the block
        coordinates, the positions of nodes 1..pairs in that slice, sign)."""
        off = 0
        for c, (lo, hi, sign) in enumerate(spec):
            paired = slice(1 - lo, 1 + self.pairs - lo)
            yield c, slice(lo, hi), slice(off, off + hi - lo), paired, sign
            off += hi - lo


def _mirror_basis(grid: QuadratureGrid) -> _MirrorBasis:
    n = grid.n_nodes
    if not grid.mirror_symmetric:
        return _MirrorBasis(n, n, 0, (((0, n, 1.0), (0, n, 1.0)),))
    # nodes 0 and n/2 lie on the axis: their x_1 component is P-even, x_2 odd
    m = n // 2
    full, inner = (0, m + 1, 1.0), (1, m, -1.0)
    return _MirrorBasis(n, m + 1, m - 1, ((full, inner), (inner, full)))


def _project(basis: _MirrorBasis, spec, x: np.ndarray, out=None) -> np.ndarray:
    """V^T x for x of shape (..., n, 2): block coordinates (..., size), into out if given."""
    if out is None:
        out = np.empty(x.shape[:-2] + (basis.size(spec),), dtype=complex)
    for c, nodes, coords, paired, sign in basis.parts(spec):
        part = out[..., coords]
        part[...] = x[..., nodes, c]
        part[..., paired] += sign * x[..., basis.partners, c]
        part[..., paired] *= _SQRT_HALF
    return out


def _expand(basis: _MirrorBasis, spec, y: np.ndarray, out: np.ndarray) -> None:
    """out (..., n, 2) += V y for block coordinates y (..., size)."""
    for c, nodes, coords, paired, sign in basis.parts(spec):
        part = y[..., coords].copy()
        part[..., paired] *= _SQRT_HALF
        out[..., nodes, c] += part
        out[..., basis.partners, c] += sign * part[..., paired]


def _eigenblocks(
    grid: QuadratureGrid, pair: MaterialPair, omega: float, basis: _MirrorBasis
) -> list:
    """B = V^T A V of each eigenblock of basis, built quarter by quarter.

    PA = AP gives A V = V B, so row (i, k) of B is row (i, k) of A V,
    times sqrt 2 for a paired node i: only the rows of nodes 0..rows-1
    are needed.  Each (equation, density) quarter of A is projected into
    that quarter of every block as soon as it is built, and dropped
    before the next one is.
    """
    sizes = [basis.size(spec) for spec in basis.blocks]
    blocks = [np.empty((2, size, 2, size), dtype=complex) for size in sizes]
    for equation, density, quarter in _system_quarters(grid, pair, omega, basis.rows):
        quarter = quarter.reshape(basis.rows, 2, basis.n, 2)  # node, k, node, c
        for spec, b in zip(basis.blocks, blocks):
            for k, nodes, coords, paired, _ in basis.parts(spec):
                rows = b[equation, coords, density]
                _project(basis, spec, quarter[nodes, k], out=rows)  # rows (i, k) of A V
                rows[paired] *= np.sqrt(2.0)
        del quarter
    return [b.reshape(2 * size, 2 * size) for b, size in zip(blocks, sizes)]


@functools.cache
def _openblas_thread_query():
    """get_num_threads of the OpenBLAS bundled with scipy, or None if there is none."""
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        query = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads", None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            return query
    return None


def _blas_single_threaded() -> bool:
    """Whether the OpenBLAS that scipy.linalg calls reports one thread now."""
    query = _openblas_thread_query()
    return query is not None and query() == 1


def _map_blocks(fn, args: list, concurrent: bool) -> list:
    """[fn(*a) for a in args]; when concurrent, the calls after the first
    run in a pool of len(args) - 1 threads, joined before this returns.

    The first error in block order is raised on the calling thread.
    """
    if not concurrent or len(args) < 2:
        return [fn(*a) for a in args]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(args) - 1) as pool:
        futures = [pool.submit(fn, *a) for a in args[1:]]
        first = fn(*args[0])
        return [first] + [f.result() for f in futures]


def _factor(a: np.ndarray, anorm: float):
    """LU of the finite Fortran-order block a, in place, and its reciprocal condition estimate."""
    lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
    rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, anorm)
    return (lu, piv), float(rcond)


def _lapack_copy(a: np.ndarray) -> np.ndarray:
    """Fortran-order copy of a for LAPACK to overwrite; ValueError if a is not finite.

    Made on the calling thread, finiteness check included, so that the
    threads of _map_blocks allocate no array temporaries (module docstring).
    """
    return np.array(np.asarray_chkfinite(a), order="F")  # a copy even if a is Fortran-order


class TransmissionSolver:
    """Factorized transmission system; solves are cheap per right-hand side.

    When the grid is mirror-symmetric (QuadratureGrid.mirror_symmetric)
    the system commutes with the reflection P, and its two eigenblocks
    V+^T A V+ and V-^T A V- (each 2n x 2n) are built from the rows of
    nodes 0..n/2, one material operator at a time, and factored instead
    of A.  Otherwise the one block is A, in component-major order.  The
    blocks are kept beside their LU factors for the residual check of
    solve_many.  With BLAS at one thread the two blocks are factored in
    two threads (module docstring).
    """

    def __init__(self, grid: QuadratureGrid, pair: MaterialPair, omega: float):
        self.grid = grid
        self.pair = pair
        self.omega = omega
        self._basis = _mirror_basis(grid)
        self._blocks = _eigenblocks(grid, pair, omega, self._basis)
        copies = [_lapack_copy(b) for b in self._blocks]
        # 1-norms by LAPACK lange, before the LUs overwrite the copies: no |B| temporary
        norms = [sla.get_lapack_funcs("lange", (c,))("1", c) for c in copies]
        concurrent = len(self._blocks) > 1 and _blas_single_threaded()
        start = time.perf_counter()
        factored = _map_blocks(_factor, list(zip(copies, norms)), concurrent)
        factor_s = time.perf_counter() - start
        self._lu = [lu for lu, _ in factored]
        inv_norms = [1.0 / max(rcond * bn, 1e-300) for (_, rcond), bn in zip(factored, norms)]
        self.condition_estimate = max(norms) * max(inv_norms)
        logger.info(
            "transmission solver: %d block(s) factored %s in %.3f s, condition estimate %.3e",
            len(self._blocks),
            "concurrently" if concurrent else "serially",
            factor_s,
            self.condition_estimate,
        )
        if self.condition_estimate > COND_LIMIT:
            raise ResonanceError(
                f"transmission system nearly singular (cond ~ "
                f"{self.condition_estimate:.2e}); omega^2 rho_1 may sit near an "
                f"interior Dirichlet eigenvalue -- perturb omega by ~1e-6 relative"
            )

    def solve(self, incident_trace: np.ndarray, incident_traction: np.ndarray) -> DensityPair:
        n = self.grid.n_nodes
        return self.solve_many(
            np.reshape(incident_trace, (1, n, 2)), np.reshape(incident_traction, (1, n, 2))
        )[0]

    def solve_many(self, traces: np.ndarray, tractions: np.ndarray) -> list[DensityPair]:
        """Batch solve; traces/tractions have shape (k, n, 2).

        Each DensityPair carries the relative residual of the factored
        blocks, sqrt(sum_b ||B_b y_b - f_b||^2) / ||f||, and the stability
        ratio of weighted L2 norms (|phi| + |psi|) / (|trace| + |traction|).
        """
        basis = self._basis
        rhs = np.stack([traces, tractions], axis=1)  # (k, equation, n, 2)
        k = rhs.shape[0]
        x = np.zeros(rhs.shape, dtype=complex)  # (k, density, n, 2)
        res2 = np.zeros(k)
        for spec, b, lu in zip(basis.blocks, self._blocks, self._lu):
            f = _project(basis, spec, rhs).reshape(k, -1).T
            y = sla.lu_solve(lu, f)
            res2 += np.linalg.norm(b @ y - f, axis=0) ** 2
            _expand(basis, spec, y.T.reshape(k, 2, -1), x)
        residual = np.sqrt(res2) / np.maximum(np.linalg.norm(rhs.reshape(k, -1), axis=1), 1e-300)
        w = self.grid.weights[:, None]

        def l2(v):  # weighted L2 norms of the two (n, 2) halves, summed
            return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=(2, 3))).sum(axis=1)

        stability = l2(x) / np.maximum(l2(rhs), 1e-300)
        logger.debug(
            "transmission solve: %d right-hand sides, max residual %.3e, "
            "max stability ratio %.3e",
            k,
            residual.max(initial=0.0),
            stability.max(initial=0.0),
        )
        return [
            DensityPair(x[i, 0], x[i, 1], float(residual[i]), float(stability[i]))
            for i in range(k)
        ]


def single_layer_apply(
    grid: QuadratureGrid,
    omega: float,
    material: Material,
    density: np.ndarray,
    target,
) -> np.ndarray:
    """Single-layer potential S[density](target) off the boundary.

    density is one (n, 2) density or a stack (k, n, 2); target is one
    point (2,) or an array (t, 2).  The result is (k, t, 2), without the
    axes the inputs do not have.

    Plain trapezoidal quadrature (the integrand is smooth off-surface);
    warns once when a target is within one node spacing of the boundary.
    On-node targets are evaluated with the singular on-surface rule.
    """
    n = grid.n_nodes
    dens = np.asarray(density, dtype=complex)
    flat = dens.reshape(-1, 2 * n)
    wd = flat * np.repeat(grid.weights, 2)
    tgt = np.asarray(target, dtype=float)
    dv = tgt.reshape(-1, 1, 2) - grid.nodes[None, :, :]
    r = np.hypot(dv[..., 0], dv[..., 1])
    nearest = np.argmin(r, axis=1)
    dmin = r[np.arange(len(r)), nearest]
    on = dmin < 1e-12
    if np.any(dmin[~on] < grid.spacing()):
        warnings.warn(
            "target within one node spacing of the boundary; accuracy degraded",
            NearBoundaryWarning,
        )
    out = np.empty((len(r), 2, len(wd)), dtype=complex)  # (t, 2, k)
    off = ~on
    gam = _gamma_tensor(dv[off], r[off], omega, material).transpose(0, 2, 1, 3)
    out[off] = (gam.reshape(-1, 2 * n) @ wd.T).reshape(-1, 2, len(wd))
    if on.any():
        smat = single_layer_matrix(grid, omega, material).reshape(n, 2, 2 * n)
        out[on] = smat[nearest[on]] @ flat.T
    u = out.transpose(2, 0, 1)
    if tgt.ndim == 1:
        u = u[:, 0]
    return u if dens.ndim == 3 else u[0]


def scattered_field(
    grid: QuadratureGrid,
    psi: np.ndarray,
    omega: float,
    material: Material,
    target,
) -> np.ndarray:
    """Exterior scattered field u_sc(target) = S[psi](target).

    Targets inside the inclusion are rejected (the interior total field
    is single_layer_apply of the phi density with the interior material).
    """
    tgt = np.asarray(target, dtype=float)
    for p in np.atleast_2d(tgt):
        if grid.curve.contains(p):
            raise DomainError(f"target {p} lies inside the inclusion")
    return single_layer_apply(grid, omega, material, psi, target)


def traction_of_single_layer(
    grid: QuadratureGrid,
    omega: float,
    material: Material,
    density: np.ndarray,
    target,
    normal,
) -> np.ndarray:
    """Traction of S[density] at off-surface targets (analytic kernel)."""
    tgts = np.atleast_2d(np.asarray(target, dtype=float))
    nrms = np.atleast_2d(np.asarray(normal, dtype=float))
    wd = np.asarray(density, dtype=complex).reshape(grid.n_nodes, 2) * grid.weights[:, None]
    dv = tgts[:, None, :] - grid.nodes[None, :, :]
    r = np.hypot(dv[..., 0], dv[..., 1])
    _, _, traction = _hankel_radial(r, omega, material)
    comp = _traction_components(traction, dv / r[..., None], nrms[:, None, :])
    out = np.stack([comp[k][0] @ wd[:, 0] + comp[k][1] @ wd[:, 1] for k in (0, 1)], axis=-1)
    return out[0] if np.asarray(target).ndim == 1 else out
