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
V+^T A V+ and V-^T A V-.  solve_transmission factors those instead of
A; because A V = V B, the blocks need only the rows of nodes 0..n/2.
The check is made on the grid data (QuadratureGrid.mirror_symmetric);
any other grid is the one-block case of the same code, with the
identity basis and all rows.

Z, and so every radial kernel, depends on a node pair only through its
distance and index offset, which (i, j) shares with (j, i) and, on a
mirror grid, with (n-i, n-j) and (n-j, n-i).  Each class of such pairs
is evaluated once and gathered (_distinct_pairs): at n=512 the blocks
read 131,584 entries of 65,793 classes; an unsplit grid has n(n+1)/2
classes.  The class table holds the five radial functions of
wavefields._radial_kernels; each slab of the build gathers them and
forms S and K* with wavefields._gamma_components and
_traction_components, as the off-surface potentials do.

A is never formed for the solver.  The build runs over slabs of block
columns: each component of a material's S or K*, with its sign and
1/2 I, is written straight into both eigenblocks, where a paired node's
column is the sum or the difference of the columns of nodes j and n - j.
The blocks are stored as their transposes in C order, which is the
Fortran order LAPACK factors, so the LU copies are plain copies.  The
kernel tables are evaluated and the slabs formed in chunks of _CHUNK
entries, so that at n=512 the build's temporaries stay below 20 MB beside
the 33.6 MB of blocks (10.5 MB of it the two class tables).  The blocks
are allocated before the temporaries: freed, those leave one span that
the LU copy can reuse, instead of holes that raised the peak resident
memory of repeated solves by up to 18 MB.  The one-material matrix
_layer_matrix (S or K*, which single_layer_matrix reads) is the
identity-basis case of the same build, reordered node-major.

solve_transmission takes k right-hand sides at once and holds at most
three block-sized (2n)^2 buffers, 16.8 MB each at n=512:

* build: both blocks, beside the build's temporaries;
* block 0: both blocks and the LU copy of block 0, which is factored,
  its condition estimated (gecon), its projected right-hand sides solved
  and its residual formed against the block, after which block 0 and
  its LU are dropped;
* block 1: block 1 and its LU copy, used the same way.

The traced peak of one solve of the README kite at n=512 with 34
right-hand sides is 53.7 MB, against the 50.3 MB of three buffers.

The 1-norms of both blocks are taken before either is factored, so a
non-finite entry in block 1 raises before any LU, and the resonance
guard is applied once both condition estimates are in.  Everything runs
on the calling thread; with a multithreaded BLAS each LU uses the CPUs
anyway.  scipy.linalg is not imported with this module but by
solve_transmission, so a process that only runs transfer matrices
(cloak) never loads it.
"""

from __future__ import annotations

import functools
import logging
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .curves import BoundaryCurve
from .errors import DomainError, ResonanceError
from .wavefields import (
    Material,
    MaterialPair,
    _gamma_components,
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
        50), kites and cosine-only Fourier curves below 3.5e-14 for n up to
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
    """Solution densities of k right-hand sides at the grid nodes."""

    phi: np.ndarray  # interior-kernel densities, (k, n, 2) complex
    psi: np.ndarray  # exterior-kernel densities, (k, n, 2) complex
    residual: np.ndarray  # (k,) relative residuals of the factored blocks
    stability_ratio: np.ndarray  # (k,)
    condition_estimate: float  # of the whole system, from the blocks' 1-norm estimates


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
# quadrature weights on the uniform grid
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _log_row(n: int) -> np.ndarray:
    """R_ij as a function of the offset k = |i - j| (mod n), k = 0..n/2 (read-only)."""
    theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    m = np.arange(1, n // 2)
    row = -(4.0 * np.pi / n) * np.cos(np.outer(theta, m)) @ (1.0 / m)
    row -= (4.0 * np.pi / (n * n)) * np.cos((n / 2.0) * theta)
    row.flags.writeable = False
    return row


def _cot_row(n: int) -> np.ndarray:
    """Weights C_ij = row(t_i - t_j) for p.v. (1/2pi) int cot((s - t_i)/2) f(s) ds.

    Exact for trigonometric polynomials of degree < n/2 (the conjugate
    function operator: e^{ims} -> i sign(m) e^{imt}).  The row function
    row(h) = -(2/n) sum_m sin(m h), 0 < m < n/2, is odd; at the offsets
    h = 2 pi k/n, k = 0..n-1, the sum is cot(pi k/n) for odd k and 0 for
    even k.
    """
    k = np.arange(n)
    row = np.zeros(n)
    row[1::2] = -(2.0 / n) / np.tan(np.pi * k[1::2] / n)
    return row


def _kelvin_row(n: int) -> np.ndarray:
    """(2 pi/n) cot((t_j - t_i)/2)/2 - pi C_ij by the offset k = (i - j) mod n.

    The Kelvin skew kernel's cot term leaves the trapezoidal rule for the
    conjugation weights C.  The diagonal, k = 0, is 0: it is set in
    closed form.
    """
    k = np.arange(1, n)
    row = np.zeros(n)
    row[1:] = -(np.pi / n) / np.tan(np.pi * k / n) - np.pi * _cot_row(n)[1:]
    return row


# ---------------------------------------------------------------------------
# the reflection's eigenbases
# ---------------------------------------------------------------------------


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


def _identity_basis(n: int) -> _MirrorBasis:
    return _MirrorBasis(n, n, 0, (((0, n, 1.0), (0, n, 1.0)),))


def _mirror_basis(grid: QuadratureGrid) -> _MirrorBasis:
    n = grid.n_nodes
    if not grid.mirror_symmetric:
        return _identity_basis(n)
    # nodes 0 and n/2 lie on the axis: their x_1 component is P-even, x_2 odd
    m = n // 2
    full, inner = (0, m + 1, 1.0), (1, m, -1.0)
    return _MirrorBasis(n, m + 1, m - 1, ((full, inner), (inner, full)))


def _project(basis: _MirrorBasis, spec, x: np.ndarray) -> np.ndarray:
    """V^T x for x of shape (..., n, 2): block coordinates (..., size)."""
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


# ---------------------------------------------------------------------------
# Nystrom kernels and the block build
# ---------------------------------------------------------------------------


# pairs per kernel-table chunk and layout entries per slab: the build's
# temporaries stay a few MB beside the class tables and the blocks
_CHUNK = 16384


def _tri(a, b, size: int):
    """Position of the pair a <= b in np.triu_indices(size) order."""
    return a * (2 * size - a + 1) // 2 + b - a


def _distinct_pairs(basis: _MirrorBasis):
    """(p, q, index): one node pair (p[c], q[c]) per class c, and each layout entry's class.

    A layout array has one row per source node, 0..rows-1 and then the
    partners n-1..n-pairs, and one column per target node 0..rows-1; its
    entry [s, i] is the pair (i, source s).  The radial kernels depend on
    a pair only through its distance and index offset, which (i, j)
    shares with (j, i) and, on a mirror grid, with (n-i, n-j) and
    (n-j, n-i): pairs that agree so form one class.
    """
    n, rows, pairs = basis.n, basis.rows, basis.pairs
    src, tgt = np.ogrid[:rows, :rows]
    index = _tri(np.minimum(src, tgt), np.maximum(src, tgt), rows)
    p, q = np.triu_indices(rows)
    if not pairs:
        return p, q, index
    # (i, n-j) mirrors to (n-i, j): on the axis targets i = 0 and n/2 it is
    # the class of (i, j); between them the classes form a second triangle
    src, tgt = np.ogrid[:pairs, :pairs]  # nodes 1..pairs
    lower = index[1 : pairs + 1].copy()
    lower[:, 1 : pairs + 1] = len(p) + _tri(np.minimum(src, tgt), np.maximum(src, tgt), pairs)
    a, b = np.triu_indices(pairs)
    p, q = np.concatenate([p, a + 1]), np.concatenate([q, n - 1 - b])
    return p, q, np.concatenate([index, lower])


def _pair_geometry(grid: QuadratureGrid, p: np.ndarray, q: np.ndarray):
    """(r, w_log) of the node pairs (p, q): the distance, 1 where p = q
    (a placeholder: the diagonal is set in closed form), and
    (R - (2 pi/n) ln 4 sin^2) / pi by the index offset."""
    n = grid.n_nodes
    x = grid.nodes
    r = np.hypot(x[p, 0] - x[q, 0], x[p, 1] - x[q, 1])
    r[p == q] = 1.0
    w_row = _log_row(n).copy()  # the diagonal entry is unused
    w_row[1:] -= (2.0 * np.pi / n) * np.log(4.0 * np.sin(np.pi * np.arange(1, n // 2 + 1) / n) ** 2)
    k = (q - p) % n
    return r, w_row[np.minimum(k, n - k)] / np.pi


def _kernel_table(r, w_log, n: int, omega: float, material: Material) -> np.ndarray:
    """(5, pairs): phi, chi, a1, a2, a4 of wavefields._radial_kernels for the
    pairs (r, w_log), at the folded Z_nu of the module docstring.

    Evaluated in chunks of _CHUNK pairs, so that the temporaries stay small.
    """
    if omega <= 0:
        raise DomainError("omega must be positive")
    h = 2.0 * np.pi / n
    table = np.empty((5, len(r)), dtype=complex)
    for lo in range(0, len(r), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        z = []
        for kappa in (material.kappa_p(omega), material.kappa_s(omega)):
            t = kappa * r[part]
            for jv, yv in ((sp.j0(t), sp.y0(t)), (sp.j1(t), sp.y1(t))):
                zv = np.empty(t.shape, dtype=complex)
                zv.real = h * jv
                zv.imag = h * yv + w_log[part] * jv
                z.append(zv)
        phi, chi, traction = _radial_kernels(z[:2], z[2:], r[part], omega, material)
        table[:, part] = (phi, chi, *traction)
    return table


def _diagonal_blocks(grid: QuadratureGrid, omega: float, material: Material):
    """(S, K*, m_c): the (n, 2, 2) diagonal blocks and the Kelvin constant.

    The blocks are the closed-form limits.  S: R_ii m1_ii + (2 pi/n) m2_ii
    of the log split M = M1 ln 4 sin^2 + M2.  K*: (2 pi/n) times the
    curvature limits (C_ii = 0 and the log coefficient vanishes).
    """
    n = grid.n_nodes
    h = 2.0 * np.pi / n
    jac, nrm = grid.jacobians, grid.normals
    lam, mu = material.lam, material.mu
    lam2mu = lam + 2.0 * mu
    c1 = (lam + 3.0 * mu) / (4.0 * np.pi * mu * lam2mu)
    c2 = (lam + mu) / (4.0 * np.pi * mu * lam2mu)
    m_c = mu / (2.0 * np.pi * lam2mu)
    p_c = (lam + mu) / (np.pi * lam2mu)
    g_big_s = 0.25j - (np.log(material.kappa_s(omega) / 2.0) + _EULER) / (2.0 * np.pi)
    g_big_p = 0.25j - (np.log(material.kappa_p(omega) / 2.0) + _EULER) / (2.0 * np.pi)
    phi0 = g_big_s / (2.0 * mu) + g_big_p / (2.0 * lam2mu) - c2 / 2.0
    m1 = -0.5 * c1 * jac
    m2 = (phi0 - c1 * np.log(jac)) * jac
    tau_outer = grid.tangents[:, :, None] * grid.tangents[:, None, :]
    single = (_log_row(n)[0] * m1 + h * m2)[:, None, None] * np.eye(2)
    single = single + (h * c2 * jac)[:, None, None] * tau_outer
    cross = nrm[:, 0] * grid.accel[:, 1] - nrm[:, 1] * grid.accel[:, 0]  # n x x''
    add_n = np.einsum("ij,ij->i", grid.accel, nrm)  # x'' . n
    traction = h * (
        -m_c * (cross / (2.0 * jac))[:, None, None] * _E_SKEW
        + (add_n / (2.0 * jac))[:, None, None] * (m_c * np.eye(2) + p_c * tau_outer)
    )
    return single, traction, m_c


class _Slab(NamedTuple):
    """Layout rows for the block columns of the nodes a..b-1, and their geometry.

    The rows are the sources a..b-1, then the partners n-j of the paired
    nodes j = qa..qb-1 among them; the columns are the targets 0..rows-1
    (_distinct_pairs).  weight is |x'| of the source times the mirror
    scalings of _eigenblocks, so that a gathered kernel times it is
    block-ready; the target normals carry it too, which weights K*, and
    kelvin carries the scalings only.
    """

    a: int
    b: int
    qa: int
    qb: int
    index: np.ndarray  # class of each entry
    weight: np.ndarray
    rhat: tuple  # (r_0, r_1) of x_target - x_source
    normals: tuple  # (n_0, n_1) times weight
    kelvin: np.ndarray


def _slabs(grid: QuadratureGrid, basis: _MirrorBasis, index: np.ndarray, r: np.ndarray):
    """Yield the _Slab of each run of block columns; r is the class distance."""
    n, rows, pairs = basis.n, basis.rows, basis.pairs
    kelvin_row = _kelvin_row(n)
    x, jac = grid.nodes, grid.jacobians
    paired_tgt = np.zeros(rows, dtype=bool)
    paired_tgt[1 : pairs + 1] = True
    step = max(1, _CHUNK // (2 * rows))  # a slab has up to 2 step rows
    for a in range(0, rows, step):
        b = min(a + step, rows)
        qa = max(a, 1)
        qb = max(min(b, pairs + 1), qa)
        src = np.concatenate([np.arange(a, b), n - np.arange(qa, qb)])
        slab_index = np.concatenate([index[a:b], index[rows + qa - 1 : rows + qb - 1]])
        # row (i, k) of a block is sqrt 2 times row (i, k) of A V for a
        # paired node i, and column (j, c) of A V is (A e_j + sign A e_(n-j))
        # / sqrt 2 for a paired node j: the entry scale is 1 when both nodes
        # are paired or neither is
        paired_src = np.concatenate([paired_tgt[a:b], np.ones(qb - qa, dtype=bool)])
        scale = np.ones((len(src), rows))
        scale[np.ix_(~paired_src, paired_tgt)] = np.sqrt(2.0)
        scale[np.ix_(paired_src, ~paired_tgt)] = _SQRT_HALF
        kelvin = kelvin_row[(np.arange(rows) - src[:, None]) % n] * scale
        weight = scale * jac[src, None]
        dist = r[slab_index]
        rhat = tuple((x[:rows, i] - x[src, None, i]) / dist for i in (0, 1))
        normals = tuple(weight * grid.normals[:rows, i] for i in (0, 1))
        yield _Slab(a, b, qa, qb, slab_index, weight, rhat, normals, kelvin)


def _components(slab: _Slab, table: np.ndarray, single_diag, traction_diag, m_c: float):
    """Yield (equation, k, c, comp): component (k, c) of S (equation 0) and K* (1) on the slab.

    The entries are wavefields._gamma_components and _traction_components
    of the gathered kernels (_kernel_table), block-ready (_Slab), with
    the closed-form diagonal blocks in place and K*'s Kelvin cot term.
    Use comp before taking the next: S's (0, 1) and (1, 0) are one array.
    """
    a, b = slab.a, slab.b
    diagonal = (np.arange(b - a), np.arange(a, b))  # the entries (j, j)
    phi, chi, a1, a2, a4 = (np.take(coeff, slab.index) for coeff in table)
    phi *= slab.weight
    chi *= slab.weight
    for equation, comps, diag in (
        (0, _gamma_components(phi, chi, slab.rhat), single_diag),
        (1, _traction_components((a1, a2, a4), slab.rhat, slab.normals), traction_diag),
    ):
        for k, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            comp = comps[k][c]
            if equation and k != c:
                comp += (m_c if k < c else -m_c) * slab.kelvin
            comp[diagonal] = diag[a:b, k, c]
            yield equation, k, c, comp


def _assemble(grid: QuadratureGrid, basis: _MirrorBasis, omega: float, operators, shift, write):
    """Run write(slab, density, equation, k, c, comp) over every component of the operators.

    operators lists (material, sign), one per density.  Each class of
    pairs is evaluated once per material; the slabs share the geometry
    between the materials.
    """
    p, q, index = _distinct_pairs(basis)
    r, w_log = _pair_geometry(grid, p, q)
    terms = []  # the _components arguments of sign S and sign K* + shift I
    for material, sign in operators:
        table = _kernel_table(r, w_log, grid.n_nodes, omega, material)
        table *= sign
        single, traction, m_c = _diagonal_blocks(grid, omega, material)
        terms.append((table, sign * single, sign * traction + shift * np.eye(2), sign * m_c))
    for slab in _slabs(grid, basis, index, r):
        for density, term in enumerate(terms):
            for equation, k, c, comp in _components(slab, *term):
                write(slab, density, equation, k, c, comp)


def _write(basis: _MirrorBasis, spec, slab: _Slab, out: np.ndarray, k: int, c: int, comp) -> None:
    """Write component (k, c) of the slab into out[(c, j), (k, i)] = B[(k, i), (c, j)].

    For a paired node j the entry combines the columns of the nodes j and
    n - j with the block's sign for component c.
    """
    parts = list(basis.parts(spec))
    _, nodes, coords, _, sign = parts[c]
    _, targets, target_coords, _, _ = parts[k]
    j0, j1 = max(slab.a, nodes.start), min(slab.b, nodes.stop)
    if j0 >= j1:
        return
    p0 = min(max(j0, slab.qa), j1)  # paired nodes p0..p1-1
    p1 = max(min(j1, slab.qb), p0)
    dest = out[coords.start + j0 - nodes.start : coords.start + j1 - nodes.start, target_coords]
    direct = comp[j0 - slab.a : j1 - slab.a, targets]
    offset = slab.b - slab.a - slab.qa  # the partner of node j is row offset + j
    lo, hi = p0 - j0, p1 - j0
    combine = np.add if sign > 0 else np.subtract
    combine(direct[lo:hi], comp[offset + p0 : offset + p1, targets], out=dest[lo:hi])
    dest[:lo] = direct[:lo]
    dest[hi:] = direct[hi:]


def _eigenblocks(
    grid: QuadratureGrid, pair: MaterialPair, omega: float, basis: _MirrorBasis
) -> list:
    """B = V^T A V of each eigenblock of basis, in Fortran order.

    PA = AP gives A V = V B, so row (i, k) of B is row (i, k) of A V,
    times sqrt 2 for a paired node i: only the rows of nodes 0..rows-1
    are needed.  Each component of each material's S and K*, with psi's
    -1 and the traction equation's +1/2 I, is written straight into its
    quarter of every block, one slab of columns at a time.
    """
    sizes = [basis.size(spec) for spec in basis.blocks]
    # B^T in C order, indexed (density, column, equation, row), allocated
    # before the build's temporaries (module docstring)
    trans = [np.empty((2, size, 2, size), dtype=complex) for size in sizes]

    def write(slab, density, equation, k, c, comp):
        for spec, t in zip(basis.blocks, trans):
            _write(basis, spec, slab, t[density, :, equation, :], k, c, comp)

    _assemble(grid, basis, omega, ((pair.interior, 1.0), (pair.exterior, -1.0)), 0.5, write)
    return [t.reshape(2 * size, 2 * size).T for t, size in zip(trans, sizes)]


def _layer_matrix(grid: QuadratureGrid, omega: float, material: Material, equation: int):
    """S (equation 0) or K* (1) of one material, node-major (2n x 2n), on the solver's path."""
    n = grid.n_nodes
    basis = _identity_basis(n)
    (spec,) = basis.blocks
    out = np.empty((2 * n, 2 * n), dtype=complex)  # (c, j) x (k, i)

    def write(slab, density, eq, k, c, comp):
        if eq == equation:
            _write(basis, spec, slab, out, k, c, comp)

    _assemble(grid, basis, omega, ((material, 1.0),), 0.0, write)
    return out.reshape(2, n, 2, n).transpose(3, 2, 1, 0).reshape(2 * n, 2 * n)


def single_layer_matrix(grid: QuadratureGrid, omega: float, material: Material):
    """Discrete single-layer trace operator (2n x 2n, node-major).

    Diagonal blocks are R_ii m1_ii + (2 pi/n) m2_ii from the closed-form
    limits of the log split M = M1 ln 4 sin^2 + M2.
    """
    return _layer_matrix(grid, omega, material, 0)


def _norm1(a: np.ndarray) -> float:
    """1-norm of the Fortran-order block a; ValueError if a is not finite.

    The norm is summed over slabs of columns, so no |a| temporary of the
    block's size is formed, and a finite norm shows that every entry is
    finite.
    """
    columns = a.T  # C order: row j is column j of a
    norm = np.max(
        [np.abs(columns[j : j + 128]).sum(axis=1).max() for j in range(0, len(columns), 128)]
    )
    if not np.isfinite(norm):
        np.asarray_chkfinite(a)  # raises numpy's ValueError for a non-finite entry
    return float(norm)


def solve_transmission(
    grid: QuadratureGrid,
    pair: MaterialPair,
    omega: float,
    traces: np.ndarray,
    tractions: np.ndarray,
) -> DensityPair:
    """Densities of k right-hand sides; traces/tractions have shape (k, n, 2).

    When the grid is mirror-symmetric (QuadratureGrid.mirror_symmetric)
    the system commutes with the reflection P, and its two eigenblocks
    V+^T A V+ and V-^T A V- (each 2n x 2n) are built from the rows of
    nodes 0..n/2 and solved instead of A.  Otherwise the one block is A,
    in component-major order.  Each block is factored, solved, checked
    and dropped before the next one (module docstring).

    Returns one DensityPair of (k, n, 2) densities, with per column the
    relative residual of the blocks, sqrt(sum_b ||B_b y_b - f_b||^2) / ||f||,
    and the stability ratio of weighted L2 norms
    (|phi| + |psi|) / (|trace| + |traction|), and the condition estimate
    max_b ||B_b||_1 * max_b ||B_b^-1||_1.  Raises ResonanceError when that
    estimate exceeds COND_LIMIT.
    """
    from scipy import linalg as sla

    start = time.perf_counter()
    basis = _mirror_basis(grid)
    blocks = _eigenblocks(grid, pair, omega, basis)
    built = time.perf_counter()
    norms = [_norm1(b) for b in blocks]
    factor_s, solve_s = time.perf_counter() - built, 0.0
    rhs = np.stack([traces, tractions], axis=1)  # (k, equation, n, 2)
    k = rhs.shape[0]
    x = np.zeros(rhs.shape, dtype=complex)  # (k, density, n, 2)
    res2 = np.zeros(k)
    inv_norms = []
    for spec, norm in zip(basis.blocks, norms):
        b = blocks.pop(0)  # from here on b is the block's only reference
        t0 = time.perf_counter()
        lu, piv = sla.lu_factor(np.array(b, order="F"), overwrite_a=True, check_finite=False)
        rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, norm)
        inv_norms.append(1.0 / max(float(rcond) * norm, 1e-300))
        t1 = time.perf_counter()
        f = _project(basis, spec, rhs).reshape(k, -1).T
        y = sla.lu_solve((lu, piv), f)
        del lu  # the LU, then the block, is freed before the next block is copied
        res2 += np.linalg.norm(b @ y - f, axis=0) ** 2
        del b
        _expand(basis, spec, y.T.reshape(k, 2, -1), x)
        factor_s += t1 - t0
        solve_s += time.perf_counter() - t1
    condition_estimate = max(norms) * max(inv_norms)
    residual = np.sqrt(res2) / np.maximum(np.linalg.norm(rhs.reshape(k, -1), axis=1), 1e-300)
    w = grid.weights[:, None]

    def l2(v):  # weighted L2 norms of the two (n, 2) halves, summed
        return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=(2, 3))).sum(axis=1)

    stability = l2(x) / np.maximum(l2(rhs), 1e-300)
    logger.info(
        "transmission solve: %d block(s), condition estimate %.3e, max residual %.3e, "
        "max stability ratio %.3e; build %.3f s, factor %.3f s, solve %.3f s",
        len(norms),
        condition_estimate,
        residual.max(initial=0.0),
        stability.max(initial=0.0),
        built - start,
        factor_s,
        solve_s,
    )
    if condition_estimate > COND_LIMIT:
        raise ResonanceError(
            f"transmission system nearly singular (cond ~ "
            f"{condition_estimate:.2e}); omega^2 rho_1 may sit near an "
            f"interior Dirichlet eigenvalue -- perturb omega by ~1e-6 relative"
        )
    return DensityPair(x[:, 0], x[:, 1], residual, stability, condition_estimate)


def _targets(grid: QuadratureGrid, target):
    """Offsets x - y_j (t, n, 2) of the targets, their lengths, each target's
    nearest node and whether it sits on it (within 1e-12).  Warns once when
    a target off the nodes is within one node spacing of the boundary."""
    dv = np.reshape(np.asarray(target, dtype=float), (-1, 1, 2)) - grid.nodes
    r = np.hypot(dv[..., 0], dv[..., 1])
    nearest = np.argmin(r, axis=1)
    dmin = r[np.arange(len(r)), nearest]
    on = dmin < 1e-12
    if np.any(dmin[~on] < grid.spacing()):
        warnings.warn(
            "target within one node spacing of the boundary; accuracy degraded",
            NearBoundaryWarning,
        )
    return dv, r, nearest, on


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
    wd = (flat.reshape(-1, n, 2) * grid.weights[:, None]).T  # (2, n, k)
    dv, r, nearest, on = _targets(grid, target)
    out = np.empty((len(r), 2, len(flat)), dtype=complex)  # (t, 2, k)
    off = ~on
    dv, r = dv[off], r[off]
    phi, chi, _ = _hankel_radial(r, omega, material)
    comp = _gamma_components(phi, chi, (dv[..., 0] / r, dv[..., 1] / r))
    out[off] = np.stack([comp[k][0] @ wd[0] + comp[k][1] @ wd[1] for k in (0, 1)], axis=1)
    if on.any():
        smat = single_layer_matrix(grid, omega, material).reshape(n, 2, 2 * n)
        out[on] = smat[nearest[on]] @ flat.T
    u = out.transpose(2, 0, 1)
    if np.ndim(target) == 1:
        u = u[:, 0]
    return u if dens.ndim == 3 else u[0]


def traction_of_single_layer(
    grid: QuadratureGrid,
    omega: float,
    material: Material,
    density: np.ndarray,
    target,
    normal,
) -> np.ndarray:
    """Traction of S[density] on the unit normals at off-surface targets.

    Warns like single_layer_apply near the boundary.  A target on a node
    raises DomainError: the traction has two one-sided limits there,
    (-+1/2 I + K*) density (module docstring).
    """
    dv, r, _, on = _targets(grid, target)
    if on.any():
        raise DomainError("the traction of the single layer has two limits at a boundary node")
    nrms = np.atleast_2d(np.asarray(normal, dtype=float))
    wd = np.asarray(density, dtype=complex).reshape(grid.n_nodes, 2) * grid.weights[:, None]
    _, _, traction = _hankel_radial(r, omega, material)
    comp = _traction_components(
        traction, (dv[..., 0] / r, dv[..., 1] / r), (nrms[:, None, 0], nrms[:, None, 1])
    )
    out = np.stack([comp[k][0] @ wd[:, 0] + comp[k][1] @ wd[:, 1] for k in (0, 1)], axis=-1)
    return out[0] if np.ndim(target) == 1 else out
