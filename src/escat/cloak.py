"""Layered cylindrical structures: transfer matrices, scattering, cloak design.

A structure is a set of concentric annuli A_j = {r_{j+1} <= |x| < r_j}
with per-annulus isotropic materials and either a traction-free cavity or
a solid core inside r_{L+1}.  In every annulus the order-n field is

    u_n = ah^P JP_n + ah^S JS_n + a^P HP_n + a^S HS_n,

and the 4x4 interface matrix M_n(r) collects [r * radial trace;
r * tangential trace; r^2 * radial traction; r^2 * tangential traction]
of the four basis fields, so continuity across |x| = r_j reads
M_{n,j-1}(r_j) a_{j-1} = M_{n,j}(r_j) a_j.

The same machinery yields the penetrable-disk scattering coefficients
(analytic_disk_esc), the oracle used throughout the test suite, and the
numerical design of coatings whose leading scattering coefficients
nearly vanish.

Every W_n comes from _w_of, which takes the interface matrices of any
number of (structure, omega) entries and returns W with the resonance
guard's verdict per entry.  The guard tests the singular values of the
row/column-equilibrated matrix against COND_GUARD, and computes them
only where a norm bound from the batched inverse cannot clear a
matrix; a matrix that overflowed to inf or NaN, or that LAPACK
finds exactly singular, is a resonance too.  Only the builder of the
matrices depends on the size: layered_esc forms one entry's on Python
scalars (_layer_matrices), a table (_w_table) all entries' as arrays.
One k=2 entry's matrices took 30-33 us on scalars and 73-82 us as arrays
(2 CPUs).

The design turns points into W only through _CoatObjective.w, one
_w_table call per batch.  The Nelder-Mead starts run lock-stepped: each
round evaluates the pending point of every running start in one call,
and every start visits the points, and returns the result, that scipy's
Nelder-Mead would, bit for bit.  A polish Jacobian is one call in both
stages: stage 0 hands least_squares the steps of scipy's own 2-point
rule (_two_point_jacobian), so it reaches scipy's point.  One objective
call of the benchmark design (L=2, N=0, one frequency) takes 260-430 us
at 1 row and 390-660 us at 8 rows: 0.72-0.76 of the 350-570 and 510-860
us it took before the two-order fold at n = 0, the J-and-H _modal calls
and the guard's norm bound (2 CPUs, OpenBLAS at 1 thread, thread CPU
time, medians of five runs of 4000 calls alternating with the former
code; the shared machine's speed drifted between runs, the ratio did not).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .errors import DomainError, ResonanceError
from .specialfun import _fold
from .wavefields import Material, MaterialPair, _modal

logger = logging.getLogger(__name__)

__all__ = [
    "LayeredStructure",
    "layered_esc",
    "analytic_disk_esc",
    "design_svanishing",
    "scaling_report",
]

# W = ESC_SCALE * rho0 * omega^2 * (scattered H-coefficient); the absolute
# normalization ties the transfer-matrix route to the boundary-integral
# definition and is pinned by the disk cross-validation test.
ESC_SCALE = -4.0j

COND_GUARD = 1e-13


@dataclass(frozen=True)
class LayeredStructure:
    """Concentric coated cavity/core: radii r_1 > ... > r_{L+1}.

    layers[j] is the material of the annulus between radii[j] and
    radii[j+1]; `inner` is either the string
    'cavity' (traction-free boundary at the innermost radius) or a
    Material for a solid penetrable core.
    """

    radii: tuple
    layers: tuple
    exterior: Material
    inner: object = "cavity"

    def __post_init__(self):
        r = self.radii
        if len(r) != len(self.layers) + 1:
            raise DomainError("need len(radii) == len(layers) + 1")
        if not (all(a > b for a, b in zip(r, r[1:])) and r[-1] > 0):
            raise DomainError("radii must be strictly decreasing and positive")
        if self.inner != "cavity" and not isinstance(self.inner, Material):
            raise DomainError("inner must be 'cavity' or a Material")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "layers": [m.to_dict() for m in self.layers],
            "exterior": self.exterior.to_dict(),
            "inner": "cavity" if self.inner == "cavity" else self.inner.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayeredStructure":
        inner = d.get("inner", "cavity")
        return cls(
            radii=tuple(float(r) for r in d["radii"]),
            layers=tuple(Material.from_dict(m) for m in d["layers"]),
            exterior=Material.from_dict(d["exterior"]),
            inner="cavity" if inner == "cavity" else Material.from_dict(inner),
        )


def _layer_matrices(n: int, radii, materials, omega: float) -> np.ndarray:
    """Stack of M_n(radii[i]) for materials[i], shape (k, 4, 4).

    Columns: (JP_n, JS_n, HP_n, HS_n), each the wavefields._modal tuple
    (r u_r, r u_t, r^2 s_rr, r^2 s_rt) of that wave.  One J and one H
    evaluation serve all k matrices.  The entries are formed on Python
    scalars: at k ~ 5 that is cheaper than array arithmetic, and it keeps
    the operation order of the closed forms.
    """
    if omega <= 0 or min(radii) <= 0:
        raise DomainError("radius and omega must be positive")
    tps = [r * m.kappa_p(omega) for r, m in zip(radii, materials)]
    tss = [r * m.kappa_s(omega) for r, m in zip(radii, materials)]
    t = np.array(tps + tss)
    j, jd = (z.tolist() for z in _fold(sp.jv, n, t))
    h, hd = (z.tolist() for z in _fold(sp.hankel1, n, t))
    k = len(tps)
    out = []
    for p, (tp, ts, material) in enumerate(zip(tps, tss, materials)):
        s = p + k
        lam, mu = material.lam, material.mu
        a0, a1, a2, a3 = _modal("P", n, tp, lam, mu, j[p], jd[p])
        b0, b1, b2, b3 = _modal("S", n, ts, lam, mu, j[s], jd[s])
        c0, c1, c2, c3 = _modal("P", n, tp, lam, mu, h[p], hd[p])
        d0, d1, d2, d3 = _modal("S", n, ts, lam, mu, h[s], hd[s])
        out += (
            a0, b0, c0, d0,
            a1, b1, c1, d1,
            a2, b2, c2, d2,
            a3, b3, c3, d3,
        )
    return np.array(out, dtype=complex).reshape(k, 4, 4)


def _coat_matrices(n: int, t, lam, mu) -> np.ndarray:
    """M_n at arrays of scaled radii t = (r kappa_P, r kappa_S), shape (2, ...): shape (..., 4, 4).

    The array form of _layer_matrices, for _w_table; lam and mu broadcast
    against t[0].  The _fold and _modal operations are the same,
    elementwise, so every entry equals the one formed on scalars.  One
    _modal call per mode takes its J and H columns together.
    """
    j, jd = _fold(sp.jv, n, t)
    h, hd = _fold(sp.hankel1, n, t)
    # z[0 value | 1 derivative, 0 J | 1 H, mode, ...]
    z = np.array([[j, h], [jd, hd]])
    # columns[mode, row, J | H, ...] is entry (row, 2 (J | H) + mode) of M_n
    columns = np.array([
        _modal("P", n, t[0], lam, mu, z[0, :, 0], z[1, :, 0]),
        _modal("S", n, t[1], lam, mu, z[0, :, 1], z[1, :, 1]),
    ])
    return columns.transpose(*range(3, columns.ndim), 1, 2, 0).reshape(t.shape[1:] + (4, 4))


def _chain_layout(L: int, core: bool):
    """Annulus (0 exterior, L+1 core) and radius index i (r_(i+1)) of each matrix _w_of takes.

    M_j(r_j) for j = 1..L, then M_(j-1)(r_j), then M_L(r_(L+1)), then a
    solid core's M(r_(L+1)).
    """
    ann = [*range(1, L + 1), *range(L), L] + [L + 1] * core
    ring = [*range(L), *range(L), L] + [L] * core
    return ann, ring


# Every entry of the equilibrated matrix is at most 1 in modulus, so its
# infinity-norm is at most k, and cond_2 <= k cond_inf for a k x k matrix:
# an equilibrated inverse with infinity-norm below 1 / (k^2 * _COND_MARGIN *
# COND_GUARD) cannot fail the singular-value test.  The margin absorbs the
# rounding of the norm taken from the computed inverse.  Columns
# equilibrated by less than _EQ_TINY (near underflow) go to the exact test
# as well.
_COND_MARGIN = 2.0
_EQ_TINY = 1e-300


def _check_singular(m: np.ndarray, what: str) -> None:
    # Row/column norms differ by orders of magnitude at low frequency
    # (structural, still invertible), so the singularity test uses the
    # condition number of the equilibrated matrix.  An entry that
    # overflowed, or a scale that underflows, leaves no finite
    # equilibrated matrix to test: also a resonance.
    row = np.abs(m).max(axis=1)
    if np.any(row == 0):
        raise ResonanceError(f"{what} has a zero row")
    m1 = m / row[:, None]
    col = np.abs(m1).max(axis=0)
    if np.any(col == 0):
        raise ResonanceError(f"{what} has a zero column")
    m1 /= col[None, :]
    if not np.isfinite(m1).all():
        raise ResonanceError(f"{what} is not finite after equilibration")
    sv = np.linalg.svd(m1, compute_uv=False)
    if sv[-1] < COND_GUARD * sv[0]:
        raise ResonanceError(
            f"{what} is numerically singular (equilibrated cond {sv[0] / sv[-1]:.2e})"
        )


def _cond_bound_clears(m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Per matrix of m (..., k, k), with inv its inverse: True where the norm bound clears it.

    With D_r, D_c the row and column equilibration of m, (D_r m D_c)^-1 =
    D_c^-1 m^-1 D_r^-1 gives the infinity-norm of the equilibrated
    inverse, and k^2 times it bounds the equilibrated 2-norm condition
    (see above), so a matrix cleared here passes _check_singular.  A
    matrix with a column equilibrated by _EQ_TINY or less, or a non-finite
    norm, is not cleared.
    """
    a = np.abs(m)
    row = np.maximum.reduce(a, axis=-1, keepdims=True)
    a /= row
    col = np.maximum.reduce(a, axis=-2, keepdims=True)
    # row sums of |D_c^-1 m^-1 D_r^-1|
    sums = (np.abs(inv) @ row)[..., 0] * col[..., 0, :]
    k = m.shape[-1]
    cleared = np.maximum.reduce(sums, axis=-1) < 1.0 / (k * k * _COND_MARGIN * COND_GUARD)
    if not np.minimum.reduce(col, axis=None, initial=np.inf) > _EQ_TINY:
        cleared &= np.minimum.reduce(col, axis=(-2, -1)) > _EQ_TINY
    return cleared


def _guard_rows(m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Whether each stack of m (..., count, k, k), inv its inverses, passes the guard.

    A stack that _cond_bound_clears does not clear goes through
    _check_singular, so every verdict is the per-matrix test's.
    """
    cleared = _cond_bound_clears(m, inv)
    if cleared.all():
        return np.ones(cleared.shape[:-1], dtype=bool)
    passed = np.reshape(cleared.all(axis=-1), -1)
    stacks = m.reshape(-1, *m.shape[-3:])
    for b in np.flatnonzero(~passed):
        try:
            for mi in stacks[b]:
                _check_singular(mi, "")
        except ResonanceError:
            continue
        passed[b] = True
    return passed.reshape(cleared.shape[:-1])


def _nan_singular(f, a, *b):
    """np.linalg.inv or solve f(a, *b) on stacks; NaN where LAPACK finds an exactly singular pivot."""
    try:
        return f(a, *b)
    except np.linalg.LinAlgError:
        out = np.full((b[0] if b else a).shape, np.nan, dtype=complex)
        for i in np.ndindex(a.shape[:-2]):
            try:
                out[i] = f(a[i], *(x[i] for x in b))
            except np.linalg.LinAlgError:
                pass
        return out


def _w_of(m: np.ndarray, L: int, core: bool, rho_w2):
    """W_n (..., 2, 2) from interface matrices m (..., k, 4, 4) in _chain_layout(L, core) order.

    The chain C = M_L(r_(L+1)) prod_(j=L..1) M_j(r_j)^-1 M_(j-1)(r_j)
    maps the exterior coefficients to the innermost traces and tractions.
    A cavity gives the scattered coefficients of unit incident P and S
    waves as a0 = -Q22^-1 Q21 from C's traction rows; a solid core matches
    C against the core's J columns.  W = ESC_SCALE rho_w2 a0, rho_w2 =
    rho0 w^2.  Also returns the guard's verdict on the layer matrices and
    Q22, shape (...), and C.  A W the guard rejects must not be used.
    """
    chain, passed = m[..., 0, :, :], True
    if L:
        layers = m[..., :L, :, :]
        inv = _nan_singular(np.linalg.inv, layers)
        passed = _guard_rows(layers, inv)
        steps = inv @ m[..., L : 2 * L, :, :]
        chain = steps[..., 0, :, :]
        for j in range(1, L):
            chain = steps[..., j, :, :] @ chain
        chain = m[..., 2 * L, :, :] @ chain
    if core:
        # innermost field b^P JP + b^S JS with the core material; the
        # unknowns are (b^P, b^S, a^P, a^S), one column per incident mode
        lhs = np.empty_like(chain)
        lhs[..., :2] = m[..., -1, :, :2]
        lhs[..., 2:] = -chain[..., 2:]
        a0 = _nan_singular(np.linalg.solve, lhs, chain[..., :2])[..., 2:, :]
    else:
        q22 = chain[..., None, 2:, 2:]
        q22_inv = _nan_singular(np.linalg.inv, q22)
        passed = passed & _guard_rows(q22, q22_inv)
        a0 = -q22_inv[..., 0, :, :] @ chain[..., 2:, :2]
    return ESC_SCALE * rho_w2 * a0, passed, chain


def layered_esc(structure: LayeredStructure, omega: float, n: int) -> np.ndarray:
    """Order-n scattering-coefficient matrix W_n of a layered structure.

    Returns the 2x2 matrix W_n[alpha, beta] (alpha = scattered mode row,
    beta = incident mode column): _w_of on the entry's interface matrices,
    formed on Python scalars.  ResonanceError names the first matrix the
    guard rejects, with _check_singular's reason, or a non-finite W.
    """
    L, core = structure.n_layers, structure.inner != "cavity"
    ann, ring = _chain_layout(L, core)
    mats = [structure.exterior, *structure.layers, structure.inner]
    m = _layer_matrices(n, [structure.radii[i] for i in ring], [mats[a] for a in ann], omega)
    # a chain product or Bessel value that overflows on the way ends in a
    # non-finite matrix, which the guard and the check below reject
    with np.errstate(over="ignore", invalid="ignore"):
        w, passed, chain = _w_of(m, L, core, structure.exterior.rho * omega * omega)
        if not passed:
            for j in range(L):
                _check_singular(m[j], f"layer matrix M_(n={n},j={j + 1})")
            _check_singular(chain[2:, 2:], f"Q22(n={n})")
    if not np.isfinite(w).all():
        raise ResonanceError(f"W_(n={n}) at omega={omega:g} is not finite")
    return w


def analytic_disk_esc(
    pair: MaterialPair, r_disk: float, omega: float, n: int
) -> np.ndarray:
    """Order-n ESC of a homogeneous penetrable disk (mode matching).

    Single-interface transfer-matrix solve, independent of the
    boundary-integral route; serves as the cross-validation oracle.
    """
    structure = LayeredStructure(
        radii=(r_disk,), layers=(), exterior=pair.exterior, inner=pair.interior
    )
    return layered_esc(structure, omega, n)


def _w_table(radii: np.ndarray, mat: np.ndarray, core: bool, freqs, N: int):
    """W_n(w) of B structures for w in freqs and n = 0..N, shape (B, len(freqs), N+1, 2, 2).

    radii (B, L+1) holds r_1 > ... > r_(L+1), and mat (B, L+1+core, 3) the
    (lam, mu, rho) of annuli 0 (the exterior) .. L, then of a solid core.
    One _coat_matrices call per order.  Also returns the guard's verdict
    per entry, shape (B, len(freqs), N+1).
    """
    L = radii.shape[1] - 1
    ann, ring = _chain_layout(L, core)
    lam, mu, rho = mat.transpose(2, 0, 1)[:, :, ann]
    c = np.sqrt(np.array([lam + 2.0 * mu, mu]) / rho)
    omega = np.asarray(freqs, dtype=float)
    # t[0 | 1, b, i, j] = r kappa_(P | S) of matrix j at omega_i
    t = radii[:, None, ring] * (omega[:, None] / c[:, :, None])
    lam, mu = lam[:, None], mu[:, None]
    rho_w2 = (mat[:, :1, 2] * omega * omega)[..., None, None]
    w = np.empty((len(radii), len(omega), N + 1, 2, 2), dtype=complex)
    passed = np.empty(w.shape[:3], dtype=bool)
    # as in layered_esc, an overflow ends in a rejected or non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N + 1):
            m = _coat_matrices(n, t, lam, mu)
            w[:, :, n], passed[:, :, n], _ = _w_of(m, L, core, rho_w2)
    return w, passed


# ---------------------------------------------------------------------------
# S-vanishing design
# ---------------------------------------------------------------------------


@dataclass
class DesignReport:
    structure: LayeredStructure
    objective: float
    reduction_factor: float
    objective_trace: list = field(default_factory=list)
    w_table: dict = field(default_factory=dict)
    bare_w_table: dict = field(default_factory=dict)
    n_evaluations: int = 0
    seed: int = 0
    # objective evaluations of each Nelder-Mead start, in start order
    start_evaluations: list = field(default_factory=list)
    # evaluations that returned the rejection value PENALTY
    penalty_hits: int = 0
    # points evaluated by polish stages 0 and 1, not in n_evaluations
    polish_stage_evaluations: list = field(default_factory=lambda: [0, 0])

    @property
    def polish_evaluations(self) -> int:
        """Points evaluated by both polish stages."""
        return sum(self.polish_stage_evaluations)


def _w_stack(structure: LayeredStructure, freqs, N: int) -> np.ndarray:
    """W_n(w) for w in freqs and n = 0..N, shape (len(freqs), N+1, 2, 2): one _w_table call.

    DomainError if a frequency is not positive; ResonanceError names the
    first (w, n) whose W the resonance guard rejects or is not finite.
    """
    freqs = np.asarray(freqs, dtype=float)
    if not np.all(freqs > 0):
        raise DomainError("omega must be positive")
    core = structure.inner != "cavity"
    mats = [structure.exterior, *structure.layers] + [structure.inner] * core
    mat = np.array([[(m.lam, m.mu, m.rho) for m in mats]])
    w, passed = _w_table(np.array([structure.radii]), mat, core, freqs, N)
    ok = passed[0] & np.isfinite(w[0]).all(axis=(-2, -1))
    if not ok.all():
        i, n = np.argwhere(~ok)[0]
        what = "is not finite" if passed[0, i, n] else "is rejected by the resonance guard"
        raise ResonanceError(f"W_(n={n}) at omega={freqs[i]:g} {what}")
    return w[0]


def _power(w, cols):
    """sum |W_n|^2 over both scattered modes and the incident columns cols, per W_n."""
    return np.sum(np.abs(w[..., cols]) ** 2, axis=(-2, -1))


# objective value of a point outside the box, with a collapsed interface
# or at a resonance
PENALTY = 1e12


@dataclass(frozen=True, eq=False)
class _CoatObjective:
    """Stage-1 design objective F and the structure a point x encodes.

    x holds log(lam, mu, rho) of each layer, then the L-1 interior
    interfaces as fractions of the coat thickness, which the box
    (lo_vec, hi_vec) keeps in [5e-3, 1 - 5e-3].  The objective is
    evaluated on a batch of points at once, all coats in one _w_table.
    """

    L: int
    N: int
    omega_set: list
    # incident-mode columns of W_n that enter the design
    cols: slice
    # scales[i, n]: bare-cavity power at omega_set[i] and order n
    scales: np.ndarray
    lo_vec: np.ndarray
    hi_vec: np.ndarray
    exterior: Material
    r_outer: float
    r_cavity: float

    def structure(self, x) -> LayeredStructure:
        radii, mat = self._coats(np.asarray(x)[None])
        layers = tuple(Material(*m) for m in mat[0, 1:].tolist())
        return LayeredStructure(tuple(radii[0].tolist()), layers, self.exterior)

    def _coats(self, X):
        """The _w_table radii (B, L+1) and materials (B, L+1, 3) of the rows of X."""
        B, L, ext = len(X), self.L, self.exterior
        mat = np.empty((B, L + 1, 3))
        mat[:, 0] = ext.lam, ext.mu, ext.rho
        mat[:, 1:] = np.exp(X[:, : 3 * L]).reshape(B, L, 3)
        radii = np.empty((B, L + 1))
        radii[:, 0], radii[:, -1] = self.r_outer, self.r_cavity
        fr = np.sort(X[:, 3 * L :], axis=1)[:, ::-1]
        radii[:, 1:-1] = self.r_cavity + (self.r_outer - self.r_cavity) * fr
        return radii, mat

    def _values(self, w) -> list:
        """F of each W stack in w, shape (B, len(omega_set), N+1, 2, 2).

        Each is a sum of Python floats in (w, n) order.
        """
        terms = (_power(w, self.cols) / self.scales).reshape(len(w), self.scales.size)
        return [sum(t) for t in terms.tolist()]

    def w(self, X, freqs):
        """W_n(w) of the rows of X, shape (B, len(freqs), N+1, 2, 2), from one _w_table call.

        Also returns per row whether it is usable: the guard passes every W,
        all are finite, and the radii strictly decrease.
        """
        radii, mat = self._coats(X)
        w, passed = _w_table(radii, mat, False, freqs, self.N)
        usable = passed.all(axis=(1, 2)) & np.isfinite(w).all(axis=(1, 2, 3, 4))
        return w, usable & (radii[:, 1:] < radii[:, :-1]).all(axis=1)

    def __call__(self, X) -> list:
        """F at each row of X, shape (B, dim): B Python floats.

        A row outside the box, with a collapsed interface, that the
        resonance guard rejects at some (w, n) or with a non-finite W gets
        PENALTY.  The W stacks of the other rows come from one call
        self.w, entry for entry equal to layered_esc's.
        """
        L = self.L
        inside = ((X >= self.lo_vec - 1e-12) & (X <= self.hi_vec + 1e-12)).all(axis=1)
        if L > 2:
            # no interface collapsed onto a neighbor; the box keeps every
            # fraction 5e-3 from the coat's faces
            fr = np.sort(X[:, 3 * L :], axis=1)
            inside &= (fr[:, 1:] - fr[:, :-1] >= 1e-3).all(axis=1)
        rows = np.flatnonzero(inside)
        values = [PENALTY] * len(X)
        if len(rows):
            w, usable = self.w(X[rows], self.omega_set)
            for b, ok, value in zip(rows.tolist(), usable.tolist(), self._values(w)):
                if ok:
                    values[b] = value
        return values


def _nelder_mead(x0, maxiter: int):
    """One Nelder-Mead start as a generator: yields each point, is sent its value.

    A port of scipy.optimize's Nelder-Mead for the options the design
    uses: adaptive=True, xatol=1e-12, fatol=1e-16 and maxiter, with no
    bounds, no callback and no limit on evaluations.  The operations are scipy's, in
    scipy's order, so a start visits the points scipy's would and returns
    the same (x, f), bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    dim = float(N)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    xatol, fatol = 1e-12, 1e-16
    sim = np.empty((N + 1, N), dtype=float)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = yield sim[k]
    # scipy sorts twice; argsort is not stable, so ties need both
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    iterations = 1
    while iterations < maxiter:
        if (
            np.abs(sim[1:] - sim[0]).max() <= xatol
            and np.abs(fsim[0] - fsim[1:]).max() <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = yield xr
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = yield xe
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            doshrink = False
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = yield xc
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = yield xcc
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = yield sim[j]
        iterations += 1
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], fsim.min()


def _lockstep(objective, starts, maxiter: int):
    """Run a _nelder_mead start from each point of starts, all together.

    Each round evaluates the pending point of every start still running
    in one call objective(X), X of shape (running starts, dim), which
    returns one value per row.  Returns the (x, f) of each start, its
    evaluation and PENALTY counts, all in start order, and the number of
    rounds.
    """
    runs = [_nelder_mead(x0, maxiter) for x0 in starts]
    points = [next(run) for run in runs]
    results = [None] * len(runs)
    evaluations, penalty_hits = [0] * len(runs), [0] * len(runs)
    running, rounds = list(range(len(runs))), 0
    while running:
        values = objective(np.array([points[k] for k in running]))
        rounds += 1
        still = []
        for k, f in zip(running, values):
            evaluations[k] += 1
            penalty_hits[k] += f == PENALTY
            try:
                points[k] = runs[k].send(f)
                still.append(k)
            except StopIteration as stop:
                results[k] = stop.value
        running = still
    return results, evaluations, penalty_hits, rounds


def design_svanishing(
    L: int,
    N: int,
    omega_set,
    bounds: dict,
    exterior: Material,
    r_outer: float = 2.0,
    r_cavity: float = 1.0,
    n_starts: int = 16,
    seed: int = 0,
    mode_mask: str = "PS",
    maxiter: int = 2000,
    coeff_probe: list | None = None,
) -> DesignReport:
    """Design an L-layer coat minimizing the leading cavity ESC.

    Stage 1 minimizes F = sum_w sum_{n<=N} sum_modes |W_n(w)|^2 / s_n(w)
    with s_n(w) the bare-cavity power (relative reduction objective),
    over log-parametrized layer materials and interior radii, by
    multi-start Nelder-Mead inside box bounds.  The starts run
    lock-stepped in this process, every round evaluating all running
    starts' pending points in one batched objective call; each start
    follows scipy's adaptive Nelder-Mead exactly.  Stage 2 (polish) refines
    the best candidate by bounded least squares on the W-entry residuals; probe
    frequencies below the working band (coeff_probe, by default
    min(omega_set)/100 and min(omega_set)/1000) are appended so the
    leading low-frequency coefficient itself is cancelled, not just the
    band values.

    Parameters
    ----------
    bounds : dict
        {'lam': (lo, hi), 'mu': (lo, hi), 'rho': (lo, hi)} for the layer
        materials; positive bounds required.
    mode_mask : 'PS', 'P' or 'S'
        Which incident-mode columns enter the objective (P-only or
        S-only cloaks use the corresponding column).
    coeff_probe : list of float, optional
        The polish's probe frequencies; None takes the defaults above.
    """
    if L < 1:
        raise DomainError("need at least one coating layer")
    if not 0 < r_cavity < r_outer:
        raise DomainError(
            f"need 0 < r_cavity < r_outer, got r_cavity={r_cavity}, r_outer={r_outer}"
        )
    omega_set = list(omega_set)
    for key in ("lam", "mu", "rho"):
        lo, hi = bounds[key]
        if not (0 < lo < hi):
            raise DomainError(f"bounds for {key} must satisfy 0 < lo < hi")
    cols = {"PS": slice(None), "P": slice(0, 1), "S": slice(1, 2)}.get(mode_mask)
    if cols is None:
        raise DomainError(f"mode_mask must be 'PS', 'P' or 'S', not {mode_mask!r}")
    if coeff_probe is None:
        coeff_probe = [min(omega_set) / 100.0, min(omega_set) / 1000.0]
    probes = list(coeff_probe)
    # the bare cavity at the working, then the probe frequencies: the one
    # evaluation the objective's scales, the polish and the report share
    bare_cavity = LayeredStructure(radii=(r_cavity,), layers=(), exterior=exterior)
    bare = _w_stack(bare_cavity, omega_set + probes, N)

    lo_vec = np.concatenate(
        [np.log([bounds[k][0] for k in ("lam", "mu", "rho")] * L), np.full(L - 1, 5e-3)]
    )
    hi_vec = np.concatenate(
        [np.log([bounds[k][1] for k in ("lam", "mu", "rho")] * L), np.full(L - 1, 1 - 5e-3)]
    )
    scales = np.maximum(_power(bare[: len(omega_set)], cols), 1e-300)
    objective = _CoatObjective(
        L, N, omega_set, cols, scales, lo_vec, hi_vec, exterior, r_outer, r_cavity
    )

    rng = np.random.default_rng(seed)
    starts = [lo_vec + (hi_vec - lo_vec) * rng.random(len(lo_vec)) for _ in range(n_starts)]
    clock = time.perf_counter()
    runs, start_evaluations, hits, rounds = _lockstep(objective, starts, maxiter)
    nelder_mead_s = time.perf_counter() - clock
    results = sorted(((k, f, x) for k, (x, f) in enumerate(runs)), key=lambda t: (t[1], t[0]))
    best_k, best_f, best_x = results[0]

    clock = time.perf_counter()
    best_x, polish_stage_evaluations = _polish_design(best_x, objective, bare, probes)
    polish_s = time.perf_counter() - clock
    logger.info(
        "design: best start %d, objective %.3e; evaluations per start %s, %d penalized; "
        "%d lock-step rounds, Nelder-Mead %.3f s, polish %.3f s",
        best_k, best_f, start_evaluations, sum(hits), rounds, nelder_mead_s, polish_s,
    )
    best_f = objective(best_x[None])[0]
    n_evaluations = sum(start_evaluations) + 1
    penalty_hits = sum(hits) + int(best_f == PENALTY)

    structure = objective.structure(best_x)
    designed = _w_stack(structure, omega_set, N)
    # the reduction at omega_set[0], summed over n as Python floats
    designed_power = sum(_power(designed[0], cols).tolist())
    bare_power = sum(_power(bare[0], cols).tolist())
    keys = [(i, w, n) for i, w in enumerate(omega_set) for n in range(N + 1)]
    return DesignReport(
        structure=structure,
        objective=best_f,
        reduction_factor=bare_power / max(designed_power, 1e-300),
        objective_trace=[float(f) for _, f, _ in results],
        w_table={(w, n): designed[i, n].tolist() for i, w, n in keys},
        bare_w_table={(w, n): bare[i, n].tolist() for i, w, n in keys},
        n_evaluations=n_evaluations,
        seed=seed,
        start_evaluations=start_evaluations,
        penalty_hits=penalty_hits,
        polish_stage_evaluations=polish_stage_evaluations,
    )


def _polish_design(x0, objective, bare, probes):
    """Bounded least-squares refinement of a design candidate.

    bare is the bare cavity's W stack at the working frequencies, then at
    probes.  Residuals are the (bare-normalized) W_n entries at the working
    frequencies plus at probe frequencies far below them; zeroing the
    probe entries cancels the leading low-frequency coefficients.  Stage 0
    is least squares with each W_n normalized by its largest bare entry;
    stage 1 zeroes the real part of each diagonal probe entry, normalized
    by its bare magnitude, by a square Newton iteration.  All columns of a
    Jacobian go in one objective.w call in both stages.  Returns the
    refined x and the numbers of points, clipped to the box and evaluated
    by objective.w, of stages 0 and 1.
    """
    from scipy import optimize as sopt

    cols = objective.cols
    lo_vec, hi_vec = objective.lo_vec, objective.hi_vec
    freqs = objective.omega_set + probes
    bare_abs = np.abs(bare)
    norms = np.maximum(bare_abs.max(axis=(-2, -1)), 1e-300)[..., None, None]
    # points and objective.w calls so far
    evaluations, calls = 0, 0

    def w_of(X, at):
        nonlocal evaluations, calls
        evaluations, calls = evaluations + len(X), calls + 1
        return objective.w(np.clip(X, lo_vec, hi_vec), at)

    def residual_rows(X):
        # per point and (w, n): the real, then the imaginary parts of the entries
        w, usable = w_of(X, freqs)
        z = (w / norms)[..., cols].reshape(len(X), *bare.shape[:2], -1)
        rows = np.concatenate([z.real, z.imag], axis=-1).reshape(len(X), -1)
        rows[~usable] = 1e6
        return rows

    # the point least_squares evaluated last, and its residuals
    last = [None, None]

    def residuals(x):
        last[:] = x.copy(), residual_rows(x[None])[0]
        return last[1]

    def jacobian(x):
        # least_squares asks for J at the point it evaluated last
        f = last[1] if np.array_equal(x, last[0]) else residuals(x)
        return _two_point_jacobian(residual_rows, x, f, lo_vec, hi_vec)

    x = np.clip(x0, lo_vec + 1e-9, hi_vec - 1e-9)
    try:
        res = sopt.least_squares(
            residuals,
            x,
            jac=jacobian,
            bounds=(lo_vec, hi_vec),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=6000,
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        logger.warning("design polish stage 0 failed (%s); keeping Nelder-Mead result", exc)
    else:
        before = np.sum(residuals(x) ** 2)
        logger.info("design polish stage 0: residual %.3e -> %.3e", before, np.sum(res.fun**2))
        if np.sum(res.fun**2) < before:
            x = res.x
    stage0 = [evaluations, calls]
    if probes:
        # stage 1: exact cancellation of the per-channel leading coefficients
        # (real parts of the diagonal probe entries, one condition per mode)
        bare_diag = np.diagonal(bare_abs[len(objective.omega_set) :], axis1=-2, axis2=-1)
        diag = np.maximum(bare_diag[..., cols], 1e-300)

        def coeff_residuals(X):
            w, usable = w_of(X, probes)
            z = (np.diagonal(w, axis1=-2, axis2=-1)[..., cols].real / diag).reshape(len(X), -1)
            return np.where(usable[:, None], z, np.nan)

        x = _subset_newton(x, coeff_residuals, lo_vec, hi_vec)
    stage1 = [evaluations - stage0[0], calls - stage0[1]]
    logger.info(
        "design polish: %d points in %d calls in stage 0, %d points in %d calls in stage 1",
        *stage0, *stage1,
    )
    return x, [stage0[0], stage1[0]]


def _subset_newton(x, residuals, lo_vec, hi_vec, max_iter=40, tol=1e-10):
    """Square damped Newton on the best-conditioned parameter subset.

    residuals maps points (B, dim) to rows (B, k), NaN where it cannot
    evaluate a point.  Picks as many parameters as there are residuals (by
    greedy QR column selection of the full Jacobian) and iterates Newton
    with backtracking; parameters outside the subset stay fixed.  The
    first step reuses the start point's full Jacobian.
    """
    from scipy.linalg import qr

    f = residuals(x[None])[0]
    if np.isnan(f).any():
        return x
    k = len(f)
    jsub = None
    if k >= len(x):
        cols = np.arange(len(x))
    else:
        jfull = _forward_jacobian(residuals, x, f, hi_vec)
        if not np.isfinite(jfull).all():
            return x
        # column-pivoted QR picks a well-conditioned k-subset
        _, _, piv = qr(jfull, pivoting=True)
        cols = np.sort(piv[:k])
        jsub = jfull[:, cols]
    best = np.linalg.norm(f)
    for _ in range(max_iter):
        if best < tol:
            break
        if jsub is None:
            jsub = _forward_jacobian(residuals, x, f, hi_vec)[:, cols]
        if not np.isfinite(jsub).all():  # a column point it cannot evaluate
            break
        try:
            step_sub = np.linalg.solve(jsub, -f) if len(cols) == k else np.linalg.lstsq(jsub, -f, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        jsub = None
        step = np.zeros_like(x)
        step[cols] = step_sub
        lam = 1.0
        while lam > 1e-8:
            xn = np.clip(x + lam * step, lo_vec, hi_vec)
            fn = residuals(xn[None])[0]
            # a NaN norm, from a point that cannot be evaluated, fails
            if np.linalg.norm(fn) < best:
                x, f, best = xn, fn, np.linalg.norm(fn)
                break
            lam /= 4.0
        else:
            break
    logger.info("design polish stage 1: coefficient residual norm %.3e", best)
    return x


def _difference_jacobian(residuals, x, f, h):
    """One-sided difference Jacobian (k, dim) of residuals at x, f = residuals(x[None])[0].

    Column j steps x_j by h_j and divides by the exact step (x_j + h_j) - x_j;
    all column points go in one residuals call.
    """
    points = np.tile(x, (len(x), 1))
    np.fill_diagonal(points, x + h)
    return ((residuals(points) - f) / ((x + h) - x)[:, None]).T


def _forward_jacobian(residuals, x, f, hi_vec):
    """Stage 1's Jacobian: x_j steps by 1e-6 max(|x_j|, 1e-3), backward where forward would pass hi_vec."""
    dx = 1e-6 * np.maximum(np.abs(x), 1e-3)
    return _difference_jacobian(residuals, x, f, np.where(x + dx <= hi_vec, dx, -dx))


def _two_point_jacobian(residuals, x, f, lo_vec, hi_vec):
    """Stage 0's Jacobian: the steps of scipy's 2-point rule, relative step 1e-7, inside [lo_vec, hi_vec].

    h_j = 1e-7 sign(x_j) |x_j| (sign(0) = 1), or sqrt(eps) sign(x_j)
    max(1, |x_j|) where that step does not change x_j; a step that would
    leave the box turns back if it fits on the other side, and otherwise
    runs to the farther bound.
    """
    sign = (x >= 0).astype(float) * 2 - 1
    h = 1e-7 * sign * np.abs(x)
    h = np.where((x + h) - x == 0, np.finfo(float).eps**0.5 * sign * np.maximum(1.0, np.abs(x)), h)
    lower, upper = x - lo_vec, hi_vec - x
    fitting = np.abs(h) <= np.maximum(lower, upper)
    h = np.where(((x + h < lo_vec) | (x + h > hi_vec)) & fitting, -h, h)
    h = np.where(fitting, h, np.where(upper >= lower, upper, -lower))
    return _difference_jacobian(residuals, x, f, h)


def scaling_report(
    structure: LayeredStructure,
    omega_ref: float,
    n_max: int,
    epsilon_grid,
) -> dict:
    """Low-frequency scaling fits: ||W_n(eps * omega_ref)|| vs eps.

    Returns per-order fitted log-log slopes (least squares on the given
    epsilon grid; logarithm factors make pure power laws approximate, so
    slopes are reported with the residual of the fit).
    """
    eps = np.asarray(sorted(epsilon_grid), dtype=float)
    table = _w_stack(structure, eps * omega_ref, n_max)
    out = {"epsilon": eps.tolist(), "orders": {}}
    for n in range(n_max + 1):
        # the Frobenius norm of each 2x2 W_n, one at a time
        norms = np.array([np.linalg.norm(w) for w in table[:, n]])
        mask = norms > 0
        le, ln = np.log(eps[mask]), np.log(norms[mask])
        a = np.polyfit(le, ln, 1)
        resid = ln - np.polyval(a, le)
        out["orders"][n] = {
            "norms": norms.tolist(),
            "exponent": float(a[0]),
            "fit_residual": float(np.abs(resid).max()),
        }
    return out
