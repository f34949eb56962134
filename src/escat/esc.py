"""Truncated scattering-coefficient matrices and their structural checks.

The coefficients W^{a,b}_{m,n} connect the multipole content of incident
(J-basis, index m, mode b) and scattered (H-basis, index n, mode a)
fields through the boundary densities of the transmission problem:

    W^{a,b}_{m,n} = int_dD conj(J^a_n(y)) . psi^b_m(y) ds(y),
    u_sc = (i / (4 rho0 w^2)) sum_n [ H^P_n W^{P,b}_{m,n} + H^S_n W^{S,b}_{m,n} ].

Structural identities verified by this module (and pinned numerically by
the test suite against two independent computations of W):

* reciprocity       W^{a,b}_{m,n} = (-1)^{m+n} W^{b,a}_{-n,-m}
* mirror parity     W^{a,b}_{-m,-n} = s_a s_b (-1)^{m+n} W^{a,b}_{m,n}
                    (s_P = +1, s_S = -1; holds for shapes symmetric
                    about the x_1-axis)
* energy identity   (1/(4 rho0 w^2)) W W* = -(i/2)(W - W*)
                    (W* the conjugate transpose; equivalently
                    I + (i/(2 rho0 w^2)) W-arranged is unitary)

On a mirror-symmetric grid the transmission solver works in the
reflection's eigenbases (see escat.bie), so mirror parity of W holds by
construction, to rounding, and is no longer an independent check there.
Reciprocity, the energy identity and the analytic disk oracle remain the
independent gates; the test suite checks parity on the unsplit system.

The elementwise-conjugate variants of these identities (Hermitian-type
statements) do not hold for the definition above; verify_symmetries and
verify_optical report the non-conjugated/true defects as the primary
residuals and the conjugated variants as diagnostics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bie import TransmissionSolver, build_grid
from .curves import BoundaryCurve
from .errors import DomainError
from .wavefields import (
    Material,
    MaterialPair,
    ModeIndex,
    cyl_wave_J,
    cyl_wave_traction,
)

logger = logging.getLogger(__name__)

MODES = ("P", "S")


@dataclass
class EscMatrix:
    """Four-block truncated matrix of scattering coefficients.

    blocks['ab'][m + K, n + K] = W^{a,b}_{m,n} with m the incident and n
    the scattered multipole order, |m|, |n| <= K.
    """

    K: int
    blocks: dict
    omega: float
    pair: MaterialPair | None = None
    curve_descriptor: dict = field(default_factory=dict)
    rho0: float = 1.0

    def block(self, alpha: str, beta: str) -> np.ndarray:
        return self.blocks[alpha + beta]

    def entry(self, alpha: str, beta: str, m: int, n: int) -> complex:
        return self.blocks[alpha + beta][m + self.K, n + self.K]

    def to_global(self) -> np.ndarray:
        """Global (4K+2)^2 matrix G[(b,m),(a,n)] = W^{a,b}_{m,n}.

        Rows follow the incident index (b, m), columns the scattered
        index (a, n), compatible with the data model A = X G Y*.
        """
        return np.block([[self.blocks[a + b] for a in MODES] for b in MODES]).astype(
            complex, copy=False
        )

    @classmethod
    def from_global(
        cls, g: np.ndarray, omega: float, rho0: float = 1.0, **meta
    ) -> "EscMatrix":
        k = g.shape[0] // 2
        g4 = g.reshape(2, k, 2, k)  # [b, m, a, n]
        blocks = {
            a + b: g4[ib, :, ia, :].copy()
            for ib, b in enumerate(MODES)
            for ia, a in enumerate(MODES)
        }
        return cls(K=(k - 1) // 2, blocks=blocks, omega=omega, rho0=rho0, **meta)

    def scale(self) -> float:
        return max(np.abs(self.blocks[a + b]).max() for a in MODES for b in MODES)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "K": self.K,
            "omega": self.omega,
            "rho0": self.rho0,
            "curve": self.curve_descriptor,
            "blocks": {
                key: np.stack([blk.real, blk.imag], axis=-1).tolist()
                for key, blk in self.blocks.items()
            },
        }
        if self.pair is not None:
            out["materials"] = {
                "exterior": self.pair.exterior.to_dict(),
                "interior": self.pair.interior.to_dict(),
            }
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "EscMatrix":
        # each [re, im] pair read back as one complex double, bit for bit
        blocks = {
            key: np.array(blk, dtype=float).view(complex)[..., 0]
            for key, blk in d["blocks"].items()
        }
        pair = None
        if "materials" in d:
            pair = MaterialPair(
                Material.from_dict(d["materials"]["exterior"]),
                Material.from_dict(d["materials"]["interior"]),
            )
        return cls(
            K=int(d["K"]),
            blocks=blocks,
            omega=float(d["omega"]),
            rho0=float(d.get("rho0", 1.0)),
            curve_descriptor=d.get("curve", {}),
            pair=pair,
        )


def compute_esc(
    curve: BoundaryCurve,
    pair: MaterialPair,
    omega: float,
    K: int = 8,
    n_nodes: int = 256,
) -> EscMatrix:
    """Assemble the truncated ESC matrix from transmission solves.

    One system factorization serves all 2(2K+1) incident modes J^b_m;
    the coefficients are boundary integrals of conj(J^a_n) against the
    exterior densities.
    """
    if K < 0:
        raise DomainError("K must be nonnegative")
    ext = pair.exterior
    grid = build_grid(curve, n_nodes)
    solver = TransmissionSolver(grid, pair, omega)
    modes = [ModeIndex(a, n) for a in MODES for n in range(-K, K + 1)]
    j_stack = np.array([cyl_wave_J(idx, grid.nodes, ext, omega) for idx in modes])
    tractions = np.array(
        [cyl_wave_traction(idx, grid.nodes, grid.normals, ext, omega, "J") for idx in modes]
    )
    densities = solver.solve_many(j_stack, tractions)
    # G[(b,m),(a,n)] = sum_j psi^b_m(y_j) . conj(J^a_n(y_j)) w_j
    psi_stack = np.stack([dens.psi for dens in densities]).reshape(len(modes), -1)
    proj = (np.conj(j_stack) * grid.weights[:, None]).reshape(len(modes), -1)
    return EscMatrix.from_global(
        psi_stack @ proj.T,
        omega,
        rho0=ext.rho,
        pair=pair,
        curve_descriptor=curve.to_dict(),
    )


def _order_flip(g: np.ndarray) -> np.ndarray:
    """G with the orders m, n -> -m, -n inside each of its four blocks."""
    k = g.shape[0] // 2
    return g.reshape(2, k, 2, k)[:, ::-1, :, ::-1].reshape(2 * k, 2 * k)


def _order_signs(g: np.ndarray) -> np.ndarray:
    """(-1)^m along the global index (b, m) of G."""
    K = g.shape[0] // 4  # G is (4K+2)^2
    return np.tile((-1.0) ** np.arange(-K, K + 1), 2)


def _reciprocity_image(g: np.ndarray) -> np.ndarray:
    """(-1)^{m+n} W^{b,a}_{-n,-m} at entry [(b,m),(a,n)] of G; equal to G if W is reciprocal."""
    s = _order_signs(g)
    return s[:, None] * s[None, :] * _order_flip(g.T)


def _energy_residual(g: np.ndarray, rho0: float, omega: float) -> np.ndarray:
    """W W* / (4 rho0 w^2) + (i/2)(W - W*): zero for a lossless scatterer."""
    rho_w2 = rho0 * omega**2
    return g @ g.conj().T / (4.0 * rho_w2) + 0.5j * (g - g.conj().T)


def verify_optical(esc: EscMatrix) -> dict:
    """Energy-conservation residuals of the truncated W.

    Primary residual: || W W* / (4 rho0 w^2) + (i/2)(W - W*) ||_F / ||W||_F
    with * the conjugate transpose (the unitarity form of the optical
    theorem; exact up to truncation for lossless materials).  The
    elementwise-conjugate variant is reported as a diagnostic.
    """
    g = esc.to_global()
    rho_w2 = esc.rho0 * esc.omega**2
    norm = np.linalg.norm(g)
    if norm == 0:
        return {"residual": 0.0, "residual_elementwise": 0.0, "norm": 0.0}
    res = _energy_residual(g, esc.rho0, esc.omega)
    res_elem = g @ np.conj(g) / (4.0 * rho_w2) + g.imag
    return {
        "residual": float(np.linalg.norm(res) / norm),
        "residual_elementwise": float(np.linalg.norm(res_elem) / norm),
        "norm": float(norm),
    }


MIRROR_SIGN = {"P": 1.0, "S": -1.0}


def verify_symmetries(esc: EscMatrix) -> dict:
    """Structural symmetry defects of W, normalized by max |W|.

    reciprocity : max |W^{a,b}_{m,n} - (-1)^{m+n} W^{b,a}_{-n,-m}|
    mirror      : max |W^{a,b}_{-m,-n} - s_a s_b (-1)^{m+n} W^{a,b}_{m,n}|
                  (meaningful for shapes symmetric about the x_1-axis)

    The conjugated (Hermitian/conjugate-parity) defects are reported for
    diagnosis; they are O(1) for generic frequencies.
    """
    g = esc.to_global()
    scale = np.abs(g).max()
    if scale == 0:
        return {"reciprocity": 0.0, "mirror": 0.0, "hermitian_conj": 0.0, "parity_conj": 0.0}
    s = _order_signs(g)
    sm = s * np.repeat([MIRROR_SIGN[b] for b in MODES], 2 * esc.K + 1)  # s_b (-1)^m
    flipped = _order_flip(g)
    defects = {
        "reciprocity": g - _reciprocity_image(g),
        "mirror": flipped - sm[:, None] * sm[None, :] * g,
        "hermitian_conj": g - g.conj().T,
        "parity_conj": flipped - s[:, None] * s[None, :] * np.conj(g),
    }
    return {key: float(np.abs(d).max() / scale) for key, d in defects.items()}


def decay_profile(esc: EscMatrix) -> dict:
    """max |W| over entries with max(|m|, |n|) = k, and a decay fit.

    Fits |W_{k,k}| k^{k-1} ~ C^{2k} on the diagonal entries (the
    super-exponential decay law); reports the profile, the fitted C and
    the normalized residual spread of the fit.
    """
    K = esc.K
    mag = np.abs(esc.to_global())
    level = np.tile(np.abs(np.arange(-K, K + 1)), 2)  # |m| along the global index
    prof = np.zeros(K + 1)
    np.maximum.at(prof, np.maximum.outer(level, level).ravel(), mag.ravel())
    # max over the four blocks of |W^{a,b}_{k,k}|, k = 0..K
    size = 2 * K + 1
    diag = mag.reshape(2, size, 2, size).diagonal(axis1=1, axis2=3).max(axis=(0, 1))[K:]
    out = {"profile": prof.tolist(), "diag": diag.tolist()}
    ks = np.arange(1, K + 1)
    vals = diag[1:]
    mask = vals > 0
    if mask.sum() >= 2:
        # log|W_kk| + (k-1) log k = 2k log C + const
        y = np.log(vals[mask]) + (ks[mask] - 1.0) * np.log(ks[mask])
        a_fit = np.polyfit(2.0 * ks[mask], y, 1)
        c_fit = float(np.exp(a_fit[0]))
        resid = y - np.polyval(a_fit, 2.0 * ks[mask])
        out["fitted_C"] = c_fit
        out["fit_residual_spread"] = float(np.exp(np.abs(resid).max()))
        bounded = vals[mask] * ks[mask] ** (ks[mask] - 1.0) * c_fit ** (-2.0 * ks[mask])
        out["bounded_sequence"] = bounded.tolist()
    if K >= 2 and prof[K] > 0 and prof[K - 1] > 0:
        # tail proxy: geometric extrapolation of the last two profile entries
        ratio = prof[K] / prof[K - 1]
        out["tail_estimate"] = float(prof[K] * ratio / max(1.0 - ratio, 0.5))
    return out
