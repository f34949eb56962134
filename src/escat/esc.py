"""Truncated scattering-coefficient matrices and their structural checks.

The coefficients W^{a,b}_{m,n} connect the multipole content of incident
(J-basis, index m, mode b) and scattered (H-basis, index n, mode a)
fields through the boundary densities of the transmission problem:

    W^{a,b}_{m,n} = int_dD conj(J^a_n(y)) . psi^b_m(y) ds(y),
    u_sc = (i / (4 rho0 w^2)) sum_n [ H^P_n W^{P,b}_{m,n} + H^S_n W^{S,b}_{m,n} ].

EscMatrix holds them as the one (4K+2)^2 matrix G[(b,m),(a,n)] =
W^{a,b}_{m,n} that compute_esc forms, the data model A = X G Y* and
the checks below read; a block W^{a,b} is a view of G.

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
from scipy import special as sp

from .bie import build_grid, solve_transmission
from .curves import BoundaryCurve
from .errors import DomainError
from .wavefields import Material, MaterialPair, _wave_table

logger = logging.getLogger(__name__)

MODES = ("P", "S")


@dataclass
class EscMatrix:
    """Truncated matrix G of scattering coefficients, (4K+2) x (4K+2).

    G[(b, m), (a, n)] = W^{a,b}_{m,n}: rows follow the incident index
    (b, m), columns the scattered index (a, n), with a, b in MODES and
    m, n = -K..K, so that G[ib (2K+1) + m + K, ia (2K+1) + n + K] is
    W^{a,b}_{m,n}.  This is the G of the data model A = X G Y*.
    """

    g: np.ndarray
    omega: float
    pair: MaterialPair | None = None
    curve_descriptor: dict = field(default_factory=dict)
    rho0: float = 1.0

    def __post_init__(self):
        # C order, whatever the caller passed: products with G keep their bytes
        self.g = np.ascontiguousarray(self.g, dtype=complex)
        size = self.g.shape[0] if self.g.ndim == 2 else -1
        if size % 4 != 2 or self.g.shape != (size, size):
            raise DomainError(f"G must be (4K+2) x (4K+2), got shape {self.g.shape}")

    @property
    def K(self) -> int:
        return len(self.g) // 4

    def block(self, alpha: str, beta: str) -> np.ndarray:
        """W^{alpha,beta} as a view of G: [m + K, n + K]."""
        size = 2 * self.K + 1
        return self.g.reshape(2, size, 2, size)[MODES.index(beta), :, MODES.index(alpha)]

    def entry(self, alpha: str, beta: str, m: int, n: int) -> complex:
        return self.block(alpha, beta)[m + self.K, n + self.K]

    def to_global(self) -> np.ndarray:
        """G itself."""
        return self.g

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        size = 2 * self.K + 1
        pairs = np.stack([self.g.real, self.g.imag], axis=-1).reshape(2, size, 2, size, 2)
        out = {
            "K": self.K,
            "omega": self.omega,
            "rho0": self.rho0,
            "curve": self.curve_descriptor,
            "blocks": {
                a + b: pairs[ib, :, ia].tolist()
                for ib, b in enumerate(MODES)
                for ia, a in enumerate(MODES)
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
        K = int(d["K"])
        pairs = {key: np.array(blk, dtype=float) for key, blk in d["blocks"].items()}
        shapes = {key: p.shape for key, p in pairs.items()}
        if shapes != {a + b: (2 * K + 1, 2 * K + 1, 2) for a in MODES for b in MODES}:
            raise DomainError(f'ESC blocks of shapes {shapes} do not fit "K" = {K}')
        # each [re, im] pair read back as one complex double, bit for bit
        g = np.block([[pairs[a + b].view(complex)[..., 0] for a in MODES] for b in MODES])
        pair = None
        if "materials" in d:
            pair = MaterialPair(
                Material.from_dict(d["materials"]["exterior"]),
                Material.from_dict(d["materials"]["interior"]),
            )
        return cls(
            g,
            float(d["omega"]),
            pair=pair,
            curve_descriptor=d.get("curve", {}),
            rho0=float(d.get("rho0", 1.0)),
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
    # J^b_m for b in MODES, m = -K..K, and their tractions: one Bessel table per mode
    j_stack, tractions = _wave_table(sp.jv, grid.nodes, grid.normals, ext, omega, K)
    psi = solve_transmission(grid, pair, omega, j_stack, tractions).psi.reshape(len(j_stack), -1)
    # G[(b,m),(a,n)] = sum_j psi^b_m(y_j) . conj(J^a_n(y_j)) w_j
    proj = (np.conj(j_stack) * grid.weights[:, None]).reshape(len(j_stack), -1)
    return EscMatrix(psi @ proj.T, omega, pair, curve.to_dict(), ext.rho)


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
    g = esc.g
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
    g = esc.g
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
    mag = np.abs(esc.g)
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
