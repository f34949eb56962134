"""Cylindrical elastic wave bases and the Kupradze fundamental solution.

Conventions (frozen; the symmetry and energy identities depend on them):

* polar frame      e_r = (cos f, sin f),  e_t = (-sin f, cos f)
* vector harmonics P_m(x^) = e^{imf} e_r,  S_m(x^) = e^{imf} e_t
* scalar curl      curl w   = d1 w2 - d2 w1
* vector curl      Curl f   = (d2 f, -d1 f)
* pressure basis   JP_m = grad [J_m(kP r) e^{imf}]
                        = kP J_m'(kP r) P_m + (i m / r) J_m(kP r) S_m
* shear basis      JS_m = Curl [J_m(kS r) e^{imf}]
                        = (i m / r) J_m(kS r) P_m - kS J_m'(kS r) S_m
* HP_m, HS_m       same with H^(1)_m (outgoing, x != 0)
* plane-wave perp  d_perp = (d2, -d1) for incidence direction d
* traction         T u = lam (div u) n + mu (grad u + grad u^T) n
* modal column     (r u_r, r u_t, r^2 s_rr, r^2 s_rt) of Z^a_m with the
                   phase e^{imf} stripped, t = kappa_a r; one column of
                   the layer matrix M_m(r).  _modal is the only closed form:
                   the fields, the tractions and M_m(r) are all built on it.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError
from .specialfun import _fold

__all__ = [
    "Material",
    "MaterialPair",
    "ModeIndex",
    "cyl_wave_J",
    "cyl_wave_H",
    "cyl_wave_traction",
    "plane_wave_traction",
    "perp",
]


@dataclass(frozen=True)
class Material:
    """Isotropic elastic material: Lame pair plus density."""

    lam: float
    mu: float
    rho: float

    def __post_init__(self):
        if not (self.lam > 0 and self.mu > 0 and self.rho > 0):
            raise DomainError(
                f"material parameters must be positive, got "
                f"(lam={self.lam}, mu={self.mu}, rho={self.rho})"
            )

    @property
    def c_p(self) -> float:
        return math.sqrt((self.lam + 2.0 * self.mu) / self.rho)

    @property
    def c_s(self) -> float:
        return math.sqrt(self.mu / self.rho)

    def kappa_p(self, omega: float) -> float:
        return omega / self.c_p

    def kappa_s(self, omega: float) -> float:
        return omega / self.c_s

    def kappa(self, omega: float, mode: str) -> float:
        return self.kappa_p(omega) if mode == "P" else self.kappa_s(omega)

    def to_dict(self) -> dict:
        return {"lam": self.lam, "mu": self.mu, "rho": self.rho}

    @classmethod
    def from_dict(cls, d: dict) -> "Material":
        return cls(float(d["lam"]), float(d["mu"]), float(d["rho"]))


@dataclass(frozen=True)
class MaterialPair:
    """Exterior/interior materials for a penetrable inclusion.

    The contrast condition requires the Lame pairs to differ and the
    differences (lam0-lam1), (mu0-mu1) not to have opposite signs.
    """

    exterior: Material
    interior: Material

    def __post_init__(self):
        dl = self.exterior.lam - self.interior.lam
        dm = self.exterior.mu - self.interior.mu
        if dl * dl + dm * dm == 0.0:
            raise DomainError("contrast condition violated: identical Lame pairs")
        if dl * dm < 0.0:
            raise DomainError(
                "contrast condition violated: (lam0-lam1)(mu0-mu1) must be >= 0"
            )


@dataclass(frozen=True)
class ModeIndex:
    """Wave mode ('P' or 'S') and integer multipole order."""

    mode: str
    order: int

    def __post_init__(self):
        if self.mode not in ("P", "S"):
            raise DomainError(f"mode must be 'P' or 'S', got {self.mode!r}")


def perp(d: np.ndarray) -> np.ndarray:
    """Perpendicular (d2, -d1) used in the shear plane wave."""
    d = np.asarray(d, dtype=float)
    return np.array([d[1], -d[0]])


def _modal(mode: str, n: int, t, lam: float, mu: float, z, zp):
    """(r u_r, r u_t, r^2 s_rr, r^2 s_rt) of the order-n P or S wave; z = Z_n(t).

    The phase e^{inf} is stripped; the tuple is one column of M_n(r).
    The P-mode shear stress and the S-mode radial stress are the same
    function of (n, t, mu); it is written once.
    """
    coupling = 2j * mu * n * (t * zp - z)
    if mode == "P":
        s_rr = -2.0 * mu * t * zp + (2.0 * mu * n * n - (lam + 2.0 * mu) * t * t) * z
        return t * zp, 1j * n * z, s_rr, coupling
    s_rt = 2.0 * mu * t * zp + (mu * t * t - 2.0 * mu * n * n) * z
    return 1j * n * z, -t * zp, coupling, s_rt


def _wave_columns(idx: ModeIndex, point, material: Material, omega: float, kind: str):
    """Shared prologue of the cylindrical-wave evaluators.

    Checks omega and kind, and returns (at0, r, phi, t, z, column): the
    mask of points at the origin, then for the other points the polar
    coordinates, t = kappa r, z = Z_n(t) and the _modal column.
    """
    if omega <= 0:
        raise DomainError("omega must be positive")
    if kind not in ("J", "H"):
        raise DomainError(f"kind must be 'J' or 'H', got {kind!r}")
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    r, phi = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
    at0 = r < 1e-14
    r, phi = r[~at0], phi[~at0]
    t = material.kappa(omega, idx.mode) * r
    z, zp = _fold(sp.jv if kind == "J" else sp.hankel1, idx.order, t)
    col = _modal(idx.mode, idx.order, t, material.lam, material.mu, z, zp)
    return at0, r, phi, t, z, col


def _cartesian(phi, v_r, v_t, scale):
    """Cartesian components of (v_r e_r + v_t e_t) * scale."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([(v_r * c - v_t * s) * scale, (v_r * s + v_t * c) * scale], axis=-1)


def cyl_wave_J(idx: ModeIndex, point, material: Material, omega: float) -> np.ndarray:
    """Entire cylindrical eigenvector J^P_m or J^S_m at one or more points.

    Parameters
    ----------
    idx : ModeIndex
    point : array_like, shape (2,) or (N, 2)
    material, omega
        Fix the wavenumber kappa_mode = omega / c_mode.

    Returns
    -------
    np.ndarray, complex, shape like the input points
        Cartesian components.  At the origin the polar decomposition is
        singular but the field is entire; the series limit is used there
        (nonzero only for |m| = 1).
    """
    at0, r, phi, _, _, (ru_r, ru_t, _, _) = _wave_columns(idx, point, material, omega, "J")
    m = idx.order
    out = np.zeros((len(at0), 2), dtype=complex)
    out[~at0] = _cartesian(phi, ru_r, ru_t, np.exp(1j * m * phi) / r)
    if np.any(at0) and abs(m) == 1:
        # grad[J_m(kr) e^{imf}] at 0 is (m k / 2)(1, i m) for |m| = 1, zero otherwise
        gp = 0.5 * m * material.kappa(omega, idx.mode) * np.array([1.0, 1j * m])
        out[at0] = gp if idx.mode == "P" else (gp[1], -gp[0])
    return out[0] if np.asarray(point).ndim == 1 else out


def cyl_wave_H(idx: ModeIndex, point, material: Material, omega: float) -> np.ndarray:
    """Outgoing cylindrical eigenvector H^P_m or H^S_m (point != origin)."""
    at0, r, phi, _, _, (ru_r, ru_t, _, _) = _wave_columns(idx, point, material, omega, "H")
    if np.any(at0):
        raise DomainError("H-type wave functions are singular at the origin")
    out = _cartesian(phi, ru_r, ru_t, np.exp(1j * idx.order * phi) / r)
    return out[0] if np.asarray(point).ndim == 1 else out


def cyl_wave_traction(
    idx: ModeIndex,
    point,
    normal,
    material: Material,
    omega: float,
    kind: str = "J",
) -> np.ndarray:
    """Surface traction of a cylindrical eigenvector on an arbitrary boundary.

    Evaluates T u = sigma n in the polar frame for u = J^a_m or H^a_m,
    from the _modal stresses (no finite differences).  The hoop stress
    follows from the trace identity s_rr + s_tt = 2 (lam + mu) div u,
    with r^2 div u = -t^2 Z_m(t) for P and 0 for S.

    Parameters
    ----------
    point, normal : array_like, shape (2,) or (N, 2)
        Evaluation points (away from the origin) and unit normals there.
    kind : 'J' or 'H'
        Entire or outgoing family.
    """
    at0, r, phi, t, z, (_, _, s_rr, s_rt) = _wave_columns(idx, point, material, omega, kind)
    if np.any(at0):
        raise DomainError("traction evaluation requires point != origin")
    div = -t * t * z if idx.mode == "P" else 0.0  # r^2 div u
    s_tt = 2.0 * (material.lam + material.mu) * div - s_rr
    nrm = np.atleast_2d(np.asarray(normal, dtype=float))
    c, s = np.cos(phi), np.sin(phi)
    n_r = nrm[:, 0] * c + nrm[:, 1] * s
    n_t = nrm[:, 1] * c - nrm[:, 0] * s
    tr = _cartesian(
        phi,
        s_rr * n_r + s_rt * n_t,
        s_rt * n_r + s_tt * n_t,
        np.exp(1j * idx.order * phi) / (r * r),
    )
    return tr[0] if np.asarray(point).ndim == 1 else tr


def _single_plane_wave(direction, point, material, omega, mode):
    """Pressure (amp d) or shear (amp d_perp) plane wave and its polarization."""
    d = np.asarray(direction, dtype=float)
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    kappa = material.kappa(omega, mode)
    c = material.c_p if mode == "P" else material.c_s
    v = d if mode == "P" else perp(d)
    amp = np.exp(1j * kappa * (pts @ d)) / (material.rho * c * c)
    return amp, v, kappa


def plane_wave_traction(
    direction, point, normal, material: Material, omega: float, mode: str
) -> np.ndarray:
    """Traction of the single-mode plane wave at points with given normals.

    For u = A v e^{i kappa x.d}:
    T u = i kappa A e^{i kappa x.d} [lam (v.d) n + mu ((d.n) v + (v.n) d)].
    """
    d = np.asarray(direction, dtype=float)
    nrm = np.atleast_2d(np.asarray(normal, dtype=float))
    amp, v, kappa = _single_plane_wave(direction, point, material, omega, mode)
    lam, mu = material.lam, material.mu
    vec = (
        lam * np.dot(v, d) * nrm
        + mu * (nrm @ d)[:, None] * v
        + mu * (nrm @ v)[:, None] * d
    )
    out = 1j * kappa * amp[:, None] * vec
    return out[0] if np.asarray(point).ndim == 1 else out


def plane_wave_mode_field(
    direction, point, material: Material, omega: float, mode: str
) -> np.ndarray:
    """Single-mode plane wave F (mode='P') or G (mode='S')."""
    amp, v, _ = _single_plane_wave(direction, point, material, omega, mode)
    out = amp[:, None] * v
    return out[0] if np.asarray(point).ndim == 1 else out


def _radial_kernels(zp, zs, r, omega, material):
    """Kupradze radial functions from Z_nu(kappa r) at the P and S wavenumbers.

    zp = (Z_0, Z_1) at kappa_P r and zs likewise at kappa_S r, with
    Z = H^(1) for the kernels themselves.  Returns (phi, chi) with
    Gamma = phi I + chi rhat rhat^T and the traction triple (a1, a2, a4)
    of T_x Gamma for a unit normal n at x (see _traction_components).

    Every output is linear in the Z values with coefficients rational in
    r, so a linear combination of Hankel and Bessel values maps to the
    same combination of kernels (the Nystrom rule in bie folds its
    quadrature weights into Z this way).
    """
    lam, mu = material.lam, material.mu
    kp, ks = material.kappa_p(omega), material.kappa_s(omega)
    rho_w2 = material.rho * omega * omega
    # g = (i/4) H_0(kappa r): g' = -(i kappa/4) H_1, g'' = -(i kappa^2/4) H_0 - g'/r;
    # phi = g_S/mu + (g_S' - g_P')/(rho w^2 r), chi = (g_S'' - g_P'' - (g_S' - g_P')/r)/(rho w^2)
    gp_p = -0.25j * kp * zp[1]
    gp_s = -0.25j * ks * zs[1]
    dg_over_r = (gp_s - gp_p) / r
    phi = 0.25j * zs[0] / mu + dg_over_r / rho_w2
    chi = (0.25j * (kp * kp * zp[0] - ks * ks * zs[0]) - 2.0 * dg_over_r) / rho_w2
    lam2mu = lam + 2.0 * mu
    chi_r = 2.0 * mu * chi / r
    a1 = lam * gp_p / lam2mu + chi_r
    a2 = gp_s + chi_r
    a4 = 2.0 * mu * gp_p / lam2mu - 2.0 * gp_s - 4.0 * chi_r
    return phi, chi, (a1, a2, a4)


def _hankel_radial(r, omega, material):
    """_radial_kernels at Z = H^(1) from scipy's Hankel routine.

    Off-surface targets (receivers) reach kappa r ~ 1e4,
    where sp.hankel1 keeps full relative accuracy and J + iY does not.
    """
    tp, ts = material.kappa_p(omega) * r, material.kappa_s(omega) * r
    zp = (sp.hankel1(0, tp), sp.hankel1(1, tp))
    zs = (sp.hankel1(0, ts), sp.hankel1(1, ts))
    return _radial_kernels(zp, zs, r, omega, material)


def _gamma_components(phi, chi, rhat):
    """Entries [[G_00, G_01], [G_10, G_11]] of phi I + chi rhat rhat^T."""
    r0, r1 = rhat[..., 0], rhat[..., 1]
    off = chi * r0 * r1
    return ((phi + chi * r0 * r0, off), (off, phi + chi * r1 * r1))


def _traction_components(a, rhat, nrm):
    """Entries of a1 n rhat^T + a2 (rhat n^T + (rhat.n) I) + a4 (rhat.n) rhat rhat^T."""
    a1, a2, a4 = a
    rdn = rhat[..., 0] * nrm[..., 0] + rhat[..., 1] * nrm[..., 1]
    a2_rdn, a4_rdn = a2 * rdn, a4 * rdn
    return tuple(
        tuple(
            a1 * nrm[..., k] * rhat[..., l]
            + a2 * rhat[..., k] * nrm[..., l]
            + a4_rdn * rhat[..., k] * rhat[..., l]
            + (a2_rdn if k == l else 0.0)
            for l in (0, 1)
        )
        for k in (0, 1)
    )


def _gamma_tensor(dv, r, omega, material):
    """Kupradze tensor Gamma^w(x - y), (..., 2, 2), at dv = x - y of length r > 0."""
    phi, chi, _ = _hankel_radial(r, omega, material)
    comp = _gamma_components(phi, chi, dv / r[..., None])
    return np.stack([np.stack(row, axis=-1) for row in comp], axis=-2)

