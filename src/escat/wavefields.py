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
    "plane_wave_coeffs",
    "plane_wave_traction",
    "fundamental_solution",
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


def _polar(points: np.ndarray):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return pts, r, phi


def _field_from_radial(mode, m, kappa, r, phi, z, zp):
    """Cartesian components of the P or S wave built on Z_m = z, Z_m' = zp.

    P: kappa z' P_m + (im/r) z S_m;  S: (im/r) z P_m - kappa z' S_m.
    """
    er = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    et = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
    phase = np.exp(1j * m * phi)
    radial = kappa * zp * phase
    angular = (1j * m / r) * z * phase
    if mode == "P":
        return radial[:, None] * er + angular[:, None] * et
    return angular[:, None] * er - radial[:, None] * et


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
    if omega <= 0:
        raise DomainError("omega must be positive")
    m = idx.order
    kappa = material.kappa(omega, idx.mode)
    pts, r, phi = _polar(point)
    out = np.zeros((len(r), 2), dtype=complex)
    at0 = r < 1e-14
    if np.any(~at0):
        rr = r[~at0]
        z, zp = _fold(sp.jv, m, kappa * rr)
        out[~at0] = _field_from_radial(idx.mode, m, kappa, rr, phi[~at0], z, zp)
    if np.any(at0):
        # grad[J_m(kr) e^{imf}] at 0: (k/2)(1, i) for m=1, -(k/2)(1, -i) for m=-1
        if m == 1:
            gp = 0.5 * kappa * np.array([1.0, 1j])
        elif m == -1:
            gp = -0.5 * kappa * np.array([1.0, -1j])
        else:
            gp = np.zeros(2, dtype=complex)
        if idx.mode == "P":
            out[at0] = gp
        else:
            out[at0] = np.array([gp[1], -gp[0]])
    return out[0] if np.asarray(point).ndim == 1 else out


def cyl_wave_H(idx: ModeIndex, point, material: Material, omega: float) -> np.ndarray:
    """Outgoing cylindrical eigenvector H^P_m or H^S_m (point != origin)."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    m = idx.order
    kappa = material.kappa(omega, idx.mode)
    pts, r, phi = _polar(point)
    if np.any(r < 1e-14):
        raise DomainError("H-type wave functions are singular at the origin")
    z, zp = _fold(sp.hankel1, m, kappa * r)
    out = _field_from_radial(idx.mode, m, kappa, r, phi, z, zp)
    return out[0] if np.asarray(point).ndim == 1 else out


def _scalar_hessian_terms(m, kappa, r, phi, z, zp):
    """Cartesian Hessian of w(x) = Z_m(kappa r) e^{imf} from radial data.

    Z'' is eliminated with the Bessel ODE: Z'' = -Z'/t + (m^2/t^2 - 1) Z.
    Returns (w, H) with H of shape (N, 2, 2).
    """
    t = kappa * r
    phase = np.exp(1j * m * phi)
    w = z * phase
    w_r = kappa * zp * phase
    zpp = -zp / t + (m * m / (t * t) - 1.0) * z
    w_rr = kappa * kappa * zpp * phase
    w_rf = 1j * m * kappa * zp * phase
    w_ff = -(m * m) * w
    c, s = np.cos(phi), np.sin(phi)
    term_a = w_r / r + w_ff / (r * r)
    term_b = w_rf / r - 1j * m * w / (r * r)  # w_f = i m w
    h_xx = c * c * w_rr + s * s * term_a - 2 * s * c * term_b
    h_yy = s * s * w_rr + c * c * term_a + 2 * s * c * term_b
    h_xy = s * c * (w_rr - term_a) + (c * c - s * s) * term_b
    hess = np.empty(w.shape + (2, 2), dtype=complex)
    hess[..., 0, 0] = h_xx
    hess[..., 0, 1] = h_xy
    hess[..., 1, 0] = h_xy
    hess[..., 1, 1] = h_yy
    return w, hess


def cyl_wave_traction(
    idx: ModeIndex,
    point,
    normal,
    material: Material,
    omega: float,
    kind: str = "J",
) -> np.ndarray:
    """Surface traction of a cylindrical eigenvector on an arbitrary boundary.

    Evaluates T u = lam (div u) n + mu (grad u + grad u^T) n
    analytically (no finite differences) for u = J^a_m or H^a_m.

    Parameters
    ----------
    point, normal : array_like, shape (2,) or (N, 2)
        Evaluation points (away from the origin) and unit normals there.
    kind : 'J' or 'H'
        Entire or outgoing family.
    """
    m = idx.order
    kappa = material.kappa(omega, idx.mode)
    pts, r, phi = _polar(point)
    nrm = np.atleast_2d(np.asarray(normal, dtype=float))
    if np.any(r < 1e-14):
        raise DomainError("traction evaluation requires point != origin")
    z, zp = _fold(sp.jv if kind == "J" else sp.hankel1, m, kappa * r)
    w, hess = _scalar_hessian_terms(m, kappa, r, phi, z, zp)
    lam, mu = material.lam, material.mu
    if idx.mode == "P":
        # u = grad w: div u = Lap w = -kappa^2 w, grad u = Hess w
        tr = -lam * kappa * kappa * w[:, None] * nrm + 2.0 * mu * np.einsum(
            "nij,nj->ni", hess, nrm
        )
    else:
        # u = Curl w = (d2 w, -d1 w): div u = 0,
        # grad u + grad u^T = [[2 w_xy, w_yy - w_xx], [w_yy - w_xx, -2 w_xy]]
        sym = np.empty_like(hess)
        sym[..., 0, 0] = 2.0 * hess[..., 0, 1]
        sym[..., 0, 1] = hess[..., 1, 1] - hess[..., 0, 0]
        sym[..., 1, 0] = sym[..., 0, 1]
        sym[..., 1, 1] = -2.0 * hess[..., 0, 1]
        tr = mu * np.einsum("nij,nj->ni", sym, nrm)
    return tr[0] if np.asarray(point).ndim == 1 else tr


def plane_wave_coeffs(
    direction, omega: float, material: Material, m_max: int
) -> dict[str, np.ndarray]:
    """Multipole coefficients a^b_m of the combined plane wave.

    a^b_m = -(i / (rho c_b^2 kappa_b)) e^{i m (pi/2 - theta_d)} for
    m = -m_max..m_max; |a^b_m| is independent of m.
    """
    d = np.asarray(direction, dtype=float)
    if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-12:
        raise DomainError("direction must be a unit vector")
    theta_d = np.arctan2(d[1], d[0])
    m = np.arange(-m_max, m_max + 1)
    phase = np.exp(1j * m * (np.pi / 2.0 - theta_d))
    out = {}
    for mode, c in (("P", material.c_p), ("S", material.c_s)):
        kappa = omega / c
        out[mode] = -1j / (material.rho * c * c * kappa) * phase
    return out


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


def fundamental_solution(x, y, omega: float, material: Material) -> np.ndarray:
    """Outgoing fundamental solution Gamma^w(x - y) of 2-D elastodynamics.

    Gamma = g_S I / mu + Hess(g_S - g_P) / (rho w^2) with
    g_a(r) = (i/4) H^(1)_0(kappa_a r); the Hessian is evaluated in closed
    form through H_0 and H_1 (no numerical differentiation).

    Accepts broadcastable point arrays; for x of shape (N,2) and y of
    shape (N,2) returns (N,2,2).
    """
    xv = np.atleast_2d(np.asarray(x, dtype=float))
    yv = np.atleast_2d(np.asarray(y, dtype=float))
    dv = xv - yv
    r = np.hypot(dv[..., 0], dv[..., 1])
    if np.any(r < 1e-14):
        raise DomainError("fundamental solution is singular at coincident points")
    out = _gamma_tensor(dv, r, omega, material)
    single = np.asarray(x).ndim == 1 and np.asarray(y).ndim == 1
    return out[0] if single else out


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

    Off-surface targets (receivers, far-field probes) reach kappa r ~ 1e4,
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
    phi, chi, _ = _hankel_radial(r, omega, material)
    comp = _gamma_components(phi, chi, dv / r[..., None])
    return np.stack([np.stack(row, axis=-1) for row in comp], axis=-2)


def _traction_bc(mode: str, n: int, t, lam: float, mu: float, z, zp):
    """Shared closed forms for the (B, C) traction pair; z = Z_n(t).

    The P-mode tangential and S-mode radial coefficients are the same
    function of (n, t, mu); it is implemented once.
    """
    coupling = 2j * mu * n * (t * zp - z)
    if mode == "P":
        b = -2.0 * mu * t * zp + (2.0 * mu * n * n - (lam + 2.0 * mu) * t * t) * z
        c = coupling
    else:
        b = coupling
        c = 2.0 * mu * t * zp + (mu * t * t - 2.0 * mu * n * n) * z
    return b, c

