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
from .specialfun import _fold_orders

__all__ = ["Material", "MaterialPair"]


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


def _modal(mode: str, n, t, lam: float, mu: float, z, zp):
    """(r u_r, r u_t, r^2 s_rr, r^2 s_rt) of the order-n P or S wave; z = Z_n(t).

    The phase e^{inf} is stripped; the tuple is one column of M_n(r).  n
    is an int, or an array of orders broadcast against z's order axis.
    The P-mode shear stress and the S-mode radial stress are the same
    function of (n, t, mu); it is written once.
    """
    coupling = 2j * mu * n * (t * zp - z)
    if mode == "P":
        s_rr = -2.0 * mu * t * zp + (2.0 * mu * n * n - (lam + 2.0 * mu) * t * t) * z
        return t * zp, 1j * n * z, s_rr, coupling
    s_rt = 2.0 * mu * t * zp + (mu * t * t - 2.0 * mu * n * n) * z
    return 1j * n * z, -t * zp, coupling, s_rt


def _cartesian(c, s, v_r, v_t, scale):
    """Cartesian components of (v_r e_r + v_t e_t) * scale, with (c, s) = (cos f, sin f)."""
    return np.stack([(v_r * c - v_t * s) * scale, (v_r * s + v_t * c) * scale], axis=-1)


def _wave_table(z, points, normals, material: Material, omega: float, K: int):
    """Every Z^a_n and its traction at points, a = P then S and n = -K..K.

    z is sp.jv for the entire waves J^a_n or sp.hankel1 for the outgoing
    H^a_n.  Returns two (2 (2K+1), N, 2) arrays in that mode order: the
    Cartesian fields and the tractions T u = sigma n on the unit normals.
    One z call per mode serves every order (_fold_orders), and _modal
    runs once on the order axis.  The hoop stress follows from the trace
    identity s_rr + s_tt = 2 (lam + mu) div u, with r^2 div u = -t^2 Z_n(t)
    for P and 0 for S.  Points must be off the origin, where the polar
    frame is singular.
    """
    if omega <= 0:
        raise DomainError("omega must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r, phi = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
    if np.any(r < 1e-14):
        raise DomainError("cylindrical waves are evaluated off the origin")
    nrm = np.atleast_2d(np.asarray(normals, dtype=float))
    c, s = np.cos(phi), np.sin(phi)
    n_r = nrm[:, 0] * c + nrm[:, 1] * s
    n_t = nrm[:, 1] * c - nrm[:, 0] * s
    n = np.arange(-K, K + 1)[:, None]
    phase = np.exp(1j * n * phi)
    u_scale, t_scale = phase / r, phase / (r * r)
    fields, tractions = [], []
    for mode in ("P", "S"):
        t = material.kappa(omega, mode) * r
        zn, zp = _fold_orders(z, K, t)
        ru_r, ru_t, s_rr, s_rt = _modal(mode, n, t, material.lam, material.mu, zn, zp)
        div = -t * t * zn if mode == "P" else 0.0  # r^2 div u
        s_tt = 2.0 * (material.lam + material.mu) * div - s_rr
        fields.append(_cartesian(c, s, ru_r, ru_t, u_scale))
        tractions.append(_cartesian(c, s, s_rr * n_r + s_rt * n_t, s_rt * n_r + s_tt * n_t, t_scale))
    return np.concatenate(fields), np.concatenate(tractions)


def _plane_wave_table(directions, points, normals, material: Material, omega: float):
    """Every P and then every S plane wave of the directions d, and its traction.

    u = A v e^{i kappa x.d} with A = 1 / (rho c^2), and v = d for P or
    v = d_perp = (d2, -d1) for S; on the unit normal n its traction is
    T u = i kappa A e^{i kappa x.d} [lam (v.d) n + mu ((d.n) v + (v.n) d)].
    Returns two (2 D, N, 2) arrays laid out like _wave_table's: the fields
    and the tractions, rows P for each direction, then S.  Each product
    with d or v is one (N, 2) @ (2, 1) matmul per direction, which gives
    every direction the bits of its own points @ d.
    """
    d = np.asarray(directions, dtype=float)
    pts, nrm = np.asarray(points, dtype=float), np.asarray(normals, dtype=float)
    col = d[:, :, None]
    x_d = np.matmul(pts, col)  # (D, N, 1)
    mu_n_d = material.mu * np.matmul(nrm, col)
    fields = np.empty((2, len(d), len(pts), 2), dtype=complex)
    tractions = np.empty_like(fields)
    for i, (mode, v) in enumerate((("P", d), ("S", np.stack([d[:, 1], -d[:, 0]], axis=-1)))):
        kappa, c = material.kappa(omega, mode), material.c_p if mode == "P" else material.c_s
        amp = np.exp(1j * kappa * x_d) / (material.rho * c * c)
        v3 = v[:, None, :]
        np.multiply(amp, v3, out=fields[i])
        vec = material.lam * np.matmul(v3, col) * nrm + mu_n_d * v3
        vec += material.mu * np.matmul(nrm, v[:, :, None]) * d[:, None, :]
        np.multiply(1j * kappa * amp, vec, out=tractions[i])
    return fields.reshape(-1, len(pts), 2), tractions.reshape(-1, len(pts), 2)


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

