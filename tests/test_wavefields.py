"""Wave bases, the Kupradze tensor and traction coefficient functions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sp

from conftest import fd_lame_residual, fd_traction, wave
from escat.cloak import _layer_matrices
from escat.errors import DomainError
from escat.msr import MsrConfig, assemble_model
from escat.wavefields import (
    Material,
    MaterialPair,
    _gamma_tensor,
    _plane_wave_table,
    _wave_table,
)

OMEGA = 1.3


class TestMaterial:
    def test_wave_speed_ordering(self, exterior):
        assert exterior.c_p > exterior.c_s > 0

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            Material(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            Material(1.0, 1.0, 0.0)

    def test_contrast_condition(self, exterior):
        with pytest.raises(DomainError):
            MaterialPair(exterior, Material(2.0, 1.0, 5.0))  # identical Lame pair
        with pytest.raises(DomainError):
            MaterialPair(exterior, Material(3.0, 0.5, 1.0))  # opposite signs


class TestOrthogonality:
    def test_surface_harmonics(self):
        th = 2 * np.pi * np.arange(512) / 512
        er = np.stack([np.cos(th), np.sin(th)], axis=-1)
        et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        w = 2 * np.pi / 512
        rng = np.random.default_rng(0)
        for n, m in rng.integers(-20, 21, size=(12, 2)):
            pn = np.exp(1j * n * th)[:, None] * er
            pm = np.exp(1j * m * th)[:, None] * er
            sm = np.exp(1j * m * th)[:, None] * et
            pp = w * np.sum(pn * np.conj(pm))
            ps = w * np.sum(pn * np.conj(sm))
            want = 2 * np.pi if n == m else 0.0
            assert abs(pp - want) < 1e-12 * 2 * np.pi
            assert abs(ps) < 1e-12 * 2 * np.pi


class TestCylWaves:
    def test_p_mode_order_zero_is_radial(self, exterior):
        pts = np.array([[0.7, 0.0], [0.0, 1.3], [0.5, 0.5]])
        u, _ = wave(sp.jv, "P", 0, pts, exterior, OMEGA)
        for x, v in zip(pts, u):
            et = np.array([-x[1], x[0]]) / np.hypot(*x)
            assert abs(v @ et) < 1e-14 * np.abs(v).max()

    def test_shear_field_divergence_free(self, exterior):
        x0 = np.array([0.6, 0.35])
        h = 1e-6
        for m in (0, 1, 3):
            f = lambda p: wave(sp.jv, "S", m, p, exterior, OMEGA)[0]
            e = np.eye(2)
            div = (
                (f(x0 + h * e[0]) - f(x0 - h * e[0]))[0]
                + (f(x0 + h * e[1]) - f(x0 - h * e[1]))[1]
            ) / (2 * h)
            scale = max(np.abs(f(x0)).max(), 1e-30) * exterior.kappa_s(OMEGA)
            assert abs(div) < 1e-6 * scale

    def test_pressure_field_curl_free(self, exterior):
        x0 = np.array([0.4, -0.8])
        h = 1e-6
        f = lambda p: wave(sp.jv, "P", 2, p, exterior, OMEGA)[0]
        e = np.eye(2)
        curl = (
            (f(x0 + h * e[0]) - f(x0 - h * e[0]))[1]
            - (f(x0 + h * e[1]) - f(x0 - h * e[1]))[0]
        ) / (2 * h)
        assert abs(curl) < 1e-6 * np.abs(f(x0)).max() * exterior.kappa_p(OMEGA)

    @pytest.mark.parametrize("mode,m", [("P", 0), ("P", 3), ("S", 1), ("S", -2)])
    def test_lame_equation_residual(self, exterior, mode, m):
        # sample where the field is not near a node (the residual is
        # normalized by the local field value)
        rng = np.random.default_rng(abs(m) + 5)
        cands = rng.uniform(0.6, 2.5, size=(6, 2))
        # H-fields steepen toward the origin; sample them farther out
        cands_h = rng.uniform(2.0, 3.5, size=(6, 2))
        fj = lambda p: wave(sp.jv, mode, m, p, exterior, OMEGA)[0]
        fh = lambda p: wave(sp.hankel1, mode, m, p, exterior, OMEGA)[0]
        x0 = max(cands, key=lambda p: np.abs(fj(p)).max())
        x1 = max(cands_h, key=lambda p: np.abs(fh(p)).max())
        wavelength = 2 * np.pi / exterior.kappa(OMEGA, mode)
        h = 1e-4 * wavelength
        assert fd_lame_residual(fj, x0, exterior, OMEGA, h) < 1e-4
        assert fd_lame_residual(fh, x1, exterior, OMEGA, h) < 1e-4

    def test_h_field_far_asymptotics(self, exterior):
        # H^P_n ~ (e^{i k r}/sqrt r) A_n P_n with A_n = (1+i) sqrt(k/pi) e^{-i n pi/2}
        kappa = exterior.kappa_p(OMEGA)
        r = 1e3 * 2 * np.pi / kappa
        th = 0.37
        x = r * np.array([np.cos(th), np.sin(th)])
        for n in (0, 2, 5):
            u, _ = wave(sp.hankel1, "P", n, x, exterior, OMEGA)
            a_inf = (1 + 1j) * np.sqrt(kappa / np.pi) * np.exp(-0.5j * n * np.pi)
            want = (
                np.exp(1j * kappa * r)
                / np.sqrt(r)
                * a_inf
                * np.exp(1j * n * th)
                * np.array([np.cos(th), np.sin(th)])
            )
            assert np.abs(u - want).max() / np.abs(want).max() < 1e-2

    def test_kupradze_radiation_decay(self, exterior):
        # (d/dr - i kappa) H^P_n decays faster than r^{-1/2}
        kappa = exterior.kappa_p(OMEGA)
        vals = []
        for r in (1e2, 1e3):
            x = np.array([r, 0.0])
            h = 1e-4
            f = lambda p: wave(sp.hankel1, "P", 1, p, exterior, OMEGA)[0]
            du = (f(x + [h, 0]) - f(x - [h, 0])) / (2 * h)
            vals.append(np.abs(du - 1j * kappa * f(x)).max())
        slope = np.log(vals[1] / vals[0]) / np.log(10.0)
        assert slope < -1.0  # faster than r^{-1/2} (which has slope -1/2)

    def test_h_requires_nonzero_point(self, exterior):
        # the polar frame is singular at the origin, for the entire waves too
        pts = np.array([[0.5, 0.2], [0.0, 0.0]])
        for z in (sp.jv, sp.hankel1):
            with pytest.raises(DomainError, match="origin"):
                _wave_table(z, pts, pts, exterior, OMEGA, 2)


def _directions(*angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


class TestPlaneWave:
    def test_partial_sum_reproduces_plane_wave(self, exterior):
        # row k of the MSR model's X, times 4 rho0 w^2 / i, holds the
        # J-coefficients of incidence k's P (par rows) and S (perp rows) wave
        K, ns = 30, 61
        cfg = MsrConfig(radius=1e3, n_sources=ns, n_receivers=ns, omega=OMEGA, exterior=exterior)
        coeffs = assemble_model(cfg, K).X * (4.0 * exterior.rho * OMEGA**2 / 1j)
        pts = np.array([[0.5, 0.2], [-1.0, 0.7], [2.0, -3.0]])
        table, _ = _wave_table(sp.jv, pts, pts, exterior, OMEGA, K)
        acc = np.einsum("km,mpc->kpc", coeffs, table)
        direct, _ = _plane_wave_table(cfg.incident_directions(), pts, pts, exterior, OMEGA)
        assert np.abs(acc - direct).max() / np.abs(direct).max() < 1e-8

    def test_field_is_the_closed_form(self, exterior):
        # (1/(rho cP^2)) e^{i kP x.d} d + (1/(rho cS^2)) e^{i kS x.d} d_perp,
        # to rounding: within 2 eps of the size of the two terms per point
        d = np.array([np.cos(0.4), np.sin(0.4)])
        d_perp = np.array([d[1], -d[0]])
        pts = np.array([[0.5, 0.2], [-1.0, 0.7], [2.0, -3.0]])
        rho, cp, cs = exterior.rho, exterior.c_p, exterior.c_s
        up = np.exp(1j * exterior.kappa_p(OMEGA) * pts @ d)[:, None] / (rho * cp**2) * d
        us = np.exp(1j * exterior.kappa_s(OMEGA) * pts @ d)[:, None] / (rho * cs**2) * d_perp
        fields, _ = _plane_wave_table(d[None], pts, pts, exterior, OMEGA)
        got = fields[0] + fields[1]
        size = np.linalg.norm(up, axis=1) + np.linalg.norm(us, axis=1)
        assert np.all(np.abs(got - (up + us)).max(axis=1) <= 2 * np.finfo(float).eps * size)
        one, _ = _plane_wave_table(d[None], pts[1:2], pts[1:2], exterior, OMEGA)
        assert np.array_equal(one[0, 0] + one[1, 0], got[1])

    def test_traction_against_fd(self, exterior):
        # every row, P then S, against the FD traction of its own field and
        # the Navier equation, for directions all round the circle
        dirs = _directions(0.3, 1.9, 3.5, 5.2, np.arctan2(0.8, 0.6))
        x0 = np.array([0.3, -0.2])
        nrm = np.array([0.8, -0.6])
        _, tractions = _plane_wave_table(dirs, x0[None], nrm[None], exterior, OMEGA)
        for row in range(2 * len(dirs)):
            mode = "PS"[row // len(dirs)]
            f = lambda p: _plane_wave_table(dirs, p[None], p[None], exterior, OMEGA)[0][row, 0]
            want = fd_traction(f, x0, nrm, exterior)
            assert np.abs(tractions[row, 0] - want).max() < 1e-8 * np.abs(want).max()
            wavelength = 2 * np.pi / exterior.kappa(OMEGA, mode)
            assert fd_lame_residual(f, x0, exterior, OMEGA, 1e-4 * wavelength) < 1e-4


def kupradze(x, y, material):
    """Gamma^w(x - y) from the solver's Kupradze tensor."""
    dv = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return _gamma_tensor(dv, np.hypot(dv[..., 0], dv[..., 1]), OMEGA, material)


class TestFundamentalSolution:
    def test_symmetry(self, exterior):
        x, y = np.array([0.3, 0.8]), np.array([-0.5, 0.1])
        g1 = kupradze(x, y, exterior)
        g2 = kupradze(y, x, exterior)
        assert np.abs(g1 - g2.T).max() < 1e-12 * np.abs(g1).max()

    def test_multipole_expansion(self, exterior):
        x = np.array([4.0, 0.0]) + np.array([0.0, 0.3])
        y = np.array([0.8, 0.6])
        p = np.array([0.2, -1.1])
        rho_w2 = exterior.rho * OMEGA**2
        # every (mode, order) with n = -25..25: rows of one H and one J table
        h, _ = _wave_table(sp.hankel1, x, x, exterior, OMEGA, 25)
        j, _ = _wave_table(sp.jv, y, y, exterior, OMEGA, 25)
        acc = (0.25j / rho_w2) * np.einsum("ak,a->k", h[:, 0], np.conj(j[:, 0]) @ p)
        direct = kupradze(x, y, exterior) @ p
        assert np.abs(acc - direct).max() / np.abs(direct).max() < 1e-9

    def test_lame_residual_of_columns(self, exterior):
        y = np.array([-0.3, 0.4])
        x0 = np.array([0.9, -0.1])
        wavelength = 2 * np.pi / exterior.kappa_s(OMEGA)
        f = lambda p: kupradze(p, y, exterior)[:, 0]
        assert fd_lame_residual(f, x0, exterior, OMEGA, 1e-4 * wavelength) < 1e-4


def traction_rows(n, r, material):
    """(B, C) rows of M_n(r), r^2 times the modal traction coefficients.

    Columns JP, JS, HP, HS: the J columns hold B_hat, C_hat and the H
    columns B, C, with T Z^a_n = (1/r^2) (B P_n + C S_n) at t = r kappa_a.
    """
    return _layer_matrices(n, [r], [material], OMEGA)[0][2:]


class TestTractionCoeffs:
    def test_order_zero_couplings_vanish(self, exterior):
        b, c = traction_rows(0, 1.3, exterior)
        assert c[2] == 0 and c[0] == 0  # C^P, C_hat^P
        assert b[3] == 0 and b[1] == 0  # B^S, B_hat^S

    def test_shared_coupling_formula(self, exterior):
        # C^P_n(t) = B^S_n(t) exactly: evaluate at radii giving equal
        # arguments t = r kappa for the two modes
        r_p = 0.9
        r_s = r_p * exterior.kappa_p(OMEGA) / exterior.kappa_s(OMEGA)
        for n in (1, 2, 5):
            (_, cp), (bs, _) = traction_rows(n, r_p, exterior), traction_rows(n, r_s, exterior)
            assert cp[2] == bs[3]
            assert cp[0] == bs[1]

    @pytest.mark.parametrize("mode,n", [(m, n) for m in "PS" for n in range(-3, 4)])
    def test_traction_on_circle_matches_field_traction(self, exterior, mode, n):
        r = 1.2
        th = 0.77
        x = r * np.array([np.cos(th), np.sin(th)])
        nrm = x / r
        b, c = traction_rows(n, r, exterior)
        col = "PS".index(mode)
        er, et = nrm, np.array([-np.sin(th), np.cos(th)])
        phase = np.exp(1j * n * th)
        want_h = (b[2 + col] * phase * er + c[2 + col] * phase * et) / r**2
        _, got_h = wave(sp.hankel1, mode, n, x, exterior, OMEGA, nrm)
        assert np.abs(got_h - want_h).max() < 1e-11 * np.abs(want_h).max()
        want_j = (b[col] * phase * er + c[col] * phase * et) / r**2
        _, got_j = wave(sp.jv, mode, n, x, exterior, OMEGA, nrm)
        assert np.abs(got_j - want_j).max() < 1e-11 * max(np.abs(want_j).max(), 1e-14)

    @pytest.mark.parametrize("n", [-3, 0, 2, 5])
    @pytest.mark.parametrize("z", [sp.jv, sp.hankel1], ids=["J", "H"])
    @pytest.mark.parametrize("mode", ["P", "S"])
    def test_traction_matches_finite_differences(self, exterior, mode, z, n):
        # the normal is turned off e_r, so the hoop stress s_tt enters
        r, th = 1.1, 1.9
        x = r * np.array([np.cos(th), np.sin(th)])
        nrm = np.array([np.cos(th + 0.6), np.sin(th + 0.6)])
        f = lambda p: wave(z, mode, n, p, exterior, OMEGA)[0]
        want = fd_traction(f, x, nrm, exterior)
        _, got = wave(z, mode, n, x, exterior, OMEGA, nrm)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-5

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_traction_rejects_nonpositive_omega(self, exterior, omega):
        x = np.array([1.0, 0.5])
        with pytest.raises(DomainError):
            _wave_table(sp.jv, x, x / np.hypot(*x), exterior, omega, 1)

    def test_small_argument_slope(self, exterior):
        # B^P_n(t) ~ t^{-n}: log-log slope -n over t in [1e-4, 1e-3]
        for n in (1, 2, 4):
            rads = np.geomspace(1e-4, 1e-3, 5) / exterior.kappa_p(OMEGA)
            vals = [abs(traction_rows(n, r, exterior)[0, 2]) for r in rads]
            slope = np.polyfit(np.log(rads), np.log(vals), 1)[0]
            assert abs(slope + n) < 0.05


def test_perp_convention(exterior):
    # the S wave of d is polarized along d_perp = (d2, -d1)
    fields, _ = _plane_wave_table(np.eye(2), np.zeros((1, 2)), np.zeros((1, 2)), exterior, OMEGA)
    rho_cs2 = exterior.rho * exterior.c_s**2
    assert_allclose(fields[2:, 0] * rho_cs2, [[0.0, -1.0], [1.0, 0.0]])
