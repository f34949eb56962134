"""Wave bases, the Kupradze tensor and traction coefficient functions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import fd_lame_residual, fd_traction
from escat.cloak import _layer_matrices
from escat.errors import DomainError
from escat.msr import MsrConfig, assemble_model
from escat.wavefields import (
    Material,
    MaterialPair,
    ModeIndex,
    _gamma_tensor,
    cyl_wave_H,
    cyl_wave_J,
    cyl_wave_traction,
    perp,
    plane_wave_mode_field,
    plane_wave_traction,
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
        u = cyl_wave_J(ModeIndex("P", 0), pts, exterior, OMEGA)
        for x, v in zip(pts, u):
            et = np.array([-x[1], x[0]]) / np.hypot(*x)
            assert abs(v @ et) < 1e-14 * np.abs(v).max()

    def test_shear_field_divergence_free(self, exterior):
        x0 = np.array([0.6, 0.35])
        h = 1e-6
        for m in (0, 1, 3):
            f = lambda p: cyl_wave_J(ModeIndex("S", m), p, exterior, OMEGA)
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
        f = lambda p: cyl_wave_J(ModeIndex("P", 2), p, exterior, OMEGA)
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
        fj = lambda p: cyl_wave_J(ModeIndex(mode, m), p, exterior, OMEGA)
        fh = lambda p: cyl_wave_H(ModeIndex(mode, m), p, exterior, OMEGA)
        x0 = max(cands, key=lambda p: np.abs(fj(p)).max())
        x1 = max(cands_h, key=lambda p: np.abs(fh(p)).max())
        wavelength = 2 * np.pi / exterior.kappa(OMEGA, mode)
        h = 1e-4 * wavelength
        assert fd_lame_residual(fj, x0, exterior, OMEGA, h) < 1e-4
        assert fd_lame_residual(fh, x1, exterior, OMEGA, h) < 1e-4

    def test_entire_field_at_origin(self, exterior):
        org = np.zeros(2)
        assert np.abs(cyl_wave_J(ModeIndex("P", 0), org, exterior, OMEGA)).max() < 1e-14
        assert np.abs(cyl_wave_J(ModeIndex("P", 2), org, exterior, OMEGA)).max() < 1e-14
        v = cyl_wave_J(ModeIndex("P", 1), org, exterior, OMEGA)
        assert_allclose(v, 0.5 * exterior.kappa_p(OMEGA) * np.array([1.0, 1j]), rtol=1e-12)
        # continuity: series limit matches the polar formula nearby
        near = cyl_wave_J(ModeIndex("P", 1), np.array([1e-9, 0.0]), exterior, OMEGA)
        assert_allclose(near, v, rtol=1e-6)

    def test_h_field_far_asymptotics(self, exterior):
        # H^P_n ~ (e^{i k r}/sqrt r) A_n P_n with A_n = (1+i) sqrt(k/pi) e^{-i n pi/2}
        kappa = exterior.kappa_p(OMEGA)
        r = 1e3 * 2 * np.pi / kappa
        th = 0.37
        x = r * np.array([np.cos(th), np.sin(th)])
        for n in (0, 2, 5):
            u = cyl_wave_H(ModeIndex("P", n), x, exterior, OMEGA)
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
            f = lambda p: cyl_wave_H(ModeIndex("P", 1), p, exterior, OMEGA)
            du = (f(x + [h, 0]) - f(x - [h, 0])) / (2 * h)
            vals.append(np.abs(du - 1j * kappa * f(x)).max())
        slope = np.log(vals[1] / vals[0]) / np.log(10.0)
        assert slope < -1.0  # faster than r^{-1/2} (which has slope -1/2)

    def test_h_requires_nonzero_point(self, exterior):
        with pytest.raises(DomainError):
            cyl_wave_H(ModeIndex("P", 0), np.zeros(2), exterior, OMEGA)


class TestPlaneWave:
    def test_partial_sum_reproduces_plane_wave(self, exterior):
        # row k of the MSR model's X, times 4 rho0 w^2 / i, holds the
        # J-coefficients of incidence k's P (par rows) and S (perp rows) wave
        K, ns = 30, 61
        cfg = MsrConfig(radius=1e3, n_sources=ns, n_receivers=ns, omega=OMEGA, exterior=exterior)
        coeffs = assemble_model(cfg, K).X * (4.0 * exterior.rho * OMEGA**2 / 1j)
        pts = np.array([[0.5, 0.2], [-1.0, 0.7], [2.0, -3.0]])
        for ib, mode in enumerate("PS"):
            basis = np.array(
                [cyl_wave_J(ModeIndex(mode, m), pts, exterior, OMEGA) for m in range(-K, K + 1)]
            )
            rows = coeffs[ib * ns : (ib + 1) * ns, ib * (2 * K + 1) : (ib + 1) * (2 * K + 1)]
            acc = np.einsum("km,mpc->kpc", rows, basis)
            direct = np.array(
                [plane_wave_mode_field(d, pts, exterior, OMEGA, mode)
                 for d in cfg.incident_directions()]
            )
            assert np.abs(acc - direct).max() / np.abs(direct).max() < 1e-8

    def test_field_is_the_closed_form(self, exterior):
        # (1/(rho cP^2)) e^{i kP x.d} d + (1/(rho cS^2)) e^{i kS x.d} d_perp,
        # to rounding: within 2 eps of the size of the two terms per point
        d = np.array([np.cos(0.4), np.sin(0.4)])
        pts = np.array([[0.5, 0.2], [-1.0, 0.7], [2.0, -3.0]])
        rho, cp, cs = exterior.rho, exterior.c_p, exterior.c_s
        up = np.exp(1j * exterior.kappa_p(OMEGA) * pts @ d)[:, None] / (rho * cp**2) * d
        us = np.exp(1j * exterior.kappa_s(OMEGA) * pts @ d)[:, None] / (rho * cs**2) * perp(d)
        got = plane_wave_mode_field(d, pts, exterior, OMEGA, "P") + \
            plane_wave_mode_field(d, pts, exterior, OMEGA, "S")
        size = np.linalg.norm(up, axis=1) + np.linalg.norm(us, axis=1)
        assert np.all(np.abs(got - (up + us)).max(axis=1) <= 2 * np.finfo(float).eps * size)
        one = plane_wave_mode_field(d, pts[1], exterior, OMEGA, "P") + \
            plane_wave_mode_field(d, pts[1], exterior, OMEGA, "S")
        assert np.array_equal(one, got[1])

    def test_traction_against_fd(self, exterior):
        d = np.array([0.6, 0.8])
        x0 = np.array([0.3, -0.2])
        nrm = np.array([0.8, -0.6])
        for mode in ("P", "S"):
            f = lambda p: plane_wave_mode_field(d, p, exterior, OMEGA, mode)
            want = fd_traction(f, x0, nrm, exterior)
            got = plane_wave_traction(d, x0, nrm, exterior, OMEGA, mode)
            assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()


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
        acc = np.zeros(2, dtype=complex)
        for n in range(-25, 26):
            for mode in ("P", "S"):
                idx = ModeIndex(mode, n)
                acc += (
                    0.25j
                    / rho_w2
                    * cyl_wave_H(idx, x, exterior, OMEGA)
                    * np.vdot(cyl_wave_J(idx, y, exterior, OMEGA), p)
                )
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
        got_h = cyl_wave_traction(ModeIndex(mode, n), x, nrm, exterior, OMEGA, "H")
        assert np.abs(got_h - want_h).max() < 1e-11 * np.abs(want_h).max()
        want_j = (b[col] * phase * er + c[col] * phase * et) / r**2
        got_j = cyl_wave_traction(ModeIndex(mode, n), x, nrm, exterior, OMEGA, "J")
        assert np.abs(got_j - want_j).max() < 1e-11 * max(np.abs(want_j).max(), 1e-14)

    @pytest.mark.parametrize("n", [-3, 0, 2, 5])
    @pytest.mark.parametrize("kind", ["J", "H"])
    @pytest.mark.parametrize("mode", ["P", "S"])
    def test_traction_matches_finite_differences(self, exterior, mode, kind, n):
        # the normal is turned off e_r, so the hoop stress s_tt enters
        r, th = 1.1, 1.9
        x = r * np.array([np.cos(th), np.sin(th)])
        nrm = np.array([np.cos(th + 0.6), np.sin(th + 0.6)])
        wave = cyl_wave_J if kind == "J" else cyl_wave_H
        f = lambda p: wave(ModeIndex(mode, n), p, exterior, OMEGA)
        want = fd_traction(f, x, nrm, exterior)
        got = cyl_wave_traction(ModeIndex(mode, n), x, nrm, exterior, OMEGA, kind)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-5

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_traction_rejects_nonpositive_omega(self, exterior, omega):
        x = np.array([1.0, 0.5])
        with pytest.raises(DomainError):
            cyl_wave_traction(ModeIndex("P", 1), x, x / np.hypot(*x), exterior, omega)

    def test_traction_rejects_unknown_kind(self, exterior):
        x = np.array([1.0, 0.5])
        with pytest.raises(DomainError, match="kind"):
            cyl_wave_traction(ModeIndex("S", 1), x, x / np.hypot(*x), exterior, OMEGA, "Y")

    def test_small_argument_slope(self, exterior):
        # B^P_n(t) ~ t^{-n}: log-log slope -n over t in [1e-4, 1e-3]
        for n in (1, 2, 4):
            rads = np.geomspace(1e-4, 1e-3, 5) / exterior.kappa_p(OMEGA)
            vals = [abs(traction_rows(n, r, exterior)[0, 2]) for r in rads]
            slope = np.polyfit(np.log(rads), np.log(vals), 1)[0]
            assert abs(slope + n) < 0.05


def test_perp_convention():
    assert_allclose(perp(np.array([1.0, 0.0])), [0.0, -1.0])
    assert_allclose(perp(np.array([0.0, 1.0])), [1.0, 0.0])
