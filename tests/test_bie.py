"""Boundary grids, singular quadrature and the transmission solver."""

import logging
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg as sla
from scipy import special as sp

from conftest import fd_lame_residual, wave
from escat import bie
from escat.bie import (
    NearBoundaryWarning,
    build_grid,
    single_layer_apply,
    single_layer_matrix,
    solve_transmission,
    traction_of_single_layer,
)
from escat.cloak import _layer_matrices, analytic_disk_esc
from escat.curves import BoundaryCurve, Circle, Ellipse, FourierRadius, Kite, curve_from_dict
from escat.errors import ConfigError, DomainError, ResonanceError
from escat.esc import EscMatrix, compute_esc, verify_optical, verify_symmetries
from escat.wavefields import Material, MaterialPair, _wave_table

OMEGA = 1.0


def _crosses(x):
    """Brute force: does an edge of the closed polygon x properly cross a non-adjacent one?"""
    n = len(x)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            a, b, c, d = x[i], x[(i + 1) % n], x[j], x[(j + 1) % n]
            if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
                return True
    return False


def _unit_circle(n, step=1):
    """Vertices k * step of the regular n-gon, k = 0..n-1 (step 2 of 5: a pentagram)."""
    t = 2 * np.pi * step * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def _star(inner, points):
    """Concave star: radii alternate 1 and inner."""
    return _unit_circle(2 * points) * np.tile([1.0, inner], points)[:, None]


_square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_square_with_midpoints = np.repeat(_square, 2, axis=0)
_square_with_midpoints[1::2] = (_square + np.roll(_square, -1, axis=0)) / 2
# lemniscate of Gerono, sampled so that no vertex sits on the crossing point
_t8 = np.linspace(0.1, 0.1 + 2 * np.pi, 63, endpoint=False)
_figure_eight = np.stack([np.cos(_t8), np.sin(2 * _t8) / 2], axis=-1)


def _polar(r):
    """The closed form r(t) (cos t, sin t) of a star-shaped curve."""
    return lambda t: r(t)[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)


# each shipped curve type with its closed form (README "Curve types")
_CLOSED_FORMS = {
    "circle": (Circle(0.7), lambda t: 0.7 * np.stack([np.cos(t), np.sin(t)], axis=-1)),
    "ellipse": (Ellipse(1.0, 0.3), lambda t: np.stack([np.cos(t), 0.3 * np.sin(t)], axis=-1)),
    "kite": (
        Kite(0.4),
        lambda t: 0.4 * np.stack([np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1),
    ),
    "fourier-cos": (
        FourierRadius(1.0, cos_coeffs=(0.1, 0.05, 0.02)),
        _polar(lambda t: 1.0 + 0.1 * np.cos(t) + 0.05 * np.cos(2 * t) + 0.02 * np.cos(3 * t)),
    ),
    "fourier-sin": (
        FourierRadius(1.2, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1)),
        _polar(lambda t: 1.2 * (1.0 + 0.1 * np.cos(t) + 0.1 * np.sin(2 * t))),
    ),
}


class TestCurves:
    def test_unit_circle_perimeter(self):
        grid = build_grid(Circle(1.0), 64)
        assert abs(grid.weights.sum() - 2 * np.pi) < 1e-13

    def test_ellipse_area_divergence_theorem(self):
        # area = (1/2) oint x . n ds, exact for the ellipse: pi a b
        grid = build_grid(Ellipse(2.0, 1.0), 128)
        area = 0.5 * np.sum(np.einsum("ij,ij->i", grid.nodes, grid.normals) * grid.weights)
        assert abs(area - 2.0 * np.pi) < 1e-10

    def test_kite_normals_outward(self):
        grid = build_grid(Kite(), 128)
        centroid = grid.nodes.mean(axis=0)
        assert np.all(np.einsum("ij,ij->i", grid.nodes - centroid, grid.normals) > 0)

    def test_odd_node_count_rejected(self):
        with pytest.raises(DomainError):
            build_grid(Circle(1.0), 65)
        with pytest.raises(DomainError):
            build_grid(Circle(1.0), 8)

    def test_fourier_radius_curve(self):
        c = FourierRadius(1.0, cos_coeffs=(0.1, 0.05), sin_coeffs=(0.0, 0.02))
        grid = build_grid(c, 96)
        assert grid.jacobians.min() > 0
        d = c.to_dict()
        c2 = curve_from_dict(d)
        assert_allclose(c2.position(grid.t), c.position(grid.t))

    @pytest.mark.parametrize("name", list(_CLOSED_FORMS))
    def test_derivatives_and_closed_form(self, name):
        curve, closed_form = _CLOSED_FORMS[name]
        t = 2 * np.pi * np.arange(64) / 64 + 0.1
        h = 1e-5

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        for f, df in ((curve.position, curve.velocity), (curve.velocity, curve.accel)):
            assert rel((f(t + h) - f(t - h)) / (2 * h), df(t)) < 1e-8
        assert rel(curve.position(t), closed_form(t)) < 1e-14

    def test_curve_missing_parameter_rejected(self):
        with pytest.raises(ConfigError, match="ellipse.*'a'"):
            curve_from_dict({"type": "ellipse", "b": 0.5})

    def test_degenerate_curves_rejected(self):
        with pytest.raises(DomainError):
            FourierRadius(1.0, cos_coeffs=(1.5,))  # does not enclose the origin

    @pytest.mark.parametrize(
        "x, crosses",
        [
            (_square, False),
            (_square_with_midpoints, False),
            (_star(0.4, 5), False),
            (np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), True),
            (_figure_eight, True),
            (_unit_circle(5, 2), True),
        ],
        ids=["square", "collinear-midpoints", "concave-star", "bow-tie", "figure-eight", "pentagram"],
    )
    def test_self_intersection_on_polygons(self, x, crosses):
        assert _crosses(x) is crosses
        assert BoundaryCurve._self_intersects(x) is crosses

    @pytest.mark.parametrize(
        "curve",
        [Circle(1.0), Ellipse(1.0, 0.6), Kite(0.4), FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1))],
        ids=["circle", "ellipse", "kite", "fourier"],
    )
    def test_shipped_curves_are_simple(self, curve):
        # the 256 samples the constructor checks
        x = curve.position(np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
        assert not _crosses(x)
        assert not BoundaryCurve._self_intersects(x)

    def test_concave_star_shaped_curve_accepted(self):
        # r(t) > 0 in polar form: simple, however deep its concave lobes
        c = FourierRadius(1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.6))
        assert c.contains(np.zeros(2))


class TestQuadratureWeights:
    def test_log_weights_exact_on_trig(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        k = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        rw = bie._log_row(n)[np.minimum(k, n - k)]
        for q in (1, 5, 31):
            got = rw @ np.cos(q * t)
            assert np.abs(got + (2 * np.pi / q) * np.cos(q * t)).max() < 1e-12
        assert np.abs(rw @ np.ones(n)).max() < 1e-12

    def test_cot_weights_are_conjugation_operator(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        cw = bie._cot_row(n)[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
        for q in (1, 7):
            assert np.abs(cw @ np.sin(q * t) - np.cos(q * t)).max() < 1e-12
            assert np.abs(cw @ np.cos(q * t) + np.sin(q * t)).max() < 1e-12


def _modal_moments(beta, m, radius, material, omega, n_fine=512):
    tf = 2 * np.pi * np.arange(n_fine) / n_fine
    yf = radius * np.stack([np.cos(tf), np.sin(tf)], axis=-1)
    w = 2 * np.pi * radius / n_fine
    jb, _ = wave(sp.jv, beta, m, yf, material, omega)
    out = {}
    for al in ("P", "S"):
        ja, _ = wave(sp.jv, al, m, yf, material, omega)
        out[al] = w * np.sum(np.conj(ja) * jb)
    return out


class TestSingleLayer:
    def test_zero_density_gives_zero(self, exterior):
        grid = build_grid(Circle(1.0), 32)
        val = single_layer_apply(grid, OMEGA, exterior, np.zeros((32, 2)), np.array([3.0, 0.0]))
        assert np.abs(val).max() == 0.0

    def test_on_surface_trace_matches_modal_identity(self, exterior):
        # S[J-mode trace] on the circle has an exact H-expansion; the
        # discrete on-surface operator must reproduce it (trace
        # continuity across the boundary comes for free)
        for n in (64, 256):
            grid = build_grid(Circle(1.0), n)
            smat = single_layer_matrix(grid, OMEGA, exterior)
            rho_w2 = exterior.rho * OMEGA**2
            for beta, m in (("P", 0), ("S", 2)):
                dens, _ = wave(sp.jv, beta, m, grid.nodes, exterior, OMEGA)
                mom = _modal_moments(beta, m, 1.0, exterior, OMEGA)
                want = (0.25j / rho_w2) * (
                    wave(sp.hankel1, "P", m, grid.nodes, exterior, OMEGA)[0] * mom["P"]
                    + wave(sp.hankel1, "S", m, grid.nodes, exterior, OMEGA)[0] * mom["S"]
                )
                got = (smat @ dens.reshape(-1)).reshape(-1, 2)
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_off_surface_potentials_match_modal_identity(self, exterior):
        # off the circle, S[J-mode trace] and its traction have the same
        # H-expansion as on it: the off-surface twin of the test above,
        # for the field and for the traction on random unit normals
        grid = build_grid(Circle(1.0), 256)
        rho_w2 = exterior.rho * OMEGA**2
        angles = np.array([0.3, 2.0, 4.1])
        targets = np.concatenate(
            [rad * np.stack([np.cos(angles), np.sin(angles)], axis=-1) for rad in (1.5, 3.0)]
        )
        theta = np.random.default_rng(11).uniform(0, 2 * np.pi, len(targets))
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        for beta, m in (("P", 0), ("S", 2), ("P", 3)):
            dens, _ = wave(sp.jv, beta, m, grid.nodes, exterior, OMEGA)
            mom = _modal_moments(beta, m, 1.0, exterior, OMEGA)
            h_p, h_s = (wave(sp.hankel1, al, m, targets, exterior, OMEGA, normals) for al in "PS")
            field, traction = (
                (0.25j / rho_w2) * (h_p[i] * mom["P"] + h_s[i] * mom["S"]) for i in (0, 1)
            )
            got = single_layer_apply(grid, OMEGA, exterior, dens, targets)
            assert np.abs(got - field).max() < 1e-12 * np.abs(field).max()
            got = traction_of_single_layer(grid, OMEGA, exterior, dens, targets, normals)
            assert np.abs(got - traction).max() < 1e-12 * np.abs(traction).max()

    def test_trace_continuity_across_boundary(self, exterior):
        # exterior and interior limits agree with the on-surface value
        # (evaluation distances stay above the node spacing so the plain
        # quadrature remains valid)
        grid = build_grid(Ellipse(1.0, 0.7), 512)
        rng = np.random.default_rng(1)
        co = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        dens = sum(co[k][None, :] * np.exp(1j * k * grid.t)[:, None] for k in range(3))
        i0 = 22
        x0, n0 = grid.nodes[i0], grid.normals[i0]
        smat = single_layer_matrix(grid, OMEGA, exterior)
        on_val = (smat @ dens.reshape(-1)).reshape(-1, 2)[i0]
        eps = np.array([0.08, 0.04, 0.02])
        outs = np.array([single_layer_apply(grid, OMEGA, exterior, dens, x0 + e * n0) for e in eps])
        ins = np.array([single_layer_apply(grid, OMEGA, exterior, dens, x0 - e * n0) for e in eps])
        lim_out = (outs[2] * 8 - outs[1] * 6 + outs[0]) / 3.0
        lim_in = (ins[2] * 8 - ins[1] * 6 + ins[0]) / 3.0
        scale = np.abs(on_val).max()
        assert np.abs(lim_out - on_val).max() < 2e-3 * scale
        assert np.abs(lim_in - on_val).max() < 2e-3 * scale

    def test_off_surface_field_satisfies_lame(self, exterior):
        grid = build_grid(Kite(0.5), 128)
        rng = np.random.default_rng(2)
        co = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        dens = sum(co[k][None, :] * np.exp(1j * k * grid.t)[:, None] for k in range(3))
        f = lambda p: single_layer_apply(grid, OMEGA, exterior, dens, p)
        x0 = np.array([1.8, 0.9])
        assert fd_lame_residual(f, x0, exterior, OMEGA, h=2e-4) < 1e-5

    def test_near_boundary_warning(self, exterior):
        grid = build_grid(Circle(1.0), 32)
        dens = np.ones((32, 2), dtype=complex)
        with pytest.warns(NearBoundaryWarning):
            single_layer_apply(grid, OMEGA, exterior, dens, np.array([1.01, 0.0]))

    def test_density_stack_equals_single_calls(self, exterior):
        grid = build_grid(Kite(0.5), 64)
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 64, 2)) + 1j * rng.standard_normal((3, 64, 2))
        targets = np.array([[1.8, 0.9], [-2.0, 0.4], [0.1, -3.0], [40.0, 25.0]])
        got = single_layer_apply(grid, OMEGA, exterior, stack, targets)
        assert got.shape == (3, 4, 2)
        one = single_layer_apply(grid, OMEGA, exterior, stack, targets[1])
        assert one.shape == (3, 2)
        for k, dens in enumerate(stack):
            want = single_layer_apply(grid, OMEGA, exterior, dens, targets)
            assert_allclose(got[k], want, rtol=1e-14)
            assert_allclose(one[k], want[1], rtol=1e-14)

    def test_mixed_targets_in_one_call(self, exterior):
        grid = build_grid(Circle(1.0), 32)
        rng = np.random.default_rng(6)
        dens = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
        targets = np.array(
            [[3.0, 0.5], grid.nodes[3], [1.01, 0.0], [0.0, -1.02], grid.nodes[17], [0.2, -0.1]]
        )
        with pytest.warns(NearBoundaryWarning) as caught:
            got = single_layer_apply(grid, OMEGA, exterior, dens, targets)
        assert sum(issubclass(w.category, NearBoundaryWarning) for w in caught) == 1
        on_surface = (single_layer_matrix(grid, OMEGA, exterior) @ dens.reshape(-1)).reshape(-1, 2)
        assert_allclose(got[1], on_surface[3], rtol=1e-14)
        assert_allclose(got[4], on_surface[17], rtol=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearBoundaryWarning)
            for i in (0, 2, 3, 5):
                want = single_layer_apply(grid, OMEGA, exterior, dens, targets[i])
                assert_allclose(got[i], want, rtol=1e-14)

    def test_kernel_reciprocity(self, exterior):
        # Green-kernel blocks: kernel(x_i, x_j) = kernel(x_j, x_i)^T
        # (the log-quadrature weights are symmetric, so the weighted
        # discrete operator inherits the symmetry once the jacobian of the
        # source node is stripped)
        grid = build_grid(Kite(0.5), 48)
        smat = single_layer_matrix(grid, OMEGA, exterior).reshape(48, 2, 48, 2)
        gam = smat / grid.jacobians[None, None, :, None]  # strip the jacobian
        i, j = 7, 29
        assert np.abs(gam[i, :, j] - gam[j, :, i].T).max() < 1e-12 * np.abs(gam[i, :, j]).max()


class TestTractionOperator:
    def test_exterior_limit_matches_modal_identity(self, exterior):
        for n in (64, 256):
            grid = build_grid(Circle(1.0), n)
            kmat = bie._layer_matrix(grid, OMEGA, exterior, 1)
            rho_w2 = exterior.rho * OMEGA**2
            for beta, m in (("P", 1), ("S", 3)):
                dens, _ = wave(sp.jv, beta, m, grid.nodes, exterior, OMEGA)
                mom = _modal_moments(beta, m, 1.0, exterior, OMEGA)
                want = (0.25j / rho_w2) * (
                    wave(sp.hankel1, "P", m, grid.nodes, exterior, OMEGA, grid.normals)[1] * mom["P"]
                    + wave(sp.hankel1, "S", m, grid.nodes, exterior, OMEGA, grid.normals)[1] * mom["S"]
                )
                got = (kmat @ dens.reshape(-1)).reshape(-1, 2) - 0.5 * dens
                assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    def test_jump_relation(self, exterior):
        # (dS/dnu)|+ - (dS/dnu)|- = -density for this kernel orientation
        grid = build_grid(Kite(0.4), 1024)
        rng = np.random.default_rng(7)
        co = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        dens = sum(co[k][None, :] * np.exp(1j * k * grid.t)[:, None] for k in range(4))
        i0 = 37
        x0, n0 = grid.nodes[i0], grid.normals[i0]
        eps = np.array([0.04, 0.02, 0.01])
        outs = np.array([traction_of_single_layer(grid, OMEGA, exterior, dens, x0 + e * n0, n0) for e in eps])
        ins = np.array([traction_of_single_layer(grid, OMEGA, exterior, dens, x0 - e * n0, n0) for e in eps])
        lim_out = (outs[2] * 8 - outs[1] * 6 + outs[0]) / 3.0
        lim_in = (ins[2] * 8 - ins[1] * 6 + ins[0]) / 3.0
        assert np.abs((lim_out - lim_in) + dens[i0]).max() < 1e-3 * np.abs(dens[i0]).max()
        # one-sided constants: exterior -1/2, interior +1/2 against K*
        kmat = bie._layer_matrix(grid, OMEGA, exterior, 1)
        kd = (kmat @ dens.reshape(-1)).reshape(-1, 2)[i0]
        assert np.abs(lim_out - (kd - 0.5 * dens[i0])).max() < 1e-3 * np.abs(dens[i0]).max()
        assert np.abs(lim_in - (kd + 0.5 * dens[i0])).max() < 1e-3 * np.abs(dens[i0]).max()

    def test_target_on_a_node_raises(self, exterior):
        # the traction has two one-sided limits at a node; no division by
        # the zero distance is made on the way to the error
        grid = build_grid(Kite(0.4), 64)
        dens = np.ones((64, 2), dtype=complex)
        targets = np.array([[3.0, 0.5], grid.nodes[3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target, normal in (
                (grid.nodes[3], grid.normals[3]),
                (targets, grid.normals[[0, 3]]),
            ):
                with pytest.raises(DomainError, match="node"):
                    traction_of_single_layer(grid, OMEGA, exterior, dens, target, normal)

    def test_near_boundary_warning(self, exterior):
        # 0.01 along the normal of a node, about half the node spacing
        grid = build_grid(Kite(0.4), 64)
        dens = np.ones((64, 2), dtype=complex)
        x0, n0 = grid.nodes[3], grid.normals[3]
        with pytest.warns(NearBoundaryWarning):
            traction_of_single_layer(grid, OMEGA, exterior, dens, x0 + 0.01 * n0, n0)


class TestTransmission:
    def test_zero_incident_gives_zero_densities(self, pair):
        grid = build_grid(Circle(1.0), 64)
        zero = np.zeros((1, 64, 2))
        dens = solve_transmission(grid, pair, OMEGA, zero, zero)
        assert np.abs(dens.phi[0]).max() < 1e-14
        assert np.abs(dens.psi[0]).max() < 1e-14

    def test_zero_frequency_rejected(self, pair):
        grid = build_grid(Circle(1.0), 32)
        with pytest.raises(DomainError):
            bie._eigenblocks(grid, pair, 0.0, bie._identity_basis(32))

    def test_disk_scattered_field_matches_analytic(self, pair, exterior):
        # incident JP_1 on the unit disk: the scattered field at |x| = 3
        # must match the transfer-matrix H-expansion
        grid = build_grid(Circle(1.0), 128)
        tr, tc = wave(sp.jv, "P", 1, grid.nodes, exterior, OMEGA, grid.normals)
        dens = solve_transmission(grid, pair, OMEGA, tr[None], tc[None])
        x = np.array([3.0, 0.4])
        got = single_layer_apply(grid, OMEGA, exterior, dens.psi[0], x)
        w1 = analytic_disk_esc(pair, 1.0, OMEGA, 1)
        # u_sc = (i/(4 rho w^2)) sum_alpha H^alpha_1 W^{alpha,P}
        rho_w2 = exterior.rho * OMEGA**2
        want = (0.25j / rho_w2) * (
            wave(sp.hankel1, "P", 1, x, exterior, OMEGA)[0] * w1[0, 0]
            + wave(sp.hankel1, "S", 1, x, exterior, OMEGA)[0] * w1[1, 0]
        )
        assert np.abs(got - want).max() < 1e-7 * np.abs(want).max()
        assert dens.residual[0] < 1e-10

    def test_discrete_residual_small(self, pair, exterior):
        grid = build_grid(Circle(1.0), 256)
        # the identity-basis eigenblock is the full system, component-major
        (a,) = bie._eigenblocks(grid, pair, 2.0, bie._identity_basis(256))  # kappa_S * diam = 4
        tr, tc = wave(sp.jv, "P", 1, grid.nodes, exterior, 2.0, grid.normals)
        dens = solve_transmission(grid, pair, 2.0, tr[None], tc[None])
        x = np.concatenate([dens.phi[0].T.reshape(-1), dens.psi[0].T.reshape(-1)])
        rhs = np.concatenate([tr.T.reshape(-1), tc.T.reshape(-1)])
        assert np.linalg.norm(a @ x - rhs) < 1e-10 * np.linalg.norm(rhs)

    def test_near_zero_contrast_scatters_weakly(self, exterior):
        inte = Material(2.0 * (1 + 1e-6), 1.0 * (1 + 1e-6), 1.0)
        grid = build_grid(Circle(1.0), 64)
        tr, tc = wave(sp.jv, "P", 1, grid.nodes, exterior, OMEGA, grid.normals)
        dens = solve_transmission(grid, MaterialPair(exterior, inte), OMEGA, tr[None], tc[None])
        u_sc = single_layer_apply(grid, OMEGA, exterior, dens.psi[0], np.array([2.0, 0.0]))
        assert np.abs(u_sc).max() < 1e-4 * np.abs(tr).max()

    def test_self_convergence_superalgebraic(self, pair, exterior):
        # doubling the node count reduces the error superalgebraically;
        # probe at kappa_S diam ~ 33 on the kite where the 64-node grid
        # is under-resolved (beyond ~10 points per wavelength the
        # quadrature truncation already sits below roundoff)
        omega = 10.0
        kite = Kite(1.0)

        def esc_entry(n):
            grid = build_grid(kite, n)
            tr, tc = wave(sp.jv, "P", 1, grid.nodes, exterior, omega, grid.normals)
            dens = solve_transmission(grid, pair, omega, tr[None], tc[None])
            w = grid.weights[:, None]
            proj = np.conj(tr)
            return np.sum(w * proj * dens.psi[0])

        ref = esc_entry(384)
        err_coarse = abs(esc_entry(64) - ref)
        err_fine = abs(esc_entry(128) - ref)
        assert err_coarse / max(err_fine, 1e-16) > 1e2

    def test_radiation_decay_exponent(self, pair, exterior):
        grid = build_grid(Circle(1.0), 96)
        tr, tc = wave(sp.jv, "P", 0, grid.nodes, exterior, OMEGA, grid.normals)
        dens = solve_transmission(grid, pair, OMEGA, tr[None], tc[None])
        wavelength = 2 * np.pi / exterior.kappa_s(OMEGA)
        radii = np.array([1e2, 1e3]) * wavelength
        mags = [
            np.abs(single_layer_apply(grid, OMEGA, exterior, dens.psi[0], np.array([r, 0.0]))).max()
            for r in radii
        ]
        slope = np.log(mags[1] / mags[0]) / np.log(radii[1] / radii[0])
        assert abs(slope + 0.5) < 0.02 * 0.5 + 0.01

    def test_interior_field_matches_modal_solution(self, pair, exterior, interior):
        # u_tot inside the disk = St[phi] must reproduce the interior
        # J-expansion of the mode-matching solution
        grid = build_grid(Circle(1.0), 128)
        tr, tc = wave(sp.jv, "S", 1, grid.nodes, exterior, OMEGA, grid.normals)
        dens = solve_transmission(grid, pair, OMEGA, tr[None], tc[None])
        # interior coefficients from the 4x4 interface system
        m_out = _layer_matrices(1, [1.0], [exterior], OMEGA)[0]
        m_in = _layer_matrices(1, [1.0], [interior], OMEGA)[0]
        lhs = np.empty((4, 4), dtype=complex)
        lhs[:, :2] = m_in[:, :2]
        lhs[:, 2:] = -m_out[:, 2:]
        sol = np.linalg.solve(lhs, m_out[:, :2] @ np.array([0.0, 1.0]))  # S incidence
        b = sol[:2]
        x_in = np.array([0.3, 0.2])
        u_in = single_layer_apply(grid, OMEGA, interior, dens.phi[0], x_in)
        want = (
            b[0] * wave(sp.jv, "P", 1, x_in, interior, OMEGA)[0]
            + b[1] * wave(sp.jv, "S", 1, x_in, interior, OMEGA)[0]
        )
        assert np.abs(u_in - want).max() < 1e-8 * np.abs(want).max()

    def test_resonance_guard(self, resonance):
        grid, pair, omega = resonance
        zero = np.zeros((1, grid.n_nodes, 2))
        with pytest.raises(ResonanceError):
            solve_transmission(grid, pair, omega, zero, zero)


@pytest.fixture(scope="module")
def resonance(exterior):
    """Grid, pair and an omega that the resonance guard rejects.

    omega^2 rho_1 at an interior Dirichlet eigenvalue: for the unit disk
    with interior c_S = 1 the first torsional eigenfrequency is the first
    zero of J_1; bisect the condition number peak.
    """
    pair = MaterialPair(exterior, Material(4.0, 2.0, 2.0))
    grid = build_grid(Circle(1.0), 64)
    from scipy.special import jn_zeros

    w_star = jn_zeros(1, 1)[0]  # 3.8317...
    zero = np.zeros((1, 64, 2))

    def cond_at(w):
        try:
            return solve_transmission(grid, pair, w, zero, zero).condition_estimate
        except ResonanceError:
            return np.inf

    lo, hi = w_star - 1e-3, w_star + 1e-3
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cond_at(mid) == np.inf:
            return grid, pair, mid
        # move toward the larger-condition side
        if cond_at(mid - 1e-7) > cond_at(mid + 1e-7):
            hi = mid
        else:
            lo = mid
    pytest.fail("condition number never exceeded the resonance guard")


def _unsplit_esc(curve, pair, omega, K, n):
    """W from the full (4n)^2 system and a dense solve, projected as compute_esc does."""
    ext = pair.exterior
    grid = build_grid(curve, n)
    traces, tractions = _wave_table(sp.jv, grid.nodes, grid.normals, ext, omega, K)
    # the identity-basis eigenblock: rows (equation, k, i), columns (density, c, j)
    (a,) = bie._eigenblocks(grid, pair, omega, bie._identity_basis(n))
    rhs = np.concatenate([v.transpose(0, 2, 1).reshape(len(traces), -1) for v in (traces, tractions)], 1)
    x = sla.solve(a, rhs.T)
    psi = x[2 * n :].T.reshape(-1, 2, n).transpose(0, 2, 1)
    jconj = np.conj(traces) * grid.weights[:, None]  # conj(J^a_n), same (a, n) order
    w = np.einsum("aic,bic->ba", jconj, psi)  # w[(b, m), (a, n)] = W^{a,b}_{m,n}
    return EscMatrix(w, omega, pair, rho0=ext.rho)


@pytest.fixture(scope="module")
def kite_split_and_unsplit(pair):
    curve, omega, K, n = Kite(0.4), 1.0, 8, 256
    return compute_esc(curve, pair, omega, K=K, n_nodes=n), _unsplit_esc(curve, pair, omega, K, n)


class TestMirrorSplit:
    @pytest.mark.parametrize(
        "curve, symmetric",
        [
            (Circle(1.0), True),
            (Ellipse(1.0, 0.6), True),
            (Kite(0.4), True),
            (FourierRadius(1.0, cos_coeffs=(0.1, 0.05, 0.02)), True),
            (FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1)), False),
            (FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 1e-9)), False),
        ],
    )
    @pytest.mark.parametrize("n", [64, 512])
    def test_mirror_check(self, curve, symmetric, n):
        assert build_grid(curve, n).mirror_symmetric is symmetric

    def test_split_matches_unsplit_kite(self, kite_split_and_unsplit):
        split, unsplit = kite_split_and_unsplit
        g, ref = split.to_global(), unsplit.to_global()
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_split_matches_unsplit_ellipse(self, pair):
        curve, omega, K, n = Ellipse(1.0, 0.6), 1.0, 8, 256
        g = compute_esc(curve, pair, omega, K=K, n_nodes=n).to_global()
        ref = _unsplit_esc(curve, pair, omega, K, n).to_global()
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_unsplit_mirror_parity(self, kite_split_and_unsplit):
        # the split makes parity exact by construction; the unsplit W
        # keeps it as an independent check of the assembly
        _, unsplit = kite_split_and_unsplit
        assert verify_symmetries(unsplit)["mirror"] < 1e-7

    def test_asymmetric_curve_meets_identities(self, pair):
        # a sine term breaks the mirror symmetry: one block, all rows
        curve = FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1))
        # omega = 1 / diameter: kappa_S diam = 1 (c_S = 1)
        esc = compute_esc(curve, pair, 0.4538585049431525, K=8, n_nodes=192)
        rep = verify_symmetries(esc)
        assert rep["reciprocity"] < 1e-7
        assert rep["mirror"] > 1e-3
        assert verify_optical(esc)["residual"] < 1e-5

    def test_solve_many_reports_residual(self, pair, exterior):
        # README scene: every density is checked against the factored blocks
        grid = build_grid(Kite(0.4), 256)
        traces, tractions = _wave_table(sp.jv, grid.nodes, grid.normals, exterior, 1.0, 6)
        dens = solve_transmission(grid, pair, 1.0, traces, tractions)
        k = len(traces)
        assert dens.phi.shape == dens.psi.shape == (k, 256, 2)
        assert dens.residual.shape == dens.stability_ratio.shape == (k,)
        assert dens.residual.max() < 1e-10
        assert np.all((0.0 < dens.stability_ratio) & (dens.stability_ratio < np.inf))
        assert 1.0 <= dens.condition_estimate < bie.COND_LIMIT
        one = solve_transmission(grid, pair, 1.0, traces[3:4], tractions[3:4])
        # one column or a batch: BLAS may order the sums differently (~cond * eps)
        assert_allclose(one.psi[0], dens.psi[3], rtol=0, atol=1e-10 * np.abs(one.psi).max())
        assert one.residual[0] < 1e-10
        assert one.stability_ratio[0] == pytest.approx(dens.stability_ratio[3])

    def test_stacked_solve_is_the_one_column_solves(self, pair, exterior):
        # a sine term: one block, all rows; column i of the batch against
        # column i solved alone
        grid = build_grid(FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1)), 96)
        assert not grid.mirror_symmetric
        traces, tractions = _wave_table(sp.jv, grid.nodes, grid.normals, exterior, 1.0, 3)
        dens = solve_transmission(grid, pair, 1.0, traces, tractions)
        assert dens.phi.shape == dens.psi.shape == (14, 96, 2)
        for i in range(14):
            one = solve_transmission(grid, pair, 1.0, traces[i : i + 1], tractions[i : i + 1])
            for got, want in ((one.phi[0], dens.phi[i]), (one.psi[0], dens.psi[i])):
                assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
            assert one.residual[0] < 1e-10 and dens.residual[i] < 1e-10
            assert one.stability_ratio[0] == pytest.approx(dens.stability_ratio[i], rel=1e-10)


def _dense_basis(basis, spec):
    """V of one eigenblock on one density, (2n x size) in component-major order,
    written out from the definition in bie._MirrorBasis."""
    n = basis.n
    columns = []
    for c, (lo, hi, sign) in enumerate(spec):
        for j in range(lo, hi):
            v = np.zeros((2, n))
            if 1 <= j <= basis.pairs:
                v[c, j], v[c, n - j] = np.sqrt(0.5), sign * np.sqrt(0.5)
            else:
                v[c, j] = 1.0
            columns.append(v.reshape(-1))
    return np.array(columns).T


def _mirrored(a, n):
    """P A P for the reflection P of bie._MirrorBasis on both densities (component-major A)."""
    j = -np.arange(n) % n
    sign = np.array([1.0, -1.0])
    a = a.reshape(2, 2, n, 2, 2, n)[:, :, j][..., j]  # eq, k, node, density, c, node
    return (sign[:, None, None, None, None] * a * sign[:, None]).reshape(4 * n, 4 * n)


def _layout_pairs(basis):
    """(target node, source node) of every entry of a layout array of basis."""
    src = np.concatenate([np.arange(basis.rows), basis.n - np.arange(1, basis.pairs + 1)])
    return np.broadcast_arrays(np.arange(basis.rows), src[:, None])


_CLASS_CURVES = [Kite(0.4), FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1))]


class TestKernelClasses:
    @pytest.mark.parametrize("curve", _CLASS_CURVES, ids=["kite", "asymmetric"])
    def test_partner_pairs_share_every_bit(self, curve, exterior):
        # (j, i) always, and (n-i, n-j), (n-j, n-i) on the mirror grid, read
        # the same class: wherever a partner has a layout entry, it is equal
        grid = build_grid(curve, 64)
        n, basis = grid.n_nodes, bie._mirror_basis(grid)
        p, q, index = bie._distinct_pairs(basis)
        table = bie._kernel_table(*bie._pair_geometry(grid, p, q), n, OMEGA, exterior)
        target, source = _layout_pairs(basis)
        where = np.full((n, n), -1)  # layout position of the pair (i, j), -1 for none
        where[target, source] = np.arange(target.size).reshape(target.shape)
        partners = [(source, target)]
        if basis.pairs:
            partners += [(-target % n, -source % n), (-source % n, -target % n)]
        checked = 0
        for partner in partners:
            pos = where[partner]
            present = pos >= 0
            checked += present.sum()
            for coeff in table:
                gathered = coeff[index]
                assert np.array_equal(gathered.reshape(-1)[pos[present]], gathered[present])
        assert checked > target.size // 2

    @pytest.mark.parametrize("curve", _CLASS_CURVES, ids=["kite", "asymmetric"])
    def test_gathered_kernels_are_direct_evaluations(self, curve, exterior):
        # the class inputs match the entry's own pair to 1e-14 relative; the
        # kernels are the direct evaluation of the entry's own pair, or on
        # the mirror grid of its mirror image, bit for bit (near the diagonal
        # their rounding amplifies the ~1e-15 mirror defect of the kite's
        # nodes to ~1e-13, as it does in the unsplit system's PA - AP)
        grid = build_grid(curve, 64)
        n, basis = grid.n_nodes, bie._mirror_basis(grid)
        p, q, index = bie._distinct_pairs(basis)
        class_r, class_w = bie._pair_geometry(grid, p, q)
        target, source = (a.reshape(-1) for a in _layout_pairs(basis))
        r, w_log = bie._pair_geometry(grid, target, source)
        assert np.all(np.abs(class_r[index].reshape(-1) - r) <= 1e-14 * r)
        assert np.array_equal(class_w[index].reshape(-1), w_log)
        own = bie._kernel_table(r, w_log, n, OMEGA, exterior)
        image = bie._kernel_table(*bie._pair_geometry(grid, -target % n, -source % n), n, OMEGA, exterior)
        off = target != source
        for coeff, want, mirrored in zip(bie._kernel_table(class_r, class_w, n, OMEGA, exterior), own, image):
            got = coeff[index].reshape(-1)
            hit = (got == want) | ((got == mirrored) if basis.pairs else False)
            assert hit[off].all()
            if not basis.pairs:
                assert np.array_equal(got[off], want[off])


class TestEigenblocks:
    def test_blocks_are_projections_of_the_dense_system(self, pair):
        grid = build_grid(Kite(0.4), 64)
        basis = bie._mirror_basis(grid)
        (a,) = bie._eigenblocks(grid, pair, 1.0, bie._identity_basis(grid.n_nodes))
        blocks = bie._eigenblocks(grid, pair, 1.0, basis)
        # the blocks take the rows of nodes 0..n/2 as if PA = AP held exactly;
        # rounding leaves A about 3e-13 from that, and half of it shows in B
        defect = np.linalg.norm(_mirrored(a, grid.n_nodes) - a)
        assert defect < 1e-12 * np.linalg.norm(a)
        assert len(blocks) == 2
        for spec, b in zip(basis.blocks, blocks):
            v = np.kron(np.eye(2), _dense_basis(basis, spec))  # phi and psi alike
            assert_allclose(v.T @ v, np.eye(v.shape[1]), rtol=0, atol=1e-15)
            ref = v.T @ a @ v
            assert np.linalg.norm(b - ref) <= 0.5 * defect + 1e-14 * np.linalg.norm(ref)

    def test_asymmetric_block_is_the_component_major_system(self, pair):
        grid = build_grid(FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1)), 64)
        (b,) = bie._eigenblocks(grid, pair, 1.0, bie._mirror_basis(grid))
        (a,) = bie._eigenblocks(grid, pair, 1.0, bie._identity_basis(grid.n_nodes))
        assert np.array_equal(b, a)


def _reference_solve(grid, pair, omega, traces, tractions):
    """Densities, residuals, stability ratios and condition estimate from
    sla.lu_factor and lu_solve on every eigenblock, all blocks kept."""
    basis = bie._mirror_basis(grid)
    blocks = bie._eigenblocks(grid, pair, omega, basis)
    rhs = np.stack([traces, tractions], axis=1)
    k = len(rhs)
    x = np.zeros(rhs.shape, dtype=complex)
    res2 = np.zeros(k)
    norms, inv_norms = [], []
    for spec, b in zip(basis.blocks, blocks):
        lu, piv = sla.lu_factor(b)
        norms.append(np.linalg.norm(b, 1))
        rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, norms[-1])
        inv_norms.append(1.0 / max(float(rcond) * norms[-1], 1e-300))
        f = bie._project(basis, spec, rhs).reshape(k, -1).T
        y = sla.lu_solve((lu, piv), f)
        res2 += np.linalg.norm(b @ y - f, axis=0) ** 2
        bie._expand(basis, spec, y.T.reshape(k, 2, -1), x)
    residual = np.sqrt(res2) / np.maximum(np.linalg.norm(rhs.reshape(k, -1), axis=1), 1e-300)
    w = grid.weights[:, None]
    l2 = [np.sqrt(np.sum(w * np.abs(v) ** 2, axis=(2, 3))).sum(axis=1) for v in (x, rhs)]
    return x[:, 0], x[:, 1], residual, l2[0] / np.maximum(l2[1], 1e-300), max(norms) * max(inv_norms)


def _logged(caplog, grid, pair, K):
    """Densities of the 2(2K+1) J-waves on grid and the one INFO line of their solve."""
    traces, tractions = _wave_table(sp.jv, grid.nodes, grid.normals, pair.exterior, 1.0, K)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="escat.bie"):
        dens = solve_transmission(grid, pair, 1.0, traces, tractions)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "escat.bie"]
    return dens, line


class TestBlockSolve:
    @pytest.mark.parametrize(
        "curve, n, K", [(Kite(0.4), 256, 6), (_CLASS_CURVES[1], 96, 3)], ids=["kite", "asymmetric"]
    )
    def test_bytes_equal_per_block_reference(self, pair, exterior, curve, n, K):
        grid = build_grid(curve, n)
        rhs = _wave_table(sp.jv, grid.nodes, grid.normals, exterior, 1.0, K)
        dens = solve_transmission(grid, pair, 1.0, *rhs)
        want = _reference_solve(grid, pair, 1.0, *rhs)
        names = ("phi", "psi", "residual", "stability_ratio", "condition_estimate")
        for name, ref in zip(names, want):
            assert np.asarray(getattr(dens, name)).tobytes() == np.asarray(ref).tobytes(), name

    def test_solve_holds_three_blocks(self, pair, exterior):
        # the esc_kite scene: both blocks and one LU copy at a time, and
        # nothing block-sized left once the solve returns
        grid = build_grid(Kite(0.4), 512)
        rhs = _wave_table(sp.jv, grid.nodes, grid.normals, exterior, 1.0, 8)
        solve_transmission(grid, pair, 1.0, *rhs)  # first solve: lazy imports and caches
        block = (2 * 512) ** 2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            dens = solve_transmission(grid, pair, 1.0, *rhs)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 3 * block  # two blocks and one LU copy
        assert left < block / 2
        assert dens.residual.max() < 1e-10

    def test_solve_starts_no_thread(self, pair, exterior):
        before = threading.active_count()
        grid = build_grid(Kite(0.4), 128)
        solve_transmission(grid, pair, 1.0, *_wave_table(sp.jv, grid.nodes, grid.normals, exterior, 1.0, 4))
        assert threading.active_count() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_in_second_block_raises_lu_factor_error(self, pair, monkeypatch, bad):
        # both norms are taken before the first LU: block 0 is not factored
        build = bie._eigenblocks
        factored = []

        def bad_in_block_1(*args):
            blocks = build(*args)
            blocks[1][3, 5] = bad
            return blocks

        monkeypatch.setattr(bie, "_eigenblocks", bad_in_block_1)
        lu_factor = sla.lu_factor
        monkeypatch.setattr(sla, "lu_factor", lambda a, **kw: factored.append(a) or lu_factor(a, **kw))
        zero = np.zeros((1, 64, 2))
        with pytest.raises(ValueError) as got:
            solve_transmission(build_grid(Kite(0.4), 64), pair, 1.0, zero, zero)
        assert factored == []
        monkeypatch.undo()
        with pytest.raises(ValueError) as want:
            sla.lu_factor(np.array([[np.nan]]))
        assert str(got.value) == str(want.value)

    def test_resonance_raised_after_both_blocks(self, resonance, monkeypatch):
        # the guard needs both blocks' estimates, so both are solved before it raises
        grid, pair, omega = resonance
        zero = np.zeros((1, grid.n_nodes, 2))
        cond = _reference_solve(grid, pair, omega, zero, zero)[-1]
        solved = []
        lu_solve = sla.lu_solve
        monkeypatch.setattr(sla, "lu_solve", lambda *a: solved.append(a) or lu_solve(*a))
        with pytest.raises(ResonanceError, match=re.escape(f"(cond ~ {cond:.2e})")):
            solve_transmission(grid, pair, omega, zero, zero)
        assert len(solved) == 2

    def test_asymmetric_grid_logs_one_block(self, pair, caplog):
        curve = FourierRadius(1.0, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.1))
        _, line = _logged(caplog, build_grid(curve, 64), pair, 2)
        assert line.startswith("transmission solve: 1 block(s), condition estimate ")

    def test_info_line(self, pair, caplog):
        dens, line = _logged(caplog, build_grid(Kite(0.4), 64), pair, 2)
        numbers = (dens.condition_estimate, dens.residual.max(), dens.stability_ratio.max())
        assert re.fullmatch(
            re.escape(
                "transmission solve: 2 block(s), condition estimate {:.3e}, max residual {:.3e}, "
                "max stability ratio {:.3e}; ".format(*numbers)
            )
            + r"build \d+\.\d{3} s, factor \d+\.\d{3} s, solve \d+\.\d{3} s",
            line,
        )
