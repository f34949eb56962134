"""ESC assembly, expansions and the structural identity checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from escat.bie import TransmissionSolver, build_grid, scattered_field
from escat.cloak import analytic_disk_esc
from escat.curves import Circle, Ellipse, FourierRadius, Kite
from escat.errors import DomainError
from escat.esc import (
    EscMatrix,
    compute_esc,
    decay_profile,
    far_field,
    far_field_amplitude_factor,
    gamma_coeffs,
    verify_optical,
    verify_symmetries,
)
from escat.wavefields import (
    Material,
    MaterialPair,
    ModeIndex,
    cyl_wave_H,
    cyl_wave_J,
    cyl_wave_traction,
    plane_wave_coeffs,
    plane_wave_mode_field,
)

OMEGA = 1.0


@pytest.fixture(scope="module")
def disk_esc(pair):
    return compute_esc(Circle(1.0), pair, OMEGA, K=8, n_nodes=160)


@pytest.fixture(scope="module")
def kite_esc(pair):
    return compute_esc(Kite(0.4), pair, OMEGA, K=6, n_nodes=160)


class TestComputeEsc:
    def test_disk_off_diagonal_vanishes(self, disk_esc):
        scale = disk_esc.scale()
        K = disk_esc.K
        worst = 0.0
        for a in "PS":
            for b in "PS":
                blk = disk_esc.block(a, b)
                off = blk - np.diag(np.diag(blk))
                worst = max(worst, np.abs(off).max())
        assert worst < 1e-9 * scale

    def test_disk_diagonal_matches_transfer_matrix(self, disk_esc, pair):
        for m in range(-disk_esc.K, disk_esc.K + 1):
            wa = analytic_disk_esc(pair, 1.0, OMEGA, m)
            for ia, a in enumerate("PS"):
                for ib, b in enumerate("PS"):
                    got = disk_esc.entry(a, b, m, m)
                    want = wa[ia, ib]
                    if abs(want) > 1e-12:
                        assert abs(got - want) / abs(want) < 1e-7
                    else:
                        assert abs(got - want) < 1e-10

    def test_near_zero_contrast_is_small(self, exterior, pair):
        inte = Material(2.0 * (1 + 1e-6), 1.0 * (1 + 1e-6), 1.0)
        esc = compute_esc(Circle(1.0), MaterialPair(exterior, inte), OMEGA, K=2, n_nodes=64)
        ref = compute_esc(Circle(1.0), pair, OMEGA, K=2, n_nodes=64)
        assert esc.scale() < 1e-4 * ref.scale()

    def test_basis_independence(self, pair):
        a = compute_esc(Kite(0.4), pair, OMEGA, K=3, n_nodes=96)
        b = compute_esc(Kite(0.4), pair, OMEGA, K=3, n_nodes=192)
        for key in a.blocks:
            assert np.abs(a.blocks[key] - b.blocks[key]).max() < 1e-8 * a.scale()

    def test_matches_entrywise_projection(self, pair):
        # the per-entry boundary integral that the single product replaced
        curve, K, n = FourierRadius(0.9, cos_coeffs=(0.12,), sin_coeffs=(0.0, 0.05)), 2, 64
        esc = compute_esc(curve, pair, OMEGA, K=K, n_nodes=n)
        grid = build_grid(curve, n)
        solver = TransmissionSolver(grid, pair, OMEGA)
        ext, orders = pair.exterior, range(-K, K + 1)
        w = grid.weights[:, None]
        proj = {
            (a, q): np.conj(cyl_wave_J(ModeIndex(a, q), grid.nodes, ext, OMEGA)) * w
            for a in "PS"
            for q in orders
        }
        for b in "PS":
            for m in orders:
                idx = ModeIndex(b, m)
                psi = solver.solve(
                    cyl_wave_J(idx, grid.nodes, ext, OMEGA),
                    cyl_wave_traction(idx, grid.nodes, grid.normals, ext, OMEGA, "J"),
                ).psi
                for (a, q), p in proj.items():
                    want = np.sum(p * psi)
                    assert abs(esc.entry(a, b, m, q) - want) <= 1e-14 * esc.scale()

    def test_negative_k_rejected(self, pair):
        with pytest.raises(DomainError):
            compute_esc(Circle(1.0), pair, OMEGA, K=-1)

    def test_fourier_radius_curve_satisfies_invariants(self, pair):
        from escat.curves import FourierRadius

        curve = FourierRadius(0.9, cos_coeffs=(0.12,), sin_coeffs=(0.0, 0.05))
        esc = compute_esc(curve, pair, OMEGA, K=3, n_nodes=128)
        rep = verify_symmetries(esc)
        assert rep["reciprocity"] < 1e-8
        assert verify_optical(esc)["residual"] < 1e-4  # K=3 truncation tail

    def test_serialization_round_trip(self, disk_esc):
        d = disk_esc.to_dict()
        back = EscMatrix.from_dict(d)
        for key in disk_esc.blocks:
            assert_allclose(back.blocks[key], disk_esc.blocks[key])


class TestGammaCoeffs:
    def test_zero_esc_gives_zero(self, exterior, pair):
        blocks = {k: np.zeros((5, 5), dtype=complex) for k in ("PP", "SP", "PS", "SS")}
        esc = EscMatrix(K=2, blocks=blocks, omega=OMEGA, pair=pair, rho0=1.0)
        gam = gamma_coeffs(esc, {"P": np.ones(5), "S": np.ones(5)})
        assert np.abs(gam["P"]).max() == 0.0

    def test_single_coefficient_isolates_column(self, disk_esc):
        a = {"P": np.array([1.0]), "S": np.array([0.0])}  # only a^P_0
        gam = gamma_coeffs(disk_esc, a)
        d00 = 1j / (4 * disk_esc.rho0 * OMEGA**2)
        K = disk_esc.K
        assert_allclose(gam["P"], d00 * disk_esc.block("P", "P")[K, :], rtol=1e-13)
        assert_allclose(gam["S"], d00 * disk_esc.block("S", "P")[K, :], rtol=1e-13)

    def test_even_length_table_rejected(self, disk_esc):
        # a table over m = -M..M has odd length; [1, 2] has no centre order
        with pytest.raises(DomainError, match="length 2"):
            gamma_coeffs(disk_esc, {"P": np.array([1.0, 2.0]), "S": np.zeros(3)})

    def test_linearity(self, kite_esc):
        rng = np.random.default_rng(3)
        K = kite_esc.K
        t1 = {b: rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1) for b in "PS"}
        t2 = {b: rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1) for b in "PS"}
        t12 = {b: t1[b] + 2.0 * t2[b] for b in "PS"}
        g1 = gamma_coeffs(kite_esc, t1)
        g2 = gamma_coeffs(kite_esc, t2)
        g12 = gamma_coeffs(kite_esc, t12)
        for b in "PS":
            assert_allclose(g12[b], g1[b] + 2.0 * g2[b], rtol=1e-12)

    def test_expansion_matches_bie_field(self, kite_esc, pair, exterior):
        # plane-wave incidence: sum gamma H must match the solver field
        # at 20 shear wavelengths
        d = np.array([np.cos(0.3), np.sin(0.3)])
        coeffs = plane_wave_coeffs(d, OMEGA, exterior, kite_esc.K)
        gam = gamma_coeffs(kite_esc, coeffs)
        r = 20 * 2 * np.pi / exterior.kappa_s(OMEGA)
        x = r * np.array([np.cos(1.1), np.sin(1.1)])
        acc = np.zeros(2, dtype=complex)
        for i, n in enumerate(range(-kite_esc.K, kite_esc.K + 1)):
            acc += gam["P"][i] * cyl_wave_H(ModeIndex("P", n), x, exterior, OMEGA)
            acc += gam["S"][i] * cyl_wave_H(ModeIndex("S", n), x, exterior, OMEGA)
        grid = build_grid(Kite(0.4), 160)
        solver = TransmissionSolver(grid, pair, OMEGA)
        tr = plane_wave_mode_field(d, grid.nodes, exterior, OMEGA, "P") + \
            plane_wave_mode_field(d, grid.nodes, exterior, OMEGA, "S")
        from escat.wavefields import plane_wave_traction

        tc = plane_wave_traction(d, grid.nodes, grid.normals, exterior, OMEGA, "P") + \
            plane_wave_traction(d, grid.nodes, grid.normals, exterior, OMEGA, "S")
        dens = solver.solve(tr, tc)
        direct = scattered_field(grid, dens.psi, OMEGA, exterior, x)
        assert np.abs(acc - direct).max() / np.abs(direct).max() < 1e-4


class TestFarField:
    def test_polarization(self, disk_esc, exterior):
        coeffs = plane_wave_coeffs(np.array([1.0, 0.0]), OMEGA, exterior, disk_esc.K)
        pat = far_field(disk_esc, coeffs, np.linspace(0, 2 * np.pi, 7))
        for th, up, us in zip(pat.directions, pat.uP, pat.uS):
            er = np.array([np.cos(th), np.sin(th)])
            et = np.array([-np.sin(th), np.cos(th)])
            # parallel to e_r / e_theta by construction (scalar * frame
            # vector); the cross projections vanish to rounding
            assert abs(up @ et) < 1e-15 * max(np.abs(up).max(), 1e-30)
            assert abs(us @ er) < 1e-15 * max(np.abs(us).max(), 1e-30)

    def test_matches_scaled_far_evaluation(self, disk_esc, pair, exterior):
        d = np.array([1.0, 0.0])
        coeffs = plane_wave_coeffs(d, OMEGA, exterior, disk_esc.K)
        th = 0.9
        pat = far_field(disk_esc, coeffs, [th])
        kappa_p = exterior.kappa_p(OMEGA)
        r = 1e3 * 2 * np.pi / kappa_p
        x = r * np.array([np.cos(th), np.sin(th)])
        grid = build_grid(Circle(1.0), 128)
        solver = TransmissionSolver(grid, pair, OMEGA)
        from escat.wavefields import plane_wave_traction

        tr = plane_wave_mode_field(d, grid.nodes, exterior, OMEGA, "P") + \
            plane_wave_mode_field(d, grid.nodes, exterior, OMEGA, "S")
        tc = plane_wave_traction(d, grid.nodes, grid.normals, exterior, OMEGA, "P") + \
            plane_wave_traction(d, grid.nodes, grid.normals, exterior, OMEGA, "S")
        dens = solver.solve(tr, tc)
        u = scattered_field(grid, dens.psi, OMEGA, exterior, x)
        er = np.array([np.cos(th), np.sin(th)])
        extracted = (u @ er) * np.sqrt(r) * np.exp(-1j * kappa_p * r)
        assert abs(extracted - pat.uP[0] @ er) / abs(pat.uP[0] @ er) < 1e-2

    def test_reciprocity_spot_check(self, kite_esc, exterior):
        # u_inf_P(xhat; dhat, P) = u_inf_P(-dhat; -xhat, P)
        th_d, th_x = 0.4, 2.1
        d1 = np.array([np.cos(th_d), np.sin(th_d)])
        d2 = -np.array([np.cos(th_x), np.sin(th_x)])
        c1 = plane_wave_coeffs(d1, OMEGA, exterior, kite_esc.K)
        c2 = plane_wave_coeffs(d2, OMEGA, exterior, kite_esc.K)
        c1 = {"P": c1["P"], "S": np.zeros_like(c1["S"])}
        c2 = {"P": c2["P"], "S": np.zeros_like(c2["S"])}
        p1 = far_field(kite_esc, c1, [th_x])
        p2 = far_field(kite_esc, c2, [th_d + np.pi])
        er1 = np.array([np.cos(th_x), np.sin(th_x)])
        er2 = np.array([np.cos(th_d + np.pi), np.sin(th_d + np.pi)])
        v1 = p1.uP[0] @ er1
        v2 = p2.uP[0] @ er2
        assert abs(v1 - v2) / abs(v1) < 1e-6

    def test_amplitude_factor_magnitude(self, exterior):
        # |A_n|^2 = 2 kappa / pi for either mode
        for mode in "PS":
            kappa = exterior.kappa(OMEGA, mode)
            a = far_field_amplitude_factor(mode, 3, exterior, OMEGA)
            assert abs(abs(a) ** 2 - 2 * kappa / np.pi) < 1e-13


class TestVerifyOptical:
    def test_disk_energy_residual_small(self, disk_esc):
        rep = verify_optical(disk_esc)
        assert rep["residual"] < 1e-5

    def test_zero_matrix(self, pair):
        blocks = {k: np.zeros((3, 3), dtype=complex) for k in ("PP", "SP", "PS", "SS")}
        esc = EscMatrix(K=1, blocks=blocks, omega=OMEGA, pair=pair)
        assert verify_optical(esc)["residual"] == 0.0

    def test_dissipation_negative_control(self, disk_esc):
        # a lossy scatterer (here: scattered amplitudes damped by 10%)
        # violates energy conservation and must raise the residual
        lossy = EscMatrix(
            K=disk_esc.K,
            blocks={k: 0.9 * v for k, v in disk_esc.blocks.items()},
            omega=disk_esc.omega,
            pair=disk_esc.pair,
            rho0=disk_esc.rho0,
        )
        assert verify_optical(lossy)["residual"] > 1e-2


class TestVerifySymmetries:
    def test_disk_defects_small(self, disk_esc):
        rep = verify_symmetries(disk_esc)
        assert rep["reciprocity"] < 1e-8
        assert rep["mirror"] < 1e-8

    def test_shapes_defects_small(self, pair):
        for curve in (Ellipse(0.5, 0.25), Kite(0.3)):
            esc = compute_esc(curve, pair, OMEGA, K=4, n_nodes=128)
            rep = verify_symmetries(esc)
            assert rep["reciprocity"] < 1e-8
            assert rep["mirror"] < 1e-8

    def test_k0_reduces_to_diagonal_relation(self, pair):
        esc = compute_esc(Circle(1.0), pair, OMEGA, K=0, n_nodes=64)
        rep = verify_symmetries(esc)
        assert rep["reciprocity"] < 1e-10

    def test_fabricated_matrix_trips_check(self, kite_esc):
        # negating one cross block breaks the reciprocity tie between
        # the PS and SP blocks at O(1) (constructed counterexample)
        blocks = dict(kite_esc.blocks)
        blocks["PS"] = -blocks["PS"]
        bad = EscMatrix(
            K=kite_esc.K, blocks=blocks, omega=OMEGA, pair=kite_esc.pair, rho0=kite_esc.rho0
        )
        assert verify_symmetries(bad)["reciprocity"] > 0.1


def _symmetry_defects_by_entry(esc):
    """Reference oracle: each defining identity of verify_symmetries, entry by entry."""
    K, w = esc.K, esc.entry
    sign = {"P": 1.0, "S": -1.0}
    rec = mir = herm = par = 0.0
    for a in "PS":
        for b in "PS":
            for m in range(-K, K + 1):
                for n in range(-K, K + 1):
                    v, p = w(a, b, m, n), (-1.0) ** (m + n)
                    rec = max(rec, abs(v - p * w(b, a, -n, -m)))
                    mir = max(mir, abs(w(a, b, -m, -n) - sign[a] * sign[b] * p * v))
                    herm = max(herm, abs(v - np.conj(w(b, a, n, m))))
                    par = max(par, abs(w(a, b, -m, -n) - p * np.conj(v)))
    scale = max(abs(w(a, b, m, n)) for a in "PS" for b in "PS"
                for m in range(-K, K + 1) for n in range(-K, K + 1))
    return {"reciprocity": rec / scale, "mirror": mir / scale,
            "hermitian_conj": herm / scale, "parity_conj": par / scale}


def _random_esc(K, seed):
    rng = np.random.default_rng(seed)
    dim = 4 * K + 2
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return EscMatrix.from_global(g, OMEGA)


class TestSymmetryOracle:
    @pytest.mark.parametrize("K", [0, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_defects_match_entrywise_identities(self, K, seed):
        esc = _random_esc(K, seed)
        got, want = verify_symmetries(esc), _symmetry_defects_by_entry(esc)
        assert got.keys() == want.keys()
        for key in want:
            assert want[key] > 0.1  # a random matrix has none of the symmetries
            assert abs(got[key] - want[key]) <= 1e-15 * want[key], key


class TestDecayProfile:
    @pytest.mark.parametrize("K", [0, 3])
    def test_profile_matches_entrywise_max(self, K):
        esc = _random_esc(K, seed=4)
        want = np.zeros(K + 1)
        for key, blk in esc.blocks.items():
            for m in range(-K, K + 1):
                for n in range(-K, K + 1):
                    k = max(abs(m), abs(n))
                    want[k] = max(want[k], abs(blk[m + K, n + K]))
        assert decay_profile(esc)["profile"] == pytest.approx(want, rel=1e-15, abs=0)

    def test_disk_profile_monotone(self, disk_esc):
        prof = np.array(decay_profile(disk_esc)["profile"])
        assert np.all(np.diff(prof[2:]) < 0)

    def test_ratio_sequence_bounded(self, disk_esc):
        rep = decay_profile(disk_esc)
        seq = np.array(rep["bounded_sequence"])
        # |W_kk| k^{k-1} C^{-2k}: bounded for the fitted C
        assert seq[3:].max() <= 10.0 * max(seq[0], seq.mean())

    def test_zero_matrix(self, pair):
        blocks = {k: np.zeros((5, 5), dtype=complex) for k in ("PP", "SP", "PS", "SS")}
        esc = EscMatrix(K=2, blocks=blocks, omega=OMEGA, pair=pair)
        assert max(decay_profile(esc)["profile"]) == 0.0

    def test_tail_estimate_present(self, disk_esc):
        rep = decay_profile(disk_esc)
        assert rep["tail_estimate"] < 1e-6 * disk_esc.scale()
