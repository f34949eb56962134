"""ESC assembly, the model field against the solver and the structural identity checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from escat.bie import TransmissionSolver, build_grid
from escat.cloak import analytic_disk_esc
from escat.curves import Circle, Ellipse, FourierRadius, Kite
from escat.errors import DomainError
from escat.esc import (
    EscMatrix,
    compute_esc,
    decay_profile,
    verify_optical,
    verify_symmetries,
)
from escat.msr import MsrConfig, simulate_msr
from escat.wavefields import Material, MaterialPair, ModeIndex, cyl_wave_J, cyl_wave_traction

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

    def test_expansion_matches_bie_field(self, kite_esc, pair, exterior):
        # the model X G Y* of the kite's W must match the solver's
        # receiver data at 20 shear wavelengths, 2K+1 sources and receivers
        n = 2 * kite_esc.K + 1
        cfg = MsrConfig(radius=20 * 2 * np.pi / exterior.kappa_s(OMEGA), n_sources=n,
                        n_receivers=n, omega=OMEGA, exterior=exterior)
        model = simulate_msr(Kite(0.4), pair, cfg, mode="expansion", esc=kite_esc).stacked()
        direct = simulate_msr(Kite(0.4), pair, cfg, mode="bie", n_nodes=160).stacked()
        assert np.abs(model - direct).max() / np.abs(direct).max() < 1e-4

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
