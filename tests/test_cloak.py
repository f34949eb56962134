"""Transfer matrices, layered scattering and the vanishing-coefficient design."""

import logging
import re
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special as sp

from conftest import fd_traction, wave
from escat import cloak
from escat.cloak import (
    COND_GUARD,
    LayeredStructure,
    _chain_layout,
    _check_singular,
    _guard_rows,
    _layer_matrices,
    _nan_singular,
    _w_of,
    _w_stack,
    analytic_disk_esc,
    design_svanishing,
    layered_esc,
    scaling_report,
)
from escat.errors import DomainError, ResonanceError
from escat.wavefields import Material, MaterialPair

OMEGA = 0.9

BOUNDS = {"lam": (0.2, 20.0), "mu": (0.1, 10.0), "rho": (0.1, 10.0)}


def bare_cavity(exterior, r=1.0):
    return LayeredStructure(radii=(r,), layers=(), exterior=exterior, inner="cavity")


def entry_of(s, omega, n):
    """The interface matrices of s at (omega, n) as layered_esc builds them, then _w_of's W, verdict and chain."""
    core = s.inner != "cavity"
    ann, ring = _chain_layout(s.n_layers, core)
    mats = [s.exterior, *s.layers, s.inner]
    m = _layer_matrices(n, [s.radii[i] for i in ring], [mats[a] for a in ann], omega)
    with np.errstate(over="ignore", invalid="ignore"):
        return (m, *_w_of(m, s.n_layers, core, s.exterior.rho * omega * omega))


class TestLayeredStructure:
    def test_radii_must_decrease(self, exterior):
        with pytest.raises(DomainError):
            LayeredStructure(radii=(1.0, 2.0), layers=(exterior,), exterior=exterior)

    @pytest.mark.parametrize(
        "radii", [(1.0, 1.0), (1.0, 0.0), (1.0, -0.5), (np.nan, 1.0), (2.0, np.nan)]
    )
    def test_equal_non_positive_or_nan_radii_rejected(self, exterior, radii):
        with pytest.raises(DomainError):
            LayeredStructure(radii=radii, layers=(exterior,), exterior=exterior)

    def test_serialization(self, exterior, interior):
        s = LayeredStructure(
            radii=(2.0, 1.5, 1.0),
            layers=(interior, exterior),
            exterior=exterior,
            inner="cavity",
        )
        back = LayeredStructure.from_dict(s.to_dict())
        assert back.radii == s.radii
        assert back.inner == "cavity"
        s2 = LayeredStructure(radii=(1.0,), layers=(), exterior=exterior, inner=interior)
        back2 = LayeredStructure.from_dict(s2.to_dict())
        assert back2.inner == interior


class TestLayerMatrix:
    def test_trace_rows_match_wave_fields(self, exterior):
        # rows 1-2 are r * (P_n, S_n)-components of the four basis fields
        # at theta = 0 (phase factor stripped)
        r, n = 1.3, 2
        m = _layer_matrices(n, [r], [exterior], OMEGA)[0]
        x = np.array([r, 0.0])
        er, et = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        # columns JP, JS, HP, HS
        fields = [
            wave(z, mode, n, x, exterior, OMEGA)[0] for z in (sp.jv, sp.hankel1) for mode in "PS"
        ]
        for col, u in enumerate(fields):
            assert abs(m[0, col] - r * (u @ er)) < 1e-12 * max(abs(m[0, col]), 1e-12)
            assert abs(m[1, col] - r * (u @ et)) < 1e-12 * max(abs(m[1, col]), 1e-12)

    def test_traction_rows_match_finite_differences(self, exterior):
        r, n = 1.1, 1
        m = _layer_matrices(n, [r], [exterior], OMEGA)[0]
        x = np.array([r, 0.0])
        nrm = np.array([1.0, 0.0])
        for col, (z, mode) in enumerate(
            [(sp.jv, "P"), (sp.jv, "S"), (sp.hankel1, "P"), (sp.hankel1, "S")]
        ):
            f = lambda p: wave(z, mode, n, p, exterior, OMEGA)[0]
            want = fd_traction(f, x, nrm, exterior)
            got = m[2:, col] / r**2  # rows are r^2 * traction components
            assert np.abs(got - want).max() < 1e-5 * max(np.abs(want).max(), 1e-10)

    def test_quasistatic_block_orders(self, exterior):
        # entry-order pattern of M and M^-1 under omega -> 0, fitted as
        # log-log slopes of 2x2 block maxima.  For n >= 2 the blocks obey
        # M ~ [[n, -n], [n, -n]] and M^-1 ~ [[-n-2, -n-2], [n-2, n-2]]
        # (the top-left sub-block of M is singular at leading order,
        # shifting the inverse orders by 2); n = 1 is exceptional in the
        # traction block of the entire-family columns.
        eps = np.geomspace(1e-3, 1e-2, 6)
        mat = Material(3.0, 1.5, 2.0)
        expected_m = lambda n: np.array([[n, -n], [n, -n]])
        expected_inv = lambda n: np.array([[-n - 2, -n - 2], [n - 2, n - 2]])
        for n in (2, 3, 4):
            sl = np.zeros((2, 2))
            sl_i = np.zeros((2, 2))
            vals = [_layer_matrices(n, [1.3], [mat], e)[0] for e in eps]
            invs = [np.linalg.inv(v) for v in vals]
            for bi in range(2):
                for bj in range(2):
                    v = [np.abs(m[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]).max() for m in vals]
                    vi = [np.abs(m[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]).max() for m in invs]
                    sl[bi, bj] = np.polyfit(np.log(eps), np.log(v), 1)[0]
                    sl_i[bi, bj] = np.polyfit(np.log(eps), np.log(vi), 1)[0]
            assert np.abs(sl - expected_m(n)).max() < 0.1
            assert np.abs(sl_i - expected_inv(n)).max() < 0.1
        # n = 1: near-rigid-body columns make the J-traction block O(t^3)
        vals = [_layer_matrices(1, [1.3], [mat], e)[0] for e in eps]
        v = [np.abs(m[2:, :2]).max() for m in vals]
        slope = np.polyfit(np.log(eps), np.log(v), 1)[0]
        assert abs(slope - 3.0) < 0.1


class TestLayerMatrixStack:
    @pytest.mark.parametrize("n", range(-3, 4))
    def test_slices_equal_layer_matrix(self, exterior, interior, n):
        radii = [2.0, 1.3, 0.7, 1.3, 2.0]
        mats = [exterior, interior, exterior, exterior, interior]
        stack = _layer_matrices(n, radii, mats, OMEGA)
        assert stack.shape == (5, 4, 4)
        for m, r, mat in zip(stack, radii, mats):
            assert np.array_equal(m, _layer_matrices(n, [r], [mat], OMEGA)[0])

    @pytest.mark.parametrize("inner", ["cavity", "core"])
    def test_chain_equals_per_matrix_product(self, exterior, interior, inner):
        # the stacked build and batched inverse of _w_of reproduce the
        # product of per-matrix builds and inverses bit for bit, and W is
        # layered_esc's
        core = Material(1.0, 0.6, 1.5)
        s = LayeredStructure(
            radii=(2.0, 1.6, 1.3, 1.0),
            layers=(interior, core, exterior),
            exterior=exterior,
            inner="cavity" if inner == "cavity" else core,
        )
        for n in (-2, 0, 3):
            m, w, passed, chain = entry_of(s, OMEGA, n)
            prop = np.eye(4, dtype=complex)
            # annulus 0 is the exterior, annulus j >= 1 is layer j - 1
            annuli = (s.exterior, *s.layers)
            for j in range(1, 4):
                r = s.radii[j - 1]
                mj = _layer_matrices(n, [r], [annuli[j]], OMEGA)[0]
                mjm1 = _layer_matrices(n, [r], [annuli[j - 1]], OMEGA)[0]
                prop = np.linalg.inv(mj) @ mjm1 @ prop
            m_out = _layer_matrices(n, [1.0], [s.layers[-1]], OMEGA)[0]
            assert np.array_equal(chain, m_out @ prop)
            assert passed and np.array_equal(w, layered_esc(s, OMEGA, n))
            if inner == "cavity":
                assert len(m) == 7
            else:
                assert len(m) == 8
                assert np.array_equal(m[-1], _layer_matrices(n, [1.0], [core], OMEGA)[0])


def svd_rejects(m):
    """The guard's definition: equilibrated singular values against COND_GUARD."""
    row = np.abs(m).max(axis=1)
    if np.any(row == 0):
        return True
    m1 = m / row[:, None]
    col = np.abs(m1).max(axis=0)
    if np.any(col == 0):
        return True
    sv = np.linalg.svd(m1 / col[None, :], compute_uv=False)
    return sv[-1] < COND_GUARD * sv[0]


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestResonanceGuard:
    @staticmethod
    def check_one(m):
        """The guard on a one-matrix stack agrees with svd_rejects, inv and _check_singular."""
        inv = _nan_singular(np.linalg.inv, m[None])
        passed = _guard_rows(m[None, None], inv[None])
        assert passed.shape == (1,)
        if not passed[0]:
            assert svd_rejects(m)
            with pytest.raises(ResonanceError, match="M is numerically singular"):
                _check_singular(m, "M")
            return True
        assert not svd_rejects(m)
        _check_singular(m, "M")
        assert np.array_equal(inv[0], np.linalg.inv(m))
        return False

    @pytest.mark.parametrize("k", [2, 4])
    def test_scaled_random_stacks(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(100):
            m = random_complex(rng, (3, k, k))
            m *= 10.0 ** rng.uniform(-12, 12, (3, k, 1))
            m *= 10.0 ** rng.uniform(-12, 12, (3, 1, k))
            assert not any(svd_rejects(mi) for mi in m)
            inv = _nan_singular(np.linalg.inv, m)
            # one stack of three, and three entries of one
            assert _guard_rows(m[None], inv[None]).tolist() == [True]
            assert _guard_rows(m[:, None], inv[:, None]).tolist() == [True] * 3
            for mi, xi in zip(m, inv):
                assert np.array_equal(xi, np.linalg.inv(mi))

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("cond", [1e12, 5e12, 2e13, 1e14])
    def test_decision_near_threshold(self, k, cond):
        # U diag(s) V^H with scaled rows and columns; the equilibrated
        # condition lands around `cond`, where a 1-norm test alone would
        # decide some matrices differently from the singular values
        rng = np.random.default_rng(int(cond) % 1000 + k)
        rejected = 0
        for _ in range(40):
            u, _ = np.linalg.qr(random_complex(rng, (k, k)))
            v, _ = np.linalg.qr(random_complex(rng, (k, k)))
            s = np.geomspace(1.0, 1.0 / (cond * rng.uniform(0.5, 2.0)), k)
            m = (u * s) @ v.conj().T
            m *= 10.0 ** rng.uniform(-12, 12, (k, 1))
            m *= 10.0 ** rng.uniform(-12, 12, (1, k))
            rejected += self.check_one(m)
        # each side of the threshold sees its own outcome
        assert rejected > 0 if cond > 1e13 else rejected < 40

    @pytest.mark.parametrize("k", [2, 4])
    def test_zero_row_and_column_raise(self, k):
        rng = np.random.default_rng(7)
        good = random_complex(rng, (k, k))
        zero_row = random_complex(rng, (k, k))
        zero_row[1] = 0
        zero_col = random_complex(rng, (k, k))
        zero_col[:, 0] = 0
        with pytest.raises(ResonanceError, match="b has a zero row"):
            _check_singular(zero_row, "b")
        with pytest.raises(ResonanceError, match="b has a zero column"):
            _check_singular(zero_col, "b")
        # LAPACK finds both exactly singular: NaN inverses, which the
        # guard rejects, and the batch keeps the other entry's inverse
        entries = np.stack([good, zero_row, zero_col])[:, None]
        inv = _nan_singular(np.linalg.inv, entries)
        assert np.isnan(inv[1:]).all() and np.array_equal(inv[0, 0], np.linalg.inv(good))
        with np.errstate(invalid="ignore"):
            assert _guard_rows(entries, inv).tolist() == [True, False, False]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_raises(self, bad):
        rng = np.random.default_rng(9)
        good, m = random_complex(rng, (2, 4, 4))
        m[2, 1] = bad
        with pytest.raises(ResonanceError, match="b is not finite after equilibration"):
            with np.errstate(invalid="ignore"):
                _check_singular(m, "b")
        entries = np.stack([good, m])[:, None]
        with np.errstate(invalid="ignore"):
            passed = _guard_rows(entries, _nan_singular(np.linalg.inv, entries))
        assert passed.tolist() == [True, False]

    def test_first_singular_matrix_is_named(self):
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        singular = (u * np.array([1.0, 1.0, 1.0, 1e-15])) @ u.conj().T
        good = random_complex(rng, (4, 4))
        with pytest.raises(ResonanceError, match=r"b is numerically singular \(equilibrated cond"):
            _check_singular(singular, "b")
        stack = np.stack([good, singular, singular])
        assert not _guard_rows(stack, _nan_singular(np.linalg.inv, stack))

    def test_layered_esc_names_the_first_rejected_layer_matrix(self, exterior, monkeypatch):
        # layer matrices j = 2 and 3 of a three-layer coat made singular
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        singular = (u * np.array([1.0, 1.0, 1.0, 1e-15])) @ u.conj().T
        layer_matrices = cloak._layer_matrices

        def with_singular_layers(*args):
            m = layer_matrices(*args)
            m[1:3] = singular
            return m

        s = LayeredStructure(
            radii=(2.0, 1.6, 1.3, 1.0), layers=(exterior,) * 3, exterior=exterior
        )
        monkeypatch.setattr(cloak, "_layer_matrices", with_singular_layers)
        with pytest.raises(ResonanceError) as err:
            layered_esc(s, OMEGA, 1)
        assert str(err.value).startswith(
            "layer matrix M_(n=1,j=2) is numerically singular (equilibrated cond"
        )


class TestPropagateQ:
    # the traction rows (Q21 | Q22) of the interface chain, which
    # layered_esc solves for the cavity's scattered coefficients
    def test_bare_cavity_is_boundary_matrix(self, exterior):
        q = entry_of(bare_cavity(exterior), OMEGA, 1)[3][2:]
        m = _layer_matrices(1, [1.0], [exterior], OMEGA)[0]
        assert_allclose(q, m[2:, :], rtol=1e-14)

    def test_q22_nonsingular_for_random_structures(self, exterior):
        rng = np.random.default_rng(17)
        failures = 0
        for _ in range(1000):
            mats = tuple(
                Material(*np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3)))
                for _ in range(2)
            )
            r2 = rng.uniform(1.05, 1.95)
            s = LayeredStructure(radii=(2.0, r2, 1.0), layers=mats, exterior=exterior)
            _, _, passed, chain = entry_of(s, rng.uniform(0.05, 2.0), rng.integers(0, 4))
            q = chain[2:]
            if not passed or not np.isfinite(q).all() or abs(np.linalg.det(q[:, 2:])) == 0.0:
                failures += 1
        assert failures == 0

    def test_telescoping_interface(self, exterior, interior):
        # inserting a fictitious interface with equal materials on both
        # sides leaves Q unchanged
        s1 = LayeredStructure(radii=(2.0, 1.0), layers=(interior,), exterior=exterior)
        s2 = LayeredStructure(
            radii=(2.0, 1.5, 1.0), layers=(interior, interior), exterior=exterior
        )
        for n in (0, 2):
            q1 = entry_of(s1, OMEGA, n)[3][2:]
            q2 = entry_of(s2, OMEGA, n)[3][2:]
            assert np.abs(q1 - q2).max() < 1e-12 * np.abs(q1).max()


class TestLayeredEsc:
    def test_bare_cavity_scatters(self, exterior):
        w0 = layered_esc(bare_cavity(exterior), 0.5, 0)
        assert abs(w0[0, 0]) > 1e-3  # traction-free disk scatters P waves

    def test_chain_overflow_is_a_resonance(self, exterior, capfd):
        # at high order and low frequency the chain product overflows;
        # the guard must not hand inf or NaN to LAPACK
        s = LayeredStructure(
            radii=(2.0, 1.5, 1.0),
            layers=(Material(3.0, 0.5, 2.0), Material(1.0, 2.0, 0.7)),
            exterior=exterior,
        )
        # and the overflow on the way is not reported as a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ResonanceError, match=r"Q22\(n=30\) is not finite"):
                layered_esc(s, 3e-4, 30)
        assert "DLASCL" not in "".join(capfd.readouterr())

    def test_reciprocity_against_negative_order(self, exterior, interior):
        s = LayeredStructure(
            radii=(2.0, 1.3, 1.0), layers=(interior, Material(1.0, 0.6, 1.5)), exterior=exterior
        )
        for n in (1, 2):
            wp = layered_esc(s, OMEGA, n)
            wm = layered_esc(s, OMEGA, -n)
            assert np.abs(wm - wp.T).max() < 1e-8 * np.abs(wp).max()

    def test_coat_equal_to_exterior_is_invisible(self, exterior):
        coated = LayeredStructure(
            radii=(2.0, 1.5, 1.0), layers=(exterior, exterior), exterior=exterior
        )
        for n in (0, 1, 2):
            w_bare = layered_esc(bare_cavity(exterior), OMEGA, n)
            w_coat = layered_esc(coated, OMEGA, n)
            assert np.abs(w_bare - w_coat).max() < 1e-12 * max(np.abs(w_bare).max(), 1e-30)

    def test_solid_core_without_coat_is_disk_oracle(self, pair, exterior, interior):
        s = LayeredStructure(radii=(1.0,), layers=(), exterior=exterior, inner=interior)
        for n in (0, 1, 3):
            got = layered_esc(s, OMEGA, n)
            want = analytic_disk_esc(pair, 1.0, OMEGA, n)
            assert_allclose(got, want, rtol=0, atol=1e-15 + 1e-14 * np.abs(want).max())

    def test_zero_contrast_limit(self, exterior):
        inte = Material(2.0 * (1 + 1e-8), 1.0 * (1 + 1e-8), 1.0)
        pair = MaterialPair(exterior, inte)
        w = analytic_disk_esc(pair, 1.0, OMEGA, 1)
        scale = exterior.rho * OMEGA**2
        assert np.abs(w).max() < 1e-6 * scale

    def test_cavity_low_frequency_exponents(self, exterior):
        # leading channels of the traction-free cavity scale as omega^4
        # (elastostatic polarizability); the torsional n=0 shear channel
        # is null to omega^6
        eps = np.geomspace(1e-3, 1e-2, 6)
        s = bare_cavity(exterior)
        pp = [abs(layered_esc(s, e, 0)[0, 0]) for e in eps]
        ss = [abs(layered_esc(s, e, 0)[1, 1]) for e in eps]
        assert abs(np.polyfit(np.log(eps), np.log(pp), 1)[0] - 4.0) < 0.1
        assert abs(np.polyfit(np.log(eps), np.log(ss), 1)[0] - 6.0) < 0.1


def random_structure(rng, exterior, L, core):
    """L coats of random materials from radius 2 to 1 around a cavity or a random core."""
    def material():
        return Material(*np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3)))

    inner = np.sort(rng.uniform(1.05, 1.95, L - 1))[::-1] if L else ()
    return LayeredStructure(
        radii=(2.0, *inner, 1.0) if L else (1.0,),
        layers=tuple(material() for _ in range(L)),
        exterior=exterior,
        inner=material() if core else "cavity",
    )


class TestWTable:
    @pytest.mark.parametrize("core", [False, True])
    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_w_stack_is_layered_esc(self, exterior, L, core):
        # the table and the per-entry path share _w_of: equal bit for bit
        rng = np.random.default_rng(10 * L + core)
        freqs = [0.01, 0.3, 1.1, 4.0]
        for _ in range(3):
            s = random_structure(rng, exterior, L, core)
            table = _w_stack(s, freqs, 5)
            assert table.shape == (4, 6, 2, 2)
            for i, omega in enumerate(freqs):
                for n in range(6):
                    assert np.array_equal(table[i, n], layered_esc(s, omega, n))

    def test_rejected_entry_names_omega_and_order(self, exterior):
        s = LayeredStructure(
            radii=(2.0, 1.5, 1.0),
            layers=(Material(3.0, 0.5, 2.0), Material(1.0, 2.0, 0.7)),
            exterior=exterior,
        )
        first = 0
        while True:
            try:
                layered_esc(s, 3e-4, first)
            except ResonanceError:
                break
            first += 1
        assert first <= 30
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ResonanceError) as err:
                _w_stack(s, [0.5, 3e-4], 30)
        assert str(err.value).startswith(f"W_(n={first}) at omega=0.0003 is ")

    @pytest.mark.parametrize("omega", [0.0, -0.1])
    def test_nonpositive_omega_rejected(self, exterior, omega):
        with pytest.raises(DomainError):
            _w_stack(bare_cavity(exterior), [0.5, omega], 1)


@st.composite
def coat_entries(draw):
    """An order n, a frequency, k decreasing radii and k + 1 materials inside the design bounds."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(-8, 8))
    omega = draw(st.floats(0.01, 5.0))
    radii = draw(st.lists(st.floats(0.5, 3.0), min_size=k, max_size=k, unique=True))
    materials = [
        Material(*(draw(st.floats(*BOUNDS[key])) for key in ("lam", "mu", "rho")))
        for _ in range(k + 1)
    ]
    return n, omega, sorted(radii, reverse=True), materials


class TestBuilders:
    """The array builder and table against the scalar builder and layered_esc."""

    @settings(max_examples=80, deadline=None)
    @given(coat_entries())
    def test_coat_matrices_equal_layer_matrices(self, entry):
        n, omega, radii, materials = entry
        materials = materials[: len(radii)]
        lam, mu, rho = np.array([(m.lam, m.mu, m.rho) for m in materials]).T
        # t as _w_table forms it: r kappa = r (omega / c)
        t = np.array(radii) * (omega / np.sqrt([(lam + 2.0 * mu) / rho, mu / rho]))
        got = cloak._coat_matrices(n, t, lam, mu)
        assert np.array_equal(got, _layer_matrices(n, radii, materials, omega))

    @settings(max_examples=60, deadline=None)
    @given(coat_entries(), st.booleans())
    def test_w_table_equals_layered_esc(self, entry, core):
        n, omega, radii, materials = entry
        exterior, *layers, inner = materials
        s = LayeredStructure(tuple(radii), tuple(layers), exterior, inner if core else "cavity")
        mat = np.array([[(m.lam, m.mu, m.rho) for m in materials[: len(radii) + core]]])
        w, passed = cloak._w_table(np.array([radii]), mat, core, [omega], abs(n))
        for order in range(abs(n) + 1):
            try:
                want = layered_esc(s, omega, order)
            except ResonanceError:
                assert not (passed[0, 0, order] and np.isfinite(w[0, 0, order]).all())
            else:
                assert passed[0, 0, order] and np.array_equal(w[0, 0, order], want)


@pytest.fixture(scope="module")
def design_report(exterior):
    return design_svanishing(
        L=2,
        N=0,
        omega_set=[0.1],
        bounds=BOUNDS,
        exterior=exterior,
        n_starts=8,
        seed=42,
        maxiter=1500,
        coeff_probe=[3e-4],
    )


class TestDesign:
    def test_reduction_factor(self, design_report, exterior):
        assert design_report.reduction_factor >= 1e2
        w_bare = layered_esc(bare_cavity(exterior), 0.1, 0)
        w_designed = layered_esc(design_report.structure, 0.1, 0)
        red = np.sum(np.abs(w_bare) ** 2) / np.sum(np.abs(w_designed) ** 2)
        assert red >= 1e2

    def test_bounds_respected(self, design_report):
        for m in design_report.structure.layers:
            assert BOUNDS["lam"][0] <= m.lam <= BOUNDS["lam"][1]
            assert BOUNDS["mu"][0] <= m.mu <= BOUNDS["mu"][1]
            assert BOUNDS["rho"][0] <= m.rho <= BOUNDS["rho"][1]

    def test_deterministic_given_seed(self, design_report, exterior):
        rep2 = design_svanishing(
            L=2,
            N=0,
            omega_set=[0.1],
            bounds=BOUNDS,
            exterior=exterior,
            n_starts=8,
            seed=42,
            maxiter=1500,
            coeff_probe=[3e-4],
        )
        for m1, m2 in zip(design_report.structure.layers, rep2.structure.layers):
            assert m1 == m2
        assert design_report.structure.radii == rep2.structure.radii
        assert rep2.objective == design_report.objective
        assert rep2.objective_trace == design_report.objective_trace
        assert rep2.n_evaluations == design_report.n_evaluations

    def test_evaluation_counts_add_up(self, design_report):
        # every start's evaluations, plus the final one after polishing
        counts = design_report.start_evaluations
        assert len(counts) == 8 and min(counts) > 0
        assert sum(counts) + 1 == design_report.n_evaluations
        assert 0 < design_report.penalty_hits < design_report.n_evaluations

    def test_noop_coat_objective_equals_bare(self, exterior):
        # the objective of an exterior-material coat equals the
        # bare-cavity objective (value 1 per term by normalization)
        s = LayeredStructure(
            radii=(2.0, 1.5, 1.0), layers=(exterior, exterior), exterior=exterior
        )
        w = 0.1
        bare = bare_cavity(exterior)
        num = np.sum(np.abs(layered_esc(s, w, 0)) ** 2)
        den = np.sum(np.abs(layered_esc(bare, w, 0)) ** 2)
        assert abs(num / den - 1.0) < 1e-12

    def test_designed_n1_scaling_exceeds_generic(self, design_report):
        # order-0 design: W_1 keeps the generic quartic low-frequency law
        eps = np.geomspace(1e-3, 1e-2, 6)
        v = [np.linalg.norm(layered_esc(design_report.structure, e, 1)) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(v), 1)[0]
        assert slope >= 2 * 1 + 2 - 0.2

    def test_mode_mask_targets_one_column(self, exterior, monkeypatch):
        # S-only cloak: objective sees only the shear-incidence column
        monkeypatch.setattr(cloak, "_polish_design", lambda x0, objective, bare, probes: (x0, [0, 0]))
        rep = design_svanishing(
            L=1,
            N=0,
            omega_set=[0.1],
            bounds=BOUNDS,
            exterior=exterior,
            n_starts=2,
            seed=3,
            maxiter=400,
            mode_mask="S",
        )
        bare = bare_cavity(exterior)
        w_b = layered_esc(bare, 0.1, 0)[:, 1]
        w_d = layered_esc(rep.structure, 0.1, 0)[:, 1]
        assert np.sum(np.abs(w_d) ** 2) < np.sum(np.abs(w_b) ** 2)

    def test_unknown_mode_mask_rejected(self, exterior):
        with pytest.raises(DomainError, match="mode_mask"):
            design_svanishing(
                L=1, N=0, omega_set=[0.1], bounds=BOUNDS, exterior=exterior, mode_mask="SP"
            )

    @pytest.mark.parametrize("r_outer,r_cavity", [(1.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
    def test_radii_checked_before_the_starts(self, exterior, monkeypatch, r_outer, r_cavity):
        def no_starts(*args):
            raise AssertionError("the starts ran")

        monkeypatch.setattr(cloak, "_lockstep", no_starts)
        with pytest.raises(DomainError, match=r"r_cavity=.*, r_outer="):
            design_svanishing(
                L=1,
                N=0,
                omega_set=[0.1],
                bounds=BOUNDS,
                exterior=exterior,
                r_outer=r_outer,
                r_cavity=r_cavity,
            )

    def test_objective_error_reaches_caller(self, exterior, monkeypatch):
        def broken(self, X):
            raise TypeError("objective got a bad argument")

        monkeypatch.setattr(cloak._CoatObjective, "__call__", broken)
        with pytest.raises(TypeError, match="objective got a bad argument"):
            design_svanishing(
                L=1, N=0, omega_set=[0.1], bounds=BOUNDS, exterior=exterior, n_starts=4, maxiter=10
            )

    def test_info_line_reports_rounds_and_stage_times(self, exterior, caplog):
        with caplog.at_level(logging.INFO, logger="escat.cloak"):
            rep = design_svanishing(
                L=1, N=0, omega_set=[0.1], bounds=BOUNDS, exterior=exterior,
                n_starts=3, seed=2, maxiter=60,
            )
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("design: best")]
        assert len(lines) == 1
        found = re.search(r"(\d+) lock-step rounds, Nelder-Mead (\S+) s, polish (\S+) s$", lines[0])
        assert found is not None
        assert int(found[1]) == max(rep.start_evaluations)
        assert float(found[2]) > 0 and float(found[3]) > 0

    def test_infeasible_bounds_rejected(self, exterior):
        with pytest.raises(DomainError):
            design_svanishing(
                L=1,
                N=0,
                omega_set=[0.1],
                bounds={"lam": (2.0, 1.0), "mu": (0.1, 1.0), "rho": (0.1, 1.0)},
                exterior=exterior,
            )


BAND_OMEGAS = (0.2, 0.3)


@pytest.fixture(scope="module")
def band_design(exterior):
    """A P-mask design at N=1 on two frequencies.

    Returns the report, the (omega, n) of every bare-cavity _w_stack
    entry, the (rows, frequencies) of every _w_table call on coated
    structures and the number of layered_esc calls.
    """
    bare_calls, coated_tables, esc_calls = [], [], []
    w_stack, w_table = cloak._w_stack, cloak._w_table

    def counted_esc(structure, omega, n):
        esc_calls.append((omega, n))
        return layered_esc(structure, omega, n)

    def counted_stack(structure, freqs, N):
        if structure.n_layers == 0:
            bare_calls.extend((w, n) for w in freqs for n in range(N + 1))
        return w_stack(structure, freqs, N)

    def counted_table(radii, mat, core, freqs, N):
        if radii.shape[1] > 1:
            coated_tables.append((len(radii), list(freqs)))
        return w_table(radii, mat, core, freqs, N)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cloak, "layered_esc", counted_esc)
        mp.setattr(cloak, "_w_stack", counted_stack)
        mp.setattr(cloak, "_w_table", counted_table)
        rep = design_svanishing(
            L=1,
            N=1,
            omega_set=list(BAND_OMEGAS),
            bounds=BOUNDS,
            exterior=exterior,
            n_starts=2,
            seed=1,
            maxiter=200,
            mode_mask="P",
        )
    return rep, bare_calls, coated_tables, len(esc_calls)


class TestBandDesign:
    KEYS = [(w, n) for w in BAND_OMEGAS for n in (0, 1)]

    def test_w_tables_are_layered_esc(self, band_design, exterior):
        rep = band_design[0]
        assert list(rep.w_table) == self.KEYS and list(rep.bare_w_table) == self.KEYS
        for w, n in self.KEYS:
            assert rep.w_table[(w, n)] == layered_esc(rep.structure, w, n).tolist()
            assert rep.bare_w_table[(w, n)] == layered_esc(bare_cavity(exterior), w, n).tolist()

    def test_objective_and_reduction_use_the_p_column(self, band_design, exterior):
        rep = band_design[0]

        def power(structure, w, n):
            return float(np.sum(np.abs(layered_esc(structure, w, n)[:, :1]) ** 2))

        bare = bare_cavity(exterior)
        objective = sum(power(rep.structure, w, n) / power(bare, w, n) for w, n in self.KEYS)
        assert rep.objective == objective
        w0 = BAND_OMEGAS[0]
        designed = sum(power(rep.structure, w0, n) for n in (0, 1))
        assert rep.reduction_factor == sum(power(bare, w0, n) for n in (0, 1)) / designed

    def test_bare_cavity_evaluated_once_per_frequency_and_order(self, band_design):
        # working frequencies and the default probes min(omega)/100, /1000
        bare_calls = band_design[1]
        w0 = min(BAND_OMEGAS)
        freqs = [*BAND_OMEGAS, w0 / 100.0, w0 / 1000.0]
        assert sorted(bare_calls) == sorted((w, n) for w in freqs for n in (0, 1))

    def test_design_reads_w_tables_only(self, band_design):
        # the objective, the polish, the report and the bare cavity
        assert band_design[3] == 0

    def test_polish_evaluations_count_the_polish_structures(self, band_design):
        # the objective and the report evaluate the working band only; the
        # polish evaluates the working band with the probes, then the
        # probes, and counts one point per _w_table row
        rep, _, coated_tables, _ = band_design
        polish = [(rows, f) for rows, f in coated_tables if f != list(BAND_OMEGAS)]
        probes = [min(BAND_OMEGAS) / 100.0, min(BAND_OMEGAS) / 1000.0]
        stages = [sum(rows for rows, f in polish if f == at) for at in ([*BAND_OMEGAS, *probes], probes)]
        assert min(stages) > 0 and sum(stages) == sum(rows for rows, _ in polish)
        assert rep.polish_stage_evaluations == stages
        assert rep.polish_evaluations == sum(stages)
        # stage 1 evaluates the 3 columns of a Jacobian in one call
        assert max(rows for rows, f in polish if f == probes) == 3
        # at most one row per objective evaluation, plus the report's
        band_rows = sum(rows for rows, f in coated_tables if f == list(BAND_OMEGAS))
        assert band_rows <= rep.n_evaluations + 1
        assert sum(rep.start_evaluations) + 1 == rep.n_evaluations

    def test_polish_without_probes(self, exterior):
        # an empty probe list polishes by stage 0 alone
        rep = design_svanishing(
            L=1,
            N=1,
            omega_set=[0.1],
            bounds=BOUNDS,
            exterior=exterior,
            n_starts=1,
            seed=5,
            maxiter=40,
            coeff_probe=[],
        )
        assert rep.polish_stage_evaluations[0] > 0 and rep.polish_stage_evaluations[1] == 0
        assert rep.objective < cloak.PENALTY
        assert list(rep.w_table) == [(0.1, 0), (0.1, 1)]


def nelder_mead_options(maxiter):
    return {"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-16, "adaptive": True}


class TestLockstep:
    """The lock-step driver against scipy's Nelder-Mead, one start at a time."""

    @staticmethod
    def check(f, starts, maxiter):
        runs, evaluations, hits, rounds = cloak._lockstep(
            lambda X: [f(x) for x in X], starts, maxiter
        )
        for k, x0 in enumerate(starts):
            values = []

            def counted(x):
                values.append(f(x))
                return values[-1]

            res = scipy.optimize.minimize(
                counted, x0, method="Nelder-Mead", options=nelder_mead_options(maxiter)
            )
            x, fun = runs[k]
            assert np.array_equal(x, res.x)
            assert fun == res.fun
            assert evaluations[k] == res.nfev == len(values)
            assert hits[k] == values.count(cloak.PENALTY)
        # each round evaluates one point of every start still running
        assert rounds == max(evaluations)
        return evaluations, hits

    def test_smooth_quadratic(self):
        a = np.diag([1.0, 4.0, 0.25, 9.0])
        c = np.array([0.3, -1.2, 2.0, 0.7])

        def f(x):
            return float((x - c) @ a @ (x - c))

        rng = np.random.default_rng(11)
        evaluations, _ = self.check(f, list(rng.normal(size=(4, 4))), maxiter=2000)
        # the starts end after different numbers of evaluations
        assert len(set(evaluations)) > 1

    def test_penalty_plateaus(self):
        # outside the unit box every point ties at PENALTY, which argsort
        # must order as scipy's does
        def f(x):
            return cloak.PENALTY if np.any(np.abs(x) > 1.0) else float(np.sum((x - 0.9) ** 2))

        starts = [np.array([0.99, 0.98, 0.97]), np.array([0.0, 0.99, -0.99]), np.full(3, 0.5)]
        _, hits = self.check(f, starts, maxiter=600)
        assert hits[0] > 3 and hits[1] > 3

    def test_terraced_objective(self):
        # finite values tie too: on terraces the contraction's <= and the
        # unstable argsort of equal values decide the steps
        def f(x):
            if np.any(np.abs(x) > 2.0):
                return cloak.PENALTY
            return float(np.floor(4.0 * np.sum((x - 0.3) ** 2))) / 4.0

        rng = np.random.default_rng(5)
        self.check(f, list(rng.uniform(-2.0, 2.0, (6, 4))), maxiter=300)

    def test_stopped_by_maxiter(self):
        def f(x):
            return float(np.sum(np.cos(3.0 * x)) + x @ x)

        starts = [np.full(5, 2.0), np.linspace(-1.0, 1.0, 5)]
        self.check(f, starts, maxiter=25)
        res = scipy.optimize.minimize(f, starts[0], method="Nelder-Mead", options=nelder_mead_options(25))
        assert res.nit == 25 and res.status == 2

    def test_objective_sees_each_pending_point_once(self):
        batches = []

        def objective(X):
            batches.append(len(X))
            return [float(x @ x) for x in X]

        runs, evaluations, _, rounds = cloak._lockstep(
            objective, [np.ones(2), np.full(2, 3.0), np.zeros(2)], maxiter=100
        )
        assert len(batches) == rounds and sum(batches) == sum(evaluations)
        assert batches[0] == 3 and batches == sorted(batches, reverse=True)


def coat_objective(exterior, L, N, omegas, cols=slice(None)):
    """The design's objective for an L-layer coat on the unit cavity, r_outer = 2."""
    bare = cloak._w_stack(bare_cavity(exterior), omegas, N)
    keys = ("lam", "mu", "rho")
    lo = np.concatenate([np.log([BOUNDS[k][0] for k in keys] * L), np.full(L - 1, 5e-3)])
    hi = np.concatenate([np.log([BOUNDS[k][1] for k in keys] * L), np.full(L - 1, 1 - 5e-3)])
    scales = np.maximum(cloak._power(bare, cols), 1e-300)
    return cloak._CoatObjective(L, N, list(omegas), cols, scales, lo, hi, exterior, 2.0, 1.0)


def reference_value(objective, x):
    """F(x) one point at a time, from layered_esc."""
    L, cols = objective.L, objective.cols
    if np.any(x < objective.lo_vec - 1e-12) or np.any(x > objective.hi_vec + 1e-12):
        return cloak.PENALTY
    fr = np.sort(np.concatenate([[0.0], x[3 * L :], [1.0]]))
    if np.min(np.diff(fr)) < 1e-3:
        return cloak.PENALTY
    structure = objective.structure(x)
    terms = []
    try:
        for i, omega in enumerate(objective.omega_set):
            for n in range(objective.N + 1):
                power = float(np.sum(np.abs(layered_esc(structure, omega, n)[:, cols]) ** 2))
                terms.append(power / objective.scales[i, n])
    except ResonanceError:
        return cloak.PENALTY
    return sum(terms)


# x of radii (2, 1.5, 1), layers (3, 0.5, 2) and (1, 2, 0.7): at omega 3e-4
# its interface chain overflows at order 30 (test_chain_overflow_is_a_resonance)
OVERFLOW_X = np.array([*np.log([3.0, 0.5, 2.0, 1.0, 2.0, 0.7]), 0.5])


def no_scalar_path(*args):
    raise AssertionError("a row left the table path")


class TestBatchedObjective:
    @pytest.mark.parametrize(
        "L,N,omegas,cols",
        [(2, 0, [0.1], slice(None)), (1, 1, [0.2, 0.3], slice(0, 1)), (3, 2, [0.5], slice(1, 2))],
    )
    def test_rows_equal_layered_esc(self, exterior, monkeypatch, L, N, omegas, cols):
        objective = coat_objective(exterior, L, N, omegas, cols)
        lo, hi = objective.lo_vec, objective.hi_vec
        rng = np.random.default_rng(L)
        x = lo + (hi - lo) * rng.uniform(0.0, 1.0, (60, len(lo)))
        x[:10] = lo + (hi - lo) * rng.uniform(-0.2, 1.2, (10, len(lo)))  # some outside the box
        if L > 2:
            # two interior interfaces closer than 1e-3 of the coat thickness
            x[10:15, 3 * L + 1] = x[10:15, 3 * L] + rng.uniform(-9e-4, 9e-4, 5)
        want = [reference_value(objective, xi) for xi in x]
        assert cloak.PENALTY in want[:10] and cloak.PENALTY not in want[15:]
        if L > 2:
            assert want[10:15] == [cloak.PENALTY] * 5
        monkeypatch.setattr(cloak, "layered_esc", no_scalar_path)
        monkeypatch.setattr(cloak, "_w_stack", no_scalar_path)
        got = [v for b in range(0, len(x), 8) for v in objective(x[b : b + 8])]
        assert got == want
        # a lone row stays on the table path too
        assert [objective(x[i : i + 1])[0] for i in range(15, 20)] == want[15:20]

    def test_resonant_row_takes_the_guard(self, exterior, monkeypatch):
        objective = coat_objective(exterior, 2, 30, [3e-4])
        rng = np.random.default_rng(4)
        lo, hi = objective.lo_vec, objective.hi_vec
        x = np.vstack([lo + (hi - lo) * rng.random((3, 7)), OVERFLOW_X])
        checked = []
        check_singular = cloak._check_singular

        def spy(m, what):
            checked.append(np.isfinite(m).all())
            check_singular(m, what)

        monkeypatch.setattr(cloak, "_check_singular", spy)
        monkeypatch.setattr(cloak, "_w_stack", no_scalar_path)
        monkeypatch.setattr(cloak, "layered_esc", no_scalar_path)
        got = objective(x)
        assert got[3] == cloak.PENALTY and checked and not all(checked)
        monkeypatch.undo()
        assert got == [reference_value(objective, xi) for xi in x]

    def test_singular_stacked_inverse_goes_one_structure_at_a_time(self, exterior, monkeypatch):
        objective = coat_objective(exterior, 2, 0, [0.1])
        rng = np.random.default_rng(6)
        x = objective.lo_vec + (objective.hi_vec - objective.lo_vec) * rng.random((6, 7))
        want = [reference_value(objective, xi) for xi in x]
        inv = np.linalg.inv

        def singular_batch(m):
            if m.ndim > 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(m)

        # the table inverts one matrix at a time instead, and no row
        # leaves the table path
        monkeypatch.setattr(np.linalg, "inv", singular_batch)
        monkeypatch.setattr(cloak, "_w_stack", no_scalar_path)
        monkeypatch.setattr(cloak, "layered_esc", no_scalar_path)
        assert objective(x) == want


class TestPolishFailures:
    @staticmethod
    def design(exterior):
        return design_svanishing(
            L=1,
            N=0,
            omega_set=[0.1],
            bounds=BOUNDS,
            exterior=exterior,
            n_starts=1,
            seed=5,
            maxiter=40,
        )

    def test_coding_error_propagates(self, exterior, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr(scipy.optimize, "least_squares", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.design(exterior)

    def test_numerical_failure_keeps_nelder_mead_point(self, exterior, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise ValueError("residuals are not finite")

        monkeypatch.setattr(scipy.optimize, "least_squares", failing)
        monkeypatch.setattr(cloak, "_subset_newton", lambda x, *args, **kwargs: x)
        with caplog.at_level(logging.WARNING, logger="escat.cloak"):
            rep = self.design(exterior)
        assert "stage 0 failed (residuals are not finite)" in caplog.text
        monkeypatch.setattr(cloak, "_polish_design", lambda x0, objective, bare, probes: (x0, [0, 0]))
        assert rep.structure == self.design(exterior).structure


# an L=2 design whose polish takes about 450 points
SMALL_DESIGN = dict(
    L=2, N=0, omega_set=[0.1], bounds=BOUNDS, n_starts=1, seed=0, maxiter=150, coeff_probe=[3e-4]
)


class TestPolishRoute:
    def test_batched_jacobian_is_the_column_loop(self, exterior):
        # stage 1's residuals on a 2-layer coat: the batched Jacobian equals
        # the per-column loop it replaced, bit for bit
        objective = coat_objective(exterior, 2, 1, [0.2])
        lo, hi = objective.lo_vec, objective.hi_vec
        probes = [2e-3, 2e-4]

        def residuals(X):
            w, usable = objective.w(X, probes)
            assert usable.all()
            return np.diagonal(w, axis1=-2, axis2=-1).real.reshape(len(X), -1)

        x = lo + (hi - lo) * np.random.default_rng(8).uniform(0.1, 0.9, len(lo))
        x[4] = hi[4] - 1e-7 * abs(hi[4])  # within dx of its bound: a backward step
        f = residuals(x[None])[0]
        want = np.empty((len(f), len(x)))
        for j in range(len(x)):
            dx = 1e-6 * max(abs(x[j]), 1e-3)
            xp = x.copy()
            xp[j] = xp[j] + dx if xp[j] + dx <= hi[j] else xp[j] - dx
            want[:, j] = (residuals(xp[None])[0] - f) / (xp[j] - x[j])
        assert x[4] + 1e-6 * abs(x[4]) > hi[4]
        assert np.array_equal(cloak._forward_jacobian(residuals, x, f, hi), want)

    def test_stage0_jacobian_is_scipys_two_point_rule(self, exterior):
        # stage 0's batched Jacobian equals scipy's 2-point rule at relative
        # step 1e-7 inside the box, bit for bit
        from scipy.optimize._numdiff import approx_derivative

        objective = coat_objective(exterior, 2, 1, [0.2])
        lo, hi = objective.lo_vec, objective.hi_vec

        def rows(X):
            w, usable = objective.w(X, [0.2, 2e-3])
            assert usable.all()
            z = w.reshape(len(X), -1)
            return np.concatenate([z.real, z.imag], axis=1)

        x = lo + (hi - lo) * np.random.default_rng(9).uniform(0.1, 0.9, len(lo))
        x[0] = 0.0  # a relative step of 0: the absolute fallback step
        x[4] = hi[4] - 1e-8 * abs(hi[4])  # within a step of its bound: the step turns back
        assert lo[0] < 0.0 and x[4] + 1e-7 * abs(x[4]) > hi[4]
        f = rows(x[None])[0]
        want = approx_derivative(
            lambda p: rows(p[None])[0], x, method="2-point", rel_step=1e-7, f0=f, bounds=(lo, hi)
        )
        assert np.array_equal(cloak._two_point_jacobian(rows, x, f, lo, hi), want)

    def test_stage0_route_gives_scipys_design(self, exterior, monkeypatch):
        # least_squares with scipy's own 2-point differences, one point per
        # call, returns the same design and counts the same points
        rep = design_svanishing(exterior=exterior, **SMALL_DESIGN)
        least_squares = scipy.optimize.least_squares

        def scipy_differences(fun, x0, jac, **kw):
            return least_squares(fun, x0, jac="2-point", diff_step=1e-7, **kw)

        monkeypatch.setattr(scipy.optimize, "least_squares", scipy_differences)
        want = design_svanishing(exterior=exterior, **SMALL_DESIGN)
        for name in rep.__dataclass_fields__:
            assert repr(getattr(rep, name)) == repr(getattr(want, name)), name

    def test_info_line_counts_points_and_calls_per_stage(self, exterior, monkeypatch, caplog):
        tables, w_table = [], cloak._w_table

        def counted(radii, mat, core, freqs, N):
            if radii.shape[1] > 1:
                tables.append((len(radii), list(freqs)))
            return w_table(radii, mat, core, freqs, N)

        monkeypatch.setattr(cloak, "_w_table", counted)
        with caplog.at_level(logging.INFO, logger="escat.cloak"):
            rep = design_svanishing(exterior=exterior, **SMALL_DESIGN)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("design polish:")]
        assert len(lines) == 1
        found = re.fullmatch(
            r"design polish: (\d+) points in (\d+) calls in stage 0, (\d+) points in (\d+) calls in stage 1",
            lines[0],
        )
        assert found is not None
        stages = [[rows for rows, f in tables if f == at] for at in ([0.1, 3e-4], [3e-4])]
        assert [int(g) for g in found.groups()] == [
            sum(stages[0]), len(stages[0]), sum(stages[1]), len(stages[1]),
        ]
        assert rep.polish_stage_evaluations == [sum(stages[0]), sum(stages[1])]
        # a Jacobian of the 7 parameters is one call in both stages
        assert max(stages[0]) == max(stages[1]) == 7

    def test_stage1_builds_each_jacobian_once(self, exterior, monkeypatch):
        # with fewer residuals than parameters, the first Newton step reuses
        # the full Jacobian the subset was picked from
        points, forward_jacobian = [], cloak._forward_jacobian

        def spy(residuals, x, f, hi_vec):
            points.append(x.copy())
            return forward_jacobian(residuals, x, f, hi_vec)

        monkeypatch.setattr(cloak, "_forward_jacobian", spy)
        rep = design_svanishing(exterior=exterior, **SMALL_DESIGN)
        assert len(points) >= 2
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
        # the start point, then 7 rows per Jacobian, then the line-search points
        assert rep.polish_stage_evaluations[1] >= 1 + 7 * len(points)

    def test_coincident_radii_are_unusable(self, exterior):
        # two fractions clipped onto one bound give a zero-thickness layer,
        # which LayeredStructure rejects; w marks that row unusable
        objective = coat_objective(exterior, 3, 0, [0.1])
        X = np.tile((objective.lo_vec + objective.hi_vec) / 2, (2, 1))
        X[0, -2:] = objective.hi_vec[-1]
        X[1, -2:] = 0.3, 0.6
        _, usable = objective.w(X, [0.1])
        assert usable.tolist() == [False, True]
        with pytest.raises(DomainError, match="strictly decreasing"):
            objective.structure(X[0])

    def test_rejected_jacobian_column_keeps_the_design(self, exterior, monkeypatch):
        # the guard rejects one column point of a stage-1 Jacobian: the
        # iteration stops there and the design still returns its report
        w_table, probes, rejected = cloak._w_table, [0.1 / 100.0, 0.1 / 1000.0], []

        def reject_a_column(radii, mat, core, freqs, N):
            w, passed = w_table(radii, mat, core, freqs, N)
            if len(radii) > 1 and list(freqs) == probes:
                passed[1] = False
                rejected.append(len(radii))
            return w, passed

        monkeypatch.setattr(cloak, "_w_table", reject_a_column)
        rep = TestPolishFailures.design(exterior)
        # one Jacobian of the 3 parameters after the start point
        assert rejected == [3] and rep.polish_stage_evaluations[1] == 1 + 3
        assert rep.objective < cloak.PENALTY
        assert np.isfinite(rep.reduction_factor)


class TestScalingReport:
    def test_epsilon_one_consistency(self, exterior):
        s = bare_cavity(exterior)
        rep = scaling_report(s, OMEGA, 1, [0.5, 1.0])
        want = np.linalg.norm(layered_esc(s, OMEGA, 0))
        assert abs(rep["orders"][0]["norms"][-1] - want) < 1e-14 * want

    def test_solid_core_norms_are_per_entry(self, exterior, interior):
        s = LayeredStructure(
            radii=(2.0, 1.0), layers=(Material(1.0, 3.0, 2.0),), exterior=exterior, inner=interior
        )
        eps = [0.5, 0.1, 0.02]
        rep = scaling_report(s, 1.3, 3, eps)
        for n in range(4):
            want = [np.linalg.norm(layered_esc(s, e * 1.3, n)) for e in sorted(eps)]
            assert rep["orders"][n]["norms"] == want

    def test_designed_structure_gains_two_orders(self, design_report, exterior):
        eps = np.geomspace(1e-3, 1e-2, 8)
        sr_d = scaling_report(design_report.structure, 1.0, 0, eps)
        sr_b = scaling_report(bare_cavity(exterior), 1.0, 0, eps)
        diff = sr_d["orders"][0]["exponent"] - sr_b["orders"][0]["exponent"]
        assert diff >= 2.0
