"""Acquisition model, reconstruction and stability diagnostics."""

import csv
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escat import msr
from escat.curves import Circle, Ellipse
from escat.errors import ConfigError, DomainError, RangeError, ReconstructionError
from escat.esc import EscMatrix, compute_esc, verify_symmetries
from escat.msr import (
    MsrConfig,
    MsrDataset,
    add_noise,
    assemble_model,
    max_resolving_order,
    reconstruct,
    simulate_msr,
    singular_values,
    snr_estimate,
)
from escat.specialfun import _fold
from escat.wavefields import Material

OMEGA = 1.0


def far_config(exterior, wavelengths=1e3, ns=12, nr=12, **kw):
    wl = 2 * np.pi / exterior.kappa_s(OMEGA)
    return MsrConfig(
        radius=wavelengths * wl,
        n_sources=ns,
        n_receivers=nr,
        omega=OMEGA,
        exterior=exterior,
        **kw,
    )


@pytest.fixture(scope="module")
def cfg(exterior):
    return far_config(exterior)


def synthetic_esc(K, rho0=1.0, seed=3):
    rng = np.random.default_rng(seed)
    dim = 4 * K + 2
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return EscMatrix(g, OMEGA, rho0=rho0)


class TestModelMatrices:
    def test_fourier_identity(self, cfg):
        model = assemble_model(cfg, 4)
        xtx = model.X.conj().T @ model.X
        want = cfg.n_sources * np.diag(model.z_x)
        assert np.linalg.norm(xtx - want) < 1e-10 * np.linalg.norm(xtx)

    def test_truncation_precondition(self, cfg):
        with pytest.raises(DomainError):
            assemble_model(cfg, 6)  # 2K+1 = 13 > 12
        with pytest.raises(DomainError, match="nonnegative, got -1"):
            assemble_model(cfg, -1)

    def test_order_above_bessel_range(self, exterior):
        # K = MAX_ORDER + 1 = 257 needs 2K+1 = 515 sources and receivers
        with pytest.raises(RangeError, match="257"):
            assemble_model(far_config(exterior, ns=515, nr=515), 257)
        assert assemble_model(far_config(exterior, ns=513, nr=513), 256).Y.shape == (1026, 1026)

    def test_yty_offdiagonal_decay_slope(self, exterior):
        slopes_src = []
        radii_wl = [1e2, 1e3, 1e4]
        vals = []
        for wl in radii_wl:
            model = assemble_model(far_config(exterior, wavelengths=wl), 3)
            k = 2 * 3 + 1
            yty = model.Y.conj().T @ model.Y
            off = np.abs(yty[:k, k:]).max()
            vals.append(off)
        slope = np.polyfit(np.log(radii_wl), np.log(vals), 1)[0]
        assert abs(slope + 2.0) < 0.2

    @pytest.mark.parametrize("K", [0, 1, 4])
    def test_hankel_table_is_the_per_order_fold(self, cfg, monkeypatch, K):
        # Y's factors read one Hankel table over the orders; one _fold call
        # per order gives the same bytes
        got = assemble_model(cfg, K)

        def per_order(z, lo, hi, t):
            return np.array([[v[0] for v in _fold(z, m, m, t)] for m in range(lo, hi + 1)]).T

        monkeypatch.setattr(msr, "_fold", per_order)
        want = assemble_model(cfg, K)
        for name in ("X", "Y", "z_x", "z_y"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_yty_approaches_diagonal(self, cfg):
        model = assemble_model(cfg, 4)
        yty = model.Y.conj().T @ model.Y
        want = cfg.n_receivers * np.diag(model.z_y)
        assert np.linalg.norm(yty - want) < 1e-3 * np.linalg.norm(yty)


class TestSimulate:
    def test_expansion_reproduces_model_product(self, pair, cfg):
        esc = synthetic_esc(4)
        data = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=esc)
        model = assemble_model(cfg, 4)
        want = model.X @ esc.g @ model.Y.conj().T
        assert np.abs(data.a - want).max() < 1e-12 * np.abs(want).max()

    def test_receivers_inside_inclusion_rejected(self, pair, exterior):
        # R = 0.5 around the unit disk: every receiver is inside, in both modes
        cfg_in = MsrConfig(radius=0.5, n_sources=4, n_receivers=4, omega=OMEGA, exterior=exterior)
        for mode in ("bie", "expansion"):
            with pytest.raises(DomainError, match=r"receiver at \[0\.5, 0\.0\] lies inside"):
                simulate_msr(Circle(1.0), pair, cfg_in, mode=mode, K=1, n_nodes=64)

    def test_receivers_within_the_largest_radius_tested_one_by_one(self, pair, exterior):
        # R = 0.75 is below both ellipses' largest radius 1; the receivers
        # (+-0.75, 0) are outside the tall one and inside the wide one
        cfg_mid = MsrConfig(radius=0.75, n_sources=2, n_receivers=2, omega=OMEGA, exterior=exterior)
        data = simulate_msr(Ellipse(0.5, 1.0), pair, cfg_mid, mode="bie", n_nodes=64)
        assert np.isfinite(data.a).all()
        with pytest.raises(DomainError, match="inside the inclusion"):
            simulate_msr(Ellipse(1.0, 0.5), pair, cfg_mid, mode="bie", n_nodes=64)

    def test_far_receivers_skip_the_winding_test(self, pair, cfg, monkeypatch):
        monkeypatch.setattr(Circle, "contains", lambda self, p: pytest.fail("contains called"))
        simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=synthetic_esc(4))

    def test_esc_at_other_omega_or_rho0_rejected(self, pair, cfg):
        for esc in (EscMatrix(np.eye(18), 2.0 * OMEGA), synthetic_esc(4, rho0=2.0)):
            with pytest.raises(DomainError, match="does not match the acquisition"):
                simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=esc)

    def test_k_given_with_esc_must_match(self, pair, cfg):
        esc = synthetic_esc(4)
        alone = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=esc)
        same = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", K=4, esc=esc)
        assert np.array_equal(same.a, alone.a)
        with pytest.raises(DomainError, match=r"^K = 1 does not match the EscMatrix's K = 4$"):
            simulate_msr(Circle(1.0), pair, cfg, mode="expansion", K=1, esc=esc)

    def test_bie_vs_expansion_truncation_sweep(self, pair, exterior):
        # the entrywise gap between the solver data and the truncated
        # model decreases geometrically in K (fitted ratio < 1); probe
        # at a small radius where the tail is visible above roundoff
        cfg_near = far_config(exterior, wavelengths=4.0, ns=14, nr=14)
        data_bie = simulate_msr(Circle(1.0), pair, cfg_near, mode="bie", n_nodes=128)
        full = compute_esc(Circle(1.0), pair, OMEGA, K=6, n_nodes=128)
        gaps = []
        ks = range(2, 7)
        for k in ks:
            sub = EscMatrix(_truncate_global(full, k), OMEGA, rho0=exterior.rho)
            data_k = simulate_msr(Circle(1.0), pair, cfg_near, mode="expansion", esc=sub)
            gaps.append(np.abs(data_bie.a - data_k.a).max())
        ratio = np.exp(np.polyfit(list(ks), np.log(gaps), 1)[0])
        assert ratio < 1.0
        assert gaps[-1] < gaps[0]

    def test_deterministic_without_noise(self, pair, cfg):
        d1 = simulate_msr(Circle(1.0), pair, cfg, mode="bie", n_nodes=64)
        d2 = simulate_msr(Circle(1.0), pair, cfg, mode="bie", n_nodes=64)
        assert np.array_equal(d1.a, d2.a)

    def test_signal_strength_scale(self, pair, exterior):
        # recorded magnitudes ~ |dD| / sqrt(R)
        mags = []
        for wl in (1e2, 1e4):
            c = far_config(exterior, wavelengths=wl, ns=6, nr=6)
            d = simulate_msr(Circle(1.0), pair, c, mode="bie", n_nodes=64)
            mags.append(np.abs(d.a).max())
        ratio = mags[0] / mags[1]
        assert 5.0 < ratio < 20.0  # sqrt(1e4/1e2) = 10 up to O(1) factors


def _truncate_global(esc, k):
    big = esc.K
    dim = 2 * k + 1
    g = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for ib in range(2):
        for ia in range(2):
            src = esc.g[
                ib * (2 * big + 1) : (ib + 1) * (2 * big + 1),
                ia * (2 * big + 1) : (ia + 1) * (2 * big + 1),
            ]
            g[ib * dim : (ib + 1) * dim, ia * dim : (ia + 1) * dim] = src[
                big - k : big + k + 1, big - k : big + k + 1
            ]
    return g


class TestNoise:
    def test_zero_sigma_is_identity(self, pair, cfg):
        data = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=synthetic_esc(4))
        noisy = add_noise(data)
        assert np.array_equal(noisy.a, data.a)

    def test_empirical_variance(self, exterior):
        cfg = far_config(exterior, ns=160, nr=160, noise_sigma=0.37, seed=11)
        base = MsrDataset(
            np.zeros((2 * cfg.n_sources, 2 * cfg.n_receivers), dtype=complex), cfg
        )
        noisy = add_noise(base)
        var = np.mean(np.abs(noisy.a) ** 2)  # 102400 samples
        assert abs(var - 0.37**2) < 0.02 * 0.37**2

    def test_seed_control(self, exterior, pair):
        mk = lambda s: add_noise(
            simulate_msr(
                Circle(1.0),
                pair,
                far_config(exterior, ns=8, nr=8, noise_sigma=0.1, seed=s),
                mode="expansion",
                esc=synthetic_esc(3),
            )
        )
        assert np.array_equal(mk(5).a, mk(5).a)
        assert not np.array_equal(mk(5).a, mk(6).a)


class TestReconstruct:
    def test_lsq_roundtrip_exact_model(self, pair, cfg):
        esc = synthetic_esc(4)
        data = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=esc)
        est, rep = reconstruct(data, 4, method="lsq")
        err = np.linalg.norm(est.g - esc.g) / np.linalg.norm(esc.g)
        assert err < 1e-10
        assert rep["relative_data_residual"] < 1e-10

    def test_pseudo_inverse_matches_direct_esc(self, pair, cfg, exterior):
        data = simulate_msr(Circle(1.0), pair, cfg, mode="bie", n_nodes=128)
        est, _ = reconstruct(data, 4, method="pseudo_inverse")
        direct = compute_esc(Circle(1.0), pair, OMEGA, K=4, n_nodes=128)
        err = np.linalg.norm(est.g - direct.g) / np.linalg.norm(direct.g)
        assert err < 1e-2

    def test_pinv_and_lsq_converge_with_radius(self, pair, exterior):
        devs = []
        for wl in (1e2, 1e3):
            c = far_config(exterior, wavelengths=wl, ns=10, nr=10)
            data = simulate_msr(Circle(1.0), pair, c, mode="bie", n_nodes=96)
            e1, _ = reconstruct(data, 3, method="pseudo_inverse")
            e2, _ = reconstruct(data, 3, method="lsq")
            devs.append(np.linalg.norm(e1.g - e2.g) / np.linalg.norm(e2.g))
        # O(R^-2) agreement between the two estimators
        assert devs[1] < devs[0] * 1e-1

    def test_noiseless_reconstruction_passes_symmetry_check(self, pair, cfg, exterior):
        data = simulate_msr(Circle(1.0), pair, cfg, mode="bie", n_nodes=128)
        est, _ = reconstruct(data, 4, method="lsq")
        rep = verify_symmetries(est)
        assert rep["reciprocity"] < 1e-3  # model-error level

    def test_constrained_variant_improves_energy_residual(self, pair, cfg, exterior):
        from escat.esc import verify_optical

        cfg_noisy = far_config(exterior, ns=12, nr=12, noise_sigma=1e-4, seed=9)
        data = add_noise(simulate_msr(Circle(1.0), pair, cfg_noisy, mode="bie", n_nodes=96))
        raw, _ = reconstruct(data, 3, method="lsq")
        con, _ = reconstruct(data, 3, method="lsq_constrained")
        assert verify_symmetries(con)["reciprocity"] < 1e-12
        assert verify_optical(con)["residual"] <= verify_optical(raw)["residual"]

    def test_constrained_divergence_is_an_error(self, pair, cfg):
        # far from the energy identity the projections overflow: an error
        # naming the method, not an all-NaN estimate or RuntimeWarnings
        rng = np.random.default_rng(0)
        g = rng.uniform(1.0, 5.0, (10, 10)) * np.exp(2j * np.pi * rng.random((10, 10)))
        esc = EscMatrix(g, OMEGA, rho0=1.0)
        data = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=esc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ReconstructionError, match="lsq_constrained"):
                reconstruct(data, 2, method="lsq_constrained")

    def test_k_too_large_rejected(self, pair, cfg):
        data = simulate_msr(Circle(1.0), pair, cfg, mode="expansion", esc=synthetic_esc(3))
        with pytest.raises(DomainError):
            reconstruct(data, 6)

    def test_noise_error_envelope(self, pair, cfg, exterior):
        # mean-squared entry error ~ sigma_noise sqrt(Ns Nr) / sigma_pq
        sigma_n = 1e-6
        base = simulate_msr(Circle(1.0), pair, cfg, mode="bie", n_nodes=96)
        clean, _ = reconstruct(base, 3, method="pseudo_inverse")
        sv = singular_values(cfg, 3)
        sigma = sv["sigma_closed_form"]
        n_draws = 40
        acc = np.zeros_like(sigma)
        for draw in range(n_draws):
            cfg_d = far_config(exterior, ns=12, nr=12, noise_sigma=sigma_n, seed=100 + draw)
            noisy = MsrDataset(base.a, cfg_d)
            noisy = add_noise(noisy)
            est, _ = reconstruct(noisy, 3, method="pseudo_inverse")
            acc += np.abs(est.g - clean.g) ** 2
        rms = np.sqrt(acc / n_draws)
        # tight per-entry statistic: RMS = sigma_noise / sigma_pq; the
        # Frobenius-norm chain gives the looser upper envelope with the
        # extra sqrt(Ns Nr) factor
        tight = sigma_n / sigma
        envelope = tight * np.sqrt(cfg.n_sources * cfg.n_receivers)
        assert np.all(rms <= envelope)
        ratio = rms / tight
        assert ratio.max() < 2.0
        assert ratio.min() > 0.5


class TestSingularValues:
    def test_closed_form_vs_numeric_svd(self, cfg):
        sv = singular_values(cfg, 3, numeric=True)
        cf = np.sort(sv["sigma_closed_form"].ravel())[::-1]
        nu = sv["sigma_numeric"]
        assert np.abs(cf - nu).max() / cf.max() < 0.05

    def test_condition_monotone_in_k(self, exterior):
        cfg = far_config(exterior, ns=20, nr=20)
        conds = [singular_values(cfg, k)["condition"] for k in range(1, 9)]
        assert np.all(np.diff(conds) > 0)

    def test_k0_formula(self, cfg, exterior):
        # single sigma per branch: sqrt(Ns Nr) |H_0'(kappa R)| / (4 rho^2 w^2 c^2)
        from scipy.special import h1vp

        sv = singular_values(cfg, 0)
        sigma = sv["sigma_closed_form"]
        for i, mode in enumerate("PS"):
            c = exterior.c_p if mode == "P" else exterior.c_s
            kappa = exterior.kappa(OMEGA, mode)
            want = (
                np.sqrt(cfg.n_sources * cfg.n_receivers)
                * abs(h1vp(0, kappa * cfg.radius))
                / (4 * exterior.rho**2 * OMEGA**2 * c * c)
            )
            assert abs(sigma[i, i] - want) / want < 1e-12

    def test_numeric_guarded_for_large_k(self, exterior):
        cfg = far_config(exterior, ns=40, nr=40)
        with pytest.raises(DomainError):
            singular_values(cfg, 7, numeric=True)


class TestResolvingOrder:
    def test_formula_examples(self):
        assert max_resolving_order(1.0, 1.0) == 1
        assert max_resolving_order(100.0, 1.0) == 4

    def test_snr_estimate(self):
        assert snr_estimate(2 * np.pi, 100.0, 0.01) == pytest.approx(2 * np.pi / 10 / 0.01)

    def test_crossover_matches_prediction(self, pair, cfg, exterior):
        # empirical recoverability order vs the formula, within +-1
        sigma_n = 3e-4
        base = simulate_msr(Circle(1.0), pair, cfg, mode="bie", n_nodes=128)
        direct = compute_esc(Circle(1.0), pair, OMEGA, K=5, n_nodes=128)
        cfg_d = far_config(exterior, ns=12, nr=12, noise_sigma=sigma_n, seed=77)
        noisy = add_noise(MsrDataset(base.a, cfg_d))
        est, _ = reconstruct(noisy, 5, method="pseudo_inverse")
        emp = -1
        for k in range(6):
            signal = max(
                abs(direct.entry(a, b, m, n))
                for a in "PS"
                for b in "PS"
                for m in range(-k, k + 1)
                for n in range(-k, k + 1)
                if max(abs(m), abs(n)) == k
            )
            err = max(
                abs(est.entry(a, b, m, n) - direct.entry(a, b, m, n))
                for a in "PS"
                for b in "PS"
                for m in range(-k, k + 1)
                for n in range(-k, k + 1)
                if max(abs(m), abs(n)) == k
            )
            if err < signal:
                emp = k
            else:
                break
        snr = snr_estimate(2 * np.pi, cfg.radius, sigma_n)
        pred = max_resolving_order(snr, 1.0)
        assert abs(emp - pred) <= 1


class TestDatasetIO:
    def test_quarters_are_read_only_views_of_a(self, cfg):
        ns, nr = cfg.n_sources, cfg.n_receivers
        data = MsrDataset(np.arange(4 * ns * nr).reshape(2 * ns, 2 * nr), cfg)
        assert data.a.dtype == complex
        for name, (i, j) in (("a_par_par", (0, 0)), ("a_par_perp", (0, 1)),
                             ("a_perp_par", (1, 0)), ("a_perp_perp", (1, 1))):
            quarter = getattr(data, name)
            assert np.shares_memory(quarter, data.a)
            assert np.array_equal(quarter, data.a[i * ns : (i + 1) * ns, j * nr : (j + 1) * nr])
            with pytest.raises(ValueError, match="read-only"):
                quarter[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(12, 12), (24, 23), (48, 12), (24,), (2, 24, 24)])
    def test_wrongly_shaped_a_rejected(self, cfg, shape):
        with pytest.raises(DomainError, match=r"12 sources x 12 receivers, which need \(24, 24\)"):
            MsrDataset(np.zeros(shape), cfg)

    def test_save_load_round_trip(self, pair, cfg, tmp_path):
        data = add_noise(
            simulate_msr(
                Circle(1.0),
                pair,
                far_config(cfg.exterior, ns=6, nr=6, noise_sigma=0.01, seed=2),
                mode="expansion",
                esc=synthetic_esc(2),
            )
        )
        data.save(tmp_path / "run")
        back = MsrDataset.load(tmp_path / "run")
        assert np.array_equal(back.a, data.a)
        assert back.config.seed == data.config.seed

    def test_truncated_csv_rejected(self, pair, cfg, tmp_path):
        data = simulate_msr(
            Circle(1.0),
            pair,
            far_config(cfg.exterior, ns=5, nr=6),
            mode="expansion",
            esc=synthetic_esc(2),
        )
        data.save(tmp_path / "run")
        csv_path = tmp_path / "run_perp_par.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-2]))
        with pytest.raises(ConfigError, match="run_perp_par.csv"):
            MsrDataset.load(tmp_path / "run")

    @staticmethod
    def special_values_dataset(exterior):
        rng = np.random.default_rng(11)
        config = far_config(exterior, ns=3, nr=4)
        blocks = []
        for _ in range(4):
            re = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))
            im = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))
            blocks.append(re + 1j * im)
        a = blocks[0]
        a[0, 0] = complex(-0.0, 0.0)
        a[0, 1] = complex(5e-324, -2.5e-310)  # subnormal
        a[0, 2] = complex(1e300, -1e300)
        a[1, 0] = complex(0.1, -0.0)
        return MsrDataset(np.block([blocks[:2], blocks[2:]]), config)

    def test_files_match_csv_writer(self, tmp_path, exterior):
        data = self.special_values_dataset(exterior)
        data.save(tmp_path / "run")
        for name, mat in (("par_par", data.a_par_par), ("par_perp", data.a_par_perp),
                          ("perp_par", data.a_perp_par), ("perp_perp", data.a_perp_perp)):
            buf = io.StringIO()
            wr = csv.writer(buf)
            wr.writerow(["s", "r", "re", "im"])
            for s in range(mat.shape[0]):
                for r in range(mat.shape[1]):
                    wr.writerow([s, r, repr(float(mat[s, r].real)), repr(float(mat[s, r].imag))])
            assert (tmp_path / f"run_{name}.csv").read_bytes() == buf.getvalue().encode()
        back = MsrDataset.load(tmp_path / "run")
        for got, want in zip(back.a.ravel(), data.a.ravel()):
            assert repr(got) == repr(want)  # signed zeros and subnormals survive

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[:1] + ["0,x,1.0,2.0\r\n"] + rows[2:], "malformed row"),
            (lambda rows: rows[:1] + ["0,0,1.0\r\n"] + rows[2:], "malformed row"),
            (lambda rows: rows[:-1] + ["3,0,1.0,2.0\r\n"], "out of range"),
            (lambda rows: rows[:-1] + ["0,-1,1.0,2.0\r\n"], "out of range"),
            (lambda rows: rows[:-1] + [rows[1]], r"\(0, 0\) is repeated"),
            (lambda rows: rows[:-1], "1 of 12 .* missing"),
            (lambda rows: rows[:1], "12 of 12 .* missing"),
        ],
        ids=["text", "short-row", "source-range", "receiver-range", "repeated", "missing",
             "header-only"],
    )
    def test_bad_rows_rejected(self, tmp_path, exterior, edit, message):
        self.special_values_dataset(exterior).save(tmp_path / "run")
        path = tmp_path / "run_par_perp.csv"
        rows = path.read_bytes().decode().splitlines(keepends=True)
        path.write_bytes("".join(edit(rows)).encode())
        with pytest.raises(ConfigError, match=rf"run_par_perp\.csv: .*{message}"):
            MsrDataset.load(tmp_path / "run")

    @pytest.mark.parametrize(
        "damage, culprit",
        [
            (lambda p: os.remove(f"{p}.json"), "run.json"),
            (lambda p: os.remove(f"{p}_perp_perp.csv"), "run_perp_perp.csv"),
            (lambda p: open(f"{p}.json", "w").write("{not json"), "run.json"),
            (lambda p: open(f"{p}.json", "w").write('{"cfg": {}}'), "run.json"),
        ],
        ids=["no-header", "no-csv", "header-not-json", "header-without-config"],
    )
    def test_unreadable_dataset_rejected(self, tmp_path, exterior, damage, culprit):
        prefix = tmp_path / "run"
        self.special_values_dataset(exterior).save(prefix)
        damage(prefix)
        with pytest.raises(ConfigError, match=rf"{culprit}: "):
            MsrDataset.load(prefix)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e300, -1e300]
)


@st.composite
def _datasets(draw):
    ns, nr = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    parts = st.lists(_FINITE, min_size=2 * ns * nr, max_size=2 * ns * nr)
    blocks = [np.array(draw(parts)).view(complex).reshape(ns, nr) for _ in range(4)]
    config = MsrConfig(radius=10.0, n_sources=ns, n_receivers=nr, omega=OMEGA,
                       exterior=Material(2.0, 1.0, 1.0))
    return MsrDataset(np.block([blocks[:2], blocks[2:]]), config)


@settings(max_examples=40, deadline=None)
@given(_datasets())
def test_dataset_round_trip_is_bit_exact(data):
    with tempfile.TemporaryDirectory() as tmp:
        data.save(os.path.join(tmp, "run"))
        back = MsrDataset.load(os.path.join(tmp, "run"))
    for name in ("a_par_par", "a_par_perp", "a_perp_par", "a_perp_perp"):
        got, want = getattr(back, name), getattr(data, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
