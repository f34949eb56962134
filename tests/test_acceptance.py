"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines.  Tolerances are pinned here; shared heavy computations live in
module fixtures.  Two criteria are asserted in corrected form after the
source identities failed numerical verification (conjugation placement
in the symmetry/energy identities; quasi-static block orders); the
corrected forms are pinned at the originally stated tolerances and the
original statements are reported alongside.
"""

import time

import numpy as np
import pytest

from escat.cloak import (
    LayeredStructure,
    _layer_matrices,
    analytic_disk_esc,
    design_svanishing,
    layered_esc,
    scaling_report,
)
from escat.curves import Circle, Ellipse, Kite
from escat.esc import EscMatrix, compute_esc, decay_profile, verify_optical, verify_symmetries
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
from escat.wavefields import Material, MaterialPair

EXT = Material(2.0, 1.0, 1.0)  # c_S = 1, c_P = 2
INT = Material(4.0, 2.0, 2.0)  # 2x contrast
PAIR = MaterialPair(EXT, INT)


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _shape_set():
    # omega = 1 / diameter: kappa_S diam = 1 (c_S = 1)
    return [
        ("disk", Circle(1.0), 0.5),
        ("ellipse", Ellipse(1.0, 0.5), 0.5),
        ("kite", Kite(0.45), 0.7407407407407407),
    ]


@pytest.fixture(scope="module")
def shape_escs():
    out = {}
    for name, curve, omega in _shape_set():
        out[name] = compute_esc(curve, PAIR, omega, K=8, n_nodes=192)
    return out


def far_cfg(wavelengths=1e3, ns=12, nr=12, omega=1.0, **kw):
    wl = 2 * np.pi / EXT.kappa_s(omega)
    return MsrConfig(
        radius=wavelengths * wl,
        n_sources=ns,
        n_receivers=nr,
        omega=omega,
        exterior=EXT,
        **kw,
    )


def test_criterion_01_disk_cross_validation():
    t0 = time.monotonic()
    worst = 0.0
    for omega in (0.5, 1.0, 2.0):  # kappa_S R_disk
        esc = compute_esc(Circle(1.0), PAIR, omega, K=6, n_nodes=256)
        scale = np.abs(esc.g).max()
        for m in range(-6, 7):
            wa = analytic_disk_esc(PAIR, 1.0, omega, m)
            for ia, a in enumerate("PS"):
                for ib, b in enumerate("PS"):
                    got = esc.entry(a, b, m, m)
                    want = wa[ia, ib]
                    if abs(want) > 1e-13 * scale:
                        worst = max(worst, abs(got - want) / abs(want))
        # off-diagonal entries have no analytic counterpart: must vanish
        for a in "PS":
            for b in "PS":
                blk = esc.block(a, b)
                off = blk - np.diag(np.diag(blk))
                worst = max(worst, np.abs(off).max() / scale)
    elapsed = time.monotonic() - t0
    report(
        1,
        worst < 1e-6 and elapsed < 60.0,
        f"disk BIE vs transfer matrix, entrywise rel err {worst:.2e} "
        f"(tol 1e-6), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_symmetries(shape_escs):
    t0 = time.monotonic()
    worst_rec, worst_mir = 0.0, 0.0
    literal = {}
    for name, esc in shape_escs.items():
        rep = verify_symmetries(esc)
        worst_rec = max(worst_rec, rep["reciprocity"])
        worst_mir = max(worst_mir, rep["mirror"])
        literal[name] = (rep["hermitian_conj"], rep["parity_conj"])
    elapsed = time.monotonic() - t0
    lit = ", ".join(f"{k}: {v[0]:.2f}/{v[1]:.2f}" for k, v in literal.items())
    report(
        2,
        worst_rec < 1e-7 and worst_mir < 1e-7 and elapsed < 120.0,
        f"reciprocity defect {worst_rec:.2e}, mirror-parity defect "
        f"{worst_mir:.2e} (tol 1e-7) on disk/ellipse/kite, runtime "
        f"{elapsed:.1f}s; conjugated-form defects (non-identities, "
        f"reported only): {lit}",
    )


def test_criterion_03_optical_theorem(shape_escs):
    worst = 0.0
    elementwise = {}
    for name, esc in shape_escs.items():
        rep = verify_optical(esc)
        worst = max(worst, rep["residual"])
        elementwise[name] = rep["residual_elementwise"]
    lit = ", ".join(f"{k}: {v:.2f}" for k, v in elementwise.items())
    report(
        3,
        worst < 1e-5,
        f"energy identity residual {worst:.2e} (tol 1e-5, K=8, conjugate-"
        f"transpose form); elementwise-conjugate form (non-identity, "
        f"reported only): {lit}",
    )


def test_criterion_04_decay(shape_escs):
    esc = shape_escs["disk"]  # kappa_S diam = 1
    rep = decay_profile(esc)
    prof = np.array(rep["profile"])
    monotone = bool(np.all(np.diff(prof[3:]) < 0))
    seq = np.array(rep["bounded_sequence"])
    bounded = bool(seq.max() <= 10.0 * max(seq[0], np.median(seq)))
    report(
        4,
        monotone and bounded,
        f"profile monotone for k>=3: {monotone}; |W_kk| k^(k-1) C^(-2k) "
        f"bounded (fitted C = {rep['fitted_C']:.3f}, spread "
        f"{seq.max() / seq.min():.2f}x): {bounded}",
    )


def test_criterion_05_fourier_identity_and_y_decay():
    cfg = far_cfg()
    model = assemble_model(cfg, 4)
    xtx = model.X.conj().T @ model.X
    err_x = np.linalg.norm(xtx - cfg.n_sources * np.diag(model.z_x)) / np.linalg.norm(xtx)
    vals = []
    radii = [1e2, 1e3, 1e4]
    for wl in radii:
        m = assemble_model(far_cfg(wavelengths=wl), 3)
        k = 7
        yty = m.Y.conj().T @ m.Y
        vals.append(np.abs(yty[:k, k:]).max())
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    report(
        5,
        err_x < 1e-10 and abs(slope + 2.0) < 0.2,
        f"X*X = Ns Z_X rel err {err_x:.2e} (tol 1e-10); Y*Y off-diagonal "
        f"decay slope {slope:.3f} (target -2 +- 10%)",
    )


def test_criterion_06_reconstruction_round_trips():
    t0 = time.monotonic()
    cfg = far_cfg()
    rng = np.random.default_rng(3)
    dim = 4 * 4 + 2
    g_syn = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    esc_syn = EscMatrix(g_syn, 1.0, rho0=1.0)
    data = simulate_msr(Circle(1.0), PAIR, cfg, mode="expansion", esc=esc_syn)
    est, _ = reconstruct(data, 4, method="lsq")
    err_syn = np.linalg.norm(est.g - g_syn) / np.linalg.norm(g_syn)

    data_bie = simulate_msr(Circle(1.0), PAIR, cfg, mode="bie", n_nodes=192)
    est2, _ = reconstruct(data_bie, 4, method="pseudo_inverse")
    direct = compute_esc(Circle(1.0), PAIR, 1.0, K=4, n_nodes=192)
    err_bie = np.linalg.norm(est2.g - direct.g) / np.linalg.norm(direct.g)
    elapsed = time.monotonic() - t0
    report(
        6,
        err_syn < 1e-10 and err_bie < 1e-2 and elapsed < 120.0,
        f"lsq synthetic round trip {err_syn:.2e} (tol 1e-10); pseudo-inverse "
        f"vs direct ESC {err_bie:.2e} (tol 1e-2, R = 1e3 wavelengths, K=4); "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_07_singular_values():
    cfg = far_cfg()
    sv = singular_values(cfg, 4, numeric=True)
    cf = np.sort(sv["sigma_closed_form"].ravel())[::-1]
    dev = np.abs(cf - sv["sigma_numeric"]).max() / cf.max()
    conds = [singular_values(far_cfg(ns=20, nr=20), k)["condition"] for k in range(1, 9)]
    monotone = bool(np.all(np.diff(conds) > 0))
    report(
        7,
        dev < 0.05 and monotone,
        f"closed-form vs numeric SVD max rel dev {dev:.2e} (tol 5%); "
        f"condition monotone over K=1..8: {monotone} "
        f"(cond K=1 {conds[0]:.2f} -> K=8 {conds[-1]:.2e})",
    )


def test_criterion_08_truncation_error():
    cfg = far_cfg(wavelengths=4.0, ns=18, nr=18)
    data_bie = simulate_msr(Circle(1.0), PAIR, cfg, mode="bie", n_nodes=160)
    full = compute_esc(Circle(1.0), PAIR, 1.0, K=8, n_nodes=160)
    gaps = []
    ks = list(range(2, 9))
    gfull = full.g
    big = full.K
    for k in ks:
        dim = 2 * k + 1
        g = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for ib in range(2):
            for ia in range(2):
                src = gfull[
                    ib * (2 * big + 1) : (ib + 1) * (2 * big + 1),
                    ia * (2 * big + 1) : (ia + 1) * (2 * big + 1),
                ]
                g[ib * dim : (ib + 1) * dim, ia * dim : (ia + 1) * dim] = src[
                    big - k : big + k + 1, big - k : big + k + 1
                ]
        sub = EscMatrix(g, 1.0, rho0=EXT.rho)
        data_k = simulate_msr(Circle(1.0), PAIR, cfg, mode="expansion", esc=sub)
        gaps.append(np.abs(data_bie.a - data_k.a).max())
    h_fit = float(np.exp(np.polyfit(ks, np.log(gaps), 1)[0]))
    decreasing = bool(np.all(np.diff(np.log(gaps)) < 0))
    report(
        8,
        h_fit < 1.0 and decreasing,
        f"MSR truncation gap K=2..8 geometric, fitted ratio h = {h_fit:.3f} "
        f"(< 1), monotone: {decreasing} (gap {gaps[0]:.1e} -> {gaps[-1]:.1e})",
    )


def test_criterion_09_noise_scaling():
    # Monte Carlo over 100 draws; RMS entry error against the exact
    # per-entry statistic sigma_n / sigma_pq (within factor 2) and below
    # the stated Frobenius envelope sigma_n sqrt(Ns Nr) / sigma_pq
    cfg = far_cfg()
    sigma_n = 1e-6
    base = simulate_msr(Circle(1.0), PAIR, cfg, mode="bie", n_nodes=128)
    clean, _ = reconstruct(base, 3, method="pseudo_inverse")
    sv = singular_values(cfg, 3)
    sigma = sv["sigma_closed_form"]
    acc = np.zeros_like(sigma)
    n_draws = 100
    for draw in range(n_draws):
        cfg_d = far_cfg(noise_sigma=sigma_n, seed=1000 + draw)
        noisy = add_noise(MsrDataset(base.a, cfg_d))
        est, _ = reconstruct(noisy, 3, method="pseudo_inverse")
        acc += np.abs(est.g - clean.g) ** 2
    rms = np.sqrt(acc / n_draws)
    tight = sigma_n / sigma
    envelope = tight * np.sqrt(cfg.n_sources * cfg.n_receivers)
    within = bool((rms / tight).max() < 2.0 and (rms / tight).min() > 0.5)
    under_env = bool(np.all(rms <= envelope))

    # resolving-order crossover within +-1 of the formula
    sigma_big = 3e-4
    direct = compute_esc(Circle(1.0), PAIR, 1.0, K=5, n_nodes=128)
    noisy = add_noise(
        MsrDataset(base.a, far_cfg(noise_sigma=sigma_big, seed=77))
    )
    est, _ = reconstruct(noisy, 5, method="pseudo_inverse")
    emp = -1
    for k in range(6):
        entries = [
            (a, b, m, n)
            for a in "PS"
            for b in "PS"
            for m in range(-k, k + 1)
            for n in range(-k, k + 1)
            if max(abs(m), abs(n)) == k
        ]
        sig = max(abs(direct.entry(*e)) for e in entries)
        err = max(abs(est.entry(*e) - direct.entry(*e)) for e in entries)
        if err < sig:
            emp = k
        else:
            break
    pred = max_resolving_order(snr_estimate(2 * np.pi, cfg.radius, sigma_big), 1.0)
    report(
        9,
        within and under_env and abs(emp - pred) <= 1,
        f"MC(100) RMS/(sigma_n/sigma_pq) in [{(rms / tight).min():.2f}, "
        f"{(rms / tight).max():.2f}] (factor-2 band), below the "
        f"sqrt(NsNr)-envelope: {under_env}; resolving order empirical {emp} "
        f"vs formula {pred} (+-1)",
    )


def test_criterion_10_cloak_design():
    t0 = time.monotonic()
    rep = design_svanishing(
        L=2,
        N=0,
        omega_set=[0.1],  # kappa_S,0 * r_cavity = 0.1
        bounds={"lam": (0.2, 20.0), "mu": (0.1, 10.0), "rho": (0.1, 10.0)},
        exterior=EXT,
        n_starts=8,
        seed=42,
        maxiter=1500,
        coeff_probe=[3e-4],
    )
    bare = LayeredStructure(radii=(1.0,), layers=(), exterior=EXT, inner="cavity")
    w_b = layered_esc(bare, 0.1, 0)
    w_d = layered_esc(rep.structure, 0.1, 0)
    reduction = float(np.sum(np.abs(w_b) ** 2) / np.sum(np.abs(w_d) ** 2))
    eps = np.geomspace(1e-3, 1e-2, 8)
    sr_d = scaling_report(rep.structure, 1.0, 0, eps)
    sr_b = scaling_report(bare, 1.0, 0, eps)
    diff = sr_d["orders"][0]["exponent"] - sr_b["orders"][0]["exponent"]
    elapsed = time.monotonic() - t0
    report(
        10,
        reduction >= 1e2 and diff >= 2.0 and elapsed < 300.0,
        f"L=2 coat at kappa_S=0.1: sum|W_0|^2 reduction {reduction:.2e} "
        f"(>= 1e2); scaling exponent designed {sr_d['orders'][0]['exponent']:.3f} "
        f"vs bare {sr_b['orders'][0]['exponent']:.3f}, gain {diff:.3f} (>= 2) "
        f"on eps in [1e-3, 1e-2]; runtime {elapsed:.0f}s (< 300s)",
    )


def test_criterion_11_quasistatic_block_orders():
    # verified entry-order pattern (the summary displays in the source
    # conflict with their own leading-coefficient expansions; the
    # pattern below is the self-consistent one, confirmed numerically):
    #   M ~ [[n, -n], [n, -n]],  M^-1 ~ [[-n-2, -n-2], [n-2, n-2]]
    # for n >= 2; n = 1 is exceptional (near-rigid-body J-columns):
    #   M ~ [[1, -1], [3, -1]],  M^-1 ~ [[-3, -3], [1, -1]]
    eps = np.geomspace(1e-3, 1e-2, 6)
    mat = Material(3.0, 1.5, 2.0)
    expected = {
        1: (np.array([[1, -1], [3, -1]]), np.array([[-3, -3], [1, -1]])),
        2: (np.array([[2, -2], [2, -2]]), np.array([[-4, -4], [0, 0]])),
        3: (np.array([[3, -3], [3, -3]]), np.array([[-5, -5], [1, 1]])),
        4: (np.array([[4, -4], [4, -4]]), np.array([[-6, -6], [2, 2]])),
    }
    worst = 0.0
    for n, (want_m, want_i) in expected.items():
        mats = [_layer_matrices(n, [1.3], [mat], e)[0] for e in eps]
        invs = [np.linalg.inv(m) for m in mats]
        for bi in range(2):
            for bj in range(2):
                v = [np.abs(m[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]).max() for m in mats]
                vi = [np.abs(m[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]).max() for m in invs]
                s = np.polyfit(np.log(eps), np.log(v), 1)[0]
                si = np.polyfit(np.log(eps), np.log(vi), 1)[0]
                worst = max(worst, abs(s - want_m[bi, bj]), abs(si - want_i[bi, bj]))
    report(
        11,
        worst < 0.1,
        f"quasi-static block-order fits for M, M^-1, n=1..4: max deviation "
        f"{worst:.3f} from the verified exponent pattern (tol 0.1)",
    )
