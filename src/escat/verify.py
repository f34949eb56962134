"""Runnable invariant suites tying the modules together.

Each check returns {name, residual, tol, passed}; a suite passes when
every check does.  The `negate_y_block` flag flips the sign of one Y
sub-block before the model-identity checks -- a negative control that
must trip the suite (used to prove the harness can fail).
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .bie import build_grid, traction_of_single_layer
from .cloak import LayeredStructure, _w_stack
from .curves import Circle, Kite
from .esc import MIRROR_SIGN, MODES, compute_esc, verify_optical, verify_symmetries
from .msr import MsrConfig, assemble_model
from .wavefields import Material, MaterialPair, _wave_table

DEFAULT_EXTERIOR = Material(2.0, 1.0, 1.0)
DEFAULT_INTERIOR = Material(4.0, 2.0, 2.0)

SUITES = ("orthogonality", "jump", "symmetries", "optical", "xtx", "disk")


def _check(name, residual, tol):
    return {
        "name": name,
        "residual": float(residual),
        "tol": float(tol),
        "passed": bool(residual < tol),
    }


def run_suite(names=None, negate_y_block: bool = False) -> list[dict]:
    """Run the selected invariant suites (all by default)."""
    names = list(names) if names else list(SUITES)
    unknown = set(names) - set(SUITES)
    if unknown:
        raise KeyError(f"unknown suite name(s): {sorted(unknown)}")
    out = []
    for name in names:
        out.extend(_RUNNERS[name](negate_y_block))
    return out


def _suite_orthogonality(_negate):
    th = 2.0 * np.pi * np.arange(512) / 512
    er = np.stack([np.cos(th), np.sin(th)], axis=-1)
    et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    w = 2.0 * np.pi / 512
    worst = 0.0
    for n in range(-20, 21, 5):
        for m in range(-20, 21, 5):
            pn = np.exp(1j * n * th)[:, None] * er
            pm = np.exp(1j * m * th)[:, None] * er
            sn = np.exp(1j * n * th)[:, None] * et
            sm = np.exp(1j * m * th)[:, None] * et
            pp = w * np.sum(pn * np.conj(pm))
            ss = w * np.sum(sn * np.conj(sm))
            ps = w * np.sum(pm * np.conj(sm))
            want = 2.0 * np.pi if n == m else 0.0
            worst = max(worst, abs(pp - want), abs(ss - want), abs(ps))
    return [_check("orthogonality_surface_harmonics", worst / (2 * np.pi), 1e-12)]


def _suite_jump(_negate):
    mat = DEFAULT_EXTERIOR
    omega = 1.0
    grid = build_grid(Kite(0.4), 1024)
    rng = np.random.default_rng(7)
    co = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    dens = sum(co[k][None, :] * np.exp(1j * k * grid.t)[:, None] for k in range(4))
    i0 = 37
    x0, n0 = grid.nodes[i0], grid.normals[i0]
    eps = np.array([0.04, 0.02, 0.01])
    outv, inv = [], []
    for e in eps:
        outv.append(traction_of_single_layer(grid, omega, mat, dens, x0 + e * n0, n0))
        inv.append(traction_of_single_layer(grid, omega, mat, dens, x0 - e * n0, n0))
    outv, inv = np.array(outv), np.array(inv)
    # second-order Richardson for v(e) = L + a e + b e^2 on e, e/2, e/4
    lim_out = (outv[2] * 8 - outv[1] * 6 + outv[0]) / 3.0
    lim_in = (inv[2] * 8 - inv[1] * 6 + inv[0]) / 3.0
    jump = lim_out - lim_in
    resid = np.abs(jump + dens[i0]).max() / np.abs(dens[i0]).max()
    return [_check("traction_jump_is_minus_density", resid, 1e-3)]


def _suite_symmetries(_negate):
    pair = MaterialPair(DEFAULT_EXTERIOR, DEFAULT_INTERIOR)
    esc = compute_esc(Circle(1.0), pair, 1.0, K=4, n_nodes=128)
    rep = verify_symmetries(esc)
    return [
        _check("reciprocity_defect_disk", rep["reciprocity"], 1e-8),
        _check("mirror_defect_disk", rep["mirror"], 1e-8),
    ]


def _suite_optical(_negate):
    pair = MaterialPair(DEFAULT_EXTERIOR, DEFAULT_INTERIOR)
    esc = compute_esc(Circle(1.0), pair, 1.0, K=8, n_nodes=160)
    rep = verify_optical(esc)
    return [_check("energy_identity_disk", rep["residual"], 1e-6)]


def _suite_xtx(negate):
    cfg = MsrConfig(
        radius=1e3 * 2 * np.pi / DEFAULT_EXTERIOR.kappa_s(1.0),
        n_sources=16,
        n_receivers=16,
        omega=1.0,
        exterior=DEFAULT_EXTERIOR,
    )
    kk = 4
    model = assemble_model(cfg, kk)
    y = model.Y.copy()
    if negate:
        y[: cfg.n_receivers, : 2 * kk + 1] *= -1.0
    xtx = model.X.conj().T @ model.X
    resid_x = np.linalg.norm(xtx - cfg.n_sources * np.diag(model.z_x)) / np.linalg.norm(xtx)
    yty = y.conj().T @ y
    resid_y = np.linalg.norm(yty - cfg.n_receivers * np.diag(model.z_y)) / np.linalg.norm(yty)
    # dual-route Y consistency: closed-form factors vs direct H-field
    # projections at the receivers (linear in Y, so a sign flip trips it)
    th = cfg.receiver_angles()
    er = np.stack([np.cos(th), np.sin(th)], axis=-1)
    et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    # H^a_n for a in P, S and n = -kk..kk: Y's column order; tractions unused
    h = np.conj(_wave_table(sp.hankel1, cfg.receiver_points(), er, DEFAULT_EXTERIOR, cfg.omega, kk)[0])
    y_direct = np.concatenate([np.einsum("jrk,rk->rj", h, er), np.einsum("jrk,rk->rj", h, et)])
    resid_dir = np.linalg.norm(y - y_direct) / np.linalg.norm(y_direct)
    return [
        _check("fourier_identity_xtx", resid_x, 1e-10),
        _check("yty_near_diagonal", resid_y, 1e-3),
        _check("y_assembly_vs_wavefields", resid_dir, 1e-12),
    ]


def _suite_disk(_negate):
    pair = MaterialPair(DEFAULT_EXTERIOR, DEFAULT_INTERIOR)
    omega = 1.0
    K = 3
    g = compute_esc(Circle(1.0), pair, omega, K=K, n_nodes=128).g
    # diag[b, a, m] = W^{a,b}_{m,m}; the transfer matrix gives wa[m][a, b]
    diag = g.reshape(2, 2 * K + 1, 2, 2 * K + 1).diagonal(axis1=1, axis2=3)
    disk = LayeredStructure(radii=(1.0,), layers=(), exterior=pair.exterior, inner=pair.interior)
    w = _w_stack(disk, [omega], K)[0]  # orders 0..K
    # the disk is mirror-symmetric: W^{a,b}_{-m,-m} = s_a s_b W^{a,b}_{m,m}
    s = np.array([MIRROR_SIGN[a] for a in MODES])
    wa = np.concatenate([w[:0:-1] * np.outer(s, s), w])
    worst = np.abs(diag - wa.transpose(2, 1, 0)).max()
    return [_check("disk_bie_vs_transfer_matrix", worst / np.abs(g).max(), 1e-9)]


_RUNNERS = {
    "orthogonality": _suite_orthogonality,
    "jump": _suite_jump,
    "symmetries": _suite_symmetries,
    "optical": _suite_optical,
    "xtx": _suite_xtx,
    "disk": _suite_disk,
}
