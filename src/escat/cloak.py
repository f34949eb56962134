"""Layered cylindrical structures: transfer matrices, scattering, cloak design.

A structure is a set of concentric annuli A_j = {r_{j+1} <= |x| < r_j}
with per-annulus isotropic materials and either a traction-free cavity or
a solid core inside r_{L+1}.  In every annulus the order-n field is

    u_n = ah^P JP_n + ah^S JS_n + a^P HP_n + a^S HS_n,

and the 4x4 interface matrix M_n(r) collects [r * radial trace;
r * tangential trace; r^2 * radial traction; r^2 * tangential traction]
of the four basis fields, so continuity across |x| = r_j reads
M_{n,j-1}(r_j) a_{j-1} = M_{n,j}(r_j) a_j.

The same machinery yields the penetrable-disk scattering coefficients
(analytic_disk_esc), the oracle used throughout the test suite, and the
numerical design of coatings whose leading scattering coefficients
nearly vanish.

Per structure and order, all interface matrices of the chain (and the
solid core's) come from one stacked build over a single J and a single
H evaluation, and the L layer matrices are inverted in one batch.  The
resonance guard keeps its definition, the singular values of the
row/column-equilibrated matrix against COND_GUARD, but brackets it with
the exact 1-norm condition that the batched inverse provides; the
singular values are computed only when that bound cannot clear a stack.
A matrix that overflowed to inf or NaN is rejected as a resonance too.

The design's Nelder-Mead starts are independent: they run in up to one
worker process per CPU available to the process, with no option to set,
and every result is the same, bit for bit, whatever the number of
processes.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special as sp

from .errors import DomainError, ResonanceError
from .specialfun import _fold
from .wavefields import Material, MaterialPair, _modal

logger = logging.getLogger(__name__)

__all__ = [
    "LayeredStructure",
    "layered_esc",
    "analytic_disk_esc",
    "design_svanishing",
    "scaling_report",
]

# W = ESC_SCALE * rho0 * omega^2 * (scattered H-coefficient); the absolute
# normalization ties the transfer-matrix route to the boundary-integral
# definition and is pinned by the disk cross-validation test.
ESC_SCALE = -4.0j

COND_GUARD = 1e-13


@dataclass(frozen=True)
class LayeredStructure:
    """Concentric coated cavity/core: radii r_1 > ... > r_{L+1}.

    layers[j] is the material of the annulus between radii[j] and
    radii[j+1]; `inner` is either the string
    'cavity' (traction-free boundary at the innermost radius) or a
    Material for a solid penetrable core.
    """

    radii: tuple
    layers: tuple
    exterior: Material
    inner: object = "cavity"

    def __post_init__(self):
        r = self.radii
        if len(r) != len(self.layers) + 1:
            raise DomainError("need len(radii) == len(layers) + 1")
        if not (all(a > b for a, b in zip(r, r[1:])) and r[-1] > 0):
            raise DomainError("radii must be strictly decreasing and positive")
        if self.inner != "cavity" and not isinstance(self.inner, Material):
            raise DomainError("inner must be 'cavity' or a Material")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def material_of_annulus(self, j: int) -> Material:
        """Material of A_j, j = 0 (exterior) .. L (innermost coat)."""
        return self.exterior if j == 0 else self.layers[j - 1]

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "layers": [m.to_dict() for m in self.layers],
            "exterior": self.exterior.to_dict(),
            "inner": "cavity" if self.inner == "cavity" else self.inner.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayeredStructure":
        inner = d.get("inner", "cavity")
        return cls(
            radii=tuple(float(r) for r in d["radii"]),
            layers=tuple(Material.from_dict(m) for m in d["layers"]),
            exterior=Material.from_dict(d["exterior"]),
            inner="cavity" if inner == "cavity" else Material.from_dict(inner),
        )


def _layer_matrices(n: int, radii, materials, omega: float) -> np.ndarray:
    """Stack of M_n(radii[i]) for materials[i], shape (k, 4, 4).

    Columns: (JP_n, JS_n, HP_n, HS_n), each the wavefields._modal tuple
    (r u_r, r u_t, r^2 s_rr, r^2 s_rt) of that wave.  One J and one H
    evaluation serve all k matrices.  The entries are formed on Python
    scalars: at k ~ 5 that is cheaper than array arithmetic, and it keeps
    the operation order of the closed forms.
    """
    if omega <= 0 or min(radii) <= 0:
        raise DomainError("radius and omega must be positive")
    tps = [r * m.kappa_p(omega) for r, m in zip(radii, materials)]
    tss = [r * m.kappa_s(omega) for r, m in zip(radii, materials)]
    t = np.array(tps + tss)
    j, jd = (z.tolist() for z in _fold(sp.jv, n, t))
    h, hd = (z.tolist() for z in _fold(sp.hankel1, n, t))
    k = len(tps)
    out = []
    for p, (tp, ts, material) in enumerate(zip(tps, tss, materials)):
        s = p + k
        lam, mu = material.lam, material.mu
        a0, a1, a2, a3 = _modal("P", n, tp, lam, mu, j[p], jd[p])
        b0, b1, b2, b3 = _modal("S", n, ts, lam, mu, j[s], jd[s])
        c0, c1, c2, c3 = _modal("P", n, tp, lam, mu, h[p], hd[p])
        d0, d1, d2, d3 = _modal("S", n, ts, lam, mu, h[s], hd[s])
        out += (
            a0, b0, c0, d0,
            a1, b1, c1, d1,
            a2, b2, c2, d2,
            a3, b3, c3, d3,
        )
    return np.array(out, dtype=complex).reshape(k, 4, 4)


# cond_2 <= k cond_1 for a k x k matrix, so an equilibrated 1-norm condition
# below 1 / (k * _COND1_MARGIN * COND_GUARD) cannot fail the singular-value
# test; the margin absorbs the rounding of cond_1 taken from the computed
# inverse.  Columns equilibrated by less than _EQ_TINY (near underflow) go
# to the exact test as well.
_COND1_MARGIN = 2.0
_EQ_TINY = 1e-300


def _check_singular(m: np.ndarray, what: str) -> None:
    # Row/column norms differ by orders of magnitude at low frequency
    # (structural, still invertible), so the singularity test uses the
    # condition number of the equilibrated matrix.  An entry that
    # overflowed, or a scale that underflows, leaves no finite
    # equilibrated matrix to test: also a resonance.
    row = np.abs(m).max(axis=1)
    if np.any(row == 0):
        raise ResonanceError(f"{what} has a zero row")
    m1 = m / row[:, None]
    col = np.abs(m1).max(axis=0)
    if np.any(col == 0):
        raise ResonanceError(f"{what} has a zero column")
    m1 /= col[None, :]
    if not np.isfinite(m1).all():
        raise ResonanceError(f"{what} is not finite after equilibration")
    sv = np.linalg.svd(m1, compute_uv=False)
    if sv[-1] < COND_GUARD * sv[0]:
        raise ResonanceError(
            f"{what} is numerically singular (equilibrated cond {sv[0] / sv[-1]:.2e})"
        )


def _inv_guarded(m: np.ndarray, names) -> np.ndarray:
    """Inverses of a (count, k, k) stack; ResonanceError names the first singular one.

    One batched inverse serves all matrices.  With D_r, D_c the row and
    column equilibration of m, (D_r m D_c)^-1 = D_c^-1 m^-1 D_r^-1 gives
    the exact 1-norm condition of the equilibrated matrix, and the
    singular values of _check_singular are computed only for a stack
    that bound cannot clear.  Every rejection therefore comes from
    _check_singular, with its message, and every outcome is the
    per-matrix test's.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        # an exactly singular pivot: check and invert one matrix at a
        # time, in order, for the per-matrix error
        inv = np.empty_like(m)
        for i, what in enumerate(names):
            _check_singular(m[i], what)
            inv[i] = np.linalg.inv(m[i])
        return inv
    a = np.abs(m)
    row = np.maximum.reduce(a, axis=2, keepdims=True)
    a /= row
    col = np.maximum.reduce(a, axis=1, keepdims=True)
    if np.minimum.reduce(col, axis=None) > _EQ_TINY:
        a /= col
        x = np.abs(inv)
        x *= col.transpose(0, 2, 1)
        x *= row.transpose(0, 2, 1)
        cond1 = np.maximum.reduce(a.sum(axis=1), axis=1) * np.maximum.reduce(x.sum(axis=1), axis=1)
        if np.maximum.reduce(cond1) < 1.0 / (m.shape[-1] * _COND1_MARGIN * COND_GUARD):
            return inv
    for mi, what in zip(m, names):
        _check_singular(mi, what)
    return inv


def _interface_chain(structure: LayeredStructure, omega: float, n: int):
    """M_{n,L}(r_{L+1}) prod_{j=L..1} M_{n,j}^{-1}(r_j) M_{n,j-1}(r_j).

    Maps the exterior coefficients a_0 to the scaled traces and tractions
    of the innermost coat at the inner radius r_{L+1}.  Returns the chain
    and, for a solid core, the core's M_n(r_{L+1}) (else None).  All
    interface matrices come from one stacked build: M_j(r_j) for
    j = 1..L, then M_{j-1}(r_j), then M_L(r_{L+1}) and the core.
    """
    radii = structure.radii
    length = structure.n_layers
    mats = [structure.material_of_annulus(j) for j in range(length + 1)]
    rs = [*radii[:length], *radii[:length], radii[-1]]
    ms = mats[1:] + mats[:-1] + mats[-1:]
    core = structure.inner != "cavity"
    if core:
        rs.append(radii[-1])
        ms.append(structure.inner)
    stack = _layer_matrices(n, rs, ms, omega)
    prop = np.eye(4, dtype=complex)
    if length:
        names = [f"layer matrix M_(n={n},j={j})" for j in range(1, length + 1)]
        inv = _inv_guarded(stack[:length], names)
        for j in range(length):
            prop = inv[j] @ stack[length + j] @ prop
    return stack[2 * length] @ prop, (stack[-1] if core else None)


def layered_esc(structure: LayeredStructure, omega: float, n: int) -> np.ndarray:
    """Order-n scattering-coefficient matrix W_n of a layered structure.

    Returns the 2x2 matrix W_n[alpha, beta] (alpha = scattered mode row,
    beta = incident mode column).  For the cavity case
    W_n = -ESC_SCALE rho0 w^2 Q22^{-1} Q21 applied to unit incident
    coefficient vectors (Q21, Q22 the blocks of the traction rows of the
    interface chain); a solid core goes through the same chain
    with a J-only innermost field.
    """
    rho_w2 = structure.exterior.rho * omega * omega
    # a chain product or Bessel value that overflows on the way ends in a
    # non-finite matrix, which the guards and the check below reject
    with np.errstate(over="ignore", invalid="ignore"):
        chain, m_core = _interface_chain(structure, omega, n)
        if m_core is None:
            # columns: incident P, S
            a0 = -_inv_guarded(chain[None, 2:, 2:], [f"Q22(n={n})"])[0] @ chain[2:, :2]
        else:
            # solid core: innermost field b^P JP + b^S JS with core material; the
            # unknowns are (b^P, b^S, a^P, a^S), one column per incident mode
            lhs = np.empty((4, 4), dtype=complex)
            lhs[:, :2] = m_core[:, :2]  # core J columns
            lhs[:, 2:] = -chain[:, 2:]  # unknown exterior H coefficients
            try:
                a0 = np.linalg.solve(lhs, chain[:, :2])[2:]
            except np.linalg.LinAlgError as exc:
                raise ResonanceError(f"solid-core system (n={n}) is singular") from exc
        w = ESC_SCALE * rho_w2 * a0
    if not np.isfinite(w).all():
        raise ResonanceError(f"W_(n={n}) at omega={omega:g} is not finite")
    return w


def analytic_disk_esc(
    pair: MaterialPair, r_disk: float, omega: float, n: int
) -> np.ndarray:
    """Order-n ESC of a homogeneous penetrable disk (mode matching).

    Single-interface transfer-matrix solve, independent of the
    boundary-integral route; serves as the cross-validation oracle.
    """
    structure = LayeredStructure(
        radii=(r_disk,), layers=(), exterior=pair.exterior, inner=pair.interior
    )
    return layered_esc(structure, omega, n)


# ---------------------------------------------------------------------------
# S-vanishing design
# ---------------------------------------------------------------------------


@dataclass
class DesignReport:
    structure: LayeredStructure
    objective: float
    reduction_factor: float
    objective_trace: list = field(default_factory=list)
    w_table: dict = field(default_factory=dict)
    bare_w_table: dict = field(default_factory=dict)
    n_evaluations: int = 0
    seed: int = 0
    # objective evaluations of each Nelder-Mead start, in start order
    start_evaluations: list = field(default_factory=list)
    # evaluations that returned the rejection value PENALTY
    penalty_hits: int = 0
    # structure evaluations of polish stages 0 and 1, not in n_evaluations
    polish_stage_evaluations: list = field(default_factory=lambda: [0, 0])

    @property
    def polish_evaluations(self) -> int:
        """Structure evaluations of both polish stages."""
        return sum(self.polish_stage_evaluations)


def _w_stack(structure: LayeredStructure, freqs, N: int) -> np.ndarray:
    """W_n(w) for w in freqs and n = 0..N, shape (len(freqs), N+1, 2, 2)."""
    w = [[layered_esc(structure, f, n) for n in range(N + 1)] for f in freqs]
    return np.array(w, dtype=complex).reshape(len(w), N + 1, 2, 2)


def _power(w, cols):
    """sum |W_n|^2 over both scattered modes and the incident columns cols, per W_n."""
    return np.sum(np.abs(w[..., cols]) ** 2, axis=(-2, -1))


# objective value of a point outside the box, with a collapsed interface
# or at a resonance
PENALTY = 1e12


@dataclass(frozen=True, eq=False)
class _CoatObjective:
    """Stage-1 design objective F(x) and the structure x encodes.

    x holds log(lam, mu, rho) of each layer, then the L-1 interior
    interfaces as fractions of the coat thickness.  A module-level value,
    so it pickles to worker processes.
    """

    L: int
    N: int
    omega_set: list
    # incident-mode columns of W_n that enter the design
    cols: slice
    # scales[i, n]: bare-cavity power at omega_set[i] and order n
    scales: np.ndarray
    lo_vec: np.ndarray
    hi_vec: np.ndarray
    exterior: Material
    r_outer: float
    r_cavity: float

    def structure(self, x) -> LayeredStructure:
        L, r_outer, r_cavity = self.L, self.r_outer, self.r_cavity
        mats = []
        for j in range(L):
            lam, mu, rho = np.exp(x[3 * j : 3 * j + 3])
            mats.append(Material(lam, mu, rho))
        # interior interface radii strictly between r_outer and r_cavity,
        # ordered by construction from sorted fractions
        fr = np.sort(x[3 * L :])[::-1]
        radii = (r_outer, *(r_cavity + (r_outer - r_cavity) * fr), r_cavity)
        return LayeredStructure(
            radii=radii, layers=tuple(mats), exterior=self.exterior, inner="cavity"
        )

    def __call__(self, x) -> float:
        if np.any(x < self.lo_vec - 1e-12) or np.any(x > self.hi_vec + 1e-12):
            return PENALTY
        fr = np.sort(np.concatenate([[0.0], x[3 * self.L :], [1.0]]))
        if np.min(np.diff(fr)) < 1e-3:
            return PENALTY  # interface collapsed onto a neighbor
        try:
            w = _w_stack(self.structure(x), self.omega_set, self.N)
        except (ResonanceError, DomainError):
            return PENALTY
        # Python floats summed in (w, n) order
        return sum((_power(w, self.cols) / self.scales).ravel().tolist())


def _run_start(objective, k, x0, maxiter):
    """One Nelder-Mead start: (k, f, x, evaluations, penalty hits)."""
    from scipy import optimize as sopt

    evaluations = penalty_hits = 0

    def counted(x):
        nonlocal evaluations, penalty_hits
        f = objective(x)
        evaluations += 1
        if f == PENALTY:
            penalty_hits += 1
        return f

    res = sopt.minimize(
        counted,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": maxiter,
            "xatol": 1e-12,
            "fatol": 1e-16,
            "adaptive": True,
        },
    )
    return k, res.fun, res.x, evaluations, penalty_hits


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_method() -> str:
    """'fork' where the platform has it and this process runs one thread.

    A forked worker need not import numpy, scipy and escat again (about
    1 s); forking a process with other threads can copy a lock one of
    them holds, so such a process spawns its workers.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: end the worker once the process that made it is gone.

    A worker inherits its task queue's write end, so after the design's
    process is killed it would wait on that queue forever.
    """

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _map_starts(objective, starts, maxiter) -> list:
    """_run_start over all starts, in start order.

    The starts run in min(len(starts), available CPUs) worker processes,
    one start per task since their costs differ, or in this process when
    that is one or when this process is a daemon, which may not have
    children.  The objective reaches the workers pickled, so forked and
    spawned workers compute the same.
    """
    # imported here: only a design needs them, and they add to every start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    run = partial(_run_start, objective, maxiter=maxiter)
    workers = min(len(starts), _available_cpus())
    if workers <= 1 or multiprocessing.current_process().daemon:
        return [run(k, x0) for k, x0 in enumerate(starts)]

    context = multiprocessing.get_context(_start_method())
    pool = ProcessPoolExecutor(
        workers, mp_context=context, initializer=_exit_with_parent, initargs=(os.getpid(),)
    )
    try:
        return list(pool.map(run, range(len(starts)), starts, chunksize=1))
    finally:
        # after a worker's error, drop the starts not yet begun
        pool.shutdown(cancel_futures=True)


def design_svanishing(
    L: int,
    N: int,
    omega_set,
    bounds: dict,
    exterior: Material,
    r_outer: float = 2.0,
    r_cavity: float = 1.0,
    n_starts: int = 16,
    seed: int = 0,
    mode_mask: str = "PS",
    maxiter: int = 2000,
    coeff_probe: list | None = None,
) -> DesignReport:
    """Design an L-layer coat minimizing the leading cavity ESC.

    Stage 1 minimizes F = sum_w sum_{n<=N} sum_modes |W_n(w)|^2 / s_n(w)
    with s_n(w) the bare-cavity power (relative reduction objective),
    over log-parametrized layer materials and interior radii, by
    multi-start Nelder-Mead inside box bounds.  The starts run in up to
    one process per available CPU; the report does not depend on the
    number of processes.  Stage 2 (polish) refines the
    best candidate by bounded least squares on the W-entry residuals; probe
    frequencies below the working band (coeff_probe, by default
    min(omega_set)/100 and min(omega_set)/1000) are appended so the
    leading low-frequency coefficient itself is cancelled, not just the
    band values.

    Parameters
    ----------
    bounds : dict
        {'lam': (lo, hi), 'mu': (lo, hi), 'rho': (lo, hi)} for the layer
        materials; positive bounds required.
    mode_mask : 'PS', 'P' or 'S'
        Which incident-mode columns enter the objective (P-only or
        S-only cloaks use the corresponding column).
    coeff_probe : list of float, optional
        The polish's probe frequencies; None takes the defaults above.
    """
    if L < 1:
        raise DomainError("need at least one coating layer")
    if not 0 < r_cavity < r_outer:
        raise DomainError(
            f"need 0 < r_cavity < r_outer, got r_cavity={r_cavity}, r_outer={r_outer}"
        )
    omega_set = list(omega_set)
    for key in ("lam", "mu", "rho"):
        lo, hi = bounds[key]
        if not (0 < lo < hi):
            raise DomainError(f"bounds for {key} must satisfy 0 < lo < hi")
    cols = {"PS": slice(None), "P": slice(0, 1), "S": slice(1, 2)}.get(mode_mask)
    if cols is None:
        raise DomainError(f"mode_mask must be 'PS', 'P' or 'S', not {mode_mask!r}")
    if coeff_probe is None:
        coeff_probe = [min(omega_set) / 100.0, min(omega_set) / 1000.0]
    probes = list(coeff_probe)
    # the bare cavity at the working, then the probe frequencies: the one
    # evaluation the objective's scales, the polish and the report share
    bare_cavity = LayeredStructure(radii=(r_cavity,), layers=(), exterior=exterior)
    bare = _w_stack(bare_cavity, omega_set + probes, N)

    # loaded once here, so forked workers inherit it rather than import it
    import scipy.optimize  # noqa: F401

    lo_vec = np.concatenate(
        [np.log([bounds[k][0] for k in ("lam", "mu", "rho")] * L), np.full(L - 1, 5e-3)]
    )
    hi_vec = np.concatenate(
        [np.log([bounds[k][1] for k in ("lam", "mu", "rho")] * L), np.full(L - 1, 1 - 5e-3)]
    )
    scales = np.maximum(_power(bare[: len(omega_set)], cols), 1e-300)
    objective = _CoatObjective(
        L, N, omega_set, cols, scales, lo_vec, hi_vec, exterior, r_outer, r_cavity
    )

    rng = np.random.default_rng(seed)
    starts = [lo_vec + (hi_vec - lo_vec) * rng.random(len(lo_vec)) for _ in range(n_starts)]
    runs = _map_starts(objective, starts, maxiter)
    start_evaluations = [r[3] for r in runs]
    penalty_hits = sum(r[4] for r in runs)
    results = sorted((r[:3] for r in runs), key=lambda t: (t[1], t[0]))
    best_k, best_f, best_x = results[0]
    logger.info(
        "design: best start %d, objective %.3e; evaluations per start %s, %d penalized",
        best_k, best_f, start_evaluations, penalty_hits,
    )

    best_x, polish_stage_evaluations = _polish_design(best_x, objective, bare, probes)
    best_f = objective(best_x)
    n_evaluations = sum(start_evaluations) + 1
    penalty_hits += int(best_f == PENALTY)

    structure = objective.structure(best_x)
    designed = _w_stack(structure, omega_set, N)
    # the reduction at omega_set[0], summed over n as Python floats
    designed_power = sum(_power(designed[0], cols).tolist())
    bare_power = sum(_power(bare[0], cols).tolist())
    keys = [(i, w, n) for i, w in enumerate(omega_set) for n in range(N + 1)]
    return DesignReport(
        structure=structure,
        objective=best_f,
        reduction_factor=bare_power / max(designed_power, 1e-300),
        objective_trace=[float(f) for _, f, _ in results],
        w_table={(w, n): designed[i, n].tolist() for i, w, n in keys},
        bare_w_table={(w, n): bare[i, n].tolist() for i, w, n in keys},
        n_evaluations=n_evaluations,
        seed=seed,
        start_evaluations=start_evaluations,
        penalty_hits=penalty_hits,
        polish_stage_evaluations=polish_stage_evaluations,
    )


def _polish_design(x0, objective, bare, probes):
    """Bounded least-squares refinement of a design candidate.

    bare is the bare cavity's W stack at the working frequencies, then at
    probes.  Residuals are the (bare-normalized) W_n entries at the working
    frequencies plus at probe frequencies far below them; zeroing the
    probe entries cancels the leading low-frequency coefficients.  Stage 0
    is least squares with each W_n normalized by its largest bare entry;
    stage 1 zeroes the real part of each diagonal probe entry, normalized
    by its bare magnitude, by a square Newton iteration.  Returns the
    refined x and the numbers of structures stages 0 and 1 evaluated.
    """
    from scipy import optimize as sopt

    N, cols = objective.N, objective.cols
    lo_vec, hi_vec = objective.lo_vec, objective.hi_vec
    freqs = objective.omega_set + probes
    bare_abs = np.abs(bare)
    norms = np.maximum(bare_abs.max(axis=(-2, -1)), 1e-300)[..., None, None]
    evaluations = 0

    def w_stack(x, at):
        nonlocal evaluations
        evaluations += 1
        return _w_stack(objective.structure(np.clip(x, lo_vec, hi_vec)), at, N)

    def residuals(x):
        # per (w, n): the real, then the imaginary parts of the entries
        try:
            z = (w_stack(x, freqs) / norms)[..., cols].reshape(*bare.shape[:2], -1)
        except (ResonanceError, DomainError):
            return np.full(2 * bare[..., cols].size, 1e6)
        return np.concatenate([z.real, z.imag], axis=-1).ravel()

    x = np.clip(x0, lo_vec + 1e-9, hi_vec - 1e-9)
    try:
        res = sopt.least_squares(
            residuals,
            x,
            bounds=(lo_vec, hi_vec),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            diff_step=1e-7,
            max_nfev=6000,
        )
    except (ValueError, np.linalg.LinAlgError, ResonanceError, DomainError) as exc:
        logger.warning("design polish stage 0 failed (%s); keeping Nelder-Mead result", exc)
    else:
        before = np.sum(residuals(x) ** 2)
        logger.info("design polish stage 0: residual %.3e -> %.3e", before, np.sum(res.fun**2))
        if np.sum(res.fun**2) < before:
            x = res.x
    stage0 = evaluations
    if not probes:
        return x, [stage0, 0]
    # stage 1: exact cancellation of the per-channel leading coefficients
    # (real parts of the diagonal probe entries, one condition per mode)
    bare_diag = np.diagonal(bare_abs[len(objective.omega_set) :], axis1=-2, axis2=-1)
    diag = np.maximum(bare_diag[..., cols], 1e-300)

    def coeff_residuals(x):
        w = np.diagonal(w_stack(x, probes), axis1=-2, axis2=-1)[..., cols]
        return (w.real / diag).ravel()

    x = _subset_newton(x, coeff_residuals, lo_vec, hi_vec)
    logger.info(
        "design polish: %d structure evaluations in stage 0, %d in stage 1",
        stage0, evaluations - stage0,
    )
    return x, [stage0, evaluations - stage0]


def _subset_newton(x0, residuals, lo_vec, hi_vec, max_iter=40, tol=1e-10):
    """Square damped Newton on the best-conditioned parameter subset.

    Picks as many parameters as there are residuals (by greedy QR column
    selection of the full Jacobian) and iterates Newton with
    backtracking; parameters outside the subset stay fixed.
    """
    from scipy.linalg import qr

    x = x0.copy()

    def jacobian(xc, fc):
        jac = np.empty((len(fc), len(xc)))
        for j in range(len(xc)):
            dx = 1e-6 * max(abs(xc[j]), 1e-3)
            xp = xc.copy()
            xp[j] = xp[j] + dx if xp[j] + dx <= hi_vec[j] else xp[j] - dx
            jac[:, j] = (residuals(xp) - fc) / (xp[j] - xc[j])
        return jac

    try:
        f = residuals(x)
    except (ResonanceError, DomainError):
        return x0
    k = len(f)
    if k >= len(x):
        cols = np.arange(len(x))
    else:
        jfull = jacobian(x, f)
        # column-pivoted QR picks a well-conditioned k-subset
        _, _, piv = qr(jfull, pivoting=True)
        cols = np.sort(piv[:k])
    best = np.linalg.norm(f)
    for _ in range(max_iter):
        if best < tol:
            break
        jfull = jacobian(x, f)
        jsub = jfull[:, cols]
        try:
            step_sub = np.linalg.solve(jsub, -f) if len(cols) == k else np.linalg.lstsq(jsub, -f, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        step = np.zeros_like(x)
        step[cols] = step_sub
        lam, improved = 1.0, False
        while lam > 1e-8:
            xn = np.clip(x + lam * step, lo_vec, hi_vec)
            try:
                fn = residuals(xn)
            except (ResonanceError, DomainError):
                lam /= 4.0
                continue
            if np.linalg.norm(fn) < best:
                x, f, best = xn, fn, np.linalg.norm(fn)
                improved = True
                break
            lam /= 4.0
        if not improved:
            break
    logger.info("design polish stage 1: coefficient residual norm %.3e", best)
    return x


def scaling_report(
    structure: LayeredStructure,
    omega_ref: float,
    n_max: int,
    epsilon_grid,
) -> dict:
    """Low-frequency scaling fits: ||W_n(eps * omega_ref)|| vs eps.

    Returns per-order fitted log-log slopes (least squares on the given
    epsilon grid; logarithm factors make pure power laws approximate, so
    slopes are reported with the residual of the fit).
    """
    eps = np.asarray(sorted(epsilon_grid), dtype=float)
    out = {"epsilon": eps.tolist(), "orders": {}}
    for n in range(n_max + 1):
        norms = np.array(
            [np.linalg.norm(layered_esc(structure, e * omega_ref, n)) for e in eps]
        )
        mask = norms > 0
        le, ln = np.log(eps[mask]), np.log(norms[mask])
        a = np.polyfit(le, ln, 1)
        resid = ln - np.polyval(a, le)
        out["orders"][n] = {
            "norms": norms.tolist(),
            "exponent": float(a[0]),
            "fit_residual": float(np.abs(resid).max()),
        }
    return out
