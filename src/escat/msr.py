"""Multi-static acquisition, the structured data model and reconstruction.

Sources and receivers sit uniformly on a circle of radius R.  Source s
emits pressure/shear plane waves with incidence direction d_s = -x_s/R;
receiver r projects the scattered field on d_r = e_r(theta_r) and
d_r_perp = e_theta(theta_r).  With

    X^b[s, m] = d^b_m(s) = e^{i m (pi/2 - theta_ds)} / b_b,
    b_b = 4 rho0^2 w^2 c_b^2 kappa_b,
    Y^a_par[r, n]  = conj(H^a_n(x_r)) . d_r,
    Y^a_perp[r, n] = conj(H^a_n(x_r)) . d_r_perp,

the 2N_s x 2N_r response matrix A, whose four N_s x N_r quarters are
these par/perp projections of the P and S incidences, is A = X G Y* + E
(+ noise), where G is the ESC matrix with incident-index rows
(EscMatrix.g) and E is the truncation error.  MsrDataset holds A; its
quarters, one CSV file each, are views of it.  X*X = N_s Z_X holds exactly (Fourier orthogonality)
while Y*Y approaches N_r Z_Y with O(R^-2) off-diagonal blocks, giving
the explicit left pseudo-inverse used for reconstruction.
"""

from __future__ import annotations

import itertools
import json
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .bie import build_grid, single_layer_apply, solve_transmission
from .curves import BoundaryCurve
from .errors import ConfigError, DomainError, ReconstructionError
from .esc import MODES, EscMatrix, _energy_residual, _reciprocity_image, compute_esc
from .wavefields import Material, MaterialPair, _plane_wave_table
from .specialfun import _check, _fold

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MsrConfig:
    """Circular full-aperture acquisition geometry."""

    radius: float
    n_sources: int
    n_receivers: int
    omega: float
    exterior: Material
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.radius <= 0 or self.omega <= 0:
            raise DomainError("radius and omega must be positive")
        if self.n_sources < 1 or self.n_receivers < 1:
            raise DomainError("need at least one source and receiver")
        if self.noise_sigma < 0:
            raise DomainError("noise_sigma must be nonnegative")

    def source_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_sources) / self.n_sources

    def receiver_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_receivers) / self.n_receivers

    def receiver_points(self) -> np.ndarray:
        th = self.receiver_angles()
        return self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def incident_directions(self) -> np.ndarray:
        th = self.source_angles()
        return -np.stack([np.cos(th), np.sin(th)], axis=-1)

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "n_sources": self.n_sources,
            "n_receivers": self.n_receivers,
            "omega": self.omega,
            "exterior": self.exterior.to_dict(),
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MsrConfig":
        return cls(
            radius=float(d["radius"]),
            n_sources=int(d["n_sources"]),
            n_receivers=int(d["n_receivers"]),
            omega=float(d["omega"]),
            exterior=Material.from_dict(d["exterior"]),
            noise_sigma=float(d.get("noise_sigma", 0.0)),
            seed=int(d.get("seed", 0)),
        )


# one row of a dataset CSV file
_CSV_ROW = np.dtype([("s", np.int64), ("r", np.int64), ("re", float), ("im", float)])
# the four N_s x N_r quarters of A, one CSV file each, in row-major order
_QUARTERS = ("par_par", "par_perp", "perp_par", "perp_perp")


def _quarter(i: int, j: int):
    """Read-only view of quarter (i, j) of MsrDataset.a."""

    def view(self) -> np.ndarray:
        ns, nr = self.config.n_sources, self.config.n_receivers
        out = self.a[i * ns : (i + 1) * ns, j * nr : (j + 1) * nr]
        out.flags.writeable = False
        return out

    return property(view)


@dataclass
class MsrDataset:
    """The 2N_s x 2N_r response matrix A plus the acquisition geometry.

    A = [[A_par,par  A_par,perp], [A_perp,par  A_perp,perp]]: row s < N_s
    is source s's P incidence and row N_s + s its S incidence; column r <
    N_r is receiver r's d_r component and column N_r + r its d_r_perp one.
    """

    a: np.ndarray
    config: MsrConfig

    a_par_par, a_par_perp = _quarter(0, 0), _quarter(0, 1)
    a_perp_par, a_perp_perp = _quarter(1, 0), _quarter(1, 1)

    def __post_init__(self):
        # C order, whatever the caller passed: products with A keep their bytes
        self.a = np.ascontiguousarray(self.a, dtype=complex)
        shape = (2 * self.config.n_sources, 2 * self.config.n_receivers)
        if self.a.shape != shape:
            raise DomainError(
                f"response matrix of shape {self.a.shape} does not fit {self.config.n_sources} "
                f"sources x {self.config.n_receivers} receivers, which need {shape}"
            )

    def save(self, prefix) -> None:
        """JSON header + four CSV matrices (s, r, re, im), written atomically.

        Rows are s-major, values are repr() of the doubles (exact round
        trip), lines end in CRLF, as csv.writer writes them.
        """
        import pathlib

        from .config import atomic_write_json, atomic_write_text

        prefix = pathlib.Path(prefix)
        atomic_write_json(f"{prefix}.json", {"config": self.config.to_dict()})
        for name in _QUARTERS:
            z = getattr(self, "a_" + name)
            rows = zip(itertools.product(range(z.shape[0]), range(z.shape[1])),
                       z.real.ravel().tolist(), z.imag.ravel().tolist())
            text = "".join([f"{s},{r},{re!r},{im!r}\r\n" for (s, r), re, im in rows])
            atomic_write_text(f"{prefix}_{name}.csv", "s,r,re,im\r\n" + text)

    @classmethod
    def load(cls, prefix) -> "MsrDataset":
        header = f"{prefix}.json"
        try:
            with open(header) as f:
                config = MsrConfig.from_dict(json.load(f)["config"])
        except OSError as e:
            raise ConfigError(f"{header}: cannot be read ({e.strerror})") from e
        except KeyError as e:
            raise ConfigError(f"{header}: missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{header}: not a dataset header ({e})") from e
        ns, nr = config.n_sources, config.n_receivers
        mats = []
        for name in _QUARTERS:
            path = f"{prefix}_{name}.csv"
            with warnings.catch_warnings():
                # a file without rows is reported below, as missing entries
                warnings.simplefilter("ignore", UserWarning)
                try:
                    with open(path) as f:
                        rows = np.loadtxt(f, dtype=_CSV_ROW, delimiter=",", comments=None,
                                          skiprows=1, ndmin=1)
                except OSError as e:
                    raise ConfigError(f"{path}: cannot be read ({e.strerror})") from e
                except ValueError as e:
                    raise ConfigError(f"{path}: malformed row ({e})") from e
            s, r = rows["s"], rows["r"]
            outside = (s < 0) | (s >= ns) | (r < 0) | (r >= nr)
            if outside.any():
                i = int(np.argmax(outside))
                raise ConfigError(
                    f"{path}: entry (s, r) = ({s[i]}, {r[i]}) is out of range "
                    f"for {ns} sources x {nr} receivers"
                )
            flat = s * nr + r
            count = np.bincount(flat, minlength=ns * nr)
            if (count > 1).any():
                k = int(np.argmax(count > 1))
                raise ConfigError(f"{path}: entry (s, r) = ({k // nr}, {k % nr}) is repeated")
            missing = int(np.count_nonzero(count == 0))
            if missing:
                raise ConfigError(f"{path}: {missing} of {ns * nr} (s, r) entries missing")
            mat = np.empty(ns * nr, dtype=complex)
            mat.real[flat] = rows["re"]
            mat.imag[flat] = rows["im"]
            mats.append(mat.reshape(ns, nr))
        return cls(np.block([mats[:2], mats[2:]]), config)


@dataclass
class ModelMatrices:
    """X, Y and the diagonal normalizations Z_X, Z_Y (as 1-D arrays)."""

    X: np.ndarray
    Y: np.ndarray
    z_x: np.ndarray
    z_y: np.ndarray
    K: int


def _b_factor(material: Material, omega: float, mode: str) -> float:
    c = material.c_p if mode == "P" else material.c_s
    return 4.0 * material.rho**2 * omega**2 * c * c * material.kappa(omega, mode)


def _gh_factors(config: MsrConfig, K: int):
    """g^a_n and h^a_n tables over n = -K..K at the receiver radius."""
    ext, omega, R = config.exterior, config.omega, config.radius
    n = np.arange(-K, K + 1)
    out = {}
    for mode in MODES:
        kappa = ext.kappa(omega, mode)
        _check(K, kappa * R)
        h, hp = _fold(sp.hankel1, -K, K, kappa * R)
        if mode == "P":
            out["gP"] = kappa * hp
            out["hP"] = (1j * n / R) * h
        else:
            out["gS"] = (1j * n / R) * h
            out["hS"] = -kappa * hp
    return out


def assemble_model(config: MsrConfig, K: int) -> ModelMatrices:
    """Model matrices for truncation K; requires 0 <= K and 2K+1 <= min(N_s, N_r)."""
    if K < 0:
        raise DomainError(f"truncation K must be nonnegative, got {K}")
    if 2 * K + 1 > min(config.n_sources, config.n_receivers):
        raise DomainError("truncation K violates 2K+1 <= min(N_s, N_r)")
    n = np.arange(-K, K + 1)
    theta_d = config.source_angles() + np.pi
    b = [_b_factor(config.exterior, config.omega, mode) for mode in MODES]
    # X is block diagonal: X^b[s, m] on the rows of mode b's sources
    wave = np.exp(1j * np.outer(np.pi / 2.0 - theta_d, n))
    zero = np.zeros_like(wave)
    x = np.block([[wave / b[0], zero], [zero, wave / b[1]]])
    gh = _gh_factors(config, K)
    phase = np.exp(-1j * np.outer(config.receiver_angles(), n))
    # Y[(par | perp, r), (a, n)] = conj(g^a_n | h^a_n) e^{-i n theta_r}
    y = np.block([[np.conj(gh[f + a]) * phase for a in MODES] for f in "gh"])
    z_x = np.repeat([1.0 / b[0] ** 2, 1.0 / b[1] ** 2], 2 * K + 1)
    z_y = np.concatenate([np.abs(gh["gP"]) ** 2, np.abs(gh["hS"]) ** 2])
    return ModelMatrices(X=x, Y=y, z_x=z_x, z_y=z_y, K=K)


def simulate_msr(
    curve: BoundaryCurve,
    pair: MaterialPair,
    config: MsrConfig,
    mode: str = "bie",
    K: int | None = None,
    esc: EscMatrix | None = None,
    n_nodes: int = 256,
) -> MsrDataset:
    """Simulate the four response matrices.

    mode='bie' solves the transmission problem per plane-wave incidence
    (ground truth, all multipole orders); mode='expansion' evaluates the
    truncated model X G Y* exactly at order K (model-error free), using
    the supplied EscMatrix (at the acquisition's omega and rho0, and at K
    if K is given) or computing one.  Both modes reject receivers inside
    the inclusion.
    """
    # contains tests a polygon of 512 samples: no receiver beyond their largest radius is in it
    x = curve.position(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    if config.radius <= np.hypot(x[:, 0], x[:, 1]).max():
        for p in config.receiver_points():
            if curve.contains(p):
                raise DomainError(f"receiver at {p.tolist()} lies inside the inclusion")
    if mode == "expansion":
        if K is None and esc is None:
            raise DomainError("expansion mode needs K or an EscMatrix")
        if esc is None:
            esc = compute_esc(curve, pair, config.omega, K=K, n_nodes=n_nodes)
        elif (esc.omega, esc.rho0) != (config.omega, config.exterior.rho):
            raise DomainError(
                f"EscMatrix at (omega, rho0) = ({esc.omega}, {esc.rho0}) does not match the "
                f"acquisition's ({config.omega}, {config.exterior.rho})"
            )
        elif K is not None and K != esc.K:
            raise DomainError(f"K = {K} does not match the EscMatrix's K = {esc.K}")
        model = assemble_model(config, esc.K)
        return MsrDataset(model.X @ esc.g @ model.Y.conj().T, config)
    if mode != "bie":
        raise DomainError(f"unknown simulation mode {mode!r}")

    ext = pair.exterior
    omega = config.omega
    grid = build_grid(curve, n_nodes)
    densities = solve_transmission(
        grid,
        pair,
        omega,
        *_plane_wave_table(config.incident_directions(), grid.nodes, grid.normals, ext, omega),
    )
    # receiver fields of every incidence at once, (k, Nr, 2)
    u = single_layer_apply(grid, omega, ext, densities.psi, config.receiver_points())
    th_r = config.receiver_angles()
    d_r = np.stack([np.cos(th_r), np.sin(th_r)], axis=-1)
    d_rp = np.stack([-np.sin(th_r), np.cos(th_r)], axis=-1)
    # row k of A is incidence k: P sources (par rows), then S (perp rows)
    a = np.concatenate(
        [np.einsum("krc,rc->kr", u, d_r), np.einsum("krc,rc->kr", u, d_rp)], axis=1
    )
    return MsrDataset(a, config)


def add_noise(data: MsrDataset) -> MsrDataset:
    """Add iid complex Gaussian noise with std config.noise_sigma per entry."""
    cfg = data.config
    if cfg.noise_sigma == 0.0:
        return MsrDataset(data.a.copy(), cfg)
    rng = np.random.default_rng(cfg.seed)
    shape = (2 * cfg.n_sources, 2 * cfg.n_receivers)
    noise = (
        cfg.noise_sigma
        * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        / np.sqrt(2.0)
    )
    return MsrDataset(data.a + noise, cfg)


def _rank_check(mat: np.ndarray, what: str) -> None:
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] < 1e-12 * s[0]:
        raise ReconstructionError(f"{what} is numerically rank deficient")


def reconstruct(
    data: MsrDataset,
    K: int,
    method: str = "pseudo_inverse",
) -> tuple[EscMatrix, dict]:
    """Estimate the truncated ESC matrix from response data.

    pseudo_inverse : What = Z_X^-1 X* A Y Z_Y^-1 / (N_s N_r)  (explicit
                     left pseudo-inverse, exact as R -> infinity)
    lsq            : normal equations with the full Y*Y (no large-R
                     diagonal approximation)
    lsq_constrained: lsq followed by damped alternating projection onto
                     the reciprocity symmetry and the energy identity
                     (heuristic regularization of the ill-posed tail)
    """
    cfg = data.config
    model = assemble_model(cfg, K)
    a = data.a
    _rank_check(model.X, "X")
    _rank_check(model.Y, "Y")
    if method == "pseudo_inverse":
        g = (
            (model.X.conj().T @ a @ model.Y)
            / (cfg.n_sources * cfg.n_receivers)
            / model.z_x[:, None]
            / model.z_y[None, :]
        )
    elif method in ("lsq", "lsq_constrained"):
        xtx = model.X.conj().T @ model.X
        yty = model.Y.conj().T @ model.Y
        g = np.linalg.solve(xtx, model.X.conj().T @ a @ model.Y)
        g = np.linalg.solve(yty.T, g.T).T
        if method == "lsq_constrained":
            g = _project_constraints(g, cfg)
    else:
        raise DomainError(f"unknown reconstruction method {method!r}")
    est = EscMatrix(g, cfg.omega, rho0=cfg.exterior.rho)
    resid = np.linalg.norm(model.X @ g @ model.Y.conj().T - a) / max(
        np.linalg.norm(a), 1e-300
    )
    report = {
        "method": method,
        "K": K,
        "relative_data_residual": float(resid),
    }
    return est, report


def _project_constraints(g, cfg):
    """20 damped (step 0.5) alternating projections onto reciprocity and energy.

    Far from a W that meets the energy identity the energy step grows like
    |G|^2 and the iteration overflows: a non-finite estimate is a
    ReconstructionError, not a result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(20):
            g = 0.5 * (g + _reciprocity_image(g))
            res = _energy_residual(g, cfg.exterior.rho, cfg.omega)
            # move along the anti-Hermitian direction that cancels the residual
            g = g - 0.5 * (-2.0j) * 0.5 * (res + res.conj().T)
    if not np.isfinite(g).all():
        raise ReconstructionError(
            "lsq_constrained: the constraint projections diverged to a non-finite estimate"
        )
    return g


def singular_values(config: MsrConfig, K: int, numeric: bool = False) -> dict:
    """Singular values of the data map M -> X M Y* and condition estimate.

    Closed form: sigma_pq = sqrt(N_s N_r) |f_p| |gh_q| with |f_p| = 1/b
    of the p-half mode and gh_q the g^P / h^S factor of the q-half; the
    numeric SVD of the flattened operator is the finite-R cross-check
    (memory-guarded to K <= 6).
    """
    model = assemble_model(config, K)
    ns, nr = config.n_sources, config.n_receivers
    col_x = np.sqrt(config.n_sources * model.z_x)
    col_y = np.sqrt(config.n_receivers * model.z_y)
    sigma = col_x[:, None] * col_y[None, :]
    out = {
        "sigma_closed_form": sigma,
        "sigma_max": float(sigma.max()),
        "sigma_min": float(sigma.min()),
        "condition": float(sigma.max() / sigma.min()),
    }
    kappa_p = config.exterior.kappa_p(config.omega)
    c_r = 2.0 / (np.e * kappa_p * config.radius)
    out["condition_envelope"] = float((c_r * max(K, 1)) ** (K + 1))
    if numeric:
        if K > 6:
            raise DomainError("numeric SVD limited to K <= 6 (memory guard)")
        flat = np.kron(model.X, np.conj(model.Y))
        out["sigma_numeric"] = np.linalg.svd(flat, compute_uv=False)
    return out


def max_resolving_order(snr: float, epsilon: float) -> int:
    """Largest K with K^(K-1) <= epsilon * SNR."""
    if snr <= 0 or epsilon <= 0:
        raise DomainError("snr and epsilon must be positive")
    bound = epsilon * snr
    if bound < 1.0:
        return 0
    k = 1
    while (k + 1) ** k <= bound:
        k += 1
    return k


def snr_estimate(perimeter: float, radius: float, noise_sigma: float) -> float:
    """Signal-to-noise ratio (|dD| / sqrt(R)) / sigma_noise."""
    if noise_sigma <= 0:
        raise DomainError("noise_sigma must be positive for an SNR")
    return perimeter / np.sqrt(radius) / noise_sigma
