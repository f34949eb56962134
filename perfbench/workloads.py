"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up a user also pays
(scene objects, materials, grids) and which offers three methods:

* ``inputs(i)``: the inputs of op ``i``, drawn from the benchmark seed;
* ``run(x, workdir)``: one timed op, calling escat only through entry
  points expected to survive the planned refactors;
* ``check(x, out)``: ``None`` when the op's output is correct, otherwise a
  one-line reason.  Reference work done here is never timed.

The library is reached through module attributes (``escat.compute_esc``)
at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import functools

import numpy as np

import escat
import escat.cloak
import escat.config
import escat.esc
import escat.msr

EXTERIOR = escat.Material(2.0, 1.0, 1.0)  # c_S = 1, c_P = 2
PAIR = escat.MaterialPair(EXTERIOR, escat.Material(4.0, 2.0, 2.0))  # README scene

# Tolerances pinned by the acceptance tests.
RECIPROCITY_TOL = 1e-7  # criterion 2
MIRROR_TOL = 1e-7  # criterion 2
ENERGY_TOL = 1e-5  # criterion 3
PSEUDO_INVERSE_TOL = 1e-2  # criterion 6
REDUCTION_MIN = 1e2  # criterion 10
NOOP_TOL = 1e-12  # test_noop_coat_objective_equals_bare
EXPONENT_TOL = 0.1  # test_cavity_low_frequency_exponents

DESIGN_BOUNDS = {"lam": (0.2, 20.0), "mu": (0.1, 10.0), "rho": (0.1, 10.0)}
EPSILONS = np.geomspace(1e-3, 1e-2, 8)


def _jitter(rng, value: float, rel: float) -> float:
    """value scaled by a uniform factor in [1 - rel, 1 + rel]."""
    return float(value * (1.0 + rel * (2.0 * rng.random() - 1.0)))


def _first_failure(*checks) -> str | None:
    """First (label, value, limit) with value not below limit, as a reason."""
    for label, value, limit in checks:
        if not value < limit:
            return f"{label} {value:.3e} (limit {limit:.0e})"
    return None


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, i))

    def design_evals(self, out) -> int:
        return 0


class EscKite(Workload):
    """Forward ESC of the kite as `escat esc compute` writes it."""

    name = "esc_kite"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.curve = escat.Kite(0.4)
        self.K, self.n_nodes = (4, 128) if smoke else (8, 512)

    def inputs(self, i):
        # omega within 2% of 1: the cost does not depend on it
        return _jitter(self.rng(i), 1.0, 0.02)

    def run(self, omega, workdir):
        esc = escat.compute_esc(self.curve, PAIR, omega, K=self.K, n_nodes=self.n_nodes)
        out = {
            "esc": esc.to_dict(),
            "symmetries": escat.esc.verify_symmetries(esc),
            "optical": escat.esc.verify_optical(esc),
        }
        escat.config.atomic_write_json(workdir / "esc.json", out)
        return out

    def check(self, omega, out):
        return _first_failure(
            ("reciprocity defect", out["symmetries"]["reciprocity"], RECIPROCITY_TOL),
            ("mirror-parity defect", out["symmetries"]["mirror"], MIRROR_TOL),
            ("energy-identity residual", out["optical"]["residual"], ENERGY_TOL),
        )


class MsrRoundtrip(Workload):
    """Simulate, save, load, add noise and reconstruct MSR data."""

    name = "msr_roundtrip"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.curve = escat.Kite(0.4)
        self.n_side, self.n_nodes = (16, 64) if smoke else (64, 128)

    def inputs(self, i):
        rng = self.rng(i)
        return escat.MsrConfig(
            radius=2e3 * np.pi,
            n_sources=self.n_side,
            n_receivers=self.n_side,
            omega=_jitter(rng, 1.0, 0.02),
            exterior=EXTERIOR,
            noise_sigma=1e-7,
            seed=int(rng.integers(2**31)),
        )

    def run(self, cfg, workdir):
        data = escat.simulate_msr(self.curve, PAIR, cfg, mode="bie", n_nodes=self.n_nodes)
        prefix = workdir / "msr"
        data.save(prefix)
        loaded = escat.MsrDataset.load(prefix)
        noisy = escat.msr.add_noise(loaded)
        est4, _ = escat.reconstruct(noisy, 4, method="pseudo_inverse")
        est5, _ = escat.reconstruct(noisy, 5, method="lsq_constrained")
        return data, loaded, est4, est5

    def check(self, cfg, out):
        data, loaded, est4, est5 = out
        blocks = ("a_par_par", "a_par_perp", "a_perp_par", "a_perp_perp")
        for b in blocks:
            got = getattr(loaded, b)
            if got.shape != (self.n_side, self.n_side) or not np.all(np.isfinite(got)):
                return f"loaded block {b} has shape {got.shape} or is not finite"
            if not np.array_equal(got, getattr(data, b)):
                return f"loaded block {b} differs from the saved one"
        if not np.all(np.isfinite(est5.to_global())):
            return "K=5 lsq_constrained estimate is not finite"
        ref = escat.compute_esc(self.curve, PAIR, cfg.omega, K=4, n_nodes=self.n_nodes).to_global()
        err = np.linalg.norm(est4.to_global() - ref) / np.linalg.norm(ref)
        return _first_failure(("K=4 pseudo-inverse error", err, PSEUDO_INVERSE_TOL))


class CloakDesign(Workload):
    """The acceptance L=2 coat design at kappa_S = 0.1.

    The multi-start seed stays at the acceptance value 42 whatever the
    benchmark seed: the design's cost depends on it (seed 7 needs about 1.5x
    the evaluations of seed 42), which would drown any change in noise.
    """

    name = "cloak_design"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.kwargs = dict(
            L=2,
            N=0,
            omega_set=[0.1],
            bounds=DESIGN_BOUNDS,
            exterior=EXTERIOR,
            n_starts=2 if smoke else 8,
            seed=42,
            maxiter=300 if smoke else 1500,
            coeff_probe=[3e-4],
        )

    def inputs(self, i):
        return self.kwargs

    def run(self, kwargs, workdir):
        rep = escat.cloak.design_svanishing(**kwargs)
        escat.config.atomic_write_json(
            workdir / "design.json",
            {
                "seed": rep.seed,
                "structure": rep.structure.to_dict(),
                "objective": rep.objective,
                "reduction_factor": rep.reduction_factor,
                "objective_trace": rep.objective_trace,
                "n_evaluations": rep.n_evaluations,
            },
        )
        return rep

    def design_evals(self, rep):
        return rep.n_evaluations

    def check(self, kwargs, rep):
        for m in rep.structure.layers:
            for key, value in (("lam", m.lam), ("mu", m.mu), ("rho", m.rho)):
                lo, hi = DESIGN_BOUNDS[key]
                if not lo <= value <= hi:
                    return f"layer {key} = {value:.4g} outside [{lo}, {hi}]"
        if not rep.reduction_factor >= REDUCTION_MIN:
            return f"reduction {rep.reduction_factor:.3e} below {REDUCTION_MIN:.0e}"
        return None


class CloakEvaluate(Workload):
    """W_n tables of a 3-layer cavity coat and of the README disk, plus scaling."""

    name = "cloak_evaluate"
    RADII = (2.0, 1.6, 1.3, 1.0)
    COAT = ((6.0, 0.5, 0.6), (1.0, 3.0, 2.0), (10.0, 0.2, 4.0))

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.orders = range(4 if smoke else 13)
        self.omegas = np.geomspace(0.05, 2.0, 6 if smoke else 24)

    def inputs(self, i):
        # each Lame parameter and density within 5% of the fixed coat
        rng = self.rng(i)
        layers = tuple(
            escat.Material(*(_jitter(rng, v, 0.05) for v in mat)) for mat in self.COAT
        )
        return escat.LayeredStructure(radii=self.RADII, layers=layers, exterior=EXTERIOR)

    def run(self, coat, workdir):
        coat_w = np.array(
            [[escat.layered_esc(coat, w, n) for w in self.omegas] for n in self.orders]
        )
        disk_w = np.array(
            [[escat.analytic_disk_esc(PAIR, 1.0, w, n) for w in self.omegas] for n in self.orders]
        )
        scaling = escat.cloak.scaling_report(coat, 1.0, 8, EPSILONS)
        escat.config.atomic_write_json(
            workdir / "w_table.json",
            {
                "structure": coat.to_dict(),
                "omega": self.omegas,
                "coat": coat_w,
                "disk": disk_w,
                "scaling": scaling,
            },
        )
        return coat_w, disk_w, scaling

    def check(self, coat, out):
        coat_w, disk_w, scaling = out
        exponents = [o["exponent"] for o in scaling["orders"].values()]
        if not (np.all(np.isfinite(coat_w)) and np.all(np.isfinite(disk_w))):
            return "W table has a non-finite entry"
        if not np.all(np.isfinite(exponents)):
            return "scaling exponent is not finite"
        return self._reference_problem

    @functools.cached_property
    def _reference_problem(self):
        """Library-level identities of the transfer-matrix path, once per run."""
        bare = escat.LayeredStructure(radii=(1.0,), layers=(), exterior=EXTERIOR)
        noop = escat.LayeredStructure(
            radii=(2.0, 1.5, 1.0), layers=(EXTERIOR, EXTERIOR), exterior=EXTERIOR
        )
        num = np.sum(np.abs(escat.layered_esc(noop, 0.1, 0)) ** 2)
        den = np.sum(np.abs(escat.layered_esc(bare, 0.1, 0)) ** 2)
        slope = escat.cloak.scaling_report(bare, 1.0, 0, EPSILONS)["orders"][0]["exponent"]
        return _first_failure(
            ("no-op coat vs bare cavity", abs(num / den - 1.0), NOOP_TOL),
            ("bare-cavity n=0 exponent - 4", abs(slope - 4.0), EXPONENT_TOL),
        )


WORKLOADS = {w.name: w for w in (EscKite, MsrRoundtrip, CloakDesign, CloakEvaluate)}
