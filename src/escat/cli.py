"""Command-line front end.

Subcommands:
    escat esc compute   --config scene.json --out out.json [--K n] [--nodes n]
    escat msr simulate  --config acq.json --out prefix [--seed s] [--nodes n]
    escat msr reconstruct --config acq.json --data prefix --out out.json [--K n]
    escat msr analyze   --config acq.json --out out.json [--seed s] [--K n] [--epsilon e]
    escat cloak design  --config design.json --out out.json [--seed s]
    escat cloak evaluate --config eval.json --out out.json
    escat cloak scaling --config scaling.json --out out.json
    escat verify [suite ...] [--out out.json]

A flag overrides the matching config field (--nodes: n_nodes); each
subcommand accepts only the flags it reads.  Exit codes: 0 success,
1 runtime failure, 2 configuration/usage error, 3 resonance
(near-singular system).  Structured error JSON goes to stderr.
ESCAT_LOG sets the log level.  Results are written atomically and carry
the config hash and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import config as cfgmod
from .cloak import LayeredStructure, _w_stack, design_svanishing, scaling_report
from .curves import curve_from_dict
from .errors import ConfigError, DomainError, EscatError, ResonanceError
from .esc import compute_esc, decay_profile, verify_optical, verify_symmetries
from .msr import (
    MsrConfig,
    MsrDataset,
    add_noise,
    max_resolving_order,
    reconstruct,
    simulate_msr,
    singular_values,
    snr_estimate,
)
from .verify import SUITES, run_suite
from .wavefields import Material, MaterialPair

logger = logging.getLogger("escat")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_RESONANCE = 3


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _config_values(build):
    """build, raising a ConfigError (exit 2) where a constructor rejects a config value."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except DomainError as e:
            raise ConfigError(str(e)) from e

    return checked


_structure_from = _config_values(LayeredStructure.from_dict)
_curve_from = _config_values(curve_from_dict)


@_config_values
def _scene_from(doc: dict):
    curve = curve_from_dict(doc["curve"])
    pair = MaterialPair(
        Material.from_dict(doc["exterior"]), Material.from_dict(doc["interior"])
    )
    return curve, pair


@_config_values
def _msr_config_from(doc: dict, seed_override=None) -> MsrConfig:
    ext = Material.from_dict(doc["exterior"])
    radius = doc.get("radius")
    if radius is None:
        wl = 2.0 * np.pi / ext.kappa_s(doc["omega"])
        radius = doc.get("radius_wavelengths", 1e3) * wl
    return MsrConfig(
        radius=float(radius),
        n_sources=int(doc["n_sources"]),
        n_receivers=int(doc["n_receivers"]),
        omega=float(doc["omega"]),
        exterior=ext,
        noise_sigma=float(doc.get("noise_sigma", 0.0)),
        seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
    )


def cmd_esc_compute(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.SCENE_SCHEMA)
    curve, pair = _scene_from(doc)
    k = args.K if args.K is not None else doc.get("K", 8)
    n_nodes = args.nodes if args.nodes is not None else doc.get("n_nodes", 256)
    esc = compute_esc(curve, pair, doc["omega"], K=k, n_nodes=n_nodes)
    out = {
        "config_hash": cfgmod.config_hash(doc),
        "esc": esc.to_dict(),
        "summary": {
            "decay": decay_profile(esc),
            "symmetries": verify_symmetries(esc),
            "optical": verify_optical(esc),
        },
    }
    cfgmod.atomic_write_json(args.out, out)
    return EXIT_OK


def cmd_msr_simulate(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.ACQUISITION_SCHEMA)
    curve, pair = _scene_from(doc)
    cfg = _msr_config_from(doc, args.seed)
    data = simulate_msr(
        curve,
        pair,
        cfg,
        mode=doc.get("mode", "bie"),
        K=doc.get("K"),
        n_nodes=args.nodes if args.nodes is not None else doc.get("n_nodes", 256),
    )
    if cfg.noise_sigma > 0:
        data = add_noise(data)
    data.save(args.out)
    cfgmod.atomic_write_json(
        f"{args.out}_meta.json",
        {"config_hash": cfgmod.config_hash(doc), "seed": cfg.seed},
    )
    return EXIT_OK


def cmd_msr_reconstruct(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.ACQUISITION_SCHEMA)
    data = MsrDataset.load(args.data)
    k = args.K if args.K is not None else doc.get("K", 4)
    est, report = reconstruct(data, k, method=doc.get("method", "pseudo_inverse"))
    out = {
        "config_hash": cfgmod.config_hash(doc),
        "seed": data.config.seed,
        "esc_estimate": est.to_dict(),
        "report": report,
        "symmetries": verify_symmetries(est),
    }
    cfgmod.atomic_write_json(args.out, out)
    return EXIT_OK


def cmd_msr_analyze(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.ACQUISITION_SCHEMA)
    cfg = _msr_config_from(doc, args.seed)
    k = args.K if args.K is not None else doc.get("K", 4)
    sv = singular_values(cfg, k, numeric=k <= 6)
    out = {
        "config_hash": cfgmod.config_hash(doc),
        "sigma": sv["sigma_closed_form"].ravel().tolist(),
        "sigma_min": sv["sigma_min"],
        "sigma_max": sv["sigma_max"],
        "condition": sv["condition"],
        "condition_envelope": sv["condition_envelope"],
    }
    if "sigma_numeric" in sv:
        out["sigma_numeric"] = sv["sigma_numeric"].tolist()
    if cfg.noise_sigma > 0:
        curve = _curve_from(doc["curve"])
        grid_t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        v = curve.velocity(grid_t)
        perimeter = float(np.hypot(v[:, 0], v[:, 1]).mean() * 2 * np.pi)
        snr = snr_estimate(perimeter, cfg.radius, cfg.noise_sigma)
        out["snr"] = snr
        eps = args.epsilon if args.epsilon is not None else doc.get("epsilon", 1.0)
        out["max_resolving_order"] = max_resolving_order(snr, float(eps))
    cfgmod.atomic_write_json(args.out, out)
    return EXIT_OK


def cmd_cloak_design(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.DESIGN_SCHEMA)
    ext = Material.from_dict(doc["exterior"])
    r_cavity = doc.get("r_cavity", 1.0)
    omega_set = [ks * ext.c_s / r_cavity for ks in doc["kappa_s_set"]]
    # every DomainError of the design is a config value it rejects
    rep = _config_values(design_svanishing)(
        L=doc["n_layers"],
        N=doc["order"],
        omega_set=omega_set,
        bounds={k: tuple(v) for k, v in doc["bounds"].items()},
        exterior=ext,
        r_outer=doc.get("r_outer", 2.0),
        r_cavity=r_cavity,
        n_starts=doc.get("n_starts", 16),
        seed=args.seed if args.seed is not None else doc.get("seed", 0),
        mode_mask=doc.get("mode_mask", "PS"),
    )
    target = doc.get("target_reduction")
    status = "ok"
    if target is not None and rep.reduction_factor < target:
        status = "target-not-met"
    out = {
        "config_hash": cfgmod.config_hash(doc),
        "seed": rep.seed,
        "status": status,
        "structure": rep.structure.to_dict(),
        "objective": rep.objective,
        "reduction_factor": rep.reduction_factor,
        "objective_trace": rep.objective_trace,
        "n_evaluations": rep.n_evaluations,
        "diagnostics": {
            "start_evaluations": rep.start_evaluations,
            "penalty_hits": rep.penalty_hits,
            "polish_evaluations": rep.polish_evaluations,
            "polish_stage_evaluations": rep.polish_stage_evaluations,
        },
        # repr keeps frequencies that differ beyond the sixth digit apart
        "w_table": {f"{w!r}|n={n}": v for (w, n), v in rep.w_table.items()},
        "bare_w_table": {f"{w!r}|n={n}": v for (w, n), v in rep.bare_w_table.items()},
    }
    cfgmod.atomic_write_json(args.out, out)
    return EXIT_OK


def cmd_cloak_evaluate(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.EVALUATE_SCHEMA)
    structure = _structure_from(doc["structure"])
    # one table over the orders; a resonance names its (omega, n)
    w = _w_stack(structure, [doc["omega"]], doc["n_max"])[0]
    table = {str(n): w_n.tolist() for n, w_n in enumerate(w)}
    cfgmod.atomic_write_json(
        args.out,
        {"config_hash": cfgmod.config_hash(doc), "omega": doc["omega"], "w_table": table},
    )
    return EXIT_OK


def cmd_cloak_scaling(args) -> int:
    doc = cfgmod.load_config(args.config, cfgmod.SCALING_SCHEMA)
    structure = _structure_from(doc["structure"])
    rep = scaling_report(structure, doc["omega_ref"], doc["n_max"], doc["epsilon_grid"])
    cfgmod.atomic_write_json(
        args.out, {"config_hash": cfgmod.config_hash(doc), "scaling": rep}
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        checks = run_suite(args.suites or None, negate_y_block=args.negate_y_block)
    except KeyError as e:
        raise ConfigError(str(e)) from e
    ok = all(c["passed"] for c in checks)
    doc = {"passed": ok, "checks": checks}
    if args.out:
        cfgmod.atomic_write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=1))
    return EXIT_OK if ok else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="escat", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(group, name, func, *overrides):
        """Subcommand with --config, --out and only the integer overrides it reads."""
        sp = group.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        for flag in overrides:
            sp.add_argument(f"--{flag}", type=int, default=None)
        sp.set_defaults(func=func)
        return sp

    esc_p = sub.add_parser("esc").add_subparsers(dest="subcommand", required=True)
    command(esc_p, "compute", cmd_esc_compute, "K", "nodes")

    msr_p = sub.add_parser("msr").add_subparsers(dest="subcommand", required=True)
    command(msr_p, "simulate", cmd_msr_simulate, "seed", "nodes")
    sp = command(msr_p, "reconstruct", cmd_msr_reconstruct, "K")
    sp.add_argument("--data", required=True, help="dataset prefix from msr simulate")
    sp = command(msr_p, "analyze", cmd_msr_analyze, "seed", "K")
    sp.add_argument("--epsilon", type=float, default=None)

    cloak_p = sub.add_parser("cloak").add_subparsers(dest="subcommand", required=True)
    command(cloak_p, "design", cmd_cloak_design, "seed")
    command(cloak_p, "evaluate", cmd_cloak_evaluate)
    command(cloak_p, "scaling", cmd_cloak_scaling)

    sp = sub.add_parser("verify")
    sp.add_argument("suites", nargs="*", choices=list(SUITES) + [[]], help="suites to run")
    sp.add_argument("--out", default=None)
    sp.add_argument(
        "--negate-y-block",
        action="store_true",
        dest="negate_y_block",
        help="negative control: flip one Y sub-block sign (suite must fail)",
    )
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("ESCAT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as e:
        _emit_error("config", str(e))
        return EXIT_CONFIG
    except ResonanceError as e:
        _emit_error("resonance", str(e))
        return EXIT_RESONANCE
    except EscatError as e:
        _emit_error("runtime", str(e))
        return EXIT_RUNTIME
    except Exception as e:  # pragma: no cover - unexpected
        _emit_error("internal", f"{type(e).__name__}: {e}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
