"""Command-line front end: exit codes, outputs, determinism."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import escat
from escat import cli
from escat.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

SCENE = {
    "schema_version": "1",
    "curve": {"type": "circle", "radius": 1.0},
    "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
    "interior": {"lam": 4.0, "mu": 2.0, "rho": 2.0},
    "omega": 1.0,
    "K": 3,
    "n_nodes": 96,
}

ACQ = {
    "schema_version": "1",
    "curve": {"type": "circle", "radius": 1.0},
    "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
    "interior": {"lam": 4.0, "mu": 2.0, "rho": 2.0},
    "omega": 1.0,
    "radius_wavelengths": 1000.0,
    "n_sources": 10,
    "n_receivers": 10,
    "K": 3,
    "n_nodes": 96,
    "noise_sigma": 0.0,
    "seed": 4,
}

# the coat of test_chain_overflow_is_a_resonance in test_cloak.py
OVERFLOW_COAT = {
    "radii": [2.0, 1.5, 1.0],
    "layers": [{"lam": 3.0, "mu": 0.5, "rho": 2.0}, {"lam": 1.0, "mu": 2.0, "rho": 0.7}],
    "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
    "inner": "cavity",
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestEscCompute:
    def test_valid_config(self, tmp_path):
        cfg = write(tmp_path, "scene.json", SCENE)
        out = tmp_path / "esc.json"
        assert main(["esc", "compute", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["esc"]["K"] == 3
        assert "config_hash" in doc
        assert doc["summary"]["symmetries"]["reciprocity"] < 1e-8
        assert doc["summary"]["optical"]["residual"] < 1e-4

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["esc", "compute", "--config", str(p), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "line" in err["error"]["message"]

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(SCENE)
        doc["extra"] = 1
        cfg = write(tmp_path, "scene.json", doc)
        assert main(["esc", "compute", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2

    def test_curve_missing_parameter_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "scene.json", dict(SCENE, curve={"type": "ellipse", "b": 0.5}))
        rc = main(["esc", "compute", "--config", cfg, "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config"
        assert "ellipse" in err["message"] and "'a'" in err["message"]

    def test_curve_rejected_by_its_constructor_exits_2(self, tmp_path, capsys):
        # passes the schema; the curve r = 1 + 2 cos t does not enclose the origin
        curve = {"type": "fourier", "r0": 1, "cos_coeffs": [2.0]}
        cfg = write(tmp_path, "scene.json", dict(SCENE, curve=curve))
        rc = main(["esc", "compute", "--config", cfg, "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "config", "message": "curve must enclose the origin"}

    def test_resonance_exit_code(self, tmp_path):
        # interior Dirichlet eigenfrequency of the unit disk (first zero
        # of J_1 for the interior shear branch, c_S = 1); located by the
        # condition-number bisection in the solver test suite
        doc = dict(SCENE)
        doc["omega"] = 3.831705970207513
        doc["n_nodes"] = 64
        cfg = write(tmp_path, "scene.json", doc)
        rc = main(["esc", "compute", "--config", cfg, "--out", str(tmp_path / "o.json")])
        assert rc == 3


class TestMsr:
    def test_round_trip(self, tmp_path):
        cfg = write(tmp_path, "acq.json", dict(ACQ, mode="expansion", method="lsq"))
        prefix = tmp_path / "data"
        assert main(["msr", "simulate", "--config", cfg, "--out", str(prefix)]) == 0
        out = tmp_path / "recon.json"
        assert (
            main(
                [
                    "msr",
                    "reconstruct",
                    "--config",
                    cfg,
                    "--data",
                    str(prefix),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["report"]["relative_data_residual"] < 1e-9

    @pytest.mark.parametrize(
        "damage, culprit",
        [
            (lambda p: p.with_name("data.json").unlink(), "data.json"),
            (lambda p: p.with_name("data_par_perp.csv").unlink(), "data_par_perp.csv"),
            (lambda p: p.with_name("data.json").write_text("{not json"), "data.json"),
            (lambda p: p.with_name("data.json").write_text('{"cfg": {}}'), "data.json"),
        ],
        ids=["no-header", "no-csv", "header-not-json", "header-without-config"],
    )
    def test_bad_dataset_exits_2(self, tmp_path, capsys, damage, culprit):
        cfg = write(tmp_path, "acq.json", dict(ACQ, mode="expansion"))
        prefix = tmp_path / "data"
        assert main(["msr", "simulate", "--config", cfg, "--out", str(prefix)]) == 0
        damage(prefix)
        capsys.readouterr()
        argv = ["msr", "reconstruct", "--config", cfg, "--data", str(prefix),
                "--out", str(tmp_path / "recon.json")]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config"
        assert culprit in err["message"]

    def test_analyze_resolving_order(self, tmp_path):
        doc = dict(ACQ)
        # epsilon * SNR = 100 -> K = 4: perimeter 2 pi, R = 1000 wl
        ext_ks = 1.0
        radius = 1000.0 * 2 * np.pi / ext_ks
        snr_unit = 2 * np.pi / np.sqrt(radius)
        doc["noise_sigma"] = snr_unit / 100.0
        cfg = write(tmp_path, "acq.json", doc)
        out = tmp_path / "an.json"
        assert main(["msr", "analyze", "--config", cfg, "--out", str(out), "--epsilon", "1.0"]) == 0
        rep = json.loads(out.read_text())
        assert rep["max_resolving_order"] == 4
        assert rep["condition"] > 1.0

    def test_seeded_noise_reproducible(self, tmp_path):
        cfg = write(tmp_path, "acq.json", dict(ACQ, noise_sigma=0.01, mode="expansion"))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        assert main(["msr", "simulate", "--config", cfg, "--out", str(p1)]) == 0
        assert main(["msr", "simulate", "--config", cfg, "--out", str(p2)]) == 0
        assert (p1.parent / "a_par_par.csv").read_text() == (
            p2.parent / "b_par_par.csv"
        ).read_text()


class TestCloak:
    def test_evaluate_bare_cavity(self, tmp_path):
        doc = {
            "schema_version": "1",
            "structure": {
                "radii": [1.0],
                "layers": [],
                "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
                "inner": "cavity",
            },
            "omega": 0.5,
            "n_max": 1,
        }
        cfg = write(tmp_path, "eval.json", doc)
        out = tmp_path / "w.json"
        assert main(["cloak", "evaluate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        w0 = np.array(rep["w_table"]["0"])
        assert np.abs(w0).max() > 1e-4

    def test_evaluate_table_is_layered_esc(self, tmp_path):
        doc = {"schema_version": "1", "structure": OVERFLOW_COAT, "omega": 0.7, "n_max": 6}
        cfg = write(tmp_path, "eval.json", doc)
        out = tmp_path / "w.json"
        assert main(["cloak", "evaluate", "--config", cfg, "--out", str(out)]) == 0
        table = json.loads(out.read_text())["w_table"]
        structure = escat.LayeredStructure.from_dict(OVERFLOW_COAT)
        assert list(table) == [str(n) for n in range(7)]
        for n in range(7):
            w = np.array(table[str(n)])  # complex entries as [re, im]
            assert np.array_equal(w[..., 0] + 1j * w[..., 1], escat.layered_esc(structure, 0.7, n))

    def test_evaluate_resonance_names_order_and_omega(self, tmp_path, capsys):
        # the interface chain overflows at order 30 and omega 3e-4
        doc = {"schema_version": "1", "structure": OVERFLOW_COAT, "omega": 3e-4, "n_max": 30}
        cfg = write(tmp_path, "eval.json", doc)
        rc = main(["cloak", "evaluate", "--config", cfg, "--out", str(tmp_path / "w.json")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "resonance"
        assert "n=30" in err["message"] and "omega=0.0003" in err["message"]

    def test_increasing_radii_exit_2(self, tmp_path, capsys):
        structure = {
            "radii": [1.0, 2.0],
            "layers": [{"lam": 3.0, "mu": 1.5, "rho": 2.0}],
            "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
            "inner": "cavity",
        }
        doc = {"schema_version": "1", "structure": structure, "omega": 0.5, "n_max": 1}
        cfg = write(tmp_path, "eval.json", doc)
        rc = main(["cloak", "evaluate", "--config", cfg, "--out", str(tmp_path / "w.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "config", "message": "radii must be strictly decreasing and positive"}

    def test_design_reports_status(self, tmp_path):
        doc = {
            "schema_version": "1",
            "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
            "n_layers": 1,
            "order": 0,
            "kappa_s_set": [0.1],
            "bounds": {"lam": [0.5, 4.0], "mu": [0.5, 2.0], "rho": [0.5, 2.0]},
            "n_starts": 2,
            "seed": 1,
            "target_reduction": 1e30,  # unreachable: must report, not fail
        }
        cfg = write(tmp_path, "design.json", doc)
        out = tmp_path / "design_out.json"
        assert main(["cloak", "design", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] in ("ok", "target-not-met")
        assert "reduction_factor" in rep and "objective_trace" in rep
        diagnostics = rep["diagnostics"]
        assert len(diagnostics["start_evaluations"]) == 2
        assert sum(diagnostics["start_evaluations"]) + 1 == rep["n_evaluations"]
        assert 0 <= diagnostics["penalty_hits"] <= rep["n_evaluations"]
        assert diagnostics["polish_evaluations"] > 0
        assert sum(diagnostics["polish_stage_evaluations"]) == diagnostics["polish_evaluations"]

    DESIGN = {
        "schema_version": "1",
        "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
        "n_layers": 1,
        "order": 0,
        "kappa_s_set": [0.1],
        "bounds": {"lam": [0.5, 4.0], "mu": [0.5, 2.0], "rho": [0.5, 2.0]},
        "n_starts": 1,
        "seed": 1,
    }

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"bounds": {"lam": [4.0, 0.5], "mu": [0.5, 2.0], "rho": [0.5, 2.0]}},
             "bounds for lam must satisfy 0 < lo < hi"),
            ({"r_outer": 1.0}, "need 0 < r_cavity < r_outer, got r_cavity=1.0, r_outer=1.0"),
        ],
        ids=["bounds", "radii"],
    )
    def test_design_values_rejected_exit_2(self, tmp_path, capsys, change, message):
        cfg = write(tmp_path, "design.json", {**self.DESIGN, **change})
        rc = main(["cloak", "design", "--config", cfg, "--out", str(tmp_path / "d.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == {"type": "config", "message": message}

    def test_design_tables_keep_close_frequencies(self, tmp_path, monkeypatch):
        design = cli.design_svanishing
        # a short Nelder-Mead run: only the keys are under test
        monkeypatch.setattr(cli, "design_svanishing", lambda **kwargs: design(**kwargs, maxiter=20))
        cfg = write(tmp_path, "design.json", {**self.DESIGN, "kappa_s_set": [0.1, 0.1000001]})
        out = tmp_path / "d.json"
        assert main(["cloak", "design", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        keys = ["0.1|n=0", "0.1000001|n=0"]
        assert list(rep["w_table"]) == keys and list(rep["bare_w_table"]) == keys
        assert rep["w_table"][keys[0]] != rep["w_table"][keys[1]]

    def test_scaling_of_a_solid_core(self, tmp_path):
        structure = {
            "radii": [2.0, 1.0],
            "layers": [{"lam": 1.0, "mu": 3.0, "rho": 2.0}],
            "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
            "inner": {"lam": 4.0, "mu": 2.0, "rho": 2.0},
        }
        doc = {
            "schema_version": "1",
            "structure": structure,
            "omega_ref": 1.3,
            "n_max": 2,
            "epsilon_grid": [0.02, 0.1, 0.5],
        }
        cfg = write(tmp_path, "scaling.json", doc)
        out = tmp_path / "scaling_out.json"
        assert main(["cloak", "scaling", "--config", cfg, "--out", str(out)]) == 0
        orders = json.loads(out.read_text())["scaling"]["orders"]
        s = escat.LayeredStructure.from_dict(structure)
        for n in range(3):
            want = [float(np.linalg.norm(escat.layered_esc(s, e * 1.3, n))) for e in (0.02, 0.1, 0.5)]
            assert orders[str(n)]["norms"] == want

    def test_scaling_emits_exponents(self, tmp_path):
        doc = {
            "schema_version": "1",
            "structure": {
                "radii": [1.0],
                "layers": [],
                "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
                "inner": "cavity",
            },
            "omega_ref": 1.0,
            "n_max": 1,
            "epsilon_grid": list(np.geomspace(1e-3, 1e-2, 6)),
        }
        cfg = write(tmp_path, "scaling.json", doc)
        out = tmp_path / "scaling_out.json"
        assert main(["cloak", "scaling", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert abs(rep["scaling"]["orders"]["0"]["exponent"] - 4.0) < 0.2


class TestVerify:
    def test_fast_suites_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "orthogonality", "xtx", "disk", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True

    def test_negative_control_fails(self, tmp_path):
        rc = main(["verify", "xtx", "--negate-y-block", "--out", str(tmp_path / "v.json")])
        assert rc != 0

    def test_unknown_suite(self):
        assert main(["verify", "nosuch"]) == 2


class TestOutputFormat:
    def test_floats_round_trip_exact(self, tmp_path):
        from escat.config import atomic_write_json

        vals = [np.pi, 1.0 / 3.0, 6.02e23, 2.2250738585072014e-308]
        p = tmp_path / "f.json"
        atomic_write_json(p, {"v": vals})
        back = json.loads(p.read_text())["v"]
        assert back == vals


    def test_non_finite_rejected_with_key_path(self, tmp_path):
        from escat.config import atomic_write_json
        from escat.errors import EscatError

        cases = [
            ({"a": {"b": [1.0, bad]}}, "a.b[1]" + tail)
            for bad, tail in ((np.inf, ""), (np.nan, ""), (complex(1.0, -np.inf), "[1]"))
        ]
        cases += [
            (np.nan, "top level"),
            ([1.0, np.float64(np.inf)], "[1]"),
            ([[{"k": -np.inf}]], "[0][0].k"),
        ]
        for doc, where in cases:
            p = tmp_path / "f.json"
            with pytest.raises(EscatError, match=rf" at {re.escape(where)}; not written$"):
                atomic_write_json(p, doc)
            assert not p.exists()
            assert list(tmp_path.iterdir()) == []

    def test_non_finite_result_exits_1(self, tmp_path, monkeypatch, capsys):
        import escat.cli

        monkeypatch.setattr(escat.cli, "decay_profile", lambda esc: [1.0, float("inf")])
        cfg = write(tmp_path, "scene.json", SCENE)
        out = tmp_path / "esc.json"
        assert main(["esc", "compute", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "runtime" and "summary.decay[1]" in err["message"]
        assert not out.exists()


class TestFlags:
    def test_unread_flag_exits_2(self, tmp_path):
        # every subcommand accepts only the overrides it reads
        doc = {
            "schema_version": "1",
            "structure": {
                "radii": [1.0],
                "layers": [],
                "exterior": {"lam": 2.0, "mu": 1.0, "rho": 1.0},
                "inner": "cavity",
            },
            "omega": 0.5,
            "n_max": 1,
        }
        cfg = write(tmp_path, "eval.json", doc)
        out = str(tmp_path / "w.json")
        base = ["cloak", "evaluate", "--config", cfg, "--out", out]
        for extra in (["--K", "9"], ["--nodes", "3"], ["--seed", "5"]):
            assert main(base + extra) == 2, extra
        assert not (tmp_path / "w.json").exists()
        for cmd, flag in (
            (["esc", "compute"], "--seed"),
            (["msr", "simulate"], "--K"),
            (["msr", "reconstruct", "--data", "d"], "--nodes"),
            (["msr", "analyze"], "--nodes"),
            (["cloak", "design"], "--K"),
            (["cloak", "scaling"], "--seed"),
        ):
            assert main(cmd + ["--config", cfg, "--out", out, flag, "1"]) == 2, (cmd, flag)
        assert main(base) == 0


class TestReadmeUsage:
    def test_usage_lines_parse(self):
        lines = [
            ln for ln in README.read_text().splitlines() if ln.startswith("escat ")
        ]
        assert len(lines) >= 8
        for ln in lines:
            argv = ln.replace("[", " ").replace("]", " ").split()[1:]
            assert build_parser().parse_args(argv).func is not None, ln


class TestImports:
    def test_heavy_modules_load_where_they_run(self, tmp_path):
        # the optimizer, the pool and the schema validator stay out of a
        # fresh process until a design runs or a config is read
        script = (
            "import json, sys\n"
            "import escat, escat.cli, escat.config\n"
            "heavy = ('scipy.optimize', 'jsonschema', 'multiprocessing')\n"
            "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
            "escat.config.load_config(sys.argv[1], escat.config.SCENE_SCHEMA)\n"
            "print(json.dumps('jsonschema' in sys.modules))\n"
        )
        cfg = write(tmp_path, "scene.json", SCENE)
        src = os.path.dirname(os.path.dirname(escat.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", script, cfg],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.splitlines()
        assert json.loads(out[0]) == []
        assert json.loads(out[1]) is True

    def test_all_lists_only_existing_names(self):
        # every name a module exports through __all__ is defined in it
        modules = [importlib.import_module(f"escat.{m.name}") for m in pkgutil.iter_modules(escat.__path__)]
        exporting = [mod for mod in [escat, *modules] if hasattr(mod, "__all__")]
        assert {"escat", "escat.cloak", "escat.curves", "escat.wavefields"} <= {m.__name__ for m in exporting}
        missing = [f"{mod.__name__}.{name}" for mod in exporting for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == []
