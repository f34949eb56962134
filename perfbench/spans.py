"""In-memory span tracing of escat at its module boundaries.

The tracer wraps public functions and methods of the library from outside
(the library itself is not edited) for the duration of one op, records a
span ``[name, start, end, parent, op]`` per call and adds counts taken at
the same boundary.  Self times are derived afterwards: a span's duration
minus the part covered by its direct children.

A target a later refactor has removed or renamed is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _system_bytes(args, kwargs, result):
    # dense complex (4n)^2 transmission system of TransmissionSolver(grid, ...)
    n = _arg(args, kwargs, 1, "grid").n_nodes
    return {"bie.system_bytes": (4 * n) ** 2 * 16}


def _rhs_batch(args, kwargs, result):
    return {"bie.rhs_count": len(_arg(args, kwargs, 1, "traces"))}


def _rhs_one(args, kwargs, result):
    return {"bie.rhs_count": 1}


def _dataset_bytes(args, kwargs, result):
    prefix = Path(_arg(args, kwargs, 1, "prefix"))
    files = prefix.parent.glob(prefix.name + "*")
    return {"msr.io_bytes": sum(f.stat().st_size for f in files)}


def _written_bytes(args, kwargs, result):
    return {"config.write_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (span name, module, attribute path inside the module, counter or None)
TARGETS = (
    ("bie.single_layer", "escat.bie", "single_layer_matrix", None),
    ("bie.traction_layer", "escat.bie", "traction_layer_matrix", None),
    ("bie.assemble", "escat.bie", "assemble_system", None),
    ("bie.factor", "escat.bie", "TransmissionSolver.__init__", _system_bytes),
    ("bie.solve", "escat.bie", "TransmissionSolver.solve_many", _rhs_batch),
    ("bie.solve", "escat.bie", "TransmissionSolver.solve", _rhs_one),
    ("wavefields.incident", "escat.wavefields", "cyl_wave_J", None),
    ("wavefields.incident", "escat.wavefields", "cyl_wave_traction", None),
    ("wavefields.incident", "escat.wavefields", "plane_wave_mode_field", None),
    ("wavefields.incident", "escat.wavefields", "plane_wave_traction", None),
    ("esc.project", "escat.esc", "compute_esc", None),
    ("esc.verify", "escat.esc", "verify_symmetries", None),
    ("esc.verify", "escat.esc", "verify_optical", None),
    ("msr.receiver", "escat.msr", "simulate_msr", None),
    ("msr.save", "escat.msr", "MsrDataset.save", _dataset_bytes),
    ("msr.load", "escat.msr", "MsrDataset.load", _dataset_bytes),
    ("msr.noise", "escat.msr", "add_noise", None),
    ("msr.model", "escat.msr", "assemble_model", None),
    ("msr.reconstruct", "escat.msr", "reconstruct", None),
    ("cloak.layer_matrix", "escat.cloak", "layer_matrix", None),
    ("cloak.layered_esc", "escat.cloak", "layered_esc", None),
    ("cloak.nelder_mead", "escat.cloak", "sopt.minimize", None),
    ("cloak.polish", "escat.cloak", "design_svanishing", None),
    ("cloak.scaling", "escat.cloak", "scaling_report", None),
    ("config.write", "escat.config", "atomic_write_json", _written_bytes),
    ("config.write", "escat.config", "atomic_write_text", _written_bytes),
)

# per-layer metric -> span name whose self time it is
SELF_TIMES = {
    "bie.single_layer_s": "bie.single_layer",
    "bie.traction_layer_s": "bie.traction_layer",
    "bie.assemble_s": "bie.assemble",
    "bie.factor_s": "bie.factor",
    "bie.solve_s": "bie.solve",
    "wavefields.incident_s": "wavefields.incident",
    "msr.receiver_s": "msr.receiver",
    "msr.save_s": "msr.save",
    "msr.load_s": "msr.load",
    "msr.noise_s": "msr.noise",
    "msr.model_s": "msr.model",
    "msr.reconstruct_s": "msr.reconstruct",
    "esc.project_s": "esc.project",
    "esc.verify_s": "esc.verify",
    "cloak.layer_matrix_s": "cloak.layer_matrix",
    "cloak.layered_esc_s": "cloak.layered_esc",
    "cloak.nelder_mead_s": "cloak.nelder_mead",
    "cloak.polish_s": "cloak.polish",
    "cloak.scaling_s": "cloak.scaling",
    "config.write_s": "config.write",
}
# per-layer metric -> span name whose calls it counts
CALL_COUNTS = {
    "bie.factor_count": "bie.factor",
    "wavefields.incident_calls": "wavefields.incident",
    "cloak.layer_matrix_calls": "cloak.layer_matrix",
    "cloak.layered_esc_calls": "cloak.layered_esc",
}
COUNTERS = ("bie.rhs_count", "bie.system_bytes", "msr.io_bytes", "config.write_bytes")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(m, "s") for m in SELF_TIMES]
    + [(m, "count") for m in CALL_COUNTS]
    + [("bie.rhs_count", "count"), ("design_evals", "count")]
    + [("bie.system_bytes", "bytes"), ("msr.io_bytes", "bytes"), ("config.write_bytes", "bytes")]
    + [("trace.unattributed_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Spans and counts of the traced ops of one run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = defaultdict(Counter)  # op -> counter name -> total
        self.absent = []
        self._stack = []
        self._op = None

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a call made inside a span of the same name is part of it
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            op = self._op
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                self.counts[op].update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def tracing(self, op):
        """Wrap every target while op ``op`` runs, then restore the library."""
        patches = []
        self.absent = []
        for name, module, path, count in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__, count))
            else:
                wrapped = self.wrap(name, raw, count)
            patches.append((owner, attr, raw, wrapped))
            if not isinstance(owner, type):
                # the same function imported by name into other escat modules
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "escat" or mod is owner:
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is raw:
                            patches.append((mod, alias, raw, wrapped))
        for owner, attr, _, wrapped in patches:
            setattr(owner, attr, wrapped)
        self._op = op
        try:
            yield
        finally:
            self._op = None
            for owner, attr, raw, _ in reversed(patches):
                setattr(owner, attr, raw)

    def op_metrics(self, op, wall):
        """Per-layer metrics of one traced op that took ``wall`` seconds."""
        mine = [k for k, s in enumerate(self.spans) if s[4] == op]
        covered = defaultdict(float)
        for k in mine:
            name, start, end, parent, _ = self.spans[k]
            if parent >= 0:
                covered[parent] += end - start
        self_time = Counter()
        calls = Counter()
        for k in mine:
            name, start, end, _, _ = self.spans[k]
            self_time[name] += end - start - covered[k]
            calls[name] += 1
        out = {m: self_time[n] for m, n in SELF_TIMES.items()}
        out.update({m: calls[n] for m, n in CALL_COUNTS.items()})
        out.update({c: self.counts[op][c] for c in COUNTERS})
        out["trace.unattributed_s"] = wall - sum(self_time.values())
        return out


def summarize(per_op, untraced_walls, traced_walls):
    """Per-layer metrics of a run, plus the tracing overhead.

    Times are medians over the traced ops.  Counts are those of the first
    traced op: its inputs depend on the seed alone, while the number of ops,
    and so a median over them, depends on the machine's speed.
    """
    out = {
        name: per_op[0][name] if unit != "s" else statistics.median(op[name] for op in per_op)
        for name, unit in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out
