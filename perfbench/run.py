"""escat benchmark: one closed-loop client calling the library in-process.

    python3 perfbench/run.py --workload esc_kite --seed 1 --seconds 20 --trace 0

Runs ops of one workload back to back for about ``--seconds`` seconds (at
least one op; the next op starts only if it is expected to finish in
time), checks every op's output, and prints a report followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0``: end-to-end metrics, measured with tracing off.
* ``--trace 1``: per-layer metrics.  Untraced and traced ops alternate, so
  the tracing overhead is measured in the same run; the spans are written
  to ``.perfbench_out/`` at the root of the checkout.

BLAS is pinned to one thread.  The library is imported from ``src/`` of
the checkout this file sits in; without it the run exits with code 1.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5

# (name, unit) of every end-to-end metric
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny problem sizes, for self-checks")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import escat from the checkout's src/ and the workloads built on it."""
    if not (SRC / "escat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no escat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import escat

    if SRC.resolve() not in Path(escat.__file__).resolve().parents:
        sys.exit(f"perfbench: escat imported from {escat.__file__}, not from {SRC}")
    import workloads

    return workloads


def blas_threads() -> dict:
    """Threads reported by the OpenBLAS builds bundled with numpy and scipy."""
    found = {}
    for pkg in ("numpy", "scipy"):
        libs = Path(sys.modules[pkg].__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(handle, sym):
                    found[pkg] = getattr(handle, sym)()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import the library and build the inputs.

    This process has already imported the library, so the file cache is warm
    and bytecode is written, as for a user's second and later runs.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, seconds, workdir, tracer=None):
    """Run ops back to back; with a tracer, every second op is traced."""
    walls = {False: [], True: []}
    per_op, failures, evals = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        x = wl.inputs(i)
        t0 = time.perf_counter()
        wall = None
        try:
            with tracer.tracing(i) if traced else nullcontext():
                out = wl.run(x, workdir)
            wall = time.perf_counter() - t0
            problem = wl.check(x, out)
        except Exception as exc:  # a failed op is counted, not fatal
            if wall is None:  # the op raised, not its check
                wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problem, out = f"{type(exc).__name__}: {exc}", None
        walls[traced].append(wall)
        if problem is not None:
            failures.append(f"op {i}: {problem}")
        elif traced:
            per_op.append(tracer.op_metrics(i, wall) | {"design_evals": wl.design_evals(out)})
        if out is not None:
            evals.append(wl.design_evals(out))
        i += 1
        typical = statistics.median(walls[False] + walls[True])
        enough = tracer is None or (walls[False] and walls[True])
        if enough and time.perf_counter() - start + typical > seconds:
            return walls, per_op, failures, evals


def tail(values):
    """Highest of p50..p99.9 with at least 10 samples beyond it (nearest rank)."""
    for permille in (999, 990, 950, 900, 750, 500):
        if len(values) * (1000 - permille) >= 10 * 1000:
            rank = math.ceil(permille * len(values) / 1000)
            return permille / 10, sorted(values)[rank - 1]
    return None


def report(line):
    print(f"# {line}", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed, args.smoke)
        return 0

    env = environment()
    report(f"env {json.dumps(env, sort_keys=True)}")
    setup = setup_seconds(args) if not args.trace else None
    wl = make(args.seed, args.smoke)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        walls, per_op, failures, evals = measure(wl, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(walls[False]) + len(walls[True])
    for f in failures:
        report(f"FAILED {f}")
    report(f"workload {args.workload} seed {args.seed} smoke {args.smoke} trace {args.trace}: "
           f"{attempted} ops, {len(failures)} failed (failed_frac {len(failures) / attempted:.4g})")
    if any(evals):
        report(f"design_evals = {statistics.median(evals):g} count per op")

    if args.trace:
        metrics = {}
        if per_op:
            values = spans.summarize(per_op, walls[False], walls[True])
            metrics = {n: {"value": values[n], "unit": u} for n, u in spans.PER_LAYER}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env,
            "absent": tracer.absent,
            "walls": {"untraced": walls[False], "traced": walls[True]},
            "counts": {op: dict(c) for op, c in tracer.counts.items()},
            "spans": tracer.spans,
        }))
        if tracer.absent:
            report(f"absent trace targets (reported as 0): {', '.join(tracer.absent)}")
        report(f"spans written to {trace_file}")
    else:
        w = walls[False]
        t = tail(w)
        report(f"wall_s median {statistics.median(w):.6g} s, min {min(w):.6g}, max {max(w):.6g}, "
               f"n={len(w)}; " + (f"tail p{t[0]:g} {t[1]:.6g} s" if t else
                                  "no percentile has 10 samples beyond it"))
        report("setup_s samples " + ", ".join(f"{s:.4f}" for s in setup))
        values = {
            "wall_s": statistics.median(w),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
