"""Self-checks of the benchmark, on the smoke size of every workload.

    python3 perfbench/selfcheck.py

For each workload: one untraced and two traced runs with the same seed.
Checks that every op passes its output check, that each run prints exactly
the metrics BENCHMARK.json names with their units, and that the exact
counts (every per-layer metric not in seconds) repeat bit-for-bit.  Prints
every metric by name with its unit.  Last, checks that run.py refuses to
run without the library sources.  Exits with code 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return proc.returncode, None, elapsed
    return 0, json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for trace in (0, 1, 1):
            code, out, elapsed = run(workload, trace)
            print(f"{workload} trace {trace}: exit {code} in {elapsed:.1f} s")
            if out is None:
                problems.append(f"{workload} trace {trace}: exit code {code}")
                continue
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {out['failed']} of "
                                f"{out['attempted']} ops failed")
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {units} "
                                f"differ from BENCHMARK.json")
            for name, m in out["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            results.append(out["metrics"])
        if len(results) == 3:
            for name in (n for n, u in expected[1].items() if u != "s"):
                a, b = results[1][name]["value"], results[2][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} {a} != {b} across two runs")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out, elapsed = run("esc_kite", 0, cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    print(f"without library sources: exit {code} in {elapsed:.1f} s")
    if code == 0 or out is not None:
        problems.append("run.py ran without the library sources")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
