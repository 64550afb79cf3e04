"""Benchmark `pillm evolve` and `pillm report`, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload offline-2d --seed 1 --seconds 8 --trace 0

`--trace 0` runs the real CLI as child processes with tracing off and reports
the end-to-end metrics. `--trace 1` runs the same workload in process with
every layer boundary wrapped, and reports the per-layer metrics. Every
process's outputs are checked (see checks.py). The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it give sample counts and the environment. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("offline-2d", "offline-year", "elite-edits", "llm-http")


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    sha = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha or "unknown (not a git checkout)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark pillm evolve end to end or per layer.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "pillm" / "cli.py").is_file():
        print(f"error: no pillm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import pillm

    if Path(pillm.__file__).resolve().parent != SRC / "pillm":
        print(f"error: imported pillm from {pillm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import measure

    reference = checks.load_reference(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        run, metrics = (measure.per_layer if args.trace else measure.end_to_end)(args.workload, args.seed, args.seconds, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
