"""End-to-end and per-layer measurement of one workload.

`end_to_end` runs the real CLI as child processes with tracing off.
`per_layer` runs the same workload in this process, once untraced and once
with every layer boundary wrapped, and adds the per-builtin kernel timings.
Both check every process's outputs and count failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import time
from pathlib import Path

import pillm.cli
from pillm.evolution import EvolutionConfig, run_evolution

import checks
import layers
import workloads

# Set-up is repeated and its median reported, up to this many times while
# the set-ups so far took less than SETUP_CAP_S in total.
SETUP_REPEATS = 5
SETUP_CAP_S = 5.0
STARTUP_REPEATS = 5
REPORT_BUDGET_S = 2.0


class Run:
    """Counts operations and their failures, and keeps the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def timed_setups(workload: str, seed: int, work: Path):
    times, generate = [], []
    inputs = None
    while len(times) < SETUP_REPEATS and sum(times) < SETUP_CAP_S:
        if inputs is not None:
            inputs.close()
            shutil.rmtree(inputs.dir)
        started = time.perf_counter()
        inputs = workloads.setup(workload, seed, work / f"inputs{len(times)}")
        times.append(time.perf_counter() - started)
        generate.append(inputs.generate_s)
    return inputs, times, generate


def run_dir_of(stdout: str) -> Path | None:
    run_dir = checks.parse_stdout(stdout).get("run_dir")
    return Path(run_dir) if run_dir and Path(run_dir, "run.jsonl").is_file() else None


def evolve_child(inputs, out: Path, run: Run, reference):
    """One timed `pillm evolve` child, checked; returns the process and its run directory, if any."""
    proc = workloads.run_pillm(inputs.evolve_args(out), workloads.child_env(inputs.env), out / "logs")
    run_dir = run_dir_of(proc.stdout)
    run.record("evolve", checks.check_evolve(proc.exit_code, proc.stdout, run_dir, reference))
    return proc, run_dir


def signature(records: list[dict]) -> list[tuple]:
    """What a repeat must reproduce: every candidate's id, code and fitness, hence the best."""
    return [(r["candidate_id"], r["code"], r["fitness"]) for r in records]


@contextlib.contextmanager
def patched_env(env: dict):
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def evolve_again(inputs, run_dir: Path) -> tuple:
    """Run the evolution loop again in this process on the run's archived train split.

    A cheaper repeat than a second `pillm evolve` where one evolve fills the
    run: the same config, provider and training rows, without ingest and emit.
    """
    snapshot = json.loads((run_dir / "config.snapshot").read_text(encoding="utf-8"))
    block = snapshot.pop("provider")
    config = EvolutionConfig.from_dict(snapshot)
    train = checks.read_table(run_dir / "train.csv", run_dir / "meta.json")
    inputs.reset()
    with patched_env(inputs.env):
        provider = pillm.cli._build_provider(block["type"], block, block.get("script"), config, train.feature_names)
        return signature(run_evolution(config, train, provider).records)


def check_repeats(logs: list[list[tuple]], run: Run) -> None:
    """Every evolve of one input must log the same candidates, so the same best_fitness."""
    if len(logs) < 2:
        run.record("repeatability", ["fewer than two evolves to compare"])
        return
    problems = []
    for i, log in enumerate(logs[1:], 1):
        if log != logs[0]:
            where = next((a[0] for a, b in zip(log, logs[0]) if a != b), "the candidate count")
            problems.append(f"repeat {i} differs from the first at {where}")
    run.record("repeatability", problems)


def end_to_end(workload: str, seed: int, seconds: float, work: Path, reference):
    run = Run()
    inputs, setup_times, _ = timed_setups(workload, seed, work)
    samples = {"evolve_s": [], "report_s": [], "peak_rss_mb": []}
    logs, valid = [], []
    try:
        started = time.perf_counter()
        while not samples["evolve_s"] or time.perf_counter() - started < seconds:
            out = work / f"evolve{len(samples['evolve_s'])}"
            inputs.reset()
            proc, run_dir = evolve_child(inputs, out, run, reference)
            samples["evolve_s"].append(proc.wall_s)
            samples["peak_rss_mb"].append(proc.peak_rss_mb)
            if run_dir is None:
                continue
            records = checks.read_records(run_dir)
            valid.append(sum(r["fitness"] is not None for r in records) / len(records))
            logs.append(signature(records))
            # A report costs less than its evolve on most workloads, so it is
            # repeated until the reports have taken as long as the evolve did
            # (capped), which gives report_s several samples per run.
            spent = 0.0
            while spent < min(proc.wall_s, REPORT_BUDGET_S):
                report = workloads.run_pillm(
                    ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")],
                    workloads.child_env(inputs.env), out / "report-logs",
                )
                spent += report.wall_s
                if not run.record("report", checks.check_report(report.exit_code, run_dir)):
                    break
                samples["report_s"].append(report.wall_s)
            if len(logs) == 1 and time.perf_counter() - started >= seconds:
                logs.append(evolve_again(inputs, run_dir))
            shutil.rmtree(out)
    finally:
        inputs.close()
    check_repeats(logs, run)
    if not valid or not samples["report_s"]:
        raise RuntimeError("no evolve and report pair completed:\n" + "\n".join(run.problems))
    for name, values in samples.items():
        print(f"# {name}: median {statistics.median(values):.4f} over n={len(values)}: " + " ".join(f"{v:.4f}" for v in values))
    print(f"# setup_s: median {statistics.median(setup_times):.4f} over n={len(setup_times)}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["valid_frac"] = statistics.median(valid)
    return run, metrics


def _in_process(args: list[str], env: dict, tracer=None) -> tuple[int, str, float]:
    """Run the CLI in this process; returns (exit code, stdout, wall seconds)."""
    out = io.StringIO()
    span = tracer.span("cli.evolve") if tracer else contextlib.nullcontext()
    with patched_env(env), contextlib.redirect_stdout(out):
        started = time.perf_counter()
        try:
            with span:
                pillm.cli.main.main(args=args, prog_name="pillm", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - started
    return code, out.getvalue(), wall


def _traced_in_process(args: list[str], env: dict):
    tracer = layers.Tracer()
    layers.traced_layers(tracer)
    try:
        return tracer, _in_process(args, env, tracer)
    finally:
        tracer.restore()


def per_layer(workload: str, seed: int, seconds: float, work: Path, reference):
    run = Run()
    inputs, _, generate = timed_setups(workload, seed, work)
    metrics = {"simulate.generate_corpus.s": statistics.median(generate)}
    startup = []
    for _ in range(STARTUP_REPEATS):
        proc = workloads.run_pillm(["--version"], workloads.child_env(), work / "version-logs")
        run.record("--version", [] if proc.exit_code == 0 else [f"exited with code {proc.exit_code}"])
        startup.append(proc.wall_s)
    metrics["cli.startup_s"] = statistics.median(startup)
    logs, walls, per_evolve = [], {False: [], True: []}, []
    try:
        # Untraced child evolves, for trace.coverage_frac; repeated like set-up.
        children = []
        while len(children) < SETUP_REPEATS and sum(children) < SETUP_CAP_S:
            inputs.reset()
            child, run_dir = evolve_child(inputs, work / f"child{len(children)}", run, reference)
            if run_dir is not None:
                logs.append(signature(checks.read_records(run_dir)))
            children.append(child.wall_s)
        started = time.perf_counter()
        pairs = 0
        while pairs == 0 or time.perf_counter() - started < seconds:
            # Alternate which side goes first, so warm-up favours neither.
            for traced in (False, True) if pairs % 2 == 0 else (True, False):
                out = work / f"inproc{pairs}-{int(traced)}"
                inputs.reset()
                if traced:
                    tracer, (code, stdout, wall) = _traced_in_process(inputs.evolve_args(out), inputs.env)
                else:
                    code, stdout, wall = _in_process(inputs.evolve_args(out), inputs.env)
                run_dir = run_dir_of(stdout)
                run.record("evolve (in process)", checks.check_evolve(code, stdout, run_dir, reference))
                if run_dir is not None:
                    logs.append(signature(checks.read_records(run_dir)))
                    walls[traced].append(wall)
                    if traced:
                        per_evolve.append(layers.evolve_metrics(tracer, checks.read_records(run_dir)))
                        last_traced = run_dir
            pairs += 1
        if not per_evolve or not walls[False]:
            raise RuntimeError("no in-process evolve completed:\n" + "\n".join(run.problems))
        tracer, (code, _, _) = _traced_in_process(
            ["report", "--run", str(last_traced), "--data", str(last_traced / "test.csv"), "--meta", str(last_traced / "meta.json")],
            {},
        )
        run.record("report (in process)", checks.check_report(code, last_traced))
        metrics["reporting.generate_report.s"] = sum(s.duration for s in tracer.spans if s.name == "reporting.generate_report")
    finally:
        inputs.close()
    check_repeats(logs, run)
    for name in per_evolve[0]:
        metrics[name] = statistics.median(m[name] for m in per_evolve)
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    # The traced run's self times sum to its wall time; with start-up added
    # this should account for the untraced child's evolve_s.
    metrics["trace.coverage_frac"] = (traced + metrics["cli.startup_s"]) / statistics.median(children)
    kernel, problems = layers.builtin_metrics(seed, reference)
    for case in layers.BUILTIN_CASES:
        run.record(f"kernel {case}", problems.get(case, []))
    metrics.update(kernel)
    print(f"# in-process evolves: {len(walls[False])} untraced, median {untraced:.4f} s; "
          f"{len(walls[True])} traced, median {traced:.4f} s; {len(children)} child evolves, median {statistics.median(children):.4f} s")
    return run, metrics
