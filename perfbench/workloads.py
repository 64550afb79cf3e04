"""The four workloads: how each builds its inputs, and how `pillm` is run on them.

Every workload is pop 10 x gen 10 (129 LLM calls and 80 candidates when every
call succeeds) and takes the workload seed from the benchmark's `--seed`. The
program only ever sees the generated files. See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from pillm.simulate import FaultSpec, SimConfig, generate_corpus
from pillm.timeseries import save_csv, save_meta

import rules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

POP_GEN = {"population_size": 10, "generations": 10}
# More records per tag than a pop 10 x gen 10 run can consume.
SCRIPT_COUNTS = {"init": 9, "reflection": 60, "crossover": 60, "mutation": 30}
ELITE_WINDOWS = (240, 480, 720, 1024)
YEAR_RULE_SEED = 1
# A wedged child is killed after this long, so a run always ends.
PROCESS_DEADLINE_S = 150.0

_NO_PROXY = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def corpus(workload: str, seed: int) -> tuple[SimConfig, FaultSpec]:
    if workload in ("offline-2d", "llm-http"):
        # The README's seed corpus; the workload seed varies the rules instead.
        return SimConfig(length=2880, seed=42), FaultSpec("sensor_bias", 1.0, (1000, 1400))
    rng = random.Random(seed)
    if workload == "offline-year":
        start = rng.randrange(10_000, 360_000)
        return SimConfig(length=525_600, seed=seed), FaultSpec("heating_coil_leak", 1.0, (start, start + 1440))
    if workload == "elite-edits":
        start = rng.randrange(1_000, 9_000)
        return SimConfig(length=14_400, seed=seed), FaultSpec("sensor_bias", 1.0, (start, start + 400))
    raise ValueError(f"unknown workload {workload!r}")


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for `pillm` children: the checkout's sources plus `extra`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


@dataclass
class Inputs:
    """One workload's generated inputs, ready for `pillm evolve`."""

    dir: Path
    provider: str
    generate_s: float
    env: dict = field(default_factory=dict)
    stub: subprocess.Popen | None = None
    endpoint_root: str = ""

    def evolve_args(self, out: Path) -> list[str]:
        args = [
            "evolve", "--data", str(self.dir / "data.csv"), "--meta", str(self.dir / "meta.json"),
            "--config", str(self.dir / "config.json"), "--provider", self.provider, "--out", str(out),
        ]
        if self.provider == "scripted":
            args += ["--script", str(self.dir / "script.jsonl")]
        return args

    def reset(self) -> None:
        """Make the stub answer the next run as it answered the first."""
        if self.stub is not None:
            request = urllib.request.Request(f"{self.endpoint_root}/reset", data=b"", method="POST")
            with _NO_PROXY.open(request, timeout=10) as response:
                response.read()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None


def _start_stub(seed: int) -> tuple[subprocess.Popen, int]:
    stub = subprocess.Popen(
        [sys.executable, str(HERE / "stub_server.py"), "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    line = stub.stdout.readline()
    if not line.startswith("port="):
        stub.wait()
        stub.stdout.close()
        raise RuntimeError("llm-http needs loopback sockets, and the stub server could not listen on 127.0.0.1")
    return stub, int(line.strip().partition("=")[2])


def setup(workload: str, seed: int, directory: Path) -> Inputs:
    """Simulate the corpus, write data.csv/meta.json/config.json, and the script or stub."""
    directory.mkdir(parents=True)
    cfg, fault = corpus(workload, seed)
    started = time.perf_counter()
    table = generate_corpus(cfg, fault)
    generate_s = time.perf_counter() - started
    (directory / "data.csv").write_bytes(save_csv(table))
    (directory / "meta.json").write_text(save_meta(table.features), encoding="utf-8")
    # The year corpus varies with the seed but its rule stream does not: every
    # seed evaluates the same 80 sampler rules, so evaluation work and budget
    # rejections stay the same from seed to seed.
    config = {**POP_GEN, "seed": YEAR_RULE_SEED if workload == "offline-year" else seed}
    provider = {"offline-2d": "sampler", "offline-year": "sampler", "elite-edits": "scripted", "llm-http": "http"}[workload]
    inputs = Inputs(directory, provider, generate_s)
    if provider == "scripted":
        records = rules.script_records(seed, SCRIPT_COUNTS, ELITE_WINDOWS)
        (directory / "script.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    if provider == "http":
        inputs.stub, port = _start_stub(seed)
        inputs.endpoint_root = f"http://127.0.0.1:{port}"
        config["provider"] = {"endpoint": f"{inputs.endpoint_root}/v1/chat/completions", "model": "stub", "timeout_secs": 10}
        # The dummy key goes only to the evolve, never into a file; loopback bypasses any proxy.
        inputs.env = {"PILLM_API_KEY": "benchmark-dummy-key", "NO_PROXY": "127.0.0.1", "no_proxy": "127.0.0.1"}
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return inputs


@dataclass
class Process:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def run_pillm(args: list[str], env: dict, log_dir: Path) -> Process:
    """Run `python -m pillm.cli ARGS`, timed from spawn to exit.

    Peak RSS is that child's own, from `os.wait4`. Output goes to files, so
    no pipe can fill while the child runs.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pillm.cli", *args], stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(PROCESS_DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    return Process(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8"))
