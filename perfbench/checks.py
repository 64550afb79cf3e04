"""Correctness checks on the outputs of every measured `pillm` process.

Each check returns a list of problems; an empty list means the outputs are
right. The benchmark counts a process with any problem as a failed operation.
Scores are recomputed with the brute-force oracles in `tests/reference.py`,
which share no code with the package.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import numpy as np

from pillm.dsl import DslError, compile_rule, evaluate, to_flags
from pillm.reporting import RECORD_FIELDS
from pillm.timeseries import TimeSeriesTable, load_meta

REPORT_HEADINGS = ("Identify the Fault", "Provide Evidence", "Assess Severity")

_DSL_ERROR = re.compile(r"\d+:\d+: ")


def load_reference(root: Path):
    """Import `tests/reference.py` by path, without making `tests` a package import."""
    spec = importlib.util.spec_from_file_location("pillm_reference", root / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_stdout(text: str) -> dict[str, str]:
    """The `key=value` lines `pillm evolve` prints."""
    out = {}
    for line in text.splitlines():
        for item in line.split():
            key, sep, value = item.partition("=")
            if sep:
                out[key] = value
    return out


def read_records(run_dir: Path) -> list[dict]:
    with open(run_dir / "run.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_table(csv_path: Path, meta_path: Path) -> TimeSeriesTable:
    """Parse a CSV that `save_csv` wrote, in bulk instead of cell by cell."""
    metas = load_meta(meta_path.read_bytes())
    header, _, body = csv_path.read_text(encoding="utf-8").partition("\n")
    columns = header.split(",")
    cells = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=np.float64)
    cells = cells.reshape(-1, len(columns))
    index = {name: i for i, name in enumerate(columns)}
    return TimeSeriesTable(
        features=metas,
        values=cells[:, [index[m.name] for m in metas]],
        timestamps=cells[:, index["timestamp"]].astype(np.int64),
        labels=cells[:, index["label"]].astype(np.uint8),
    )


def error_class(error: str) -> str:
    """Class of an invalid candidate's `error` text: budget, extraction, dsl or provider."""
    if "evaluation budget exceeded" in error:
        return "budget"
    if "no fenced code block" in error:
        return "extraction"
    if _DSL_ERROR.match(error):
        return "dsl"
    return "provider"


def check_evolve(exit_code: int, stdout: str, run_dir: Path | None, reference) -> list[str]:
    """Check one `pillm evolve` run; see the module docstring."""
    if exit_code != 0:
        return [f"evolve exited with code {exit_code}"]
    if run_dir is None:
        return ["evolve printed no run directory with a run.jsonl"]
    try:
        return _check_run_dir(parse_stdout(stdout), run_dir, reference)
    except (OSError, ValueError, KeyError, DslError) as exc:
        return [f"cannot read the run directory's outputs: {exc!r}"]


def _check_run_dir(fields: dict[str, str], run_dir: Path, reference) -> list[str]:
    problems = []
    records = read_records(run_dir)
    for record in records:
        missing = [key for key in RECORD_FIELDS if key not in record]
        if missing:
            problems.append(f"{record.get('candidate_id')}: missing {', '.join(missing)}")
    tags = (run_dir / "requests.log").read_text(encoding="utf-8").splitlines()
    if str(len(tags)) != fields.get("llm_calls"):
        problems.append(f"requests.log has {len(tags)} lines, evolve reported {fields.get('llm_calls')}")
    by_id = {record["candidate_id"]: record for record in records}
    best = by_id.get(fields.get("best_id"))
    if best is None or best["fitness"] is None:
        return problems + [f"best_id {fields.get('best_id')} is not a valid logged candidate"]
    top = max(record["fitness"] for record in records if record["fitness"] is not None)
    if best["fitness"] != top or f"{best['fitness']:.6f}" != fields.get("best_fitness"):
        problems.append(f"best_fitness {fields.get('best_fitness')} is not the logged best {top}")
    # Re-score best.rule on the archived training split with the brute-force oracle.
    snapshot = json.loads((run_dir / "config.snapshot").read_text(encoding="utf-8"))
    train = read_table(run_dir / "train.csv", run_dir / "meta.json")
    source = (run_dir / "best.rule").read_text(encoding="utf-8")
    flags = to_flags(evaluate(compile_rule(source, train.feature_names), train), snapshot["threshold"])
    _, _, f1 = reference.event_f1_pa_brute(flags.tolist(), train.labels.tolist())
    if f1 != best["fitness"]:
        problems.append(f"best.rule re-scores to {f1!r} on train.csv, run.jsonl says {best['fitness']!r}")
    return problems


def check_report(exit_code: int, run_dir: Path) -> list[str]:
    if exit_code != 0:
        return [f"report exited with code {exit_code}"]
    path = run_dir / "report.txt"
    if not path.exists():
        return ["report wrote no report.txt"]
    text = path.read_text(encoding="utf-8")
    return [f"report.txt lacks the {h!r} section" for h in REPORT_HEADINGS if h not in text]
