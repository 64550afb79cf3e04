"""Run persistence and the three-part diagnostic report.

`RunLog` reserves each new run directory and is its only writer. Its two
streams, `run.jsonl` (one record per candidate) and `requests.log` (one tag
per LLM request, written in slot order once the request's slot has
finished), are appended a line at a time, each line as it is due, so a run
that aborts, crashes or is killed keeps every line written before it
stopped; a hard kill loses the tags of the slots still in flight, whose
records were not written either. `sync` fsyncs the streams; the engine
calls it at the end of each plan, so an OS crash or a power loss can lose
at most the lines of the plan in progress. The report follows the
identify / evidence / severity structure: quote the winning rule's physical
hypothesis, back each detected incident with the most deviant referenced
signals, measured against normal training rows, then grade it.
"""

from __future__ import annotations

import json
import math
import os
import textwrap
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dsl import compile_rule, evaluate, to_flags
from .dsl.interp import ZSCORE_EPS
from .metrics import MetricReport, event_f1_pa
from .timeseries import TimeSeriesTable, incidents_from_labels

if TYPE_CHECKING:
    from .providers import Provider

RUN_LOG_NAME = "run.jsonl"
REQUESTS_LOG_NAME = "requests.log"
CONFIG_SNAPSHOT_NAME = "config.snapshot"
TRAIN_CSV_NAME = "train.csv"
TEST_CSV_NAME = "test.csv"
META_NAME = "meta.json"
BEST_RULE_NAME = "best.rule"
REPORT_NAME = "report.txt"


def rank_key(fitness: float | None, candidate_id: str) -> tuple:
    """Sort key of a candidate: invalid ones last, then higher fitness, then creation order.

    Creation order puts `c9999` before `c10000`. The engine's survivors and
    elites, and the record `evolve` writes to `best.rule` and `report`
    describes (`best_record`), are all chosen by this key.
    """
    return (fitness is None, -(fitness or 0.0), len(candidate_id), candidate_id)


# The keys of a candidate's `run.jsonl` record, in the order the engine's `_log_candidate` writes them.
RECORD_FIELDS = (
    "generation",
    "candidate_id",
    "parent_ids",
    "operator",
    "code",
    "context",
    "code_hash",
    "fitness",
    "precision",
    "recall",
    "request_tags_used",
    "error",
)

# The record fields `report` reads; every run log has carried them from the first.
_REPORTED_FIELDS = ("candidate_id", "fitness", "code", "context")

SEVERITY_LOW_SCORE = 0.5
SEVERITY_MODERATE_FRACTION = 0.01


class RunLogError(Exception):
    """Run directory bookkeeping failed."""


class DuplicateRecordError(RunLogError):
    """A candidate_id was appended twice."""


class RunDirError(RunLogError):
    """No new run directory can be made under the given root."""


def _json_object(data: bytes, path: Path, line: int = 1) -> dict:
    """The JSON object in `data`, read from `path` at 1-based `line`.

    Anything else, such as the torn last line a crash mid-append leaves,
    raises `RunLogError` naming the file and the line.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        problem = "is not valid UTF-8"
    except json.JSONDecodeError as exc:
        line += exc.lineno - 1
        problem = f"is not valid JSON ({exc.msg})"
    else:
        if isinstance(doc, dict):
            return doc
        problem = "is not a JSON object"
    raise RunLogError(f"{path} line {line} {problem}")


def _reported_value(key: str, value) -> bool:
    """Whether `value` can be the record field `key` that `report` reads.

    `fitness` is null or a finite number, not a bool; the others are strings.
    """
    if key != "fitness":
        return isinstance(value, str)
    try:
        return value is None or (type(value) in (int, float) and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


class RunLog:
    """Single writer of one run directory, `<out>/run-<date>-<time>-s<seed>/`, and all its files."""

    def __init__(self, run_dir: str | Path):
        """Open the run directory `run_dir`; this creates nothing."""
        self.dir = Path(run_dir)
        self.path = self.dir / RUN_LOG_NAME
        # The ids appended through this writer; `append` rejects a repeat.
        self._seen: set[str] = set()
        # The streams written since the last `sync`, in the order first written.
        self._unsynced: dict[Path, None] = {}

    @classmethod
    def create(cls, out_root: str | Path, seed: int, config_snapshot: dict) -> RunLog:
        """Reserve a new run directory under `out_root`, making `out_root` if needed.

        The exclusive mkdir reserves the name, so two runs started in the same
        second with the same seed get two directories (the second with `-2`).
        The new directory holds `config_snapshot` before this returns. Any
        other `OSError`, such as `out_root` lying under a regular file,
        raises `RunDirError` naming `out_root`.
        """
        base = f"run-{time.strftime('%Y%m%d-%H%M%S')}-s{seed}"
        run_dir, counter = Path(out_root) / base, 2
        try:
            while True:
                try:
                    run_dir.mkdir(parents=True)
                    break
                except FileExistsError:
                    run_dir = run_dir.with_name(f"{base}-{counter}")
                    counter += 1
            (run_dir / CONFIG_SNAPSHOT_NAME).write_text(
                json.dumps(config_snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise RunDirError(f"cannot make a run directory under {out_root}: {exc.strerror}") from None
        return cls(run_dir)

    def append(self, record: dict) -> None:
        """Append one candidate record; `sync` makes it durable."""
        missing = [key for key in RECORD_FIELDS if key not in record]
        if missing:
            raise RunLogError(f"record is missing fields: {', '.join(missing)}")
        candidate_id = record["candidate_id"]
        if candidate_id in self._seen:
            raise DuplicateRecordError(f"duplicate candidate_id {candidate_id!r}")
        self._append_line(self.path, json.dumps(record, ensure_ascii=False))
        self._seen.add(candidate_id)

    def request(self, tag: str) -> None:
        """Append one LLM request tag; `sync` makes it durable.

        The engine calls this for each slot's tags once the slot has
        finished, in slot order, so the log does not depend on the order
        replies arrive in.
        """
        self._append_line(self.dir / REQUESTS_LOG_NAME, tag)

    def sync(self) -> None:
        """fsync each stream written since the last call; none when nothing was written.

        Each line reaches the file when it is appended, so a process that
        dies keeps it either way; this guards it against an OS crash or a
        power loss, and reports a write the kernel could not complete.
        """
        unsynced, self._unsynced = self._unsynced, {}
        for path in unsynced:
            with self._writing(path):
                fd = os.open(path, os.O_WRONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def _append_line(self, path: Path, line: str) -> None:
        """Append `line` to `path` with three system calls, not through Python's text I/O."""
        data = memoryview((line + "\n").encode("utf-8"))
        with self._writing(path):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                while data:  # a short write leaves the rest to write
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
        self._unsynced[path] = None

    @contextmanager
    def _writing(self, path: Path):
        """Turn an `OSError` raised while writing `path` into a `RunLogError` naming it."""
        try:
            yield
        except OSError as exc:
            raise RunLogError(f"cannot write {path.name} in {self.dir}: {exc.strerror}") from None

    def _write(self, name: str, data: str | bytes) -> None:
        """Write the run directory's file `name` whole."""
        path = self.dir / name
        with self._writing(path):
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data, encoding="utf-8")

    def records(self) -> list[dict]:
        """Every record in the log; `RunLogError` names the first line that is not one, or a missing log."""
        if not self.path.exists():
            raise RunLogError(f"missing {RUN_LOG_NAME} in {self.dir}")
        out = []
        with open(self.path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    record = _json_object(line, self.path, number)
                    missing = [key for key in _REPORTED_FIELDS if key not in record]
                    if missing:
                        raise RunLogError(
                            f"{self.path} line {number} is missing fields: {', '.join(missing)}"
                        )
                    bad = next((key for key in _REPORTED_FIELDS if not _reported_value(key, record[key])), None)
                    if bad is not None:
                        raise RunLogError(f"{self.path} line {number} has a bad {bad}: {record[bad]!r}")
                    out.append(record)
        return out

    def config_snapshot(self) -> dict:
        path = self.dir / CONFIG_SNAPSHOT_NAME
        if not path.exists():
            raise RunLogError(f"missing {CONFIG_SNAPSHOT_NAME} in {self.dir}")
        return _json_object(path.read_bytes(), path)

    def write_split(self, train_csv: bytes, test_csv: bytes, meta_json: str) -> None:
        """Archive the train/test split the run was evolved and reported on."""
        self._write(TRAIN_CSV_NAME, train_csv)
        self._write(TEST_CSV_NAME, test_csv)
        self._write(META_NAME, meta_json)

    def train_csv(self) -> bytes:
        path = self.dir / TRAIN_CSV_NAME
        if not path.exists():
            raise RunLogError(
                f"run directory is missing {TRAIN_CSV_NAME}, cannot compute evidence z-scores"
            )
        return path.read_bytes()

    def write_best(self, code: str, context: str) -> None:
        body = code.rstrip("\n") + "\n\n# context:\n"
        body += "".join(f"# {line}\n" for line in context.splitlines() or [""])
        self._write(BEST_RULE_NAME, body)

    def write_report(self, text: str) -> None:
        self._write(REPORT_NAME, text)


def best_record(records: Sequence[dict]) -> dict | None:
    """The valid record `rank_key` puts first: highest fitness, earliest candidate on ties."""
    valid = [r for r in records if r.get("fitness") is not None]
    return min(valid, key=lambda r: rank_key(r["fitness"], r["candidate_id"]), default=None)


@dataclass(frozen=True)
class EvidenceItem:
    """A referenced feature at an incident's peak row.

    `baseline` is set, and `z_score` is infinite, when every baseline row
    reads that one value and the peak row does not: there is no spread to
    measure the distance in.
    """

    feature: str
    value: float
    z_score: float
    baseline: float | None = None


@dataclass(frozen=True)
class IncidentFinding:
    span: tuple[int, int]  # inclusive row span
    peak_row: int
    peak_score: float
    evidence: tuple[EvidenceItem, ...]
    severity: str


@dataclass
class DiagnosticReport:
    incidents: tuple[IncidentFinding, ...]
    rule_code: str
    rule_context: str
    test_metrics: MetricReport | None
    num_rows: int
    # The training rows the evidence z-scores are measured against, in words.
    baseline: str

    def render(self) -> str:
        lines: list[str] = []

        lines.append("Identify the Fault")
        lines.append("==================")
        if not self.incidents:
            lines.append("No anomalies detected.")
        else:
            count = len(self.incidents)
            lines.append(
                f"Detected {count} incident{'s' if count != 1 else ''} "
                f"over {self.num_rows} evaluation rows."
            )
            lines.append("Working hypothesis from the rule's physical context:")
            lines.extend(
                textwrap.wrap(self.rule_context, width=78, initial_indent="  ", subsequent_indent="  ")
                or ["  (no context recorded)"]
            )
        lines.append("Rule:")
        for code_line in self.rule_code.splitlines():
            lines.append(f"    {code_line}")
        lines.append("")

        lines.append("Provide Evidence")
        lines.append("================")
        if not self.incidents:
            lines.append("No flagged rows, so there is no evidence to present.")
        else:
            lines.append(f"Z-scores are measured against {self.baseline}.")
        for i, finding in enumerate(self.incidents, start=1):
            start, end = finding.span
            lines.append(
                f"Incident {i}: rows {start}..{end} ({end - start + 1} rows), "
                f"peak score {finding.peak_score:.4f} at row {finding.peak_row}."
            )
            for item in finding.evidence:
                if item.baseline is not None:
                    detail = f"; every baseline row reads {item.baseline:.4f}"
                else:
                    detail = f", {item.z_score:+.2f} standard deviations from its training mean"
                lines.append(f"  - {item.feature} = {item.value:.4f} at the peak row{detail}")
        lines.append("")

        lines.append("Assess Severity")
        lines.append("===============")
        if not self.incidents:
            lines.append("Severity: none.")
        for i, finding in enumerate(self.incidents, start=1):
            start, end = finding.span
            share = 100.0 * (end - start + 1) / self.num_rows
            lines.append(
                f"Incident {i}: {finding.severity} "
                f"({share:.2f}% of the evaluation window)."
            )
        if self.test_metrics is not None:
            lines.append("")
            lines.append(f"Test metrics: {self.test_metrics.line()}")
        return "\n".join(lines) + "\n"


def _severity(scores: np.ndarray, span: tuple[int, int], num_rows: int) -> str:
    start, end = span
    if float(np.mean(scores[start : end + 1])) < SEVERITY_LOW_SCORE:
        return "low"
    if (end - start + 1) / num_rows < SEVERITY_MODERATE_FRACTION:
        return "moderate"
    return "severe"


def generate_report(
    code: str,
    context: str,
    test_table: TimeSeriesTable,
    threshold: float,
    train_table: TimeSeriesTable,
) -> DiagnosticReport:
    """Evaluate the winning rule's `code` on the test split and grade its findings.

    The report quotes `context`, the rule's physical hypothesis. Evidence is
    computed per incident at the peak-score row: the rule's referenced
    features, ranked by |z-score| against the mean and standard deviation of
    the training split's normal rows (labelled 0), or of all its rows when it
    has no labels or no normal row, top three kept. A feature whose
    baseline rows all read one value has a z-score of 0 at a peak row that
    reads it too, and ranks first at one that does not.
    """
    rule = compile_rule(code, test_table.feature_names)
    scores = evaluate(rule, test_table)
    flags = to_flags(scores, threshold)
    incidents = incidents_from_labels(flags)

    rows = slice(None)
    baseline = f"all {train_table.num_rows} training rows"
    if train_table.has_labels:
        normal = train_table.labels == 0
        if normal.any():
            rows = normal
            baseline = f"the {int(normal.sum())} training rows labelled normal"
    train_stats = {}
    for name in sorted(rule.ast.features):
        column = train_table.column(name)[rows]
        constant = float(column[0]) if column.min() == column.max() else None
        train_stats[name] = (float(np.mean(column)), float(np.std(column)), constant)

    findings = []
    for start, end in incidents:
        window = scores[start : end + 1]
        peak_row = start + int(np.argmax(window))
        evidence = []
        for name, (mu, sd, constant) in train_stats.items():
            value = float(test_table.column(name)[peak_row])
            if constant is None:
                evidence.append(EvidenceItem(name, value, (value - mu) / (sd + ZSCORE_EPS)))
            elif value == constant:
                evidence.append(EvidenceItem(name, value, 0.0))
            else:
                evidence.append(EvidenceItem(name, value, math.copysign(math.inf, value - constant), constant))
        evidence.sort(key=lambda item: (-abs(item.z_score), item.feature))
        findings.append(
            IncidentFinding(
                span=(int(start), int(end)),
                peak_row=peak_row,
                peak_score=float(scores[peak_row]),
                evidence=tuple(evidence[:3]),
                severity=_severity(scores, (start, end), test_table.num_rows),
            )
        )

    metrics = None
    if test_table.has_labels:
        metrics = event_f1_pa(flags, test_table.labels)
    return DiagnosticReport(
        incidents=tuple(findings),
        rule_code=code,
        rule_context=context,
        test_metrics=metrics,
        num_rows=test_table.num_rows,
        baseline=baseline,
    )


def narrate_report(report_text: str, provider: Provider) -> str:
    """Send the rendered report through the provider for prose elaboration.

    Offline providers echo the skeleton unchanged, so narration is a no-op
    without a live endpoint.
    """
    from .providers import CompletionRequest

    request = CompletionRequest(
        system_prompt=(
            "You are an expert in the domain of building energy. Rewrite the "
            "following diagnostic report as clear prose for a facilities "
            "manager, keeping every number and the three section headings."
        ),
        user_prompt=report_text,
        tag="narrate",
        temperature=0.2,
    )
    return provider.complete(request).text
