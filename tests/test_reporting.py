import errno
import json
import os

import numpy as np
import pytest

from pillm import reporting
from pillm.providers import ScriptedProvider
from pillm.reporting import (
    BEST_RULE_NAME,
    CONFIG_SNAPSHOT_NAME,
    REPORT_NAME,
    REQUESTS_LOG_NAME,
    RUN_LOG_NAME,
    TRAIN_CSV_NAME,
    DiagnosticReport,
    DuplicateRecordError,
    RunLog,
    RunLogError,
    best_record,
    generate_report,
    narrate_report,
)

from .conftest import make_table

HEADINGS = ("Identify the Fault", "Provide Evidence", "Assess Severity")


def record(candidate_id: str, fitness=None, **overrides) -> dict:
    base = {
        "generation": 0,
        "candidate_id": candidate_id,
        "parent_ids": [],
        "operator": "init",
        "code": "return $x > 1",
        "context": "ctx",
        "code_hash": "0" * 64,
        "fitness": fitness,
        "precision": None,
        "recall": None,
        "request_tags_used": ["init"],
        "error": None,
    }
    base.update(overrides)
    return base


def rule(code: str, context: str = "The zone runs hot under a stuck sensor.") -> tuple[str, str]:
    """The (code, context) pair `generate_report` takes."""
    return code, context


class TestRunLog:
    def test_creates_directory_and_log(self, tmp_path):
        log = RunLog.create(tmp_path / "runs", 3, {})
        assert log.dir.parent == tmp_path / "runs"
        assert log.dir.name.startswith("run-") and log.dir.name.endswith("-s3")
        log.append(record("c0000", fitness=0.5))
        assert (log.dir / RUN_LOG_NAME).exists()
        assert [r["candidate_id"] for r in log.records()] == ["c0000"]

    def test_records_keep_append_order(self, tmp_path):
        log = RunLog(tmp_path)
        for i in range(5):
            log.append(record(f"c{i:04d}", fitness=i / 10))
        assert [r["candidate_id"] for r in log.records()] == [f"c{i:04d}" for i in range(5)]

    def test_each_record_is_one_json_line(self, tmp_path):
        log = RunLog(tmp_path)
        log.append(record("c0000", fitness=0.25))
        log.append(record("c0001"))
        lines = (tmp_path / RUN_LOG_NAME).read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["fitness"] == 0.25
        assert json.loads(lines[1])["fitness"] is None

    def test_missing_field_rejected(self, tmp_path):
        log = RunLog(tmp_path)
        bad = record("c0000")
        del bad["code_hash"]
        with pytest.raises(RunLogError, match="code_hash"):
            log.append(bad)

    def test_error_field_is_required(self, tmp_path):
        log = RunLog(tmp_path)
        slim = record("c0000")
        del slim["error"]
        with pytest.raises(RunLogError, match="error"):
            log.append(slim)
        # A log written before records carried `error` still reads.
        log.path.write_text(json.dumps(slim) + "\n", encoding="utf-8")
        assert log.records()[0]["candidate_id"] == "c0000"

    def test_duplicate_id_rejected(self, tmp_path):
        log = RunLog(tmp_path)
        log.append(record("c0000"))
        with pytest.raises(DuplicateRecordError):
            log.append(record("c0000"))

    def test_config_snapshot_round_trip(self, tmp_path):
        snapshot = {"population_size": 4, "provider": {"kind": "sampler", "seed": 3}}
        log = RunLog.create(tmp_path, 3, snapshot)
        assert (log.dir / CONFIG_SNAPSHOT_NAME).exists()
        assert log.config_snapshot() == snapshot

    def test_opening_a_missing_directory_creates_nothing(self, tmp_path):
        log = RunLog(tmp_path / "runs" / "run-a")
        with pytest.raises(RunLogError, match=f"missing {RUN_LOG_NAME} in "):
            log.records()
        with pytest.raises(RunLogError, match="config.snapshot"):
            log.config_snapshot()
        assert list(tmp_path.iterdir()) == []

    def test_missing_snapshot_raises(self, tmp_path):
        log = RunLog(tmp_path)
        with pytest.raises(RunLogError, match="config.snapshot"):
            log.config_snapshot()

    @pytest.mark.parametrize(
        "tail, problem",
        [
            (b'{"generation": 3, "candidate_id": "c00', "is not valid JSON"),
            (b'{"code": "caf\xe9"}\n', "is not valid UTF-8"),
            (b"[1, 2]\n", "is not a JSON object"),
        ],
    )
    def test_undecodable_files_name_the_line(self, tmp_path, tail, problem):
        log = RunLog(tmp_path)
        log.append(record("c0000"))
        log.path.write_bytes(log.path.read_bytes() + b"\n" + tail)
        with pytest.raises(RunLogError, match=f"{RUN_LOG_NAME} line 3 {problem}"):
            log.records()
        (log.dir / CONFIG_SNAPSHOT_NAME).write_bytes(tail)
        with pytest.raises(RunLogError, match=f"{CONFIG_SNAPSHOT_NAME} line 1 {problem}"):
            log.config_snapshot()

    def test_write_best_keeps_code_and_context(self, tmp_path):
        log = RunLog(tmp_path)
        log.write_best("return $x > 1", "Two lines\nof context.")
        body = (tmp_path / BEST_RULE_NAME).read_text()
        assert body.startswith("return $x > 1\n")
        assert "# context:" in body
        assert "# Two lines" in body
        assert "# of context." in body

    def test_write_report(self, tmp_path):
        log = RunLog(tmp_path)
        log.write_report("hello\n")
        assert (tmp_path / REPORT_NAME).read_text() == "hello\n"


def synced_files(monkeypatch) -> list[os.stat_result]:
    """The status of each file `RunLog.sync` fsyncs from now on, in call order."""
    synced = []

    def recording(fd: int) -> None:
        synced.append(os.fstat(fd))

    monkeypatch.setattr(reporting.os, "fsync", recording)
    return synced


def names(synced: list[os.stat_result], run_dir) -> list[str]:
    return [next(p.name for p in run_dir.iterdir() if os.path.samestat(st, p.stat())) for st in synced]


class TestSync:
    def test_nothing_written_makes_no_fsync(self, tmp_path, monkeypatch):
        synced = synced_files(monkeypatch)
        RunLog(tmp_path).sync()
        assert synced == []

    def test_requests_only_fsyncs_requests_log_alone(self, tmp_path, monkeypatch):
        synced = synced_files(monkeypatch)
        log = RunLog(tmp_path)
        log.request("init")
        log.request("init")
        log.sync()
        assert names(synced, tmp_path) == [REQUESTS_LOG_NAME]

    def test_each_written_stream_once_then_none(self, tmp_path, monkeypatch):
        synced = synced_files(monkeypatch)
        log = RunLog(tmp_path)
        log.request("init")
        log.append(record("c0000"))
        log.append(record("c0001"))
        log.sync()
        assert names(synced, tmp_path) == [REQUESTS_LOG_NAME, RUN_LOG_NAME]
        log.sync()
        assert len(synced) == 2

    def test_lines_reach_the_file_before_sync(self, tmp_path, monkeypatch):
        synced_files(monkeypatch)
        log = RunLog(tmp_path)
        log.request("init")
        log.append(record("c0000"))
        assert (tmp_path / REQUESTS_LOG_NAME).read_text(encoding="utf-8") == "init\n"
        assert [r["candidate_id"] for r in log.records()] == ["c0000"]

    def test_a_short_write_leaves_no_byte_out(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(reporting.os, "write", lambda fd, data: write(fd, data[:3]))
        log = RunLog(tmp_path)
        log.request("crossover")
        log.append({**record("c0000"), "context": "zone at 30 °C, ΔT rising"})
        assert (tmp_path / REQUESTS_LOG_NAME).read_bytes() == b"crossover\n"
        assert [r["context"] for r in log.records()] == ["zone at 30 °C, ΔT rising"]


class TestWriteErrors:
    """An `OSError` while writing a run file is a `RunLogError` naming the file and the directory."""

    @pytest.mark.parametrize(
        "name, write",
        [
            (REQUESTS_LOG_NAME, lambda log: log.request("init")),
            (RUN_LOG_NAME, lambda log: log.append(record("c0000"))),
            (TRAIN_CSV_NAME, lambda log: log.write_split(b"a\n", b"a\n", "[]")),
            (BEST_RULE_NAME, lambda log: log.write_best("return $x > 1", "ctx")),
            (REPORT_NAME, lambda log: log.write_report("hello\n")),
        ],
        ids=["request", "append", "split", "best", "report"],
    )
    def test_missing_directory(self, tmp_path, name, write):
        log = RunLog(tmp_path / "gone")
        with pytest.raises(RunLogError) as info:
            write(log)
        assert str(info.value) == f"cannot write {name} in {tmp_path / 'gone'}: No such file or directory"

    def test_failed_write(self, tmp_path, monkeypatch):
        def failing(fd: int, data) -> int:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(reporting.os, "write", failing)
        with pytest.raises(RunLogError, match=f"^cannot write {REQUESTS_LOG_NAME} in .*: {os.strerror(errno.ENOSPC)}$"):
            RunLog(tmp_path).request("init")

    def test_failed_fsync(self, tmp_path, monkeypatch):
        def failing(fd: int) -> None:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(reporting.os, "fsync", failing)
        log = RunLog(tmp_path)
        log.append(record("c0000"))
        with pytest.raises(RunLogError, match=f"^cannot write {RUN_LOG_NAME} in .*: {os.strerror(errno.EIO)}$"):
            log.sync()


class TestBestRecord:
    def test_empty_and_all_invalid(self):
        assert best_record([]) is None
        assert best_record([record("c0000"), record("c0001")]) is None

    def test_picks_highest_fitness(self):
        records = [record("c0000", 0.4), record("c0001", 0.9), record("c0002", 0.7)]
        assert best_record(records)["candidate_id"] == "c0001"

    def test_tie_goes_to_earlier_id(self):
        records = [record("c0002", 0.9), record("c0001", 0.9), record("c0003", 0.9)]
        assert best_record(records)["candidate_id"] == "c0001"
        records = [record("c10000", 0.9), record("c9999", 0.9)]
        assert best_record(records)["candidate_id"] == "c9999"

    def test_invalid_skipped_even_when_last(self):
        records = [record("c0000", 0.4), record("c0001", None)]
        assert best_record(records)["candidate_id"] == "c0000"


def spike_tables(num_rows: int = 6):
    test_x = np.zeros(num_rows)
    test_x[2:4] = 5.0
    labels = np.zeros(num_rows, dtype=np.uint8)
    labels[2:4] = 1
    test_table = make_table({"x": test_x, "y": np.zeros(num_rows)}, labels=labels)
    train_table = make_table(
        {"x": np.array([0.0, 1.0, 0.0, 1.0]), "y": np.array([0.0, 1.0, 0.0, 1.0])}
    )
    return test_table, train_table


class TestGenerateReport:
    def test_single_incident_evidence_and_metrics(self):
        test_table, train_table = spike_tables()
        report = generate_report(
            *rule("return $x > 2.5"), test_table, 0.5, train_table
        )
        assert len(report.incidents) == 1
        finding = report.incidents[0]
        assert finding.span == (2, 3)
        assert finding.peak_row == 2
        assert finding.peak_score == 1.0
        assert [item.feature for item in finding.evidence] == ["x"]
        assert finding.evidence[0].value == pytest.approx(5.0)
        assert finding.evidence[0].z_score == pytest.approx((5.0 - 0.5) / 0.5, rel=1e-6)
        assert report.test_metrics.f1 == pytest.approx(1.0)

    def test_labelled_train_split_measures_against_normal_rows(self):
        test_table, _ = spike_tables()
        # Two fault rows far from the four normal ones.
        train_x = np.array([0.0, 1.0, 0.0, 1.0, 9.0, 9.0])
        labels = np.array([0, 0, 0, 0, 1, 1], dtype=np.uint8)
        train_table = make_table({"x": train_x, "y": np.zeros(6)}, labels=labels)
        report = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table)
        assert report.incidents[0].evidence[0].z_score == pytest.approx((5.0 - 0.5) / 0.5, rel=1e-6)
        assert "Z-scores are measured against the 4 training rows labelled normal.\n" in report.render()

    @pytest.mark.parametrize("labels", [None, np.ones(4, dtype=np.uint8)], ids=["unlabelled", "no-normal-row"])
    def test_train_split_without_normal_rows_measures_against_all_rows(self, labels):
        test_table, _ = spike_tables()
        train_table = make_table({"x": np.array([0.0, 1.0, 0.0, 1.0]), "y": np.zeros(4)}, labels=labels)
        report = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table)
        assert report.incidents[0].evidence[0].z_score == pytest.approx((5.0 - 0.5) / 0.5, rel=1e-6)
        assert "Z-scores are measured against all 4 training rows.\n" in report.render()

    def test_evidence_limited_to_top_three_rule_features(self):
        num_rows = 8
        columns = {
            name: np.zeros(num_rows) for name in ("a", "b", "c", "d", "unused")
        }
        columns["a"][4] = 9.0
        columns["b"][4] = 7.0
        columns["c"][4] = 3.0
        columns["d"][4] = 5.0
        test_table = make_table(columns)
        train_table = make_table(
            {name: np.array([-1.0, 1.0]) for name in columns}
        )
        report = generate_report(
            *rule("return $a + $b + $c + $d > 10"), test_table, 0.5, train_table
        )
        finding = report.incidents[0]
        assert [item.feature for item in finding.evidence] == ["a", "b", "d"]
        assert "unused" not in {item.feature for item in finding.evidence}
        assert report.test_metrics is None

    def test_z_ties_break_alphabetically(self):
        num_rows = 6
        columns = {"m": np.zeros(num_rows), "k": np.zeros(num_rows)}
        columns["m"][3] = 4.0
        columns["k"][3] = 4.0
        test_table = make_table(columns)
        train_table = make_table({name: np.array([-1.0, 1.0]) for name in columns})
        report = generate_report(
            *rule("return $k + $m > 5"), test_table, 0.5, train_table
        )
        assert [item.feature for item in report.incidents[0].evidence] == ["k", "m"]

    def test_feature_off_a_constant_baseline_ranks_first(self):
        # y reads 0 on every baseline row and 1 at the peak: no spread to divide by.
        test_table, train_table = spike_tables()
        test_table = make_table(
            {"x": test_table.column("x"), "y": test_table.column("x") / 5}, labels=test_table.labels
        )
        train_table = make_table({"x": train_table.column("x"), "y": np.zeros(4)})
        report = generate_report(*rule("return $x > 2.5 and $y > 0.5"), test_table, 0.5, train_table)
        y, x = report.incidents[0].evidence
        assert (y.feature, y.value, y.z_score, y.baseline) == ("y", 1.0, float("inf"), 0.0)
        assert x.z_score == pytest.approx((5.0 - 0.5) / 0.5, rel=1e-6) and x.baseline is None
        text = report.render()
        assert "  - y = 1.0000 at the peak row; every baseline row reads 0.0000\n" in text
        assert "  - x = 5.0000 at the peak row, +9.00 standard deviations from its training mean\n" in text

    def test_feature_on_its_constant_baseline_has_z_score_zero(self):
        test_table, train_table = spike_tables()
        train_table = make_table({"x": train_table.column("x"), "y": np.full(4, 0.1)})
        test_table = make_table({"x": test_table.column("x"), "y": np.full(6, 0.1)})
        report = generate_report(*rule("return $x > 2.5 and $y < 0.5"), test_table, 0.5, train_table)
        x, y = report.incidents[0].evidence
        assert (y.feature, y.z_score, y.baseline) == ("y", 0.0, None)
        assert "  - y = 0.1000 at the peak row, +0.00 standard deviations from its training mean\n" in report.render()

    def test_severity_severe_for_wide_strong_incident(self):
        test_table, train_table = spike_tables()
        report = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table)
        assert report.incidents[0].severity == "severe"

    def test_severity_moderate_for_narrow_strong_incident(self):
        num_rows = 300
        test_x = np.zeros(num_rows)
        test_x[100:102] = 5.0
        test_table = make_table({"x": test_x})
        train_table = make_table({"x": np.array([0.0, 1.0])})
        report = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table)
        assert report.incidents[0].severity == "moderate"

    def test_severity_low_for_weak_scores(self):
        num_rows = 6
        test_x = np.zeros(num_rows)
        test_x[2:4] = 3.0
        test_table = make_table({"x": test_x})
        train_table = make_table({"x": np.array([0.0, 1.0])})
        report = generate_report(*rule("return $x / 10"), test_table, 0.25, train_table)
        assert report.incidents[0].severity == "low"
        assert report.incidents[0].peak_score == pytest.approx(0.3)

    def test_no_anomalies(self):
        test_table, train_table = spike_tables()
        report = generate_report(*rule("return $x > 99"), test_table, 0.5, train_table)
        assert report.incidents == ()
        text = report.render()
        assert "No anomalies detected." in text
        assert "Severity: none." in text

    def test_multiple_incidents_in_row_order(self):
        test_x = np.zeros(12)
        test_x[2] = 5.0
        test_x[8:10] = 5.0
        test_table = make_table({"x": test_x})
        train_table = make_table({"x": np.array([0.0, 1.0])})
        report = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table)
        assert [f.span for f in report.incidents] == [(2, 2), (8, 9)]


class TestRender:
    def test_headings_always_present(self):
        test_table, train_table = spike_tables()
        for code in ("return $x > 2.5", "return $x > 99"):
            text = generate_report(*rule(code), test_table, 0.5, train_table).render()
            for heading in HEADINGS:
                assert heading in text
            assert text.index(HEADINGS[0]) < text.index(HEADINGS[1]) < text.index(HEADINGS[2])

    def test_render_quotes_rule_and_context(self):
        test_table, train_table = spike_tables()
        text = generate_report(
            *rule("return $x > 2.5", context="A biased thermostat reads five degrees hot."),
            test_table,
            0.5,
            train_table,
        ).render()
        assert "    return $x > 2.5" in text
        assert "A biased thermostat reads five degrees hot." in text

    def test_render_includes_metrics_line_when_labeled(self):
        test_table, train_table = spike_tables()
        text = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table).render()
        assert "Test metrics: mode=event_pa precision=1.000000 recall=1.000000 f1=1.000000" in text

    def test_render_ends_with_newline(self):
        test_table, train_table = spike_tables()
        text = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table).render()
        assert text.endswith("\n")


class TestNarrate:
    def test_offline_narration_is_identity(self):
        test_table, train_table = spike_tables()
        text = generate_report(*rule("return $x > 2.5"), test_table, 0.5, train_table).render()
        assert narrate_report(text, ScriptedProvider([])) == text
