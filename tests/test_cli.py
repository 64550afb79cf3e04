import errno
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import pillm
from pillm import reporting, transport
from pillm.cli import EXIT_CODES, main
from pillm.dsl import MAX_DEPTH, interp, parse
from pillm.prompts import TEMPLATE_IDS, format_response, load_templates
from pillm.providers import CompletionError, SamplerProvider
from pillm.reporting import RunLog, best_record, generate_report
from pillm.timeseries import load_csv, load_meta, save_csv, save_meta

from .conftest import make_table
from .test_providers import Loopback, ok_body

RULE_OK = "return $x > 2.5\n"


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def write_spike_corpus(root: Path) -> tuple[Path, Path]:
    x = np.zeros(6)
    x[2:4] = 5.0
    labels = np.array([0, 0, 1, 1, 0, 0], dtype=np.uint8)
    table = make_table({"x": x}, labels=labels)
    data = root / "data.csv"
    meta = root / "meta.json"
    data.write_bytes(save_csv(table))
    meta.write_text(save_meta(table.features), encoding="utf-8")
    return data, meta


def run_dir_from(output: str) -> Path:
    for line in output.splitlines():
        if line.startswith("run_dir="):
            return Path(line.split("=", 1)[1])
    raise AssertionError(f"no run_dir= line in output:\n{output}")


def evolve_config(tmp_path: Path, **overrides) -> Path:
    doc = {
        "population_size": 4,
        "generations": 2,
        "elite_count": 1,
        "pairs_per_gen": 1,
        "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def sim_corpus(tmp_path, runner) -> tuple[Path, Path]:
    out = tmp_path / "corpus"
    result = runner.invoke(
        main,
        [
            "gen-data",
            "--out",
            str(out),
            "--fault",
            "sensor_bias",
            "--window",
            "1000:1400",
            "--seed",
            "42",
        ],
    )
    assert result.exit_code == 0, result.output
    return out / "data.csv", out / "meta.json"


class TestGenData:
    def test_clean_corpus(self, tmp_path, runner):
        out = tmp_path / "clean"
        result = runner.invoke(main, ["gen-data", "--out", str(out), "--length", "500"])
        assert result.exit_code == 0
        assert "500 rows" in result.output
        metas = load_meta((out / "meta.json").read_bytes())
        table = load_csv((out / "data.csv").read_bytes(), metas)
        assert table.num_rows == 500
        assert table.has_labels
        assert table.labels.sum() == 0

    def test_faulted_corpus_labels_window(self, sim_corpus):
        data, meta = sim_corpus
        table = load_csv(data.read_bytes(), load_meta(meta.read_bytes()))
        assert table.labels.sum() == 400
        assert table.labels[1000] == 1
        assert table.labels[1400] == 0

    def test_fault_requires_window(self, tmp_path, runner):
        result = runner.invoke(
            main, ["gen-data", "--out", str(tmp_path / "x"), "--fault", "sensor_bias"]
        )
        assert result.exit_code == 3
        assert "--window" in result.output

    def test_window_requires_fault(self, tmp_path, runner):
        result = runner.invoke(
            main, ["gen-data", "--out", str(tmp_path / "x"), "--window", "10:20"]
        )
        assert result.exit_code == 3

    def test_unparseable_window(self, tmp_path, runner):
        for args in (
            ["--window", "ten"],
            ["--window", "10:5"],
            ["--window", "5:5"],
            ["--window", "10:20", "--intensity", "0"],
            ["--window", "10:20", "--intensity", "1.5"],
            ["--window", "2800:2900"],
        ):
            result = runner.invoke(
                main, ["gen-data", "--out", str(tmp_path / "x"), "--fault", "sensor_bias", *args]
            )
            assert result.exit_code == 3, (args, result.output)
            assert "error: " in result.output, args

    def test_bad_length(self, tmp_path, runner):
        result = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "x"), "--length", "1"])
        assert result.exit_code == 3

    def test_negative_seed(self, tmp_path, runner):
        result = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "x"), "--seed", "-1"])
        assert result.exit_code == 3
        assert result.output == "error: seed must be >= 0\n"
        assert not (tmp_path / "x").exists()


class TestCheck:
    def test_ok_with_meta(self, tmp_path, runner):
        data, meta = write_spike_corpus(tmp_path)
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        result = runner.invoke(main, ["check", "--rule", str(rule), "--meta", str(meta)])
        assert result.exit_code == 0
        assert result.output.startswith("OK:")
        assert "features: x" in result.output

    def test_ok_without_meta_infers_features(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_text("m = mean($zone_temp, 30)\nreturn zscore($zone_temp, 60) > 3\n")
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        assert result.exit_code == 0
        assert "zone_temp" in result.output
        # Features referenced only in a binding, under a call argument and a unary operand.
        rule.write_text("d = abs($a - lag($b, 2))\nreturn not (d > 1)\n")
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        assert result.exit_code == 0
        assert result.output.strip().endswith("features: a, b")

    def test_diagnostic_on_bad_rule(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_text("return mean($x)\n")
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        assert result.exit_code == 1
        assert "error:" in result.output
        assert "1:" in result.output  # LINE:COL diagnostic

    def test_nesting_past_the_cap_is_a_diagnostic(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_text("return " + "(" * 110 + "1" + ")" * 110 + " > 0\n")
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        column = len("return ") + MAX_DEPTH + 1  # the first parenthesis past the cap
        assert result.output == f"error: 1:{column}: nesting deeper than {MAX_DEPTH} levels\n"

    def test_number_past_float_range_is_a_diagnostic(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_text("return mean($x, 1e999) > 0\n")
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == "error: 1:17: number '1e999' is too large\n"

    def test_unknown_feature_with_meta(self, tmp_path, runner):
        _, meta = write_spike_corpus(tmp_path)
        rule = tmp_path / "rule.txt"
        rule.write_text("return $ghost > 1\n")
        result = runner.invoke(main, ["check", "--rule", str(rule), "--meta", str(meta)])
        assert result.exit_code == 1
        assert "ghost" in result.output

    def test_bad_meta_is_a_config_error(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        meta = tmp_path / "meta.json"
        for text in ('{"bad": 1}', "not json"):
            meta.write_text(text)
            result = runner.invoke(main, ["check", "--rule", str(rule), "--meta", str(meta)])
            assert result.exit_code == 3, (text, result.output)
            assert "error: " in result.output, text


class TestEval:
    def test_perfect_rule_line(self, tmp_path, runner):
        data, meta = write_spike_corpus(tmp_path)
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        result = runner.invoke(
            main, ["eval", "--rule", str(rule), "--data", str(data), "--meta", str(meta)]
        )
        assert result.exit_code == 0
        assert (
            result.output.strip()
            == "mode=event_pa precision=1.000000 recall=1.000000 f1=1.000000"
        )

    def test_pointwise_metric_choice(self, tmp_path, runner):
        data, meta = write_spike_corpus(tmp_path)
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        result = runner.invoke(
            main,
            [
                "eval",
                "--rule",
                str(rule),
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--metric",
                "pointwise",
            ],
        )
        assert result.exit_code == 0
        assert result.output.startswith("mode=pointwise ")

    def test_threshold_changes_flags(self, tmp_path, runner):
        data, meta = write_spike_corpus(tmp_path)
        rule = tmp_path / "rule.txt"
        rule.write_text("return $x / 10\n")
        result = runner.invoke(
            main,
            [
                "eval",
                "--rule",
                str(rule),
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--threshold",
                "0.3",
            ],
        )
        assert result.exit_code == 0
        assert "f1=1.000000" in result.output

    def test_unlabeled_data_rejected(self, tmp_path, runner):
        table = make_table({"x": np.zeros(4)})
        data = tmp_path / "data.csv"
        meta = tmp_path / "meta.json"
        data.write_bytes(save_csv(table))
        meta.write_text(save_meta(table.features), encoding="utf-8")
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK.replace("2.5", "1"))
        result = runner.invoke(
            main, ["eval", "--rule", str(rule), "--data", str(data), "--meta", str(meta)]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, tmp_path, runner, threshold):
        data, meta = write_spike_corpus(tmp_path)
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        args = ["eval", "--rule", str(rule), "--data", str(data), "--meta", str(meta), "--threshold", threshold]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.output.splitlines() == ["error: threshold must be finite"]


class TestEvolve:
    def invoke_evolve(self, runner, data, meta, config, out, *extra):
        return runner.invoke(
            main,
            [
                "evolve",
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--config",
                str(config),
                "--provider",
                "sampler",
                "--out",
                str(out),
                *extra,
            ],
        )

    def test_run_dirs_in_one_second_differ(self, tmp_path, runner, sim_corpus, monkeypatch):
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101-000000")
        data, meta = sim_corpus
        config = evolve_config(tmp_path, generations=0)
        runs = [self.invoke_evolve(runner, data, meta, config, tmp_path / "runs") for _ in range(2)]
        assert [run_dir_from(r.output) for r in runs] == [
            tmp_path / "runs" / "run-20260101-000000-s11",
            tmp_path / "runs" / "run-20260101-000000-s11-2",
        ]

    def test_sampler_run_artifacts(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(runner, data, meta, config, tmp_path / "runs")
        assert result.exit_code == 0, result.output
        run_dir = run_dir_from(result.output)
        for name in (
            "run.jsonl",
            "config.snapshot",
            "best.rule",
            "train.csv",
            "test.csv",
            "meta.json",
            "requests.log",
        ):
            assert (run_dir / name).exists(), name
        assert "best_fitness=" in result.output
        assert "llm_calls=" in result.output

    def test_run_without_a_valid_candidate_writes_no_best(self, tmp_path, runner, sim_corpus, monkeypatch):
        # Every rule costs at least one value per row, so each evaluation blows this budget.
        monkeypatch.setattr(interp, "EVAL_BUDGET", 1)
        data, meta = sim_corpus
        result = self.invoke_evolve(runner, data, meta, evolve_config(tmp_path), tmp_path / "runs")
        assert result.exit_code == 0, result.output
        assert "best_id=none" in result.output.splitlines()
        run_dir = run_dir_from(result.output)
        assert not (run_dir / "best.rule").exists()
        records = RunLog(run_dir).records()
        assert records and all(record["fitness"] is None for record in records)

    def test_run_log_records_are_wellformed(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(runner, data, meta, config, tmp_path / "runs")
        run_dir = run_dir_from(result.output)
        records = [
            json.loads(line)
            for line in (run_dir / "run.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert records[0]["operator"] == "seed"
        ids = [r["candidate_id"] for r in records]
        assert len(ids) == len(set(ids))
        assert all("code_hash" in r for r in records)
        snapshot = json.loads((run_dir / "config.snapshot").read_text())
        assert snapshot["provider"]["type"] == "sampler"
        assert snapshot["population_size"] == 4

    def test_split_archives_cover_all_rows(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(runner, data, meta, config, tmp_path / "runs")
        run_dir = run_dir_from(result.output)
        metas = load_meta((run_dir / "meta.json").read_bytes())
        train = load_csv((run_dir / "train.csv").read_bytes(), metas)
        test = load_csv((run_dir / "test.csv").read_bytes(), metas)
        assert train.num_rows == int(0.7 * 2880)
        assert train.num_rows + test.num_rows == 2880

    def test_unknown_config_key_exits_3(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path, crossover_rate=0.5)
        result = self.invoke_evolve(runner, data, meta, config, tmp_path / "runs")
        assert result.exit_code == 3
        assert "crossover_rate" in result.output

    def test_bad_config_type_exits_3_before_run_dir(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        out = tmp_path / "runs"
        out.mkdir()
        for bad in ({"generations": 1.5}, {"seed": "x"}, {"enable_pir": "no"}):
            config = evolve_config(tmp_path, **bad)
            result = self.invoke_evolve(runner, data, meta, config, out)
            assert result.exit_code == 3, (bad, result.output)
            assert list(out.iterdir()) == []

    def test_non_finite_temperature_exits_3_before_run_dir(self, tmp_path, runner, sim_corpus, monkeypatch):
        # JSON reads 1e999 as infinity, which no request could carry.
        monkeypatch.setenv("PILLM_API_KEY", "test-key")
        data, meta = sim_corpus
        out = tmp_path / "runs"
        out.mkdir()
        http = '"provider": {"endpoint": "http://127.0.0.1:9/v1/chat/completions", "model": "m"}, '
        for field, provider, block in (("init_temperature", "http", http), ("refine_temperature", "sampler", "")):
            config = tmp_path / "config.json"
            config.write_text(f'{{{block}"population_size": 4, "{field}": 1e999}}')
            args = ["evolve", "--data", str(data), "--meta", str(meta), "--config", str(config)]
            result = runner.invoke(main, [*args, "--provider", provider, "--out", str(out)])
            assert result.exit_code == 3, (field, result.output)
            assert "error: init_temperature and refine_temperature must be finite" in result.output
            assert list(out.iterdir()) == []

    def test_bad_http_provider_block_exits_3_before_run_dir(
        self, tmp_path, runner, sim_corpus, monkeypatch
    ):
        monkeypatch.setenv("PILLM_API_KEY", "test-key")
        data, meta = sim_corpus
        out = tmp_path / "runs"
        out.mkdir()
        good = {"endpoint": "http://127.0.0.1:9/v1/chat/completions", "model": "m"}
        for bad in (
            {"timeout_secs": "abc"},
            {"timeout_secs": -1},
            {"timeout_secs": 0},
            {"timeout_secs": 1e10},
            {"timeout_secs": 86_401},
            {"endpoint": 5},
            {"endpoint": "localhost:8000/v1"},
            {"model": ""},
        ):
            config = evolve_config(tmp_path, provider={**good, **bad})
            result = runner.invoke(
                main,
                [
                    "evolve",
                    "--data",
                    str(data),
                    "--meta",
                    str(meta),
                    "--config",
                    str(config),
                    "--provider",
                    "http",
                    "--out",
                    str(out),
                ],
            )
            assert result.exit_code == 3, (bad, result.output)
            assert "error: " in result.output, bad
            if "timeout_secs" in bad:
                assert "error: timeout_secs must be" in result.output, bad
            assert list(out.iterdir()) == []

    def test_unknown_provider_key_exits_3_before_run_dir(self, tmp_path, runner, sim_corpus, monkeypatch):
        # A key of another provider type is refused too, before the http provider looks for its API key.
        monkeypatch.delenv("PILLM_API_KEY", raising=False)
        data, meta = sim_corpus
        out = tmp_path / "runs"
        out.mkdir()
        script = tmp_path / "script.jsonl"
        script.write_text("", encoding="utf-8")
        http = {"endpoint": "http://127.0.0.1:9/v1/chat/completions", "model": "m"}
        for bad, named, provider in (
            ({"timeout_sec": 0.5, "max_in_flight": 16}, "max_in_flight, timeout_sec", ["sampler"]),
            ({"type": "http"}, "type", ["sampler"]),
            ({"script": "nowhere.jsonl"}, "script", ["sampler"]),
            ({"endpoint": http["endpoint"]}, "endpoint", ["scripted", "--script", str(script)]),
            ({**http, "script": "nowhere.jsonl"}, "script", ["http"]),
        ):
            config = evolve_config(tmp_path, provider=bad)
            args = ["--data", str(data), "--meta", str(meta), "--config", str(config), "--out", str(out)]
            result = runner.invoke(main, ["evolve", *args, "--provider", *provider])
            assert result.exit_code == 3, (bad, result.output)
            assert f"error: unknown provider keys: {named}" in result.output
            assert list(out.iterdir()) == []

    def test_malformed_json_exits_3(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = tmp_path / "config.json"
        config.write_text("{not json")
        result = self.invoke_evolve(runner, data, meta, config, tmp_path / "runs")
        assert result.exit_code == 3

    def test_scripted_without_script_exits_3(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = runner.invoke(
            main,
            [
                "evolve",
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--config",
                str(config),
                "--provider",
                "scripted",
                "--out",
                str(tmp_path / "runs"),
            ],
        )
        assert result.exit_code == 3

    def test_bad_script_config_exits_3_before_run_dir(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        out = tmp_path / "runs"
        out.mkdir()
        for bad in (5, ["script.jsonl"], str(tmp_path / "missing.jsonl"), str(tmp_path)):
            config = evolve_config(tmp_path, provider={"script": bad})
            result = runner.invoke(
                main,
                [
                    "evolve",
                    "--data",
                    str(data),
                    "--meta",
                    str(meta),
                    "--config",
                    str(config),
                    "--provider",
                    "scripted",
                    "--out",
                    str(out),
                ],
            )
            assert result.exit_code == 3, (bad, result.output)
            assert "error: " in result.output, bad
            assert list(out.iterdir()) == []

    def test_exhausted_script_aborts_with_exit_2(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        script = tmp_path / "script.jsonl"
        script.write_text("")
        result = runner.invoke(
            main,
            [
                "evolve",
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--config",
                str(config),
                "--provider",
                "scripted",
                "--script",
                str(script),
                "--out",
                str(tmp_path / "runs"),
            ],
        )
        assert result.exit_code == 2
        assert "aborted=true" in result.output
        run_dir = run_dir_from(result.output)
        assert (run_dir / "requests.log").read_text(encoding="utf-8") == "init\n"
        # Generation 0 is kept: the seed and the init slot whose request failed.
        records = [json.loads(line) for line in (run_dir / "run.jsonl").read_text().splitlines()]
        assert [r["candidate_id"] for r in records] == ["c0000", "c0001"]
        assert records[0]["operator"] == "seed" and records[0]["fitness"] is not None
        assert records[1]["operator"] == "init" and records[1]["fitness"] is None
        assert records[1]["request_tags_used"] == ["init"]
        assert (run_dir / "best.rule").exists()
        assert "best_id=c0000" in result.output
        report = runner.invoke(
            main,
            [
                "report",
                "--run",
                str(run_dir),
                "--data",
                str(run_dir / "test.csv"),
                "--meta",
                str(run_dir / "meta.json"),
            ],
        )
        assert report.exit_code == 0, report.output

    def assert_bad_answer_is_retried(self, tmp_path, runner, sim_corpus, bad_code):
        data, meta = sim_corpus
        config = evolve_config(tmp_path, population_size=3, generations=0, retry_budget=1)
        answers = [bad_code, "return $zone_temp > 30", "return $zone_temp > 31"]
        script = tmp_path / "script.jsonl"
        script.write_text(
            "".join(
                json.dumps({"tag": "init", "text": f"```rule\n{code}\n```\n\n```context\nWarm.\n```"}) + "\n"
                for code in answers
            ),
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            [
                "evolve",
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--config",
                str(config),
                "--provider",
                "scripted",
                "--script",
                str(script),
                "--out",
                str(tmp_path / "runs"),
            ],
        )
        assert result.exit_code == 0, result.output
        run_dir = run_dir_from(result.output)
        records = [json.loads(line) for line in (run_dir / "run.jsonl").read_text().splitlines()]
        assert [r["request_tags_used"] for r in records[1:]] == [["init", "init"], ["init"]]
        assert [r["code"] for r in records[1:]] == answers[1:]
        assert all(r["fitness"] is not None for r in records)
        assert (run_dir / "best.rule").exists()

    def test_answer_nested_too_deep_is_retried(self, tmp_path, runner, sim_corpus):
        deep = "return " + "(" * 110 + "$zone_temp" + ")" * 110 + " > 30"
        self.assert_bad_answer_is_retried(tmp_path, runner, sim_corpus, deep)

    def test_answer_with_a_number_past_float_range_is_retried(self, tmp_path, runner, sim_corpus):
        bad = "return mean($zone_temp, 1e999) > 0"
        self.assert_bad_answer_is_retried(tmp_path, runner, sim_corpus, bad)

    def test_crashed_run_keeps_streams(self, tmp_path, runner, sim_corpus, monkeypatch):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        full = self.invoke_evolve(runner, data, meta, config, tmp_path / "full")
        assert full.exit_code == 0, full.output
        full_dir = run_dir_from(full.output)
        full_tags = (full_dir / "requests.log").read_text(encoding="utf-8").splitlines()
        full_records = (full_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()

        # The fourth call is generation 1's first, after the seed and three
        # init candidates were logged.
        crash_at = 4
        original = SamplerProvider.complete
        calls = []

        def crashing(self, request):
            calls.append(request.tag)
            if len(calls) == crash_at:
                raise RuntimeError("provider crashed")
            return original(self, request)

        monkeypatch.setattr(SamplerProvider, "complete", crashing)
        out = tmp_path / "crashed"
        result = self.invoke_evolve(runner, data, meta, config, out)
        assert isinstance(result.exception, RuntimeError)
        run_dir = run_dir_from(result.output)
        assert list(out.iterdir()) == [run_dir]
        tags = (run_dir / "requests.log").read_text(encoding="utf-8").splitlines()
        assert tags == calls == full_tags[:crash_at]
        assert tags[:3] == ["init"] * 3 and tags[-1] != "init"
        records = (run_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()
        assert records == [r for r in full_records if json.loads(r)["generation"] == 0]
        assert len(records) == 4

    @staticmethod
    def expect_write_error(result, name: str) -> None:
        """Exit 1 with one `error:` line naming `name` in the run directory, and no traceback."""
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, result.output
        assert errors[0].startswith(f"error: cannot write {name} in {run_dir_from(result.output)}: "), errors[0]
        assert "Traceback" not in result.output

    def test_removed_run_directory_is_an_error_line(self, tmp_path, runner, sim_corpus, monkeypatch):
        data, meta = sim_corpus
        out = tmp_path / "runs"
        original = SamplerProvider.complete
        lock, calls = threading.Lock(), []

        def removing(self, request):
            # At the first reflection the engine is waiting on it and writes nothing.
            with lock:
                calls.append(request.tag)
                if request.tag == "reflection" and calls.count("reflection") == 1:
                    shutil.rmtree(next(out.iterdir()))
            return original(self, request)

        monkeypatch.setattr(SamplerProvider, "complete", removing)
        result = self.invoke_evolve(runner, data, meta, evolve_config(tmp_path), out)
        self.expect_write_error(result, "requests.log")
        assert result.output.endswith(": No such file or directory\n")

    def test_failed_fsync_is_an_error_line(self, tmp_path, runner, sim_corpus, monkeypatch):
        data, meta = sim_corpus

        def failing(fd: int) -> None:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(reporting.os, "fsync", failing)
        result = self.invoke_evolve(runner, data, meta, evolve_config(tmp_path), tmp_path / "runs")
        self.expect_write_error(result, "requests.log")
        assert result.output.endswith(f": {os.strerror(errno.EIO)}\n")

    def test_sigkill_keeps_every_line_written(self, tmp_path, sim_corpus):
        # The README quick start, run whole and killed at generation 2's first request.
        data, meta = sim_corpus
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"population_size": 6, "generations": 3, "seed": 11}))
        runs = {}
        for mode in ("kill", "full"):
            out = tmp_path / mode
            args = ["evolve", "--data", str(data), "--meta", str(meta), "--config", str(config)]
            proc = run_python(KILL_SCRIPT, mode, *args, "--provider", "sampler", "--out", str(out))
            (run_dir,) = out.iterdir()
            runs[mode] = proc, run_dir
        (killed, killed_dir), (full, full_dir) = runs["kill"], runs["full"]
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert full.returncode == 0, full.stderr
        streams = {}
        for name in ("run.jsonl", "requests.log"):
            streams[name] = (killed_dir / name).read_bytes()
            assert (full_dir / name).read_bytes().startswith(streams[name]), name
        # Every record of generations 0 and 1, and the tag of every request sent before the kill.
        records = streams["run.jsonl"].decode("utf-8").splitlines()
        full_records = (full_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()
        assert records == [line for line in full_records if json.loads(line)["generation"] <= 1]
        assert {json.loads(line)["generation"] for line in records} == {0, 1}
        sent = int(re.search(r"^killed after (\d+) requests$", killed.stdout, re.M).group(1))
        assert len(streams["requests.log"].splitlines()) == sent
        assert not (killed_dir / "best.rule").exists()

    def test_no_pir_leaves_no_reflection_requests(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(
            runner, data, meta, config, tmp_path / "runs", "--no-pir"
        )
        assert result.exit_code == 0
        tags = (run_dir_from(result.output) / "requests.log").read_text().split()
        assert tags
        assert "reflection" not in tags
        assert "crossover" in tags

    def test_no_pic_leaves_no_crossover_requests(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(
            runner, data, meta, config, tmp_path / "runs", "--no-pic"
        )
        assert result.exit_code == 0
        tags = (run_dir_from(result.output) / "requests.log").read_text().split()
        assert tags
        assert "crossover" not in tags
        assert "mutation" in tags

    def test_prompts_dir_overrides_the_prompts_sent(self, tmp_path, runner, sim_corpus, monkeypatch):
        data, meta = sim_corpus
        prompts_dir = tmp_path / "prompts"
        prompts_dir.mkdir()
        for template_id in TEMPLATE_IDS:
            (prompts_dir / f"{template_id}.txt").write_text(
                f"OVERRIDE {template_id}\n" + load_templates()[template_id], encoding="utf-8"
            )
        original = SamplerProvider.complete
        sent = []

        def recording(self, request):
            sent.append(request)
            return original(self, request)

        monkeypatch.setattr(SamplerProvider, "complete", recording)
        config = evolve_config(tmp_path)
        out = tmp_path / "runs"
        result = self.invoke_evolve(runner, data, meta, config, out, "--prompts-dir", str(prompts_dir))
        assert result.exit_code == 0, result.output
        assert {r.tag for r in sent} == {"init", "reflection", "crossover", "mutation"}
        for request in sent:
            assert request.system_prompt.startswith("OVERRIDE ")
            if request.tag != "reflection":
                assert request.user_prompt.startswith("OVERRIDE ")
        snapshot = json.loads((run_dir_from(result.output) / "config.snapshot").read_text())
        assert snapshot["prompts_dir"] == str(prompts_dir.resolve())

        plain = self.invoke_evolve(runner, data, meta, config, tmp_path / "plain")
        assert "prompts_dir" not in json.loads((run_dir_from(plain.output) / "config.snapshot").read_text())

    def test_missing_prompt_override_exits_3_before_run_dir(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        prompts_dir = tmp_path / "prompts"
        prompts_dir.mkdir()
        for template_id in TEMPLATE_IDS[:-1]:
            body = load_templates()[template_id]
            (prompts_dir / f"{template_id}.txt").write_text(body, encoding="utf-8")
        out = tmp_path / "runs"
        out.mkdir()
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(runner, data, meta, config, out, "--prompts-dir", str(prompts_dir))
        assert result.exit_code == 3
        assert f"error: template override not found: {prompts_dir / TEMPLATE_IDS[-1]}.txt" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        ("body", "problem"),
        [
            (b"Cross {worse_rules} over {input_features}.", "names a placeholder"),
            (b"\xff\xfe Cross {worse_rules}.", "is not valid UTF-8"),
            # A blank template would render an empty prompt, which no request may carry.
            (b"", "is empty"),
            (b" \n\t\n", "is empty"),
        ],
        ids=["unknown-slot", "not-utf8", "empty", "blank"],
    )
    def test_bad_prompt_override_exits_3_before_run_dir(
        self, tmp_path, runner, sim_corpus, body, problem
    ):
        data, meta = sim_corpus
        prompts_dir = tmp_path / "prompts"
        prompts_dir.mkdir()
        for template_id, text in load_templates().items():
            (prompts_dir / f"{template_id}.txt").write_text(text, encoding="utf-8")
        (prompts_dir / "crossover.txt").write_bytes(body)
        out = tmp_path / "runs"
        out.mkdir()
        config = evolve_config(tmp_path)
        result = self.invoke_evolve(
            runner, data, meta, config, out, "--prompts-dir", str(prompts_dir)
        )
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert problem in errors[0] and "crossover.txt" in errors[0]
        assert list(out.iterdir()) == []

    def test_split_archive_keeps_the_input_bytes(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        crlf_bom = tmp_path / "crlf_bom.csv"
        crlf_bom.write_bytes(b"\xef\xbb\xbf" + data.read_bytes().replace(b"\n", b"\r\n"))
        config = evolve_config(tmp_path)
        logs = []
        for path in (data, crlf_bom):
            result = self.invoke_evolve(runner, path, meta, config, tmp_path / path.stem)
            assert result.exit_code == 0, result.output
            run_dir = run_dir_from(result.output)
            source = path.read_bytes()
            header = source[: source.index(b"\n") + 1]
            train, test = (run_dir / "train.csv").read_bytes(), (run_dir / "test.csv").read_bytes()
            assert train.startswith(header) and test.startswith(header)
            assert train + test[len(header) :] == source
            logs.append((run_dir / "run.jsonl").read_bytes())
        assert logs[0] == logs[1]

    # sha256 of run.jsonl, requests.log and best.rule of the README corpus
    # run at pop 10 x gen 10, seed 7, taken from the sequential engine. The
    # sampler answers each request by its seed, so any change in the seeds
    # the engine gives its requests, or in the order it issues them, changes them.
    GOLDEN = {
        (): (
            "3b6234182f1957b1ad5283e5a5baf137b61b0e43a90725b5eb65b349ee4c1957",
            "dea4d447da20fc7af3810e74f6aa374ddb6de5b84f6c8d56888aacbf7f804d34",
            "469bb3a173f4de9ea71752c9aa679234d8f61e5cdbd2a75dd55e115aacacffb3",
        ),
        ("--no-pir",): (
            "1826cc7093d1c96ce06a6cc685ed22c43cf01204f88887c6b6a8a633e02e4138",
            "35bb62254164d16aa033058298339c522c0a902677e4eeb785f6a1fcde3641ba",
            "469bb3a173f4de9ea71752c9aa679234d8f61e5cdbd2a75dd55e115aacacffb3",
        ),
        ("--no-pic",): (
            "c06d6b501e22493a4ed3ba2473ba66a81b66305bb9d57b415e2cd3f7ba102e91",
            "ba3b4ecfe78d82ae4723b08ebb0b28785d503e8849266ac1e234e37e1f633e88",
            "469bb3a173f4de9ea71752c9aa679234d8f61e5cdbd2a75dd55e115aacacffb3",
        ),
    }

    @pytest.mark.parametrize("flags", list(GOLDEN), ids=["default", "no-pir", "no-pic"])
    def test_sampler_run_directory_is_pinned(self, tmp_path, runner, sim_corpus, flags):
        data, meta = sim_corpus
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"population_size": 10, "generations": 10, "seed": 7}))
        result = self.invoke_evolve(runner, data, meta, config, tmp_path / "runs", *flags)
        assert result.exit_code == 0, result.output
        run_dir = run_dir_from(result.output)
        digests = tuple(
            hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in ("run.jsonl", "requests.log", "best.rule")
        )
        assert digests == self.GOLDEN[flags]
        # `report` picks its candidate again from run.jsonl; it must agree with evolve's.
        best = best_record(RunLog(run_dir).records())
        assert f"best_id={best['candidate_id']} " in result.output


# `python -c KILL_SCRIPT MODE ARGS...` runs `pillm ARGS...` with the sampler's
# `complete` patched. With MODE `kill`, the first request of generation 2
# prints `killed after N requests`, N being those sent before it, and sends
# the process SIGKILL.
KILL_SCRIPT = """
import os, signal, sys, threading
from pillm import cli, evolution, providers

kill, args = sys.argv[1] == "kill", sys.argv[2:]
lock, state = threading.Lock(), {"generation": 0, "calls": 0}
plan, complete = evolution.EvolutionEngine._generation_plan, providers.SamplerProvider.complete

def generation_plan(self, population, generation):
    state["generation"] = generation
    return plan(self, population, generation)

def killing(self, request):
    with lock:
        if kill and state["generation"] == 2:
            print(f"killed after {state['calls']} requests", flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        state["calls"] += 1
    return complete(self, request)

evolution.EvolutionEngine._generation_plan = generation_plan
providers.SamplerProvider.complete = killing
cli.main(args)
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args...` on this checkout."""
    src = str(Path(pillm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def fail_narration(monkeypatch) -> None:
    """Make the sampler provider fail each narration request as a server answering 400 does."""
    complete = SamplerProvider.complete

    def failing(provider, request):
        if request.tag == "narrate":
            raise CompletionError("[narrate] HTTP 400: bad request")
        return complete(provider, request)

    monkeypatch.setattr(SamplerProvider, "complete", failing)


class TestReport:
    def finished_run(self, tmp_path, runner, sim_corpus) -> Path:
        data, meta = sim_corpus
        config = evolve_config(tmp_path)
        result = runner.invoke(
            main,
            [
                "evolve",
                "--data",
                str(data),
                "--meta",
                str(meta),
                "--config",
                str(config),
                "--provider",
                "sampler",
                "--out",
                str(tmp_path / "runs"),
            ],
        )
        assert result.exit_code == 0, result.output
        return run_dir_from(result.output)

    def test_report_headings_and_file(self, tmp_path, runner, sim_corpus):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        result = runner.invoke(
            main,
            [
                "report",
                "--run",
                str(run_dir),
                "--data",
                str(run_dir / "test.csv"),
                "--meta",
                str(run_dir / "meta.json"),
            ],
        )
        assert result.exit_code == 0, result.output
        for heading in ("Identify the Fault", "Provide Evidence", "Assess Severity"):
            assert heading in result.output
        assert (run_dir / "report.txt").read_text(encoding="utf-8") == result.output

    @pytest.mark.parametrize("name", ["train.csv", "config.snapshot"])
    def test_missing_run_file_fails_cleanly(self, tmp_path, runner, sim_corpus, name):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        (run_dir / name).unlink()
        result = runner.invoke(
            main,
            ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")],
        )
        assert result.exit_code == 1
        assert "error: " in result.output and f"missing {name}" in result.output
        assert not (run_dir / "report.txt").exists()

    @pytest.mark.parametrize("name", ["run.jsonl", "config.snapshot"])
    def test_undecodable_run_file_fails_cleanly(self, tmp_path, runner, sim_corpus, name):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        path = run_dir / name
        if name == "run.jsonl":
            # The torn last line a crash mid-append leaves.
            line = len(path.read_bytes().splitlines()) + 1
            path.write_bytes(path.read_bytes() + b'{"generation": 3, "candidate_id": "c00')
        else:
            line = 2
            path.write_bytes(b'{"seed": 11,\n')
        result = runner.invoke(
            main,
            ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {path} line {line} is not valid JSON"), result.output
        assert not (run_dir / "report.txt").exists()

    def test_record_missing_fields_fails_cleanly(self, tmp_path, runner, sim_corpus):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        path = run_dir / "run.jsonl"
        line = len(path.read_bytes().splitlines()) + 1
        path.write_bytes(path.read_bytes() + b'{"generation": 3}\n')
        result = runner.invoke(
            main,
            ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"error: {path} line {line} is missing fields: candidate_id, fitness, code, context\n"
        )
        assert not (run_dir / "report.txt").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fitness", "0.9"),
            ("fitness", True),
            ("fitness", float("nan")),
            ("candidate_id", 7),
            ("code", None),
            ("fitness", 10**400),
        ],
        ids=["str-fitness", "bool-fitness", "nan-fitness", "int-id", "null-code", "huge-int-fitness"],
    )
    def test_record_with_a_bad_field_fails_cleanly(self, tmp_path, runner, sim_corpus, field, value):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        path = run_dir / "run.jsonl"
        records = RunLog(run_dir).records()
        records[1][field] = value
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        result = runner.invoke(
            main,
            ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: {path} line 2 has a bad {field}: {value!r}\n"
        assert not (run_dir / "report.txt").exists()

    def test_run_without_a_valid_candidate_exits_1(self, tmp_path, runner, sim_corpus):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        path = run_dir / "run.jsonl"
        records = [{**record, "fitness": None} for record in RunLog(run_dir).records()]
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        result = runner.invoke(
            main,
            ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == "error: run log contains no valid candidate to report on\n"
        assert not (run_dir / "report.txt").exists()

    def test_narrate_is_identity_offline(self, tmp_path, runner, sim_corpus):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        args = [
            "report",
            "--run",
            str(run_dir),
            "--data",
            str(run_dir / "test.csv"),
            "--meta",
            str(run_dir / "meta.json"),
        ]
        plain = runner.invoke(main, args)
        narrated = runner.invoke(main, args + ["--narrate"])
        assert narrated.exit_code == 0, narrated.output
        assert narrated.output == plain.output


    def test_narrate_provider_failure_exits_1(self, tmp_path, runner, sim_corpus, monkeypatch):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        fail_narration(monkeypatch)
        args = ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")]
        result = runner.invoke(main, args + ["--narrate"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == "error: [narrate] HTTP 400: bad request\n"
        assert not (run_dir / "report.txt").exists()

    def test_narrate_with_bad_script_exits_3(self, tmp_path, runner, sim_corpus):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        snapshot_path = run_dir / "config.snapshot"
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        for bad in (5, str(tmp_path / "missing.jsonl")):
            snapshot["provider"] = {"type": "scripted", "script": bad}
            snapshot_path.write_text(json.dumps(snapshot), encoding="utf-8")
            result = runner.invoke(
                main,
                [
                    "report",
                    "--run",
                    str(run_dir),
                    "--data",
                    str(run_dir / "test.csv"),
                    "--meta",
                    str(run_dir / "meta.json"),
                    "--narrate",
                ],
            )
            assert result.exit_code == 3, (bad, result.output)
            assert "error: " in result.output, bad
            assert not (run_dir / "report.txt").exists()

    @pytest.mark.parametrize(
        "field,value,narrate,message",
        [
            ("threshold", "high", False, "threshold must be of type float, got 'high'"),
            ("provider", "sampler", True, "config key 'provider' must be an object"),
            ("provider", {"type": "bogus"}, True, "unknown provider 'bogus'"),
        ],
    )
    def test_bad_snapshot_field_exits_3(self, tmp_path, runner, sim_corpus, field, value, narrate, message):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        snapshot_path = run_dir / "config.snapshot"
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        snapshot[field] = value
        snapshot_path.write_text(json.dumps(snapshot), encoding="utf-8")
        args = ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")]
        result = runner.invoke(main, args + ["--narrate"] * narrate)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: {message}\n"
        assert not (run_dir / "report.txt").exists()


    @pytest.mark.parametrize(
        "code, parsed",
        [
            ("return $zone_temp > {cut} and $fan_speed >= 0\n", ("zone_temp", "fan_speed")),
            # A rule that reads no feature still gets its baseline's rows and labels.
            ("return 1 > 0\n", None),
        ],
        ids=["two-features", "no-feature"],
    )
    def test_report_parses_only_the_train_columns_its_rule_reads(
        self, tmp_path, runner, sim_corpus, monkeypatch, code, parsed
    ):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        metas = load_meta((run_dir / "meta.json").read_bytes())
        test_table = load_csv((run_dir / "test.csv").read_bytes(), metas)
        # The best record now carries `code`; the two-feature rule flags the test split's warmest rows.
        code = code.format(cut=round(float(np.quantile(test_table.column("zone_temp"), 0.99)), 3))
        records = RunLog(run_dir).records()
        best = best_record(records)
        best["code"] = code
        (run_dir / "run.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

        train_tables = []

        def recording(*args):
            train_tables.append(args[-1])
            return generate_report(*args)

        monkeypatch.setattr("pillm.cli.generate_report", recording)
        args = ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        whole = load_csv((run_dir / "train.csv").read_bytes(), metas)
        assert [t.feature_names for t in train_tables] == [parsed or whole.feature_names]

        # The whole train table gives the same bytes: the evidence reads no other column.
        threshold = json.loads((run_dir / "config.snapshot").read_text(encoding="utf-8"))["threshold"]
        text = generate_report(code, best["context"], test_table, threshold, whole).render()
        assert (run_dir / "report.txt").read_text(encoding="utf-8") == text == result.output
        assert "Incident 1: rows " in text
        assert f"Z-scores are measured against the {int((whole.labels == 0).sum())} training rows labelled normal.\n" in text
        assert [name for name in whole.feature_names if f"  - {name} = " in text] == list(parsed or ())

    def test_report_skips_a_bad_cell_in_a_train_column_the_rule_does_not_read(self, tmp_path, runner, sim_corpus):
        run_dir = self.finished_run(tmp_path, runner, sim_corpus)
        args = ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(run_dir / "meta.json")]
        assert runner.invoke(main, args).exit_code == 0
        before = (run_dir / "report.txt").read_bytes()
        features = parse(best_record(RunLog(run_dir).records())["code"]).features
        header, *rows = (run_dir / "train.csv").read_text(encoding="utf-8").splitlines()
        names = header.split(",")
        metas = load_meta((run_dir / "meta.json").read_bytes())
        unread = names.index(next(m.name for m in metas if m.name not in features))
        cells = rows[5].split(",")
        cells[unread] = "not-a-number"
        rows[5] = ",".join(cells)
        (run_dir / "train.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (run_dir / "report.txt").read_bytes() == before


class TestHttpConnectionsAreClosed:
    """`evolve` and `report --narrate` close the connections their http provider opened."""

    RULE_REPLY = format_response("return zscore($zone_temp, 60) > 2", "A biased zone sensor reads high.")

    def test_evolve_and_narrate_close_every_connection(self, tmp_path, runner, sim_corpus, monkeypatch):
        monkeypatch.setenv("PILLM_API_KEY", "test-key")
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        # Every connection a session opens, kept here so that only `close` can shut it.
        opened = []
        open_connection = transport.KeepAliveSession._open

        def open_and_keep(session):
            opened.append(open_connection(session))
            return opened[-1]

        monkeypatch.setattr(transport.KeepAliveSession, "_open", open_and_keep)
        reply = (200, {}, json.dumps(ok_body(self.RULE_REPLY)).encode(), 0.0)
        server = Loopback(replies=[reply] * 40)
        try:
            data, meta = sim_corpus
            config = evolve_config(
                tmp_path, population_size=4, generations=1, provider={"endpoint": server.url, "model": "m"}
            )
            args = ["--data", str(data), "--meta", str(meta), "--config", str(config)]
            result = runner.invoke(main, ["evolve", *args, "--provider", "http", "--out", str(tmp_path / "runs")])
            assert result.exit_code == 0, result.output
            assert "best_id=c" in result.output
            run_dir = run_dir_from(result.output)
            report = ["report", "--run", str(run_dir), "--data", str(data), "--meta", str(meta), "--narrate"]
            assert runner.invoke(main, report).exit_code == 0
            # A narration the server refuses raises out of the command; its connection is closed too.
            server.replies[:] = [(400, {}, b"bad request", 0.0)]
            result = runner.invoke(main, report)
            assert result.exit_code == 1
            assert "error: [narrate] HTTP 400" in result.output
            assert opened
            assert [conn for conn in opened if conn.sock is not None] == []
            # The server saw each connection it accepted closed by the client.
            for _ in range(server.connections):
                assert server.closed.acquire(timeout=5)
        finally:
            server.stop()


class _Workdir:
    """A test's own directory, beside one finished sampler run and its corpus."""

    def __init__(self, root: Path, monkeypatch, data: Path, meta: Path, run_dir: Path):
        self.root, self.monkeypatch = root, monkeypatch
        self.data, self.meta, self.run_dir = str(data), str(meta), run_dir

    def file(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def evolve(self, config_text: str, *extra: str, data: str | None = None, out: str | None = None) -> list[str]:
        config = self.file("config.json", config_text)
        out = out or str(self.root / "runs")
        return ["evolve", "--data", data or self.data, "--meta", self.meta, "--config", config, "--out", out, *extra]

    def report(self, run_dir: Path, *extra: str) -> list[str]:
        return ["report", "--run", str(run_dir), "--data", self.data, "--meta", self.meta, *extra]

    def torn_run(self) -> Path:
        run_dir = self.root / "torn"
        run_dir.mkdir()
        (run_dir / "run.jsonl").write_bytes(b'{"generation": 0')
        return run_dir

    def failed_narration(self) -> list[str]:
        fail_narration(self.monkeypatch)
        return self.report(self.run_dir, "--narrate")

    def empty_dir(self) -> str:
        path = self.root / "empty"
        path.mkdir()
        return str(path)

    def unlabeled_data(self) -> str:
        """The corpus without its last column, the label."""
        lines = Path(self.data).read_text(encoding="utf-8").splitlines()
        return self.file("unlabeled.csv", "".join(line.rpartition(",")[0] + "\n" for line in lines))

    def eval(self, data: str, meta: str) -> list[str]:
        return ["eval", "--rule", self.file("ok.rule", RULE_OK), "--data", data, "--meta", meta]

    def all_invalid_run(self) -> Path:
        """A copy of the finished run in which no candidate has a fitness."""
        run_dir = self.root / "all_invalid"
        shutil.copytree(self.run_dir, run_dir)
        lines = (run_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.dumps({**json.loads(line), "fitness": None}) + "\n" for line in lines]
        (run_dir / "run.jsonl").write_text("".join(records), encoding="utf-8")
        return run_dir

    def gen_data(self, *extra: str) -> list[str]:
        return ["gen-data", "--out", str(self.root / "corpus"), *extra]


# One invocation per class in the exit-code table: (the most specific listed
# class it raises, the exit code, a part of its error message, its arguments).
EXIT_CODE_CASES = [
    ("DslError", 1, "1:20: expected an expression", lambda w: ["check", "--rule", w.file("bad.rule", "return $zone_temp >\n")]),
    ("RunLogError", 1, f"{os.sep}torn{os.sep}run.jsonl line 1 is not valid JSON", lambda w: w.report(w.torn_run())),
    (
        "RunDirError",
        3,
        f"{os.sep}afile{os.sep}runs: Not a directory",
        lambda w: w.evolve("{}", "--provider", "sampler", out=os.path.join(w.file("afile", ""), "runs")),
    ),
    ("ProviderError", 1, "[narrate] HTTP 400: bad request", lambda w: w.failed_narration()),
    (
        "TableError",
        3,
        "metadata must be a JSON list",
        lambda w: ["eval", "--rule", w.file("ok.rule", RULE_OK), "--data", w.data, "--meta", w.file("meta.json", "{}")],
    ),
    ("ConfigError", 3, "population_size must be >= 2", lambda w: w.evolve('{"population_size": 1}', "--provider", "sampler")),
    ("JSONDecodeError", 3, "Expecting property name", lambda w: w.evolve("{not json", "--provider", "sampler")),
    ("ProviderConfigError", 3, "scripted provider requires --script FILE", lambda w: w.evolve("{}", "--provider", "scripted")),
    (
        "PromptError",
        3,
        "template override not found",
        lambda w: w.evolve("{}", "--provider", "sampler", "--prompts-dir", w.empty_dir()),
    ),
    (
        "SimulationError",
        3,
        "fault window must satisfy 0 <= start < end",
        lambda w: ["gen-data", "--out", str(w.root / "corpus"), "--fault", "sensor_bias", "--window", "5:3"],
    ),
    ("OSError", 3, "Not a directory", lambda w: ["gen-data", "--out", os.path.join(w.file("afile", ""), "corpus")]),
]


# Exit paths besides the table's one case per class: (an id, the exit code,
# the whole error line, with `{root}` for the test's directory, the arguments).
EXIT_PATH_CASES = [
    ("config-not-object", 3, "config must be a JSON object", lambda w: w.evolve("[]", "--provider", "sampler")),
    (
        "evolve-unlabeled",
        3,
        "training data must be labeled",
        lambda w: w.evolve("{}", "--provider", "sampler", data=w.unlabeled_data()),
    ),
    ("report-without-log", 1, f"missing run.jsonl in {{root}}{os.sep}empty", lambda w: w.report(Path(w.empty_dir()))),
    (
        "too-many-bindings",
        1,
        "33:1: too many bindings (cap 32)",
        lambda w: ["check", "--rule", w.file("b.rule", "".join(f"v{i} = $zone_temp\n" for i in range(33)) + RULE_OK)],
    ),
    ("empty-csv", 3, "CSV is empty", lambda w: w.eval(w.file("empty.csv", ""), w.meta)),
    ("meta-entry-not-object", 3, "metadata entry 0 must be an object", lambda w: w.eval(w.data, w.file("m.json", "[1]"))),
    ("meta-no-feature", 3, "metadata must declare at least one feature", lambda w: w.eval(w.data, w.file("m.json", "[]"))),
    (
        "script-with-sampler",
        3,
        "--script has no effect without --provider scripted",
        lambda w: w.evolve("{}", "--provider", "sampler", "--script", w.file("script.jsonl", "")),
    ),
    (
        "script-with-http",
        3,
        "--script has no effect without --provider scripted",
        lambda w: w.evolve("{}", "--provider", "http", "--script", w.file("script.jsonl", "")),
    ),
    (
        "fault-without-window",
        3,
        "--window START:END is required when --fault is given",
        lambda w: w.gen_data("--fault", "sensor_bias"),
    ),
    (
        "window-unparsable",
        3,
        "cannot parse --window '1-5'; expected START:END",
        lambda w: w.gen_data("--fault", "sensor_bias", "--window", "1-5"),
    ),
    ("window-without-fault", 3, "--window has no effect without --fault", lambda w: w.gen_data("--window", "1:5")),
    (
        "eval-unlabeled",
        3,
        "data has no label column; scoring requires labels",
        lambda w: w.eval(w.unlabeled_data(), w.meta),
    ),
    (
        "report-no-valid-candidate",
        1,
        "run log contains no valid candidate to report on",
        lambda w: w.report(w.all_invalid_run()),
    ),
]


class TestExitCodes:
    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory) -> tuple[Path, Path, Path]:
        root = tmp_path_factory.mktemp("exit_codes")
        runner = CliRunner()
        out = root / "corpus"
        args = ["gen-data", "--out", str(out), "--fault", "sensor_bias", "--window", "1000:1400", "--seed", "42"]
        assert runner.invoke(main, args).exit_code == 0
        data, meta = out / "data.csv", out / "meta.json"
        config = evolve_config(root)
        args = ["evolve", "--data", str(data), "--meta", str(meta), "--config", str(config)]
        result = runner.invoke(main, args + ["--provider", "sampler", "--out", str(root / "runs")])
        assert result.exit_code == 0, result.output
        return data, meta, run_dir_from(result.output)

    def test_every_table_class_has_a_case(self):
        assert {name: code for name, code, _, _ in EXIT_CODE_CASES} == {
            cls.__name__: code for cls, code in EXIT_CODES.items()
        }

    @pytest.mark.parametrize("name,code,message,build", EXIT_CODE_CASES, ids=[c[0] for c in EXIT_CODE_CASES])
    def test_error_class_exit_code(self, tmp_path, runner, monkeypatch, finished_run, name, code, message, build):
        result = runner.invoke(main, build(_Workdir(tmp_path, monkeypatch, *finished_run)))
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, result.output
        assert message in errors[0], errors[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("code,message,build", [c[1:] for c in EXIT_PATH_CASES], ids=[c[0] for c in EXIT_PATH_CASES])
    def test_exit_path(self, tmp_path, runner, monkeypatch, finished_run, code, message, build):
        result = runner.invoke(main, build(_Workdir(tmp_path, monkeypatch, *finished_run)))
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.splitlines() == [f"error: {message.format(root=tmp_path)}"]
        assert not (tmp_path / "runs").exists()


NOT_UTF8 = b"\xff\xfe"
BOM = b"\xef\xbb\xbf"


class TestInputEncoding:
    """Files that are not UTF-8 exit 3 with an `error:` line naming the file kind and offset."""

    def expect_encoding_error(self, result, what: str) -> None:
        assert result.exit_code == 3, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {what} is not valid UTF-8: byte 0xff at offset 0"], result.output
        assert "Traceback" not in result.output

    def evolve(self, runner, sim_corpus, out, *extra):
        data, meta = sim_corpus
        config = evolve_config(out.parent, population_size=3, generations=1)
        return runner.invoke(
            main,
            ["evolve", "--data", str(data), "--meta", str(meta), "--config", str(config), "--out", str(out), *extra],
        )

    @staticmethod
    def run_bytes(result) -> list[bytes]:
        assert result.exit_code == 0, result.output
        run_dir = run_dir_from(result.output)
        return [(run_dir / name).read_bytes() for name in ("run.jsonl", "requests.log", "best.rule")]

    @staticmethod
    def write_templates(prompts_dir: Path, prefix: bytes = b"") -> None:
        prompts_dir.mkdir()
        for template_id, text in load_templates().items():
            (prompts_dir / f"{template_id}.txt").write_bytes(prefix + text.encode("utf-8"))

    def test_script(self, tmp_path, runner, sim_corpus):
        script = tmp_path / "script.jsonl"
        script.write_bytes(NOT_UTF8 + b"{}\n")
        out = tmp_path / "runs"
        result = self.evolve(runner, sim_corpus, out, "--provider", "scripted", "--script", str(script))
        self.expect_encoding_error(result, f"script {str(script)!r}")
        assert not out.exists()

    def test_prompt_override(self, tmp_path, runner, sim_corpus):
        prompts_dir = tmp_path / "prompts"
        self.write_templates(prompts_dir)
        template = prompts_dir / "init.txt"
        template.write_bytes(NOT_UTF8 + template.read_bytes())
        out = tmp_path / "runs"
        result = self.evolve(runner, sim_corpus, out, "--provider", "sampler", "--prompts-dir", str(prompts_dir))
        self.expect_encoding_error(result, f"template override {template}")
        assert not out.exists()

    def test_check_rule(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_bytes(NOT_UTF8 + RULE_OK.encode("utf-8"))
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        self.expect_encoding_error(result, "rule file")

    def test_check_meta(self, tmp_path, runner):
        _, meta = write_spike_corpus(tmp_path)
        meta.write_bytes(NOT_UTF8 + meta.read_bytes())
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        result = runner.invoke(main, ["check", "--rule", str(rule), "--meta", str(meta)])
        self.expect_encoding_error(result, "metadata")

    def test_eval(self, tmp_path, runner):
        data, meta = write_spike_corpus(tmp_path)
        data.write_bytes(NOT_UTF8 + data.read_bytes())
        rule = tmp_path / "rule.txt"
        rule.write_text(RULE_OK)
        result = runner.invoke(
            main, ["eval", "--rule", str(rule), "--data", str(data), "--meta", str(meta)]
        )
        self.expect_encoding_error(result, "CSV")

    def test_evolve(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        bad_data = tmp_path / "bad.csv"
        bad_data.write_bytes(NOT_UTF8 + data.read_bytes())
        bad_config = tmp_path / "bad_config.json"
        bad_config.write_bytes(NOT_UTF8 + b"{}")
        for data_path, config, what in (
            (bad_data, evolve_config(tmp_path), "CSV"),
            (data, bad_config, "config"),
        ):
            out = tmp_path / "runs"
            result = runner.invoke(
                main,
                [
                    "evolve",
                    "--data", str(data_path),
                    "--meta", str(meta),
                    "--config", str(config),
                    "--provider", "sampler",
                    "--out", str(out),
                ],
            )
            self.expect_encoding_error(result, what)
            assert not out.exists()

    def test_report(self, tmp_path, runner, sim_corpus):
        run_dir = TestReport().finished_run(tmp_path, runner, sim_corpus)
        bad_data = tmp_path / "bad.csv"
        bad_data.write_bytes(NOT_UTF8 + (run_dir / "test.csv").read_bytes())
        result = runner.invoke(
            main,
            ["report", "--run", str(run_dir), "--data", str(bad_data), "--meta", str(run_dir / "meta.json")],
        )
        self.expect_encoding_error(result, "CSV")
        assert not (run_dir / "report.txt").exists()

    def test_byte_order_mark_and_crlf_score_the_same(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        bom_data = tmp_path / "bom.csv"
        bom_data.write_bytes(BOM + data.read_bytes().replace(b"\n", b"\r\n"))
        bom_meta = tmp_path / "bom.json"
        bom_meta.write_bytes(BOM + meta.read_bytes())
        rule = tmp_path / "rule.txt"
        rule.write_text("return zscore($zone_temp, 60) > 2\n")
        bom_rule = tmp_path / "bom_rule.txt"
        bom_rule.write_bytes(BOM + b"return zscore($zone_temp, 60) > 2\r\n")
        lines = []
        for rule_path, data_path, meta_path in ((rule, data, meta), (bom_rule, bom_data, bom_meta)):
            result = runner.invoke(
                main,
                ["eval", "--rule", str(rule_path), "--data", str(data_path), "--meta", str(meta_path)],
            )
            assert result.exit_code == 0, result.output
            lines.append(result.output)
        assert lines[0] == lines[1]
        assert lines[0].startswith("mode=event_pa ")

    def test_check_rule_behind_byte_order_mark(self, tmp_path, runner):
        rule = tmp_path / "rule.txt"
        rule.write_bytes(BOM + RULE_OK.encode("utf-8"))
        result = runner.invoke(main, ["check", "--rule", str(rule)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("OK: ")

    def test_evolve_config_behind_byte_order_mark(self, tmp_path, runner, sim_corpus):
        data, meta = sim_corpus
        config = tmp_path / "bom_config.json"
        config.write_bytes(BOM + evolve_config(tmp_path).read_bytes())
        result = runner.invoke(
            main,
            [
                "evolve",
                "--data", str(data),
                "--meta", str(meta),
                "--config", str(config),
                "--provider", "sampler",
                "--out", str(tmp_path / "runs"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert run_dir_from(result.output).is_dir()

    def test_script_behind_byte_order_mark(self, tmp_path, runner, sim_corpus):
        reply = "```rule\nreturn $zone_temp > {}\n```\n\n```context\nWarm.\n```"
        records = [{"tag": "init", "text": reply.format(30 + i)} for i in range(2)]
        records += [{"tag": tag, "text": reply.format(33)} for tag in ("reflection", "crossover", "mutation")]
        body = "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")
        runs = []
        for name, prefix in (("plain", b""), ("bom", BOM)):
            script = tmp_path / f"{name}.jsonl"
            script.write_bytes(prefix + body)
            out = tmp_path / f"runs_{name}"
            result = self.evolve(runner, sim_corpus, out, "--provider", "scripted", "--script", str(script))
            runs.append(self.run_bytes(result))
        assert runs[0] == runs[1]

    def test_prompt_overrides_behind_byte_order_mark(self, tmp_path, runner, sim_corpus, monkeypatch):
        original = SamplerProvider.complete
        sent = []

        def recording(self, request):
            sent.append((request.tag, request.system_prompt, request.user_prompt))
            return original(self, request)

        monkeypatch.setattr(SamplerProvider, "complete", recording)
        runs, prompts_sent = [], []
        for name, prefix in (("plain", b""), ("bom", BOM)):
            prompts_dir = tmp_path / f"prompts_{name}"
            self.write_templates(prompts_dir, prefix)
            out = tmp_path / f"runs_{name}"
            result = self.evolve(runner, sim_corpus, out, "--provider", "sampler", "--prompts-dir", str(prompts_dir))
            runs.append(self.run_bytes(result))
            prompts_sent.append(sent[:])
            sent.clear()
        assert runs[0] == runs[1]
        assert prompts_sent[0] == prompts_sent[1]
        assert {tag for tag, _, _ in prompts_sent[0]} == {"init", "reflection", "crossover", "mutation"}


class TestVersion:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "pillm" in result.output


def python_output(code: str, **env: str) -> str:
    """Stdout of `python -c code` on this checkout, with no OPENBLAS_NUM_THREADS unless in `env`."""
    src = str(Path(pillm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**base, "PYTHONPATH": path, **env}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_does_not_load_the_http_stack():
    # Only the http provider needs it; every other command skips its import cost.
    modules = ("requests", "http.client", "ssl", "urllib.request")
    code = f"import pillm.cli, sys; print([m for m in {modules!r} if m in sys.modules])"
    assert python_output(code) == "[]"


# `python -c COMMAND_IMPORTS_SCRIPT ARGS...` runs `pillm ARGS...` through the
# program's entry function and prints, last, the freeze count after `import
# pillm.cli`, whether the entry froze anything, and which of `ENGINE_MODULES`
# the command loaded.
ENGINE_MODULES = ("pillm.evolution", "pillm.providers", "pillm.prompts", "pillm.transport", "concurrent.futures")
COMMAND_IMPORTS_SCRIPT = f"""
import gc, sys
import pillm.cli
frozen_at_import = gc.get_freeze_count()
sys.argv = ["pillm", *sys.argv[1:]]
try:
    pillm.cli.run()
except SystemExit:
    pass
print(frozen_at_import, gc.get_freeze_count() > 0, [m for m in {ENGINE_MODULES!r} if m in sys.modules])
"""


def test_each_command_loads_only_what_it_runs(tmp_path, runner, sim_corpus):
    data, meta = sim_corpus
    evolve = ["evolve", "--data", str(data), "--meta", str(meta), "--config", str(evolve_config(tmp_path))]
    evolve += ["--provider", "sampler"]
    result = runner.invoke(main, [*evolve, "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    run_dir = run_dir_from(result.output)
    no_valid = tmp_path / "no_valid"
    shutil.copytree(run_dir, no_valid)
    records = [{**record, "fitness": None} for record in RunLog(no_valid).records()]
    (no_valid / "run.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    rule = tmp_path / "ok.rule"
    rule.write_text("return zscore($zone_temp, 60) > 3\n", encoding="utf-8")
    commands = {
        "report": ["report", "--run", str(run_dir), "--data", str(run_dir / "test.csv"), "--meta", str(meta)],
        "report-no-valid": ["report", "--run", str(no_valid), "--data", str(data), "--meta", str(meta)],
        "check": ["check", "--rule", str(rule), "--meta", str(meta)],
        "eval": ["eval", "--rule", str(rule), "--data", str(data), "--meta", str(meta)],
        "gen-data": ["gen-data", "--out", str(tmp_path / "corpus2"), "--length", "200"],
        "version": ["--version"],
        "evolve": [*evolve, "--out", str(tmp_path / "runs2")],
    }
    loaded = {}
    for name, args in commands.items():
        proc = run_python(COMMAND_IMPORTS_SCRIPT, *args)
        assert proc.returncode == 0, proc.stderr
        loaded[name] = proc.stdout.splitlines()[-1]
    engine = [m for m in ENGINE_MODULES if m != "pillm.transport"]
    assert loaded == {name: f"0 True {engine if name == 'evolve' else []}" for name in commands}


def test_package_import_loads_nothing():
    code = "import pillm, sys; print([m for m in sys.modules if m == 'numpy' or m.startswith('pillm.')])"
    assert python_output(code) == "[]"


def test_package_exports_are_their_submodules_objects():
    code = (
        "import pillm, sys\n"
        "for name in pillm.__all__:\n"
        "    if name != '__version__':\n"
        "        obj = getattr(pillm, name)\n"
        "        print(name, obj.__module__, getattr(sys.modules[obj.__module__], name) is obj)\n"
    )
    lines = python_output(code).splitlines()
    assert len(lines) == len(pillm.__all__) - 1
    for line in lines:
        name, module, same = line.split()
        assert module.startswith("pillm.") and same == "True", line


def test_cli_import_sets_one_blas_thread():
    # pillm never calls BLAS; one thread spares OpenBLAS's idle worker.
    code = (
        "import os, pillm.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "tasks = '/proc/self/task'\n"
        "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 'no-proc')\n"
    )
    blas, threads = python_output(code).split()
    assert blas == "1"
    if threads != "no-proc":
        assert threads == "1"


def test_cli_import_keeps_a_preset_blas_thread_count():
    code = "import os, pillm.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert python_output(code, OPENBLAS_NUM_THREADS="2") == "2"
