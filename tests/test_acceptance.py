"""Acceptance suite: one test per release criterion.

Each test prints as a single pass/fail line under `pytest -v`. Tolerances
are pinned here, not imported, so a regression cannot loosen them silently.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pillm.cli import main
from pillm.dsl import compile_rule, evaluate, format_rule, parse, to_flags
from pillm.metrics import ConfusionCounts, confusion, event_f1_pa, precision_recall_f1
from pillm.prompts import TEMPLATE_ANCHORS, load_templates
from pillm.providers import sample_rule
from pillm.simulate import FEATURES
from pillm.timeseries import FeatureMeta, TimeSeriesTable

from . import reference

README = Path(__file__).resolve().parent.parent / "README.md"

EVOLVE_CONFIG = {"population_size": 6, "generations": 3, "seed": 11}


def invoke(runner: CliRunner, *args: str):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 0, f"{args}\n{result.output}"
    return result


def run_dir_from(output: str) -> Path:
    for line in output.splitlines():
        if line.startswith("run_dir="):
            return Path(line.split("=", 1)[1])
    raise AssertionError(f"no run_dir= line in:\n{output}")


def read_records(run_dir: Path) -> list[dict]:
    lines = (run_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


@pytest.fixture(scope="module")
def labeled_corpus(tmp_path_factory) -> tuple[Path, Path]:
    out = tmp_path_factory.mktemp("corpus")
    invoke(
        CliRunner(),
        "gen-data",
        "--out",
        str(out),
        "--fault",
        "sensor_bias",
        "--window",
        "1000:1400",
        "--seed",
        "42",
    )
    return out / "data.csv", out / "meta.json"


def evolve_cli(tmp_path: Path, data: Path, meta: Path, *extra: str) -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(EVOLVE_CONFIG), encoding="utf-8")
    result = invoke(
        CliRunner(),
        "evolve",
        "--data",
        str(data),
        "--meta",
        str(meta),
        "--config",
        str(config_path),
        "--provider",
        "sampler",
        "--out",
        str(tmp_path / "runs"),
        *extra,
    )
    return run_dir_from(result.output)


def test_c01_metrics_match_brute_force_oracle():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(10_000):
        n = rng.randint(1, 20)
        labels = [rng.randint(0, 1) for _ in range(n)]
        flags = [rng.randint(0, 1) for _ in range(n)]

        counts = confusion(flags, labels)
        tp, fp, fn, tn = reference.confusion_brute(flags, labels)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (tp, fp, fn, tn)

        fast = precision_recall_f1(counts)
        precision, recall, f1 = reference.prf_brute(tp, fp, fn)
        assert abs(fast.precision - precision) <= 1e-12
        assert abs(fast.recall - recall) <= 1e-12
        assert abs(fast.f1 - f1) <= 1e-12

        event = event_f1_pa(flags, labels)
        precision, recall, f1 = reference.event_f1_pa_brute(flags, labels)
        assert abs(event.precision - precision) <= 1e-12
        assert abs(event.recall - recall) <= 1e-12
        assert abs(event.f1 - f1) <= 1e-12
    assert time.monotonic() - started < 5.0


def test_c02_hand_checked_metric_vectors():
    report = precision_recall_f1(ConfusionCounts(tp=3, fp=1, fn=2, tn=0))
    assert report.precision == pytest.approx(0.75, abs=1e-12)
    assert report.recall == pytest.approx(0.6, abs=1e-12)
    assert report.f1 == pytest.approx(0.666667, abs=1e-6)

    labels = [0, 1, 1, 0, 0, 1, 1, 0]
    flags = [0, 0, 1, 0, 1, 0, 0, 0]
    event = event_f1_pa(flags, labels)
    assert event.precision == pytest.approx(0.5, abs=1e-12)
    assert event.recall == pytest.approx(0.5, abs=1e-12)
    assert event.f1 == pytest.approx(0.5, abs=1e-12)


def test_c03_sampled_rules_round_trip_and_evaluate_deterministically():
    feature_names = tuple(m.name for m in FEATURES)
    rng = np.random.default_rng(7)
    table = TimeSeriesTable(
        features=tuple(
            FeatureMeta(name, "unitless", f"random column {name}", "sensor")
            for name in feature_names
        ),
        values=rng.normal(0.0, 1.0, size=(200, len(feature_names))),
        timestamps=np.arange(200),
    )
    started = time.monotonic()
    for seed in range(1000):
        source = sample_rule(seed, feature_names)
        ast = parse(source)
        assert parse(format_rule(ast)) == ast
        rule = compile_rule(source, feature_names)
        first = evaluate(rule, table)
        second = evaluate(rule, table)
        assert first.tobytes() == second.tobytes()
    assert time.monotonic() - started < 10.0


def test_c04_window_builtins_match_brute_force():
    rng = random.Random(404)
    brute = {
        "mean": reference.rolling_mean_brute,
        "std": reference.rolling_std_brute,
        "rmin": reference.rolling_min_brute,
        "rmax": reference.rolling_max_brute,
    }
    for case in range(200):
        n = rng.randint(1, 128)
        window = rng.randint(1, 32)
        values = [rng.uniform(-50.0, 50.0) for _ in range(n)]
        table = TimeSeriesTable(
            features=(FeatureMeta("x", "unitless", "random series", "sensor"),),
            values=np.array(values).reshape(-1, 1),
            timestamps=np.arange(n),
        )
        op = ("mean", "std", "rmin", "rmax")[case % 4]
        rule = compile_rule(f"return {op}($x, {window})", ("x",))
        got = evaluate(rule, table)
        want = np.array(brute[op](values, window))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_c05_seed_rule_separates_the_pinned_bias_corpus(bias_corpus):
    started = time.monotonic()
    rule = compile_rule("return zscore($zone_temp, 60) > 3", bias_corpus.feature_names)
    flags = to_flags(evaluate(rule, bias_corpus), 0.5)
    report = event_f1_pa(flags, bias_corpus.labels)
    elapsed = time.monotonic() - started
    assert report.f1 >= 0.9
    # Pinned from the first oracle run on this corpus: a perfect score.
    assert report.precision == pytest.approx(1.0, abs=1e-12)
    assert report.recall == pytest.approx(1.0, abs=1e-12)
    assert report.f1 == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 1.0


def test_c06_offline_evolution_is_fast_valid_and_repeatable(tmp_path, labeled_corpus):
    data, meta = labeled_corpus
    started = time.monotonic()
    first_dir = evolve_cli(tmp_path / "a", data, meta)
    assert time.monotonic() - started < 10.0

    records = read_records(first_dir)
    assert records, "run.jsonl is empty"
    for record in records:
        for field in (
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
        ):
            assert field in record, field

    seed_fitness = records[0]["fitness"]
    assert records[0]["operator"] == "seed"
    best_ever: list[float] = []
    for generation in sorted({r["generation"] for r in records}):
        upto = [
            r["fitness"]
            for r in records
            if r["generation"] <= generation and r["fitness"] is not None
        ]
        best_ever.append(max(upto))
    assert all(a <= b for a, b in zip(best_ever, best_ever[1:]))
    assert all(value >= seed_fitness for value in best_ever)

    second_dir = evolve_cli(tmp_path / "b", data, meta)
    pick = lambda recs: max(
        (r for r in recs if r["fitness"] is not None),
        key=lambda r: (r["fitness"], -int(r["candidate_id"][1:])),
    )
    assert pick(read_records(first_dir))["code"] == pick(read_records(second_dir))["code"]


def test_c07_ablation_flags_silence_their_operators(tmp_path, labeled_corpus):
    data, meta = labeled_corpus
    no_pir_dir = evolve_cli(tmp_path / "no-pir", data, meta, "--no-pir")
    tags = (no_pir_dir / "requests.log").read_text(encoding="utf-8").split()
    assert tags, "request-tag log is empty"
    assert "reflection" not in tags
    assert "crossover" in tags

    no_pic_dir = evolve_cli(tmp_path / "no-pic", data, meta, "--no-pic")
    tags = (no_pic_dir / "requests.log").read_text(encoding="utf-8").split()
    assert tags, "request-tag log is empty"
    assert "crossover" not in tags
    assert "mutation" in tags


def test_c08_scripted_run_reaches_perfect_fitness_and_reports(tmp_path):
    runner = CliRunner()
    corpus = tmp_path / "corpus"
    invoke(
        runner,
        "gen-data",
        "--out",
        str(corpus),
        "--fault",
        "damper_stuck",
        "--window",
        "1800:2300",
        "--seed",
        "0",
    )

    def fenced(code: str, context: str) -> str:
        return f"```rule\n{code}\n```\n\n```context\n{context}\n```"

    script_records = [
        {"tag": "init", "text": fenced("return 1 > 0", "Flag every row.")},
        {"tag": "init", "text": fenced("return $zone_temp > 100", "Impossible threshold.")},
        {"tag": "init", "text": fenced("return $occupancy > 0.5", "Occupied hours only.")},
        {"tag": "reflection", "text": "Precision matters.\n\nCompare command against feedback."},
        {"tag": "crossover", "text": fenced("return $damper_cmd > 0.49", "Damper near full open.")},
        {"tag": "mutation", "text": fenced("return delta($zone_temp, 1) > 0.1", "Fast warm-up.")},
        {"tag": "reflection", "text": "Track the actuator.\n\nA stuck damper ignores its command."},
        {
            "tag": "crossover",
            "text": fenced(
                "return abs($damper_cmd - $damper_pos) > 0.05",
                "A healthy damper follows its command; persistent mismatch means the "
                "actuator is stuck.",
            ),
        },
        {"tag": "mutation", "text": fenced("return $zone_temp > 99", "Impossible threshold.")},
    ]
    script = tmp_path / "script.jsonl"
    script.write_text(
        "".join(json.dumps(r) + "\n" for r in script_records), encoding="utf-8"
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "population_size": 4,
                "generations": 2,
                "elite_count": 1,
                "pairs_per_gen": 1,
                "seed": 0,
                "retry_budget": 0,
            }
        ),
        encoding="utf-8",
    )
    result = invoke(
        runner,
        "evolve",
        "--data",
        str(corpus / "data.csv"),
        "--meta",
        str(corpus / "meta.json"),
        "--config",
        str(config),
        "--provider",
        "scripted",
        "--script",
        str(script),
        "--out",
        str(tmp_path / "runs"),
    )
    run_dir = run_dir_from(result.output)
    records = read_records(run_dir)
    best = max(
        (r for r in records if r["fitness"] is not None), key=lambda r: r["fitness"]
    )
    assert best["fitness"] == pytest.approx(1.0, abs=1e-12)
    assert best["operator"] == "crossover"
    assert best["generation"] == 2

    report = invoke(
        runner,
        "report",
        "--run",
        str(run_dir),
        "--data",
        str(run_dir / "test.csv"),
        "--meta",
        str(run_dir / "meta.json"),
    )
    text = (run_dir / "report.txt").read_text(encoding="utf-8")
    assert text == report.output
    for heading in ("Identify the Fault", "Provide Evidence", "Assess Severity"):
        assert heading in text
    assert "Incident 1:" in text


def test_c09_templates_carry_every_anchor_phrase():
    bodies = load_templates()
    for anchor in TEMPLATE_ANCHORS:
        assert any(anchor in body for body in bodies.values()), anchor


def test_c10_reference_results_and_live_provider_are_documented():
    text = README.read_text(encoding="utf-8")
    for token in ("0.968", "0.859", "0.926"):
        assert token in text, token
    assert "LBNL" in text
    assert "commercial" in text.lower()
    assert "http" in text.lower()
    assert "PILLM_API_KEY" in text
