import dataclasses
import hashlib
import itertools
import json
import random
import re
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from pillm import evolution
from pillm.dsl import format_rule, interp
from pillm.evolution import (
    NO_REFLECTION_TEXT,
    NO_REFLECTIONS_YET,
    ConfigError,
    EvolutionConfig,
    EvolutionEngine,
    Reflection,
    RuleCandidate,
    default_seed_rule,
    long_term_reflection,
    rank_key,
    request_seed,
    run_evolution,
    select_pairs,
)
from pillm.providers import (
    CompletionError,
    CompletionRequest,
    CompletionResult,
    SamplerProvider,
    ScriptedProvider,
    ScriptExhaustedError,
)
from pillm.reporting import RunLog, best_record
from pillm.timeseries import FeatureMeta, split

from .test_reporting import synced_files

RULE_HALF = "```rule\nreturn $x > 0.5\n```\n\n```context\nWide net.\n```"
RULE_GOOD = "```rule\nreturn $x > 1.5\n```\n\n```context\nTighter net.\n```"
RULE_PERFECT = "```rule\nreturn $x > 2.5\n```\n\n```context\nExact net.\n```"
SEED_DUD = ("return $x > 100", "Never fires on this data.")


def scripted(*records: tuple[str, str]) -> ScriptedProvider:
    return ScriptedProvider([{"tag": tag, "text": text} for tag, text in records])


class CannedProvider:
    """Returns queued texts per tag and remembers every request it saw."""

    max_in_flight = 1

    def __init__(self, texts_by_tag: dict[str, list[str]]) -> None:
        self.requests = []
        self._queues = {tag: list(texts) for tag, texts in texts_by_tag.items()}

    def complete(self, request) -> CompletionResult:
        self.requests.append(request)
        queue = self._queues.get(request.tag)
        if not queue:
            raise ScriptExhaustedError(f"no canned text for {request.tag!r}")
        return CompletionResult(text=queue.pop(0), latency_ms=0, attempt=1)


class ListSink(list):
    """In-memory run log: candidate records in the list, request tags in `tags`."""

    def __init__(self) -> None:
        super().__init__()
        self.tags: list[str] = []

    def request(self, tag: str) -> None:
        self.tags.append(tag)

    def sync(self) -> None:
        pass


def best_so_far(records) -> list[float]:
    """The best valid fitness up to each generation of `records`: a running maximum."""
    per_generation = [
        max((r["fitness"] for r in records if r["generation"] == g and r["fitness"] is not None), default=0.0)
        for g in range(1 + max(r["generation"] for r in records))
    ]
    return list(itertools.accumulate(per_generation, max))


class FailingProvider:
    max_in_flight = 1

    def __init__(self, only_tags: set[str] | None = None, fallback=None) -> None:
        self._only_tags = only_tags
        self._fallback = fallback

    def complete(self, request) -> CompletionResult:
        if self._only_tags is None or request.tag in self._only_tags:
            raise CompletionError(f"synthetic failure for {request.tag}")
        return self._fallback.complete(request)


class TestConfig:
    def test_pairs_default_is_half_population(self):
        assert EvolutionConfig(population_size=9).pairs_per_gen == 4
        assert EvolutionConfig(population_size=2, elite_count=1).pairs_per_gen == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"elite_count": 10, "population_size": 10},
            {"elite_count": -1},
            {"pairs_per_gen": 0},
            {"generations": -1},
            {"retry_budget": -1},
            {"long_term_window": 0},
            {"llm_call_budget": 0},
            {"train_fraction": 0.0},
            {"train_fraction": 1.0},
            {"threshold": float("nan")},
            {"generations": 1.5},
            {"elite_count": 1.5},
            {"population_size": 4.0},
            {"seed": "x"},
            {"enable_pir": "no"},
            {"enable_pic": 1},
            {"retry_budget": True},
            {"threshold": True},
            {"max_tokens": 0},
            {"init_temperature": -0.1},
            {"refine_temperature": -0.1},
            {"init_temperature": float("inf")},
            {"refine_temperature": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            EvolutionConfig(**kwargs)

    def test_from_dict_round_trip(self):
        config = EvolutionConfig(population_size=4, generations=2, seed=7)
        assert EvolutionConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="mutation_rate"):
            EvolutionConfig.from_dict({"mutation_rate": 0.1})

    def test_from_dict_ignores_provider_block(self):
        config = EvolutionConfig.from_dict({"population_size": 3, "provider": {"kind": "sampler"}})
        assert config.population_size == 3

    def test_readme_table_lists_every_field_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("\n## Configuration\n") :].split("\n## ", 2)[1]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.MULTILINE)
        # pairs_per_gen's None stands for the half population that __post_init__ fills in.
        assert rows == [
            (f.name, "population_size // 2" if f.default is None else json.dumps(f.default))
            for f in dataclasses.fields(EvolutionConfig)
        ]


class TestSelectPairs:
    @staticmethod
    def candidates(fitnesses):
        return [
            RuleCandidate(
                id=f"c{i:04d}", code="", context="", operator="init", generation=0, fitness=f
            )
            for i, f in enumerate(fitnesses)
        ]

    def test_worse_comes_first(self):
        population = self.candidates([0.2, 0.8, 0.5])
        pairs = select_pairs(population, random.Random(0), 20)
        assert pairs
        for worse, better in pairs:
            assert worse.fitness < better.fitness

    def test_all_tied_yields_nothing(self):
        population = self.candidates([0.5, 0.5, 0.5])
        assert select_pairs(population, random.Random(0), 3) == []

    def test_invalid_candidates_never_bred(self):
        population = self.candidates([0.2, None, 0.8])
        pairs = select_pairs(population, random.Random(1), 8)
        picked = {c.id for pair in pairs for c in pair}
        assert "c0001" not in picked

    def test_requested_count(self):
        population = self.candidates([0.1, 0.4, 0.9, 0.7])
        assert len(select_pairs(population, random.Random(3), 5)) == 5

    def test_fewer_than_two_valid(self):
        assert select_pairs(self.candidates([0.3]), random.Random(0), 2) == []
        assert select_pairs(self.candidates([None, 0.3]), random.Random(0), 2) == []

    def test_deterministic_under_seed(self):
        population = self.candidates([0.1, 0.2, 0.3, 0.4])
        draw = lambda: [
            (w.id, b.id) for w, b in select_pairs(population, random.Random(11), 6)
        ]
        assert draw() == draw()


class TestLongTermReflection:
    def test_empty_history(self):
        assert long_term_reflection([], 5) == NO_REFLECTIONS_YET

    def test_bullets_keep_only_last_window(self):
        history = [Reflection(comments=f"hint {i}", context=f"ctx {i}") for i in range(4)]
        digest = long_term_reflection(history, 2)
        lines = digest.splitlines()
        assert lines == ["- hint 2 ctx 2", "- hint 3 ctx 3"]

    def test_whitespace_collapsed(self):
        history = [Reflection(comments="a\n\nb", context="c   d")]
        assert long_term_reflection(history, 5) == "- a b c d"


class TestSeedRule:
    def test_prefers_first_sensor(self):
        metas = [
            FeatureMeta("cmd", "binary", "a command", "command"),
            FeatureMeta("temp", "degC", "a sensor", "sensor"),
        ]
        code, context = default_seed_rule(metas)
        assert code == "return zscore($temp, 60) > 3"
        assert "temp" in context

    def test_falls_back_to_first_feature(self):
        metas = [FeatureMeta("cmd", "binary", "a command", "command")]
        code, _ = default_seed_rule(metas)
        assert "$cmd" in code


class TestCandidate:
    def test_code_hash_is_sha256_of_code(self):
        import hashlib

        candidate = RuleCandidate(
            id="c0000", code="return $x > 1", context="", operator="seed", generation=0
        )
        assert candidate.code_hash == hashlib.sha256(b"return $x > 1").hexdigest()

    def test_validity_tracks_fitness(self):
        candidate = RuleCandidate(
            id="c0000", code="", context="", operator="init", generation=0
        )
        assert not candidate.is_valid
        candidate.fitness = 0.0
        assert candidate.is_valid

    def test_ties_rank_by_creation_order_past_9999(self):
        tied = [
            RuleCandidate(id=i, code="", context="", operator="init", generation=0, fitness=0.5)
            for i in ("c10000", "c9999")
        ]
        ranked = sorted(tied, key=lambda c: evolution.rank_key(c.fitness, c.id))
        assert [c.id for c in ranked] == ["c9999", "c10000"]

    def test_rank_puts_invalid_last_then_higher_fitness_first(self):
        keys = [("c0001", None), ("c0002", 0.0), ("c0003", 0.75), ("c0004", 0.75), ("c0000", None)]
        ranked = sorted(keys, key=lambda k: evolution.rank_key(k[1], k[0]))
        assert [cid for cid, _ in ranked] == ["c0003", "c0004", "c0002", "c0000", "c0001"]


def base_config(**overrides) -> EvolutionConfig:
    kwargs = dict(
        population_size=3,
        generations=2,
        elite_count=1,
        pairs_per_gen=1,
        seed=0,
        retry_budget=0,
    )
    kwargs.update(overrides)
    return EvolutionConfig(**kwargs)


class TestEngine:
    def test_requires_labels(self, small_table):
        unlabeled = small_table.slice_rows(0, 6)
        table = type(small_table)(
            features=unlabeled.features,
            values=unlabeled.values,
            timestamps=unlabeled.timestamps,
        )
        with pytest.raises(ValueError, match="label"):
            EvolutionEngine(base_config(), table, scripted())

    def test_init_population_shape(self, small_table):
        provider = scripted(("init", RULE_HALF), ("init", RULE_GOOD))
        result = run_evolution(
            base_config(generations=0), small_table, provider, seed_rule=SEED_DUD
        )
        records = result.records
        assert [r["operator"] for r in records] == ["seed", "init", "init"]
        assert records[0]["code"] == SEED_DUD[0]
        assert records[1]["code"] == "return $x > 0.5"

    def test_extraction_failure_consumes_retry(self, small_table):
        provider = scripted(("init", "my apologies, no code today"), ("init", RULE_HALF))
        result = run_evolution(
            base_config(population_size=2, retry_budget=1, generations=0),
            small_table,
            provider,
            seed_rule=SEED_DUD,
        )
        child = result.records[1]
        assert child["error"] is None
        assert child["request_tags_used"] == ["init", "init"]
        assert result.llm_calls == 2

    def test_typecheck_failure_consumes_retry(self, small_table):
        bad = "```rule\nreturn $ghost > 1\n```\n```context\nc\n```"
        provider = scripted(("init", bad), ("init", RULE_GOOD))
        result = run_evolution(
            base_config(population_size=2, retry_budget=1, generations=0),
            small_table,
            provider,
            seed_rule=SEED_DUD,
        )
        assert result.records[1]["code"] == "return $x > 1.5"
        assert result.records[1]["request_tags_used"] == ["init", "init"]

    def test_exhausted_retries_mark_invalid(self, small_table):
        provider = scripted(("init", "nope"), ("init", "still nope"))
        result = run_evolution(
            base_config(population_size=2, retry_budget=1, generations=0),
            small_table,
            provider,
            seed_rule=SEED_DUD,
        )
        child = result.records[1]
        assert child["error"] is not None
        assert child["fitness"] is None
        assert best_record(result.records)["candidate_id"] == "c0000"

    @pytest.mark.parametrize(
        "replies,budget,logged",
        [
            (["no code block here"], 200, (["init", "init"], "", "", "response contains no fenced code block")),
            ([], 200, (["init", "init"], "", "", "no scripted response left for tag 'init'")),
            # A slot the call budget stops keeps its last reply's rule.
            ([], 1, (["init"], "return $nope > 1", "first reply", "1:8: unknown feature $nope")),
        ],
        ids=["no-rule-block", "provider-failure", "call-budget"],
    )
    def test_a_record_describes_the_slots_last_request(self, small_table, replies, budget, logged):
        first = "```rule\nreturn $nope > 1\n```\n\n```context\nfirst reply\n```"
        result = run_evolution(
            base_config(population_size=2, retry_budget=1, generations=0, llm_call_budget=budget),
            small_table,
            scripted(*[("init", text) for text in (first, *replies)]),
            seed_rule=SEED_DUD,
        )
        child = result.records[1]
        assert (child["request_tags_used"], child["code"], child["context"], child["error"]) == logged

    def test_evaluate_logs_each_candidate_once(self, small_table):
        sink = ListSink()
        provider = scripted(("init", RULE_HALF), ("init", RULE_GOOD))
        run_evolution(
            base_config(generations=0), small_table, provider, log=sink, seed_rule=SEED_DUD
        )
        assert sink.tags == ["init", "init"]
        assert [r["candidate_id"] for r in sink] == ["c0000", "c0001", "c0002"]
        assert sink[0]["fitness"] == 0.0
        assert sink[1]["fitness"] == pytest.approx(0.5)
        assert sink[2]["fitness"] == pytest.approx(2 / 3)
        assert all(r["precision"] is not None for r in sink)

    def test_each_distinct_rule_is_scored_once(self, small_table, monkeypatch):
        # `return mean($x, 60) > 1` costs 5 nodes x 6 rows = 30 > 20.
        monkeypatch.setattr(interp, "EVAL_BUDGET", 20)
        wide = "```rule\nreturn mean($x, 60) > 1\n```\n\n```context\nToo wide.\n```"
        spaced = "```rule\nreturn   $x>0.5\n```\n\n```context\nSame rule, other spacing.\n```"
        provider = scripted(("init", RULE_HALF), ("init", wide), ("init", spaced), ("init", wide))
        scored = []
        original = evolution.evaluate

        def counting(rule, table, memo=None):
            scored.append(format_rule(rule.ast))
            return original(rule, table, memo)

        monkeypatch.setattr(evolution, "evaluate", counting)
        sink = ListSink()
        config = base_config(population_size=5, generations=0)
        run_evolution(config, small_table, provider, log=sink, seed_rule=SEED_DUD)
        # A rule over the budget is evaluated once too; its recurrence is rejected from the cache.
        assert scored == [SEED_DUD[0], "return $x > 0.5", "return mean($x, 60) > 1"]
        assert [r["fitness"] for r in sink] == [0.0, pytest.approx(0.5), None, pytest.approx(0.5), None]
        assert sink[1]["precision"] == sink[3]["precision"]
        assert "evaluation budget exceeded" in sink[2]["error"] and sink[4]["error"] == sink[2]["error"]

    @staticmethod
    def one_generation(small_table, reflection="Hint.\n\nContext.", fail_tags=None):
        """One generation of `base_config()`: a reflection, a crossover and a mutation.

        Returns what the run logged and the user prompt of each tag. With
        `fail_tags`, requests with those tags fail and get no prompt.
        """
        canned = CannedProvider(
            {
                "init": [RULE_HALF, RULE_GOOD],
                "reflection": [reflection],
                "crossover": [RULE_PERFECT],
                "mutation": [RULE_PERFECT],
            }
        )
        provider = canned if fail_tags is None else FailingProvider(fail_tags, fallback=canned)
        sink = ListSink()
        run_evolution(base_config(generations=1), small_table, provider, log=sink, seed_rule=SEED_DUD)
        return sink, {request.tag: request.user_prompt for request in canned.requests}

    def test_reflection_paragraph_split(self, small_table):
        text = "First hint.\n\nSecond hint.\n\nThe coil leaks heat when idle."
        _, prompt = self.one_generation(small_table, reflection=text)
        # The crossover prompt shows the comments, then the context; the
        # mutation prompt ends its digest with the latest context.
        assert (
            "[Reflection]\nFirst hint.\n\nSecond hint.\nThe coil leaks heat when idle.\n\n"
            in prompt["crossover"]
        )
        assert "\nThe coil leaks heat when idle.\n\n[Code]" in prompt["mutation"]

    def test_reflection_single_paragraph(self, small_table):
        _, prompt = self.one_generation(small_table, reflection="Only one thought.")
        assert "[Reflection]\nOnly one thought.\n(none provided)\n\n" in prompt["crossover"]

    def test_reflection_provider_failure_drops_pair(self, small_table):
        sink, prompt = self.one_generation(small_table, fail_tags={"reflection"})
        assert sink.tags.count("reflection") == 1
        assert NO_REFLECTION_TEXT in prompt["crossover"]
        empty_digest = f"[Prior Reflection]\n{NO_REFLECTIONS_YET}\n{NO_REFLECTIONS_YET}\n"
        assert empty_digest in prompt["mutation"]

    def test_crossover_lineage_and_prompt(self, small_table):
        reflection = "Use a tighter threshold.\n\nSetpoint drift."
        records, prompt = self.one_generation(small_table, reflection=reflection)
        (child,) = [r for r in records if r["operator"] == "crossover"]
        assert child["generation"] == 1
        by_id = {r["candidate_id"]: r for r in records}
        worse, better = (by_id[parent] for parent in child["parent_ids"])
        assert worse["fitness"] < better["fitness"]
        assert f"[Worse Rules]\n```rule\n{worse['code']}\n```" in prompt["crossover"]
        assert f"[Better Rules]\n```rule\n{better['code']}\n```" in prompt["crossover"]
        assert "Use a tighter threshold." in prompt["crossover"]

    def test_mutation_lineage(self, small_table):
        records, prompt = self.one_generation(small_table)
        (child,) = [r for r in records if r["operator"] == "mutation"]
        elite = max((r for r in records if r["generation"] == 0), key=lambda r: r["fitness"])
        assert child["generation"] == 1
        assert child["parent_ids"] == [elite["candidate_id"]]
        assert f"[Code]\n```rule\n{elite['code']}\n```" in prompt["mutation"]

    def test_mutation_prompt_carries_reflection_digest(self, small_table):
        reflection = "Watch the damper.\n\nStuck actuator."
        _, prompt = self.one_generation(small_table, reflection=reflection)
        assert "- Watch the damper. Stuck actuator." in prompt["mutation"]

    def test_offspring_provider_failure_marks_invalid(self, small_table):
        records, _ = self.one_generation(small_table, fail_tags={"crossover"})
        (child,) = [r for r in records if r["operator"] == "crossover"]
        assert child["error"] == "synthetic failure for crossover"
        assert child["fitness"] is None


class TestRun:
    def scripted_run_provider(self) -> ScriptedProvider:
        return scripted(
            ("init", RULE_HALF),
            ("init", RULE_GOOD),
            ("reflection", "Tighter thresholds win.\n\nLook at the peak rows."),
            ("crossover", RULE_PERFECT),
            ("mutation", "```rule\nreturn $x > 3.5\n```\n```context\nPeak only.\n```"),
            ("reflection", "Keep precision high.\n\nFlag only the incident."),
            ("crossover", RULE_PERFECT),
            ("mutation", "```rule\nreturn $x > 3.5\n```\n```context\nPeak only.\n```"),
        )

    def test_full_run_accounting(self, small_table):
        result = run_evolution(
            base_config(), small_table, self.scripted_run_provider(), seed_rule=SEED_DUD
        )
        assert not result.aborted
        assert result.generations_completed == 2
        assert result.llm_calls == 8
        assert len(result.records) == 7
        assert best_record(result.records)["fitness"] == pytest.approx(1.0)
        assert best_so_far(result.records) == pytest.approx([2 / 3, 1.0, 1.0])

    def test_history_non_decreasing_and_ids_unique(self, small_table):
        result = run_evolution(
            base_config(), small_table, self.scripted_run_provider(), seed_rule=SEED_DUD
        )
        history = best_so_far(result.records)
        assert all(a <= b for a, b in zip(history, history[1:]))
        assert best_record(result.records)["fitness"] == history[-1]
        ids = [r["candidate_id"] for r in result.records]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize(
        "enable_pir, enable_pic, generation_tags",
        [(True, True, "RRRCCCMM"), (True, False, "RRRMMMMM"), (False, True, "CCCMM")],
        ids=["default", "no-pic", "no-pir"],
    )
    def test_request_tag_trace(self, small_table, enable_pir, enable_pic, generation_tags):
        # Three pairs and two elites, one request per slot, one slot at a time.
        config = TestConcurrentWaves.config(
            enable_pir=enable_pir, enable_pic=enable_pic, retry_budget=0
        )
        provider = KeyedProvider(max_in_flight=1, delay=0)
        sink = ListSink()
        result = run_evolution(config, small_table, provider, log=sink)
        tag = {"R": "reflection", "C": "crossover", "M": "mutation"}
        per_generation = [tag[letter] for letter in generation_tags]
        assert result.generations_completed == 3
        assert sink.tags == ["init"] * 5 + per_generation * 3

    @pytest.mark.parametrize(
        "enable_pir, enable_pic, generation_tags",
        [(True, True, "RRRCCCMM"), (True, False, "RRRMMMMM"), (False, True, "CCCMM")],
        ids=["default", "no-pic", "no-pir"],
    )
    def test_generation_plan_is_data(self, small_table, monkeypatch, enable_pir, enable_pic, generation_tags):
        # Each generation's slots, read as data: their tags, the slots they read and their parents.
        config = TestConcurrentWaves.config(enable_pir=enable_pir, enable_pic=enable_pic, retry_budget=0)
        select, plan = evolution.select_pairs, EvolutionEngine._generation_plan
        drawn, plans = [], []

        def selecting(*args):
            drawn.append(select(*args))
            return drawn[-1]

        def planning(engine, population, generation):
            plans.append((list(population), plan(engine, population, generation)))
            return plans[-1][1]

        monkeypatch.setattr(evolution, "select_pairs", selecting)
        monkeypatch.setattr(EvolutionEngine, "_generation_plan", planning)
        run_evolution(config, small_table, KeyedProvider(max_in_flight=1, delay=0))
        tag = {"R": "reflection", "C": "crossover", "M": "mutation"}
        assert len(plans) == len(drawn) == 3
        for (population, slots), pairs in zip(plans, drawn):
            assert [spec.tag for spec in slots] == [tag[letter] for letter in generation_tags]
            reflections = tuple(range(len(pairs))) if enable_pir else ()
            assert [spec.reads for spec in slots if spec.tag == "reflection"] == [()] * len(reflections)
            crossovers = [(spec.reads, spec.parents) for spec in slots if spec.tag == "crossover"]
            paired = [((i,) if enable_pir else (), (worse.id, better.id)) for i, (worse, better) in enumerate(pairs)]
            assert crossovers == (paired if enable_pic else [])
            ranked = sorted((c for c in population if c.is_valid), key=lambda c: rank_key(c.fitness, c.id))
            elites = ranked[:2] if enable_pic else ranked[:1] * len(pairs) + ranked[:2]
            mutations = [(spec.reads, spec.parents) for spec in slots if spec.tag == "mutation"]
            assert mutations == [(reflections, (elite.id,)) for elite in elites]
            if not enable_pir:
                assert all(spec.reads == () for spec in slots)

    def test_abort_when_provider_dies_during_init(self, small_table):
        result = run_evolution(base_config(), small_table, FailingProvider(), seed_rule=SEED_DUD)
        assert result.aborted
        assert best_record(result.records)["candidate_id"] == "c0000"
        assert [r["operator"] for r in result.records] == ["seed", "init"]
        assert result.generations_completed == 0

    @staticmethod
    def assert_every_request_logged(result, sink):
        """Each request is logged, and is a reflection or belongs to exactly one candidate record."""
        assert len(sink.tags) == result.llm_calls
        slot_requests = sum(len(r["request_tags_used"]) for r in result.records)
        assert slot_requests + sink.tags.count("reflection") == result.llm_calls

    def test_provider_failure_on_retry_counts_both_requests(self, small_table):
        provider = CannedProvider(
            {
                "init": [RULE_HALF, RULE_GOOD],
                "reflection": ["Hint.\n\nContext."],
                "crossover": ["no code block here"],
                "mutation": [RULE_PERFECT],
            }
        )
        sink = ListSink()
        result = run_evolution(
            base_config(generations=1, retry_budget=1), small_table, provider, log=sink, seed_rule=SEED_DUD
        )
        assert not result.aborted
        self.assert_every_request_logged(result, sink)
        (child,) = [r for r in result.records if r["operator"] == "crossover"]
        assert child["request_tags_used"] == ["crossover", "crossover"]
        assert child["error"] == "no canned text for 'crossover'"
        assert child["fitness"] is None

    def test_call_budget_on_retry_keeps_the_slot(self, small_table):
        provider = CannedProvider(
            {
                "init": [RULE_HALF, RULE_GOOD],
                "reflection": ["Hint.\n\nContext."],
                "crossover": ["no code block here", RULE_PERFECT],
                "mutation": [RULE_PERFECT],
            }
        )
        sink = ListSink()
        result = run_evolution(
            base_config(generations=3, retry_budget=1, llm_call_budget=4),
            small_table,
            provider,
            log=sink,
            seed_rule=SEED_DUD,
        )
        assert result.llm_calls == 4
        assert result.generations_completed == 0
        self.assert_every_request_logged(result, sink)
        child = result.records[-1]
        assert child["operator"] == "crossover"
        assert child["request_tags_used"] == ["crossover"]
        assert child["error"] == "response contains no fenced code block"

    def test_provider_failure_on_second_init_logs_generation_zero(self, small_table):
        provider = CannedProvider({"init": [RULE_HALF]})
        sink = ListSink()
        result = run_evolution(base_config(), small_table, provider, log=sink, seed_rule=SEED_DUD)
        assert result.aborted
        assert result.generations_completed == 0
        self.assert_every_request_logged(result, sink)
        assert [r["operator"] for r in result.records] == ["seed", "init", "init"]
        assert result.records[1]["fitness"] == pytest.approx(0.5)
        failed = result.records[2]
        assert failed["request_tags_used"] == ["init"]
        assert failed["error"] == "no canned text for 'init'"
        assert best_record(result.records)["candidate_id"] == "c0001"
        assert best_so_far(result.records) == pytest.approx([0.5])

    def test_call_budget_stops_mid_generation(self, small_table):
        result = run_evolution(
            base_config(generations=5, llm_call_budget=4),
            small_table,
            self.scripted_run_provider(),
            seed_rule=SEED_DUD,
        )
        assert not result.aborted
        assert result.llm_calls == 4
        assert result.generations_completed == 0
        # Init population plus the one crossover child that fit in the budget.
        assert len(result.records) == 4
        assert result.records[-1]["operator"] == "crossover"

    @staticmethod
    def canned_tags(table, **overrides) -> Counter:
        """The request tags of one generation whose three candidates score distinct fitness.

        So `select_pairs` draws its pair, whatever the sampler would draw.
        """
        provider = CannedProvider(
            {
                "init": [RULE_HALF, RULE_GOOD],
                "reflection": ["Hint.\n\nContext."],
                "crossover": [RULE_PERFECT],
                "mutation": [RULE_PERFECT, RULE_PERFECT],
            }
        )
        run_evolution(base_config(generations=1, **overrides), table, provider, seed_rule=SEED_DUD)
        return Counter(request.tag for request in provider.requests)

    def test_no_pir_suppresses_reflection_calls(self, small_table):
        plain = self.canned_tags(small_table)
        assert plain["reflection"] == plain["crossover"] == 1
        tags = self.canned_tags(small_table, enable_pir=False)
        assert tags == plain - Counter(reflection=1)

    def test_no_pir_crossover_uses_placeholder(self, small_table):
        config = base_config(enable_pir=False, generations=1)
        provider = CannedProvider(
            {
                "init": [RULE_HALF, RULE_GOOD],
                "crossover": [RULE_PERFECT],
                "mutation": [RULE_PERFECT],
            }
        )
        run_evolution(config, small_table, provider, seed_rule=SEED_DUD)
        crossover_prompts = [r.user_prompt for r in provider.requests if r.tag == "crossover"]
        assert crossover_prompts
        assert all(NO_REFLECTION_TEXT in p for p in crossover_prompts)

    def test_no_pic_swaps_crossover_for_mutation(self, small_table):
        plain = self.canned_tags(small_table)
        assert plain["crossover"] == plain["mutation"] == 1
        tags = self.canned_tags(small_table, enable_pic=False)
        # A mutation takes the crossover's place; reflections still run so
        # the mutation digest has material.
        assert tags == plain - Counter(crossover=1) + Counter(mutation=1)
        assert tags["reflection"] == 1

    def test_sampler_run_is_deterministic(self, small_table):
        config = base_config(population_size=4, generations=2, elite_count=2)

        def go():
            provider = SamplerProvider(seed=9, feature_names=small_table.feature_names)
            sink = ListSink()
            return run_evolution(config, small_table, provider, log=sink), sink.tags

        (first, first_tags), (second, second_tags) = go(), go()
        assert first.records == second.records
        assert best_record(first.records)["code"] == best_record(second.records)["code"]
        assert first_tags == second_tags

    def test_run_log_streams_match_result(self, small_table, tmp_path):
        config = base_config(population_size=4, generations=2, elite_count=2)
        provider = SamplerProvider(seed=9, feature_names=small_table.feature_names)
        log = RunLog(tmp_path)
        result = run_evolution(config, small_table, provider, log=log)
        tags = (log.dir / "requests.log").read_text(encoding="utf-8").splitlines()
        assert len(tags) == result.llm_calls
        # The rule slots' tags, in slot order, are their records' tags in record order.
        slot_tags = [tag for record in result.records for tag in record["request_tags_used"]]
        assert [tag for tag in tags if tag != "reflection"] == slot_tags
        assert log.records() == result.records

    def test_temperatures_split_by_phase(self, small_table):
        provider = CannedProvider(
            {
                "init": [RULE_HALF, RULE_GOOD],
                "reflection": ["Hint.\n\nContext."],
                "crossover": [RULE_PERFECT],
                "mutation": [RULE_PERFECT],
            }
        )
        run_evolution(base_config(generations=1), small_table, provider, seed_rule=SEED_DUD)
        by_tag = {r.tag: r.temperature for r in provider.requests}
        assert by_tag["init"] == pytest.approx(0.7)
        assert by_tag["crossover"] == pytest.approx(0.2)
        assert by_tag["reflection"] == pytest.approx(0.2)


class KeyedProvider:
    """Answers as a pure function of (request, occurrence), after a short sleep.

    Like the benchmark's loopback stub, the answer depends on the whole
    request, seed included, and on how many identical requests came before,
    not on arrival order. About one rule answer in five has no code block,
    so slots retry. Calls whose issue index is in `fail_at`, or whose seed
    is in `fail_seeds`, raise `error`.
    """

    def __init__(self, max_in_flight=4, delay=0.02, fail_at=(), fail_seeds=(), error=None) -> None:
        self.max_in_flight = max_in_flight
        self._delay = delay
        self._fail_at = set(fail_at)
        self._fail_seeds = set(fail_seeds)
        self._error = error or CompletionError("synthetic failure")
        self._seen = Counter()
        self._lock = threading.Lock()
        self._running = 0
        self.most_in_flight = 0
        self.issued = []

    @staticmethod
    def answer(request, occurrence: int) -> str:
        key = (
            f"{request.system_prompt}|{request.user_prompt}|{request.temperature}"
            f"|{request.seed}|{occurrence}"
        )
        rng = random.Random(hashlib.sha256(key.encode()).digest())
        if request.tag == "reflection":
            return f"Hint {rng.randrange(1000)}.\n\nContext {rng.randrange(1000)}."
        if rng.random() < 0.2:
            return "no code block in this answer"
        rule = f"return $x {rng.choice(('>', '<'))} {rng.uniform(-1.5, 4.5):.3f}"
        return f"```rule\n{rule}\n```\n```context\nc{occurrence}\n```"

    @classmethod
    def rule_code(cls, request) -> str:
        """The rule in the answer to the first occurrence of `request`; empty if none."""
        text = cls.answer(request, 0)
        return text.split("\n")[1] if "```rule" in text else ""

    def complete(self, request) -> CompletionResult:
        with self._lock:
            index = len(self.issued)
            occurrence = self._seen[request]
            self._seen[request] += 1
            self.issued.append((request, occurrence))
            self._running += 1
            self.most_in_flight = max(self.most_in_flight, self._running)
        try:
            time.sleep(self._delay)
            if index in self._fail_at or request.seed in self._fail_seeds:
                raise self._error
            return CompletionResult(
                text=self.answer(request, occurrence),
                latency_ms=0,
                attempt=1,
            )
        finally:
            with self._lock:
                self._running -= 1


class GatedProvider(KeyedProvider):
    """Holds one request, `gate` = (request, occurrence), until one tagged `until` arrives.

    `released` tells whether one arrived within `timeout` seconds, so an
    engine that never issues such a request while `gate` is in flight fails
    the test instead of hanging it. With `crash`, the held request then
    raises it.
    """

    def __init__(self, gate, until="crossover", timeout=5.0, crash=None, **kwargs) -> None:
        super().__init__(**kwargs)
        self._gate = gate
        self._until = until
        self._timeout = timeout
        self._crash = crash
        self._until_issued = threading.Event()
        self._gate_seen = 0
        self.released = None

    def complete(self, request) -> CompletionResult:
        if request.tag == self._until:
            self._until_issued.set()
        elif request == self._gate[0]:
            with self._lock:
                occurrence = self._gate_seen
                self._gate_seen += 1
            if occurrence == self._gate[1]:
                self.released = self._until_issued.wait(self._timeout)
                if self._crash is not None:
                    raise self._crash
        return super().complete(request)


class EventSink:
    """Run log that keeps request tags and records in one stream, in arrival order."""

    def __init__(self) -> None:
        self.events: list[tuple[str, object]] = []
        # How many events each `sync` came after.
        self.syncs: list[int] = []

    def request(self, tag: str) -> None:
        self.events.append(("request", tag))

    def append(self, record: dict) -> None:
        self.events.append(("record", record["generation"]))

    def sync(self) -> None:
        self.syncs.append(len(self.events))

    def request_generations(self) -> list[int]:
        """The generation of each request, in issue order: that of the next record logged."""
        generations, pending = [], 0
        for kind, value in self.events:
            if kind == "request":
                pending += 1
            else:
                generations += [value] * pending
                pending = 0
        return generations


class TestConcurrentWaves:
    @staticmethod
    def config(**overrides) -> EvolutionConfig:
        kwargs = dict(
            population_size=6, generations=3, elite_count=2, pairs_per_gen=3, retry_budget=1
        )
        kwargs.update(overrides)
        return EvolutionConfig(**kwargs)

    @pytest.mark.parametrize("enable_pir, enable_pic", [(True, True), (True, False), (False, True)])
    def test_width_four_logs_what_width_one_logs(self, small_table, enable_pir, enable_pic):
        # Seed 2: the first two init slots retry.
        config = self.config(enable_pir=enable_pir, enable_pic=enable_pic, seed=2)
        serial_sink = ListSink()
        serial = run_evolution(config, small_table, KeyedProvider(max_in_flight=1, delay=0), log=serial_sink)
        inits = [r for r in serial.records if r["operator"] == "init"]
        assert [len(r["request_tags_used"]) for r in inits] == [2, 2, 1, 1, 1]
        provider = KeyedProvider(max_in_flight=4)
        sink = ListSink()
        concurrent = run_evolution(config, small_table, provider, log=sink)
        assert provider.most_in_flight >= 2
        assert concurrent.generations_completed == serial.generations_completed == 3
        assert concurrent.records == serial.records
        assert list(sink) == serial.records
        assert sink.tags == serial_sink.tags
        TestRun.assert_every_request_logged(concurrent, sink)

    @pytest.mark.parametrize("enable_pic", [True, False], ids=["default", "no-pic"])
    @pytest.mark.parametrize("width", [1, 4])
    def test_one_select_pairs_then_one_evaluation_per_generation(
        self, small_table, monkeypatch, enable_pic, width
    ):
        # The benchmark times generation g from its `select_pairs` call to the
        # end of the next `evaluate_population` call; generation 0 is the
        # first `evaluate_population` call, before any `select_pairs` call.
        calls = []
        select_pairs = evolution.select_pairs
        evaluate_population = EvolutionEngine.evaluate_population

        def counting_select_pairs(*args):
            calls.append("select_pairs")
            return select_pairs(*args)

        def counting_evaluate_population(engine, population):
            calls.append("evaluate_population")
            return evaluate_population(engine, population)

        monkeypatch.setattr(evolution, "select_pairs", counting_select_pairs)
        monkeypatch.setattr(EvolutionEngine, "evaluate_population", counting_evaluate_population)
        config = self.config(enable_pic=enable_pic)
        result = run_evolution(config, small_table, KeyedProvider(max_in_flight=width, delay=0))
        assert result.generations_completed == 3
        assert calls == ["evaluate_population"] + ["select_pairs", "evaluate_population"] * 3

    def test_width_one_issues_requests_in_slot_order(self, small_table):
        # Without reflections and retries each slot sends one request, whose
        # seed numbers the slot. Pairs drawn twice give identical crossover
        # requests that are not adjacent.
        config = self.config(enable_pir=False, retry_budget=0, pairs_per_gen=5, generations=6)
        provider = KeyedProvider(max_in_flight=1, delay=0)
        result = run_evolution(config, small_table, provider)
        seeds = [request.seed for request, _ in provider.issued]
        assert len(seeds) == result.llm_calls > config.population_size
        assert seeds == [request_seed(config, k, 0) for k in range(len(seeds))]

    def test_a_slot_builds_only_the_requests_it_sends(self, small_table, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(kwargs["tag"])
            return CompletionRequest(*args, **kwargs)

        monkeypatch.setattr(evolution, "CompletionRequest", counting)
        config = self.config(retry_budget=1000, seed=2)
        result = run_evolution(config, small_table, KeyedProvider(max_in_flight=1, delay=0))
        assert "reflection" in built and any(len(r["request_tags_used"]) > 1 for r in result.records)
        assert len(built) == result.llm_calls

    def test_every_request_has_its_own_seed(self, small_table):
        # Seed 2: init slots and later slots retry, and each retry gets a new seed.
        config = self.config(seed=2)
        issued_seeds = []
        for _ in range(2):
            provider = KeyedProvider(max_in_flight=4)
            result = run_evolution(config, small_table, provider)
            assert any(len(r["request_tags_used"]) > 1 for r in result.records)
            seeds = [request.seed for request, _ in provider.issued]
            assert len(set(seeds)) == len(seeds) == result.llm_calls
            assert all(0 <= seed < 2**31 for seed in seeds)
            issued_seeds.append(sorted(seeds))
        assert issued_seeds[0] == issued_seeds[1]

    def test_init_slots_overlap(self, small_table):
        provider = KeyedProvider(max_in_flight=4)
        sink = ListSink()
        run_evolution(self.config(generations=0), small_table, provider, log=sink)
        assert set(sink.tags) == {"init"}
        assert provider.most_in_flight >= 2

    def test_crossover_starts_before_the_last_reflection_returns(self, small_table):
        config = self.config()
        serial_provider = KeyedProvider(max_in_flight=1, delay=0)
        serial = run_evolution(config, small_table, serial_provider)
        reflections = [issued for issued in serial_provider.issued if issued[0].tag == "reflection"]
        # Generation 1's last reflection in slot order is held until a
        # crossover of generation 1 has been issued.
        provider = GatedProvider(reflections[2], max_in_flight=4)
        sink = EventSink()
        concurrent = run_evolution(config, small_table, provider, log=sink)
        assert provider.released is True
        assert concurrent.records == serial.records

        # Mutations wait for the whole digest: each mutation prompt carries
        # every reflection of its own generation. The sink logs requests in
        # slot order; a request's seed gives its slot and attempt.
        slot_order = {
            request_seed(config, ordinal, attempt): (ordinal, attempt)
            for ordinal in range(len(provider.issued))
            for attempt in range(1 + config.retry_budget)
        }
        in_slot_order = sorted(provider.issued, key=lambda issued: slot_order[issued[0].seed])
        generations = sink.request_generations()
        assert len(generations) == len(in_slot_order)
        by_generation: dict[int, list] = {}
        for generation, issued in zip(generations, in_slot_order):
            by_generation.setdefault(generation, []).append(issued)
        assert sorted(by_generation) == [0, 1, 2, 3]
        for generation in (1, 2, 3):
            issued = by_generation[generation]
            texts = [
                " ".join(KeyedProvider.answer(request, occurrence).split())
                for request, occurrence in issued
                if request.tag == "reflection"
            ]
            mutations = [request for request, _ in issued if request.tag == "mutation"]
            assert texts and mutations
            for mutation in mutations:
                assert all(text in mutation.user_prompt for text in texts)

    def test_a_retry_sent_after_later_slots_is_logged_in_slot_order(self, small_table, tmp_path):
        # A crossover whose first answer has no rule block is held until a
        # mutation of its generation has been issued, so its retry goes out
        # after later slots' requests. The run directory still reads as the
        # width-1 run's.
        config = self.config()
        serial_provider = KeyedProvider(max_in_flight=1, delay=0)
        logs = [RunLog(tmp_path / name) for name in ("serial", "held")]
        for log in logs:
            log.dir.mkdir()
        run_evolution(config, small_table, serial_provider, log=logs[0])
        gate = next(
            issued
            for issued in serial_provider.issued
            if issued[0].tag == "crossover" and "```rule" not in KeyedProvider.answer(*issued)
        )
        provider = GatedProvider(gate, until="mutation", max_in_flight=4)
        run_evolution(config, small_table, provider, log=logs[1])
        assert provider.released is True
        # The held slot's retry went out after a mutation.
        ordinal = next(k for k in range(len(provider.issued)) if request_seed(config, k, 0) == gate[0].seed)
        seeds = [request.seed for request, _ in provider.issued]
        between = provider.issued[seeds.index(gate[0].seed) : seeds.index(request_seed(config, ordinal, 1))]
        assert "mutation" in [request.tag for request, _ in between]
        for name in ("requests.log", "run.jsonl"):
            assert (logs[1].dir / name).read_bytes() == (logs[0].dir / name).read_bytes(), name

    def test_reflection_crash_still_logs_issued_crossovers(self, small_table):
        config = self.config()
        serial_provider = KeyedProvider(max_in_flight=1, delay=0)
        run_evolution(config, small_table, serial_provider)
        reflections = [issued for issued in serial_provider.issued if issued[0].tag == "reflection"]
        crash = RuntimeError("provider crashed")
        provider = GatedProvider(reflections[2], crash=crash, max_in_flight=4)
        sink = ListSink()
        with pytest.raises(RuntimeError, match="provider crashed"):
            run_evolution(config, small_table, provider, log=sink)
        assert provider.released is True
        offspring = [r for r in sink if r["generation"] == 1]
        assert offspring and {r["operator"] for r in offspring} == {"crossover"}
        slot_requests = sum(len(r["request_tags_used"]) for r in sink)
        assert slot_requests + sink.tags.count("reflection") == len(sink.tags)

    @staticmethod
    def init_requests(small_table) -> int:
        """How many requests the init slots of `config()` issue, retries included."""
        result = run_evolution(
            TestConcurrentWaves.config(generations=0), small_table, KeyedProvider(delay=0)
        )
        return result.llm_calls

    @pytest.mark.parametrize("reflections", [1, 2])
    def test_call_budget_among_reflections(self, small_table, reflections):
        # The init requests come first; the budget runs out among generation
        # 1's three reflections.
        inits = self.init_requests(small_table)
        config = self.config(llm_call_budget=inits + reflections)
        serial_sink = ListSink()
        serial = run_evolution(config, small_table, KeyedProvider(max_in_flight=1, delay=0), log=serial_sink)
        assert serial_sink.tags.count("reflection") == reflections
        provider = KeyedProvider(max_in_flight=4)
        sink = ListSink()
        concurrent = run_evolution(config, small_table, provider, log=sink)
        assert concurrent.generations_completed == serial.generations_completed == 0
        assert concurrent.records == serial.records
        assert list(sink) == serial.records
        assert sink.tags == serial_sink.tags
        assert concurrent.llm_calls == len(provider.issued) == inits + reflections
        TestRun.assert_every_request_logged(concurrent, sink)

    def test_call_budget_mid_wave(self, small_table):
        # The init requests and three reflections come first. Generation 1's
        # crossovers and mutations are five slots; two of them get a request.
        budget = self.init_requests(small_table) + 3 + 2
        config = self.config(llm_call_budget=budget)
        serial_sink = ListSink()
        serial = run_evolution(config, small_table, KeyedProvider(max_in_flight=1, delay=0), log=serial_sink)
        provider = KeyedProvider(max_in_flight=4)
        sink = ListSink()
        result = run_evolution(config, small_table, provider, log=sink)
        assert result.llm_calls == len(provider.issued) == budget
        assert result.generations_completed == 0
        TestRun.assert_every_request_logged(result, sink)
        offspring = [r for r in result.records if r["generation"] == 1]
        assert len(offspring) == 2
        assert [r["candidate_id"] for r in result.records] == [f"c{i:04d}" for i in range(8)]
        assert result.records == serial.records
        assert list(sink) == serial.records
        assert sink.tags == serial_sink.tags

    def test_far_from_the_budget_the_sampler_runs_as_wide_as_its_waves(self, small_table, monkeypatch):
        # Pop 10 x gen 2: the 9 init requests, then per generation its
        # reflections, then its crossovers and mutations together. Each wave
        # is sized from the width-1 run, since `select_pairs` draws fewer
        # than 5 pairs when fitnesses tie; a request waits on its wave's
        # barrier, which a narrower engine leaves short.
        config = EvolutionConfig(population_size=10, generations=2, seed=3)

        class Serial(SamplerProvider):
            max_in_flight = 1

        serial_sink = ListSink()
        serial = run_evolution(config, small_table, Serial(1, small_table.feature_names), log=serial_sink)
        assert serial.generations_completed == 2
        waves = [len(list(run)) for _, run in itertools.groupby(serial_sink.tags, lambda tag: tag == "reflection")]
        assert len(waves) == 5 and waves[0] == 9

        class Waves(SamplerProvider):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                self._barriers = [threading.Barrier(size, timeout=5.0) for size in waves]
                self._lock = threading.Lock()
                self._posts = 0

            def complete(self, request):
                with self._lock:
                    index = self._posts
                    self._posts += 1
                for barrier in self._barriers:
                    if index < barrier.parties:
                        barrier.wait()
                        break
                    index -= barrier.parties
                return super().complete(request)

        waits = []
        monkeypatch.setattr(evolution, "wait", lambda *args, **kwargs: waits.append(args))
        sink = ListSink()
        result = run_evolution(config, small_table, Waves(1, small_table.feature_names), log=sink)
        assert waits == []
        assert result.records == serial.records
        assert sink.tags == serial_sink.tags

    @staticmethod
    def phase_budget(tags: list[str], phase: str, rng: random.Random) -> int:
        """A call budget that runs out inside `phase` of the width-1 run that issued `tags`.

        The phases are the init requests, generation 1's reflections and its
        crossovers and mutations; the budget leaves at least one call of the
        phase issued and at least one not.
        """
        first_reflection = tags.index("reflection")
        wave = next(i for i in range(first_reflection, len(tags)) if tags[i] != "reflection")
        end = next((i for i in range(wave, len(tags)) if tags[i] == "reflection"), len(tags))
        phases = {"init": (0, first_reflection), "reflections": (first_reflection, wave), "wave": (wave, end)}
        start, stop = phases[phase]
        assert stop - start >= 2, (phase, tags)
        return rng.randrange(start + 1, stop)

    @pytest.mark.parametrize("retry_budget", [0, 1, 2])
    def test_a_run_that_spends_its_budget_does_not_depend_on_its_width(
        self, small_table, monkeypatch, retry_budget
    ):
        # Nine budgets per retry budget, three in each phase, at widths 2, 4
        # and 16. Each slot starts up to 3 ms late, so were slots not held
        # back near the budget, which of those running got the last calls
        # would depend on the delays.
        rng = random.Random(retry_budget)
        start = EvolutionEngine._start

        def late_start(engine, call, issued):
            time.sleep(rng.uniform(0, 0.003))
            return start(engine, call, issued)

        monkeypatch.setattr(EvolutionEngine, "_start", late_start)
        for seed, phase in itertools.product(range(3), ("init", "reflections", "wave")):
            unbounded = ListSink()
            run_evolution(
                self.config(seed=seed, retry_budget=retry_budget), small_table,
                KeyedProvider(max_in_flight=1, delay=0), log=unbounded,
            )
            budget = self.phase_budget(unbounded.tags, phase, rng)
            config = self.config(seed=seed, retry_budget=retry_budget, llm_call_budget=budget)
            serial_sink = ListSink()
            serial = run_evolution(config, small_table, KeyedProvider(max_in_flight=1, delay=0), log=serial_sink)
            assert serial.llm_calls == budget
            for width in (2, 4, 16):
                sink = ListSink()
                result = run_evolution(config, small_table, KeyedProvider(max_in_flight=width, delay=0), log=sink)
                case = (phase, budget, width)
                assert result.records == serial.records, case
                assert sink.tags == serial_sink.tags, case
                assert result.llm_calls == serial.llm_calls, case

    def test_call_budget_under_thread_switching(self, small_table):
        # More workers than cores and frequent thread switches: a lost update
        # of the shared request count would overshoot the budget or drop a tag.
        config = self.config(
            population_size=12, pairs_per_gen=6, elite_count=3, generations=20, llm_call_budget=60
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                provider = KeyedProvider(max_in_flight=8, delay=0)
                sink = ListSink()
                result = run_evolution(config, small_table, provider, log=sink)
                assert result.llm_calls == len(provider.issued) == len(sink.tags) == 60
                TestRun.assert_every_request_logged(result, sink)
                ids = [r["candidate_id"] for r in result.records]
                assert ids == [f"c{i:04d}" for i in range(len(ids))]
        finally:
            sys.setswitchinterval(interval)

    def test_init_provider_failure_keeps_generation_zero(self, small_table):
        # Four init slots, all in flight before the second one's request
        # fails. The run aborts, and every slot is logged in slot order.
        config = self.config(population_size=5, retry_budget=0)
        provider = KeyedProvider(
            max_in_flight=4, delay=0.05, fail_seeds={request_seed(config, 1, 0)}
        )
        sink = ListSink()
        result = run_evolution(config, small_table, provider, log=sink)
        assert result.aborted
        assert result.generations_completed == 0
        assert result.llm_calls == 4
        assert [r["operator"] for r in result.records] == ["seed"] + ["init"] * 4
        assert [r["error"] for r in result.records] == [None, None, "synthetic failure", None, None]
        by_seed = {request.seed: request for request, _ in provider.issued}
        for ordinal in (0, 2, 3):
            request = by_seed[request_seed(config, ordinal, 0)]
            assert result.records[1 + ordinal]["code"] == KeyedProvider.rule_code(request)
        TestRun.assert_every_request_logged(result, sink)

    def test_init_crash_still_logs_the_other_init_slots(self, small_table):
        # As above, but the second init slot raises.
        config = self.config(population_size=5, retry_budget=0)
        crash = RuntimeError("provider crashed")
        provider = KeyedProvider(delay=0.05, fail_seeds={request_seed(config, 1, 0)}, error=crash)
        sink = ListSink()
        with pytest.raises(RuntimeError, match="provider crashed"):
            run_evolution(config, small_table, provider, log=sink)
        assert sink.tags == ["init"] * 4
        assert [r["operator"] for r in sink] == ["seed", "init", "init", "init"]
        by_seed = {request.seed: request for request, _ in provider.issued}
        for record, ordinal in zip(sink[1:], (0, 2, 3)):
            request = by_seed[request_seed(config, ordinal, 0)]
            assert record["code"] == KeyedProvider.rule_code(request)

    @pytest.mark.parametrize(
        "fail_at, error",
        [((), None), ({1}, None), ({9}, RuntimeError("provider crashed"))],
        ids=["success", "abort", "exception"],
    )
    def test_no_worker_thread_outlives_the_run(self, small_table, fail_at, error):
        before = set(threading.enumerate())
        provider = KeyedProvider(max_in_flight=4, fail_at=fail_at, error=error)
        if isinstance(error, RuntimeError):
            with pytest.raises(RuntimeError, match="provider crashed"):
                run_evolution(self.config(retry_budget=0), small_table, provider)
        else:
            run_evolution(self.config(retry_budget=0), small_table, provider)
        assert set(threading.enumerate()) == before


class TestPlanSync:
    """The log is synced once at the end of each plan: the initial population or one generation."""

    def test_a_sampler_run_fsyncs_each_stream_once_per_plan(self, bias_corpus, tmp_path, monkeypatch):
        config = EvolutionConfig(population_size=10, generations=10, seed=1)
        train_table, _ = split(bias_corpus, config.train_fraction)
        provider = SamplerProvider(seed=config.seed, feature_names=train_table.feature_names)
        calls = synced_files(monkeypatch)
        result = run_evolution(config, train_table, provider, log=RunLog(tmp_path))
        assert result.generations_completed == 10
        assert len(calls) == 2 * (1 + config.generations) == 22

    def test_an_aborted_init_run_fsyncs_each_stream_once(self, small_table, tmp_path, monkeypatch):
        calls = synced_files(monkeypatch)
        result = run_evolution(base_config(), small_table, FailingProvider(), log=RunLog(tmp_path), seed_rule=SEED_DUD)
        assert result.aborted
        assert len(calls) == 2

    @staticmethod
    def assert_one_sync_per_plan(sink: EventSink) -> int:
        """Each plan's tags, then its records, then one sync; the number of plans."""
        assert sink.syncs and sink.syncs[-1] == len(sink.events)
        for generation, (start, end) in enumerate(zip([0, *sink.syncs], sink.syncs)):
            plan = sink.events[start:end]
            kinds = [kind for kind, _ in plan]
            assert kinds == sorted(kinds, key=("request", "record").index)
            assert {value for kind, value in plan if kind == "record"} == {generation}
        return len(sink.syncs)

    @pytest.mark.parametrize("width", [1, 4])
    def test_each_plan_is_synced_before_the_next_plan_requests(self, small_table, width):
        sink = EventSink()
        provider = KeyedProvider(max_in_flight=width, delay=0)
        result = run_evolution(TestConcurrentWaves.config(), small_table, provider, log=sink)
        assert self.assert_one_sync_per_plan(sink) == 1 + result.generations_completed == 4

    def test_a_plan_that_raises_is_synced(self, small_table):
        # The tenth call, a crossover of generation 1, raises.
        provider = KeyedProvider(fail_at={9}, error=RuntimeError("provider crashed"))
        sink = EventSink()
        with pytest.raises(RuntimeError, match="provider crashed"):
            run_evolution(TestConcurrentWaves.config(retry_budget=0), small_table, provider, log=sink)
        assert self.assert_one_sync_per_plan(sink) == 2

    def test_an_aborted_init_plan_is_synced(self, small_table):
        sink = EventSink()
        result = run_evolution(base_config(), small_table, FailingProvider(), log=sink, seed_rule=SEED_DUD)
        assert result.aborted
        assert self.assert_one_sync_per_plan(sink) == 1
