import logging
import re

import pytest

from pillm import prompts
from pillm.dsl import BUILTINS
from pillm.dsl.interp import ZSCORE_EPS
from pillm.dsl.nodes import BINARY_PREC
from pillm.dsl.parser import MAX_WINDOW, MIN_WINDOW
from pillm.evolution import EvolutionConfig, run_evolution
from pillm.prompts import (
    DSL_CHEATSHEET,
    NONE_PROVIDED,
    TEMPLATE_IDS,
    ExtractionError,
    MissingBindingError,
    PromptError,
    feature_list_text,
    fence,
    format_response,
    load_templates,
    parse_reflection,
    parse_response,
    render,
)
from pillm.providers import SamplerProvider
from pillm.timeseries import FeatureMeta

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
TEMPLATES = load_templates()


def full_bindings(template_id: str) -> dict[str, str]:
    return {slot: f"<{slot}>" for slot in _PLACEHOLDER_RE.findall(TEMPLATES[template_id])}


def write_packaged(directory, **changed: str) -> None:
    """The packaged templates in `directory`, with the bodies in `changed` instead."""
    for template_id in TEMPLATE_IDS:
        body = changed.get(template_id, TEMPLATES[template_id])
        (directory / f"{template_id}.txt").write_text(body, encoding="utf-8")


class TestTemplates:
    def test_all_templates_load(self):
        assert tuple(TEMPLATES) == TEMPLATE_IDS
        for body in TEMPLATES.values():
            assert body.strip()

    def test_a_sampler_generation_renders_every_template_without_a_warning(
        self, bias_corpus, monkeypatch, caplog
    ):
        rendered = []
        original = prompts.render

        def recording(template_id, bindings, templates):
            rendered.append(template_id)
            return original(template_id, bindings, templates)

        monkeypatch.setattr(prompts, "render", recording)
        config = EvolutionConfig(population_size=6, generations=1, seed=11)
        provider = SamplerProvider(seed=11, feature_names=bias_corpus.feature_names)
        with caplog.at_level(logging.WARNING, logger="pillm.prompts"):
            result = run_evolution(config, bias_corpus, provider)
        assert result.generations_completed == 1
        assert set(rendered) == set(TEMPLATE_IDS)
        assert [r for r in caplog.records if r.name == "pillm.prompts"] == []

    def test_left_out_slot_warns_once_per_run(self, tmp_path, bias_corpus, caplog):
        crossover = TEMPLATES["crossover"].replace("{reflection_context}", "")
        write_packaged(tmp_path, crossover=crossover)
        config = EvolutionConfig(population_size=6, generations=3, seed=11)
        provider = SamplerProvider(seed=11, feature_names=bias_corpus.feature_names)
        with caplog.at_level(logging.WARNING, logger="pillm.prompts"):
            result = run_evolution(config, bias_corpus, provider, templates=load_templates(tmp_path))
        assert result.generations_completed == 3
        warnings = [r.getMessage() for r in caplog.records if r.name == "pillm.prompts"]
        assert len(warnings) == 1
        assert "crossover.txt leaves out {reflection_context}" in warnings[0]

    def test_override_may_leave_out_a_packaged_slot(self, tmp_path):
        write_packaged(tmp_path, crossover="Cross {worse_rules} with {better_rules}.")
        assert load_templates(tmp_path)["crossover"] == "Cross {worse_rules} with {better_rules}."

    def test_override_naming_an_unknown_slot_is_rejected(self, tmp_path):
        write_packaged(tmp_path, crossover=TEMPLATES["crossover"] + "{input_features}\n")
        with pytest.raises(PromptError, match=r"crossover\.txt names .*\{input_features\}"):
            load_templates(tmp_path)

    def test_override_that_is_not_utf8_is_rejected(self, tmp_path):
        write_packaged(tmp_path)
        (tmp_path / "init.txt").write_bytes(b"\xff\xfe{task_description}")
        with pytest.raises(PromptError, match=r"init\.txt is not valid UTF-8: byte 0xff at offset 0"):
            load_templates(tmp_path)

    def test_override_directory(self, tmp_path):
        for template_id in TEMPLATE_IDS:
            (tmp_path / f"{template_id}.txt").write_text(f"other {template_id}")
        (tmp_path / "init.txt").write_text("custom {task_description}")
        body = render("init", {"task_description": "T"}, templates=load_templates(tmp_path))
        assert body == "custom T"

    def test_override_missing_file(self, tmp_path):
        with pytest.raises(PromptError, match="override"):
            load_templates(tmp_path)

    def test_packaged_bodies_are_read_once(self, monkeypatch):
        prompts._packaged_templates.cache_clear()
        reads = []
        files = prompts.resources.files

        def counting(package):
            reads.append(package)
            return files(package)

        monkeypatch.setattr(prompts.resources, "files", counting)
        for _ in range(3):
            templates = load_templates()
            assert templates == TEMPLATES
            templates["init"] = "changed by a caller"
        assert len(reads) == 1

    def test_override_directory_is_read_on_every_call(self, tmp_path):
        for template_id in TEMPLATE_IDS:
            (tmp_path / f"{template_id}.txt").write_text(f"first {template_id}")
        assert load_templates(tmp_path)["init"] == "first init"
        (tmp_path / "init.txt").write_text("second {task_description}")
        assert render("init", {"task_description": "T"}, templates=load_templates(tmp_path)) == "second T"


class TestRender:
    def test_init_contains_seed_rule_verbatim(self):
        bindings = full_bindings("init")
        bindings["seed_function"] = "return zscore($zone_temp, 60) > 3"
        text = render("init", bindings, TEMPLATES)
        assert "return zscore($zone_temp, 60) > 3" in text

    def test_reflection_places_pairs_under_headings(self):
        bindings = full_bindings("reflection_system")
        bindings["worse_rules"] = "WORSE-RULE-TEXT"
        bindings["better_rules"] = "BETTER-RULE-TEXT"
        text = render("reflection_system", bindings, TEMPLATES)
        assert text.index("[Worse Rules]") < text.index("WORSE-RULE-TEXT")
        assert text.index("[Better Rules]") < text.index("BETTER-RULE-TEXT")
        assert text.index("WORSE-RULE-TEXT") < text.index("[Better Rules]")

    def test_missing_binding_names_slot(self):
        bindings = full_bindings("crossover")
        del bindings["reflection_comments"]
        with pytest.raises(MissingBindingError, match="reflection_comments"):
            render("crossover", bindings, TEMPLATES)

    def test_extra_binding_renders_silently(self, caplog):
        bindings = full_bindings("generator_system")
        bindings["unused_slot"] = "x"
        with caplog.at_level(logging.WARNING):
            text = render("generator_system", bindings, TEMPLATES)
        assert "<task_description>" in text and "unused_slot" not in text
        assert caplog.records == []

    def test_no_recursive_expansion(self):
        bindings = full_bindings("generator_system")
        bindings["task_description"] = "{task_description}"
        assert "{task_description}" in render("generator_system", bindings, TEMPLATES)


class TestParseResponse:
    def test_rule_and_context_fences(self):
        parsed = parse_response(
            "```rule\nreturn $x > 1\n```\n\n```context\nHigh temp signals overheating\n```"
        )
        assert parsed.code == "return $x > 1"
        assert parsed.context == "High temp signals overheating"

    def test_bare_fence_with_context_fence(self):
        parsed = parse_response(
            "```\nreturn $x > 1\n```\n```context\nHigh temp signals overheating\n```"
        )
        assert parsed.code == "return $x > 1"
        assert parsed.context == "High temp signals overheating"

    def test_context_fence_before_code(self):
        parsed = parse_response(
            "```context\nDamper mismatch points at a stuck actuator.\n```\n```rule\nreturn $d > 0\n```"
        )
        assert parsed.code == "return $d > 0"
        assert parsed.context.startswith("Damper mismatch")

    def test_trailing_paragraph_as_context(self):
        parsed = parse_response(
            "Here you go.\n\n```rule\nreturn $x > 2\n```\n\nThe zone overheats when the coil leaks.\n"
        )
        assert parsed.context == "The zone overheats when the coil leaks."

    def test_no_context_admits_with_placeholder(self, caplog):
        with caplog.at_level(logging.WARNING):
            parsed = parse_response("```rule\nreturn $x > 2\n```")
        assert parsed.context == "(none provided)"

    def test_no_code_block_is_extraction_error(self):
        with pytest.raises(ExtractionError):
            parse_response("I am sorry, I cannot help with that.")

    def test_round_trip_with_format_response(self):
        code = "d = delta($x, 5)\nreturn abs(d) > 2"
        context = "Rapid swings indicate sensor trouble."
        text = format_response(code, context)
        assert text == fence("rule", code) + "\n\n" + fence("context", context)
        parsed = parse_response(text)
        assert (parsed.code, parsed.context) == (code, context)

    def test_prose_between_fences_ignored(self):
        text = (
            "Reasoning first.\n\n```rule\nreturn $x > 3\n```\n"
            "Some chatter.\n\n```context\nShort hypothesis.\n```\nBye."
        )
        parsed = parse_response(text)
        assert parsed.code == "return $x > 3"
        assert parsed.context == "Short hypothesis."


class TestParseReflection:
    def test_empty_reply(self):
        assert parse_reflection("") == (NONE_PROVIDED, NONE_PROVIDED)

    def test_one_paragraph_is_comments_only(self):
        assert parse_reflection("  Prefer windows.\n") == ("Prefer windows.", NONE_PROVIDED)

    def test_two_paragraphs(self):
        text = "Prefer windows.\n\nThe coil leaks."
        assert parse_reflection(text) == ("Prefer windows.", "The coil leaks.")

    def test_three_paragraphs_keep_the_last_as_context(self):
        text = "Hint one.\n\nHint two\nwraps.\n\nThe coil leaks."
        assert parse_reflection(text) == ("Hint one.\n\nHint two\nwraps.", "The coil leaks.")

    def test_whitespace_only_paragraphs_are_skipped(self):
        assert parse_reflection(" \n\t\n \n") == (NONE_PROVIDED, NONE_PROVIDED)
        text = "\n  \nHint.\n \t \n\n   \nContext.\n\n  "
        assert parse_reflection(text) == ("Hint.", "Context.")


class TestCheatsheet:
    """The cheatsheet is the LLM's only description of the DSL; it must follow the DSL's tables."""

    def test_names_every_builtin_and_the_window_range(self):
        for name in BUILTINS:
            assert f"{name}(" in DSL_CHEATSHEET, name
        assert f"between {MIN_WINDOW} and {MAX_WINDOW}" in DSL_CHEATSHEET

    def test_every_builtin_is_written_with_its_arity(self):
        for name, (arity, _, _) in BUILTINS.items():
            calls = re.findall(rf"\b{name}\(([^()]*)\)", DSL_CHEATSHEET)
            assert calls, name
            assert [len(args.split(",")) for args in calls] == [arity] * len(calls), (name, calls)

    def test_states_the_literal_ranges_and_the_zscore_epsilon(self):
        assert "ewma(x, a) with a in (0, 1]" in DSL_CHEATSHEET
        zscore = re.search(r"\(std\(x, w\) \+ ([^)]+)\)", DSL_CHEATSHEET)
        assert zscore and float(zscore.group(1)) == ZSCORE_EPS

    def test_names_every_operator(self):
        sentence = DSL_CHEATSHEET[DSL_CHEATSHEET.index("Operators:") :].split(".")[0]
        named = set(re.findall(r"[-+*/<>=!]+|\b(?:and|or|not)\b", sentence))
        assert named >= {*BINARY_PREC, "not"}


class TestFeatureList:
    def test_format(self):
        metas = [FeatureMeta("zone_temp", "degC", "indoor thermal state", "sensor")]
        assert feature_list_text(metas) == "- zone_temp (degC): indoor thermal state"

    def test_multiline_description_collapsed(self):
        metas = [FeatureMeta("x", "u", "two\nlines  here", "sensor")]
        assert feature_list_text(metas) == "- x (u): two lines here"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feature_list_text([])
