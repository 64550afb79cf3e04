import logging
import re

import pytest

from pillm import prompts
from pillm.prompts import (
    PLACEHOLDERS,
    TEMPLATE_IDS,
    ExtractionError,
    MissingBindingError,
    PromptError,
    feature_list_text,
    format_response,
    load_template,
    load_templates,
    parse_response,
    render,
)
from pillm.timeseries import FeatureMeta

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def full_bindings(template_id: str) -> dict[str, str]:
    return {slot: f"<{slot}>" for slot in PLACEHOLDERS[template_id]}


class TestTemplates:
    def test_all_templates_load(self):
        for template_id in TEMPLATE_IDS:
            assert load_template(template_id).strip()

    def test_unknown_template(self):
        with pytest.raises(PromptError):
            load_template("haiku")

    def test_placeholder_sets_match_schema(self):
        for template_id in TEMPLATE_IDS:
            slots = set(_PLACEHOLDER_RE.findall(load_template(template_id)))
            assert slots == set(PLACEHOLDERS[template_id]), template_id

    def test_override_directory(self, tmp_path):
        for template_id in TEMPLATE_IDS:
            (tmp_path / f"{template_id}.txt").write_text(f"other {template_id}")
        (tmp_path / "init.txt").write_text("custom {task_description}")
        body = render("init", {"task_description": "T"}, templates=load_templates(tmp_path))
        assert body == "custom T"

    def test_override_missing_file(self, tmp_path):
        with pytest.raises(PromptError, match="override"):
            load_template("init", prompts_dir=tmp_path)

    def test_packaged_bodies_are_read_once(self, monkeypatch):
        prompts._packaged_template.cache_clear()
        reads = []
        files = prompts.resources.files

        def counting(package):
            reads.append(package)
            return files(package)

        monkeypatch.setattr(prompts.resources, "files", counting)
        for _ in range(3):
            assert load_templates() == {t: load_template(t) for t in TEMPLATE_IDS}
        assert len(reads) == len(TEMPLATE_IDS)

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
        text = render("init", bindings)
        assert "return zscore($zone_temp, 60) > 3" in text

    def test_reflection_places_pairs_under_headings(self):
        bindings = full_bindings("reflection_system")
        bindings["worse_rules"] = "WORSE-RULE-TEXT"
        bindings["better_rules"] = "BETTER-RULE-TEXT"
        text = render("reflection_system", bindings)
        assert text.index("[Worse Rules]") < text.index("WORSE-RULE-TEXT")
        assert text.index("[Better Rules]") < text.index("BETTER-RULE-TEXT")
        assert text.index("WORSE-RULE-TEXT") < text.index("[Better Rules]")

    def test_missing_binding_names_slot(self):
        bindings = full_bindings("crossover")
        del bindings["reflection_comments"]
        with pytest.raises(MissingBindingError, match="reflection_comments"):
            render("crossover", bindings)

    def test_extra_binding_warns_but_renders(self, caplog):
        bindings = full_bindings("generator_system")
        bindings["unused_slot"] = "x"
        with caplog.at_level(logging.WARNING):
            text = render("generator_system", bindings)
        assert "<task_description>" in text
        assert any("unused_slot" in message for message in caplog.messages)

    def test_no_recursive_expansion(self):
        bindings = full_bindings("generator_system")
        bindings["task_description"] = "{task_description}"
        assert "{task_description}" in render("generator_system", bindings)


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
        parsed = parse_response(format_response(code, context))
        assert (parsed.code, parsed.context) == (code, context)

    def test_prose_between_fences_ignored(self):
        text = (
            "Reasoning first.\n\n```rule\nreturn $x > 3\n```\n"
            "Some chatter.\n\n```context\nShort hypothesis.\n```\nBye."
        )
        parsed = parse_response(text)
        assert parsed.code == "return $x > 3"
        assert parsed.context == "Short hypothesis."


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
