"""Prompt templates for the five LLM interactions, plus response parsing.

The five templates (initial generation, the generator system prompt, the
reflection system prompt, crossover, and elitist mutation) live as plain
text files so they can be inspected and swapped out without code changes:
`prompts_dir` (the `load_template` and `load_templates` argument, and
`pillm evolve --prompts-dir`) points at an alternative directory that holds
all five, for prompt experimentation. The packaged bodies are read once per
process, and the evolution engine reads its templates once, when it starts.
Placeholders use `{name}` slots filled by literal substitution only.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .. import timeseries

logger = logging.getLogger(__name__)

TEMPLATE_IDS = (
    "init",
    "generator_system",
    "reflection_system",
    "crossover",
    "elitist_mutation",
)

# Binding schema per template; render() enforces exactly these slots.
PLACEHOLDERS: dict[str, frozenset[str]] = {
    "init": frozenset(
        {"task_description", "input_feature_list", "seed_function", "context_template"}
    ),
    "generator_system": frozenset({"task_description"}),
    "reflection_system": frozenset(
        {
            "task_description",
            "input_feature_list",
            "worse_rules",
            "worse_rules_physical_context",
            "better_rules",
            "better_rules_physical_context",
        }
    ),
    "crossover": frozenset(
        {
            "task_description",
            "input_feature_list",
            "worse_rules",
            "worse_rules_physical_context",
            "better_rules",
            "better_rules_physical_context",
            "reflection_comments",
            "reflection_context",
        }
    ),
    "elitist_mutation": frozenset(
        {
            "task_description",
            "input_feature_list",
            "reflection_comments",
            "reflection_context",
            "elitist_code",
        }
    ),
}

# Fixed phrases the shipped template set must carry verbatim, so edits to
# the text files cannot silently change the structure the engine relies on
# (section markers, the persona line, the creativity nudge). Every phrase
# must appear in at least one template; tests enforce this.
TEMPLATE_ANCHORS = (
    "You are an expert in the domain of building energy",
    "Be very creative",
    "[Worse Rules]",
    "[Better Rules]",
    "[Reflection]",
    "[Improved Code]",
    "[Prior Reflection]",
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_FENCE_RE = re.compile(r"```([^\n`]*)\n(.*?)```", re.DOTALL)

DSL_CHEATSHEET = """\
Rules are written in a small expression language, not a general-purpose
programming language. A rule is zero or more bindings followed by a return:

    d = delta($zone_temp, 5)
    return abs(d) > 2 and $fan_status == 1

Reference a feature column as $name. Available builtins (w and k must be
integer literals between 1 and 1024; all windows trail the current row):
abs(x), clip(x, lo, hi), mean(x, w), std(x, w), rmin(x, w), rmax(x, w),
lag(x, k), delta(x, k) which is x - lag(x, k), ewma(x, a) with a in (0, 1],
and zscore(x, w) which is (x - mean(x, w)) / (std(x, w) + 1e-9).
Operators: + - * /, comparisons > < >= <= == !=, and boolean and/or/not.
The rule must return either a boolean per row (flag) or a numeric anomaly
score per row; scores above the detection threshold are flagged. There are
no loops, no if statements, and no user-defined functions."""


class PromptError(Exception):
    """Base class for template and response-handling failures."""


class MissingBindingError(PromptError):
    """A placeholder required by the template has no binding."""


class ExtractionError(PromptError):
    """The LLM response contains no extractable code block."""


@dataclass(frozen=True)
class ParsedResponse:
    code: str
    context: str


def load_template(template_id: str, prompts_dir: str | Path | None = None) -> str:
    """Read a template body, preferring `prompts_dir` when given."""
    if template_id not in TEMPLATE_IDS:
        raise PromptError(f"unknown template id {template_id!r}")
    filename = f"{template_id}.txt"
    if prompts_dir is not None:
        path = Path(prompts_dir) / filename
        if not path.is_file():
            raise PromptError(f"template override not found: {path}")
        return path.read_text(encoding="utf-8")
    return _packaged_template(filename)


@functools.cache
def _packaged_template(filename: str) -> str:
    return (resources.files(__package__) / "templates" / filename).read_text(encoding="utf-8")


def load_templates(prompts_dir: str | Path | None = None) -> dict[str, str]:
    """Every template body by id, each read once; see `load_template`."""
    return {template_id: load_template(template_id, prompts_dir) for template_id in TEMPLATE_IDS}


def render(
    template_id: str,
    bindings: Mapping[str, str],
    templates: Mapping[str, str] | None = None,
) -> str:
    """Substitute `{placeholder}` slots literally; no recursive expansion.

    The body comes from `templates` when given (as `load_templates` returns
    them), else from the packaged template. Missing bindings raise; bindings
    without a matching slot only warn, so callers can reuse one binding dict
    across several templates.
    """
    body = templates[template_id] if templates is not None else load_template(template_id)
    slots = set(_PLACEHOLDER_RE.findall(body))
    expected = PLACEHOLDERS[template_id]
    for slot in slots:
        if slot not in bindings:
            raise MissingBindingError(slot)
    for extra in sorted(set(bindings) - slots):
        logger.warning("template %s: binding %r has no placeholder", template_id, extra)
    if slots != expected:
        logger.warning(
            "template %s: placeholder set %s differs from the documented schema %s",
            template_id, sorted(slots), sorted(expected),
        )
    return _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), body)


def parse_response(text: str) -> ParsedResponse:
    """Split an LLM response into (rule code, physical-context paragraph).

    The code is the first fenced block whose info string is not `context`;
    the context is the first ```context fenced block anywhere, else the
    first non-empty paragraph after the code block. A response with no code
    block is an extraction error.
    """
    code_block = None
    code_end = None
    context_block = None
    for match in _FENCE_RE.finditer(text):
        info = match.group(1).strip().lower()
        body = match.group(2).strip()
        if info == "context":
            if context_block is None:
                context_block = body
        elif code_block is None:
            code_block = body
            code_end = match.end()
    if code_block is None:
        raise ExtractionError("response contains no fenced code block")
    if context_block is not None and context_block:
        return ParsedResponse(code=code_block, context=context_block)
    trailing = _FENCE_RE.sub("", text[code_end:])
    for paragraph in re.split(r"\n\s*\n", trailing):
        cleaned = paragraph.strip()
        if cleaned:
            return ParsedResponse(code=code_block, context=cleaned)
    logger.warning("response has no physical-context paragraph; admitting without one")
    return ParsedResponse(code=code_block, context="(none provided)")


def format_response(code: str, context: str) -> str:
    """Render (code, context) in the fenced convention the templates request.

    `parse_response(format_response(code, context))` is the identity for
    well-formed pairs; tests and scripted fixtures lean on this.
    """
    return f"```rule\n{code}\n```\n\n```context\n{context}\n```"


def feature_list_text(metas: Sequence[timeseries.FeatureMeta]) -> str:
    """One `- name (unit): description` line per feature, input order kept."""
    if not metas:
        raise ValueError("metas must be non-empty")
    lines = []
    for m in metas:
        description = " ".join(m.description.split())
        lines.append(f"- {m.name} ({m.unit}): {description}")
    return "\n".join(lines)


def default_task_description() -> str:
    """Task framing shared by every template's {task_description} slot."""
    return (
        "The system under observation is an air-handling loop conditioning one zone. "
        "You receive a table of time-aligned feature columns sampled once per minute, "
        "and your rule is evaluated independently at every timestep. The goal is to "
        "flag timesteps that belong to faulty operation (sensor faults, stuck or "
        "leaking actuators, contradictory control) while staying silent during normal "
        "operation: detection quality is scored at the incident level, and every "
        "false alarm outside a labeled incident counts against the rule.\n\n"
        + DSL_CHEATSHEET
    )
