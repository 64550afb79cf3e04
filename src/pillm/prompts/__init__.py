"""The LLM text protocol: the five prompt templates, the fence format, and reply parsing.

The five templates (initial generation, the generator system prompt, the
reflection system prompt, crossover, and elitist mutation) live as plain
text files so they can be inspected and swapped out without code changes:
`load_templates(prompts_dir)`, and `pillm evolve --prompts-dir`, read all
five from an alternative directory instead, for prompt experimentation. The
packaged files are the slot schema: an override may leave out a packaged
`{placeholder}` but not add one. The packaged bodies are read once per
process, and the evolution engine reads its templates once, when it starts.
Placeholders are filled by literal substitution only.

Rules travel in fenced blocks both ways: `fence` writes every block a
prompt or a reply carries, `parse_response` reads a rule reply and
`parse_reflection` a reflection reply.
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
from ..errors import PromptError

logger = logging.getLogger(__name__)

TEMPLATE_IDS = (
    "init",
    "generator_system",
    "reflection_system",
    "crossover",
    "elitist_mutation",
)

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
_PARAGRAPH_BREAK_RE = re.compile(r"\n\s*\n")

# What a parser returns for a paragraph the reply does not carry.
NONE_PROVIDED = "(none provided)"

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


class MissingBindingError(PromptError):
    """A placeholder required by the template has no binding."""


class ExtractionError(PromptError):
    """The LLM response contains no extractable code block."""


@dataclass(frozen=True)
class ParsedResponse:
    code: str
    context: str


def load_templates(prompts_dir: str | Path | None = None) -> dict[str, str]:
    """Every template body by id: the packaged set, or all five read from `prompts_dir`.

    An override is read by `timeseries.read_text`, so a leading byte-order
    mark is dropped. One that is missing, is not UTF-8, is empty or only
    whitespace, or names a placeholder its packaged template lacks raises
    `PromptError`. Each packaged placeholder an override leaves out is
    logged once, here, as a warning: `render` drops its binding silently.
    """
    packaged = _packaged_templates()
    if prompts_dir is None:
        return dict(packaged)
    templates = {}
    for template_id in TEMPLATE_IDS:
        path = Path(prompts_dir) / f"{template_id}.txt"
        if not path.is_file():
            raise PromptError(f"template override not found: {path}")
        body = timeseries.read_text(path, f"template override {path}", PromptError)
        if not body.strip():
            raise PromptError(f"template override {path} is empty")
        unknown = _slots(body) - _slots(packaged[template_id])
        if unknown:
            names = ", ".join(f"{{{slot}}}" for slot in sorted(unknown))
            raise PromptError(
                f"template override {path} names a placeholder its packaged template lacks: {names}"
            )
        for slot in sorted(_slots(packaged[template_id]) - _slots(body)):
            logger.warning("template override %s leaves out {%s}", path, slot)
        templates[template_id] = body
    return templates


@functools.cache
def _packaged_templates() -> dict[str, str]:
    directory = resources.files(__package__) / "templates"
    return {t: (directory / f"{t}.txt").read_text(encoding="utf-8") for t in TEMPLATE_IDS}


def _slots(body: str) -> set[str]:
    return set(_PLACEHOLDER_RE.findall(body))


def render(template_id: str, bindings: Mapping[str, str], templates: Mapping[str, str]) -> str:
    """Substitute the `{placeholder}` slots of `templates[template_id]` literally.

    There is no recursive expansion. Missing bindings raise; bindings
    without a matching slot are dropped, so callers can reuse one binding
    dict across several templates, and an override may leave out a slot.
    """
    body = templates[template_id]
    for slot in _slots(body):
        if slot not in bindings:
            raise MissingBindingError(slot)
    return _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), body)


def fence(info: str, body: str) -> str:
    """`body` in a fenced block with info string `info`, as prompts and replies carry rules."""
    return f"```{info}\n{body}\n```"


def _paragraphs(text: str) -> list[str]:
    """The non-blank paragraphs of `text`, stripped, in order."""
    return [p.strip() for p in _PARAGRAPH_BREAK_RE.split(text) if p.strip()]


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
    if context_block:
        return ParsedResponse(code=code_block, context=context_block)
    trailing = _paragraphs(_FENCE_RE.sub("", text[code_end:]))
    if trailing:
        return ParsedResponse(code=code_block, context=trailing[0])
    logger.warning("response has no physical-context paragraph; admitting without one")
    return ParsedResponse(code=code_block, context=NONE_PROVIDED)


def parse_reflection(text: str) -> tuple[str, str]:
    """Split a reflection reply into (comments, physical context).

    The context is the last paragraph, and the comments are the paragraphs
    before it, joined by blank lines. A reply of one paragraph has no
    context; an empty reply has neither.
    """
    parts = _paragraphs(text)
    if len(parts) < 2:
        return (parts[0] if parts else NONE_PROVIDED), NONE_PROVIDED
    return "\n\n".join(parts[:-1]), parts[-1]


def format_response(code: str, context: str) -> str:
    """Render (code, context) in the fenced convention the templates request.

    `parse_response(format_response(code, context))` is the identity for
    well-formed pairs; the sampler and tests lean on this.
    """
    return f"{fence('rule', code)}\n\n{fence('context', context)}"


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
