"""Completion providers: one real HTTP backend and two offline doubles.

All providers answer `complete(CompletionRequest) -> CompletionResult`. The
HTTP provider speaks the generic chat-completions wire shape (two-role
message list in, text choice out). The scripted provider replays canned
responses matched by request tag in file order, and the grammar sampler
fabricates valid DSL rules deterministically, which makes full evolutionary
runs reproducible with zero network access.

The sampler draws its builtins, and each one's window or alpha literal, from
`nodes.BUILTINS`, so every builtin of the DSL can appear in its rules. Each
of its answers is a pure function of the sampler's seed and the request's
`seed`, not of call order, so it takes as many requests at once as the
HTTP provider does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence
from urllib.parse import urlsplit

from .dsl.formatter import format_rule
from .dsl.nodes import BUILTINS, BinOp, Call, Expr, FeatureRef, Num, RuleAst, Unary, VarRef
from .dsl.parser import MAX_BINDINGS, MAX_NODES
from .errors import ProviderConfigError, ProviderError
from .prompts import format_response
from .timeseries import read_text

if TYPE_CHECKING:
    from .transport import KeepAliveSession

# The reporting layer adds "narrate" on top of the four evolutionary tags.
REQUEST_TAGS = ("init", "reflection", "crossover", "mutation", "narrate")

API_KEY_ENV = "PILLM_API_KEY"

RETRY_MAX_ATTEMPTS = 5
RETRY_BASE_SECONDS = 1.0
RETRY_FACTOR = 2.0
# A server's Retry-After is honoured up to the largest backoff ceiling.
RETRY_AFTER_MAX_SECONDS = RETRY_BASE_SECONDS * RETRY_FACTOR ** (RETRY_MAX_ATTEMPTS - 1)
# The longest `timeout_secs` an `HttpProvider` takes: one day. A socket
# cannot take a much longer one (1e10 s overflows its deadline).
MAX_TIMEOUT_SECONDS = 86_400.0
# Replies that make an `AdaptiveGate` halve its limit.
OVERLOAD_STATUSES = (429, 503)


class CompletionError(ProviderError):
    """The provider failed to produce a response after retries."""


class ScriptExhaustedError(ProviderError):
    """The scripted response file has no remaining record for a tag."""


@dataclass(frozen=True)
class CompletionRequest:
    system_prompt: str
    user_prompt: str
    tag: str
    temperature: float = 0.2
    max_tokens: int = 1024
    # Sampling seed for providers that honour one; None sends none.
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.system_prompt.strip():
            raise ValueError("system_prompt must be non-empty")
        if not self.user_prompt.strip():
            raise ValueError("user_prompt must be non-empty")
        if self.tag not in REQUEST_TAGS:
            raise ValueError(f"unknown request tag {self.tag!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    latency_ms: int
    attempt: int


class Provider(Protocol):
    # How many `complete` calls the caller may have running at once.
    max_in_flight: int

    def complete(self, request: CompletionRequest) -> CompletionResult: ...

    def close(self) -> None:
        """Release what the provider holds open; the offline providers hold nothing."""


class AdaptiveGate:
    """Admits at most `limit` holders at once; the limit follows the server's replies.

    `release(status)` halves the limit on a 429 or 503 reply, down to 1, and
    raises it by one on any other reply, up to `cap`; a post that got no
    reply (status None) leaves it as it is. A lowered limit admits no one
    until enough holders have left. The limit starts at `cap`.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.limit = cap
        self._held = 0
        self._changed = threading.Condition()

    def acquire(self) -> None:
        with self._changed:
            self._changed.wait_for(lambda: self._held < self.limit)
            self._held += 1

    def release(self, status: int | None) -> None:
        with self._changed:
            self._held -= 1
            if status in OVERLOAD_STATUSES:
                self.limit = max(1, self.limit // 2)
            elif status is not None:
                self.limit = min(self.cap, self.limit + 1)
            self._changed.notify_all()


class HttpProvider(Provider):
    """Chat-completions-style HTTP backend with retry and an adaptive in-flight limit.

    Retries 429, 5xx, timeouts, and connection failures with exponential
    backoff (base 1 s, factor 2, full jitter, at most 5 attempts). A 429 or
    503 reply with a numeric `Retry-After` waits that many seconds instead,
    at most `RETRY_AFTER_MAX_SECONDS`. A request's `seed`, when set, is sent
    as the payload's `seed` field. The API key is read from the environment
    only; config files never carry it.

    Requests pass an `AdaptiveGate` before they go on the wire. It admits up
    to `max_in_flight` at once, enough for a run's widest wave (its N-1 init
    requests) up to a population of 17, so a run of G generations waits
    through 1 + 2G round trips. The gate halves its limit on each 429 or
    503 reply, down to 1, and raises it by one on any other reply, so a
    server that admits fewer requests sets the width. A wait at the gate is
    not a retry attempt.

    Requests go through `session`, by default a `transport.KeepAliveSession`
    for `endpoint` and `timeout_secs`. It keeps its connections alive between
    calls, so a run opens at most `max_in_flight` of them, and routes through
    the environment's proxy as it was when the provider was made.
    """

    max_in_flight = 16

    def __init__(
        self,
        endpoint: str,
        model: str,
        timeout_secs: float = 60.0,
        session: KeepAliveSession | None = None,
        sleeper=time.sleep,
    ) -> None:
        url = urlsplit(endpoint) if isinstance(endpoint, str) else None
        try:
            usable = (
                url is not None and url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
            )
        except ValueError:  # a port that is not a number up to 65535
            usable = False
        if not usable:
            raise ProviderConfigError(
                f"http provider requires an http:// or https:// endpoint URL, got {endpoint!r}"
            )
        if not isinstance(model, str) or not model:
            raise ProviderConfigError(f"http provider requires a model name, got {model!r}")
        if (
            not isinstance(timeout_secs, (int, float))
            or isinstance(timeout_secs, bool)
            or not 0 < timeout_secs <= MAX_TIMEOUT_SECONDS
        ):
            raise ProviderConfigError(
                f"timeout_secs must be a number of seconds in (0, {MAX_TIMEOUT_SECONDS:g}], "
                f"got {timeout_secs!r}"
            )
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise ProviderConfigError(
                f"environment variable {API_KEY_ENV} is not set; "
                "the HTTP provider never reads keys from config files"
            )
        self._model = model
        self._api_key = api_key
        # Imported on first use: only this backend needs the HTTP stack, ~30 ms to import.
        from . import transport

        if session is None:
            try:
                session = transport.KeepAliveSession(endpoint, float(timeout_secs))
            except ValueError as exc:  # a proxy that is not plain http://
                raise ProviderConfigError(str(exc)) from None
        self._session = session
        self._network_errors = transport.NETWORK_ERRORS
        self._sleep = sleeper
        self._gate = AdaptiveGate(self.max_in_flight)
        self._rng = random.Random()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        payload = {
            "model": self._model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        headers = {"Authorization": f"Bearer {self._api_key}"}
        start = time.monotonic()
        last_reason = "no attempt made"
        for attempt in range(1, RETRY_MAX_ATTEMPTS + 1):
            retry_after = None
            try:
                response = self._post(payload, headers)
            except self._network_errors as exc:
                last_reason = f"network error: {exc}"
            else:
                if response.status_code == 429 or response.status_code >= 500:
                    last_reason = f"HTTP {response.status_code}"
                    if response.status_code in OVERLOAD_STATUSES:
                        retry_after = _retry_after_seconds(response.headers.get("Retry-After"))
                elif response.status_code != 200:
                    raise CompletionError(
                        f"[{request.tag}] HTTP {response.status_code}: {response.text[:200]}"
                    )
                else:
                    text = self._extract_text(response, request.tag)
                    latency = int((time.monotonic() - start) * 1000)
                    return CompletionResult(text=text, latency_ms=latency, attempt=attempt)
            if attempt < RETRY_MAX_ATTEMPTS:
                if retry_after is not None:
                    self._sleep(min(retry_after, RETRY_AFTER_MAX_SECONDS))
                else:
                    ceiling = RETRY_BASE_SECONDS * (RETRY_FACTOR ** (attempt - 1))
                    self._sleep(self._rng.uniform(0.0, ceiling))
        raise CompletionError(
            f"[{request.tag}] gave up after {RETRY_MAX_ATTEMPTS} attempts ({last_reason})"
        )

    def _post(self, payload: dict, headers: dict[str, str]):
        """One post, sent once the gate admits it; its reply's status adjusts the gate."""
        self._gate.acquire()
        status = None
        try:
            response = self._session.post(payload, headers)
            status = response.status_code
            return response
        finally:
            self._gate.release(status)

    def close(self) -> None:
        """Close the session's idle connections."""
        self._session.close()

    @staticmethod
    def _extract_text(response, tag: str) -> str:
        try:
            text = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):
            raise CompletionError(f"[{tag}] malformed response body")
        return text


def _retry_after_seconds(value: str | None) -> float | None:
    """Seconds from a numeric `Retry-After` header; None when absent, negative or a date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


class ScriptedProvider(Provider):
    """Replays canned responses from a JSON-lines script, matched by tag.

    Each record is `{"tag": ..., "text": ...}`. A request consumes the first
    unconsumed record with its tag, in file order; when none remains the
    provider raises, which fails the run loudly instead of improvising.
    Requests tagged `narrate` echo the prompt (pass-through contract for the
    reporting path), so scripts never need narration records. Records are
    consumed in call order, so callers issue one request at a time.
    """

    max_in_flight = 1

    def __init__(self, records: Sequence[dict]) -> None:
        # One queue of texts per tag, in file order; a deque pops safely across threads.
        self._queues: dict[str, deque[str]] = {tag: deque() for tag in REQUEST_TAGS}
        for i, record in enumerate(records):
            if not isinstance(record, dict) or "tag" not in record or "text" not in record:
                raise ProviderConfigError(f"script record {i} must have 'tag' and 'text'")
            if record["tag"] not in REQUEST_TAGS:
                raise ProviderConfigError(f"script record {i} has unknown tag {record['tag']!r}")
            self._queues[record["tag"]].append(str(record["text"]))

    @classmethod
    def from_path(cls, path: str | Path) -> "ScriptedProvider":
        try:
            text = read_text(path, f"script {str(path)!r}", ProviderConfigError)
        except OSError as exc:
            raise ProviderConfigError(f"cannot read script {str(path)!r}: {exc}") from None
        records = []
        # `read_text` leaves "\n" as the only line break; U+2028 and kin may sit inside a string.
        for line_num, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ProviderConfigError(f"script line {line_num} is not valid JSON: {exc}") from None
        return cls(records)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        if request.tag == "narrate":
            return CompletionResult(text=request.user_prompt, latency_ms=0, attempt=1)
        try:
            text = self._queues[request.tag].popleft()
        except IndexError:
            raise ScriptExhaustedError(f"no scripted response left for tag {request.tag!r}") from None
        return CompletionResult(text=text, latency_ms=0, attempt=1)


class SamplerProvider(Provider):
    """Deterministic rule fabricator standing in for a generator LLM.

    Ignores the prompt text entirely. Every call yields a fenced, valid DSL
    rule over the configured features plus a fixed-format context paragraph
    naming the features it reads. The rule's builtins, and the window or
    alpha literal each takes, are drawn from `nodes.BUILTINS`. Each answer is
    a pure function of (sampler seed, request seed), so it does not depend on
    the order of calls; a request without a seed is answered from the
    sampler seed alone. `narrate` requests echo the prompt.
    """

    max_in_flight = 16

    def __init__(self, seed: int, feature_names: Sequence[str]) -> None:
        if not feature_names:
            raise ProviderConfigError("sampler provider requires at least one feature name")
        self._seed = seed
        self._features = tuple(feature_names)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        if request.tag == "narrate":
            return CompletionResult(text=request.user_prompt, latency_ms=0, attempt=1)
        # A digest, unlike `hash()`, is the same in every process.
        key = hashlib.sha256(f"{self._seed}:{request.seed}".encode()).digest()
        ast = _sample_ast(int.from_bytes(key[:8], "big"), self._features)
        text = format_response(
            format_rule(ast),
            f"Sampled hypothesis: deviations in {', '.join(sorted(ast.features))} relative to recent "
            "behavior indicate abnormal operation of the conditioning loop.",
        )
        return CompletionResult(text=text, latency_ms=0, attempt=1)


# Each literal kind's choices, within the parser's bounds; windows stay at
# 120 or below so that sampled rules stay cheap to score.
_LITERALS = {"window": (1, 2, 5, 10, 15, 30, 60, 120), "alpha": (0.1, 0.2, 0.3, 0.5)}
_CMP_OPS = (">", "<", ">=", "<=")


class _RuleSampler:
    def __init__(self, rng: random.Random, features: Sequence[str]) -> None:
        self._rng = rng
        self._features = list(features)
        self._bound: list[str] = []

    def _leaf(self) -> Expr:
        # A feature may share its name with a binding, so pick among nodes.
        return self._rng.choice([*map(FeatureRef, self._features), *map(VarRef, self._bound)])

    def _numeric(self, depth: int) -> Expr:
        if depth <= 0:
            return self._leaf()
        roll = self._rng.random()
        if roll < 0.25:
            return self._leaf()
        if roll < 0.75:
            name = self._rng.choice(tuple(BUILTINS))
            arity, literal_at, kind = BUILTINS[name]
            args = (
                Num(float(self._rng.choice(_LITERALS[kind]))) if i == literal_at else self._numeric(depth - 1)
                for i in range(arity)
            )
            return Call(name, tuple(args))
        op = self._rng.choice(("+", "-", "*"))
        return BinOp(op, self._numeric(depth - 1), self._numeric(depth - 1))

    def _threshold(self) -> Expr:
        value = round(self._rng.uniform(0.0, 30.0), 2)
        node: Expr = Num(value)
        if self._rng.random() < 0.2:
            node = Unary("-", node)
        return node

    def _comparison(self, depth: int) -> Expr:
        return BinOp(self._rng.choice(_CMP_OPS), self._numeric(depth - 1), self._threshold())

    def _boolean(self, depth: int) -> Expr:
        if depth <= 1:
            return self._comparison(max(depth, 1))
        roll = self._rng.random()
        if roll < 0.55:
            return self._comparison(depth)
        if roll < 0.9:
            op = self._rng.choice(("and", "or"))
            return BinOp(op, self._boolean(depth - 1), self._boolean(depth - 1))
        return Unary("not", self._comparison(depth - 1))

    def build(self, depth_budget: int) -> RuleAst:
        bindings: list[tuple[str, Expr]] = []
        if self._rng.random() < 0.4:
            for i in range(self._rng.choice((1, 2))):
                name = f"sig_{i}"
                expr = self._numeric(depth_budget - 1)
                bindings.append((name, expr))
                self._bound.append(name)
        return RuleAst(bindings=tuple(bindings), result=self._boolean(depth_budget))


def sample_rule(seed: int, features: Sequence[str], depth_budget: int = 4) -> str:
    """Generate valid DSL source drawing feature refs from `features`.

    Deterministic in (seed, feature order, depth budget). The output always
    parses, typechecks against `features`, and respects the structural caps.
    """
    if not features:
        raise ValueError("features must be non-empty")
    if depth_budget < 1:
        raise ValueError("depth_budget must be >= 1")
    return format_rule(_sample_ast(seed, features, depth_budget))


def _sample_ast(seed: int, features: Sequence[str], depth_budget: int = 4) -> RuleAst:
    """`sample_rule`'s rule, before formatting."""
    rng = random.Random(seed)
    depth = depth_budget
    while True:
        ast = _RuleSampler(rng, features).build(depth)
        if ast.node_count <= MAX_NODES and len(ast.bindings) <= MAX_BINDINGS:
            return ast
        # Oversized draws are possible only at large depth budgets; shrink
        # and redraw so the output always respects the structural caps.
        depth = max(1, depth - 1)
