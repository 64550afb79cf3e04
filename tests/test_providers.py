import json
import re

import pytest
import requests

from pillm.dsl import compile_rule
from pillm.prompts import parse_response
from pillm.reporting import narrate_report
from pillm.providers import (
    API_KEY_ENV,
    CompletionError,
    CompletionRequest,
    HttpProvider,
    ProviderConfigError,
    SamplerProvider,
    ScriptedProvider,
    ScriptExhaustedError,
    sample_rule,
)

FEATURES = ("zone_temp", "fan_speed", "damper_pos")


def req(tag="init", **kwargs):
    return CompletionRequest(
        system_prompt="You are a test system.",
        user_prompt="Produce a rule.",
        tag=tag,
        **kwargs,
    )


class TestCompletionRequest:
    def test_defaults(self):
        request = req()
        assert request.temperature == 0.2
        assert request.max_tokens == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest(system_prompt=" ", user_prompt="u", tag="init")
        with pytest.raises(ValueError):
            CompletionRequest(system_prompt="s", user_prompt="", tag="init")
        with pytest.raises(ValueError):
            req(tag="unknown-tag")
        with pytest.raises(ValueError):
            req(temperature=-0.1)
        with pytest.raises(ValueError):
            req(max_tokens=0)
        with pytest.raises(ValueError):
            req(seed=-1)


class FakeResponse:
    def __init__(self, status_code: int, body=None, text: str = "", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text or json.dumps(body or {})
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


def ok_body(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


class FakeSession:
    """Queue of responses/exceptions; records every post call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "test-key-123")


def make_http(session, sleeps=None):
    return HttpProvider(
        endpoint="https://llm.example/v1/chat/completions",
        model="test-model",
        session=session,
        sleeper=(sleeps.append if sleeps is not None else (lambda s: None)),
    )


class TestHttpProvider:
    def test_requires_api_key_from_environment(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with pytest.raises(ProviderConfigError, match=API_KEY_ENV):
            HttpProvider(endpoint="https://x", model="m")

    def test_requires_endpoint_and_model(self, api_key):
        with pytest.raises(ProviderConfigError):
            HttpProvider(endpoint="", model="m")
        with pytest.raises(ProviderConfigError):
            HttpProvider(endpoint="https://x", model="")
        for bad in (
            {"endpoint": 5},
            {"endpoint": None},
            {"endpoint": "localhost:8000/v1"},
            {"endpoint": "ftp://x/v1"},
            {"endpoint": "http:///v1"},
            {"model": 5},
            {"model": None},
            {"timeout_secs": "abc"},
            {"timeout_secs": "30"},
            {"timeout_secs": -1},
            {"timeout_secs": 0},
            {"timeout_secs": True},
            {"timeout_secs": float("nan")},
            {"timeout_secs": float("inf")},
        ):
            with pytest.raises(ProviderConfigError):
                HttpProvider(**{"endpoint": "https://x", "model": "m", **bad})
        assert HttpProvider(endpoint="https://x", model="m").max_in_flight == 4
        session = FakeSession([FakeResponse(200, ok_body("ok"))])
        provider = HttpProvider(endpoint="HTTP://x:8000/v1", model="m", timeout_secs=5, session=session)
        assert provider.complete(req()).text == "ok"
        assert session.calls[0]["timeout"] == 5.0

    def test_success_path_and_payload_shape(self, api_key):
        session = FakeSession([FakeResponse(200, ok_body("hello"))])
        provider = make_http(session)
        result = provider.complete(req(temperature=0.7, max_tokens=256, seed=2**31 - 1))
        assert result.text == "hello"
        assert result.attempt == 1
        call = session.calls[0]
        assert call["headers"]["Authorization"] == "Bearer test-key-123"
        assert call["json"]["model"] == "test-model"
        assert call["json"]["temperature"] == 0.7
        assert call["json"]["max_tokens"] == 256
        assert type(call["json"]["seed"]) is int and call["json"]["seed"] == 2**31 - 1
        roles = [m["role"] for m in call["json"]["messages"]]
        assert roles == ["system", "user"]
        # The report's narration request sets no seed, so the payload has none.
        session.outcomes.append(FakeResponse(200, ok_body("prose")))
        assert narrate_report("skeleton", provider) == "prose"
        assert "seed" not in session.calls[1]["json"]

    def test_retries_429_with_jittered_backoff(self, api_key):
        session = FakeSession([FakeResponse(429), FakeResponse(200, ok_body("ok"))])
        sleeps = []
        provider = make_http(session, sleeps)
        result = provider.complete(req())
        assert result.text == "ok"
        assert result.attempt == 2
        assert len(sleeps) == 1
        assert 0.0 <= sleeps[0] <= 1.0  # full jitter within the base ceiling

    def test_retry_after_is_honoured_up_to_the_largest_ceiling(self, api_key):
        session = FakeSession(
            [
                FakeResponse(429, headers={"Retry-After": "3"}),
                FakeResponse(503, headers={"Retry-After": "0"}),
                FakeResponse(429, headers={"Retry-After": "2.5"}),
                FakeResponse(503, headers={"Retry-After": "120"}),
                FakeResponse(200, ok_body("ok")),
            ]
        )
        sleeps = []
        provider = make_http(session, sleeps)
        assert provider.complete(req()).attempt == 5
        assert sleeps == [3.0, 0.0, 2.5, 16.0]

    def test_unusable_retry_after_falls_back_to_jitter(self, api_key):
        session = FakeSession(
            [
                FakeResponse(429, headers={"Retry-After": "-1"}),
                FakeResponse(503, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                FakeResponse(429, headers={"Retry-After": "nan"}),
                FakeResponse(500, headers={"Retry-After": "3"}),
                FakeResponse(200, ok_body("ok")),
            ]
        )
        sleeps = []
        provider = make_http(session, sleeps)
        provider.complete(req())
        assert len(sleeps) == 4
        for sleep, ceiling in zip(sleeps, (1.0, 2.0, 4.0, 8.0)):
            assert 0.0 <= sleep <= ceiling

    def test_backoff_ceilings_double(self, api_key):
        session = FakeSession(
            [FakeResponse(500), FakeResponse(503), FakeResponse(502), FakeResponse(200, ok_body("ok"))]
        )
        sleeps = []
        provider = make_http(session, sleeps)
        provider.complete(req())
        assert len(sleeps) == 3
        for sleep, ceiling in zip(sleeps, (1.0, 2.0, 4.0)):
            assert 0.0 <= sleep <= ceiling

    def test_network_errors_retry(self, api_key):
        session = FakeSession(
            [requests.ConnectionError("boom"), requests.Timeout("slow"), FakeResponse(200, ok_body("ok"))]
        )
        provider = make_http(session, [])
        assert provider.complete(req()).attempt == 3

    def test_client_error_fails_immediately(self, api_key):
        session = FakeSession([FakeResponse(404, text="nope")])
        provider = make_http(session)
        with pytest.raises(CompletionError, match="404"):
            provider.complete(req())
        assert len(session.calls) == 1

    def test_gives_up_after_five_attempts(self, api_key):
        session = FakeSession([FakeResponse(503)] * 5)
        sleeps = []
        provider = make_http(session, sleeps)
        with pytest.raises(CompletionError, match="5 attempts"):
            provider.complete(req())
        assert len(session.calls) == 5
        assert len(sleeps) == 4

    def test_malformed_body(self, api_key):
        for body in (
            {"choices": []},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": [{"type": "text", "text": "hi"}]}}]},
        ):
            session = FakeSession([FakeResponse(200, body)])
            provider = make_http(session)
            with pytest.raises(CompletionError, match="malformed response body"):
                provider.complete(req())


class TestScriptedProvider:
    def test_tag_matching_in_file_order(self):
        provider = ScriptedProvider(
            [
                {"tag": "init", "text": "first"},
                {"tag": "crossover", "text": "x-one"},
                {"tag": "init", "text": "second"},
            ]
        )
        assert provider.complete(req("init")).text == "first"
        assert provider.complete(req("crossover")).text == "x-one"
        assert provider.complete(req("init")).text == "second"

    def test_exhaustion_raises(self):
        provider = ScriptedProvider([{"tag": "init", "text": "only"}])
        provider.complete(req("init"))
        with pytest.raises(ScriptExhaustedError, match="init"):
            provider.complete(req("init"))

    def test_narrate_echoes_prompt(self):
        provider = ScriptedProvider([])
        result = provider.complete(req("narrate"))
        assert result.text == "Produce a rule."

    def test_from_path(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text(
            json.dumps({"tag": "init", "text": "a"}) + "\n\n" + json.dumps({"tag": "mutation", "text": "b"}) + "\n"
        )
        provider = ScriptedProvider.from_path(script)
        assert provider.complete(req("mutation")).text == "b"

    def test_from_path_unreadable(self, tmp_path):
        for path in (tmp_path / "missing.jsonl", tmp_path):
            with pytest.raises(ProviderConfigError, match="cannot read script"):
                ScriptedProvider.from_path(path)
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe")
        with pytest.raises(ProviderConfigError, match="cannot read script"):
            ScriptedProvider.from_path(binary)

    def test_offline_providers_take_one_request_at_a_time(self):
        assert ScriptedProvider([]).max_in_flight == 1
        assert SamplerProvider(1, FEATURES).max_in_flight == 1

    def test_from_path_bad_json(self, tmp_path):
        script = tmp_path / "bad.jsonl"
        script.write_text('{"tag": "init"  oops\n')
        with pytest.raises(ProviderConfigError, match="line 1"):
            ScriptedProvider.from_path(script)

    def test_invalid_records(self):
        with pytest.raises(ProviderConfigError):
            ScriptedProvider([{"tag": "init"}])
        with pytest.raises(ProviderConfigError):
            ScriptedProvider([{"tag": "telepathy", "text": "x"}])


class TestSamplerProvider:
    def test_deterministic_sequence(self):
        first = [SamplerProvider(9, FEATURES).complete(req()).text for _ in range(1)]
        a = SamplerProvider(9, FEATURES)
        b = SamplerProvider(9, FEATURES)
        seq_a = [a.complete(req()).text for _ in range(5)]
        seq_b = [b.complete(req()).text for _ in range(5)]
        assert seq_a == seq_b
        assert first[0] == seq_a[0]

    def test_seed_changes_output(self):
        a = SamplerProvider(1, FEATURES).complete(req()).text
        b = SamplerProvider(2, FEATURES).complete(req()).text
        assert a != b

    def test_responses_are_extractable_and_compilable(self):
        provider = SamplerProvider(4, FEATURES)
        for _ in range(20):
            parsed = parse_response(provider.complete(req()).text)
            compile_rule(parsed.code, FEATURES)
            assert parsed.context.strip()

    def test_narrate_echoes(self):
        provider = SamplerProvider(4, FEATURES)
        assert provider.complete(req("narrate")).text == "Produce a rule."

    def test_requires_features(self):
        with pytest.raises(ProviderConfigError):
            SamplerProvider(1, ())


class TestSampleRule:
    def test_deterministic(self):
        assert sample_rule(7, FEATURES) == sample_rule(7, FEATURES)

    def test_all_samples_valid(self):
        for seed in range(100):
            code = sample_rule(seed, FEATURES)
            rule = compile_rule(code, FEATURES)
            assert rule.node_count <= 512
            assert rule.features == set(re.findall(r"\$([A-Za-z_]\w*)", code))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sample_rule(1, ())
        with pytest.raises(ValueError):
            sample_rule(1, FEATURES, depth_budget=0)
