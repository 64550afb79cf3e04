"""Whole evolve runs through `HttpProvider`, its adaptive gate and a fake session.

The fake session answers each post as a pure function of its JSON body, the
request's seed included, so a run's artifacts must not depend on how many
requests were in flight, on the order the replies came back in, or on how
often the server asked the client to slow down.
"""

import hashlib
import json
import random
import os
import threading
import time
from email.message import Message

import pytest

from pillm.dsl import interp
from pillm.evolution import EvolutionConfig, run_evolution
from pillm.providers import API_KEY_ENV, HttpProvider, sample_rule
from pillm.reporting import RunLog, best_record
from pillm.timeseries import split
from pillm.transport import Response

from .test_providers import Loopback, ok_body

REFLECTION_PROMPT = "Respond now with your hints"


def reply(status: int, body: dict | None = None, retry_after: str | None = None) -> Response:
    headers = Message()
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    return Response(status, headers, json.dumps(body or {}).encode())


class SeedSession:
    """A chat-completions server in-process, answering by request.

    A reflection gets a hint; any other request gets a sampled rule over
    `features`, or, for about one request in `miss_every`, an answer with no
    rule block, so its slot retries. Each answer takes `delay` seconds.

    With `admit`, at most that many posts are served at once; one more gets
    a 429 with `Retry-After: 1` at once. With `waves`, the i-th group of
    `waves[i]` posts must all be in flight together: each post waits for the
    others of its wave on a barrier, which breaks after `wave_timeout`
    seconds and fails the post.
    """

    def __init__(self, features, miss_every=5, delay=0.0, admit=None, waves=(), wave_timeout=5.0):
        self.features = tuple(features)
        self.miss_every = miss_every
        self.delay = delay
        self.admit = admit
        self._barriers = [threading.Barrier(size, timeout=wave_timeout) for size in waves]
        self._lock = threading.Lock()
        self.posts = 0
        self.in_flight = 0
        self.most_in_flight = 0
        self.overloaded = 0

    def answer(self, payload: dict) -> str:
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).digest()
        rng = random.Random(digest)
        if payload["messages"][-1]["content"].startswith(REFLECTION_PROMPT):
            return f"Hint {rng.randrange(1000)}.\n\nContext {rng.randrange(1000)}."
        if self.miss_every and rng.randrange(self.miss_every) == 0:
            return "no rule block in this answer"
        code = sample_rule(rng.randrange(2**31), self.features, depth_budget=3)
        return f"```rule\n{code}\n```\n\n```context\nContext {rng.randrange(1000)}.\n```"

    def post(self, json, headers) -> Response:
        with self._lock:
            index = self.posts
            self.posts += 1
            if self.admit is not None and self.in_flight >= self.admit:
                self.overloaded += 1
                return reply(429, retry_after="1")
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
        try:
            for barrier in self._barriers:
                if index < barrier.parties:
                    barrier.wait()
                    break
                index -= barrier.parties
            time.sleep(self.delay)
            return reply(200, {"choices": [{"message": {"content": self.answer(json)}}]})
        finally:
            with self._lock:
                self.in_flight -= 1


class SeedLoopback(Loopback):
    """A server on 127.0.0.1 that answers each post as `session` would, at once."""

    def __init__(self, session: SeedSession):
        super().__init__()
        self.session = session

    def record(self, seen):
        text = self.session.answer(json.loads(seen.body))
        return 200, {}, json.dumps(ok_body(text)).encode(), 0.0


@pytest.fixture
def train_table(bias_corpus):
    return split(bias_corpus, 0.7)[0]


@pytest.fixture
def http(monkeypatch):
    """An `HttpProvider` on a given session whose `max_in_flight` is `cap`."""
    monkeypatch.setenv(API_KEY_ENV, "test-key")

    def make(session, cap=HttpProvider.max_in_flight, sleeper=lambda s: None) -> HttpProvider:
        monkeypatch.setattr(HttpProvider, "max_in_flight", cap)
        return HttpProvider(
            endpoint="http://llm.test/v1/chat/completions", model="m",
            session=session, sleeper=sleeper,
        )

    return make


def config(**overrides) -> EvolutionConfig:
    return EvolutionConfig(**{"population_size": 10, "generations": 2, "seed": 3, **overrides})


# `config()` answered by a `SeedSession` that misses one rule in five sends 11
# init and 5 reflection requests, then generation 1's crossovers and
# mutations. This budget runs out among those: it leaves 5 crossover
# requests and the first mutation's first one, whose answer needs a retry.
SPENT_BUDGET = 22


def evolve_to(tmp_path, name, provider, table, run_config):
    """Run `run_config` on `provider` into the run directory `name`; its files' bytes by name."""
    (tmp_path / name).mkdir()
    log = RunLog(tmp_path / name)
    result = run_evolution(run_config, table, provider, log=log)
    assert not result.aborted
    best = best_record(result.records)
    log.write_best(best["code"], best["context"])
    files = {path.name: path.read_bytes() for path in log.dir.iterdir()}
    return result, files


class TestHttpRuns:
    def test_requests_go_out_as_wide_as_the_dependency_graph(self, http, train_table, tmp_path):
        # Pop 10 x gen 2: the 9 init requests, then per generation its 5
        # reflections, then its 5 crossovers and 2 mutations together. An
        # engine narrower than a wave leaves that wave's barrier short.
        session = SeedSession(train_table.feature_names, miss_every=0, waves=(9, 5, 7, 5, 7))
        result, _ = evolve_to(tmp_path, "waves", http(session), train_table, config())
        assert result.generations_completed == 2
        assert result.llm_calls == session.posts == 33
        assert session.most_in_flight == 9
        assert all(record["error"] is None for record in result.records)

    def test_a_run_does_not_depend_on_its_width(self, http, train_table, tmp_path):
        for budget in (config().llm_call_budget, SPENT_BUDGET):
            runs = {}
            for cap in (1, 4, 16):
                session = SeedSession(train_table.feature_names, delay=0.02)
                provider = http(session, cap)
                run_config = config(llm_call_budget=budget)
                result, runs[cap] = evolve_to(tmp_path, f"cap{cap}-{budget}", provider, train_table, run_config)
                assert session.most_in_flight <= cap
            assert session.most_in_flight > 4
            assert any(len(r["request_tags_used"]) > 1 for r in result.records)  # some slots retried
            for cap in (4, 16):
                for name in ("run.jsonl", "requests.log", "best.rule"):
                    assert runs[cap][name] == runs[1][name], (budget, cap, name)
        # The spent budget's run ends in generation 1's second wave.
        assert result.llm_calls == session.posts == SPENT_BUDGET
        assert result.generations_completed == 0
        assert [r["operator"] for r in result.records if r["generation"] == 1] == ["crossover"] * 5 + ["mutation"]
        assert runs[16]["requests.log"].decode().split()[-7:] == ["reflection"] + ["crossover"] * 5 + ["mutation"]

    # sha256 of run.jsonl and requests.log of `config()` run over a loopback
    # socket, 16 requests in flight, against a server that answers by request.
    # They are the digests of the same run one request at a time.
    LOOPBACK_GOLDEN = (
        "4cd01c0fe9af1477e8ea2522fe3a449825247728247a92d5dfbbd620b04ac638",
        "e2ddde885ddb990e76a0c2da7019121a29905f31268565a90d735dcfd831efb1",
    )

    def test_a_loopback_run_is_pinned(self, train_table, tmp_path, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "test-key")
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        server = SeedLoopback(SeedSession(train_table.feature_names))
        provider = HttpProvider(endpoint=server.url, model="m")
        try:
            result, files = evolve_to(tmp_path, "loopback", provider, train_table, config())
        finally:
            provider.close()
            server.stop()
        assert any(len(r["request_tags_used"]) > 1 for r in result.records)  # some slots retried
        digests = tuple(hashlib.sha256(files[name]).hexdigest() for name in ("run.jsonl", "requests.log"))
        assert digests == self.LOOPBACK_GOLDEN

    # The same digests of a `config(llm_call_budget=SPENT_BUDGET)` run, taken
    # one request at a time.
    SPENT_BUDGET_GOLDEN = (
        "f01573bdca50bdd2e15ed07a33fddb0eead0533aa329109185a3d5b319324057",
        "d6980eafab9fd775d41c2212251d603d8901804477e5350d2b5309ad6468f701",
    )

    def test_a_loopback_run_that_spends_its_budget_is_pinned(self, train_table, tmp_path, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "test-key")
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        server = SeedLoopback(SeedSession(train_table.feature_names))
        provider = HttpProvider(endpoint=server.url, model="m")
        try:
            run_config = config(llm_call_budget=SPENT_BUDGET)
            result, files = evolve_to(tmp_path, "loopback", provider, train_table, run_config)
        finally:
            provider.close()
            server.stop()
        assert result.llm_calls == len(files["requests.log"].splitlines()) == SPENT_BUDGET
        digests = tuple(hashlib.sha256(files[name]).hexdigest() for name in ("run.jsonl", "requests.log"))
        assert digests == self.SPENT_BUDGET_GOLDEN

    def test_budget_verdicts_do_not_depend_on_width(self, http, train_table, tmp_path, monkeypatch):
        # With every window that is not constant summed exactly, this budget
        # rejects some rules before any work and some while they run.
        monkeypatch.setattr(interp, "_TOL", 1e-300)
        monkeypatch.setattr(interp, "EVAL_BUDGET", 30_000)
        runs = {}
        for cap in (1, 16):
            session = SeedSession(train_table.feature_names, miss_every=0)
            result, runs[cap] = evolve_to(tmp_path, f"cap{cap}", http(session, cap), train_table, config())
        rejected = [r["error"] for r in result.records if r["error"]]
        assert any(" + 0 window values" in error for error in rejected)
        assert any(" + 0 window values" not in error for error in rejected)
        assert any(r["fitness"] is not None for r in result.records)
        assert runs[16]["run.jsonl"] == runs[1]["run.jsonl"]

    def test_the_gate_narrows_to_a_server_that_admits_four(self, http, train_table, tmp_path):
        # Each admitted post takes ten times the wait its 429s ask for.
        sleeper = lambda seconds: time.sleep(seconds * 0.005)  # noqa: E731
        features = train_table.feature_names
        _, serial = evolve_to(
            tmp_path, "serial", http(SeedSession(features, miss_every=0), 1), train_table, config()
        )
        session = SeedSession(features, miss_every=0, delay=0.05, admit=4)
        provider = http(session, 16, sleeper)
        result, files = evolve_to(tmp_path, "admit4", provider, train_table, config())
        assert session.overloaded > 0  # the gate's limit changed mid-run
        assert session.most_in_flight == 4
        assert all(record["error"] is None for record in result.records)
        assert files["run.jsonl"] == serial["run.jsonl"]
        assert files["best.rule"] == serial["best.rule"]
