"""The evolutionary loop: LLM-backed genetic operators over rule candidates.

Each generation reflects on worse/better rule pairs (physical-context-aware
hints), crosses pairs over into offspring guided by those hints, and mutates
the elites under a rolling digest of recent reflections. Which LLM requests
a generation makes, and which replies each waits for, is its plan; see
`EvolutionEngine._generation_plan`. Survivor selection is mu+lambda
truncation with explicit elitism, so best-ever fitness never decreases.
Fitness is the event-level point-adjusted F1 on the training split. Both
reflection and crossover can be disabled independently for ablation runs.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from . import prompts
from .dsl import BudgetError, DslError, EvalMemo, RuleAst, TypedRule, compile_rule, evaluate, to_flags
from .metrics import MetricReport, event_f1_pa
from .providers import CompletionRequest, Provider, ProviderError
from .timeseries import FeatureMeta, TimeSeriesTable

NO_REFLECTION_TEXT = "No reflection available."
NO_REFLECTIONS_YET = "(no reflections yet)"

# Request seeds are 31-bit. The stride is odd, so stepping by it visits every
# seed once before any repeats.
_SEED_MODULUS = 2**31
_SEED_STRIDE = 0x9E3779B1


class ConfigError(ValueError):
    """The evolution configuration is structurally invalid."""


@dataclass
class RuleCandidate:
    """One rule in the population, with lineage and evaluation results.

    `fitness is None` is the INVALID sentinel: the candidate failed response
    extraction, parsing, typechecking, or blew the evaluation budget. Such
    candidates stay in the log but never act as parents. The engine gives a
    candidate its `id` when it logs it; until then `id` is empty.
    """

    id: str
    code: str
    context: str
    operator: str
    generation: int
    parent_ids: tuple[str, ...] = ()
    fitness: float | None = None
    metrics: MetricReport | None = None
    request_tags_used: tuple[str, ...] = ()
    error: str | None = None
    rule: TypedRule | None = field(default=None, repr=False, compare=False)

    @property
    def is_valid(self) -> bool:
        return self.fitness is not None

    @property
    def code_hash(self) -> str:
        return hashlib.sha256(self.code.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Reflection:
    comments: str
    context: str


@dataclass
class EvolutionConfig:
    population_size: int = 10
    generations: int = 10
    elite_count: int = 2
    pairs_per_gen: int | None = None
    threshold: float = 0.5
    seed: int = 0
    enable_pir: bool = True
    enable_pic: bool = True
    retry_budget: int = 2
    long_term_window: int = 5
    llm_call_budget: int = 200
    train_fraction: float = 0.7
    init_temperature: float = 0.7
    refine_temperature: float = 0.2
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # Annotations are strings under `from __future__ import annotations`.
            if value is None and f.type.endswith(" | None"):
                continue
            kind = f.type.removesuffix(" | None")
            if kind == "bool":
                ok = isinstance(value, bool)
            else:
                allowed = (int, float) if kind == "float" else int
                ok = isinstance(value, allowed) and not isinstance(value, bool)
            if not ok:
                raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.pairs_per_gen is None:
            self.pairs_per_gen = max(1, self.population_size // 2)
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigError("elite_count must satisfy 0 <= elite_count < population_size")
        if self.pairs_per_gen < 1:
            raise ConfigError("pairs_per_gen must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if self.long_term_window < 1:
            raise ConfigError("long_term_window must be >= 1")
        if self.llm_call_budget < 1:
            raise ConfigError("llm_call_budget must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if not math.isfinite(self.threshold):
            raise ConfigError("threshold must be finite")
        if not (self.init_temperature >= 0 and self.refine_temperature >= 0):
            raise ConfigError("init_temperature and refine_temperature must be >= 0")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "EvolutionConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(doc) - known - {"provider"}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs = {k: v for k, v in doc.items() if k in known}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    best: RuleCandidate | None
    population: list[RuleCandidate]
    records: list[dict]
    generations_completed: int
    llm_calls: int
    aborted: bool
    best_fitness_history: list[float]
    request_tags: tuple[str, ...] = ()


def default_seed_rule(metas: Sequence[FeatureMeta]) -> tuple[str, str]:
    """Trivial peak-over-threshold baseline over the first sensor feature."""
    target = next((m for m in metas if m.role == "sensor"), metas[0])
    code = f"return zscore(${target.name}, 60) > 3"
    context = (
        f"A sustained excursion of {target.name} more than three standard deviations "
        "from its trailing one-hour mean indicates operation outside the normal "
        "control envelope."
    )
    return code, context


def select_pairs(
    population: Sequence[RuleCandidate], rng: random.Random, pairs_per_gen: int
) -> list[tuple[RuleCandidate, RuleCandidate]]:
    """Draw (worse, better) pairs uniformly without replacement within a pair.

    Pairs with equal fitness are skipped and redrawn, up to 10x pairs_per_gen
    draws in total, so an all-tied population yields an empty list.
    """
    valid = [c for c in population if c.fitness is not None]
    if len(valid) < 2:
        return []
    pairs: list[tuple[RuleCandidate, RuleCandidate]] = []
    draws = 0
    while len(pairs) < pairs_per_gen and draws < 10 * pairs_per_gen:
        draws += 1
        first, second = rng.sample(valid, 2)
        if first.fitness == second.fitness:
            continue
        worse, better = (first, second) if first.fitness < second.fitness else (second, first)
        pairs.append((worse, better))
    return pairs


def long_term_reflection(history: Sequence[Reflection], window: int) -> str:
    """Digest of the most recent reflections, newest last, one bullet each."""
    if not history:
        return NO_REFLECTIONS_YET
    bullets = []
    for reflection in history[-window:]:
        merged = " ".join(f"{reflection.comments} {reflection.context}".split())
        bullets.append(f"- {merged}")
    return "\n".join(bullets)


def request_seed(config: EvolutionConfig, ordinal: int, attempt: int) -> int:
    """The seed of the `attempt`-th request (from 0) of the `ordinal`-th slot submitted.

    Each slot has room for its 1 + `retry_budget` attempts, so the pair
    numbers the run's requests without repeats; seed i lies i odd strides
    past a hash of `config.seed`. So no two requests of a run share a seed
    while slots × (1 + `retry_budget`) stays below 2**31, and runs with
    different seeds draw unrelated sequences.
    """
    base = int.from_bytes(hashlib.sha256(b"%d" % config.seed).digest()[:4], "big")
    index = ordinal * (1 + config.retry_budget) + attempt
    return (base + index * _SEED_STRIDE) % _SEED_MODULUS


def _rank_key(candidate: RuleCandidate) -> tuple:
    invalid = candidate.fitness is None
    return (invalid, -(candidate.fitness or 0.0), candidate.id)


class _CallBudgetExhausted(Exception):
    """`llm_call_budget` allows no further request."""


class _SlotSpec(NamedTuple):
    """One operator slot of a plan: the earlier slots it `reads`, by index, and its builder.

    `build` gets the committed results of `reads`, in that order, and
    returns the call the pool runs for the slot, which yields a `Reflection`
    or a `RuleCandidate`, or None.
    """

    reads: tuple[int, ...]
    build: Callable[..., Callable[[], object]]


class EvolutionEngine:
    """Coordinates providers, prompts, the DSL, and metrics for one run.

    Every LLM request belongs to one operator slot: an init, a reflection, a
    crossover or a mutation. The initial population (`_init_plan`) and each
    generation (`_generation_plan`, which gives the schedule) are plans:
    lists of slots, each naming the earlier slots it reads. `_run_plan` runs
    each plan on a thread pool `provider.max_in_flight` wide, which `run`
    owns. Each request carries a seed, `request_seed(config, ordinal,
    attempt)`, from the slot's ordinal in submission order and its attempt,
    so no two requests of a run are equal, and a provider that answers by
    request answers the same way whatever order they arrive in; a retry gets
    a new seed, so a provider that honours seeds does not repeat a bad
    reply. At width 1 every slot runs in slot order, as a provider that
    answers by call order needs. Reflections, candidate ids and records are
    committed in slot order, never in completion order.

    The `llm_call_budget` check, the request's tag and `log.request(tag)`
    happen together under one lock, so every request issued belongs to
    exactly one slot. Once a slot finds the budget spent or an init request
    fails, no further slot starts, and the run stops after the slots already
    started have finished; those that issued a request are kept. A slot that
    raises halts the run the same way, and its exception propagates once the
    other slots' candidates are logged.

    Candidates are evaluated on the engine's own thread. Each distinct rule
    (by `RuleAst`, which compares structurally) is scored once per run, and
    every evaluation shares one `EvalMemo` of windowed results on
    `train_table`, so the near-copies that crossover and mutation produce
    reuse their parents' windowed terms. `templates` maps each template id to
    its body, as `prompts.load_templates` reads them; the packaged set by
    default, read when the engine starts.

    `log`, when given, receives `request(tag)` as each LLM request is issued,
    in issue order, and `append(record)` as each candidate is evaluated, in
    slot order (see `RunLog`). An engine runs once.
    """

    def __init__(
        self,
        config: EvolutionConfig,
        train_table: TimeSeriesTable,
        provider: Provider,
        log=None,
        templates: Mapping[str, str] | None = None,
    ) -> None:
        if not train_table.has_labels:
            raise ValueError("training table must be labeled")
        self.config = config
        self.train_table = train_table
        self.provider = provider
        self.log = log
        # Every template the engine renders, read once, now.
        self._templates = dict(templates) if templates is not None else prompts.load_templates()
        self._rng = random.Random(config.seed)
        self._next_index = 0
        self._next_ordinal = 0
        self._records: list[dict] = []
        self._request_tags: list[str] = []
        self._lock = threading.Lock()
        # Set when the budget is spent, an init request fails or a slot raises:
        # no further slot starts.
        self._halt = threading.Event()
        self._best_ever: RuleCandidate | None = None
        self._aborted = False
        self._reflections: list[Reflection] = []
        self._feature_names = tuple(train_table.feature_names)
        # Evaluation runs on the engine's thread only, so neither takes a lock.
        self._memo = EvalMemo(train_table)
        self._reports: dict[RuleAst, MetricReport] = {}
        self._task_description = prompts.default_task_description()
        self._feature_list = prompts.feature_list_text(train_table.features)
        self._system_prompt = prompts.render(
            "generator_system",
            {"task_description": self._task_description},
            templates=self._templates,
        )

    # ---- provider plumbing -------------------------------------------------

    @property
    def llm_calls(self) -> int:
        return len(self._request_tags)

    def _requests(
        self, tag: str, user: str, system: str | None = None
    ) -> tuple[CompletionRequest, ...]:
        """The next slot's requests, one per attempt, each with its own seed."""
        config = self.config
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        temperature = config.init_temperature if tag == "init" else config.refine_temperature
        return tuple(
            CompletionRequest(
                system_prompt=system or self._system_prompt,
                user_prompt=user,
                tag=tag,
                temperature=temperature,
                max_tokens=config.max_tokens,
                seed=request_seed(config, ordinal, attempt),
            )
            for attempt in range(1 + config.retry_budget)
        )

    def _complete(self, request: CompletionRequest, issued: list[str]) -> str:
        """Send `request` unless the call budget is spent; its tag goes to `issued`."""
        with self._lock:
            if self.llm_calls >= self.config.llm_call_budget:
                self._halt.set()
                raise _CallBudgetExhausted()
            self._request_tags.append(request.tag)
            issued.append(request.tag)
            if self.log is not None:
                self.log.request(request.tag)
        return self.provider.complete(request).text

    def _slot(
        self,
        requests: tuple[CompletionRequest, ...],
        generation: int,
        parents: tuple[str, ...] = (),
    ) -> RuleCandidate | None:
        """Ask for a rule, retrying extraction/parse/typecheck failures with the next request.

        Yields the slot's one candidate, whose `request_tags_used` holds one
        tag per request the slot issued, or None when the call budget was
        spent before the slot's first request. A provider failure makes the
        candidate invalid with the provider's message, and during init also
        aborts the run.
        """
        tag = requests[0].tag
        issued: list[str] = []
        parsed = rule = error = None
        try:
            for request in requests:
                text = self._complete(request, issued)
                try:
                    parsed = prompts.parse_response(text)
                    rule = compile_rule(parsed.code, self._feature_names)
                except (prompts.ExtractionError, DslError) as exc:
                    error = str(exc)
                else:
                    error = None
                    break
        except ProviderError as exc:
            error = str(exc)
            if tag == "init":
                # No population to fall back on yet: the run ends after generation 0.
                self._aborted = True
                self._halt.set()
        except _CallBudgetExhausted:
            if not issued:
                return None
        return RuleCandidate(
            id="",
            code=parsed.code if parsed else "",
            context=parsed.context if parsed else "",
            operator=tag,
            generation=generation,
            parent_ids=parents,
            request_tags_used=tuple(issued),
            error=error,
            rule=rule,
        )

    def _start(self, call: Callable[[], object]):
        """Run `call`; None if the run has halted before it starts."""
        if self._halt.is_set():
            return None
        try:
            return call()
        except BaseException:
            # No further slot starts.
            self._halt.set()
            raise

    def _pool(self) -> ThreadPoolExecutor:
        """A pool as wide as the provider allows; it starts tasks in submission order."""
        return ThreadPoolExecutor(self.provider.max_in_flight, thread_name_prefix="pillm-operator")

    def _new_id(self) -> str:
        candidate_id = f"c{self._next_index:04d}"
        self._next_index += 1
        return candidate_id

    # ---- the scheduler -----------------------------------------------------

    def _run_plan(
        self,
        pool: ThreadPoolExecutor,
        plan: Sequence[_SlotSpec],
        head: Sequence[RuleCandidate] = (),
    ) -> list[RuleCandidate]:
        """Run `plan`'s slots on `pool`; `head` and the slots' candidates, evaluated and logged.

        Slots are submitted in slot order, each once every slot up to the
        last one it reads is committed. Builders run here, on the engine's
        thread, so a slot's requests get their seeds in slot order. Results
        are committed in slot order, and a committed reflection joins the
        digest. A slot that raised has halted the run; its exception is
        re-raised once `head` and the other slots' candidates are logged.
        """
        tasks: list[Future] = []
        results: list = []

        def commit(count: int) -> None:
            for task in tasks[len(results) : count]:
                result = task.result() if task.exception() is None else None
                if isinstance(result, Reflection):
                    self._reflections.append(result)
                results.append(result)

        for spec in plan:
            commit(max(spec.reads, default=-1) + 1)
            call = spec.build(*(results[i] for i in spec.reads))
            tasks.append(pool.submit(self._start, call))
        commit(len(tasks))
        population = [*head, *(r for r in results if isinstance(r, RuleCandidate))]
        self.evaluate_population(population)
        for task in tasks:
            task.result()
        return population

    def evaluate_population(self, population: Sequence[RuleCandidate]) -> None:
        """Fill fitness for pending candidates, then give each its id and log it once."""
        for candidate in population:
            if candidate.fitness is None and candidate.error is None:
                try:
                    report = self._score(candidate.rule)
                    candidate.fitness = report.f1
                    candidate.metrics = report
                except BudgetError as exc:
                    candidate.error = str(exc)
                    candidate.rule = None
            self._log_candidate(candidate)

    def _score(self, rule: TypedRule) -> MetricReport:
        """`rule`'s report on the training split, computed once per distinct rule.

        A rule over the evaluation budget raises `BudgetError` each time and
        is never cached.
        """
        report = self._reports.get(rule.ast)
        if report is None:
            scores = evaluate(rule, self.train_table, self._memo)
            flags = to_flags(scores, self.config.threshold)
            report = self._reports[rule.ast] = event_f1_pa(flags, self.train_table.labels)
        return report

    def _log_candidate(self, candidate: RuleCandidate) -> None:
        candidate.id = self._new_id()
        # Best-ever considers every logged candidate, not just survivors.
        if candidate.fitness is not None and (
            self._best_ever is None or _rank_key(candidate) < _rank_key(self._best_ever)
        ):
            self._best_ever = candidate
        record = {
            "generation": candidate.generation,
            "candidate_id": candidate.id,
            "parent_ids": list(candidate.parent_ids),
            "operator": candidate.operator,
            "code": candidate.code,
            "context": candidate.context,
            "code_hash": candidate.code_hash,
            "fitness": candidate.fitness,
            "precision": candidate.metrics.precision if candidate.metrics else None,
            "recall": candidate.metrics.recall if candidate.metrics else None,
            "request_tags_used": list(candidate.request_tags_used),
            "error": candidate.error,
        }
        self._records.append(record)
        if self.log is not None:
            self.log.append(record)

    # ---- plans -------------------------------------------------------------

    def _init_plan(self, seed: RuleCandidate) -> list[_SlotSpec]:
        """The initial population's N-1 init slots; each reads no other slot."""
        user_prompt = prompts.render(
            "init",
            {
                "task_description": self._task_description,
                "input_feature_list": self._feature_list,
                "seed_function": f"```rule\n{seed.code}\n```",
                "context_template": f"```context\n{seed.context}\n```",
            },
            templates=self._templates,
        )
        build = partial(self._rule_call, "init", user_prompt, 0)
        return [_SlotSpec((), build)] * (self.config.population_size - 1)

    def _generation_plan(
        self, population: Sequence[RuleCandidate], generation: int
    ) -> list[_SlotSpec]:
        """One generation's slots, in slot order: the schedule of its LLM requests.

        `select_pairs` draws the (worse, better) pairs. First comes one
        reflection per pair; they read no slot, so all go out at once. Then
        crossover i reads reflection i, so it goes out as soon as reflections
        1..i are back. Then one mutation per elite, the `elite_count` best
        valid candidates; its prompt reads the digest, which every reflection
        joins, so the mutations go out once all are back. Without reflections
        (`enable_pir` off) a crossover reads the placeholder and a mutation
        the digest of earlier generations, so every slot goes out at once.
        Without crossovers (`enable_pic` off) the same number of calls goes
        to extra mutations of the best valid candidate, one per pair, before
        the elites' mutations.
        """
        config = self.config
        pairs = select_pairs(population, self._rng, config.pairs_per_gen)
        ranked = sorted((c for c in population if c.fitness is not None), key=_rank_key)
        plan = []
        if config.enable_pir:
            plan += [_SlotSpec((), partial(self._reflection_call, *pair)) for pair in pairs]
        reflections = tuple(range(len(plan)))
        elites = ranked[: config.elite_count]
        if config.enable_pic:
            # Crossover i reads reflection i, when there are reflections.
            plan += [
                _SlotSpec(reflections[i : i + 1], partial(self._crossover_call, *pair, generation))
                for i, pair in enumerate(pairs)
            ]
        else:
            elites = ranked[:1] * len(pairs) + elites
        plan += [
            _SlotSpec(reflections, partial(self._mutation_call, elite, generation))
            for elite in elites
        ]
        return plan

    def _rule_call(
        self, tag: str, user_prompt: str, generation: int, parents: tuple[str, ...] = ()
    ) -> Callable[[], RuleCandidate | None]:
        """The call of the next slot that asks for a rule."""
        return partial(self._slot, self._requests(tag, user_prompt), generation, parents)

    def _pair_bindings(self, worse: RuleCandidate, better: RuleCandidate) -> dict[str, str]:
        return {
            "task_description": self._task_description,
            "input_feature_list": self._feature_list,
            "worse_rules": f"```rule\n{worse.code}\n```",
            "worse_rules_physical_context": worse.context,
            "better_rules": f"```rule\n{better.code}\n```",
            "better_rules_physical_context": better.context,
        }

    def _reflection_call(
        self, worse: RuleCandidate, better: RuleCandidate
    ) -> Callable[[], Reflection | None]:
        system = prompts.render(
            "reflection_system", self._pair_bindings(worse, better), templates=self._templates
        )
        user = "Respond now with your hints and the improved physical context."
        return partial(self._reflect, self._requests("reflection", user, system))

    def _reflect(self, requests: tuple[CompletionRequest, ...]) -> Reflection | None:
        """Ask for hints about why the better rule wins; None drops the pair."""
        try:
            text = self._complete(requests[0], [])
        except (ProviderError, _CallBudgetExhausted):
            return None
        parts = [p.strip() for p in re.split(r"\n\s*\n", text.strip()) if p.strip()]
        if not parts:
            comments, context = "(none provided)", "(none provided)"
        elif len(parts) == 1:
            comments, context = parts[0], "(none provided)"
        else:
            comments, context = "\n\n".join(parts[:-1]), parts[-1]
        return Reflection(comments=comments, context=context)

    def _crossover_call(
        self,
        worse: RuleCandidate,
        better: RuleCandidate,
        generation: int,
        reflection: Reflection | None = None,
    ) -> Callable[[], RuleCandidate | None]:
        bindings = self._pair_bindings(worse, better)
        bindings["reflection_comments"] = reflection.comments if reflection else NO_REFLECTION_TEXT
        bindings["reflection_context"] = reflection.context if reflection else ""
        user_prompt = prompts.render("crossover", bindings, templates=self._templates)
        return self._rule_call("crossover", user_prompt, generation, (worse.id, better.id))

    def _mutation_call(
        self, elite: RuleCandidate, generation: int, *reflections: Reflection | None
    ) -> Callable[[], RuleCandidate | None]:
        """The prompt reads the digest, which the committed `reflections` have joined."""
        digest = long_term_reflection(self._reflections, self.config.long_term_window)
        latest_context = self._reflections[-1].context if self._reflections else NO_REFLECTIONS_YET
        bindings = {
            "task_description": self._task_description,
            "input_feature_list": self._feature_list,
            "reflection_comments": digest,
            "reflection_context": latest_context,
            "elitist_code": f"```rule\n{elite.code}\n```",
        }
        user_prompt = prompts.render("elitist_mutation", bindings, templates=self._templates)
        return self._rule_call("mutation", user_prompt, generation, (elite.id,))

    # ---- the loop ----------------------------------------------------------

    def run(self, seed_rule: tuple[str, str] | None = None) -> RunResult:
        # Leaving the block waits for the pool's threads; once the run halts,
        # a task still queued returns without starting a slot.
        with self._pool() as pool:
            try:
                return self._run(pool, seed_rule)
            except BaseException:
                self._halt.set()
                raise

    def _run(self, pool: ThreadPoolExecutor, seed_rule: tuple[str, str] | None) -> RunResult:
        config = self.config
        history: list[float] = []
        generations_completed = 0
        code, context = seed_rule or default_seed_rule(self.train_table.features)
        seed = RuleCandidate(
            id="",
            code=code,
            context=context,
            operator="seed",
            generation=0,
            rule=compile_rule(code, self._feature_names),
        )
        population = self._run_plan(pool, self._init_plan(seed), head=(seed,))
        if self._best_ever is not None:
            history.append(self._best_ever.fitness)

        for generation in range(1, config.generations + 1):
            if self._halt.is_set():
                break
            fresh = self._run_plan(pool, self._generation_plan(population, generation))
            if self._halt.is_set():
                break
            elites = sorted(population, key=_rank_key)[: config.elite_count]
            population = sorted(elites + fresh, key=_rank_key)[: config.population_size]
            generations_completed = generation
            history.append(self._best_ever.fitness if self._best_ever else 0.0)

        return RunResult(
            best=self._best_ever,
            population=population,
            records=self._records,
            generations_completed=generations_completed,
            llm_calls=self.llm_calls,
            aborted=self._aborted,
            best_fitness_history=history,
            request_tags=tuple(self._request_tags),
        )


def run_evolution(
    config: EvolutionConfig,
    train_table: TimeSeriesTable,
    provider: Provider,
    log=None,
    seed_rule: tuple[str, str] | None = None,
    templates: Mapping[str, str] | None = None,
) -> RunResult:
    """Run the full loop; see EvolutionEngine for the phase structure."""
    engine = EvolutionEngine(config, train_table, provider, log=log, templates=templates)
    return engine.run(seed_rule)
