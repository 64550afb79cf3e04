"""The evolutionary loop: LLM-backed genetic operators over rule candidates.

Each generation reflects on worse/better rule pairs (physical-context-aware
hints), crosses pairs over into offspring guided by those hints, and mutates
the elites under a rolling digest of recent reflections. Which LLM requests
a generation makes, and which replies each waits for, is its plan; see
`EvolutionEngine._generation_plan`. The survivors are the `elite_count`
best of the old population and the generation's offspring, ranked and cut
to `population_size`, so the population's best fitness never decreases. At
the defaults that is 2 elites and 7 offspring: a population of 9, not 10,
enters each later generation.
Fitness is the event-level point-adjusted F1 on the training split. Both
reflection and crossover can be disabled independently for ablation runs.
"""

from __future__ import annotations

import hashlib
import random
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import prompts
from .config import ConfigError, EvolutionConfig  # noqa: F401 (re-exported)
from .dsl import BudgetError, DslError, EvalMemo, RuleAst, TypedRule, compile_rule, evaluate, to_flags
from .metrics import MetricReport, event_f1_pa
from .providers import CompletionRequest, Provider, ProviderError
from .reporting import RECORD_FIELDS, rank_key
from .timeseries import FeatureMeta, TimeSeriesTable

NO_REFLECTION_TEXT = "No reflection available."
NO_REFLECTIONS_YET = "(no reflections yet)"

# Request seeds are 31-bit. The stride is odd, so stepping by it visits every
# seed once before any repeats.
_SEED_MODULUS = 2**31
_SEED_STRIDE = 0x9E3779B1


@dataclass
class RuleCandidate:
    """One rule in the population, with lineage and its fitness.

    `fitness is None` is the INVALID sentinel: the candidate failed response
    extraction, parsing, typechecking, or blew the evaluation budget. Such
    candidates stay in the log but never act as parents. The engine gives a
    candidate its `id` when it logs it, from the number of records logged
    before it; until then `id` is empty.
    """

    id: str
    code: str
    context: str
    operator: str
    generation: int
    parent_ids: tuple[str, ...] = ()
    fitness: float | None = None
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
class RunResult:
    records: list[dict]
    generations_completed: int
    llm_calls: int
    aborted: bool


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


class _CallBudgetExhausted(Exception):
    """`llm_call_budget` allows no further request."""


class _SlotSpec(NamedTuple):
    """One operator slot of a plan, as data.

    `tag` is the operator: "init", "reflection", "crossover" or "mutation".
    `reads` are the earlier slots, by index, whose committed results
    `prompt` gets, in that order; it returns the slot's user prompt and its
    system prompt, or None for the shared one. `parents` are the ids of the
    candidates the slot's rule is bred from. `_run_plan` builds the slot's
    requests and its call from these.
    """

    tag: str
    reads: tuple[int, ...]
    prompt: Callable[..., tuple[str, str | None]]
    parents: tuple[str, ...] = ()


class EvolutionEngine:
    """Coordinates providers, prompts, the DSL, and metrics for one run.

    Every LLM request belongs to one operator slot: an init, a reflection, a
    crossover or a mutation. The initial population (`_init_plan`) and each
    generation (`_generation_plan`, which gives the schedule) are plans:
    lists of slots, each a `_SlotSpec` naming its operator, the earlier
    slots it reads, its prompt and its parents. `_run_plan` builds each
    slot's requests, as many as `_attempts` allows its operator, and runs
    each plan on a thread pool `provider.max_in_flight` wide, which `run`
    owns. Each request carries a seed, `request_seed(config, ordinal,
    attempt)`, from the slot's ordinal in submission order and its attempt,
    so no two requests of a run are equal, and a provider that answers by
    request answers the same way whatever order they arrive in; a retry gets
    a new seed, so a provider that honours seeds does not repeat a bad
    reply. At width 1 every slot runs in slot order, as a provider that
    answers by call order needs. Reflections and records are committed in
    slot order, never in completion order, and a candidate's id is the
    number of records logged before it (`c0000`, `c0001`, ...).

    The `llm_call_budget` check and the count of a request happen together
    under one lock, and the request's tag goes to the list `_run_plan` keeps
    for its slot, so every request issued belongs to exactly one slot. Once
    a slot finds the budget spent or an init request fails, no further slot
    starts, and the run stops after the slots already started have finished;
    those that issued a request are kept. A slot that raises halts the run
    the same way, and its exception propagates once the other slots' tags
    and candidates are logged. Before a slot starts, the calls made so far,
    those the running slots can still send and the slot's own most are
    added up; if they could pass the budget, the slot waits until the
    running slots are done. So far from the budget no slot waits, and near
    it slots run one at a time in slot order, each after as many calls as
    at width 1: a run that spends its budget logs what it logs at width 1.

    Candidates are evaluated on the engine's own thread. Each distinct rule
    (by `RuleAst`, which compares structurally) is scored once per run, and
    every evaluation shares one `EvalMemo` of windowed results on
    `train_table`, so the near-copies that crossover and mutation produce
    reuse their parents' windowed terms. `templates` maps each template id to
    its body, as `prompts.load_templates` reads them; the packaged set by
    default, read when the engine starts.

    `log`, when given, receives `request(tag)` for each LLM request a slot
    issued, when the slot is committed, and `append(record)` as each
    candidate is evaluated; both in slot order, so at any width a run logs
    what it logs at width 1 (see `RunLog`). It receives `sync()` once at the
    end of each plan, the initial population or one generation, however the
    plan ends. An engine runs once.
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
        self._next_ordinal = 0
        self._records: list[dict] = []
        self.llm_calls = 0
        self._lock = threading.Lock()
        # Set when the budget is spent, an init request fails or a slot raises:
        # no further slot starts.
        self._halt = threading.Event()
        self._aborted = False
        self._reflections: list[Reflection] = []
        self._feature_names = tuple(train_table.feature_names)
        # Evaluation runs on the engine's thread only, so neither takes a lock.
        self._memo = EvalMemo(train_table)
        self._reports: dict[RuleAst, MetricReport | BudgetError] = {}
        # The slots every prompt shares; each template's bindings extend these.
        self._shared_bindings = {
            "task_description": prompts.default_task_description(),
            "input_feature_list": prompts.feature_list_text(train_table.features),
        }
        self._system_prompt = prompts.render("generator_system", self._shared_bindings, self._templates)

    # ---- provider plumbing -------------------------------------------------

    def _attempts(self, tag: str) -> int:
        """The most requests a slot of operator `tag` sends: one reflection, or a rule and its retries."""
        return 1 if tag == "reflection" else 1 + self.config.retry_budget

    def _requests(self, tag: str, user: str, system: str | None = None) -> Iterator[CompletionRequest]:
        """The next slot's requests, one per attempt, each with its own seed.

        The slot's ordinal is taken now; each request is built when the slot
        asks for it, so a slot builds only the requests it sends.
        """
        config = self.config
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        temperature = config.init_temperature if tag == "init" else config.refine_temperature
        return (
            CompletionRequest(
                system_prompt=system or self._system_prompt,
                user_prompt=user,
                tag=tag,
                temperature=temperature,
                max_tokens=config.max_tokens,
                seed=request_seed(config, ordinal, attempt),
            )
            for attempt in range(self._attempts(tag))
        )

    def _complete(self, request: CompletionRequest, issued: list[str]) -> str:
        """Send `request` unless the call budget is spent; its tag goes to its slot's `issued`."""
        with self._lock:
            if self.llm_calls >= self.config.llm_call_budget:
                self._halt.set()
                raise _CallBudgetExhausted()
            self.llm_calls += 1
            issued.append(request.tag)
        return self.provider.complete(request).text

    def _slot(
        self,
        requests: Iterator[CompletionRequest],
        generation: int,
        parents: tuple[str, ...],
        issued: list[str],
    ) -> RuleCandidate | None:
        """Ask for a rule, retrying extraction/parse/typecheck failures with the next request.

        Yields the slot's one candidate, whose `request_tags_used` holds the
        slot's `issued` tags, one per request, or None when the call budget
        was spent before the slot's first request. A provider failure makes
        the candidate invalid with the provider's message, and during init
        also aborts the run. The candidate's code, context and error are those
        of the slot's last request: a reply with no rule block, or a request the
        provider failed, leaves no code or context, and a slot the call budget
        stopped keeps its last reply's.
        """
        parsed = rule = error = None
        try:
            for request in requests:
                text = self._complete(request, issued)
                parsed = None
                try:
                    parsed = prompts.parse_response(text)
                    rule = compile_rule(parsed.code, self._feature_names)
                except (prompts.ExtractionError, DslError) as exc:
                    error = str(exc)
                else:
                    error = None
                    break
        except ProviderError as exc:
            parsed, error = None, str(exc)
            if request.tag == "init":
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
            operator=request.tag,
            generation=generation,
            parent_ids=parents,
            request_tags_used=tuple(issued),
            error=error,
            rule=rule,
        )

    def _start(self, call: Callable[[list[str]], object], issued: list[str]):
        """Run `call(issued)`; None if the run has halted before it starts."""
        if self._halt.is_set():
            return None
        try:
            return call(issued)
        except BaseException:
            # No further slot starts.
            self._halt.set()
            raise

    def _pool(self) -> ThreadPoolExecutor:
        """A pool as wide as the provider allows; it starts tasks in submission order."""
        return ThreadPoolExecutor(self.provider.max_in_flight, thread_name_prefix="pillm-operator")

    # ---- the scheduler -----------------------------------------------------

    def _run_plan(
        self,
        pool: ThreadPoolExecutor,
        plan: Sequence[_SlotSpec],
        generation: int,
        head: Sequence[RuleCandidate] = (),
    ) -> list[RuleCandidate]:
        """Run `plan`'s slots on `pool`; `head` and the slots' candidates, evaluated and logged.

        Slots are submitted in slot order, each once every slot up to the
        last one it reads is committed. Prompts and requests are built here,
        on the engine's thread, so a slot's requests get their seeds in slot
        order. A reflection slot's call is `_reflect`; any other asks `_slot`
        for a rule of `generation`. Each slot's request tags go to its own
        list. Results are committed in slot order: the slot's tags go to
        `log.request`, whether it returned, raised or found the budget
        spent, and a committed reflection joins the digest. A slot whose
        `_attempts`, with those the running slots can still send, could pass
        the call budget is submitted once they are done. A slot that raised
        has halted the run; its exception is re-raised once `head` and the
        other slots' candidates are logged. However the plan ends, what it
        logged is synced before it returns or raises, so before the next
        plan's first request.
        """
        attempts = [self._attempts(spec.tag) for spec in plan]
        tasks: list[Future] = []
        issued: list[list[str]] = []
        results: list = []

        def commit(count: int) -> None:
            for task, tags in zip(tasks[len(results) : count], issued[len(results) : count]):
                result = task.result() if task.exception() is None else None
                if self.log is not None:
                    for tag in tags:
                        self.log.request(tag)
                if isinstance(result, Reflection):
                    self._reflections.append(result)
                results.append(result)

        try:
            for slot, spec in enumerate(plan):
                commit(max(spec.reads, default=-1) + 1)
                requests = self._requests(spec.tag, *spec.prompt(*(results[i] for i in spec.reads)))
                if spec.tag == "reflection":
                    call = partial(self._reflect, requests)
                else:
                    call = partial(self._slot, requests, generation, spec.parents)
                # The most calls the run can have made once this slot and those
                # still running are done; past the budget, the slot waits for them.
                with self._lock:
                    running = [k for k, task in enumerate(tasks) if not task.done()]
                    most = self.llm_calls + attempts[slot] + sum(attempts[k] - len(issued[k]) for k in running)
                if most > self.config.llm_call_budget:
                    wait([tasks[k] for k in running])
                issued.append([])
                tasks.append(pool.submit(self._start, call, issued[-1]))
            commit(len(tasks))
            population = [*head, *(r for r in results if isinstance(r, RuleCandidate))]
            self.evaluate_population(population)
            for task in tasks:
                task.result()
            return population
        finally:
            if self.log is not None:
                self.log.sync()

    def evaluate_population(self, population: Sequence[RuleCandidate]) -> None:
        """Score each candidate that has no error yet, then give it its id and log it once."""
        for candidate in population:
            report = None
            if candidate.error is None:
                report = self._score(candidate.rule)
                if isinstance(report, BudgetError):
                    candidate.error = str(report)
                    report = None
                else:
                    candidate.fitness = report.f1
            self._log_candidate(candidate, report)

    def _score(self, rule: TypedRule) -> MetricReport | BudgetError:
        """`rule`'s report on the training split, or the `BudgetError` its evaluation raised.

        Each distinct rule is evaluated once, so a rule over the budget is
        not run again when it recurs.
        """
        report = self._reports.get(rule.ast)
        if report is None:
            try:
                scores = evaluate(rule, self.train_table, self._memo)
            except BudgetError as exc:
                report = exc.with_traceback(None)  # frees the evaluation's frames and arrays
            else:
                report = event_f1_pa(to_flags(scores, self.config.threshold), self.train_table.labels)
            self._reports[rule.ast] = report
        return report

    def _log_candidate(self, candidate: RuleCandidate, metrics: MetricReport | None) -> None:
        candidate.id = f"c{len(self._records):04d}"
        values = (
            candidate.generation,
            candidate.id,
            list(candidate.parent_ids),
            candidate.operator,
            candidate.code,
            candidate.context,
            candidate.code_hash,
            candidate.fitness,
            metrics.precision if metrics else None,
            metrics.recall if metrics else None,
            list(candidate.request_tags_used),
            candidate.error,
        )
        record = dict(zip(RECORD_FIELDS, values, strict=True))
        self._records.append(record)
        if self.log is not None:
            self.log.append(record)

    # ---- plans -------------------------------------------------------------

    def _init_plan(self, seed: RuleCandidate) -> list[_SlotSpec]:
        """The initial population's N-1 init slots; each reads no other slot."""
        user_prompt = prompts.render(
            "init",
            {
                **self._shared_bindings,
                "seed_function": prompts.fence("rule", seed.code),
                "context_template": prompts.fence("context", seed.context),
            },
            self._templates,
        )
        return [_SlotSpec("init", (), lambda: (user_prompt, None))] * (self.config.population_size - 1)

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
        ranked = sorted((c for c in population if c.is_valid), key=lambda c: rank_key(c.fitness, c.id))
        plan = []
        if config.enable_pir:
            plan += [_SlotSpec("reflection", (), partial(self._reflection_prompt, *pair)) for pair in pairs]
        reflections = tuple(range(len(plan)))
        elites = ranked[: config.elite_count]
        if config.enable_pic:
            # Crossover i reads reflection i, when there are reflections.
            for i, (worse, better) in enumerate(pairs):
                prompt = partial(self._crossover_prompt, worse, better)
                plan.append(_SlotSpec("crossover", reflections[i : i + 1], prompt, (worse.id, better.id)))
        else:
            elites = ranked[:1] * len(pairs) + elites
        for elite in elites:
            plan.append(_SlotSpec("mutation", reflections, partial(self._mutation_prompt, elite), (elite.id,)))
        return plan

    def _pair_bindings(self, worse: RuleCandidate, better: RuleCandidate) -> dict[str, str]:
        return {
            **self._shared_bindings,
            "worse_rules": prompts.fence("rule", worse.code),
            "worse_rules_physical_context": worse.context,
            "better_rules": prompts.fence("rule", better.code),
            "better_rules_physical_context": better.context,
        }

    def _reflection_prompt(self, worse: RuleCandidate, better: RuleCandidate) -> tuple[str, str]:
        bindings = self._pair_bindings(worse, better)
        system = prompts.render("reflection_system", bindings, self._templates)
        return "Respond now with your hints and the improved physical context.", system

    def _reflect(self, requests: Iterator[CompletionRequest], issued: list[str]) -> Reflection | None:
        """Ask for hints about why the better rule wins; None drops the pair."""
        try:
            text = self._complete(next(requests), issued)
        except (ProviderError, _CallBudgetExhausted):
            return None
        return Reflection(*prompts.parse_reflection(text))

    def _crossover_prompt(
        self, worse: RuleCandidate, better: RuleCandidate, reflection: Reflection | None = None
    ) -> tuple[str, None]:
        bindings = self._pair_bindings(worse, better)
        bindings["reflection_comments"] = reflection.comments if reflection else NO_REFLECTION_TEXT
        bindings["reflection_context"] = reflection.context if reflection else ""
        return prompts.render("crossover", bindings, self._templates), None

    def _mutation_prompt(self, elite: RuleCandidate, *reflections: Reflection | None) -> tuple[str, None]:
        """The prompt reads the digest, which the committed `reflections` have joined."""
        digest = long_term_reflection(self._reflections, self.config.long_term_window)
        latest_context = self._reflections[-1].context if self._reflections else NO_REFLECTIONS_YET
        bindings = {
            **self._shared_bindings,
            "reflection_comments": digest,
            "reflection_context": latest_context,
            "elitist_code": prompts.fence("rule", elite.code),
        }
        return prompts.render("elitist_mutation", bindings, self._templates), None

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
        population = self._run_plan(pool, self._init_plan(seed), 0, head=(seed,))

        for generation in range(1, config.generations + 1):
            if self._halt.is_set():
                break
            fresh = self._run_plan(pool, self._generation_plan(population, generation), generation)
            if self._halt.is_set():
                break
            elites = sorted(population, key=lambda c: rank_key(c.fitness, c.id))[: config.elite_count]
            ranked = sorted(elites + fresh, key=lambda c: rank_key(c.fitness, c.id))
            population = ranked[: config.population_size]
            generations_completed = generation

        return RunResult(
            records=self._records,
            generations_completed=generations_completed,
            llm_calls=self.llm_calls,
            aborted=self._aborted,
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
