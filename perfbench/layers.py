"""Per-layer metrics: a traced in-process `pillm evolve`, plus per-builtin kernel timings.

The traced run wraps each layer's public functions under the names their
callers look them up by (see `traced_layers`) and derives the per-layer
metrics from the spans and the run directory. The kernel timings evaluate a
one-call rule and a bare comparison on a 28,800-row corpus and report the
difference per row, after checking the kernel's output against the matching
brute-force oracle in `tests/reference.py`.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

import pillm.cli
import pillm.evolution
import pillm.prompts
import pillm.providers
import pillm.reporting
from pillm.dsl import VarRef, compile_rule, evaluate, format_rule, parse
from pillm.simulate import SimConfig, generate_corpus

import checks
from spans import Tracer

# C04's tolerance for the windowed builtins (tests/test_acceptance.py).
KERNEL_RTOL = KERNEL_ATOL = 1e-9
KERNEL_ROWS = 28_800
# Rows compared against the oracle: every partial window up to w = 1024, and then some.
ORACLE_PREFIX = 1_200
# Each builtin is timed at least this many times, and for at least this long.
KERNEL_REPS = 5
KERNEL_CASE_S = 0.2


def _rows_returned(span, args, table) -> None:
    span.attrs["rows"] = table.num_rows


def _rows_given(span, args, data) -> None:
    span.attrs["rows"] = args[0].num_rows


def _attempt(span, args, result) -> None:
    span.attrs["attempt"] = result.attempt


def traced_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    cli, evo = pillm.cli, pillm.evolution
    tracer.wrap(cli, "load_csv", "timeseries.load_csv", _rows_returned)
    tracer.wrap(cli, "save_csv", "timeseries.save_csv", _rows_given)
    tracer.wrap(cli, "split", "timeseries.split")
    tracer.wrap(cli, "run_evolution", "evolution.run")
    tracer.wrap(cli, "generate_report", "reporting.generate_report")
    tracer.wrap(evo, "select_pairs", "evolution.select_pairs")
    tracer.wrap(evo.EvolutionEngine, "evaluate_population", "evolution.evaluate_population")
    tracer.wrap(evo, "compile_rule", "dsl.compile_rule")
    tracer.wrap(evo, "evaluate", "dsl.evaluate")
    tracer.wrap(evo, "to_flags", "dsl.to_flags")
    tracer.wrap(evo, "event_f1_pa", "metrics.event_f1_pa")
    tracer.wrap(pillm.prompts, "render", "prompts.render")
    tracer.wrap(pillm.prompts, "parse_response", "prompts.parse_response")
    tracer.wrap(pillm.reporting.RunLog, "append", "reporting.run_log.append")
    for provider in (pillm.providers.SamplerProvider, pillm.providers.ScriptedProvider, pillm.providers.HttpProvider):
        tracer.wrap(provider, "complete", "providers.complete", _attempt)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[-1]


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _max_overlap(intervals) -> int:
    events = sorted([(lo, 1) for lo, _ in intervals] + [(hi, -1) for _, hi in intervals])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def _children(expr):
    """(field name, child or tuple of children) for each field of an AST node that holds nodes."""
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        if dataclasses.is_dataclass(value) or (isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0])):
            yield f.name, value


def _inline(expr, env):
    """Replace bound names by their expressions, so equal subtrees compare equal."""
    if isinstance(expr, VarRef):
        return env[expr.name]
    changes = {
        name: tuple(_inline(v, env) for v in value) if isinstance(value, tuple) else _inline(value, env)
        for name, value in _children(expr)
    }
    return dataclasses.replace(expr, **changes) if changes else expr


def _interior(expr):
    """Yield every node that has children."""
    kids = [kid for _, value in _children(expr) for kid in (value if isinstance(value, tuple) else (value,))]
    if kids:
        yield expr
        for kid in kids:
            yield from _interior(kid)


def sharing(records: list[dict]) -> tuple[float, float]:
    """(repeat_node_frac, duplicate_rule_frac) over the candidates that were evaluated.

    A node repeats when a structurally equal node was evaluated earlier in the
    same generation; a rule is a duplicate when its canonical form was
    evaluated earlier in the run.
    """
    seen_nodes: dict[int, set] = {}
    seen_rules: set[str] = set()
    nodes = repeats = rules = duplicates = 0
    for record in records:
        if record["fitness"] is None:
            continue
        ast = parse(record["code"])
        env = {}
        for name, expr in ast.bindings:
            env[name] = _inline(expr, env)
        seen = seen_nodes.setdefault(record["generation"], set())
        for node in _interior(_inline(ast.result, env)):
            nodes += 1
            repeats += node in seen
            seen.add(node)
        canonical = format_rule(ast)
        rules += 1
        duplicates += canonical in seen_rules
        seen_rules.add(canonical)
    return repeats / max(nodes, 1), duplicates / max(rules, 1)


def evolve_metrics(tracer: Tracer, records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced `pillm evolve` from its spans and run.jsonl."""
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name):
        return [s.duration for s in by_name.get(name, [])]

    def rows(name):
        return sum(s.attrs["rows"] for s in by_name.get(name, []))

    loop = by_name["evolution.run"][0]
    complete = by_name.get("providers.complete", [])
    waits = [(s.start, s.end) for s in complete]
    waited = _union(waits)
    # Generation g runs from its select_pairs call to the end of its
    # evaluate_population call; the first evaluate_population is the initial one.
    starts = [s.start for s in by_name.get("evolution.select_pairs", [])]
    ends = [s.end for s in by_name.get("evolution.evaluate_population", [])][1:]
    invalid = [checks.error_class(r["error"] or "") for r in records if r["fitness"] is None]
    repeat_node_frac, duplicate_rule_frac = sharing(records)
    load_s, save_s = sum(durations("timeseries.load_csv")), sum(durations("timeseries.save_csv"))
    metrics = {
        "timeseries.load_csv.s": load_s,
        "timeseries.load_csv.ns_per_row": 1e9 * load_s / max(rows("timeseries.load_csv"), 1),
        "timeseries.save_csv.s": save_s,
        "timeseries.save_csv.ns_per_row": 1e9 * save_s / max(rows("timeseries.save_csv"), 1),
        "dsl.compile_rule.us": 1e6 * _median(durations("dsl.compile_rule")),
        "dsl.compile_rule.calls": len(durations("dsl.compile_rule")),
        "dsl.evaluate.ms": 1e3 * _median(durations("dsl.evaluate")),
        "dsl.evaluate.p90_ms": 1e3 * _p90(durations("dsl.evaluate")),
        "dsl.evaluate.busy_s": sum(durations("dsl.evaluate")),
        "dsl.evaluate.calls": len(durations("dsl.evaluate")),
        "dsl.evaluate.budget_rejects": sum(s.error == "BudgetError" for s in by_name.get("dsl.evaluate", [])),
        "dsl.evaluate.repeat_node_frac": repeat_node_frac,
        "dsl.evaluate.duplicate_rule_frac": duplicate_rule_frac,
        "metrics.event_f1_pa.us": 1e6 * _median(durations("metrics.event_f1_pa")),
        "prompts.render.us": 1e6 * _median(durations("prompts.render")),
        "prompts.parse_response.us": 1e6 * _median(durations("prompts.parse_response")),
        "providers.complete.ms": 1e3 * _median(durations("providers.complete")),
        "providers.complete.p90_ms": 1e3 * _p90(durations("providers.complete")),
        "providers.calls": len(complete),
        "providers.retries": sum(s.attrs.get("attempt", 1) - 1 for s in complete),
        "providers.failures": sum(s.error is not None for s in complete),
        "providers.wait_share": waited / loop.duration,
        "providers.in_flight.max": _max_overlap(waits),
        "providers.in_flight.mean": sum(end - start for start, end in waits) / waited if waited else 0.0,
        "evolution.generation.s": _median([end - start for start, end in zip(starts, ends)]),
        "evolution.self_s": sum(t for s, t in zip(spans, own) if s.name.startswith("evolution.")),
        "evolution.candidates": len(records),
        "evolution.valid_frac": 1.0 - len(invalid) / max(len(records), 1),
        "invalid_frac": len(invalid) / max(len(records), 1),
        "reporting.run_log.append.ms": 1e3 * _median(durations("reporting.run_log.append")),
        "reporting.run_log.append.calls": len(durations("reporting.run_log.append")),
    }
    for kind in ("budget", "extraction", "dsl", "provider"):
        metrics[f"evolution.invalid.{kind}"] = invalid.count(kind)
    return metrics


# Builtin calls timed against the bare comparison `$zone_temp > 0`.
BUILTIN_CASES = {
    **{f"{b}.w{w}": f"{b}($zone_temp, {w})" for b in ("mean", "std", "rmin", "rmax", "zscore") for w in (60, 1024)},
    "abs": "abs($zone_temp)",
    "clip": "clip($zone_temp, 21.8, 22.2)",
    "lag": "lag($zone_temp, 5)",
    "delta": "delta($zone_temp, 5)",
    "ewma": "ewma($zone_temp, 0.1)",
}


def _oracle(case: str, x: list[float], reference) -> list[float]:
    name, _, w = case.partition(".w")
    if w:
        brute = {
            "mean": reference.rolling_mean_brute, "std": reference.rolling_std_brute,
            "rmin": reference.rolling_min_brute, "rmax": reference.rolling_max_brute,
            "zscore": reference.zscore_brute,
        }[name]
        return brute(x, int(w))
    if name == "abs":
        return [abs(v) for v in x]
    if name == "clip":
        return [min(max(v, 21.8), 22.2) for v in x]
    if name == "lag":
        return reference.lag_brute(x, 5)
    if name == "delta":
        return [0.0 if t < 5 else v - lagged for t, (v, lagged) in enumerate(zip(x, reference.lag_brute(x, 5)))]
    return reference.ewma_brute(x, 0.1)


def builtin_metrics(seed: int, reference) -> tuple[dict, dict]:
    """ns/row of each builtin over a bare comparison, and each case's kernel problems."""
    table = generate_corpus(SimConfig(length=KERNEL_ROWS, seed=seed))
    names = table.feature_names
    base = compile_rule("return $zone_temp > 0", names)
    prefix = table.column("zone_temp")[:ORACLE_PREFIX].tolist()
    metrics, problems = {}, {}
    for case, call in BUILTIN_CASES.items():
        got = evaluate(compile_rule(f"return {call}", names), table)[:ORACLE_PREFIX]
        want = np.array(_oracle(case, prefix, reference))
        if not np.allclose(got, want, rtol=KERNEL_RTOL, atol=KERNEL_ATOL):
            worst = int(np.argmax(np.abs(got - want)))
            problems[case] = [f"row {worst} gives {float(got[worst])!r}, the oracle {float(want[worst])!r}"]
        rule = compile_rule(f"return {call} > 0", names)
        diffs = []
        started = time.perf_counter()
        while len(diffs) < KERNEL_REPS or time.perf_counter() - started < KERNEL_CASE_S:
            t0 = time.perf_counter()
            evaluate(base, table)
            t1 = time.perf_counter()
            evaluate(rule, table)
            diffs.append(time.perf_counter() - 2 * t1 + t0)
        metrics[f"dsl.builtin.{case}.ns_per_row"] = 1e9 * statistics.median(diffs) / KERNEL_ROWS
    return metrics, problems
