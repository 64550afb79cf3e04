"""Command-line front end: data generation, rule checking, scoring, evolution, reporting.

Each command imports what it runs. Only `evolve` loads the engine and the
prompts, and only `evolve` and `report --narrate` load the providers (which
read the prompts' reply format). The `pillm` program starts in `run`, which
freezes the objects alive at start-up out of the garbage collector's passes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

# pillm never calls BLAS, so OpenBLAS's worker threads would only spin idle;
# this must run before numpy is first imported. A value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .config import ConfigError, EvolutionConfig
from .dsl import DslError, compile_rule, evaluate, parse, to_flags, typecheck
from .errors import PromptError, ProviderConfigError, ProviderError
from .metrics import event_f1_pa, point_adjusted_report, pointwise_report
from .reporting import RunDirError, RunLog, RunLogError, best_record, generate_report, narrate_report
from .simulate import FAULT_KINDS, FaultSpec, SimConfig, SimulationError, generate_corpus
from .timeseries import (
    SchemaError,
    TableError,
    cut_csv,
    load_csv,
    load_meta,
    read_text,
    save_csv,
    save_meta,
    split,
)

if TYPE_CHECKING:
    from .evolution import RunResult
    from .providers import Provider

EXIT_ABORTED = 2
EXIT_BAD_CONFIG = 3

# The exit code of each error class a command lets through. A fault in a rule
# or a run directory exits 1; any other unusable input, such as an `--out`
# where no run directory can be made or a `gen-data --out` that cannot be
# made (`OSError`), exits 3. The most specific class listed wins, so a
# ProviderConfigError exits 3 and any other ProviderError 1.
EXIT_CODES = {
    DslError: 1,
    RunLogError: 1,
    RunDirError: EXIT_BAD_CONFIG,
    ProviderError: 1,
    TableError: EXIT_BAD_CONFIG,
    ConfigError: EXIT_BAD_CONFIG,
    json.JSONDecodeError: EXIT_BAD_CONFIG,
    ProviderConfigError: EXIT_BAD_CONFIG,
    PromptError: EXIT_BAD_CONFIG,
    SimulationError: EXIT_BAD_CONFIG,
    OSError: EXIT_BAD_CONFIG,
}

# Each `--provider` type and the keys of a config's `provider` block it reads;
# the snapshot adds `type`.
_PROVIDER_KEYS = {"http": ("endpoint", "model", "timeout_secs"), "scripted": ("script",), "sampler": ()}

_METRIC_FUNCS = {
    "pointwise": pointwise_report,
    "pa": point_adjusted_report,
    "event-pa": event_f1_pa,
}


def _load_table(data_path: str, meta_path: str):
    """A corpus's CSV bytes, its metadata and its table; the metadata is parsed first."""
    metas = load_meta(Path(meta_path).read_bytes())
    data = Path(data_path).read_bytes()
    return data, metas, load_csv(data, metas)


def _provider_block(doc: dict) -> dict:
    block = doc.get("provider", {})
    if not isinstance(block, dict):
        raise ConfigError("config key 'provider' must be an object")
    return block


class _Commands(click.Group):
    """The command group: an error class in `EXIT_CODES` ends a command with one `error:` line and its code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES))


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="pillm")
def main() -> None:
    """Evolve and audit interpretable anomaly-detection rules for HVAC data."""


@main.command("gen-data")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--fault", "fault_kind", type=click.Choice(FAULT_KINDS), default=None)
@click.option("--intensity", type=float, default=1.0, show_default=True)
@click.option("--window", "window_text", default=None, help="Fault row span START:END (half-open).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--length", type=int, default=2880, show_default=True)
def gen_data(out_dir: str, fault_kind: str | None, intensity: float, window_text: str | None, seed: int, length: int) -> None:
    """Simulate an HVAC corpus and write data.csv + meta.json."""
    if fault_kind is not None:
        if window_text is None:
            raise SimulationError("--window START:END is required when --fault is given")
        try:
            start_text, end_text = window_text.split(":", 1)
            window = (int(start_text), int(end_text))
        except ValueError:
            raise SimulationError(f"cannot parse --window {window_text!r}; expected START:END") from None
    elif window_text is not None:
        raise SimulationError("--window has no effect without --fault")

    faults = [FaultSpec(fault_kind, intensity, window)] if fault_kind is not None else []
    table = generate_corpus(SimConfig(length=length, seed=seed), *faults)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "data.csv").write_bytes(save_csv(table))
    (out / "meta.json").write_text(save_meta(table.features), encoding="utf-8")
    click.echo(f"wrote {out / 'data.csv'} ({table.num_rows} rows) and {out / 'meta.json'}")


@main.command("check")
@click.option("--rule", "rule_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--meta", "meta_path", type=click.Path(exists=True, dir_okay=False), default=None)
def check(rule_path: str, meta_path: str | None) -> None:
    """Parse and typecheck a rule file; print diagnostics on failure."""
    source = read_text(rule_path, "rule file", TableError)
    ast = parse(source)
    if meta_path is not None:
        features = [m.name for m in load_meta(Path(meta_path).read_bytes())]
    else:
        # Without metadata, accept whatever features the rule references.
        features = ast.features
    typecheck(ast, features)
    feature_list = ", ".join(sorted(ast.features)) or "(none)"
    click.echo(f"OK: {ast.node_count} nodes, max window {ast.max_window}, features: {feature_list}")


@main.command("eval")
@click.option("--rule", "rule_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--meta", "meta_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--metric", type=click.Choice(sorted(_METRIC_FUNCS)), default="event-pa", show_default=True)
@click.option("--threshold", type=float, default=EvolutionConfig.threshold, show_default=True)
def eval_cmd(rule_path: str, data_path: str, meta_path: str, metric: str, threshold: float) -> None:
    """Score a rule against a labeled corpus and print one metric line."""
    if not math.isfinite(threshold):
        raise ConfigError("threshold must be finite")
    _, _, table = _load_table(data_path, meta_path)
    if not table.has_labels:
        raise SchemaError("data has no label column; scoring requires labels")
    rule = compile_rule(read_text(rule_path, "rule file", TableError), table.feature_names)
    flags = to_flags(evaluate(rule, table), threshold)
    click.echo(_METRIC_FUNCS[metric](flags, table.labels).line())


def _build_provider(kind: str, provider_block: dict, script: str | None, config: EvolutionConfig, feature_names) -> Provider:
    from .providers import HttpProvider, SamplerProvider, ScriptedProvider

    if kind == "scripted":
        if script is None:
            script = provider_block.get("script")
        if not script:
            raise ProviderConfigError("scripted provider requires --script FILE")
        if not isinstance(script, str):
            raise ProviderConfigError(f"provider.script must be a file path, got {script!r}")
        return ScriptedProvider.from_path(script)
    if kind == "sampler":
        return SamplerProvider(seed=config.seed, feature_names=feature_names)
    if kind == "http":
        return HttpProvider(
            endpoint=provider_block.get("endpoint", ""),
            model=provider_block.get("model", ""),
            timeout_secs=provider_block.get("timeout_secs", 60.0),
        )
    raise ProviderConfigError(f"unknown provider {kind!r}")


def run_evolution(*args, **kwargs) -> RunResult:
    """`evolution.run_evolution`; the engine is imported on the first call."""
    from .evolution import run_evolution

    return run_evolution(*args, **kwargs)


@main.command("evolve")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--meta", "meta_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--provider", "provider_kind", required=True, type=click.Choice(list(_PROVIDER_KEYS)))
@click.option("--script", "script_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--no-pir", is_flag=True, help="Disable reflection (ablation).")
@click.option("--no-pic", is_flag=True, help="Replace crossover with extra elitist mutations (ablation).")
@click.option("--out", "out_root", required=True, type=click.Path(file_okay=False))
@click.option(
    "--prompts-dir",
    type=click.Path(file_okay=False),
    default=None,
    help="Read the five prompt templates from this directory instead of the packaged set.",
)
def evolve(
    data_path: str,
    meta_path: str,
    config_path: str,
    provider_kind: str,
    script_path: str | None,
    no_pir: bool,
    no_pic: bool,
    out_root: str,
    prompts_dir: str | None,
) -> None:
    """Run the evolutionary loop and persist the run directory."""
    from . import prompts

    if script_path is not None and provider_kind != "scripted":
        raise ProviderConfigError("--script has no effect without --provider scripted")
    doc = json.loads(read_text(config_path, "config", TableError))
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    config = EvolutionConfig.from_dict(doc)
    if no_pir:
        config.enable_pir = False
    if no_pic:
        config.enable_pic = False

    data, metas, table = _load_table(data_path, meta_path)
    if not table.has_labels:
        raise SchemaError("training data must be labeled")
    train_table, _ = split(table, config.train_fraction)

    provider_block = _provider_block(doc)
    unknown = sorted(set(provider_block) - set(_PROVIDER_KEYS[provider_kind]))
    if unknown:
        raise ConfigError(f"unknown provider keys: {', '.join(unknown)}")
    provider = _build_provider(provider_kind, provider_block, script_path, config, table.feature_names)
    templates = prompts.load_templates(prompts_dir)

    snapshot = config.to_dict()
    snapshot["provider"] = {"type": provider_kind, **provider_block}
    if script_path is not None:
        snapshot["provider"]["script"] = str(Path(script_path).resolve())
    if prompts_dir is not None:
        snapshot["prompts_dir"] = str(Path(prompts_dir).resolve())
    log = RunLog.create(out_root, config.seed, snapshot)
    log.write_split(*cut_csv(data, table.num_rows, train_table.num_rows), save_meta(metas))
    click.echo(f"run_dir={log.dir}")

    # The provider opens its connections only once the run sends requests.
    try:
        result = run_evolution(config, train_table, provider, log=log, templates=templates)
    finally:
        provider.close()
    click.echo(f"generations={result.generations_completed} llm_calls={result.llm_calls}")
    best = best_record(result.records)
    if best is not None:
        log.write_best(best["code"], best["context"])
        click.echo(f"best_id={best['candidate_id']} best_fitness={best['fitness']:.6f}")
    else:
        click.echo("best_id=none")
    if result.aborted:
        click.echo("aborted=true", err=True)
        sys.exit(EXIT_ABORTED)


@main.command("report")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--meta", "meta_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--narrate", is_flag=True, help="Elaborate the report through the run's provider.")
def report(run_dir: str, data_path: str, meta_path: str, narrate: bool) -> None:
    """Render the diagnostic report for a finished run."""
    log = RunLog(run_dir)
    best = best_record(log.records())
    if best is None:
        raise RunLogError("run log contains no valid candidate to report on")
    snapshot = log.config_snapshot()
    _, metas, table = _load_table(data_path, meta_path)
    # The evidence baseline reads only the rule's features, so only those train columns are parsed.
    features = parse(best["code"]).features
    train_table = load_csv(log.train_csv(), [m for m in metas if m.name in features] or metas)

    provider_block = _provider_block(snapshot)
    config = EvolutionConfig.from_dict(
        {k: v for k, v in snapshot.items() if k not in ("provider", "prompts_dir")}
    )

    doc = generate_report(best["code"], best["context"], table, config.threshold, train_table)
    text = doc.render()
    if narrate:
        kind = provider_block.get("type", "sampler")
        provider = _build_provider(kind, provider_block, provider_block.get("script"), config, table.feature_names)
        try:
            text = narrate_report(text, provider)
        finally:
            provider.close()
    log.write_report(text)
    click.echo(text, nl=False)


def run() -> None:
    """The `pillm` program: `main`, with every object alive at start-up frozen.

    Modules, classes and functions live until exit anyway, so the collector
    need not walk them in any pass, the one at exit included. Importing this
    module freezes nothing, so a process that imports it and calls `main`
    keeps all of its objects collectable.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
