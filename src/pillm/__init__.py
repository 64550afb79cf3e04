"""PILLM: physically informed LLM evolution of HVAC anomaly-detection rules.

The package wires five layers together: labeled time-series tables, a
sandboxed rule DSL, event-level detection metrics, LLM providers with
prompt templates, and the evolutionary loop that searches rule space.
A small HVAC zone simulator supplies labeled corpora and the reporting
layer persists runs and renders diagnostic reports.

The names exported here load their submodule on first use, so `import
pillm` alone imports nothing else; `from pillm import EvolutionConfig`
works as usual.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "EvolutionConfig": "config",
    "RuleCandidate": "evolution",
    "RunResult": "evolution",
    "run_evolution": "evolution",
    "MetricReport": "metrics",
    "event_f1_pa": "metrics",
    "FaultSpec": "simulate",
    "SimConfig": "simulate",
    "generate_corpus": "simulate",
    "FeatureMeta": "timeseries",
    "TimeSeriesTable": "timeseries",
    "load_csv": "timeseries",
    "load_meta": "timeseries",
    "split": "timeseries",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
