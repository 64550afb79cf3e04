"""PILLM: physically informed LLM evolution of HVAC anomaly-detection rules.

The package wires five layers together: labeled time-series tables, a
sandboxed rule DSL, event-level detection metrics, LLM providers with
prompt templates, and the evolutionary loop that searches rule space.
A small HVAC zone simulator supplies labeled corpora and the reporting
layer persists runs and renders diagnostic reports.
"""

from .evolution import EvolutionConfig, RuleCandidate, RunResult, run_evolution
from .metrics import MetricReport, event_f1_pa
from .simulate import FaultSpec, SimConfig, generate_corpus
from .timeseries import FeatureMeta, TimeSeriesTable, load_csv, load_meta, split

__version__ = "0.1.0"

__all__ = [
    "EvolutionConfig",
    "FaultSpec",
    "FeatureMeta",
    "MetricReport",
    "RuleCandidate",
    "RunResult",
    "SimConfig",
    "TimeSeriesTable",
    "__version__",
    "event_f1_pa",
    "generate_corpus",
    "load_csv",
    "load_meta",
    "run_evolution",
    "split",
]
