"""The evolution configuration: every run setting, checked when it is made.

`EvolutionConfig` lives apart from the engine so that the commands that
only read a run's settings (`report`, and `eval` for its default
threshold) do not import the engine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Mapping


class ConfigError(ValueError):
    """The evolution configuration is structurally invalid."""


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
        if not all(math.isfinite(t) and t >= 0 for t in (self.init_temperature, self.refine_temperature)):
            raise ConfigError("init_temperature and refine_temperature must be finite and >= 0")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "EvolutionConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(doc) - known - {"provider"}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**{k: v for k, v in doc.items() if k in known})

    def to_dict(self) -> dict:
        return asdict(self)
