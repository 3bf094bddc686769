"""Single JSON run configuration with strict key checking.

A run config has five sections plus the seed; unknown keys anywhere are
rejected so a typo cannot silently fall back to a default. The effective
(fully defaulted) form is serialized into the ``command`` row that ends
the log of every pipeline command, and its hash, on every row, identifies
the run.

  {
    "seed": 0,
    "data":        { SyntheticSpec fields },
    "space":       { "num_cells": 1, "steps_per_cell": 2, "hidden_dim": 16 },
    "contrastive": { ContrastiveConfig fields },
    "search":      { SearchConfig fields, minus seed },
    "pipeline":    { PipelineConfig fields }
  }
"""

from __future__ import annotations

import dataclasses
import functools
import json
import subprocess
from dataclasses import dataclass, field

from . import __version__
from .bilevel import SearchConfig
from .contrastive import ContrastiveConfig
from .data import SyntheticSpec
from .pipeline import PipelineConfig
from .searchspace import SearchSpaceConfig
from .util import canonical_json, integer, short_hash


class ConfigError(ValueError):
    pass


def _build(cls, config: dict, path: str):
    section = config.get(path, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {path!r} must be a JSON object, got {section!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - names)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in config section {path!r}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config section {path!r}: {e}") from e


@dataclass(frozen=True)
class SpaceSection:
    """Search-space knobs; feature dims always come from the dataset."""

    num_cells: int = 1
    steps_per_cell: int = 2
    hidden_dim: int = 16

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if integer(getattr(self, f.name), f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    space: SpaceSection = field(default_factory=SpaceSection)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(d) - {"seed", "data", "space", "contrastive", "search", "pipeline"})
        if unknown:
            raise ConfigError(f"unknown top-level config key(s) {unknown}")
        seed = d.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"config key 'seed' must be an integer, got {seed!r}")
        if isinstance(d.get("search"), dict) and "seed" in d["search"]:
            raise ConfigError("set the run seed at the top level, not under 'search'")
        return cls(
            seed=seed,
            data=_build(SyntheticSpec, d, "data"),
            space=_build(SpaceSection, d, "space"),
            contrastive=_build(ContrastiveConfig, d, "contrastive"),
            search=_build(SearchConfig, d, "search"),
            pipeline=_build(PipelineConfig, d, "pipeline"),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        return cls.from_dict(d)

    def with_seed(self, seed: int) -> "RunConfig":
        return dataclasses.replace(self, seed=int(seed))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        del d["search"]["seed"]  # the run seed is the top-level one
        return d

    def hash(self) -> str:
        return short_hash(self.to_dict())

    def canonical(self) -> str:
        return canonical_json(self.to_dict())

    def space_config(self, image_dims, text_dims) -> SearchSpaceConfig:
        return SearchSpaceConfig(
            features_per_modality=(tuple(image_dims), tuple(text_dims)),
            num_cells=self.space.num_cells,
            steps_per_cell=self.space.steps_per_cell,
            hidden_dim=self.space.hidden_dim,
        )

    def search_config(self) -> SearchConfig:
        return dataclasses.replace(self.search, seed=self.seed)


@functools.cache
def build_id() -> str:
    """Version plus the working-tree descriptor when git is available.

    Computed once per process: every report of one run shares it.
    """
    base = f"mmnas-{__version__}"
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        if desc.returncode == 0 and desc.stdout.strip():
            return f"{base}+{desc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return base
