"""Experiment configuration: a flat key = value text format with typed
validation, plus the canonical hash that stamps every pipeline artifact.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

from .aggregation import AggregationConfig, CENTROID_SOURCES
from .backbone import BackboneConfig
from .corpus import read_text
from .errors import ContractError, ParseError
from .numerics import derive_seed
from .partition import PartitionConfig
from .unlearning import STRATEGIES


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ks(text: str) -> tuple[int, ...]:
    ks = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"bad K list: {text!r}")
    return ks


# name -> (parser, default); defaults are desk-scale. The model knobs read
# their defaults from the config dataclasses, so a config built directly
# trains as the pipeline does.
SCHEMA: dict = {
    "seed": (int, 7),
    "data.source": (str, "synthetic"),
    "data.min_count": (int, 5),
    "data.max_len": (int, 10),
    "synthetic.sessions": (int, 2000),
    "synthetic.items": (int, 200),
    "synthetic.clusters": (int, 8),
    "synthetic.noise": (float, 0.1),
    "synthetic.min_len": (int, 8),
    "synthetic.max_len": (int, 14),
    "backbone.d": (int, BackboneConfig.d),
    "backbone.epochs": (int, BackboneConfig.epochs),
    "backbone.batch_size": (int, BackboneConfig.batch_size),
    "backbone.lr": (float, BackboneConfig.lr),
    "backbone.early_stop": (_parse_bool, False),
    "backbone.patience": (int, BackboneConfig.patience),
    "partition.k": (int, PartitionConfig.k),
    "partition.delta": (int, 0),       # 0 means ceil(|D| / k)
    "partition.max_iters": (int, PartitionConfig.max_iters),
    "partition.tol": (float, PartitionConfig.centroid_tol),
    "agg.f": (int, AggregationConfig.f),
    "agg.d_ff": (int, 0),              # 0 means backbone.d
    "agg.lr": (float, AggregationConfig.lr),
    "agg.epochs": (int, AggregationConfig.epochs),
    "agg.batch_size": (int, AggregationConfig.batch_size),
    "agg.centroid_source": (str, AggregationConfig.centroid_source),
    "unlearn.strategy": (str, "CED"),
    "unlearn.n_extra": (int, 2),
    "eval.ks": (_parse_ks, (10, 20)),
    "effectiveness.ks": (_parse_ks, (1, 5, 10, 20)),
    "effectiveness.context": (str, "prefix"),
}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    values = dict()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ParseError(f"unknown configuration key {key!r}", lineno)
        parser, _default = SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}", lineno) from None
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one experiment run."""

    values: dict
    # (effective seed, config hash) as ``for_stage`` fixed them
    _pinned: tuple[int, str] | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        merged = {key: default for key, (_, default) in SCHEMA.items()}
        merged.update(parse_config_text(text))
        config = cls(values=merged)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_text(read_text(path))

    @classmethod
    def defaults(cls, **overrides) -> "ExperimentConfig":
        merged = {key: default for key, (_, default) in SCHEMA.items()}
        for key, value in overrides.items():
            if key not in SCHEMA:
                raise ContractError(f"unknown configuration key {key!r}")
            merged[key] = value
        config = cls(values=merged)
        config.validate()
        return config

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        v = self.values
        if v["data.max_len"] < 2 or v["synthetic.max_len"] < 2:
            raise ContractError("max_len values must be >= 2")
        if v["partition.k"] < 1:
            raise ContractError("partition.k must be >= 1")
        if v["agg.centroid_source"] not in CENTROID_SOURCES:
            raise ContractError(f"agg.centroid_source must be one of {CENTROID_SOURCES}")
        if v["unlearn.strategy"] not in STRATEGIES:
            raise ContractError(f"unlearn.strategy must be one of {STRATEGIES}")
        if v["effectiveness.context"] not in ("prefix", "full"):
            raise ContractError("effectiveness.context must be 'prefix' or 'full'")
        if v["data.source"] != "synthetic" and not v["data.source"]:
            raise ContractError("data.source must be 'synthetic' or a TSV path")

    # -- derived views -----------------------------------------------------

    def for_stage(self) -> "ExperimentConfig":
        """This config with its effective seed and hash fixed now: SRU_SEED
        is read and the canonical text hashed once, and every artifact a
        stage reads or writes reuses them."""
        stage = replace(self)
        object.__setattr__(stage, "_pinned", (self.seed, self.config_hash()))
        return stage

    @property
    def seed(self) -> int:
        if self._pinned is not None:
            return self._pinned[0]
        override = os.environ.get("SRU_SEED")
        if override is not None:
            try:
                return int(override)
            except ValueError:
                raise ContractError(f"SRU_SEED must be an integer, got {override!r}") from None
        return self.values["seed"]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, tuple):
                value = ",".join(str(x) for x in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        if self._pinned is not None:
            return self._pinned[1]
        payload = self.canonical_text() + f"effective_seed = {self.seed}\n"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def model_max_len(self) -> int:
        if self.values["data.source"] == "synthetic":
            return self.values["synthetic.max_len"]
        return self.values["data.max_len"]

    def backbone_config(self, label: str) -> BackboneConfig:
        v = self.values
        return BackboneConfig(
            d=v["backbone.d"],
            max_len=self.model_max_len(),
            epochs=v["backbone.epochs"],
            batch_size=v["backbone.batch_size"],
            lr=v["backbone.lr"],
            seed=derive_seed(self.seed, label),
            patience=v["backbone.patience"],
        )

    def partition_config(self) -> PartitionConfig:
        v = self.values
        return PartitionConfig(
            k=v["partition.k"],
            delta=v["partition.delta"] or None,
            max_iters=v["partition.max_iters"],
            centroid_tol=v["partition.tol"],
            seed=derive_seed(self.seed, "partition"),
        )

    def aggregation_config(self) -> AggregationConfig:
        v = self.values
        return AggregationConfig(
            f=v["agg.f"],
            d_ff=v["agg.d_ff"] or None,
            lr=v["agg.lr"],
            epochs=v["agg.epochs"],
            batch_size=v["agg.batch_size"],
            seed=derive_seed(self.seed, "aggregation"),
            centroid_source=v["agg.centroid_source"],
        )
