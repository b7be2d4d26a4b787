"""Experiment configuration: a flat key = value text format with typed
validation, plus the canonical hash that stamps every pipeline artifact.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .aggregation import AggregationConfig
from .backbone import BackboneConfig
from .corpus import parse_file
from .errors import ContractError, ParseError
from .numerics import derive_seed
from .partition import PartitionConfig
from .unlearning import STRATEGIES


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
    "partition.k": (int, PartitionConfig.k),
    "partition.delta": (int, 0),       # 0 means ceil(|D| / k)
    "partition.max_iters": (int, PartitionConfig.max_iters),
    "partition.tol": (float, PartitionConfig.centroid_tol),
    "agg.f": (int, AggregationConfig.f),
    "agg.d_ff": (int, 0),              # 0 means backbone.d
    "agg.lr": (float, AggregationConfig.lr),
    "agg.epochs": (int, AggregationConfig.epochs),
    "agg.batch_size": (int, AggregationConfig.batch_size),
    "unlearn.strategy": (str, "CED"),
    "unlearn.n_extra": (int, 2),
    "eval.ks": (_parse_ks, (10, 20)),
    "effectiveness.ks": (_parse_ks, (1, 5, 10, 20)),
    "effectiveness.context": (str, "prefix"),
}


def _text(value) -> str:
    """A value as the config text writes it."""
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in SCHEMA:
            raise ParseError(f"unknown configuration key {key!r}", lineno)
        try:
            values[key] = SCHEMA[key][0](value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}", lineno) from None
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, read-only configuration for one experiment run. Every
    value, given or default, is parsed from the text the config format
    writes for it, so however a config is built, equal values hash alike."""

    values: Mapping

    def __post_init__(self):
        unknown = sorted(self.values.keys() - SCHEMA.keys())
        if unknown:
            raise ContractError(f"unknown configuration key {unknown[0]!r}")
        values = {}
        for key, (parser, default) in SCHEMA.items():
            try:
                values[key] = parser(_text(self.values.get(key, default)))
            except ValueError as exc:
                raise ContractError(f"bad value for {key!r}: {exc}") from None
        object.__setattr__(self, "values", MappingProxyType(values))
        self.validate()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(parse_config_text(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return parse_file(path, cls.from_text)

    @classmethod
    def defaults(cls, **overrides) -> "ExperimentConfig":
        return cls(overrides)

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        """The checks no typed config makes, then each typed config's own,
        its message led by its section."""
        v = self.values
        for section in ("data", "synthetic"):
            max_len = v[f"{section}.max_len"]
            if max_len < 2:
                raise ContractError(f"{section}: max_len must be >= 2, got {max_len}")
        if v["unlearn.strategy"] not in STRATEGIES:
            raise ContractError(f"unlearn.strategy must be one of {STRATEGIES}")
        if v["effectiveness.context"] not in ("prefix", "full"):
            raise ContractError("effectiveness.context must be 'prefix' or 'full'")
        if v["data.source"] != "synthetic" and not v["data.source"]:
            raise ContractError("data.source must be 'synthetic' or a TSV path")
        syn = {key.partition(".")[2]: v[key] for key in v if key.startswith("synthetic.")}
        for ok, message in (
            (syn["sessions"] >= 1, f"sessions must be >= 1, got {syn['sessions']}"),
            (syn["clusters"] >= 1, f"clusters must be >= 1, got {syn['clusters']}"),
            (syn["items"] >= 10 * syn["clusters"],
             f"items must be >= 10 * clusters ({10 * syn['clusters']}), got {syn['items']}"),
            (0.0 <= syn["noise"] <= 1.0, f"noise must be in [0, 1], got {syn['noise']}"),
            (2 <= syn["min_len"] <= syn["max_len"],
             f"min_len must be in 2..max_len ({syn['max_len']}), got {syn['min_len']}"),
        ):
            if not ok:
                raise ContractError(f"synthetic: {message}")
        if v["unlearn.n_extra"] < 0:
            raise ContractError(f"unlearn: n_extra must be >= 0, got {v['unlearn.n_extra']}")
        sections = {"backbone": lambda: self.backbone_config("validate"),
                    "partition": self.partition_config, "agg": self.aggregation_config}
        for section, build in sections.items():
            try:
                build()
            except ContractError as exc:
                raise ContractError(f"{section}: {exc}") from None

    # -- derived views -----------------------------------------------------

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def canonical_text(self) -> str:
        return "".join(f"{key} = {_text(self.values[key])}\n" for key in sorted(self.values))

    @cached_property
    def _hash(self) -> str:
        payload = self.canonical_text() + f"effective_seed = {self.seed}\n"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def config_hash(self) -> str:
        """The hash that stamps every artifact, computed once per config."""
        return self._hash

    def backbone_config(self, label: str) -> BackboneConfig:
        v = self.values
        return BackboneConfig(
            d=v["backbone.d"],
            max_len=v["synthetic.max_len" if v["data.source"] == "synthetic"
                      else "data.max_len"],
            epochs=v["backbone.epochs"],
            batch_size=v["backbone.batch_size"],
            lr=v["backbone.lr"],
            seed=derive_seed(self.seed, label),
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
        )
