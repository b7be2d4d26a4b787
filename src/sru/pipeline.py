"""Staged experiment pipeline over on-disk artifacts.

Every stage consumes the artifacts of earlier stages by path convention
inside one run directory, stamps its outputs with the configuration
hash, and refuses to consume artifacts stamped with a different hash.
The whole pipeline is a pure function of (input bytes, config, seed):
re-running any prefix of stages reproduces identical artifact bytes
(timing reports aside).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from .aggregation import (
    SruModel,
    build_feature_cache,
    compute_centroids,
    train_aggregation,
)
from .backbone import train_backbone, train_many
from .checkpoint import (
    load_assignment,
    load_centroid_state,
    load_checkpoint,
    load_datasets,
    save_assignment,
    save_centroid_state,
    save_checkpoint,
    save_datasets,
    write_atomic,
)
from .config import ExperimentConfig
from .corpus import generate_synthetic, ingest_log, preprocess, split
from .errors import ContractError, ParseError, StageDependencyError
from .evaluation import benchmark_unlearn, evaluate, hit_effectiveness, sisa_baseline
from .numerics import derive_seed
from .partition import balanced_kmeans, embed_all, make_shards
from .reports import emit_report
from .unlearning import (
    SruState,
    deletions_from_json,
    deletions_to_json,
    execute_unlearn,
    load_requests,
    sample_requests,
)

SUBCOMMANDS = (
    "preprocess", "pretrain", "partition", "train-shards", "train-agg",
    "eval", "unlearn", "effectiveness", "bench", "ablate",
)

ARTIFACTS = {
    "dataset": ("dataset.sru", "preprocess"),
    "reference": ("reference.sru", "pretrain"),
    "partition_csv": ("partition.csv", "partition"),
    "partition_bin": ("centroids.sru", "partition"),
    "shard_centroids": ("shard_centroids.sru", "train-agg"),
    "aggregation": ("aggregation.sru", "train-agg"),
    "audit": ("audit.json", "unlearn"),
}


def _path(run_dir, name: str) -> str:
    return os.path.join(run_dir, ARTIFACTS[name][0])


def _require(run_dir, *names) -> None:
    for name in names:
        filename, stage = ARTIFACTS[name]
        if not os.path.exists(os.path.join(run_dir, filename)):
            raise StageDependencyError(
                f"missing artifact {filename}; run the '{stage}' stage first"
            )


def _shard_path(run_dir, k: int) -> str:
    return os.path.join(run_dir, f"shard_{k:03d}.sru")


def _require_shards(run_dir, count: int) -> None:
    for k in range(count):
        if not os.path.exists(_shard_path(run_dir, k)):
            raise StageDependencyError(
                f"missing artifact shard_{k:03d}.sru; run the 'train-shards' stage first"
            )


# -- in-memory pipeline (also used by the ablation recipes and tests) ----------


def fit_state(train, validation, config: ExperimentConfig,
              k_override: int | None = None, parallel: bool = False) -> SruState:
    """Run pretraining, partitioning, shard training, and fusion training
    in memory and return the assembled framework state."""
    pretrain_cfg = config.backbone_config("pretrain")
    val = validation if config["backbone.early_stop"] else None
    reference = train_backbone(train, pretrain_cfg, val_dataset=val)

    part_cfg = config.partition_config()
    if k_override is not None:
        part_cfg = replace(part_cfg, k=k_override)
    assignment = balanced_kmeans(embed_all(reference, train), part_cfg)
    shards = make_shards(train, assignment)
    shard_configs = [config.backbone_config(f"shard-{k}") for k in range(part_cfg.k)]
    sub_models = train_many(shards, shard_configs, parallel=parallel)

    agg_cfg = config.aggregation_config()
    centroids = compute_centroids(sub_models, shards, source=agg_cfg.centroid_source,
                                  reference_centroids=assignment.centroids)
    cache = build_feature_cache(sub_models, train)
    aggregation = train_aggregation(sub_models, centroids, train, agg_cfg,
                                    precomputed=(cache.features, cache.targets))
    return SruState(
        reference_model=reference,
        corpus=train,
        assignment=assignment,
        shard_configs=shard_configs,
        sub_models=sub_models,
        centroids=centroids,
        agg_config=agg_cfg,
        aggregation=aggregation,
        seed=config.seed,
        feature_cache=cache,
    )


# -- stage implementations -------------------------------------------------------


def _cmd_preprocess(run_dir, config: ExperimentConfig) -> None:
    source = config["data.source"]
    if source == "synthetic":
        dataset = generate_synthetic(
            num_sessions=config["synthetic.sessions"],
            vocab_size=config["synthetic.items"],
            num_clusters=config["synthetic.clusters"],
            noise_rate=config["synthetic.noise"],
            seed=derive_seed(config.seed, "synthetic"),
            min_len=config["synthetic.min_len"],
            max_len=config["synthetic.max_len"],
        )
    else:
        with open(source, "rb") as handle:
            raw = ingest_log(handle)
        dataset = preprocess(raw, min_count=config["data.min_count"],
                             max_len=config["data.max_len"])
    train, validation, test = split(dataset, seed=derive_seed(config.seed, "split"))
    save_datasets(_path(run_dir, "dataset"),
                  {"train": train, "validation": validation, "test": test},
                  {"config_hash": config.config_hash(), "stage": "preprocess"})


def _load_splits(run_dir, config):
    _require(run_dir, "dataset")
    return load_datasets(_path(run_dir, "dataset"),
                         expected_config_hash=config.config_hash())


def _cmd_pretrain(run_dir, config: ExperimentConfig) -> None:
    splits = _load_splits(run_dir, config)
    val = splits["validation"] if config["backbone.early_stop"] else None
    model = train_backbone(splits["train"], config.backbone_config("pretrain"),
                           val_dataset=val)
    save_checkpoint(model, _path(run_dir, "reference"),
                    {"config_hash": config.config_hash(), "stage": "pretrain",
                     "seed": model.config.seed})


def _cmd_partition(run_dir, config: ExperimentConfig) -> None:
    splits = _load_splits(run_dir, config)
    _require(run_dir, "reference")
    reference = load_checkpoint(_path(run_dir, "reference"),
                                expected_config_hash=config.config_hash())
    assignment = balanced_kmeans(embed_all(reference, splits["train"]),
                                 config.partition_config())
    save_assignment(_path(run_dir, "partition_csv"), _path(run_dir, "partition_bin"),
                    assignment, {"config_hash": config.config_hash(), "stage": "partition"})


def _cmd_train_shards(run_dir, config: ExperimentConfig, parallel: bool = False) -> None:
    splits = _load_splits(run_dir, config)
    _require(run_dir, "partition_csv", "partition_bin")
    assignment = load_assignment(_path(run_dir, "partition_csv"),
                                 _path(run_dir, "partition_bin"),
                                 expected_config_hash=config.config_hash())
    shards = make_shards(splits["train"], assignment)
    configs = [config.backbone_config(f"shard-{k}") for k in range(assignment.k)]
    models = train_many(shards, configs, parallel=parallel)
    for k, model in enumerate(models):
        save_checkpoint(model, _shard_path(run_dir, k),
                        {"config_hash": config.config_hash(), "stage": "train-shards",
                         "shard_id": k, "seed": configs[k].seed})


def _load_shard_models(run_dir, config, count: int):
    _require_shards(run_dir, count)
    return [
        load_checkpoint(_shard_path(run_dir, k), expected_config_hash=config.config_hash())
        for k in range(count)
    ]


def _cmd_train_agg(run_dir, config: ExperimentConfig) -> None:
    splits = _load_splits(run_dir, config)
    _require(run_dir, "partition_csv", "partition_bin")
    assignment = load_assignment(_path(run_dir, "partition_csv"),
                                 _path(run_dir, "partition_bin"),
                                 expected_config_hash=config.config_hash())
    shards = make_shards(splits["train"], assignment)
    sub_models = _load_shard_models(run_dir, config, assignment.k)
    agg_cfg = config.aggregation_config()
    centroids = compute_centroids(sub_models, shards, source=agg_cfg.centroid_source,
                                  reference_centroids=assignment.centroids)
    aggregation = train_aggregation(sub_models, centroids, splits["train"], agg_cfg)
    save_centroid_state(_path(run_dir, "shard_centroids"), centroids,
                        {"config_hash": config.config_hash(), "stage": "train-agg"})
    save_checkpoint(aggregation, _path(run_dir, "aggregation"),
                    {"config_hash": config.config_hash(), "stage": "train-agg",
                     "seed": agg_cfg.seed})


def load_model(run_dir, config: ExperimentConfig) -> SruModel:
    """Load the predictor alone: the fusion layer, then its
    ``aggregation.k`` shard checkpoints, then the shard centroids, each
    checked against the config hash. The dataset, the reference encoder
    and the partition are not read."""
    _require(run_dir, "shard_centroids", "aggregation")
    chash = config.config_hash()
    aggregation = load_checkpoint(_path(run_dir, "aggregation"), expected_config_hash=chash)
    sub_models = _load_shard_models(run_dir, config, aggregation.k)
    centroids = load_centroid_state(_path(run_dir, "shard_centroids"),
                                    expected_config_hash=chash)
    return SruModel(sub_models=tuple(sub_models), centroids=centroids,
                    aggregation=aggregation, max_len=sub_models[0].max_len)


def load_state(run_dir, config: ExperimentConfig) -> tuple[SruState, dict]:
    """Reassemble the framework state from on-disk artifacts.

    Loads the dataset splits, the reference encoder and the partition,
    and takes the predictor from ``load_model``; K is the fusion layer's,
    and a partition with another K is a ``ContractError``. The returned
    state has no feature cache: ``execute_unlearn`` builds it lazily,
    once, on the post-deletion sub-models.
    """
    splits = _load_splits(run_dir, config)
    _require(run_dir, "reference", "partition_csv", "partition_bin")
    chash = config.config_hash()
    reference = load_checkpoint(_path(run_dir, "reference"), expected_config_hash=chash)
    assignment = load_assignment(_path(run_dir, "partition_csv"),
                                 _path(run_dir, "partition_bin"),
                                 expected_config_hash=chash)
    model = load_model(run_dir, config)
    if assignment.k != model.aggregation.k:
        raise ContractError(
            f"partition.csv has K={assignment.k} shards but aggregation.sru "
            f"has K={model.aggregation.k}"
        )
    shard_configs = [m.config for m in model.sub_models]
    if any(c is None for c in shard_configs):
        raise ContractError("shard checkpoints are missing their training configs")
    state = SruState(
        reference_model=reference,
        corpus=splits["train"],
        assignment=assignment,
        shard_configs=shard_configs,
        sub_models=list(model.sub_models),
        centroids=model.centroids,
        agg_config=model.aggregation.config or config.aggregation_config(),
        aggregation=model.aggregation,
        seed=config.seed,
    )
    return state, splits


def _cmd_eval(run_dir, config: ExperimentConfig, split_tag: str = "test") -> None:
    splits = _load_splits(run_dir, config)
    report = evaluate(load_model(run_dir, config), splits[split_tag], ks=config["eval.ks"])
    emit_report(report, "json", os.path.join(run_dir, "eval.json"))
    emit_report(report, "csv", os.path.join(run_dir, "eval.csv"))


def _cmd_unlearn(run_dir, config: ExperimentConfig, requests_path,
                 parallel: bool = False) -> None:
    if not requests_path:
        raise ContractError("unlearn requires --requests FILE")
    state, splits = load_state(run_dir, config)
    requests = load_requests(requests_path)
    outcome = execute_unlearn(state, requests, parallel=parallel)
    chash = config.config_hash()

    new_train = outcome.state.current_train_dataset()
    save_datasets(_path(run_dir, "dataset"),
                  {"train": new_train, "validation": splits["validation"],
                   "test": splits["test"]},
                  {"config_hash": chash, "stage": "preprocess"})
    save_assignment(_path(run_dir, "partition_csv"), _path(run_dir, "partition_bin"),
                    outcome.state.assignment,
                    {"config_hash": chash, "stage": "partition"})
    for k, model in enumerate(outcome.state.sub_models):
        if model is not state.sub_models[k]:
            save_checkpoint(model, _shard_path(run_dir, k),
                            {"config_hash": chash, "stage": "train-shards",
                             "shard_id": k, "seed": outcome.state.shard_configs[k].seed})
    save_centroid_state(_path(run_dir, "shard_centroids"), outcome.state.centroids,
                        {"config_hash": chash, "stage": "train-agg"})
    save_checkpoint(outcome.state.aggregation, _path(run_dir, "aggregation"),
                    {"config_hash": chash, "stage": "train-agg",
                     "seed": outcome.state.agg_config.seed})

    audit = {"config_hash": chash, "records": deletions_to_json(outcome.deletions)}
    write_atomic(_path(run_dir, "audit"),
                 (json.dumps(audit, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    emit_report(outcome.timing, "json", os.path.join(run_dir, "unlearn_timing.json"))


def _cmd_effectiveness(run_dir, config: ExperimentConfig) -> None:
    _require(run_dir, "audit")
    path = _path(run_dir, "audit")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg}", line_number=exc.lineno) from None
    if not isinstance(payload, dict) or not isinstance(payload.get("records"), list):
        raise ParseError(f"{path}: expected an object with a records list")
    if payload.get("config_hash") != config.config_hash():
        raise StageDependencyError("audit.json was produced under a different config")
    records = deletions_from_json(payload["records"])
    model = load_model(run_dir, config)
    for index, r in enumerate(records):
        for name, items in (("target_item", (r.target_item,)),
                            ("context_prefix", r.context_prefix),
                            ("context_full", r.context_full)):
            bad = [i for i in items if not 1 <= i <= model.num_items]
            if bad:
                raise ParseError(f"{path}: audit record {index}: {name} holds item "
                                 f"{bad[0]}, outside the vocabulary 1..{model.num_items}")
    report = hit_effectiveness(model, records,
                               ks=config["effectiveness.ks"],
                               context=config["effectiveness.context"])
    emit_report(report, "json", os.path.join(run_dir, "effectiveness.json"))
    emit_report(report, "csv", os.path.join(run_dir, "effectiveness.csv"))


def _cmd_bench(run_dir, config: ExperimentConfig, requests_path) -> None:
    if not requests_path:
        raise ContractError("bench requires --requests FILE")
    state, _ = load_state(run_dir, config)
    requests = load_requests(requests_path)
    report = benchmark_unlearn(state, requests)
    emit_report(report, "json", os.path.join(run_dir, "bench.json"))


def _write_csv(path, header: str, rows) -> None:
    body = "\n".join([header, *(",".join(str(v) for v in row) for row in rows)])
    write_atomic(path, (body + "\n").encode("utf-8"))


def _cmd_ablate(run_dir, config: ExperimentConfig, mode: str,
                shard_counts=(2, 4, 8, 16), deletion_range=(0, 1, 2, 3, 4, 5)) -> None:
    splits = _load_splits(run_dir, config)
    train, validation, test = splits["train"], splits["validation"], splits["test"]
    strategy = config["unlearn.strategy"]

    if mode == "shards":
        rows = []
        for k in shard_counts:
            state = fit_state(train, validation, config, k_override=k)
            report = evaluate(state.sru_model(), test, ks=(20,))
            requests = sample_requests(state.current_train_dataset(),
                                       count=min(20, len(train) // 4),
                                       strategy=strategy,
                                       n_extra=config["unlearn.n_extra"],
                                       seed=derive_seed(config.seed, f"ablate-shards-{k}"))
            outcome = execute_unlearn(state, requests)
            rows.append((k, f"{report.ndcg[20]:.6g}", f"{outcome.timing.total_ms:.6g}"))
        _write_csv(os.path.join(run_dir, "ablate_shards.csv"),
                   "k,ndcg_at_20,unlearn_ms", rows)
    elif mode == "partition":
        state = fit_state(train, validation, config)
        sru_report = evaluate(state.sru_model(), test, ks=(20,))
        sisa = sisa_baseline(train, config["partition.k"],
                             config.backbone_config("sisa"),
                             seed=derive_seed(config.seed, "sisa"))
        sisa_report = evaluate(sisa, test, ks=(20,))
        _write_csv(os.path.join(run_dir, "ablate_partition.csv"),
                   "method,recall_at_20",
                   [("similarity_partition", f"{sru_report.recall[20]:.6g}"),
                    ("random_partition", f"{sisa_report.recall[20]:.6g}")])
    elif mode == "deletion":
        state = fit_state(train, validation, config)
        base = sample_requests(state.current_train_dataset(),
                               count=min(200, len(train) // 2),
                               strategy=strategy, n_extra=0,
                               seed=derive_seed(config.seed, "ablate-deletion"),
                               min_target_position=2)
        rows = []
        ks = config["effectiveness.ks"]
        for n in deletion_range:
            requests = [replace(r, n_extra=n) for r in base]
            outcome = execute_unlearn(state, requests)
            report = hit_effectiveness(outcome.state.sru_model(), outcome.deletions,
                                       ks=ks, context=config["effectiveness.context"])
            rows.append((n, *(f"{report.hit[k]:.6g}" for k in ks)))
        _write_csv(os.path.join(run_dir, "ablate_deletion.csv"),
                   "n_extra," + ",".join(f"hit_at_{k}" for k in ks), rows)
    else:
        raise ContractError(f"unknown ablation {mode!r}; use shards, partition, or deletion")


def run_pipeline(subcommand: str, config: ExperimentConfig, run_dir,
                 requests_path=None, parallel: bool = False,
                 split_tag: str = "test", ablate_mode: str | None = None) -> int:
    """Dispatch one pipeline stage; returns a process exit status."""
    os.makedirs(run_dir, exist_ok=True)
    if subcommand == "preprocess":
        _cmd_preprocess(run_dir, config)
    elif subcommand == "pretrain":
        _cmd_pretrain(run_dir, config)
    elif subcommand == "partition":
        _cmd_partition(run_dir, config)
    elif subcommand == "train-shards":
        _cmd_train_shards(run_dir, config, parallel=parallel)
    elif subcommand == "train-agg":
        _cmd_train_agg(run_dir, config)
    elif subcommand == "eval":
        _cmd_eval(run_dir, config, split_tag=split_tag)
    elif subcommand == "unlearn":
        _cmd_unlearn(run_dir, config, requests_path, parallel=parallel)
    elif subcommand == "effectiveness":
        _cmd_effectiveness(run_dir, config)
    elif subcommand == "bench":
        _cmd_bench(run_dir, config, requests_path)
    elif subcommand == "ablate":
        _cmd_ablate(run_dir, config, ablate_mode or "shards")
    else:
        raise ContractError(f"unknown subcommand {subcommand!r}")
    return 0
