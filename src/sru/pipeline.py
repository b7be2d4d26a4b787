"""Staged experiment pipeline over on-disk artifacts.

Every stage consumes the artifacts of earlier stages inside one run
directory, stamps its outputs with the configuration hash, and refuses
to consume artifacts stamped with a different hash. Each artifact is one
file; ``ARTIFACTS`` names it and the stage that writes it, and ``_load``
and ``_save`` do all artifact I/O.
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
    check_config_hash,
    load_assignment,
    load_checkpoint,
    load_datasets,
    save_assignment,
    save_checkpoint,
    save_datasets,
    write_atomic,
)
from .config import ExperimentConfig
from .corpus import generate_synthetic, ingest_log, preprocess, read_text, split
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

# The run-directory layout: artifact name -> (file pattern, the stage that
# writes it). A pattern is formatted with the shard index.
ARTIFACTS = {
    "dataset": ("dataset.sru", "preprocess"),
    "reference": ("reference.sru", "pretrain"),
    "partition": ("partition.sru", "partition"),
    "shard": ("shard_{:03d}.sru", "train-shards"),
    "aggregation": ("aggregation.sru", "train-agg"),
    "audit": ("audit.json", "unlearn"),
}


def _path(run_dir, name: str, k: int = 0) -> str:
    return os.path.join(run_dir, ARTIFACTS[name][0].format(k))


def _load(run_dir, config: ExperimentConfig, name: str, k: int = 0, **options):
    """Load one artifact: its file must exist (else ``StageDependencyError``
    naming the stage that writes it), and it must carry the config's hash.
    ``options`` go to the loader, such as the ``splits`` of the dataset."""
    path = _path(run_dir, name, k)
    if not os.path.exists(path):
        raise StageDependencyError(f"missing artifact {os.path.basename(path)}; "
                                   f"run the '{ARTIFACTS[name][1]}' stage first")
    # Looked up on each call, so that a patched loader is the one called.
    loader = {"dataset": load_datasets, "partition": load_assignment,
              "audit": _read_audit}.get(name, load_checkpoint)
    return loader(path, expected_config_hash=config.config_hash(), **options)


def _save(run_dir, config: ExperimentConfig, name: str, obj, k: int = 0) -> None:
    """Write one artifact, stamped with the config hash and its stage;
    model checkpoints also carry their training seed, shards their index."""
    path = _path(run_dir, name, k)
    stamp = {"config_hash": config.config_hash(), "stage": ARTIFACTS[name][1]}
    if name in ("reference", "shard", "aggregation"):
        stamp["seed"] = obj.config.seed
        if name == "shard":
            stamp["shard_id"] = k
        save_checkpoint(obj, path, stamp)
    else:
        savers = {"dataset": save_datasets, "partition": save_assignment, "audit": _write_audit}
        savers[name](path, obj, stamp)


def _write_audit(path, deletions, stamp: dict) -> None:
    audit = {"config_hash": stamp["config_hash"], "records": deletions_to_json(deletions)}
    write_atomic(path, (json.dumps(audit, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _read_audit(path, expected_config_hash: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg}", line_number=exc.lineno) from None
    if not isinstance(payload, dict) or not isinstance(payload.get("records"), list):
        raise ParseError(f"{path}: expected an object with a records list")
    check_config_hash(payload, expected_config_hash, path)
    return deletions_from_json(payload["records"])


# -- phases, shared by the in-memory pipeline and the stages --------------------


def _pretrain(train, validation, config: ExperimentConfig):
    val = validation if config["backbone.early_stop"] else None
    return train_backbone(train, config.backbone_config("pretrain"), val_dataset=val)


def _partition(reference, train, config: ExperimentConfig, k: int | None = None):
    part_cfg = config.partition_config()
    if k is not None:
        part_cfg = replace(part_cfg, k=k)
    return balanced_kmeans(embed_all(reference, train), part_cfg)


def _train_shards(shards, config: ExperimentConfig):
    configs = [config.backbone_config(f"shard-{k}") for k in range(len(shards))]
    return train_many(shards, configs)


def _train_fusion(sub_models, shards, assignment, train, config: ExperimentConfig):
    """Centroid refresh, feature cache and fusion training."""
    agg_cfg = config.aggregation_config()
    centroids = compute_centroids(sub_models, shards, source=agg_cfg.centroid_source,
                                  reference_centroids=assignment.centroids)
    cache = build_feature_cache(sub_models, train)
    aggregation = train_aggregation(sub_models, centroids, train, agg_cfg,
                                    precomputed=(cache.features, cache.targets))
    return cache, aggregation


# -- in-memory pipeline (also used by the ablation recipes and tests) ----------


def fit_state(train, validation, config: ExperimentConfig,
              k_override: int | None = None) -> SruState:
    """Run pretraining, partitioning, shard training, and fusion training
    in memory and return the assembled framework state. Each model keeps
    the config it was trained under, and unlearning retrains it under that.
    The shards train across as many processes as ``train_many`` finds
    free cores for, with the same bytes as in process."""
    reference = _pretrain(train, validation, config)
    assignment = _partition(reference, train, config, k_override)
    shards = make_shards(train, assignment)
    sub_models = _train_shards(shards, config)
    cache, aggregation = _train_fusion(sub_models, shards, assignment, train, config)
    return SruState(reference_model=reference, corpus=train, assignment=assignment,
                    sub_models=sub_models, aggregation=aggregation, seed=config.seed,
                    feature_cache=cache)


# -- stage implementations -------------------------------------------------------


def _cmd_preprocess(run_dir, config: ExperimentConfig, **_) -> None:
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
        dataset = preprocess(ingest_log(read_text(source)), min_count=config["data.min_count"],
                             max_len=config["data.max_len"])
    train, validation, test = split(dataset, seed=derive_seed(config.seed, "split"))
    _save(run_dir, config, "dataset", {"train": train, "validation": validation, "test": test})


def _cmd_pretrain(run_dir, config: ExperimentConfig, **_) -> None:
    splits = _load(run_dir, config, "dataset", splits=["train", "validation"])
    _save(run_dir, config, "reference",
          _pretrain(splits["train"], splits["validation"], config))


def _cmd_partition(run_dir, config: ExperimentConfig, **_) -> None:
    train = _load(run_dir, config, "dataset", splits=["train"])["train"]
    reference = _load(run_dir, config, "reference")
    _save(run_dir, config, "partition", _partition(reference, train, config))


def _cmd_train_shards(run_dir, config: ExperimentConfig, **_) -> None:
    train = _load(run_dir, config, "dataset", splits=["train"])["train"]
    assignment = _load(run_dir, config, "partition")
    for k, model in enumerate(_train_shards(make_shards(train, assignment), config)):
        _save(run_dir, config, "shard", model, k)


def _cmd_train_agg(run_dir, config: ExperimentConfig, **_) -> None:
    train = _load(run_dir, config, "dataset", splits=["train"])["train"]
    assignment = _load(run_dir, config, "partition")
    sub_models = [_load(run_dir, config, "shard", k) for k in range(assignment.k)]
    _, aggregation = _train_fusion(sub_models, make_shards(train, assignment),
                                   assignment, train, config)
    _save(run_dir, config, "aggregation", aggregation)


def load_model(run_dir, config: ExperimentConfig) -> SruModel:
    """Load the predictor alone: the fusion layer with the centroids it
    was trained against, then its ``aggregation.k`` shard checkpoints,
    each checked against the config hash. The dataset, the reference
    encoder and the partition are not read."""
    aggregation = _load(run_dir, config, "aggregation")
    sub_models = [_load(run_dir, config, "shard", k) for k in range(aggregation.k)]
    return SruModel(sub_models=tuple(sub_models), aggregation=aggregation)


def load_state(run_dir, config: ExperimentConfig) -> tuple[SruState, dict]:
    """Reassemble the framework state from on-disk artifacts.

    Loads the dataset splits, the reference encoder and the partition,
    and takes the predictor from ``load_model``; K is the fusion layer's,
    and a partition with another K is a ``ContractError``. Each model
    carries the training config from its checkpoint, which unlearning
    retrains it under. The returned state has no feature cache:
    ``execute_unlearn`` builds it lazily, once, on the post-deletion
    sub-models.
    """
    splits = _load(run_dir, config, "dataset")
    reference = _load(run_dir, config, "reference")
    assignment = _load(run_dir, config, "partition")
    model = load_model(run_dir, config)
    if assignment.k != model.aggregation.k:
        raise ContractError(
            f"partition.sru has K={assignment.k} shards but aggregation.sru "
            f"has K={model.aggregation.k}"
        )
    state = SruState(reference_model=reference, corpus=splits["train"], assignment=assignment,
                     sub_models=list(model.sub_models), aggregation=model.aggregation,
                     seed=config.seed)
    return state, splits


def _cmd_eval(run_dir, config: ExperimentConfig, *, split_tag: str = "test", **_) -> None:
    split_data = _load(run_dir, config, "dataset", splits=[split_tag])[split_tag]
    report = evaluate(load_model(run_dir, config), split_data, ks=config["eval.ks"])
    emit_report(report, "json", os.path.join(run_dir, "eval.json"))
    emit_report(report, "csv", os.path.join(run_dir, "eval.csv"))


def _cmd_unlearn(run_dir, config: ExperimentConfig, *, requests_path=None, **_) -> None:
    if not requests_path:
        raise ContractError("unlearn requires --requests FILE")
    requests = load_requests(requests_path)
    state, splits = load_state(run_dir, config)
    outcome = execute_unlearn(state, requests)
    new = outcome.state
    _save(run_dir, config, "dataset", {**splits, "train": new.corpus})
    _save(run_dir, config, "partition", new.assignment)
    for k, model in enumerate(new.sub_models):
        if model is not state.sub_models[k]:
            _save(run_dir, config, "shard", model, k)
    _save(run_dir, config, "aggregation", new.aggregation)
    _save(run_dir, config, "audit", outcome.deletions)
    emit_report(outcome.timing, "json", os.path.join(run_dir, "unlearn_timing.json"))


def _cmd_effectiveness(run_dir, config: ExperimentConfig, **_) -> None:
    records = _load(run_dir, config, "audit")
    model = load_model(run_dir, config)
    _check_audit_items(_path(run_dir, "audit"), records, model.num_items)
    report = hit_effectiveness(model, records,
                               ks=config["effectiveness.ks"],
                               context=config["effectiveness.context"])
    emit_report(report, "json", os.path.join(run_dir, "effectiveness.json"))
    emit_report(report, "csv", os.path.join(run_dir, "effectiveness.csv"))


def _check_audit_items(path, records, num_items: int) -> None:
    """Every audited item must lie in 1..num_items; the first one outside
    is named with its record and field."""
    bad = next(((index, name, item) for index, r in enumerate(records)
                for name, items in (("target_item", (r.target_item,)),
                                    ("context_prefix", r.context_prefix),
                                    ("context_full", r.context_full))
                for item in items if not 1 <= item <= num_items), None)
    if bad is not None:
        index, name, item = bad
        raise ParseError(f"{path}: audit record {index}: {name} holds item "
                         f"{item}, outside the vocabulary 1..{num_items}")


def _cmd_bench(run_dir, config: ExperimentConfig, *, requests_path=None, **_) -> None:
    if not requests_path:
        raise ContractError("bench requires --requests FILE")
    requests = load_requests(requests_path)
    state, _ = load_state(run_dir, config)
    report = benchmark_unlearn(state, requests)
    emit_report(report, "json", os.path.join(run_dir, "bench.json"))


def _write_csv(path, header: str, rows) -> None:
    body = "\n".join([header, *(",".join(str(v) for v in row) for row in rows)])
    write_atomic(path, (body + "\n").encode("utf-8"))


def _cmd_ablate(run_dir, config: ExperimentConfig, mode: str | None,
                shard_counts=(2, 4, 8, 16), deletion_range=(0, 1, 2, 3, 4, 5), **_) -> None:
    if mode not in ("shards", "partition", "deletion"):
        raise ContractError(f"unknown ablation {mode!r}; use shards, partition, or deletion")
    splits = _load(run_dir, config, "dataset")
    train, validation, test = splits["train"], splits["validation"], splits["test"]
    strategy = config["unlearn.strategy"]

    if mode == "shards":
        rows = []
        for k in shard_counts:
            state = fit_state(train, validation, config, k_override=k)
            report = evaluate(state.sru_model(), test, ks=(20,))
            requests = sample_requests(state.corpus,
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
    else:
        state = fit_state(train, validation, config)
        base = sample_requests(state.corpus,
                               count=min(200, len(train) // 2),
                               strategy=strategy, n_extra=0,
                               seed=derive_seed(config.seed, "ablate-deletion"),
                               min_target_position=2)
        rows = []
        ks = config["effectiveness.ks"]
        for n in deletion_range:
            requests = [replace(r, n_extra=n) for r in base]
            # each call takes over a copy, so the base keeps its cache
            outcome = execute_unlearn(replace(state, feature_cache=state.feature_cache.copy()),
                                      requests)
            report = hit_effectiveness(outcome.state.sru_model(), outcome.deletions,
                                       ks=ks, context=config["effectiveness.context"])
            rows.append((n, *(f"{report.hit[k]:.6g}" for k in ks)))
        _write_csv(os.path.join(run_dir, "ablate_deletion.csv"),
                   "n_extra," + ",".join(f"hit_at_{k}" for k in ks), rows)


STAGES = {
    "preprocess": _cmd_preprocess,
    "pretrain": _cmd_pretrain,
    "partition": _cmd_partition,
    "train-shards": _cmd_train_shards,
    "train-agg": _cmd_train_agg,
    "eval": _cmd_eval,
    "unlearn": _cmd_unlearn,
    "effectiveness": _cmd_effectiveness,
    "bench": _cmd_bench,
    "ablate": _cmd_ablate,
}


def run_pipeline(subcommand: str, config: ExperimentConfig, run_dir,
                 requests_path=None, split_tag: str = "test",
                 ablate_mode: str | None = None) -> int:
    """Dispatch one pipeline stage; returns a process exit status. The
    stage runs under ``config.for_stage()``: its seed and hash are fixed
    when it starts."""
    if subcommand not in STAGES:
        raise ContractError(f"unknown subcommand {subcommand!r}")
    os.makedirs(run_dir, exist_ok=True)
    STAGES[subcommand](run_dir, config.for_stage(), requests_path=requests_path,
                       split_tag=split_tag, mode=ablate_mode)
    return 0
