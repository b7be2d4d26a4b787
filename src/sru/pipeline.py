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
from .backbone import train_many
from .checkpoint import (
    check_config_hash,
    load_assignment,
    load_checkpoint,
    load_datasets,
    load_embedding,
    save_assignment,
    save_checkpoint,
    save_datasets,
    save_embedding,
    write_atomic,
)
from .config import ExperimentConfig
from .corpus import generate_synthetic, ingest_log, parse_file, preprocess, split
from .errors import ContractError, ParseError, StageDependencyError, StaleArtifactError
from .evaluation import benchmark_unlearn, evaluate, hit_effectiveness, sisa_baseline
from .numerics import derive_seed
from .partition import balanced_kmeans, embed_all, fit_corpus_embedding, make_shards
from .reports import emit_report, write_csv
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
    loader = {"dataset": load_datasets, "reference": load_embedding,
              "partition": load_assignment, "audit": _read_audit}.get(name, load_checkpoint)
    return loader(path, expected_config_hash=config.config_hash(), **options)


def _save(run_dir, config: ExperimentConfig, name: str, obj, k: int = 0) -> None:
    """Write one artifact, stamped with the config hash and its stage. A
    model's seed is in its config, and a shard's index in its file name."""
    path = _path(run_dir, name, k)
    stamp = {"config_hash": config.config_hash(), "stage": ARTIFACTS[name][1]}
    savers = {"dataset": save_datasets, "reference": save_embedding,
              "partition": save_assignment, "audit": _write_audit}
    if name in savers:
        savers[name](path, obj, stamp)
    else:
        save_checkpoint(obj, path, stamp)


def _check_vocabulary(run_dir, dataset, name: str, num_items: int, k: int = 0) -> None:
    """An artifact fit on ``dataset.sru`` must have its vocabulary size.
    A dataset that ``preprocess`` rebuilt from a changed log under the
    same config carries the same hash, so this is what tells that the
    artifact is stale: a StaleArtifactError naming both files."""
    if num_items != dataset.num_items():
        raise StaleArtifactError(
            f"{_path(run_dir, 'dataset')} has {dataset.num_items()} items but "
            f"{_path(run_dir, name, k)} was fit on {num_items}; rerun the stages after "
            f"preprocess")


def _write_audit(path, deletions, stamp: dict) -> None:
    audit = {"config_hash": stamp["config_hash"], "records": deletions_to_json(deletions)}
    write_atomic(path, (json.dumps(audit, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _read_audit(path, expected_config_hash: str):
    def decode(text):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line_number=exc.lineno) from None
        if not isinstance(payload, dict) or not isinstance(payload.get("records"), list):
            raise ParseError("expected an object with a records list")
        check_config_hash(payload, expected_config_hash, path)
        return deletions_from_json(payload["records"])
    return parse_file(path, decode)


# -- phases, shared by the in-memory pipeline and the stages --------------------


def _pretrain(train, config: ExperimentConfig):
    return fit_corpus_embedding(train, config["backbone.d"])


def _partition(reference, train, config: ExperimentConfig):
    return balanced_kmeans(embed_all(reference, train), config.partition_config())


def _train_shards(shards, config: ExperimentConfig):
    configs = [config.backbone_config(f"shard-{k}") for k in range(len(shards))]
    return train_many(shards, configs)


def _train_fusion(sub_models, shards, train, config: ExperimentConfig):
    """Centroid refresh, feature cache and fusion training."""
    agg_cfg = config.aggregation_config()
    centroids = compute_centroids(sub_models, shards)
    cache = build_feature_cache(sub_models, train)
    aggregation = train_aggregation(sub_models, centroids, train, agg_cfg,
                                    precomputed=(cache.features, cache.targets, cache.rows))
    return cache, aggregation


# -- in-memory pipeline (also used by the ablation recipes and tests) ----------


def fit_state(train, validation, config: ExperimentConfig) -> SruState:
    """Fit the corpus embedding, then run partitioning, shard training,
    and fusion training in memory and return the assembled framework
    state. Each model keeps the config it was trained under, and
    unlearning retrains it under that. The shards train across as many
    processes as ``train_many`` finds free cores for, with the same bytes
    as in process. No phase reads ``validation``: it stays for callers of
    the three-argument form, and the ablate recipes pass None."""
    reference = _pretrain(train, config)
    assignment = _partition(reference, train, config)
    shards = make_shards(train, assignment)
    sub_models = _train_shards(shards, config)
    cache, aggregation = _train_fusion(sub_models, shards, train, config)
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
        dataset = preprocess(parse_file(source, ingest_log), min_count=config["data.min_count"],
                             max_len=config["data.max_len"])
    train, validation, test = split(dataset, seed=derive_seed(config.seed, "split"))
    _save(run_dir, config, "dataset", {"train": train, "validation": validation, "test": test})


def _cmd_pretrain(run_dir, config: ExperimentConfig, **_) -> None:
    train = _load(run_dir, config, "dataset", splits=["train"])["train"]
    _save(run_dir, config, "reference", _pretrain(train, config))


def _cmd_partition(run_dir, config: ExperimentConfig, **_) -> None:
    train = _load(run_dir, config, "dataset", splits=["train"])["train"]
    reference = _load(run_dir, config, "reference")
    _check_vocabulary(run_dir, train, "reference", reference.num_items)
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
    for k, model in enumerate(sub_models):
        _check_vocabulary(run_dir, train, "shard", model.num_items, k)
    _, aggregation = _train_fusion(sub_models, make_shards(train, assignment), train, config)
    _save(run_dir, config, "aggregation", aggregation)


def load_model(run_dir, config: ExperimentConfig) -> SruModel:
    """Load the predictor alone: the fusion layer with the centroids it
    was trained against, then its ``aggregation.k`` shard checkpoints,
    each checked against the config hash. The dataset, the corpus
    embedding and the partition are not read."""
    aggregation = _load(run_dir, config, "aggregation")
    sub_models = [_load(run_dir, config, "shard", k) for k in range(aggregation.k)]
    return SruModel(sub_models=tuple(sub_models), aggregation=aggregation)


def load_state(run_dir, config: ExperimentConfig) -> tuple[SruState, dict]:
    """Reassemble the framework state from on-disk artifacts.

    Loads the dataset splits, the corpus embedding and the partition,
    and takes the predictor from ``load_model``; K is the fusion layer's,
    and a partition with another K is a ``ContractError``. A corpus
    embedding or fusion layer of another vocabulary size than the
    dataset's is a ``StaleArtifactError``. Each model carries the
    training config from its checkpoint, which unlearning retrains it
    under. The returned state has no feature cache:
    ``execute_unlearn`` builds it lazily, once, on the post-deletion
    sub-models.
    """
    splits = _load(run_dir, config, "dataset")
    reference = _load(run_dir, config, "reference")
    assignment = _load(run_dir, config, "partition")
    model = load_model(run_dir, config)
    _check_vocabulary(run_dir, splits["train"], "reference", reference.num_items)
    _check_vocabulary(run_dir, splits["train"], "aggregation", model.num_items)
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
    model = load_model(run_dir, config)
    _check_vocabulary(run_dir, split_data, "aggregation", model.num_items)
    report = evaluate(model, split_data, ks=config["eval.ks"])
    emit_report(report, "json", os.path.join(run_dir, "eval.json"))
    emit_report(report, "csv", os.path.join(run_dir, "eval.csv"))


def _cmd_unlearn(run_dir, config: ExperimentConfig, *, requests_path=None, **_) -> None:
    if not requests_path:
        raise ContractError("unlearn requires --requests FILE")
    requests = load_requests(requests_path)
    state, splits = load_state(run_dir, config)
    outcome = execute_unlearn(state, requests)
    if not outcome.deletions:
        return   # nothing deleted: the run directory stays as it is
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


def _cmd_ablate(run_dir, config: ExperimentConfig, mode: str | None,
                shard_counts=(2, 4, 8, 16), deletion_range=(0, 1, 2, 3, 4, 5), **_) -> None:
    if mode not in ("shards", "partition", "deletion"):
        raise ContractError(f"unknown ablation {mode!r}; use shards, partition, or deletion")
    splits = _load(run_dir, config, "dataset", splits=["train", "test"])
    train, test = splits["train"], splits["test"]
    strategy = config["unlearn.strategy"]

    if mode == "shards":
        rows = []
        for k in shard_counts:
            state = fit_state(train, None,
                              ExperimentConfig({**config.values, "partition.k": k}))
            report = evaluate(state.sru_model(), test, ks=(20,))
            requests = sample_requests(state.corpus,
                                       count=min(20, len(train) // 4),
                                       strategy=strategy,
                                       n_extra=config["unlearn.n_extra"],
                                       seed=derive_seed(config.seed, f"ablate-shards-{k}"))
            outcome = execute_unlearn(state, requests)
            rows.append((k, f"{report.ndcg[20]:.6g}", f"{outcome.timing.total_ms:.6g}"))
        write_csv(os.path.join(run_dir, "ablate_shards.csv"),
                  ("k", "ndcg_at_20", "unlearn_ms"), rows)
    elif mode == "partition":
        state = fit_state(train, None, config)
        sru_report = evaluate(state.sru_model(), test, ks=(20,))
        sisa = sisa_baseline(train, config["partition.k"],
                             config.backbone_config("sisa"),
                             seed=derive_seed(config.seed, "sisa"))
        sisa_report = evaluate(sisa, test, ks=(20,))
        write_csv(os.path.join(run_dir, "ablate_partition.csv"),
                  ("method", "recall_at_20"),
                  [("similarity_partition", f"{sru_report.recall[20]:.6g}"),
                   ("random_partition", f"{sisa_report.recall[20]:.6g}")])
    else:
        state = fit_state(train, None, config)
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
        write_csv(os.path.join(run_dir, "ablate_deletion.csv"),
                  ("n_extra", *(f"hit_at_{k}" for k in ks)), rows)


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
    """Dispatch one pipeline stage; returns a process exit status. A run
    directory that cannot be made (an existing file, or a path beneath
    one) is a ContractError whose message starts with its path."""
    if subcommand not in STAGES:
        raise ContractError(f"unknown subcommand {subcommand!r}")
    try:
        os.makedirs(run_dir, exist_ok=True)
    except OSError as exc:
        raise ContractError(f"{run_dir}: not a usable run directory "
                            f"({exc.strerror or exc})") from None
    STAGES[subcommand](run_dir, config, requests_path=requests_path,
                       split_tag=split_tag, mode=ablate_mode)
    return 0
