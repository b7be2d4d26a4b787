import json
import re
import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest

from sru.checkpoint import (
    load_assignment,
    load_container,
    load_datasets,
    save_assignment,
    save_checkpoint,
    save_container,
    save_datasets,
)
from sru.aggregation import AggregationConfig
from sru.backbone import BackboneConfig, train_backbone
from sru.cli import main
from sru.config import ExperimentConfig
from sru.errors import (
    ContractError,
    IntegrityError,
    ParseError,
    StageDependencyError,
    StaleArtifactError,
)
from sru.numerics import derive_seed
from sru.partition import PartitionConfig
from sru.pipeline import (
    ARTIFACTS,
    _check_audit_items,
    _load,
    _save,
    fit_state,
    load_state,
    run_pipeline,
)
from sru.unlearning import (
    DeletionResult,
    UnlearnRequest,
    deletions_to_json,
    execute_unlearn,
    sample_requests,
    save_requests,
)
from reference import assignment_from_members

TINY = {
    "seed": 7,
    "synthetic.sessions": 120,
    "synthetic.items": 40,
    "synthetic.clusters": 2,
    "synthetic.min_len": 6,
    "synthetic.max_len": 10,
    "backbone.d": 8,
    "backbone.epochs": 2,
    "partition.k": 2,
    "agg.f": 8,
    "agg.epochs": 2,
}


def tiny_config(**overrides):
    return ExperimentConfig.defaults(**{**TINY, **overrides})


CONFIG_TEXT = """
# desk-scale smoke configuration
seed = 7
synthetic.sessions = 120
synthetic.items = 40          # vocabulary size
synthetic.clusters = 2
synthetic.min_len = 6
synthetic.max_len = 10
backbone.d = 8
backbone.epochs = 2
partition.k = 2
agg.f = 8
agg.epochs = 2
"""


class TestConfig:
    def test_text_round_trip_matches_defaults_overrides(self):
        parsed = ExperimentConfig.from_text(CONFIG_TEXT)
        assert parsed.values == tiny_config().values
        assert parsed.config_hash() == tiny_config().config_hash()

    def test_unknown_key_cites_line(self):
        with pytest.raises(ParseError, match="unknown configuration key"):
            ExperimentConfig.from_text("no.such.key = 1\n")

    def test_bad_value_cites_line(self):
        with pytest.raises(ParseError, match="line 2"):
            ExperimentConfig.from_text("seed = 1\nbackbone.d = tiny\n")

    def test_unreadable_file_is_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r\xe9sum\xe9\nseed = 3\n".encode("latin-1"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*decode"):
            ExperimentConfig.from_file(path)
        with pytest.raises(ParseError, match=f"^{re.escape(str(tmp_path))}: Is a directory"):
            ExperimentConfig.from_file(tmp_path)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ContractError):
            ExperimentConfig.defaults(**{"unlearn.strategy": "ALL"})

    def test_seed_env_override(self, monkeypatch):
        config = tiny_config()
        assert config.seed == 7
        base_hash = config.config_hash()
        monkeypatch.setenv("SRU_SEED", "99")
        assert config.seed == 99
        assert config.config_hash() != base_hash
        monkeypatch.setenv("SRU_SEED", "seven")
        with pytest.raises(ContractError):
            _ = config.seed

    def test_hash_changes_with_values(self):
        assert tiny_config().config_hash() != tiny_config(seed=8).config_hash()

    def test_schema_defaults_agree_with_the_config_classes(self):
        # Every SCHEMA key that feeds a config field must give the bare
        # dataclass's value. The seed is derived per model and max_len
        # comes from the data keys, so neither is a default of its own.
        config = ExperimentConfig.defaults()
        derived = {"seed", "max_len"}
        for built, bare in ((config.backbone_config("pretrain"), BackboneConfig()),
                            (config.partition_config(), PartitionConfig()),
                            (config.aggregation_config(), AggregationConfig())):
            got = {k: v for k, v in asdict(built).items() if k not in derived}
            want = {k: v for k, v in asdict(bare).items() if k not in derived}
            assert got == want, type(bare).__name__


def run_stages(run_dir, config, stages):
    for stage in stages:
        assert run_pipeline(stage, config, run_dir) == 0


ALL_TRAIN_STAGES = ("preprocess", "pretrain", "partition", "train-shards", "train-agg")


class TestStages:
    def test_eval_before_train_agg_is_dependency_error(self, tmp_path):
        config = tiny_config()
        run_stages(tmp_path, config, ("preprocess",))
        with pytest.raises(StageDependencyError, match="train-agg|pretrain|partition"):
            run_pipeline("eval", config, tmp_path)

    def test_pretrain_requires_preprocess(self, tmp_path):
        with pytest.raises(StageDependencyError, match="preprocess"):
            run_pipeline("pretrain", tiny_config(), tmp_path)

    def test_full_pipeline_produces_artifacts_and_eval(self, tmp_path):
        config = tiny_config()
        run_stages(tmp_path, config, ALL_TRAIN_STAGES + ("eval",))
        for name in ("dataset.sru", "reference.sru", "partition.sru",
                     "shard_000.sru", "shard_001.sru", "aggregation.sru",
                     "eval.json", "eval.csv"):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "eval.json").read_text())
        assert "recall" in report and "ndcg" in report

    def test_repeat_runs_are_bitwise_identical(self, tmp_path):
        config = tiny_config()
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for run_dir in (dir_a, dir_b):
            run_stages(run_dir, config, ALL_TRAIN_STAGES + ("eval",))
        for name in ("dataset.sru", "reference.sru", "partition.sru",
                     "shard_000.sru", "shard_001.sru", "aggregation.sru", "eval.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_stale_artifact_refused_on_config_change(self, tmp_path):
        run_stages(tmp_path, tiny_config(), ("preprocess",))
        changed = tiny_config(**{"backbone.epochs": 3})
        with pytest.raises(StaleArtifactError):
            run_pipeline("pretrain", changed, tmp_path)

    def test_parallel_train_shards_matches_serial(self, tmp_path, cores):
        config = tiny_config()
        dir_a, dir_b = tmp_path / "serial", tmp_path / "parallel"
        for run_dir, cpus in ((dir_a, 1), (dir_b, 2)):
            cores(cpus)
            run_stages(run_dir, config, ("preprocess", "pretrain", "partition"))
            run_pipeline("train-shards", config, run_dir)
        assert cores.pools == [2]
        for name in ("shard_000.sru", "shard_001.sru"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.fixture(scope="module")
def unlearned_run(tmp_path_factory):
    """A tiny run directory after every training stage and one unlearn,
    with its request file; tests copy it before changing it."""
    run_dir = tmp_path_factory.mktemp("unlearned")
    config = tiny_config()
    run_stages(run_dir, config, ALL_TRAIN_STAGES)
    train = load_datasets(run_dir / "dataset.sru")["train"]
    save_requests(sample_requests(train, count=2, strategy="CED", n_extra=1, seed=3,
                                  min_target_position=2), run_dir / "requests.csv")
    assert run_pipeline("unlearn", config, run_dir,
                        requests_path=run_dir / "requests.csv") == 0
    return run_dir


def copied_run(source, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(source, run_dir)
    return run_dir


class TestStageDependencies:
    """A stage whose input is missing names the file and the stage that
    writes it."""

    def test_run_directory_holds_one_file_per_artifact(self, unlearned_run):
        artifacts = {pattern.format(k) for pattern, _ in ARTIFACTS.values() for k in range(2)}
        assert {p.name for p in unlearned_run.iterdir()} == \
            artifacts | {"requests.csv", "unlearn_timing.json"}

    @pytest.mark.parametrize("stage, missing, producer", [
        ("pretrain", "dataset.sru", "preprocess"),
        ("partition", "reference.sru", "pretrain"),
        ("train-shards", "partition.sru", "partition"),
        ("train-agg", "partition.sru", "partition"),
        ("train-agg", "shard_001.sru", "train-shards"),
        ("eval", "dataset.sru", "preprocess"),
        ("eval", "aggregation.sru", "train-agg"),
        ("eval", "shard_001.sru", "train-shards"),
        ("unlearn", "reference.sru", "pretrain"),
        ("unlearn", "partition.sru", "partition"),
        ("unlearn", "shard_001.sru", "train-shards"),
        ("unlearn", "aggregation.sru", "train-agg"),
        ("effectiveness", "audit.json", "unlearn"),
        ("effectiveness", "aggregation.sru", "train-agg"),
        ("bench", "partition.sru", "partition"),
    ])
    def test_missing_input_names_file_and_producing_stage(self, unlearned_run, tmp_path,
                                                         stage, missing, producer):
        run_dir = copied_run(unlearned_run, tmp_path)
        (run_dir / missing).unlink()
        expected = f"missing artifact {missing}; run the '{producer}' stage first"
        with pytest.raises(StageDependencyError, match=re.escape(expected)):
            run_pipeline(stage, tiny_config(), run_dir,
                         requests_path=run_dir / "requests.csv")


class TestStageConfig:
    def test_each_stage_hashes_the_config_once(self, tmp_path, monkeypatch):
        calls = []
        canonical_text = ExperimentConfig.canonical_text
        monkeypatch.setattr(ExperimentConfig, "canonical_text",
                            lambda self: calls.append(self) or canonical_text(self))
        config = tiny_config()
        requests = tmp_path / "requests.csv"
        for stage in (*ALL_TRAIN_STAGES, "eval", "unlearn", "effectiveness"):
            if stage == "unlearn":
                train = load_datasets(tmp_path / "dataset.sru")["train"]
                save_requests(sample_requests(train, count=2, strategy="CED", n_extra=1,
                                              seed=3, min_target_position=2), requests)
            calls.clear()
            assert run_pipeline(stage, config, tmp_path, requests_path=requests) == 0
            assert len(calls) == 1, stage

    def test_stage_config_reads_the_seed_override_once(self, monkeypatch):
        config = tiny_config()
        monkeypatch.setenv("SRU_SEED", "99")
        stage_config = config.for_stage()
        override_hash = config.config_hash()
        monkeypatch.delenv("SRU_SEED")
        assert stage_config == config
        assert stage_config.seed == 99 and config.seed == 7
        assert stage_config.config_hash() == override_hash != config.config_hash()
        assert stage_config.backbone_config("pretrain") == replace(
            config.backbone_config("pretrain"), seed=derive_seed(99, "pretrain"))


class TestDispatch:
    def test_unknown_subcommand_is_contract_error(self, tmp_path):
        with pytest.raises(ContractError, match="unknown subcommand 'train'"):
            run_pipeline("train", tiny_config(), tmp_path)

    def test_ablate_without_mode_is_contract_error(self, tmp_path):
        with pytest.raises(ContractError, match="unknown ablation None"):
            run_pipeline("ablate", tiny_config(), tmp_path)

    def test_eval_scores_the_requested_split(self, unlearned_run, tmp_path):
        config = tiny_config()
        run_dir = copied_run(unlearned_run, tmp_path)
        validation = load_datasets(run_dir / "dataset.sru")["validation"]
        assert run_pipeline("eval", config, run_dir, split_tag="validation") == 0
        report = json.loads((run_dir / "eval.json").read_text())
        assert report["evaluation_points"] == sum(len(s) - 1 for s in validation.sessions)

    def test_eval_of_unknown_split_is_parse_error(self, unlearned_run, tmp_path):
        run_dir = copied_run(unlearned_run, tmp_path)
        with pytest.raises(ParseError, match=r"dataset\.sru: no split 'holdout'"):
            run_pipeline("eval", tiny_config(), run_dir, split_tag="holdout")


class TestLossHistory:
    def test_loss_curves_survive_save_and_load(self, tmp_path):
        config = tiny_config(**{"backbone.early_stop": True})
        run_stages(tmp_path, config, ("preprocess",))
        data = _load(tmp_path, config, "dataset")
        state = fit_state(data["train"], data["validation"], config)
        models = [("reference", state.reference_model, 0),
                  *(("shard", m, k) for k, m in enumerate(state.sub_models)),
                  ("aggregation", state.aggregation, 0)]
        for name, model, k in models:
            assert model.loss_history
            _save(tmp_path, config, name, model, k)
            loaded = _load(tmp_path, config, name, k)
            assert loaded.loss_history == model.loss_history, (name, k)
            assert all(type(x) is float for x in loaded.loss_history)

    def test_best_epoch_survives_save_and_load(self, tmp_path):
        config = tiny_config(**{"backbone.early_stop": True, "backbone.epochs": 20,
                                "backbone.patience": 2, "backbone.lr": 0.1})
        run_stages(tmp_path, config, ("preprocess", "pretrain"))
        reference = _load(tmp_path, config, "reference")
        # one loss per epoch run, the epochs after the best included
        assert 1 <= reference.best_epoch < len(reference.loss_history) < 20
        # the restored parameters are the best epoch's: as many epochs
        # without a validation set give the same bytes
        train = _load(tmp_path, config, "dataset", splits=["train"])["train"]
        plain = train_backbone(train, replace(reference.config, epochs=reference.best_epoch))
        assert plain.best_epoch is None
        assert plain.params_bytes() == reference.params_bytes()


class TestUnlearnStage:
    def prepared(self, tmp_path, config):
        run_stages(tmp_path, config, ALL_TRAIN_STAGES)
        state, splits = load_state(tmp_path, config)
        return state, splits

    def test_unlearn_updates_artifacts_and_audits(self, tmp_path):
        config = tiny_config()
        state, _ = self.prepared(tmp_path, config)
        session = state.shards[0].sessions[0]
        requests = [UnlearnRequest(session.session_id, 2, "NED", 1)]
        req_path = tmp_path / "requests.csv"
        save_requests(requests, req_path)

        before = {k: (tmp_path / f"shard_{k:03d}.sru").read_bytes() for k in range(2)}
        assert run_pipeline("unlearn", config, tmp_path, requests_path=req_path) == 0

        audit = json.loads((tmp_path / "audit.json").read_text())
        assert len(audit["records"]) == 1
        assert audit["records"][0]["session_id"] == session.session_id
        timing = json.loads((tmp_path / "unlearn_timing.json").read_text())
        assert timing["total_ms"] > 0
        phases = ("centroid_refresh_ms", "feature_cache_ms", "fusion_training_ms")
        assert timing["aggregation_retrain_ms"] == pytest.approx(
            sum(timing[p] for p in phases), rel=1e-5)
        assert timing["sub_model_retrain_ms"] + sum(timing[p] for p in phases) \
            <= timing["total_ms"] * (1 + 1e-5)
        assert timing["retrain_workers"] == 1     # one shard retrains in process

        after = {k: (tmp_path / f"shard_{k:03d}.sru").read_bytes() for k in range(2)}
        assert after[0] != before[0]      # affected shard rewritten
        assert after[1] == before[1]      # untouched shard file untouched

        # the stored corpus no longer contains the deleted positions
        splits = load_datasets(tmp_path / "dataset.sru",
                               expected_config_hash=config.config_hash())
        stored = {s.session_id: s for s in splits["train"].sessions}
        assert len(stored[session.session_id]) == len(session) - 2

        # downstream stages still accept the rewritten artifacts
        assert run_pipeline("effectiveness", config, tmp_path) == 0
        report = json.loads((tmp_path / "effectiveness.json").read_text())
        assert report["audited_requests"] == 1
        assert run_pipeline("eval", config, tmp_path) == 0

    def test_load_state_leaves_feature_cache_unbuilt(self, tmp_path):
        state, _ = self.prepared(tmp_path, tiny_config())
        assert state.feature_cache is None

    def test_unlearn_stage_matches_in_memory_incremental_cache(self, tmp_path):
        # The stage builds the feature cache once on the post-deletion
        # models; in memory, fit_state's cache is updated incrementally.
        config = tiny_config()
        _, splits = self.prepared(tmp_path, config)
        requests = sample_requests(splits["train"], count=3, strategy="CED",
                                   n_extra=1, seed=5)
        req_path = tmp_path / "requests.csv"
        save_requests(requests, req_path)
        assert run_pipeline("unlearn", config, tmp_path, requests_path=req_path) == 0

        fitted = fit_state(splits["train"], splits["validation"], config)
        assert fitted.feature_cache is not None
        outcome = execute_unlearn(fitted, requests)
        in_memory = tmp_path / "in_memory_aggregation.sru"
        save_checkpoint(outcome.state.aggregation, in_memory,
                        {"config_hash": config.config_hash(), "stage": "train-agg",
                         "seed": outcome.state.agg_config.seed})
        assert (tmp_path / "aggregation.sru").read_bytes() == in_memory.read_bytes()

    def test_chained_unlearn_stages_match_in_memory(self, tmp_path):
        # Two unlearn stages, the first dropping a whole session, write the
        # same bytes as the same batches chained in memory and then saved.
        config = tiny_config()
        chash = config.config_hash()
        _, splits = self.prepared(tmp_path, config)
        state = fit_state(splits["train"], splits["validation"], config)
        for batch, seed in enumerate((5, 6)):
            train = load_datasets(tmp_path / "dataset.sru")["train"]
            requests = sample_requests(train, count=3, strategy="CED", n_extra=1, seed=seed)
            if batch == 0:
                taken = {r.session_id for r in requests}
                victim = next(s for s in train.sessions if s.session_id not in taken)
                requests.append(UnlearnRequest(victim.session_id, len(victim) - 1, "NED",
                                               len(victim)))
            save_requests(requests, tmp_path / f"requests_{batch}.csv")
            assert run_pipeline("unlearn", config, tmp_path,
                                requests_path=tmp_path / f"requests_{batch}.csv") == 0
            outcome = execute_unlearn(state, requests)
            assert any(d.dropped for d in outcome.deletions) == (batch == 0)
            state = outcome.state

        memory = tmp_path / "memory"
        corpus = state.current_train_dataset()
        save_datasets(memory / "dataset.sru",
                      {"train": corpus, "validation": splits["validation"],
                       "test": splits["test"]},
                      {"config_hash": chash, "stage": "preprocess"})
        position = {s.session_id: i for i, s in enumerate(corpus.sessions)}
        old = state.assignment
        members = [[position[s.session_id] for s in shard.sessions] for shard in state.shards]
        save_assignment(memory / "partition.sru",
                        assignment_from_members(members, old.centroids, old.iterations_run,
                                                old.delta, old.reseeds),
                        {"config_hash": chash, "stage": "partition"})
        for k, model in enumerate(state.sub_models):
            save_checkpoint(model, memory / f"shard_{k:03d}.sru",
                            {"config_hash": chash, "stage": "train-shards", "shard_id": k,
                             "seed": state.shard_configs[k].seed})
        save_checkpoint(state.aggregation, memory / "aggregation.sru",
                        {"config_hash": chash, "stage": "train-agg",
                         "seed": state.agg_config.seed})
        for name in ("dataset.sru", "partition.sru", "shard_000.sru", "shard_001.sru",
                     "aggregation.sru"):
            assert (tmp_path / name).read_bytes() == (memory / name).read_bytes(), name

    def test_bench_writes_reference_ratio(self, tmp_path):
        config = tiny_config()
        state, _ = self.prepared(tmp_path, config)
        session = state.shards[1].sessions[0]
        req_path = tmp_path / "requests.csv"
        save_requests([UnlearnRequest(session.session_id, 2, "CED", 1)], req_path)
        assert run_pipeline("bench", config, tmp_path, requests_path=req_path) == 0
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert bench["full_retrain_reference_ms"] > 0
        assert bench["total_ms"] >= bench["sub_model_retrain_ms"]
        assert bench["total_ms"] >= bench["aggregation_retrain_ms"]
        assert bench["speedup"] == pytest.approx(
            bench["full_retrain_reference_ms"] / bench["total_ms"], rel=5e-5)

    def test_bench_builds_feature_cache_outside_timed_unlearn(self, tmp_path, monkeypatch):
        # A loaded state has no feature cache; the timed execute_unlearn
        # must only update one, never build it from scratch.
        config = tiny_config()
        state, _ = self.prepared(tmp_path, config)
        session = state.shards[1].sessions[0]
        req_path = tmp_path / "requests.csv"
        save_requests([UnlearnRequest(session.session_id, 2, "CED", 1)], req_path)

        def no_build(*args, **kwargs):
            raise AssertionError("feature cache built inside the timed unlearn")

        monkeypatch.setattr("sru.unlearning.build_feature_cache", no_build)
        assert run_pipeline("bench", config, tmp_path, requests_path=req_path) == 0
        assert (tmp_path / "bench.json").exists()


class TestReadPath:
    """eval and effectiveness load the predictor alone: the fusion layer,
    with the centroids it was trained against, and its shard
    checkpoints."""

    def test_effectiveness_reads_no_dataset_reference_or_partition(self, tmp_path,
                                                                   monkeypatch):
        config = tiny_config()
        run_stages(tmp_path, config, ALL_TRAIN_STAGES)
        state, _ = load_state(tmp_path, config)
        requests = [UnlearnRequest(s.sessions[0].session_id, 2, "CED", 1) for s in state.shards]
        save_requests(requests, tmp_path / "requests.csv")
        assert run_pipeline("unlearn", config, tmp_path,
                            requests_path=tmp_path / "requests.csv") == 0
        (tmp_path / "reference.sru").unlink()
        (tmp_path / "partition.sru").unlink()

        def refuse(*args, **kwargs):
            raise AssertionError("effectiveness read the dataset or the partition")

        monkeypatch.setattr("sru.pipeline.load_datasets", refuse)
        monkeypatch.setattr("sru.pipeline.load_assignment", refuse)
        assert run_pipeline("effectiveness", config, tmp_path) == 0
        report = json.loads((tmp_path / "effectiveness.json").read_text())
        assert report["audited_requests"] == len(requests)

    def test_eval_reads_no_reference(self, tmp_path):
        config = tiny_config()
        run_stages(tmp_path, config, ALL_TRAIN_STAGES + ("eval",))
        before = (tmp_path / "eval.json").read_bytes()
        (tmp_path / "reference.sru").unlink()
        assert run_pipeline("eval", config, tmp_path) == 0
        assert (tmp_path / "eval.json").read_bytes() == before

    def test_partition_with_other_k_is_contract_error(self, tmp_path):
        config = tiny_config()
        run_stages(tmp_path, config, ALL_TRAIN_STAGES)
        path = tmp_path / "partition.sru"
        old = load_assignment(path)
        half = len(old.members[1]) // 2
        members = [old.members[0], old.members[1][:half], old.members[1][half:]]
        centroids = np.vstack([old.centroids, old.centroids[1:]])
        save_assignment(path,
                        assignment_from_members(members, centroids, old.iterations_run,
                                                old.delta, old.reseeds),
                        {"config_hash": config.config_hash(), "stage": "partition"})
        with pytest.raises(ContractError, match="K=3.*K=2"):
            load_state(tmp_path, config)

    def test_fusion_checkpoint_without_config_is_integrity_error(self, unlearned_run,
                                                                 tmp_path):
        # Retraining the fusion layer under the current config instead of
        # its own would silently break exact unlearning.
        run_dir = copied_run(unlearned_run, tmp_path)
        tensors, metadata = load_container(run_dir / "aggregation.sru")
        del metadata["agg_config"]
        save_container(run_dir / "aggregation.sru", tensors, metadata)
        with pytest.raises(IntegrityError, match=r"aggregation\.sru: no readable training "
                                                 r"config 'agg_config'"):
            load_state(run_dir, tiny_config())

    def test_fusion_checkpoint_recording_another_k_is_integrity_error(self, unlearned_run,
                                                                      tmp_path):
        # Read as recorded, k=1 would load one shard and then fail as a
        # partition mismatch; the loader names the file that is wrong.
        run_dir = copied_run(unlearned_run, tmp_path)
        tensors, metadata = load_container(run_dir / "aggregation.sru")
        save_container(run_dir / "aggregation.sru", tensors, {**metadata, "k": 1})
        with pytest.raises(IntegrityError, match=r"aggregation\.sru: the tensors disagree "
                                                 r"with the recorded sizes \{'k': 1,"):
            load_state(run_dir, tiny_config())

    def test_cli_names_a_fusion_file_without_centroids(self, unlearned_run, tmp_path,
                                                       capsys):
        # A fusion layer stored apart from its centroids, as run directories
        # once held it, could be paired with centroids of another generation.
        run_dir = copied_run(unlearned_run, tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        path = run_dir / "aggregation.sru"
        tensors, metadata = load_container(path)
        save_container(path, {n: t for n, t in tensors.items() if n != "centroids"}, metadata)
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path), "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: the tensors disagree") and "Traceback" not in err
        assert "centroids is absent, expected (2, 8)" in err

    def test_partition_of_another_corpus_is_contract_error(self, tmp_path):
        # A whole partition that is one session short of the corpus.
        config = tiny_config()
        run_stages(tmp_path, config, ALL_TRAIN_STAGES)
        path = tmp_path / "partition.sru"
        old = load_assignment(path)
        last = len(old.shard_of) - 1
        members = [[i for i in m if i != last] for m in old.members]
        save_assignment(path,
                        assignment_from_members(members, old.centroids, old.iterations_run,
                                                old.delta, old.reseeds),
                        {"config_hash": config.config_hash(), "stage": "partition"})
        with pytest.raises(ContractError, match="covers"):
            load_state(tmp_path, config)

    def test_cli_names_a_corrupt_partition(self, unlearned_run, tmp_path, capsys):
        # One flipped byte: exit status 1 and an error line naming the file.
        run_dir = copied_run(unlearned_run, tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        path = run_dir / "partition.sru"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 1
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["train-agg", "--config", str(config_path),
                     "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: checksum mismatch") and "Traceback" not in err


class TestAuditFile:
    """effectiveness reads audit.json before any model artifact, so a bad
    file fails with ParseError on an otherwise empty run directory."""

    RECORD = DeletionResult(session_id="s1", strategy="CED", n_extra=1, target_position=2,
                            target_item=7, deleted_positions=(1, 2), original_length=5,
                            dropped=False, context_prefix=(3,), context_full=(3, 8, 9))

    def write_audit(self, tmp_path, config, rows):
        text = json.dumps({"config_hash": config.config_hash(), "records": rows},
                          sort_keys=True, indent=2) + "\n"
        (tmp_path / "audit.json").write_text(text)
        return text

    def test_truncated_file_is_parse_error_with_line(self, tmp_path):
        config = tiny_config()
        text = self.write_audit(tmp_path, config, deletions_to_json([self.RECORD] * 2))
        (tmp_path / "audit.json").write_text(text[: len(text) // 2])
        with pytest.raises(ParseError) as info:
            run_pipeline("effectiveness", config, tmp_path)
        assert info.value.line_number == text[: len(text) // 2].count("\n") + 1

    def test_missing_field_is_parse_error_naming_record(self, tmp_path):
        config = tiny_config()
        rows = deletions_to_json([self.RECORD] * 2)
        del rows[1]["context_full"]
        self.write_audit(tmp_path, config, rows)
        with pytest.raises(ParseError, match=r"audit record 1: missing fields \['context_full'\]"):
            run_pipeline("effectiveness", config, tmp_path)

    def test_audit_of_another_config_is_stale(self, tmp_path):
        config = tiny_config()
        self.write_audit(tmp_path, tiny_config(seed=8), deletions_to_json([self.RECORD]))
        message = (f"{tmp_path / 'audit.json'} was produced under config hash "
                   f"{tiny_config(seed=8).config_hash()}, current is {config.config_hash()}; "
                   "rerun the upstream stage")
        with pytest.raises(StaleArtifactError, match=f"^{re.escape(message)}$"):
            run_pipeline("effectiveness", config, tmp_path)

    def test_records_must_be_a_list(self, tmp_path):
        config = tiny_config()
        (tmp_path / "audit.json").write_text("[]\n")
        with pytest.raises(ParseError, match="records list"):
            run_pipeline("effectiveness", config, tmp_path)

    def test_cli_reports_bad_audit_without_traceback(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        (tmp_path / "audit.json").write_text('{"config_hash": ')
        assert main(["effectiveness", "--config", str(config_path),
                     "--run-dir", str(tmp_path)]) == 1
        assert "error: line 1:" in capsys.readouterr().err


class TestAuditVocabulary:
    @pytest.mark.parametrize("field, value", [
        ("target_item", 99), ("target_item", 0), ("context_prefix", [3, 41]),
    ])
    def test_cli_rejects_item_outside_vocabulary(self, tmp_path, capsys, field, value):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        config = ExperimentConfig.from_file(str(config_path))
        run_stages(tmp_path, config, ALL_TRAIN_STAGES)
        record = {**deletions_to_json([TestAuditFile.RECORD])[0], field: value}
        TestAuditFile().write_audit(tmp_path, config, [record])
        assert main(["effectiveness", "--config", str(config_path),
                     "--run-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "audit record 0" in err and field in err
        assert "Traceback" not in err


class TestAuditItemCheck:
    RECORD = TestAuditFile.RECORD

    def test_names_the_first_item_outside_in_record_order(self):
        records = [self.RECORD,
                   replace(self.RECORD, context_prefix=(3, 5), context_full=(3, 0, 50)),
                   replace(self.RECORD, target_item=41)]
        with pytest.raises(ParseError, match=r"^audit\.json: audit record 1: context_full "
                                             r"holds item 0, outside the vocabulary 1\.\.40$"):
            _check_audit_items("audit.json", records, 40)

    def test_items_inside_pass(self):
        _check_audit_items("audit.json", [self.RECORD] * 3, 40)
        _check_audit_items("audit.json", [], 40)

    @pytest.mark.parametrize("item", [0, -3, 41, 10**22])
    def test_one_item_outside_fails(self, item):
        record = replace(self.RECORD, context_full=(3, item, 9))
        with pytest.raises(ParseError, match=f"audit record 1: context_full holds item {item},"):
            _check_audit_items("audit.json", [self.RECORD, record], 40)


class TestAblate:
    def test_partition_ablation_writes_csv(self, tmp_path):
        config = tiny_config()
        run_stages(tmp_path, config, ("preprocess",))
        assert run_pipeline("ablate", config, tmp_path, ablate_mode="partition") == 0
        lines = (tmp_path / "ablate_partition.csv").read_text().strip().split("\n")
        assert lines[0] == "method,recall_at_20"
        assert len(lines) == 3

    def test_shards_ablation_curve_shape(self, tmp_path):
        config = tiny_config()
        run_stages(tmp_path, config, ("preprocess",))
        from sru.pipeline import _cmd_ablate
        _cmd_ablate(tmp_path, config, "shards", shard_counts=(2, 4))
        lines = (tmp_path / "ablate_shards.csv").read_text().strip().split("\n")
        assert lines[0] == "k,ndcg_at_20,unlearn_ms"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [2, 4]

    def test_deletion_ablation_rows(self, tmp_path, monkeypatch):
        config = tiny_config()
        run_stages(tmp_path, config, ("preprocess",))
        from sru.pipeline import _cmd_ablate

        def no_build(*args):
            raise AssertionError("each unlearn call should update a copy of the fitted cache")

        monkeypatch.setattr("sru.unlearning.build_feature_cache", no_build)
        _cmd_ablate(tmp_path, config, "deletion", deletion_range=(0, 2))
        lines = (tmp_path / "ablate_deletion.csv").read_text().strip().split("\n")
        assert lines[0].startswith("n_extra,hit_at_1")
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 2]


class TestCli:
    def test_cli_runs_stage_and_reports_errors(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        run_dir = tmp_path / "run"
        assert main(["preprocess", "--config", str(config_path),
                     "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "dataset.sru").exists()

        # eval without upstream stages fails cleanly through the CLI
        assert main(["eval", "--config", str(config_path),
                     "--run-dir", str(run_dir)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["{sid},99,CED,0", "no-such-session,0,CED,0"])
    def test_cli_reports_bad_request_without_traceback(self, unlearned_run, tmp_path,
                                                       capsys, row):
        # A target past the end of its session, or an unknown session id:
        # exit status 1, one error line, and the run directory untouched.
        run_dir = copied_run(unlearned_run, tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        sid = load_datasets(run_dir / "dataset.sru")["train"].sessions[0].session_id
        requests = tmp_path / "bad.csv"
        requests.write_text("session_id,target_position,strategy,N\n"
                            + row.format(sid=sid) + "\n")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert main(["unlearn", "--config", str(config_path), "--run-dir", str(run_dir),
                     "--requests", str(requests)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize("argv, missing", [
        (["eval", "--config", "{tmp}/nope.cfg"], "nope.cfg"),
        (["unlearn", "--requests", "{tmp}/nope.csv"], "nope.csv"),
        (["bench", "--requests", "{tmp}/nope.csv"], "nope.csv"),
        (["preprocess", "--config", "{tmp}/tsv.cfg"], "nope.tsv"),
    ], ids=["config", "unlearn-requests", "bench-requests", "data-source"])
    def test_cli_names_a_missing_input_file(self, unlearned_run, tmp_path, capsys,
                                            monkeypatch, argv, missing):
        # exit status 1, one error line that starts with the path, and the
        # run directory untouched; the requests are read before any artifact
        run_dir = copied_run(unlearned_run, tmp_path)
        (tmp_path / "tsv.cfg").write_text(f"data.source = {tmp_path / 'nope.tsv'}\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if "--config" not in argv:
            (tmp_path / "exp.cfg").write_text(CONFIG_TEXT)
            argv += ["--config", str(tmp_path / "exp.cfg")]

        def refuse(*args, **kwargs):
            raise AssertionError("artifacts were read before the requests")

        monkeypatch.setattr("sru.pipeline.load_state", refuse)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / missing}: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_cli_env_seed_changes_artifacts(self, tmp_path, monkeypatch):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(CONFIG_TEXT)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["preprocess", "--config", str(config_path), "--run-dir", str(dir_a)]) == 0
        monkeypatch.setenv("SRU_SEED", "123")
        assert main(["preprocess", "--config", str(config_path), "--run-dir", str(dir_b)]) == 0
        assert (dir_a / "dataset.sru").read_bytes() != (dir_b / "dataset.sru").read_bytes()
