"""The library keeps one path per operation: a model scores prefixes in
batches, never one prefix at a time, and ``evaluate`` and
``hit_effectiveness`` rank every predictor from a padded triple through
its ``predict_padded`` (``predict_batch`` pads a list of prefixes for
it); sessions become padded rows and points through
``backbone.prefix_points`` alone; ``execute_unlearn`` resolves and
applies a batch of deletions in one pass; and the
single-prefix reference versions of the batched paths, like every name
that only the tests use, live in ``tests/reference.py``, not under
``sru``."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import sru
from sru.aggregation import AggregationConfig, AggregationModel, ShardCentroids, SruModel
from sru.backbone import BackboneConfig, GruModel
from sru.config import SCHEMA, ExperimentConfig
from sru.corpus import SessionDataset
from sru.evaluation import SisaModel
from sru.numerics import ParamStore
from sru.partition import CorpusEmbedding
from sru.pipeline import _partition, _train_fusion, fit_state
from sru.reports import TimingReport
from sru.unlearning import SruState

SINGLE_PREFIX_NAMES = {
    "aggregation": ("attention_scores", "fuse", "predict_output", "project"),
    "backbone": ("encode", "gru_cell", "gru_cell_backward", "gru_cell_forward", "score"),
    "corpus": ("dataset_to_raw",),
    "errors": ("DeterminismError",),
    "evaluation": ("metrics_at_k", "rank_from_logits", "rank_of_target"),
    "numerics": ("finite_difference_check", "linear_forward_backward", "rank_from_logits",
                 "softmax"),
}


@pytest.mark.parametrize("module", sorted(SINGLE_PREFIX_NAMES))
def test_module_defines_no_single_prefix_twin(module):
    namespace = vars(importlib.import_module(f"sru.{module}"))
    assert [n for n in SINGLE_PREFIX_NAMES[module] if n in namespace] == []


def test_package_exports_no_single_prefix_twin():
    removed = {n for names in SINGLE_PREFIX_NAMES.values() for n in names}
    numerics = importlib.import_module("sru.numerics")
    assert sorted(removed & set(dir(sru))) == []
    assert sorted(removed & set(numerics.__all__)) == []
    assert not hasattr(ParamStore, "accumulate")


def test_param_store_has_one_constructor():
    # ParamStore(arrays) packs once; no store grows, repacks or checks
    # its own packing afterwards
    assert [n for n in ("add", "names", "_check_packed", "_pack") if hasattr(ParamStore, n)] == []


@pytest.mark.parametrize("model_class", [GruModel, SisaModel, SruModel],
                         ids=lambda c: c.__name__)
def test_model_predicts_only_in_batches(model_class):
    assert callable(getattr(model_class, "predict_batch", None))
    assert callable(getattr(model_class, "predict_padded", None))
    for name in ("predict", "__call__", "encode"):
        assert name not in vars(model_class), name


# Every predictor is ranked through predict_padded by one chunked ranker;
# the second protocol, predict_batch over lists of prefixes, and its
# helpers are gone from evaluation.
REMOVED_RANKING_PATHS = ("_eval_points", "_predict_batch_of", "_ranks_for_points",
                         "_ranks_for_split")


def test_predictors_have_one_ranking_path():
    namespace = vars(importlib.import_module("sru.evaluation"))
    assert [n for n in REMOVED_RANKING_PATHS if n in namespace] == []


# A named random stream is a plain numpy Generator from
# numerics.rng_stream; no class forwards to one, and the GRU trainer
# calls its loss and Adam step itself.
def test_random_streams_are_numpy_generators():
    numerics = importlib.import_module("sru.numerics")
    assert "RngStream" not in dir(sru)
    assert "RngStream" not in vars(numerics) and "RngStream" not in numerics.__all__
    assert sru.rng_stream is numerics.rng_stream
    assert isinstance(sru.rng_stream(0, "x"), np.random.Generator)
    assert "_batch_step" not in vars(importlib.import_module("sru.backbone"))


# execute_unlearn checks, selects and rewrites each request in one pass;
# the second pass over the batch and the strategy dispatcher are gone.
REMOVED_DELETION_PATHS = ("apply_deletion", "select_positions")


def test_unlearning_has_one_deletion_pass():
    namespace = vars(importlib.import_module("sru.unlearning"))
    assert [n for n in REMOVED_DELETION_PATHS if n in namespace] == []
    assert [n for n in REMOVED_DELETION_PATHS if n in dir(sru)] == []


# Whole sessions become padded rows and points in backbone.prefix_points
# alone; the builders that once did it beside it are gone.
REMOVED_POINT_BUILDERS = {
    "backbone": ("padded_items", "training_points"),
    "aggregation": ("_layout",),
}


@pytest.mark.parametrize("module", sorted(REMOVED_POINT_BUILDERS))
def test_sessions_have_one_point_builder(module):
    namespace = vars(importlib.import_module(f"sru.{module}"))
    assert [n for n in REMOVED_POINT_BUILDERS[module] if n in namespace] == []


# The fusion layer attends to one kind of centroid, each shard's mean
# state under its own sub-model, refit whenever that sub-model retrains;
# the partition's k-means centroids no longer reach it.
def test_centroids_have_one_source():
    assert not hasattr(importlib.import_module("sru.aggregation"), "CENTROID_SOURCES")
    assert "centroid_source" not in {f.name for f in dataclasses.fields(AggregationConfig)}
    assert [key for key in SCHEMA if "centroid" in key] == []
    assert list(inspect.signature(_train_fusion).parameters) == [
        "sub_models", "shards", "train", "config"]


def test_fit_state_takes_the_shard_count_from_its_config():
    assert list(inspect.signature(fit_state).parameters) == ["train", "validation", "config"]
    assert list(inspect.signature(_partition).parameters) == ["reference", "train", "config"]


# Each fact has one stored form: a model stores its parameters and its
# config, and every size, config list and phase sum is read from them.
# The fusion layer also stores the centroids it was trained against,
# which the predictor and the state read from it. A GRU config holds no
# dtype: every model is float32.
STORED_FIELDS = {
    BackboneConfig: {"d", "max_len", "epochs", "batch_size", "lr", "seed"},
    GruModel: {"store", "config", "loss_history"},
    CorpusEmbedding: {"basis", "scale"},
    AggregationModel: {"store", "config", "centroids", "loss_history"},
    ShardCentroids: {"c"},
    SruModel: {"sub_models", "aggregation"},
    SessionDataset: {"sessions", "vocab", "split_tag"},
    ExperimentConfig: {"values"},
    SruState: {"reference_model", "corpus", "assignment", "sub_models", "aggregation",
               "seed", "feature_cache"},
    TimingReport: {"sub_model_retrain_ms", "total_ms", "full_retrain_reference_ms",
                   "per_shard_ms", "retrain_workers", "centroid_refresh_ms",
                   "feature_cache_ms", "fusion_training_ms"},
}


@pytest.mark.parametrize("cls", STORED_FIELDS, ids=lambda c: c.__name__)
def test_stored_fields_are_exactly_these(cls):
    assert {f.name for f in dataclasses.fields(cls)} == STORED_FIELDS[cls]


def test_models_have_one_dtype():
    assert not hasattr(BackboneConfig, "np_dtype")


@pytest.mark.parametrize("cls", [BackboneConfig, AggregationConfig], ids=lambda c: c.__name__)
def test_configs_are_built_by_their_constructor_alone(cls):
    assert not hasattr(cls, "from_dict")
    assert cls(**cls().as_dict()) == cls()
