"""The library keeps one path per operation: predictors are scored only
through ``predict_batch``, and the single-prefix reference versions of the
batched paths live in ``tests/reference.py``, not under ``sru``."""

import dataclasses
import importlib

import pytest

import sru
from sru.aggregation import AggregationConfig, AggregationModel, SruModel
from sru.backbone import BackboneConfig, GruModel
from sru.evaluation import SisaModel
from sru.numerics import ParamStore
from sru.reports import TimingReport
from sru.unlearning import SruState

SINGLE_PREFIX_NAMES = {
    "aggregation": ("attention_scores", "fuse", "predict_output", "project"),
    "backbone": ("encode", "gru_cell", "gru_cell_backward", "gru_cell_forward", "score"),
    "corpus": ("dataset_to_raw",),
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


@pytest.mark.parametrize("model_class", [GruModel, SisaModel, SruModel],
                         ids=lambda c: c.__name__)
def test_model_predicts_only_in_batches(model_class):
    assert callable(getattr(model_class, "predict_batch", None))
    for name in ("predict", "__call__", "encode"):
        assert name not in vars(model_class), name


# Each fact has one stored form: a model stores its parameters and its
# config, and every size, config list and phase sum is read from them.
# The fusion layer also stores the centroids it was trained against,
# which the predictor and the state read from it.
STORED_FIELDS = {
    GruModel: {"store", "config", "loss_history", "best_epoch"},
    AggregationModel: {"store", "config", "centroids", "loss_history"},
    SruModel: {"sub_models", "aggregation"},
    SruState: {"reference_model", "corpus", "assignment", "sub_models", "aggregation",
               "seed", "feature_cache"},
    TimingReport: {"sub_model_retrain_ms", "total_ms", "full_retrain_reference_ms",
                   "per_shard_ms", "retrain_workers", "centroid_refresh_ms",
                   "feature_cache_ms", "fusion_training_ms"},
}


@pytest.mark.parametrize("cls", STORED_FIELDS, ids=lambda c: c.__name__)
def test_stored_fields_are_exactly_these(cls):
    assert {f.name for f in dataclasses.fields(cls)} == STORED_FIELDS[cls]


@pytest.mark.parametrize("cls", [BackboneConfig, AggregationConfig], ids=lambda c: c.__name__)
def test_configs_are_built_by_their_constructor_alone(cls):
    assert not hasattr(cls, "from_dict")
    assert cls(**cls().as_dict()) == cls()
