"""The library keeps one path per operation: predictors are scored only
through ``predict_batch``, and the single-prefix reference versions of the
batched paths live in ``tests/reference.py``, not under ``sru``."""

import importlib

import pytest

import sru
from sru.aggregation import SruModel
from sru.backbone import GruModel
from sru.evaluation import SisaModel
from sru.numerics import ParamStore

SINGLE_PREFIX_NAMES = {
    "aggregation": ("attention_scores", "fuse", "predict_output", "project"),
    "backbone": ("encode", "gru_cell", "score"),
    "corpus": ("dataset_to_raw",),
    "evaluation": ("metrics_at_k", "rank_from_logits", "rank_of_target"),
    "numerics": ("linear_forward_backward", "rank_from_logits", "softmax"),
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
