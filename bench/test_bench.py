"""Self-tests of the benchmark on a tiny config.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sru import pipeline, unlearning  # noqa: E402
from sru.config import ExperimentConfig  # noqa: E402

with open(bench_run.SPEC, encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def tiny_config():
    return ExperimentConfig.defaults(seed=5, **{
        "synthetic.sessions": 300, "synthetic.items": 30, "synthetic.clusters": 3,
        "partition.k": 3, "backbone.d": 8, "backbone.epochs": 1,
        "agg.epochs": 1, "agg.f": 8,
    })


def library_bindings() -> dict:
    """Every attribute of every loaded sru module, plus the traced methods."""
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "sru" or name.startswith("sru."))
        for attr, value in vars(module).items()
    }
    for short, cls_name, method in tracer.TRACED_METHODS:
        cls = getattr(sys.modules[f"sru.{short}"], cls_name)
        bindings[(cls_name, method)] = cls.__dict__[method]
    return bindings


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    args = bench_run.parse_args(["--workload", workload, "--seed", "5",
                                 "--seconds", "0", "--trace", str(trace)])
    status = bench_run.run_one(args, SPEC, nproc=1, config=tiny_config())
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0, [line for line in lines if line.startswith("FAILED")]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"metric {metric['name']} ")
                   and line.endswith(f" {metric['unit']}") for line in lines), metric
    assert any(line.startswith("failed_ratio 0 ratio") for line in lines)


def test_flipped_byte_in_a_retrained_shard_fails_c1(tmp_path):
    config = tiny_config()
    train, validation, _ = workloads.make_corpus(config)
    state = pipeline.fit_state(train, validation, config)
    request = workloads.rotated_requests(train, 1, seed=3)[0]
    outcome = unlearning.execute_unlearn(state, [request])
    assert workloads.exactness_failures(outcome.state) == []

    k = next(k for k, (old, new) in enumerate(zip(state.sub_models, outcome.state.sub_models))
             if old is not new)
    model = outcome.state.sub_models[k]
    flipped = replace(model, store=model.store.copy())
    flipped.store.params["E"].view(np.uint8)[1, 0] ^= 1
    models = list(outcome.state.sub_models)
    models[k] = flipped
    broken = replace(outcome.state, sub_models=models)

    run = workloads.Run("unlearn_single", config, 0, False, str(tmp_path))
    run.begin()
    failures = workloads.exactness_failures(broken)
    run.check("C1", not failures, ", ".join(failures))
    assert failures[0] == f"sub-model {k}"   # centroids and fusion then differ too
    assert run.failed == 1 and bench_run.ratio(run.failed, run.attempted) > 0


def test_failed_checks_fail_their_operation_once(tmp_path):
    run = workloads.Run("audit", tiny_config(), 0, False, str(tmp_path))
    for ok in (True, False):
        run.begin()
        run.check("first", ok)
        run.check("second", ok)
    assert (run.attempted, run.failed, len(run.failures)) == (2, 1, 2)


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = library_bindings()
    with tracer.Patch(tracer.Tracer()):
        assert sys.modules["sru.backbone"].sigmoid is not before[("sru.numerics", "sigmoid")]
        assert sys.modules["sru.pipeline"].fit_state is not before[("sru.pipeline", "fit_state")]
    run = workloads.execute("unlearn_single", tiny_config(), 0, True, str(tmp_path / "work"))
    assert run.failed == 0, run.failures
    assert any(span[0] == "execute_unlearn" for span in run.tracer.spans)
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [("a", 0.0, 10.0, -1, "op/0"), ("b", 1.0, 4.0, 0, "op/0"),
               ("c", 2.0, 3.0, 1, "op/0"), ("a", 20.0, 22.0, -1, "op/1")]
    values, iterations = tracer.summarize(t, "op/")
    assert iterations == 2
    assert values["a.s"] == pytest.approx((7.0 + 2.0) / 2)
    assert values["b.self_s"] == pytest.approx(2.0 / 2)
    assert values["c.total_s"] == pytest.approx(1.0 / 2)
    assert values["a.calls"] == 1.0


def test_refuses_to_run_with_sru_seed_set(monkeypatch, capsys):
    monkeypatch.setenv("SRU_SEED", "3")
    assert bench_run.main(["--workload", "audit"]) == 2
    assert "SRU_SEED" in capsys.readouterr().err
