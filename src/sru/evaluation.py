"""Ranking metrics, the unlearning-effectiveness audit, the random-shard
mean-aggregation baseline, and the retrain-vs-selective benchmark.

Logit arrays everywhere are id-indexed: entry v scores item v, entry 0
is the pad slot and is excluded from every ranking. Ranks use the
optimistic tie rule (one plus the count of strictly higher scores), and
rankings are over the whole item set with no seen-item filtering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import build_feature_cache
from .backbone import BackboneConfig, pad_prefixes, prefix_points, train_backbone, train_many
from .corpus import SessionDataset
from .errors import ContractError
from .numerics import RngStream, derive_seed, ndcg_gains, ranks_from_logits
from .reports import EffectivenessReport, RankingReport, TimingReport
from .unlearning import execute_unlearn

DEFAULT_KS = (10, 20)
DEFAULT_HIT_KS = (1, 5, 10, 20)


def _eval_points(dataset: SessionDataset):
    for session in dataset.sessions:
        for t in range(1, len(session)):
            yield session.items[:t], session.items[t]


def _predict_batch_of(predictor):
    """The predictor's ``predict_batch``, which maps a list of prefixes to
    an (n, |V| + 1) block of id-indexed logits; ContractError without one."""
    predict_batch = getattr(predictor, "predict_batch", None)
    if predict_batch is None:
        raise ContractError(f"a predictor needs a predict_batch method; "
                            f"{type(predictor).__name__} has none")
    return predict_batch


def _ranks_in_chunks(score, targets, chunk: int = 4096) -> np.ndarray:
    """Rank of each target in its row of score(start, stop), the logits
    block of points start:stop, taken at most ``chunk`` points a call."""
    ranks = np.empty(len(targets), dtype=np.int64)
    for start in range(0, len(targets), chunk):
        stop = min(start + chunk, len(targets))
        ranks[start:stop] = ranks_from_logits(score(start, stop), targets[start:stop])
    return ranks


def _ranks_for_points(predict_batch, points) -> np.ndarray:
    prefixes = [p for p, _ in points]
    targets = np.array([t for _, t in points], dtype=np.int64)
    return _ranks_in_chunks(lambda start, stop: predict_batch(prefixes[start:stop]), targets)


def _ranks_for_split(model, dataset: SessionDataset) -> np.ndarray:
    # the points of a contiguous range read a contiguous range of rows
    (ids, rows, lengths), targets = prefix_points(
        [s.items for s in dataset.sessions], model.max_len)

    def score(start, stop):
        first = rows[start]
        return model.predict_padded(ids[first : rows[stop - 1] + 1], rows[start:stop] - first,
                                    lengths[start:stop])

    return _ranks_in_chunks(score, targets)


def evaluate(predictor, dataset: SessionDataset, ks=DEFAULT_KS) -> RankingReport:
    """Score every (prefix, next-item) point of a held-out split.

    A predictor is read through one of two entry points. The library's
    models have ``predict_padded(ids, rows, lengths)``, which scores a
    ``backbone.pad_prefixes`` triple, and a ``max_len``: the split's
    points are built straight from its sessions by
    ``backbone.prefix_points``, one padded row per session plus a window
    row for each prefix longer than ``max_len``, so the GRU runs once
    per session and no prefix is sliced out. Any other predictor's
    ``predict_batch`` maps a list of the prefixes themselves to rows of
    id-indexed logits. Either way the points go in chunks of at most
    4096, in session index order, so the reduction is reproducible.
    """
    if dataset.split_tag not in ("validation", "test"):
        raise ContractError(
            f"evaluate expects a validation or test split, got {dataset.split_tag!r}"
        )
    if hasattr(predictor, "predict_padded"):
        ranks = _ranks_for_split(predictor, dataset)
    else:
        ranks = _ranks_for_points(_predict_batch_of(predictor), list(_eval_points(dataset)))
    if not ranks.size:
        raise ContractError("no evaluation points in dataset")
    recall = {}
    ndcg = {}
    for k in ks:
        recall[k] = float(np.mean(ranks <= k))
        ndcg[k] = float(ndcg_gains(ranks, k).mean())
    return RankingReport(recall=recall, ndcg=ndcg, evaluation_points=ranks.size)


def hit_effectiveness(predictor, deletion_results, ks=DEFAULT_HIT_KS,
                      context: str = "prefix") -> EffectivenessReport:
    """Fraction of deleted targets re-surfacing in the top-K.

    Each audited request feeds the unlearned model the items that
    survived deletion (by default only those before the target's
    original position) and checks whether the deleted target still ranks
    within K, ranked through the predictor's ``predict_batch``. Requests
    with an empty surviving context are skipped and counted separately.
    Lower hit ratios mean better unlearning.
    """
    predict_batch = _predict_batch_of(predictor)
    if context not in ("prefix", "full"):
        raise ContractError(f"context must be 'prefix' or 'full', got {context!r}")
    audited: list[tuple[tuple[int, ...], int]] = []
    skipped = 0
    for result in deletion_results:
        ctx = result.context_prefix if context == "prefix" else result.context_full
        if not ctx:
            skipped += 1
            continue
        audited.append((ctx, result.target_item))
    if not audited:
        raise ContractError("no requests with non-empty context to audit")
    ranks = _ranks_for_points(predict_batch, audited)
    hit = {k: float(np.mean(ranks <= k)) for k in ks}
    return EffectivenessReport(hit=hit, audited_requests=len(audited),
                               skipped_empty_prefix=skipped)


# -- random-shard mean-aggregation baseline ------------------------------------


@dataclass
class SisaModel:
    """Independent sub-models over random equal shards; prediction is the
    unweighted mean of the per-shard logits, with no trained fusion."""

    sub_models: tuple
    num_items: int

    @property
    def max_len(self) -> int:
        return self.sub_models[0].max_len

    def predict_batch(self, prefixes) -> np.ndarray:
        """The sub-models share the vocabulary and max_len, so the
        prefixes are padded once for all of them, one row per prefix."""
        return self.predict_padded(*pad_prefixes(self.sub_models[0], prefixes))

    def predict_padded(self, ids, rows, lengths) -> np.ndarray:
        """``predict_batch`` of the prefixes of a ``pad_prefixes`` triple."""
        acc = None
        for m in self.sub_models:
            block = m.predict_padded(ids, rows, lengths)
            acc = block if acc is None else acc + block
        return acc / len(self.sub_models)


def random_equal_shards(dataset: SessionDataset, k: int, seed: int) -> list[SessionDataset]:
    """Seeded shuffle into k shards whose sizes differ by at most one."""
    if k < 1:
        raise ContractError(f"shard count must be >= 1, got {k}")
    stream = RngStream(seed, "sisa/partition")
    perm = stream.permutation(len(dataset))
    return [
        dataset.with_sessions(dataset.sessions[int(i)] for i in np.sort(chunk))
        for chunk in np.array_split(perm, k)
    ]


def sisa_baseline(dataset: SessionDataset, k: int, config: BackboneConfig,
                  seed: int | None = None) -> SisaModel:
    """Train the random-partition, mean-of-logits ensemble; its shards
    train through ``train_many``, like SRU's."""
    seed = config.seed if seed is None else seed
    shards = random_equal_shards(dataset, k, seed)
    configs = [replace(config, seed=derive_seed(seed, f"sisa-shard-{i}"))
               for i in range(len(shards))]
    return SisaModel(sub_models=tuple(train_many(shards, configs)), num_items=dataset.num_items())


# -- efficiency benchmark --------------------------------------------------------


def benchmark_unlearn(state, requests) -> TimingReport:
    """Wall-clock of selective unlearning versus full retraining.

    Arm one runs execute_unlearn on the state. Arm two trains one
    backbone from scratch on the fully-deleted corpus (the classical
    response to the same requests) under the same training budget.
    Returns the selective timing with the full-retrain reference filled
    in; .speedup is the ratio.
    """
    if state.feature_cache is None:
        # built before the timer, so that the selective arm is timed on
        # the incremental cache update alone
        state = replace(state, feature_cache=build_feature_cache(
            state.sub_models, state.corpus))
    outcome = execute_unlearn(state, requests)

    config = replace(state.sub_models[0].config, seed=derive_seed(state.seed, "retrain"))
    started = time.perf_counter()
    train_backbone(outcome.state.corpus, config)
    full_ms = (time.perf_counter() - started) * 1e3

    return replace(outcome.timing, full_retrain_reference_ms=full_ms,
                   per_shard_ms=dict(outcome.timing.per_shard_ms))
