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
from .backbone import BackboneConfig, train_backbone
from .corpus import SessionDataset
from .errors import ContractError
from .numerics import RngStream, derive_seed, ndcg_gains, rank_from_logits, ranks_from_logits
from .reports import EffectivenessReport, RankingReport, TimingReport
from .unlearning import execute_unlearn

DEFAULT_KS = (10, 20)
DEFAULT_HIT_KS = (1, 5, 10, 20)


def rank_of_target(predict_fn, prefix, target: int) -> int:
    """Rank of the true next item under a predictor; whole item set,
    pad excluded."""
    return rank_from_logits(predict_fn(prefix), target)


def metrics_at_k(rank: int, k: int) -> tuple[float, float]:
    """(recall, ndcg) of a single-target ranking cut at k."""
    if rank < 1 or k < 1:
        raise ContractError(f"rank and K must be >= 1, got rank={rank}, K={k}")
    return float(rank <= k), float(ndcg_gains(rank, k))


def _eval_points(dataset: SessionDataset):
    for session in dataset.sessions:
        for t in range(1, len(session)):
            yield session.items[:t], session.items[t]


def _ranks_for_points(predict_fn, points, chunk: int = 4096) -> np.ndarray:
    prefixes = [p for p, _ in points]
    targets = np.array([t for _, t in points], dtype=np.int64)
    ranks = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), chunk):
        block_prefixes = prefixes[start : start + chunk]
        if hasattr(predict_fn, "predict_batch"):
            block = predict_fn.predict_batch(block_prefixes)
        else:
            block = np.stack([predict_fn(p) for p in block_prefixes])
        ranks[start : start + chunk] = ranks_from_logits(block, targets[start : start + chunk])
    return ranks


def evaluate(predict_fn, dataset: SessionDataset, ks=DEFAULT_KS) -> RankingReport:
    """Score every (prefix, next-item) point of a held-out split.

    predict_fn maps a prefix to id-indexed logits; objects exposing
    predict_batch are evaluated in chunks. The points of one session are
    prefixes of each other, so a model padding through
    ``backbone.pad_prefixes`` runs the GRU once per session in a chunk,
    not once per point. Points are visited in session index order so the
    reduction is reproducible.
    """
    if dataset.split_tag not in ("validation", "test"):
        raise ContractError(
            f"evaluate expects a validation or test split, got {dataset.split_tag!r}"
        )
    points = list(_eval_points(dataset))
    if not points:
        raise ContractError("no evaluation points in dataset")
    ranks = _ranks_for_points(predict_fn, points)
    recall = {}
    ndcg = {}
    for k in ks:
        recall[k] = float(np.mean(ranks <= k))
        ndcg[k] = float(ndcg_gains(ranks, k).mean())
    return RankingReport(recall=recall, ndcg=ndcg, evaluation_points=len(points))


def hit_effectiveness(predict_fn, deletion_results, ks=DEFAULT_HIT_KS,
                      context: str = "prefix") -> EffectivenessReport:
    """Fraction of deleted targets re-surfacing in the top-K.

    Each audited request feeds the unlearned model the items that
    survived deletion (by default only those before the target's
    original position) and checks whether the deleted target still ranks
    within K. Requests with an empty surviving context are skipped and
    counted separately. Lower hit ratios mean better unlearning.
    """
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
    ranks = _ranks_for_points(predict_fn, audited)
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

    def predict(self, prefix) -> np.ndarray:
        return self.predict_batch([prefix])[0]

    __call__ = predict

    def predict_batch(self, prefixes) -> np.ndarray:
        acc = None
        for m in self.sub_models:
            block = m.predict_batch(prefixes)
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
    """Train the random-partition, mean-of-logits ensemble."""
    seed = config.seed if seed is None else seed
    shards = random_equal_shards(dataset, k, seed)
    models = []
    for i, shard in enumerate(shards):
        shard_config = BackboneConfig(**{**config.as_dict(),
                                         "seed": derive_seed(seed, f"sisa-shard-{i}")})
        models.append(train_backbone(shard, shard_config))
    return SisaModel(sub_models=tuple(models), num_items=dataset.num_items())


# -- efficiency benchmark --------------------------------------------------------


def benchmark_unlearn(state, requests, retrain_config: BackboneConfig | None = None) -> TimingReport:
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

    config = retrain_config
    if config is None:
        base = state.shard_configs[0]
        config = BackboneConfig(**{**base.as_dict(), "seed": derive_seed(state.seed, "retrain")})
    full_dataset = outcome.state.corpus
    started = time.perf_counter()
    train_backbone(full_dataset, config)
    full_ms = (time.perf_counter() - started) * 1e3

    return replace(outcome.timing, full_retrain_reference_ms=full_ms,
                   per_shard_ms=dict(outcome.timing.per_shard_ms))
