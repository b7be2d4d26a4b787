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
from .backbone import (
    BackboneConfig,
    encode_stacked,
    pad_prefixes,
    prefix_points,
    train_backbone,
    train_many,
)
from .corpus import SessionDataset
from .errors import ContractError
from .numerics import derive_seed, ndcg_gains, ranks_from_logits, rng_stream
from .reports import EffectivenessReport, RankingReport, TimingReport
from .unlearning import execute_unlearn

DEFAULT_KS = (10, 20)
DEFAULT_HIT_KS = (1, 5, 10, 20)


def _check_predictor(predictor) -> None:
    """ContractError naming the first of ``predict_padded``, ``max_len``
    and ``num_items``, the predictor protocol, that the predictor lacks."""
    for name in ("predict_padded", "max_len", "num_items"):
        if not hasattr(predictor, name):
            raise ContractError(f"a predictor needs predict_padded, max_len and num_items; "
                                f"{type(predictor).__name__} has no {name}")


def _ranks_in_chunks(predictor, padded, targets, chunk: int = 4096) -> np.ndarray:
    """Rank of each target in the row ``predictor.predict_padded`` gives
    its prefix of the triple (ids, rows, lengths), at most ``chunk``
    prefixes a call; rows is nondecreasing, as both builders of a triple
    make it, so a chunk reads a contiguous range of rows."""
    ids, rows, lengths = padded
    ranks = np.empty(len(targets), dtype=np.int64)
    for start in range(0, len(targets), chunk):
        stop = min(start + chunk, len(targets))
        first = rows[start]
        logits = predictor.predict_padded(ids[first : rows[stop - 1] + 1],
                                          rows[start:stop] - first, lengths[start:stop])
        ranks[start:stop] = ranks_from_logits(logits, targets[start:stop])
    return ranks


def evaluate(predictor, dataset: SessionDataset, ks=DEFAULT_KS) -> RankingReport:
    """Score every (prefix, next-item) point of a held-out split.

    A predictor has ``predict_padded(ids, rows, lengths)``, which maps a
    ``backbone.pad_prefixes`` triple to rows of id-indexed logits, a
    ``max_len`` and a ``num_items``. The split's points are built
    straight from its sessions by ``backbone.prefix_points``, one padded
    row per session plus a window row for each prefix longer than
    ``max_len``, so the GRU runs once per session and no prefix is
    sliced out. The points go in chunks of at most 4096, in session
    index order, so the reduction is reproducible.
    """
    _check_predictor(predictor)
    if dataset.split_tag not in ("validation", "test"):
        raise ContractError(
            f"evaluate expects a validation or test split, got {dataset.split_tag!r}"
        )
    padded, targets = prefix_points([s.items for s in dataset.sessions], predictor.max_len)
    ranks = _ranks_in_chunks(predictor, padded, targets)
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
    within K. The contexts are padded once by ``backbone.pad_prefixes``
    and ranked as ``evaluate`` ranks a split's points. Requests with an
    empty surviving context are skipped and counted separately. Lower
    hit ratios mean better unlearning.
    """
    _check_predictor(predictor)
    if context not in ("prefix", "full"):
        raise ContractError(f"context must be 'prefix' or 'full', got {context!r}")
    audited = []
    skipped = 0
    for result in deletion_results:
        ctx = result.context_prefix if context == "prefix" else result.context_full
        if not ctx:
            skipped += 1
            continue
        audited.append((ctx, result.target_item))
    if not audited:
        raise ContractError("no requests with non-empty context to audit")
    contexts, targets = zip(*audited)
    ranks = _ranks_in_chunks(predictor, pad_prefixes(predictor, contexts),
                             np.array(targets, dtype=np.int64))
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
        """``predict_padded`` of the prefixes that ``pad_prefixes`` pads."""
        return self.predict_padded(*pad_prefixes(self, prefixes))

    def predict_padded(self, ids, rows, lengths) -> np.ndarray:
        """Id-indexed logits of the prefixes of a ``pad_prefixes`` triple.

        The sub-models read the id matrix in one stacked pass; their
        logits rows are then summed in sub-model order and divided by
        their count.
        """
        H = encode_stacked(self.sub_models, ids, rows, lengths)
        acc = None
        for j, m in enumerate(self.sub_models):
            block = m.logits_of_states(H[:, j])
            acc = block if acc is None else acc + block
        return acc / len(self.sub_models)


def random_equal_shards(dataset: SessionDataset, k: int, seed: int) -> list[SessionDataset]:
    """Seeded shuffle into k shards whose sizes differ by at most one."""
    if k < 1:
        raise ContractError(f"shard count must be >= 1, got {k}")
    stream = rng_stream(seed, "sisa/partition")
    perm = stream.permutation(len(dataset))
    return [dataset.subset(np.sort(chunk).tolist()) for chunk in np.array_split(perm, k)]


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
