import functools
import types
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sru import evaluation
from sru.aggregation import (
    AggregationConfig,
    ShardCentroids,
    SruModel,
    init_aggregation_model,
)
from sru.backbone import (
    BackboneConfig,
    init_gru_model,
    pad_prefixes,
    prefix_points,
    train_backbone,
)
from sru.corpus import ItemVocab, Session, SessionDataset, generate_synthetic
from sru.errors import ContractError
from sru.evaluation import (
    SisaModel,
    evaluate,
    hit_effectiveness,
    random_equal_shards,
    sisa_baseline,
)
from sru.numerics import ndcg_gains, ranks_from_logits
from reference import FixedPredictor, evaluate_by_prefixes, hit_effectiveness_by_prefixes


def sort_rank_oracle(logits, target):
    """Independent route: sort ascending, count strictly greater via
    searchsorted."""
    items = np.sort(np.asarray(logits)[1:])
    greater = items.size - np.searchsorted(items, logits[target], side="right")
    return int(1 + greater)


def rank_of(logits, target):
    """The pipeline's rank of one prediction: a one-row block."""
    return int(ranks_from_logits(np.asarray(logits)[None, :], [target])[0])


def cutoff_metrics(rank, k):
    """(recall, ndcg) at k of one rank, as evaluate computes them."""
    ranks = np.array([rank])
    return float((ranks <= k)[0]), float(ndcg_gains(ranks, k)[0])


class TestRank:
    def test_strictly_highest_is_rank_one(self):
        logits = np.array([-np.inf, 0.1, 5.0, 0.3])
        assert rank_of(logits, 2) == 1

    def test_all_equal_is_rank_one_optimistic(self):
        logits = np.array([-np.inf, 2.0, 2.0, 2.0])
        for target in (1, 2, 3):
            assert rank_of(logits, target) == 1

    def test_matches_sort_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            logits = np.concatenate([[-np.inf], rng.normal(size=50)])
            target = int(rng.integers(1, 51))
            assert rank_of(logits, target) == sort_rank_oracle(logits, target)

    def test_pad_slot_never_counts(self):
        logits = np.array([np.inf, 1.0, 0.0])
        assert rank_of(logits, 1) == 1

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            rank_of(np.zeros(4), 4)

    def test_block_ranks_equal_single_row_ranks_with_ties(self):
        rng = np.random.default_rng(5)
        for rows, items in ((1, 3), (37, 12), (300, 50)):
            # few distinct values, so ties are frequent; the pad column
            # sometimes holds the row maximum
            block = rng.integers(0, 4, size=(rows, items + 1)).astype(np.float32)
            block[::3, 0] = 10.0
            targets = rng.integers(1, items + 1, size=rows)
            want = [sort_rank_oracle(row, t) for row, t in zip(block, targets)]
            assert ranks_from_logits(block, targets).tolist() == want

    def test_block_ranks_reject_out_of_range_targets(self):
        with pytest.raises(IndexError):
            ranks_from_logits(np.zeros((2, 4)), [1, 4])
        with pytest.raises(IndexError):
            ranks_from_logits(np.zeros((2, 4)), [0, 1])

    def test_rank_of_target_calls_predictor(self):
        # the target is ranked in the row predict_padded gives its prefix
        seen = []

        class Recording(FixedPredictor):
            def predict_padded(self, ids, rows, lengths):
                seen.extend(decoded_prefixes(ids, rows, lengths))
                return super().predict_padded(ids, rows, lengths)

        fixed = np.array([-np.inf, 1.0, 3.0, 2.0])
        report = hit_effectiveness(Recording(fixed), [FakeResult((1, 2), 3)], ks=(1, 2))
        assert seen == [(1, 2)]
        assert report.hit == {1: 0.0, 2: 1.0}


class TestMetricsAtK:
    def test_rank_one_is_perfect(self):
        assert cutoff_metrics(1, 10) == (1.0, 1.0)

    def test_rank_three_discount(self):
        recall, ndcg = cutoff_metrics(3, 10)
        assert recall == 1.0
        assert ndcg == pytest.approx(0.5)  # 1 / log2(4)

    def test_outside_cutoff_scores_zero(self):
        assert cutoff_metrics(21, 20) == (0.0, 0.0)

    @given(st.integers(1, 200), st.integers(1, 100), st.integers(1, 100))
    def test_monotone_in_k(self, rank, k1, k2):
        lo, hi = sorted((k1, k2))
        r_lo, n_lo = cutoff_metrics(rank, lo)
        r_hi, n_hi = cutoff_metrics(rank, hi)
        assert r_lo <= r_hi and n_lo <= n_hi

    def test_ndcg_bounded_by_recall(self):
        for rank in range(1, 40):
            recall, ndcg = cutoff_metrics(rank, 20)
            assert ndcg <= recall


def decoded_prefixes(ids, rows, lengths):
    """The prefixes of a ``pad_prefixes`` triple, as tuples of item ids."""
    return [tuple(ids[r, :n].tolist()) for r, n in zip(rows, lengths)]


class MemorizingPredictor:
    """Returns max logit at the true next item of the memorized session;
    its max_len covers the longest session, so no prefix is cut."""

    def __init__(self, dataset):
        self.lookup = {}
        self.num_items = dataset.num_items()
        self.max_len = max(map(len, dataset.sessions))
        for s in dataset.sessions:
            for t in range(1, len(s)):
                self.lookup[s.items[:t]] = s.items[t]

    def predict_padded(self, ids, rows, lengths):
        logits = np.zeros((len(rows), self.num_items + 1))
        logits[:, 0] = -np.inf
        for row, prefix in zip(logits, decoded_prefixes(ids, rows, lengths)):
            row[self.lookup[prefix]] = 10.0
        return logits


class TestEvaluate:
    def held_out(self, n=12, seed=0):
        data = generate_synthetic(n, 30, 2, noise_rate=0.0, seed=seed)
        return data.with_sessions(data.sessions, split_tag="test")

    def test_memorizing_predictor_scores_one(self):
        # colliding prefixes across sessions can push a true target to
        # rank 2, so only recall is exactly 1 here
        data = self.held_out()
        report = evaluate(MemorizingPredictor(data), data, ks=(10,))
        assert report.recall[10] == 1.0
        assert report.ndcg[10] > 0.95

    def test_mean_matches_bruteforce_recomputation(self):
        data = self.held_out(seed=3)
        table = {}

        def logits_of(prefix):
            key = tuple(prefix)
            if key not in table:
                gen = np.random.default_rng(abs(hash(key)) % 2**32)
                table[key] = np.concatenate([[-np.inf], gen.normal(size=30)])
            return table[key]

        class Predictor:
            num_items = 30
            max_len = max(map(len, data.sessions))

            def predict_padded(self, ids, rows, lengths):
                return np.stack([logits_of(p) for p in decoded_prefixes(ids, rows, lengths)])

        report = evaluate(Predictor(), data, ks=(5, 10))
        points = [(s.items[:t], s.items[t]) for s in data.sessions
                  for t in range(1, len(s))]
        for k in (5, 10):
            recalls = []
            ndcgs = []
            for prefix, target in points:
                rank = sort_rank_oracle(logits_of(prefix), target)
                recalls.append(1.0 if rank <= k else 0.0)
                ndcgs.append(1.0 / np.log2(1.0 + rank) if rank <= k else 0.0)
            assert abs(report.recall[k] - np.mean(recalls)) < 1e-9
            assert abs(report.ndcg[k] - np.mean(ndcgs)) < 1e-9
        assert report.evaluation_points == len(points)

    def test_invariant_to_session_order(self):
        data = self.held_out(seed=5)
        reversed_data = data.with_sessions(tuple(reversed(data.sessions)))
        predictor = MemorizingPredictor(data)
        a = evaluate(predictor, data, ks=(10,))
        b = evaluate(predictor, reversed_data, ks=(10,))
        assert a.recall == b.recall and a.ndcg == b.ndcg

    def test_train_split_rejected(self):
        data = generate_synthetic(5, 30, 2, seed=0)
        with pytest.raises(ContractError):
            evaluate(FixedPredictor(np.zeros(31)), data, ks=(10,))

    def test_empty_dataset_rejected(self):
        data = self.held_out().with_sessions([])
        with pytest.raises(ContractError):
            evaluate(FixedPredictor(np.zeros(31)), data, ks=(10,))


@st.composite
def ragged_splits(draw):
    """(num_items, max_len, sessions): a held-out split of one or more
    sessions of two items or more, some longer than max_len."""
    num_items = draw(st.integers(2, 12))
    max_len = draw(st.integers(2, 5))
    session = st.lists(st.integers(1, num_items), min_size=2, max_size=3 * max_len)
    return num_items, max_len, draw(st.lists(session, min_size=1, max_size=6))


def held_out_split(num_items, items):
    vocab = ItemVocab.from_tokens(str(v) for v in range(1, num_items + 1))
    sessions = tuple(Session(f"s{i}", tuple(row)) for i, row in enumerate(items))
    return SessionDataset(sessions, vocab, split_tag="test")


def library_models(num_items, max_len, seed):
    """A GruModel, an SruModel and a SisaModel over one vocabulary, in
    float32, the pipeline's dtype."""
    grus = [init_gru_model(num_items, BackboneConfig(d=4, max_len=max_len, seed=seed + j))
            for j in range(3)]
    fusion = init_aggregation_model(3, 4, num_items, AggregationConfig(f=4, seed=seed))
    c = np.random.default_rng(seed).normal(size=(3, 4)).astype(np.float32)
    fusion = replace(fusion, centroids=ShardCentroids(c))
    return grus[0], SruModel(tuple(grus), fusion), SisaModel(tuple(grus[1:]), num_items)


@st.composite
def audits(draw, num_items, max_len):
    """Deletion results whose contexts, some empty, some longer than
    max_len and some holding pad ids, lie in a vocabulary of num_items."""
    context = st.lists(st.integers(0, num_items), max_size=3 * max_len)
    result = st.builds(FakeResult, context, st.integers(1, num_items), context)
    return draw(st.lists(result, min_size=1, max_size=8))


class TestPointsPath:
    @settings(max_examples=60, deadline=None)
    @given(split=ragged_splits(), seed=st.integers(0, 2**16), chunk=st.integers(1, 7),
           data=st.data())
    @example(split=(6, 3, [[1, 2]]), seed=0, chunk=4096, data=None)
    @example(split=(6, 3, [[1, 2], [3, 4, 5, 6, 1, 2, 3], [2, 2, 2, 2, 2]]), seed=1, chunk=3,
             data=None)
    def test_reports_equal_those_of_the_prefix_lists(self, split, seed, chunk, data):
        # ranking each model from a padded triple gives the reports of
        # predict_batch over each point's prefix, however the points are
        # chunked
        num_items, max_len, items = split
        held_out = held_out_split(num_items, items)
        results = ([FakeResult((1, 2), 2), FakeResult((), 1, (3,) * 7)] if data is None
                   else data.draw(audits(num_items, max_len)))
        chunked = functools.partial(evaluation._ranks_in_chunks, chunk=chunk)
        for model in library_models(num_items, max_len, seed):
            name = type(model).__name__
            with mock.patch.object(evaluation, "_ranks_in_chunks", chunked):
                report = evaluate(model, held_out)
                audits_of = {context: hit_effectiveness(model, results, context=context)
                             for context in ("prefix", "full")
                             if any(getattr(r, f"context_{context}") for r in results)}
            assert report == evaluate_by_prefixes(model, held_out, evaluation.DEFAULT_KS,
                                                  chunk), name
            for context, audit in audits_of.items():
                assert audit == hit_effectiveness_by_prefixes(
                    model, results, evaluation.DEFAULT_HIT_KS, context, chunk), (name, context)

    @settings(max_examples=60, deadline=None)
    @given(split=ragged_splits(), seed=st.integers(0, 2**16))
    @example(split=(6, 3, [[1, 2]]), seed=0)
    @example(split=(6, 3, [[1, 2], [3, 4, 5, 6, 1, 2, 3], [2, 2, 2, 2, 2]]), seed=1)
    def test_points_score_as_their_prefixes(self, split, seed):
        # the triple built from the sessions gives each model the logits
        # of predict_batch over the points' prefixes, byte for byte
        num_items, max_len, items = split
        points = [(row[:t], row[t]) for row in items for t in range(1, len(row))]
        triple, targets = prefix_points(items, max_len)
        assert targets.tolist() == [target for _, target in points]
        for model in library_models(num_items, max_len, seed):
            got = model.predict_padded(*triple)
            want = model.predict_batch([prefix for prefix, _ in points])
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes(), type(model).__name__


    def test_chunks_hold_at_most_the_chunk_of_points(self):
        # a chunk boundary inside a session reads that session's rows in
        # both chunks
        model, _, _ = library_models(9, 3, seed=2)
        items = [[1, 2, 3, 4, 5, 6, 7], [8, 9, 1]]
        held_out = held_out_split(9, items)
        seen = []

        def predict_padded(ids, rows, lengths):
            seen.append([tuple(ids[r, :n]) for r, n in zip(rows, lengths)])
            return model.predict_padded(ids, rows, lengths)

        recording = mock.Mock(spec=["predict_padded", "max_len", "num_items"],
                              predict_padded=predict_padded, max_len=3, num_items=9)
        chunked = functools.partial(evaluation._ranks_in_chunks, chunk=4)
        with mock.patch.object(evaluation, "_ranks_in_chunks", chunked):
            report = evaluate(recording, held_out)
        assert seen == [[(1,), (1, 2), (1, 2, 3), (2, 3, 4)],
                        [(3, 4, 5), (4, 5, 6), (8,), (8, 9)]]
        assert report.evaluation_points == 8


class FakeResult:
    def __init__(self, context_prefix, target_item, context_full=None):
        self.context_prefix = tuple(context_prefix)
        self.context_full = tuple(context_full or context_prefix)
        self.target_item = target_item


class TestHitEffectiveness:
    LOGITS = np.concatenate([[-np.inf], np.array([0.5, 3.0, 2.0, 1.0, 0.1])])

    def fixed_predictor(self):
        return FixedPredictor(self.LOGITS)

    def test_full_length_cutoff_always_hits(self):
        results = [FakeResult((1, 2), t) for t in (1, 2, 3, 4, 5)]
        report = hit_effectiveness(self.fixed_predictor(), results, ks=(5,))
        assert report.hit[5] == 1.0

    def test_toy_model_matches_sort_oracle(self):
        # ranks under the fixed logits: item2 -> 1, item3 -> 2, item4 -> 3,
        # item1 -> 4, item5 -> 5
        results = [FakeResult((1,), t) for t in (2, 3, 4, 1, 5)]
        report = hit_effectiveness(self.fixed_predictor(), results, ks=(1, 2, 3))
        oracle_ranks = [sort_rank_oracle(self.LOGITS, r.target_item) for r in results]
        for k in (1, 2, 3):
            expected = np.mean([rank <= k for rank in oracle_ranks])
            assert report.hit[k] == pytest.approx(expected, abs=1e-9)
        assert report.hit[1] == pytest.approx(0.2)
        assert report.hit[3] == pytest.approx(0.6)

    def test_empty_context_skipped_and_counted(self):
        results = [FakeResult((), 1), FakeResult((2,), 1)]
        report = hit_effectiveness(self.fixed_predictor(), results, ks=(1,))
        assert report.audited_requests == 1
        assert report.skipped_empty_prefix == 1

    def test_full_context_flag(self):
        results = [FakeResult((), 2, context_full=(1, 3))]
        report = hit_effectiveness(self.fixed_predictor(), results, ks=(1,),
                                   context="full")
        assert report.audited_requests == 1

    def test_all_skipped_is_error(self):
        with pytest.raises(ContractError):
            hit_effectiveness(self.fixed_predictor(), [FakeResult((), 1)], ks=(1,))

    def test_hit_non_decreasing_in_k(self):
        rng = np.random.default_rng(2)
        results = [FakeResult((1,), int(rng.integers(1, 6))) for _ in range(40)]
        report = hit_effectiveness(self.fixed_predictor(), results, ks=(1, 2, 3, 4, 5))
        values = [report.hit[k] for k in (1, 2, 3, 4, 5)]
        assert values == sorted(values)


@pytest.mark.parametrize("missing", ["predict_padded", "max_len", "num_items"])
@pytest.mark.parametrize("entry", ["evaluate", "hit_effectiveness"])
def test_predictor_missing_a_protocol_part_is_contract_error(entry, missing):
    data = generate_synthetic(5, 30, 2, seed=0)
    held_out = data.with_sessions(data.sessions, split_tag="test")
    parts = {"predict_padded": FixedPredictor(np.zeros(31)).predict_padded,
             "max_len": 14, "num_items": 30}
    del parts[missing]
    predictor = types.SimpleNamespace(**parts)

    with pytest.raises(ContractError, match=f"SimpleNamespace has no {missing}$"):
        if entry == "evaluate":
            evaluate(predictor, held_out, ks=(10,))
        else:
            hit_effectiveness(predictor, [FakeResult((1, 2), 3)], ks=(1,))


class TestSisaBaseline:
    def test_single_shard_equals_backbone(self):
        data = generate_synthetic(30, 30, 2, noise_rate=0.1, seed=7)
        config = BackboneConfig(d=8, max_len=14, epochs=2, lr=3e-3, seed=4)
        sisa = sisa_baseline(data, 1, config, seed=4)
        from sru.numerics import derive_seed
        solo = train_backbone(data, BackboneConfig(
            d=8, max_len=14, epochs=2, lr=3e-3, seed=derive_seed(4, "sisa-shard-0")))
        prefix = data.sessions[0].items[:3]
        np.testing.assert_array_equal(sisa.predict_batch([prefix]),
                                      solo.predict_batch([prefix]))

    def test_shard_sizes_differ_by_at_most_one(self):
        data = generate_synthetic(23, 30, 2, seed=8)
        shards = random_equal_shards(data, 4, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_mean_of_logits_matches_bruteforce(self):
        data = generate_synthetic(24, 30, 2, noise_rate=0.1, seed=9)
        config = BackboneConfig(d=8, max_len=14, epochs=2, lr=3e-3, seed=5)
        sisa = sisa_baseline(data, 3, config, seed=6)
        prefix = data.sessions[0].items[:4]
        manual = np.mean([m.predict_batch([prefix])[0] for m in sisa.sub_models], axis=0)
        np.testing.assert_allclose(sisa.predict_batch([prefix])[0][1:], manual[1:], rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(num_items=st.integers(2, 40), d=st.sampled_from([3, 4, 8, 32]),
           k=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
    def test_logits_are_the_mean_of_the_sub_models_bytes(self, num_items, d, k, seed, data):
        # one stacked pass over all sub-models gives, byte for byte, the
        # sum of their own logits in sub-model order over their count
        config = BackboneConfig(d=d, max_len=4)
        models = tuple(init_gru_model(num_items, replace(config, seed=seed + j))
                       for j in range(k))
        sisa = SisaModel(models, num_items)
        prefix = st.lists(st.integers(0, num_items), max_size=9)
        triple = pad_prefixes(sisa, data.draw(st.lists(prefix, min_size=1, max_size=40)))
        total = models[0].predict_padded(*triple)
        for model in models[1:]:
            total = total + model.predict_padded(*triple)
        got = sisa.predict_padded(*triple)
        assert got.dtype == np.float32
        assert got.tobytes() == (total / k).tobytes()
