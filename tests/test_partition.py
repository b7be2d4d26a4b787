import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sru.partition
from sru.config import ExperimentConfig
from sru.corpus import ItemVocab, Session, SessionDataset, generate_synthetic
from sru.errors import ContractError
from sru.partition import (
    PartitionConfig,
    ShardAssignment,
    _assign,
    balanced_kmeans,
    cluster_purity,
    embed_all,
    fit_corpus_embedding,
    make_shards,
)
from reference import assign, assignment_from_members


def count_rows(data):
    """The dense L2-normalised session-by-item count matrix (n, V+1)."""
    X = np.zeros((len(data), data.num_items() + 1))
    for i, session in enumerate(data.sessions):
        for item in session.items:
            X[i, item] += 1.0
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def svd_factors(data, d):
    """U S and V of the count matrix's top d components, each V column
    flipped so that its largest-magnitude entry is positive."""
    U, S, Vt = np.linalg.svd(count_rows(data), full_matrices=False)
    V = Vt[:d].T
    signs = np.where(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return U[:, :d] * S[:d] * signs, V * signs, S[:d]


class TestCorpusEmbedding:
    def test_two_fits_give_the_same_bytes(self):
        data = generate_synthetic(150, 30, 3, seed=4)
        assert fit_corpus_embedding(data, 8).params_bytes() == \
            fit_corpus_embedding(data, 8).params_bytes()

    @pytest.mark.parametrize("entries", [1 << 16, 100])
    def test_basis_is_the_svd_right_singular_vectors(self, entries, monkeypatch):
        # 100 entries make blocks of 3 sessions, so the Gram matrix is
        # summed over many blocks
        monkeypatch.setattr(sru.partition, "_BLOCK_ENTRIES", entries)
        data = generate_synthetic(200, 30, 3, seed=6)
        embedding = fit_corpus_embedding(data, 10)
        US, V, S = svd_factors(data, 10)
        assert embedding.basis.shape == (31, 10) and embedding.scale.shape == (10,)
        assert embedding.basis.dtype == embedding.scale.dtype == np.float64
        np.testing.assert_allclose(embedding.basis, V, rtol=0, atol=1e-10)
        np.testing.assert_allclose(embedding.scale, S, rtol=0, atol=1e-10)
        np.testing.assert_allclose(embed_all(embedding, data), US, rtol=0, atol=1e-10)

    def test_item_factors_have_a_zero_pad_row(self):
        data = generate_synthetic(60, 20, 2, seed=2)
        embedding = fit_corpus_embedding(data, 6)
        assert not embedding.basis[0].any()
        np.testing.assert_array_equal(embedding.embeddings,
                                      embedding.basis * embedding.scale)
        assert not embedding.embeddings[0].any()

    def test_item_factors_are_computed_once(self):
        # every CED request reads them; they are formed once per embedding
        embedding = fit_corpus_embedding(generate_synthetic(60, 20, 2, seed=2), 6)
        first = embedding.embeddings
        assert embedding.embeddings is first
        assert first.tobytes() == (embedding.basis * embedding.scale).tobytes()
        with pytest.raises(ValueError):
            first[1, 0] = 1.0

    def test_components_beyond_the_vocabulary_are_zero(self):
        rng = np.random.default_rng(3)                   # V + 1 = 6 < d = 9
        data = SessionDataset(
            sessions=tuple(Session(f"s{i}", tuple(rng.integers(1, 6, size=rng.integers(2, 7))))
                           for i in range(40)),
            vocab=ItemVocab.from_tokens("abcde"))
        embedding = fit_corpus_embedding(data, 9)
        assert embedding.basis.shape == (6, 9)
        assert not embedding.basis[:, 5:].any() and not embedding.scale[5:].any()
        US, V, S = svd_factors(data, 5)
        np.testing.assert_allclose(embedding.basis[:, :5], V, rtol=0, atol=1e-10)
        np.testing.assert_allclose(embed_all(embedding, data)[:, :5], US, rtol=0, atol=1e-10)

    def test_components_beyond_the_rank_are_zero(self):
        # two distinct sessions span two directions
        data = generate_synthetic(2, 30, 2, seed=1)
        data = data.with_sessions([data.sessions[0], data.sessions[1]] * 3)
        embedding = fit_corpus_embedding(data, 4)
        assert np.count_nonzero(embedding.scale) == 2
        assert not embedding.basis[:, 2:].any()

    def test_a_vocabulary_past_the_krylov_cap_keeps_the_leading_components(self, monkeypatch):
        # 200 items > 8 d: the Gram matrix is never formed, and the four
        # planted-cluster components come out as the SVD's
        def no_gram(self):
            raise AssertionError("formed the (V, V) Gram matrix")

        monkeypatch.setattr(sru.partition._CountRows, "gram", no_gram)
        data = generate_synthetic(600, 200, 4, seed=0)
        embedding = fit_corpus_embedding(data, 8)
        assert fit_corpus_embedding(data, 8).params_bytes() == embedding.params_bytes()
        US, V, S = svd_factors(data, 8)
        np.testing.assert_allclose(embedding.basis[:, :4], V[:, :4], rtol=0, atol=1e-6)
        np.testing.assert_allclose(embedding.scale[:4], S[:4], rtol=0, atol=1e-10)
        np.testing.assert_allclose(embedding.scale, S, rtol=0, atol=1e-3)

    def test_a_krylov_basis_that_stops_growing_is_exact(self, monkeypatch):
        # rank 2: the basis holds the d = 4 seeded vectors and the two
        # directions of X^T X's range, then stops short of its 8-vector cap
        monkeypatch.setattr(sru.partition, "_KRYLOV_BLOCKS", 2)
        monkeypatch.setattr(sru.partition._CountRows, "gram", None)
        data = generate_synthetic(2, 30, 2, seed=1)
        data = data.with_sessions([data.sessions[0], data.sessions[1]] * 3)
        embedding = fit_corpus_embedding(data, 4)
        US, V, S = svd_factors(data, 2)
        assert np.count_nonzero(embedding.scale) == 2 and not embedding.basis[:, 2:].any()
        np.testing.assert_allclose(embedding.basis[:, :2], V, rtol=0, atol=1e-10)
        np.testing.assert_allclose(embedding.scale[:2], S, rtol=0, atol=1e-10)

    def test_width_below_one_rejected(self):
        with pytest.raises(ContractError, match="width must be >= 1"):
            fit_corpus_embedding(generate_synthetic(5, 20, 2, seed=0), 0)


class TestEmbedAll:
    def test_identical_sessions_identical_rows(self):
        data = generate_synthetic(6, 30, 2, seed=1)
        twin = data.sessions[0]
        clone = data.with_sessions([twin] * 4)
        H = embed_all(fit_corpus_embedding(data, 8), clone)
        for row in H[1:]:
            np.testing.assert_array_equal(row, H[0])

    def test_other_sessions_are_their_count_rows_times_the_basis(self):
        data = generate_synthetic(50, 30, 2, seed=2)
        embedding = fit_corpus_embedding(data.with_sessions(data.sessions[:30]), 8)
        held_out = data.with_sessions(data.sessions[30:])
        np.testing.assert_allclose(embed_all(embedding, held_out),
                                   count_rows(held_out) @ embedding.basis, rtol=0, atol=1e-12)

    def test_vocab_mismatch_rejected(self):
        data = generate_synthetic(5, 30, 2, seed=0)
        other = generate_synthetic(5, 40, 2, seed=0)
        with pytest.raises(ContractError):
            embed_all(fit_corpus_embedding(data, 4), other)


class TestBalancedKmeans:
    def test_single_shard_holds_everything(self):
        H = np.array([[0.0], [1.0], [4.0]])
        out = balanced_kmeans(H, PartitionConfig(k=1, seed=0))
        assert out.members == ((0, 1, 2),)
        np.testing.assert_allclose(out.centroids, [[5.0 / 3.0]])

    def test_two_tight_pairs(self):
        # hand simulation: ascending distance scan assigns each point to
        # its own pair's centroid
        H = np.array([[0.0], [1.0], [10.0], [11.0]])
        out = balanced_kmeans(H, PartitionConfig(k=2, delta=2, seed=0),
                              init_indices=[0, 2])
        assert out.members == ((0, 1), (2, 3))
        np.testing.assert_allclose(out.centroids, [[0.5], [10.5]])

    def test_capacity_overflow_goes_to_next_nearest(self):
        # hand simulation: 0 and 1 fill the first shard, so 2 lands on
        # the far shard even though it is nearer the first
        H = np.array([[0.0], [1.0], [2.0], [9.0]])
        out = balanced_kmeans(H, PartitionConfig(k=2, delta=2, seed=0),
                              init_indices=[0, 3])
        assert out.members == ((0, 1), (2, 3))

    def test_more_shards_than_points_rejected(self):
        with pytest.raises(ContractError):
            balanced_kmeans(np.zeros((2, 3)), PartitionConfig(k=3, seed=0))

    @pytest.mark.parametrize("delta", [0, -3])
    def test_capacity_below_one_rejected(self, delta):
        # a negative capacity once passed the config check and failed only
        # in the partition stage, after the reference encoder had trained;
        # None means ceil(|D| / k), which the config key writes as 0
        with pytest.raises(ContractError, match=f"delta must be >= 1 or None, got {delta}"):
            PartitionConfig(k=2, delta=delta)
        assert ExperimentConfig.defaults(**{"partition.delta": 0}).partition_config().delta is None

    @pytest.mark.parametrize("tol", [-1e-9, float("nan")])
    def test_negative_centroid_tolerance_rejected(self, tol):
        with pytest.raises(ContractError, match=f"centroid_tol must be >= 0, got {tol}"):
            PartitionConfig(k=2, centroid_tol=tol)
        assert PartitionConfig(k=2, centroid_tol=0.0).centroid_tol == 0.0

    def test_capacity_below_points_rejected(self):
        with pytest.raises(ContractError):
            balanced_kmeans(np.zeros((10, 2)), PartitionConfig(k=2, delta=4, seed=0))

    def test_empty_shard_reseeded(self):
        # identical points collapse every assignment onto shard 0 first,
        # forcing the reseed path
        H = np.zeros((3, 2))
        H[2] = 5.0
        out = balanced_kmeans(H, PartitionConfig(k=2, delta=3, seed=0),
                              init_indices=[0, 1])
        out.validate()
        assert out.reseeds
        assert all(len(m) > 0 for m in out.members)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_instances_keep_invariants(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 7) + 1))
        H = rng.normal(size=(n, d))
        config = PartitionConfig(k=k, seed=trial)
        out = balanced_kmeans(H, config)
        out.validate()  # disjoint, covering, capacity-bounded
        again = balanced_kmeans(H, config)
        assert out.members == again.members
        np.testing.assert_array_equal(out.centroids, again.centroids)

    def test_noise_free_two_clusters_recovered(self):
        data = generate_synthetic(400, 60, 2, noise_rate=0.0, seed=21)
        assignment = balanced_kmeans(embed_all(fit_corpus_embedding(data, 32), data),
                                     PartitionConfig(k=2, seed=7))
        purity = cluster_purity(assignment, [s.cluster for s in data.sessions])
        assert purity >= 0.9


class TestMakeShards:
    def test_single_shard_is_identity(self):
        data = generate_synthetic(10, 30, 2, seed=3)
        H = np.arange(10, dtype=float)[:, None]
        shards = make_shards(data, balanced_kmeans(H, PartitionConfig(k=1, seed=0)))
        assert len(shards) == 1
        assert shards[0].sessions == data.sessions

    def test_sizes_sum_to_dataset(self):
        data = generate_synthetic(23, 30, 2, seed=4)
        H = np.random.default_rng(0).normal(size=(23, 3))
        shards = make_shards(data, balanced_kmeans(H, PartitionConfig(k=4, seed=1)))
        assert sum(len(s) for s in shards) == 23

    def test_round_trip_reproduces_dataset(self):
        data = generate_synthetic(17, 30, 2, seed=5)
        H = np.random.default_rng(1).normal(size=(17, 2))
        assignment = balanced_kmeans(H, PartitionConfig(k=3, seed=2))
        shards = make_shards(data, assignment)
        rebuilt = [None] * 17
        for member, shard in zip(assignment.members, shards):
            for idx, session in zip(member, shard.sessions):
                rebuilt[idx] = session
        assert tuple(rebuilt) == data.sessions

    def test_coverage_mismatch_rejected(self):
        data = generate_synthetic(9, 30, 2, seed=6)
        H = np.random.default_rng(2).normal(size=(8, 2))
        assignment = balanced_kmeans(H, PartitionConfig(k=2, seed=0))
        with pytest.raises(ContractError):
            make_shards(data, assignment)


class TestAssign:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_scalar_scan(self, data):
        # Rounded distances tie often; delta from the tightest capacity up.
        n = data.draw(st.integers(1, 30), label="sessions")
        k = data.draw(st.integers(1, 6), label="shards")
        values = data.draw(st.lists(st.floats(0, 4), min_size=n * k, max_size=n * k))
        dist = np.round(np.array(values).reshape(n, k), data.draw(st.integers(0, 2)))
        delta = math.ceil(n / k) + data.draw(st.integers(0, 2), label="slack")
        got = _assign(dist, delta)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, assign(dist, delta))


class TestShardAssignment:
    def test_member_lists_rebuild_balanced_kmeans(self):
        H = np.random.default_rng(7).normal(size=(13, 3))
        assignment = balanced_kmeans(H, PartitionConfig(k=3, seed=4))
        rebuilt = assignment_from_members(
            assignment.members, assignment.centroids, assignment.iterations_run,
            assignment.delta, assignment.reseeds)
        assert rebuilt.shard_of.dtype == assignment.shard_of.dtype == np.int64
        np.testing.assert_array_equal(rebuilt.shard_of, assignment.shard_of)
        assert rebuilt.members == assignment.members

    @pytest.mark.parametrize("shard_of, delta, match", [
        ([0, -1, 1], 3, r"shard ids in 0\.\.2"),
        ([0, 3, 1], 3, r"shard ids in 0\.\.2"),
        ([[0, 1], [2, 0]], 3, "vector"),
        ([0, 2, 2, 1, 2], 2, "shard 2 exceeds capacity 2"),
    ])
    def test_construction_rejects_an_invalid_partition(self, shard_of, delta, match):
        with pytest.raises(ContractError, match=match):
            ShardAssignment(np.array(shard_of), np.zeros((3, 2)), 1, delta)

    def test_without_closes_the_gaps(self):
        centroids = np.zeros((3, 2))
        assignment = assignment_from_members([[0, 4], [1], [2, 3, 5]], centroids, 4, 3,
                                             ((1, 0, 2),))
        pruned = assignment.without({1, 3})
        assert pruned.shard_of.tolist() == [0, 2, 0, 2]
        assert pruned.members == ((0, 2), (), (1, 3))
        assert pruned.k == 3
        assert pruned.centroids is centroids
        assert (pruned.iterations_run, pruned.delta, pruned.reseeds) == (4, 3, ((1, 0, 2),))

    def test_no_sessions_keeps_every_shard(self):
        empty = ShardAssignment([], np.zeros((2, 1)), 1, 1)
        assert empty.shard_of.shape == (0,) and empty.shard_of.dtype == np.int64
        assert empty.k == 2 and empty.members == ((), ())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_without_matches_the_partition_of_the_kept_ids(self, data):
        k = data.draw(st.integers(1, 5), label="shards")
        shard_of = data.draw(st.lists(st.integers(0, k - 1), max_size=30), label="shard_of")
        delta = max(shard_of.count(c) for c in range(k)) + data.draw(st.integers(0, 2))
        dropped = data.draw(st.sets(st.sampled_from(range(len(shard_of)))) if shard_of
                            else st.just(set()), label="dropped")
        assignment = ShardAssignment(shard_of, np.arange(k * 2.0).reshape(k, 2), 3, delta,
                                     ((1, 0, 0),))
        for c, member in enumerate(assignment.members):
            assert member == tuple(i for i, s in enumerate(shard_of) if s == c)

        pruned = assignment.without(dropped)
        position = {i: p for p, i in enumerate(i for i in range(len(shard_of))
                                               if i not in dropped)}
        rebuilt = assignment_from_members(
            [[position[i] for i in member if i in position] for member in assignment.members],
            assignment.centroids, 3, delta, ((1, 0, 0),))
        np.testing.assert_array_equal(pruned.shard_of, rebuilt.shard_of)
        assert pruned.members == rebuilt.members
        assert all(list(m) == sorted(m) for m in pruned.members)
        assert (pruned.k, pruned.delta, pruned.iterations_run, pruned.reseeds) == \
            (k, delta, 3, ((1, 0, 0),))


class TestPurity:
    def test_perfect_split_scores_one(self):
        H = np.concatenate([np.zeros((5, 1)), np.ones((5, 1)) * 9])
        assignment = balanced_kmeans(H, PartitionConfig(k=2, delta=5, seed=0),
                                     init_indices=[0, 5])
        labels = [0] * 5 + [1] * 5
        assert cluster_purity(assignment, labels) == 1.0
