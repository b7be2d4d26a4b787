import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sru.aggregation import (
    AggregationConfig,
    init_aggregation_model,
    ShardCentroids,
    SruModel,
    _FusionPass,
    build_feature_cache,
    compute_centroid,
    compute_centroids,
    train_aggregation,
    updated_feature_cache,
)
from sru.backbone import (
    BackboneConfig,
    encode_stacked,
    init_gru_model,
    pad_prefixes,
    sequence_loss_and_grads,
    train_backbone,
)
from sru.config import ExperimentConfig
from sru.corpus import ItemVocab, Session, SessionDataset, generate_synthetic
from sru.errors import ContractError, DimensionError
from sru.evaluation import evaluate
from sru.numerics import (
    AdamState,
    ParamStore,
    _Buffers,
    adam_step,
    rng_stream,
)
from reference import (
    as_float64,
    attention_scores,
    copying_forward,
    copying_train_step,
    cross_entropy_rows,
    encode,
    finite_difference_check,
    fuse,
    packed_projection,
    predict_output,
    project,
    projection,
    reference_grads,
    unfolded_forward,
)
from test_backbone import allrows_prefix_states


class TestCentroid:
    def test_single_session_centroid_is_its_state(self):
        data = generate_synthetic(1, 30, 2, seed=0)
        model = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=1))
        c = compute_centroid(model, data)
        np.testing.assert_allclose(c, encode(model, data.sessions[0].items),
                                   rtol=1e-6, atol=1e-7)

    def test_centroid_matches_bruteforce_mean(self):
        data = generate_synthetic(5, 30, 2, seed=1)
        model = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=2))
        c = compute_centroid(model, data)
        manual = np.mean([encode(model, s.items) for s in data.sessions], axis=0)
        np.testing.assert_allclose(c, manual, rtol=1e-5, atol=1e-6)

    def test_empty_shard_is_the_zero_centroid(self):
        # the centroid init_aggregation_model starts from
        data = generate_synthetic(2, 30, 2, seed=0)
        model = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=1))
        c = compute_centroid(model, data.with_sessions([]))
        assert c.dtype == model.embeddings.dtype
        assert c.tobytes() == np.zeros(8, dtype=c.dtype).tobytes()

    def test_source_keywords_accept_only_the_submodel_source(self):
        # The benchmark harness still passes both keywords: "submodel"
        # gives the bytes of the bare call, reference_centroids unread,
        # and any other source fails.
        _, shards, models, _ = small_setup(num_sessions=24, k=3)
        ref = np.arange(24, dtype=np.float64).reshape(3, 8)
        bare = compute_centroids(models, shards)
        out = compute_centroids(models, shards, source="submodel", reference_centroids=ref)
        assert out.c.dtype == bare.c.dtype
        assert out.c.tobytes() == bare.c.tobytes()
        assert out.source == bare.source == ShardCentroids.source == "submodel"
        with pytest.raises(ContractError, match="unknown centroid source 'reference'"):
            compute_centroids(models, shards, source="reference", reference_centroids=ref)

    def test_refresh_recomputes_only_the_affected_shards(self, monkeypatch):
        data, shards, models, _ = small_setup(num_sessions=24, k=3)
        previous = compute_centroids(models, shards)
        shards = list(shards)
        shards[1] = shards[1].with_sessions(shards[1].sessions[1:])
        models = list(models)
        models[1] = train_backbone(shards[1], BackboneConfig(d=8, max_len=14, epochs=2, seed=8))
        full = compute_centroids(models, shards)

        calls = []

        def counted(model, shard):
            calls.append(model)
            return compute_centroid(model, shard)

        monkeypatch.setattr("sru.aggregation.compute_centroid", counted)
        refreshed = compute_centroids(models, shards, previous=previous, affected=[1])
        assert calls == [models[1]]
        assert refreshed.c.dtype == full.c.dtype
        assert refreshed.c.tobytes() == full.c.tobytes()
        assert previous.c.tobytes() != full.c.tobytes()      # not written in place


class TestProject:
    def test_identity_map(self):
        h = np.arange(4.0)
        c = np.ones(4)
        hp, cp = project(h, c, np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(hp, h)
        np.testing.assert_array_equal(cp, c)

    def test_same_input_same_output(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=5)
        W = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        hp, cp = project(h, h.copy(), W, b)
        np.testing.assert_array_equal(hp, cp)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        h, c = rng.normal(size=6), rng.normal(size=6)
        W, b = rng.normal(size=(6, 6)), rng.normal(size=6)
        hp, cp = project(h, c, W, b)
        np.testing.assert_allclose(hp, np.array([h @ W[:, j] + b[j] for j in range(6)]),
                                   rtol=1e-6)
        np.testing.assert_allclose(cp, c @ W + b, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            project(np.zeros(3), np.zeros(3), np.eye(4), np.zeros(4))


class TestAttention:
    def test_single_shard_gets_all_weight(self):
        rng = np.random.default_rng(2)
        a = attention_scores(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)),
                             rng.normal(size=(4, 3)), rng.normal(size=3),
                             rng.normal(size=3))
        np.testing.assert_allclose(a, [1.0])

    def test_identical_shards_uniform(self):
        rng = np.random.default_rng(3)
        h = np.tile(rng.normal(size=4), (3, 1))
        c = np.tile(rng.normal(size=4), (3, 1))
        a = attention_scores(h, c, rng.normal(size=(4, 2)), rng.normal(size=2),
                             rng.normal(size=2))
        np.testing.assert_allclose(a, np.full(3, 1.0 / 3.0), rtol=1e-6)

    def test_scalar_case_against_analytic_softmax(self):
        # u = h' * c' = (2, 0); relu then g gives scores (2, 0); softmax
        # of (2, 0) is (e^2, 1) / (e^2 + 1)
        h = np.array([[2.0], [0.0]])
        c = np.array([[1.0], [1.0]])
        a = attention_scores(h, c, np.array([[1.0]]), np.zeros(1), np.ones(1))
        e2 = math.exp(2.0)
        np.testing.assert_allclose(a, [e2 / (e2 + 1.0), 1.0 / (e2 + 1.0)], rtol=1e-9)
        np.testing.assert_allclose(a, [0.8808, 0.1192], atol=5e-5)

    def test_weights_are_probability_vector(self):
        rng = np.random.default_rng(4)
        a = attention_scores(rng.normal(size=(6, 5)), rng.normal(size=(6, 5)),
                             rng.normal(size=(5, 4)), rng.normal(size=4),
                             rng.normal(size=4))
        assert np.all(a >= 0)
        assert abs(a.sum() - 1.0) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            attention_scores(np.zeros((2, 4)), np.zeros((2, 4)),
                             np.zeros((5, 3)), np.zeros(3), np.zeros(3))


class TestFuse:
    def test_one_hot_selects_shard(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 6))
        a = np.zeros(4)
        a[2] = 1.0
        np.testing.assert_array_equal(fuse(a, h), h[2])

    def test_equal_states_fixed_point(self):
        h = np.tile(np.arange(3.0), (4, 1))
        a = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(fuse(a, h), np.arange(3.0), rtol=1e-7)

    def test_matches_bruteforce_weighted_sum(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(5, 4))
        a = rng.random(5)
        a /= a.sum()
        manual = sum(a[k] * h[k] for k in range(5))
        np.testing.assert_allclose(fuse(a, h), manual, rtol=1e-6)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ContractError):
            fuse(np.array([0.5, 0.2]), np.zeros((2, 3)))


class TestPredictOutput:
    def test_zero_weights_give_bias(self):
        b2 = np.arange(5.0)
        out = predict_output(np.ones(3), np.zeros((3, 4)), np.zeros(4),
                             np.zeros((4, 5)), b2)
        np.testing.assert_array_equal(out, b2)

    def test_identity_network_on_nonnegative_input(self):
        h = np.array([0.5, 0.0, 2.0])
        out = predict_output(h, np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, h)


def random_fusion_store(k, d, f, d_ff, v, rng) -> ParamStore:
    return ParamStore({
        "W_proj": packed_projection(rng.normal(scale=0.5, size=(k, d, d)),
                                    rng.normal(scale=0.2, size=(k, d))),
        "W_attn": rng.normal(scale=0.5, size=(d, f)),
        "b_attn": rng.normal(scale=0.2, size=f),
        "g_attn": rng.normal(scale=0.5, size=f),
        "W1": rng.normal(scale=0.5, size=(d, d_ff)),
        "b1": rng.normal(scale=0.2, size=d_ff),
        "W2": rng.normal(scale=0.5, size=(d_ff, v)),
        "b2": rng.normal(scale=0.2, size=v),
    })


def ones_block(H):
    """(B, K, d) states as the (B, K, d + 1) feature-table rows, with
    their ones column, that a fusion pass reads."""
    B, K, d = H.shape
    block = np.ones((B, K, d + 1), dtype=H.dtype)
    block[:, :, :d] = H
    return block


def fusion_forward(params, H, C):
    """(logits, pass) of the library's fusion pass over (B, K, d) states
    H; the pass holds the attention weights A and the fused states."""
    fusion = _FusionPass(params, C, ones_block(H), _Buffers())
    return fusion.logits(), fusion


def fusion_step(params, grads, H, C, targets) -> float:
    """One library training step over (B, K, d) states H."""
    return _FusionPass(params, C, ones_block(H), _Buffers(), grads).step(targets)


class TestFusionGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_stack_passes_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k, d, f, d_ff, v, batch = 3, 5, 4, 6, 7, 2
        store = random_fusion_store(k, d, f, d_ff, v, rng)
        H = rng.normal(size=(batch, k, d))
        C = rng.normal(size=(k, d))
        targets = rng.integers(0, v, size=batch)

        def loss_fn(s):
            logits, _ = fusion_forward(s.params, H, C)
            losses, _ = cross_entropy_rows(logits, targets)
            return float(losses.mean())

        store.zero_grads()
        fusion_step(store.params, store.grads, H, C, targets)
        assert finite_difference_check(loss_fn, store) < 1e-4


class TestFusionBackward:
    # (rows of the table, batch size, K, d, f, d_ff, |V|); the batch is the
    # table's last slice, so 293 rows at batch 256 is a partial last batch
    @pytest.mark.parametrize("rows, batch, k, d, f, d_ff, v", [
        (1, 1, 1, 3, 4, 5, 6),
        (5, 5, 1, 4, 6, 3, 7),
        (1, 1, 4, 5, 3, 6, 9),
        (293, 256, 8, 32, 64, 32, 200),
        (256, 256, 8, 32, 64, 32, 200),
        (40, 16, 3, 6, 5, 4, 11),
    ])
    def test_matches_reference_backward(self, rows, batch, k, d, f, d_ff, v):
        rng = np.random.default_rng(rows + k)
        store = random_fusion_store(k, d, f, d_ff, v, rng)
        table = rng.normal(size=(rows, k, d))
        start = (rows - 1) // batch * batch
        H = table[start : start + batch]
        C = rng.normal(size=(k, d))
        logits, _ = fusion_forward(store.params, H, C)
        targets = rng.integers(0, v, size=H.shape[0])
        _, dlogits = cross_entropy_rows(logits, targets)
        dlogits /= H.shape[0]
        # the step writes every gradient over what the slots held, so a
        # NaN start must not show through
        want = {n: np.zeros_like(p) for n, p in store.params.items()}
        reference_grads(store.params, want, H, C, dlogits)
        got = {n: np.full_like(p, np.nan) for n, p in store.params.items()}
        fusion_step(store.params, got, H, C, targets)
        for name in sorted(store.params):
            scale = np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name

    def test_float32_gradients_match_float64_oracle(self):
        # The folded M_k = Wp_k diag(Cp_k) W_attn is summed in float32
        # before H touches it; at the default shapes the float32 gradients
        # must stay within 1e-4 (relative to each parameter's largest
        # gradient) of the unfolded float64 ones, for the same dlogits.
        batch, k, d, f, d_ff, v = 256, 8, 32, 64, 32, 200
        rng = np.random.default_rng(batch + k)
        store = random_fusion_store(k, d, f, d_ff, v, rng)
        H = rng.normal(size=(batch, k, d))
        C = rng.normal(size=(k, d))
        logits, _ = unfolded_forward(store.params, H, C)
        targets = rng.integers(0, v, size=H.shape[0])
        _, dlogits = cross_entropy_rows(logits, targets)
        dlogits /= H.shape[0]
        want = {n: np.zeros_like(p) for n, p in store.params.items()}
        reference_grads(store.params, want, H, C, dlogits)

        params32 = {n: p.astype(np.float32) for n, p in store.params.items()}
        got = {n: np.zeros_like(p) for n, p in params32.items()}
        fusion_step(params32, got, H.astype(np.float32), C.astype(np.float32), targets)
        for name in sorted(store.params):
            assert got[name].dtype == np.float32, name
            scale = np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= 1e-4 * scale, name


class TestFusionInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        k, d = 4, 6
        store = random_fusion_store(k, d, 5, 6, 8, rng)
        H = rng.normal(size=(1, k, d))
        C = rng.normal(size=(k, d))
        perm = np.array([2, 0, 3, 1])

        params_p = {name: v.copy() for name, v in store.params.items()}
        params_p["W_proj"] = store.params["W_proj"][perm]

        logits, cache = fusion_forward(store.params, H, C)
        logits_p, cache_p = fusion_forward(params_p, H[:, perm], C[perm])
        np.testing.assert_allclose(cache_p.A, cache.A[perm], rtol=1e-9)
        np.testing.assert_allclose(logits_p, logits, rtol=1e-9, atol=1e-12)

    def test_identical_shards_reduce_to_single_projection(self):
        rng = np.random.default_rng(10)
        d = 8
        k = 4  # power of two so the uniform weights sum exactly
        h = rng.normal(size=d)
        c = rng.normal(size=d)
        W = rng.normal(size=(d, d))
        b = rng.normal(size=d)
        store = random_fusion_store(k, d, 5, d, 6, rng)
        store.params["W_proj"][...] = packed_projection(W[None], b[None])
        H = np.tile(h, (1, k, 1))
        C = np.tile(c, (k, 1))
        _, cache = fusion_forward(store.params, H, C)
        h_fused = cache.h_fused[0]
        np.testing.assert_allclose(h_fused, h @ W + b, rtol=1e-12, atol=1e-12)


def old_encode_batch(model, prefixes):
    # The former encode_batch, which padded every prefix on its own row:
    # skip pad ids, keep the last max_len items, pad, run the all-rows
    # state table, gather each row's last state.
    cleaned = [[int(i) for i in p if int(i) != 0][-model.max_len:] for p in prefixes]
    if not cleaned:
        return np.zeros((0, model.d), dtype=model.embeddings.dtype)
    lengths = np.array([len(c) for c in cleaned], dtype=np.int64)
    ids = np.zeros((len(cleaned), max(1, int(lengths.max()))), dtype=np.int64)
    for i, c in enumerate(cleaned):
        ids[i, : len(c)] = c
    states = allrows_prefix_states(model, ids)
    out = np.zeros((len(cleaned), model.d), dtype=model.embeddings.dtype)
    nonzero = lengths > 0
    out[nonzero] = states[nonzero, lengths[nonzero] - 1]
    return out


def small_setup(num_sessions=20, k=1, seed=3):
    data = generate_synthetic(num_sessions, 30, 2, noise_rate=0.1, seed=seed)
    config = BackboneConfig(d=8, max_len=14, epochs=2, lr=3e-3, seed=seed)
    chunk = max(1, num_sessions // k)
    shards = [
        data.with_sessions(data.sessions[i * chunk : (i + 1) * chunk])
        for i in range(k)
    ]
    models = [train_backbone(s, config) for s in shards]
    centroids = compute_centroids(models, shards)
    return data, shards, models, centroids


class TestTrainAggregation:
    def test_single_shard_loss_decreases(self):
        data, _, models, centroids = small_setup(k=1)
        config = AggregationConfig(f=8, lr=5e-3, epochs=5, seed=4)
        agg = train_aggregation(models, centroids, data, config)
        losses = agg.loss_history
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_training_deterministic(self):
        data, _, models, centroids = small_setup(k=2)
        config = AggregationConfig(f=8, lr=5e-3, epochs=3, seed=9)
        first = train_aggregation(models, centroids, data, config)
        second = train_aggregation(models, centroids, data, config)
        assert first.params_bytes() == second.params_bytes()

    def test_sub_models_stay_frozen(self):
        data, _, models, centroids = small_setup(k=2)
        before = [m.params_bytes() for m in models]
        train_aggregation(models, centroids, data,
                          AggregationConfig(f=8, lr=5e-3, epochs=2, seed=1))
        assert [m.params_bytes() for m in models] == before

    def test_no_copy_of_the_feature_table(self):
        # batches are gathered into one small reused buffer: beyond its
        # inputs, training allocates far less than the table itself (a
        # shuffled copy of the table per epoch measured 1.26x, this 0.21x)
        rng = np.random.default_rng(1)
        rows, k, d, v = 20000, 2, 16, 20
        features = ones_block(rng.normal(size=(rows, k, d)).astype(np.float32))
        targets = rng.integers(1, v + 1, size=rows)
        table_rows = np.arange(rows)
        centroids = ShardCentroids(c=rng.normal(size=(k, d)).astype(np.float32))
        sub_models = [SimpleNamespace(d=d)] * k
        corpus = SimpleNamespace(num_items=lambda: v)
        config = AggregationConfig(f=8, epochs=2, batch_size=250, seed=2)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            train_aggregation(sub_models, centroids, corpus, config,
                              precomputed=(features, targets, table_rows))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 0.25 * features.nbytes

    def test_batches_equal_slices_of_a_shuffled_table(self):
        # The reference shuffles a copy of the whole table once per epoch
        # and slices its batches from it; gathering each batch on its own
        # must train the same parameters and loss curve, bit for bit.
        data, _, models, centroids = small_setup(num_sessions=30, k=2)
        config = AggregationConfig(f=8, lr=5e-3, epochs=3, batch_size=64, seed=6)
        cache = build_feature_cache(models, data)
        got = train_aggregation(models, centroids, data, config,
                                precomputed=(cache.features, cache.targets, cache.rows))

        model = init_aggregation_model(2, 8, data.num_items(), config)
        store, adam = model.store, AdamState.for_store(model.store)
        shuffle = rng_stream(config.seed, "aggregation/shuffle")
        P = cache.features.shape[0]
        losses = []
        for _ in range(config.epochs):
            perm = shuffle.permutation(P)
            table, targets = cache.features[perm], cache.targets[perm]
            loss_sum = 0.0
            for start in range(0, P, config.batch_size):
                tb = targets[start : start + config.batch_size] - 1
                store.zero_grads()
                fusion = _FusionPass(store.params, centroids.c,
                                     table[start : start + config.batch_size], _Buffers(),
                                     store.grads)
                loss_sum += fusion.step(tb)
                adam_step(store, adam, config.lr)
            losses.append(loss_sum / P)
        assert got.loss_history == losses
        assert got.params_bytes() == store.tobytes()

    def test_a_scattered_table_trains_as_the_compact_one(self):
        # The points at shuffled rows of a longer table, every spare row
        # NaN states with a ones column: reading the table through rows
        # gives the compact table's parameters and loss curve, bit for
        # bit, and no spare row is ever read.
        data, _, models, centroids = small_setup(num_sessions=30, k=2)
        config = AggregationConfig(f=8, lr=5e-3, epochs=2, batch_size=64, seed=6)
        cache = build_feature_cache(models, data)
        P, K, d1 = cache.features.shape
        rows = np.random.default_rng(0).permutation(P + 37)[:P]
        scattered = np.full((P + 37, K, d1), np.nan, dtype=cache.features.dtype)
        scattered[:, :, -1] = 1.0
        scattered[rows] = cache.features
        want = train_aggregation(models, centroids, data, config,
                                 precomputed=(cache.features, cache.targets, cache.rows))
        got = train_aggregation(models, centroids, data, config,
                                precomputed=(scattered, cache.targets, rows))
        assert np.isfinite(want.loss_history).all()
        assert got.loss_history == want.loss_history
        assert got.params_bytes() == want.params_bytes()

    def test_no_sub_models_rejected(self):
        data, _, _, _ = small_setup(k=1)
        with pytest.raises(ContractError):
            train_aggregation([], ShardCentroids(c=np.zeros((0, 8))), data,
                              AggregationConfig(seed=0))

    @pytest.mark.parametrize("size", ["f", "batch_size"])
    def test_config_with_a_size_below_one_rejected(self, size):
        # batch_size 0 once failed in training as a modulo by zero, and f 0
        # trained a zero-wide attention
        with pytest.raises(ContractError, match="f and batch_size must be >= 1"):
            AggregationConfig(**{size: 0})
        with pytest.raises(ContractError):
            ExperimentConfig.defaults(**{f"agg.{size}": 0}).aggregation_config()

    def test_config_with_no_epoch_rejected(self):
        # epochs 0 once wrote the untrained fusion layer, which eval scored
        with pytest.raises(ContractError, match="epochs must be >= 1, got 0"):
            AggregationConfig(epochs=0)
        assert AggregationConfig(epochs=1).epochs == 1

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
    def test_config_with_a_learning_rate_not_above_zero_rejected(self, lr):
        with pytest.raises(ContractError, match=f"lr must be > 0, got {lr}"):
            AggregationConfig(lr=lr)

    def test_config_with_a_negative_output_width_rejected(self):
        # None means the sub-models' d; a negative width once reached training
        with pytest.raises(ContractError, match="d_ff must be >= 1 or None, got -3"):
            AggregationConfig(d_ff=-3)
        assert AggregationConfig(d_ff=1).d_ff == 1

    def test_keeps_the_centroids_it_trained_against(self):
        data, _, models, centroids = small_setup(k=2)
        agg = train_aggregation(models, centroids, data, AggregationConfig(f=8, epochs=1))
        assert agg.centroids is centroids


class TestCopyingStepOracle:
    """The library's pass reads each batch through a view of the
    feature table's rows, ones column included, with everything else
    built once per call; the step it replaced copied each (B, K, d) batch
    into a shard-major block and took its arrays per step. Training and
    prediction must give that step's bytes."""

    @staticmethod
    def fitted():
        data, _, models, centroids = small_setup(num_sessions=30, k=2)
        config = AggregationConfig(f=8, epochs=3, batch_size=64, seed=6)
        cache = build_feature_cache(models, data)
        model = train_aggregation(models, centroids, data, config,
                                  precomputed=(cache.features, cache.targets, cache.rows))
        return data, models, centroids, config, cache, model

    def test_training_gives_the_copying_steps_bytes(self):
        data, models, centroids, config, cache, got = self.fitted()
        P = len(cache.targets)
        assert P > config.batch_size and P % config.batch_size     # a short last batch
        H = cache.features[:, :, :-1]
        C = centroids.c.astype(H.dtype)
        model = init_aggregation_model(2, 8, data.num_items(), config)
        store, adam = model.store, AdamState.for_store(model.store)
        shuffle = rng_stream(config.seed, "aggregation/shuffle")
        buffers = _Buffers()
        losses = []
        for _ in range(config.epochs):
            perm = shuffle.permutation(P)
            loss_sum = 0.0
            for start in range(0, P, config.batch_size):
                rows = perm[start : start + config.batch_size]
                loss_sum += copying_train_step(store.params, store.grads, H[rows], C,
                                               cache.targets[rows] - 1, buffers)
                adam_step(store, adam, config.lr)
            losses.append(loss_sum / P)
        assert got.loss_history == losses
        assert got.params_bytes() == store.tobytes()

    def test_predict_batch_gives_the_copying_forwards_bytes(self):
        _, models, centroids, _, _, agg = self.fitted()
        sru = SruModel(sub_models=tuple(models), aggregation=agg)
        rng = np.random.default_rng(8)
        prefixes = [tuple(rng.integers(1, 31, size=rng.integers(1, 15)).tolist())
                    for _ in range(300)]                       # a full and a short block
        got = sru.predict_batch(prefixes)
        H = encode_stacked(models, *pad_prefixes(models[0], prefixes))
        want, _ = copying_forward(agg.store.params, H, centroids.c.astype(H.dtype))
        assert got.dtype == want.dtype
        assert np.all(got[:, 0] == -np.inf)
        assert got[:, 1:].tobytes() == want.tobytes()


class TestPrecomputedTable:
    """train_aggregation checks a precomputed table once per call."""

    @staticmethod
    def train(table, targets, rows):
        data, _, models, centroids = small_setup(num_sessions=12, k=2)
        return train_aggregation(models, centroids, data,
                                 AggregationConfig(f=8, epochs=1, seed=1),
                                 precomputed=(table, targets, rows))

    @staticmethod
    def table():
        data, _, models, _ = small_setup(num_sessions=12, k=2)
        cache = build_feature_cache(models, data)
        return cache.features, cache.targets, cache.rows

    @pytest.mark.parametrize("case", ["old layout", "wrong d", "wrong K", "short targets",
                                      "short rows", "row past the table", "negative row"])
    def test_a_wrong_shape_is_contract_error(self, case):
        features, targets, rows = self.table()
        P, K, d1 = features.shape
        assert (K, d1) == (2, 9)
        past, negative = rows.copy(), rows.copy()
        past[3], negative[5] = P, -1
        table, targets, rows = {
            "old layout": (features[:, :, :-1], targets, rows),
            "wrong d": (np.ones((P, K, d1 + 1), features.dtype), targets, rows),
            "wrong K": (np.ones((P, K + 1, d1), features.dtype), targets, rows),
            "short targets": (features, targets[:-1], rows),
            "short rows": (features, targets, rows[:-1]),
            "row past the table": (features, targets, past),
            "negative row": (features, targets, negative),
        }[case]
        with pytest.raises(ContractError) as err:
            self.train(table, targets, rows)
        message = str(err.value)
        assert "(R, 2, 9)" in message
        assert f"found {table.shape}, {targets.shape} and {rows.shape}" in message

    def test_a_last_column_other_than_one_is_contract_error(self):
        features, targets, rows = self.table()
        features = features.copy()
        features[3, 1, -1] = 0.5
        with pytest.raises(ContractError, match=r"must be 1\.0, found 0\.5 in row 3, shard 1"):
            self.train(features, targets, rows)


class TestDefaultSchedule:
    """The fusion schedule every unlearn call pays for: the default
    config's constant rate over a fixed number of epochs."""

    def test_default_is_a_constant_2e_2_for_3_epochs(self):
        # The step count (epochs * ceil(P / batch_size), all at config.lr)
        # is pinned by test_batches_equal_slices_of_a_shuffled_table.
        config = ExperimentConfig.defaults().aggregation_config()
        assert (config.lr, config.epochs, config.batch_size) == (2e-2, 3, 256)

    def test_ranks_no_worse_than_the_old_schedule(self, default_state, default_splits):
        # The earlier default, lr 5e-3 for 5 epochs, trained on the same
        # feature table: on 23 seeds (2001-2011, 3001-3012) the default
        # beat it on test ndcg@20 by at least 0.027.
        state, test = default_state, default_splits[2]
        cache = state.feature_cache
        old = train_aggregation(state.sub_models, state.centroids, state.corpus,
                                replace(state.agg_config, lr=5e-3, epochs=5),
                                precomputed=(cache.features, cache.targets, cache.rows))
        new_ndcg = evaluate(state.sru_model(), test, ks=(20,)).ndcg[20]
        old_ndcg = evaluate(replace(state.sru_model(), aggregation=old), test, ks=(20,)).ndcg[20]
        assert new_ndcg >= old_ndcg


class TestSruModelPredict:
    def test_predict_matches_manual_pipeline(self):
        data, shards, models, centroids = small_setup(num_sessions=12, k=2)
        config = AggregationConfig(f=8, lr=5e-3, epochs=2, seed=2)
        agg = train_aggregation(models, centroids, data, config)
        sru = SruModel(sub_models=tuple(models), aggregation=agg)

        prefix = data.sessions[0].items[:4]
        params = agg.store.params
        Wp, bp = projection(params)
        h_list = np.stack([encode(m, prefix) for m in models])
        hp = np.stack([project(h_list[i], centroids.c[i], Wp[i], bp[i])[0] for i in range(2)])
        cp = np.stack([project(h_list[i], centroids.c[i], Wp[i], bp[i])[1] for i in range(2)])
        a = attention_scores(hp, cp, params["W_attn"], params["b_attn"], params["g_attn"])
        fused = fuse(a, hp)
        logits = predict_output(fused, params["W1"], params["b1"],
                                params["W2"], params["b2"])
        out = sru.predict_batch([prefix])[0]
        assert out[0] == -np.inf
        np.testing.assert_allclose(out[1:], logits, rtol=1e-4, atol=1e-5)

    def fitted(self):
        data, _, models, centroids = small_setup(num_sessions=12, k=2)
        agg = train_aggregation(models, centroids, data,
                                AggregationConfig(f=8, lr=5e-3, epochs=1, seed=2))
        sru = SruModel(sub_models=tuple(models), aggregation=agg)

        def oracle(prefixes):
            H = np.stack([old_encode_batch(m, prefixes) for m in models], axis=1)
            logits, _ = copying_forward(agg.store.params, H, centroids.c.astype(H.dtype))
            out = np.full((len(prefixes), 31), -np.inf, dtype=logits.dtype)
            out[:, 1:] = logits
            return out

        return data, models, sru, oracle

    def test_predict_batch_bit_equal_to_per_model_encoding(self):
        data, _, sru, oracle = self.fitted()
        long_prefix = tuple(data.sessions[0].items) * 3
        assert len(long_prefix) > 14
        prefixes = [
            data.sessions[1].items[:3],
            (0, 0),                                   # only pad ids: empty
            (),                                       # empty prefix
            (0,) + data.sessions[2].items[:4] + (0,), # pad ids inside
            long_prefix,                              # longer than max_len
            data.sessions[3].items[:1],
        ]
        for batch in (prefixes, prefixes[1:2], []):
            got = sru.predict_batch(batch)
            want = oracle(batch)
            assert got.shape == want.shape == (len(batch), 31)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_shared_prefixes_bit_equal_to_per_prefix_rows(self):
        # Every prefix of three sessions, shuffled, with duplicates and
        # with siblings that share a session's first items, is padded on a
        # row of its own, as the oracles pad it; the logits must be theirs
        # byte for byte.
        data, models, sru, oracle = self.fitted()
        sessions = [data.sessions[i].items for i in (0, 4, 7)]
        prefixes = [items[:t] for items in sessions for t in range(1, len(items) + 1)]
        prefixes += prefixes[::3]                                # duplicates
        a, b, c = sessions[0][:3]
        x, y = [item for item in range(1, 31) if item != c][:2]
        prefixes += [
            (a, b, x), (a, b, y),                                # siblings of a chain
            (),                                                  # empty prefix
            (0,) + sessions[1][:3] + (0,),                       # pad ids
            sessions[2] * 2,                                     # longer than max_len
        ]
        assert len(sessions[2] * 2) > 14
        order = np.random.default_rng(0).permutation(len(prefixes))
        prefixes = [prefixes[i] for i in order]

        got = sru.predict_batch(prefixes)
        want = oracle(prefixes)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

        for model in models:
            got = model.predict_batch(prefixes)
            logits = old_encode_batch(model, prefixes) @ model.embeddings[1:].T
            want = np.full((len(prefixes), 31), -np.inf, dtype=logits.dtype)
            want[:, 1:] = logits
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestPredictBlocks:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 2034])
    def test_blocks_bit_equal_to_one_forward(self, n):
        data, models, sru, _ = TestSruModelPredict().fitted()
        rng = np.random.default_rng(n)
        prefixes = [tuple(rng.integers(1, 31, size=rng.integers(1, 15)).tolist())
                    for _ in range(n)]
        got = sru.predict_batch(prefixes)
        H = encode_stacked(models, *pad_prefixes(models[0], prefixes))
        logits, _ = fusion_forward(sru.aggregation.store.params, H,
                                   sru.aggregation.centroids.c.astype(H.dtype))
        assert got.shape == (n, 31) and got.dtype == logits.dtype
        assert np.all(got[:, 0] == -np.inf)
        assert got[:, 1:].tobytes() == logits.tobytes()

    def test_logits_bit_equal_to_the_training_forward(self, monkeypatch):
        # The training step computes the logits inside the loss kernel;
        # on the same rows they must be predict_batch's, bit for bit, in
        # full and in partial blocks.
        import sru.numerics as numerics
        data, models, sru, _ = TestSruModelPredict().fitted()
        rng = np.random.default_rng(5)
        prefixes = [tuple(rng.integers(1, 31, size=rng.integers(1, 15)).tolist())
                    for _ in range(300)]
        got = sru.predict_batch(prefixes)
        H = encode_stacked(models, *pad_prefixes(models[0], prefixes))
        seen = []
        kernel_logits = numerics._logits

        def spy(*args):
            out = kernel_logits(*args)
            seen.append(out.copy())
            return out

        monkeypatch.setattr(numerics, "_logits", spy)
        store = sru.aggregation.store
        buffers = _Buffers()
        C = sru.aggregation.centroids.c.astype(H.dtype)
        for start in range(0, len(prefixes), 256):
            rows = ones_block(H[start : start + 256])
            fusion = _FusionPass(store.params, C, rows, buffers, store.copy().grads)
            fusion.step(rng.integers(0, 30, size=len(rows)))
        assert [len(block) for block in seen] == [256, 44]
        assert got[:, 1:].tobytes() == np.concatenate(seen).tobytes()


def assert_table_is_rebuild(updated, full):
    """The points of an updated cache, read through its rows, equal a
    rebuild's compact table, and so do its targets and each session's
    number of points."""
    assert updated.features.dtype == full.features.dtype
    assert updated.features[updated.rows].tobytes() == full.features.tobytes()
    assert updated.targets.tobytes() == full.targets.tobytes()
    assert ({sid: n for sid, (_, n) in updated.row_slices.items()}
            == {sid: n for sid, (_, n) in full.row_slices.items()})


class TestFeatureCache:
    def test_table_matches_layout(self):
        data, _, models, _ = small_setup(num_sessions=10, k=2)
        cache = build_feature_cache(models, data)
        # Oracle: every sub-model runs the all-rows state table over the
        # hand-padded sessions; row t of a session is the state after its
        # first t + 1 items and its target is item t + 1.
        tails = [s.items[-14:] for s in data.sessions]
        ids = np.zeros((len(tails), max(map(len, tails))), dtype=np.int64)
        for i, tail in enumerate(tails):
            ids[i, : len(tail)] = tail
        per_model = [allrows_prefix_states(m, ids) for m in models]
        features, targets = [], []
        for i, tail in enumerate(tails):
            for t in range(len(tail) - 1):
                features.append(np.stack([states[i, t] for states in per_model]))
                targets.append(tail[t + 1])
        np.testing.assert_array_equal(cache.features[:, :, :-1], np.stack(features))
        assert np.all(cache.features[:, :, -1] == 1.0)
        np.testing.assert_array_equal(cache.targets, targets)
        total = sum(min(len(s), 14) - 1 for s in data.sessions)
        assert cache.features.shape[0] == total
        np.testing.assert_array_equal(cache.rows, np.arange(total))

    def test_incremental_update_matches_full_rebuild(self):
        data, shards, models, _ = small_setup(num_sessions=10, k=2)
        cache = build_feature_cache(models, data)

        # rewrite two sessions and pretend shard 1 was retrained
        sessions = list(data.sessions)
        sessions[3] = sessions[3].__class__(
            session_id=sessions[3].session_id,
            items=sessions[3].items[2:],
            cluster=sessions[3].cluster,
        )
        sessions = [s for i, s in enumerate(sessions) if i != 7]
        modified = data.with_sessions(sessions)
        retrained = train_backbone(
            shards[1], BackboneConfig(d=8, max_len=14, epochs=3, lr=3e-3, seed=77)
        )
        new_models = [models[0], retrained]
        changed = {data.sessions[3].session_id, data.sessions[7].session_id}

        updated = updated_feature_cache(cache, new_models, modified,
                                        dirty_shards=[1], changed_session_ids=changed)
        assert_table_is_rebuild(updated, build_feature_cache(new_models, modified))

    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("dirty", [[], [1]])
    def test_rewritten_first_or_last_session_matches_rebuild(self, where, dirty):
        # The reused runs end or start at the corpus' edge: the rewritten
        # session is the first in the corpus, or the last.
        data, _, models, _ = small_setup(num_sessions=12, k=2)
        cache = build_feature_cache(models, data)
        sessions = list(data.sessions)
        victim = sessions[where]
        assert len(victim) >= 3
        sessions[where] = victim.__class__(session_id=victim.session_id,
                                           items=victim.items[:-1])
        modified = data.with_sessions(sessions)
        if dirty:
            models = [models[0], init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=5))]
        updated = updated_feature_cache(cache, models, modified, dirty_shards=dirty,
                                        changed_session_ids={victim.session_id})
        assert_table_is_rebuild(updated, build_feature_cache(models, modified))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_session_update_matches_rebuild_in_either_dtype(self, dtype):
        # The update encodes the one rewritten session alone, the rebuild
        # among all sessions; a one-row product rounds differently from a
        # many-row one in float64, so the pass never runs a step on one row.
        data = generate_synthetic(12, 30, 2, noise_rate=0.1, seed=3)
        models = [init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=s)) for s in (1, 2)]
        if dtype == "float64":
            models = [as_float64(m) for m in models]
        cache = build_feature_cache(models, data)
        sessions = list(data.sessions)
        victim = sessions[4]
        sessions[4] = victim.__class__(session_id=victim.session_id, items=victim.items[1:])
        modified = data.with_sessions(sessions)
        updated = updated_feature_cache(cache, models, modified, dirty_shards=[],
                                        changed_session_ids={victim.session_id})
        assert updated.features.dtype == np.dtype(dtype)
        assert_table_is_rebuild(updated, build_feature_cache(models, modified))

    @staticmethod
    def wide_setup():
        # eight untrained sub-models over 600 sessions: the table (1.5 MB)
        # dominates every other allocation of a build or an update
        data = generate_synthetic(600, 30, 2, noise_rate=0.1, seed=3)
        models = [init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=i)) for i in range(8)]
        return data, models

    def test_update_writes_into_the_cached_buffer(self):
        data, models = self.wide_setup()
        cache = build_feature_cache(models, data)
        buffer = cache.features
        sessions = list(data.sessions)
        sessions[5] = sessions[5].__class__(session_id=sessions[5].session_id,
                                            items=sessions[5].items[1:])
        del sessions[20]
        modified = data.with_sessions(sessions)
        changed = {data.sessions[5].session_id, data.sessions[20].session_id}
        models[2] = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=99))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            updated = updated_feature_cache(cache, models, modified, dirty_shards=[2],
                                            changed_session_ids=changed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_table_is_rebuild(updated, build_feature_cache(models, modified))
        assert updated.features is buffer
        # one recomputed column and its prefix states; a second table
        # (the former copy-into-a-new-table update) measured 2.1x
        assert peak - start < 1.0 * buffer.nbytes

    def test_one_request_update_runs_one_pass_per_dirty_column(self, monkeypatch):
        # One rewritten session and one retrained shard at K = 8: the
        # fresh rows of the seven clean columns come from one stacked
        # pass, the dirty column from one more, and the table still
        # equals a rebuild byte for byte.
        data, models = self.wide_setup()
        cache = build_feature_cache(models, data)
        sessions = list(data.sessions)
        sessions[7] = sessions[7].__class__(session_id=sessions[7].session_id,
                                            items=sessions[7].items[:-1])
        modified = data.with_sessions(sessions)
        models[4] = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=98))
        passes = []

        def counted(stacked, *points, **options):
            passes.append(len(stacked))
            return encode_stacked(stacked, *points, **options)

        monkeypatch.setattr("sru.aggregation.encode_stacked", counted)
        updated = updated_feature_cache(cache, models, modified, dirty_shards=[4],
                                        changed_session_ids={sessions[7].session_id})
        assert passes == [7, 1]
        monkeypatch.undo()
        assert_table_is_rebuild(updated, build_feature_cache(models, modified))

    def test_updated_cache_gives_up_its_buffer(self):
        data, _, models, _ = small_setup(num_sessions=12, k=2)
        cache = build_feature_cache(models, data)
        shorter = data.with_sessions(data.sessions[1:])
        first = updated_feature_cache(cache, models, shorter, dirty_shards=[],
                                      changed_session_ids=())
        assert cache.features is None
        with pytest.raises(ContractError, match="already updated in place"):
            updated_feature_cache(cache, models, shorter, dirty_shards=[],
                                  changed_session_ids=())
        assert_table_is_rebuild(first, build_feature_cache(models, shorter))

    def test_copy_owns_its_buffer(self):
        data, _, models, _ = small_setup(num_sessions=12, k=2)
        cache = build_feature_cache(models, data)
        copy = cache.copy()
        assert not np.shares_memory(copy.features, cache.features)
        shorter = data.with_sessions(data.sessions[1:])
        updated_feature_cache(copy, models, shorter, dirty_shards=[], changed_session_ids=())
        assert cache.features.tobytes() == build_feature_cache(models, data).features.tobytes()

    def test_session_that_does_not_fit_its_block_is_contract_error(self):
        # a session the cache holds no block for
        data, _, models, _ = small_setup(num_sessions=12, k=2)
        first, victim = data.sessions[6], data.sessions[4]
        assert len(first) <= 14 and 3 <= len(victim) <= 14
        smaller = build_feature_cache(models, data.with_sessions(data.sessions[:6]))
        with pytest.raises(ContractError, match=f"session {first.session_id!r} has "
                                                f"{len(first) - 1} training points for a "
                                                f"block of 0 rows"):
            updated_feature_cache(smaller, models, data, dirty_shards=[],
                                  changed_session_ids=())
        # a changed session that gains a point outgrows its block, and an
        # unchanged one whose points change in number is not unchanged
        shorter = victim.__class__(session_id=victim.session_id, items=victim.items[1:])
        cut = data.with_sessions([*data.sessions[:4], shorter, *data.sessions[5:]])
        for changed in ({victim.session_id}, ()):
            with pytest.raises(ContractError, match=f"session {victim.session_id!r} has "
                                                    f"{len(victim) - 1} training points for "
                                                    f"a block of {len(victim) - 2} rows"):
                updated_feature_cache(build_feature_cache(models, cut), models, data,
                                      dirty_shards=[], changed_session_ids=changed)
        # a table of other sub-models
        with pytest.raises(ContractError, match="has no rows of 3 sub-models of d = 8"):
            updated_feature_cache(build_feature_cache(models, data), models + models[:1],
                                  data, dirty_shards=[], changed_session_ids=())

    def test_build_allocates_one_table(self):
        # each column is written into the one table; stacking a list of
        # columns measured 2.06x
        data, models = self.wide_setup()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            cache = build_feature_cache(models, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.75 * cache.features.nbytes


VOCAB = ItemVocab.from_tokens(str(i) for i in range(1, 10))


@st.composite
def corpora_past_max_len(draw):
    """(max_len, items, deleted, shortened): ragged sessions over a
    9-item vocabulary, at least one of them longer than max_len; the
    sessions an update deletes; and one it shortens, by the item at a
    drawn position, or None."""
    max_len = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(2, 3 * max_len), min_size=1, max_size=7))
    sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(max_len + 1, 3 * max_len))
    items = [tuple(draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))) for m in sizes]
    deleted = draw(st.sets(st.integers(0, len(items) - 1), max_size=len(items) - 1))
    longer = [i for i, s in enumerate(items) if i not in deleted and len(s) > 2]
    shortened = None
    if longer:
        i = draw(st.sampled_from(longer))
        shortened = (i, draw(st.integers(0, len(items[i]) - 1)))
    return max_len, items, deleted, shortened


def corpus(items, limit=None):
    """A training dataset of the sessions, each cut to its last ``limit``
    items when a limit is given."""
    return SessionDataset(tuple(Session(f"s{i}", s[-limit:] if limit else s)
                                for i, s in enumerate(items)), VOCAB)


class TestSessionsPastMaxLen:
    """Pipeline corpora hold no session longer than max_len, so this pins
    the cut at every call site that builds training points: a corpus
    whose sessions run past max_len trains and tabulates byte for byte as
    the same sessions cut to their last max_len items."""

    @settings(max_examples=40, deadline=None)
    @given(case=corpora_past_max_len(), seed=st.integers(0, 2**16))
    def test_training_batches(self, case, seed):
        max_len, items, _, _ = case
        config = BackboneConfig(d=3, max_len=max_len, epochs=2, batch_size=3, seed=seed)
        runs = []
        for limit in (None, max_len):
            batches = []

            def recorded(model, ids, buffers):
                batches.append((ids.shape, ids.tobytes()))
                return sequence_loss_and_grads(model, ids, buffers)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("sru.backbone.sequence_loss_and_grads", recorded)
                model = train_backbone(corpus(items, limit=limit), config)
            runs.append((batches, model.params_bytes()))
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(case=corpora_past_max_len(), seed=st.integers(0, 2**16))
    def test_feature_table_and_its_update(self, case, seed):
        max_len, items, deleted, shortened = case
        models = [init_gru_model(9, BackboneConfig(d=3, max_len=max_len, seed=seed + j))
                  for j in range(2)]
        edited = list(items)
        if shortened is not None:
            i, at = shortened
            edited[i] = edited[i][:at] + edited[i][at + 1 :]
        kept = [i for i in range(len(items)) if i not in deleted]
        changed = {f"s{i}" for i in deleted} | ({f"s{shortened[0]}"} if shortened else set())
        retrained = [models[0], init_gru_model(9, replace(models[1].config, seed=seed + 9))]
        tables = []
        for limit in (None, max_len):
            cut = corpus(items, limit=limit)
            cache = build_feature_cache(models, cut)
            built = (cache.features.tobytes(), cache.targets.tobytes(), cache.row_slices)
            after = cut.with_sessions(
                Session(f"s{i}", edited[i][-limit:] if limit else edited[i]) for i in kept)
            updated = updated_feature_cache(cache, retrained, after, dirty_shards=[1],
                                            changed_session_ids=changed)
            tables.append((built, updated.features[updated.rows].tobytes(),
                           updated.targets.tobytes(), updated.row_slices))
        assert tables[0] == tables[1]
