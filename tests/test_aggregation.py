import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sru.aggregation import (
    AggregationConfig,
    ShardCentroids,
    SruModel,
    _backward,
    _forward,
    attention_scores,
    build_feature_cache,
    compute_centroid,
    compute_centroids,
    fuse,
    predict_output,
    project,
    train_aggregation,
    updated_feature_cache,
)
from sru.backbone import (
    BackboneConfig,
    encode,
    init_gru_model,
    prefix_states,
    train_backbone,
)
from sru.corpus import generate_synthetic
from sru.errors import ContractError, DimensionError
from sru.numerics import ParamStore, cross_entropy_rows, finite_difference_check


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

    def test_empty_shard_rejected(self):
        data = generate_synthetic(2, 30, 2, seed=0)
        model = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=1))
        with pytest.raises(ContractError):
            compute_centroid(model, data.with_sessions([]))

    def test_reference_source_uses_partition_centroids(self):
        data = generate_synthetic(4, 30, 2, seed=0)
        model = init_gru_model(30, BackboneConfig(d=8, max_len=14, seed=1))
        ref = np.arange(16, dtype=np.float64).reshape(2, 8)
        out = compute_centroids([model, model], [data, data],
                                source="reference", reference_centroids=ref)
        np.testing.assert_array_equal(out.c, ref.astype(np.float32))
        assert out.source == "reference"


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
    store = ParamStore()
    store.add("W_proj", rng.normal(scale=0.5, size=(k, d, d)))
    store.add("b_proj", rng.normal(scale=0.2, size=(k, d)))
    store.add("W_attn", rng.normal(scale=0.5, size=(d, f)))
    store.add("b_attn", rng.normal(scale=0.2, size=f))
    store.add("g_attn", rng.normal(scale=0.5, size=f))
    store.add("W1", rng.normal(scale=0.5, size=(d, d_ff)))
    store.add("b1", rng.normal(scale=0.2, size=d_ff))
    store.add("W2", rng.normal(scale=0.5, size=(d_ff, v)))
    store.add("b2", rng.normal(scale=0.2, size=v))
    return store


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
            logits, _ = _forward(s.params, H, C)
            losses, _ = cross_entropy_rows(logits, targets)
            return float(losses.mean())

        logits, cache = _forward(store.params, H, C, with_cache=True)
        _, dlogits = cross_entropy_rows(logits, targets)
        store.zero_grads()
        _backward(store.params, store.grads, cache, dlogits / batch)
        assert finite_difference_check(loss_fn, store) < 1e-4


# The oracle for the folded passes of sru.aggregation: the unfolded
# _forward and _backward, which form U = Hp * Cp and its gradient dU,
# copied verbatim (renamed).


def unfolded_forward(params, H, C, with_cache=False):
    """Batched fusion forward pass.

    H is (B, K, d) per-shard states, C is (K, d) centroids. Returns
    (logits, cache) where logits is (B, |V|). Contractions are phrased
    as stacked matmuls; the per-shard axis K rides along as the batch
    dimension of the BLAS calls.
    """
    Wp, bp = params["W_proj"], params["b_proj"]
    B, K, d = H.shape
    f = params["b_attn"].shape[0]
    # Hp is written through a shard-major view so that it stays
    # C-contiguous in (B, K, d) and every later reshape is free.
    Hp = np.empty((B, K, d), dtype=np.result_type(H, Wp))
    np.matmul(H.transpose(1, 0, 2), Wp, out=Hp.transpose(1, 0, 2))
    Hp += bp
    Cp = np.matmul(C[:, None, :], Wp)[:, 0, :] + bp
    U = Hp * Cp
    T_pre = U.reshape(B * K, d) @ params["W_attn"]
    T_pre += params["b_attn"]
    T_pre = T_pre.reshape(B, K, f)
    T = np.maximum(T_pre, 0.0)
    S = (T.reshape(B * K, f) @ params["g_attn"]).reshape(B, K)
    S -= S.max(axis=1, keepdims=True)
    A = np.exp(S, out=S)
    A /= (A @ np.ones(K, dtype=A.dtype))[:, None]
    h_fused = np.matmul(A[:, None, :], Hp)[:, 0, :]
    pre1 = h_fused @ params["W1"]
    pre1 += params["b1"]
    hidden = np.maximum(pre1, 0.0)
    logits = hidden @ params["W2"]
    logits += params["b2"]
    if not with_cache:
        return logits, None
    return logits, (H, C, Hp, Cp, U, T_pre, T, A, h_fused, pre1, hidden)


def unfolded_backward(params, grads, cache, dlogits):
    """Accumulate gradients for all fusion parameters; inputs are frozen.

    Sums over rows are products with a ones vector, which BLAS runs much
    faster than numpy's axis reductions. The attention pre-activation
    gradient dT_pre = dS g * M, with the ReLU mask M = [T_pre > 0], is
    never formed: g factors out, so W_attn's gradient is
    ((U * dS)^T M) * g, b_attn's is (dS^T M) * g and
    dU = dS * (M (g W_attn^T)).
    """
    H, C, Hp, Cp, U, T_pre, T, A, h_fused, pre1, hidden = cache
    B, K, d = H.shape
    f = params["b_attn"].shape[0]
    g_attn = params["g_attn"]
    ones = np.ones(B, dtype=dlogits.dtype)
    grads["W2"] += hidden.T @ dlogits
    grads["b2"] += ones @ dlogits
    dpre1 = dlogits @ params["W2"].T
    dpre1 *= hidden > 0
    grads["W1"] += h_fused.T @ dpre1
    grads["b1"] += ones @ dpre1
    dh_fused = dpre1 @ params["W1"].T

    dA = np.matmul(Hp, dh_fused[:, :, None])[:, :, 0]
    dS = dA - ((A * dA) @ np.ones(K, dtype=dA.dtype))[:, None]
    dS *= A
    dS_rows = dS.reshape(B * K)
    mask = np.greater(T.reshape(B * K, f), 0, out=np.empty((B * K, f), dtype=T.dtype))
    grads["g_attn"] += dS_rows @ T.reshape(B * K, f)
    grads["b_attn"] += (dS_rows @ mask) * g_attn
    grads["W_attn"] += ((U * dS[:, :, None]).reshape(B * K, d).T @ mask) * g_attn
    dU = (mask @ (g_attn[:, None] * params["W_attn"].T)).reshape(B, K, d)
    dU *= dS[:, :, None]

    dHp = np.einsum("bk,bd->bkd", A, dh_fused)
    dHp += dU * Cp
    dU *= Hp
    dCp = (ones @ dU.reshape(B, K * d)).reshape(K, d)
    grads["W_proj"] += np.matmul(H.transpose(1, 2, 0), dHp.transpose(1, 0, 2))
    grads["W_proj"] += C[:, :, None] * dCp[:, None, :]
    grads["b_proj"] += (ones @ dHp.reshape(B, K * d)).reshape(K, d) + dCp


def reference_grads(params, grads, H, C, dlogits):
    """Accumulate the unfolded passes' gradients for (H, C, dlogits)."""
    _, cache = unfolded_forward(params, H, C, with_cache=True)
    unfolded_backward(params, grads, cache, dlogits)


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
        logits, cache = _forward(store.params, H, C, with_cache=True)
        _, dlogits = cross_entropy_rows(logits, rng.integers(0, v, size=H.shape[0]))
        dlogits /= H.shape[0]
        # a nonzero start checks that gradients accumulate
        start_grads = {n: rng.normal(size=p.shape) for n, p in store.params.items()}
        want = {n: g.copy() for n, g in start_grads.items()}
        reference_grads(store.params, want, H, C, dlogits)
        got = {n: g.copy() for n, g in start_grads.items()}
        _backward(store.params, got, cache, dlogits)
        for name in store.names():
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
        _, dlogits = cross_entropy_rows(logits, rng.integers(0, v, size=H.shape[0]))
        dlogits /= H.shape[0]
        want = {n: np.zeros_like(p) for n, p in store.params.items()}
        reference_grads(store.params, want, H, C, dlogits)

        params32 = {n: p.astype(np.float32) for n, p in store.params.items()}
        got = {n: np.zeros_like(p) for n, p in params32.items()}
        _, cache = _forward(params32, H.astype(np.float32), C.astype(np.float32),
                            with_cache=True)
        _backward(params32, got, cache, dlogits.astype(np.float32))
        for name in store.names():
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
        params_p["b_proj"] = store.params["b_proj"][perm]

        logits, cache = _forward(store.params, H, C, with_cache=True)
        logits_p, cache_p = _forward(params_p, H[:, perm], C[perm], with_cache=True)
        np.testing.assert_allclose(cache_p.A, cache.A[:, perm], rtol=1e-9)
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
        store.params["W_proj"][...] = W
        store.params["b_proj"][...] = b
        H = np.tile(h, (1, k, 1))
        C = np.tile(c, (k, 1))
        _, cache = _forward(store.params, H, C, with_cache=True)
        h_fused = cache.h_fused[0]
        np.testing.assert_allclose(h_fused, h @ W + b, rtol=1e-12, atol=1e-12)


def old_encode_batch(model, prefixes):
    # The former encode_batch, which padded every prefix on its own row:
    # skip pad ids, keep the last max_len items, pad, run prefix_states,
    # gather each row's last state.
    cleaned = [[int(i) for i in p if int(i) != 0][-model.max_len:] for p in prefixes]
    if not cleaned:
        return np.zeros((0, model.d), dtype=model.embeddings.dtype)
    lengths = np.array([len(c) for c in cleaned], dtype=np.int64)
    ids = np.zeros((len(cleaned), max(1, int(lengths.max()))), dtype=np.int64)
    for i, c in enumerate(cleaned):
        ids[i, : len(c)] = c
    states = prefix_states(model, ids)
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

    def test_one_copy_of_the_feature_table_per_epoch(self):
        # each epoch's shuffled copy of the table reuses one buffer, so the
        # traced peak stays well below two copies (a fresh gather per
        # epoch, made while the previous epoch's copy is still bound, holds
        # two); batches are small next to the table
        rng = np.random.default_rng(0)
        rows, k, d, v = 20000, 2, 16, 20
        features = rng.normal(size=(rows, k, d)).astype(np.float32)
        targets = rng.integers(1, v + 1, size=rows)
        centroids = ShardCentroids(c=rng.normal(size=(k, d)).astype(np.float32))
        sub_models = [SimpleNamespace(d=d)] * k
        corpus = SimpleNamespace(num_items=lambda: v)
        config = AggregationConfig(f=8, epochs=3, batch_size=250, seed=2)
        tracemalloc.start()
        try:
            train_aggregation(sub_models, centroids, corpus, config,
                              precomputed=(features, targets))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * features.nbytes

    def test_no_sub_models_rejected(self):
        data, _, _, _ = small_setup(k=1)
        with pytest.raises(ContractError):
            train_aggregation([], ShardCentroids(c=np.zeros((0, 8))), data,
                              AggregationConfig(seed=0))


class TestSruModelPredict:
    def test_predict_matches_manual_pipeline(self):
        data, shards, models, centroids = small_setup(num_sessions=12, k=2)
        config = AggregationConfig(f=8, lr=5e-3, epochs=2, seed=2)
        agg = train_aggregation(models, centroids, data, config)
        sru = SruModel(sub_models=tuple(models), centroids=centroids,
                       aggregation=agg, max_len=14)

        prefix = data.sessions[0].items[:4]
        params = agg.store.params
        h_list = np.stack([encode(m, prefix) for m in models])
        hp = np.stack([
            project(h_list[i], centroids.c[i], params["W_proj"][i], params["b_proj"][i])[0]
            for i in range(2)
        ])
        cp = np.stack([
            project(h_list[i], centroids.c[i], params["W_proj"][i], params["b_proj"][i])[1]
            for i in range(2)
        ])
        a = attention_scores(hp, cp, params["W_attn"], params["b_attn"], params["g_attn"])
        fused = fuse(a, hp)
        logits = predict_output(fused, params["W1"], params["b1"],
                                params["W2"], params["b2"])
        out = sru.predict(prefix)
        assert out[0] == -np.inf
        np.testing.assert_allclose(out[1:], logits, rtol=1e-4, atol=1e-5)

    def fitted(self):
        data, _, models, centroids = small_setup(num_sessions=12, k=2)
        agg = train_aggregation(models, centroids, data,
                                AggregationConfig(f=8, lr=5e-3, epochs=1, seed=2))
        sru = SruModel(sub_models=tuple(models), centroids=centroids,
                       aggregation=agg, max_len=14)

        def oracle(prefixes):
            H = np.stack([old_encode_batch(m, prefixes) for m in models], axis=1)
            logits, _ = _forward(agg.store.params, H, centroids.c.astype(H.dtype))
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
        # Every prefix of three sessions, shuffled and with duplicates, is
        # served from one padded row per session, and prefixes that branch
        # off a chain get rows of their own; the logits must still be
        # those of padding every prefix on its own row.
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


class TestFeatureCache:
    def test_table_matches_layout(self):
        data, _, models, _ = small_setup(num_sessions=10, k=2)
        cache = build_feature_cache(models, data)
        # Oracle: every sub-model runs prefix_states over the hand-padded
        # sessions; row t of a session is the state after its first t + 1
        # items and its target is item t + 1.
        tails = [s.items[-14:] for s in data.sessions]
        ids = np.zeros((len(tails), max(map(len, tails))), dtype=np.int64)
        for i, tail in enumerate(tails):
            ids[i, : len(tail)] = tail
        per_model = [prefix_states(m, ids) for m in models]
        features, targets = [], []
        for i, tail in enumerate(tails):
            for t in range(len(tail) - 1):
                features.append(np.stack([states[i, t] for states in per_model]))
                targets.append(tail[t + 1])
        np.testing.assert_array_equal(cache.features, np.stack(features))
        np.testing.assert_array_equal(cache.targets, targets)
        total = sum(min(len(s), 14) - 1 for s in data.sessions)
        assert cache.features.shape[0] == total

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
        full = build_feature_cache(new_models, modified)
        np.testing.assert_array_equal(updated.targets, full.targets)
        assert updated.features.dtype == full.features.dtype
        assert updated.features.tobytes() == full.features.tobytes()
        assert updated.row_slices == full.row_slices
