import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sru import numerics
from sru.errors import ContractError, DeterminismError, DimensionError
from sru.numerics import (
    AdamState,
    ParamStore,
    RngStream,
    _Buffers,
    _exp_sum_floor,
    _softmax_loss,
    adam_step,
    derive_seed,
    finite_difference_check,
    linear_forward_backward,
    sigmoid,
    softmax,
)
from reference import cross_entropy_rows, cross_entropy_with_grad


class TestSigmoid:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 4e-16), (np.float32, 2.4e-7)])
    def test_matches_exp_oracle(self, dtype, tol):
        x = np.random.default_rng(0).uniform(-40.0, 40.0, 20000).astype(dtype)
        oracle = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        assert np.abs(sigmoid(x).astype(np.float64) - oracle).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_symmetry_and_dtype(self, dtype):
        x = np.random.default_rng(1).normal(scale=5.0, size=(64, 32)).astype(dtype)
        out = sigmoid(x)
        assert out.dtype == dtype and out.shape == x.shape
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(sigmoid(-x), 1.0 - out, rtol=0, atol=2 * eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturates_without_warning(self, dtype):
        x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
        assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))
        assert out[0] == 0.0 and out[2] == 0.5 and out[-1] == 1.0


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    @pytest.mark.parametrize("c", [-3.0, 0.0, 42.0])
    def test_single_element(self, c):
        np.testing.assert_allclose(softmax(np.array([c])), [1.0])

    def test_max_subtraction_keeps_finiteness(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_empty_is_dimension_error(self):
        with pytest.raises(DimensionError):
            softmax(np.array([]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    def test_probability_vector(self, values):
        out = softmax(np.array(values))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-6


class TestCrossEntropy:
    def test_uniform_four_classes(self):
        loss, _ = cross_entropy_with_grad(np.zeros(4), 1)
        assert loss == pytest.approx(math.log(4), abs=1e-9)

    def test_confident_logit_small_loss(self):
        # analytic: -log(e^10 / (e^10 + 3)) = log(1 + 3 e^-10)
        logits = np.zeros(4)
        logits[2] = 10.0
        loss, _ = cross_entropy_with_grad(logits, 2)
        assert loss == pytest.approx(math.log(1.0 + 3.0 * math.exp(-10.0)), rel=1e-9)
        assert loss < 1e-3

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=20), st.data())
    def test_gradient_sums_to_zero(self, values, data):
        target = data.draw(st.integers(0, len(values) - 1))
        _, grad = cross_entropy_with_grad(np.array(values), target)
        assert abs(grad.sum()) < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_with_grad(np.zeros(3), 3)


class TestCrossEntropyRows:
    @staticmethod
    def float64_oracle(logits, targets):
        z = logits.astype(np.float64)
        log_p = z - z.max(axis=1, keepdims=True)
        log_p -= np.log(np.exp(log_p).sum(axis=1, keepdims=True))
        rows = np.arange(z.shape[0])
        grad = np.exp(log_p)
        grad[rows, targets] -= 1.0
        return -log_p[rows, targets], grad

    def test_float32_finite_and_close_to_float64_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=3.0, size=(64, 50)).astype(np.float32)
        targets = rng.integers(0, 50, size=64)
        # row 0: the target sits 200 below the best logit, so its softmax
        # probability underflows to 0 in float32
        logits[0] = 0.0
        logits[0, 7] = 100.0
        logits[0, targets[0] if targets[0] != 7 else 8] = -100.0
        losses, dlogits = cross_entropy_rows(logits, targets)
        assert losses.dtype == np.float32 and dlogits.dtype == np.float32
        assert np.isfinite(losses).all() and np.isfinite(dlogits).all()
        want_losses, want_grad = self.float64_oracle(logits, targets)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dlogits, want_grad, rtol=0, atol=1e-5)
        assert losses[0] == pytest.approx(200.0, rel=1e-5)

    def test_float64_keeps_dtype_and_matches_single_row_version(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 9))
        targets = rng.integers(0, 9, size=5)
        losses, dlogits = cross_entropy_rows(logits, targets)
        assert losses.dtype == np.float64 and dlogits.dtype == np.float64
        for i in range(5):
            loss, grad = cross_entropy_with_grad(logits[i], int(targets[i]))
            assert losses[i] == pytest.approx(loss, rel=1e-12)
            np.testing.assert_allclose(dlogits[i], grad, rtol=0, atol=1e-15)


def softmax_loss_oracle(hidden, W, b, targets, scale):
    """The output layer and loss from explicit float64 products and the
    reference cross-entropy."""
    hidden, W = hidden.astype(np.float64), W.astype(np.float64)
    logits = hidden @ W.T
    if b is not None:
        logits += b.astype(np.float64)
    losses, dlogits = cross_entropy_rows(logits, targets)
    dlogits /= scale
    db = None if b is None else dlogits.sum(axis=0)
    return float(losses.sum()), dlogits.T @ hidden, db, dlogits @ W


@pytest.fixture(scope="module")
def default_state():
    """A state fitted at the default config (seed 7)."""
    from sru.config import ExperimentConfig
    from sru.corpus import generate_synthetic, split
    from sru.numerics import derive_seed
    from sru.pipeline import fit_state

    config = ExperimentConfig.defaults()
    data = generate_synthetic(
        num_sessions=config["synthetic.sessions"], vocab_size=config["synthetic.items"],
        num_clusters=config["synthetic.clusters"], noise_rate=config["synthetic.noise"],
        seed=derive_seed(config.seed, "synthetic"), min_len=config["synthetic.min_len"],
        max_len=config["synthetic.max_len"])
    train, validation, _ = split(data, seed=derive_seed(config.seed, "split"))
    return fit_state(train, validation, config)


class TestSoftmaxLoss:
    @staticmethod
    def case(dtype, with_bias):
        """Random rows plus two built ones: in row 0 the target holds the
        row max, and row 1's logits spread by more than 100 with the
        target at the bottom."""
        rng = np.random.default_rng(7 + with_bias)
        n, h, v = 12, 5, 9
        hidden = rng.normal(size=(n, h))
        W = rng.normal(size=(v, h))
        b = rng.normal(size=v) if with_bias else None
        targets = rng.integers(0, v, size=n)
        hidden[1] *= 40.0
        logits = hidden @ W.T + (0.0 if b is None else b)
        targets[0] = int(np.argmax(logits[0]))
        targets[1] = int(np.argmin(logits[1]))
        assert np.ptp(logits[1]) > 100
        cast = (lambda a: None if a is None else a.astype(dtype))
        return cast(hidden), cast(W), cast(b), targets

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_float64_oracle(self, dtype, tol, with_bias):
        hidden, W, b, targets = self.case(dtype, with_bias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softmax_loss(hidden, W, b, targets, 4)
        want = softmax_loss_oracle(hidden, W, b, targets, 4)
        assert got[0] == pytest.approx(want[0], rel=tol)
        assert (got[2] is None) == (b is None)
        for g, w in zip(got[1:], want[1:]):
            if w is None:
                continue
            assert g.dtype == dtype
            assert np.isfinite(g).all()
            assert np.abs(g - w).max() <= tol * np.abs(w).max()

    def test_reused_buffer_gives_the_same_bits(self):
        hidden, W, b, targets = self.case(np.float32, True)
        fresh = _softmax_loss(hidden, W, b, targets, 3)
        out = np.full((20, W.shape[0]), np.nan, dtype=np.float32)
        reused = _softmax_loss(hidden, W, b, targets, 3, out)
        assert reused[0] == fresh[0]
        for g, w in zip(reused[1:], fresh[1:]):
            assert g.tobytes() == w.tobytes()

    def test_target_count_must_match_rows(self):
        hidden, W, b, targets = self.case(np.float64, False)
        with pytest.raises(DimensionError):
            _softmax_loss(hidden, W, b, targets[:-1], 1)

    # -- the block-max shift and its row-max fallback

    @staticmethod
    def fallbacks(monkeypatch) -> list:
        """Record each call of the row-max fallback."""
        calls = []
        fallback = numerics._row_max_exp

        def spy(*args):
            calls.append(args[0].shape[0])
            return fallback(*args)

        monkeypatch.setattr(numerics, "_row_max_exp", spy)
        return calls

    @staticmethod
    def check_against_oracle(hidden, W, targets, dtype, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softmax_loss(hidden, W, None, targets, 3)
        want = softmax_loss_oracle(hidden, W, None, targets, 3)
        assert got[0] == pytest.approx(want[0], rel=tol)
        for g, w in zip(got[1:], want[1:]):
            if w is not None:
                assert g.dtype == dtype
                assert np.abs(g - w).max() <= tol * np.abs(w).max()

    @staticmethod
    def block(dtype, gap_of_row_1):
        """Logits = hidden exactly (W is the identity): four random rows,
        then row 1 moved so that its max lies gap_of_row_1(rest) below
        the block's, where rest are its logits less their max."""
        rng = np.random.default_rng(11)
        hidden = rng.normal(scale=2.0, size=(4, 6))
        rest = hidden[1] - hidden[1].max()
        hidden[1] = np.delete(hidden, 1, axis=0).max() - gap_of_row_1(rest) + rest
        return hidden.astype(dtype), np.eye(6, dtype=dtype), rng.integers(0, 6, size=4)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_row_maxima_200_apart(self, dtype, tol, monkeypatch):
        # Float32's exp(-200) is 0, so that row's sum underflows and the
        # block falls back to row maxima; float64 stays above its floor.
        calls = self.fallbacks(monkeypatch)
        hidden, W, targets = self.block(dtype, lambda rest: 200.0)
        self.check_against_oracle(hidden, W, targets, dtype, tol)
        assert calls == ([4] if dtype == np.float32 else [])

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_row_just_inside_the_floor(self, dtype, tol, monkeypatch):
        # row 1's sum of exp(logits - block max) is twice the floor
        calls = self.fallbacks(monkeypatch)
        floor = _exp_sum_floor(dtype)
        hidden, W, targets = self.block(
            dtype, lambda rest: np.log(np.exp(rest).sum()) - np.log(2 * floor))
        shifted = hidden.astype(np.float64) - hidden.max()
        assert 1.5 * floor < np.exp(shifted[1]).sum() < 2.5 * floor
        self.check_against_oracle(hidden, W, targets, dtype, tol)
        assert calls == []

    def test_fast_path_on_default_batches(self, default_state, monkeypatch):
        # A fallback that always ran would pass every other test; the
        # trained default-config models must take the block shift on a
        # shard batch and on a fusion batch.
        from sru.aggregation import _train_step
        from sru.backbone import padded_items, sequence_loss_and_grads

        calls = self.fallbacks(monkeypatch)
        state = default_state
        model = state.sub_models[0]
        ids, _ = padded_items([s.items for s in state.shards[0].sessions], model.max_len)
        _, positions = sequence_loss_and_grads(model, ids)
        assert positions > 1000
        store = state.aggregation.store.copy()
        cache = state.feature_cache
        rows = slice(0, 256)
        _train_step(store.params, store.grads, cache.features[rows],
                    state.centroids.c.astype(cache.features.dtype),
                    cache.targets[rows] - 1, _Buffers())
        assert np.isfinite(store.grad_values).all()
        assert calls == []


class TestLinear:
    def test_identity(self):
        y, _ = linear_forward_backward(np.array([1.0, 2.0]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, [1.0, 2.0])

    def test_hand_product(self):
        # x W = [1,0] [[2,3],[5,7]] = [2,3]; plus b = [3,4]
        y, _ = linear_forward_backward(
            np.array([1.0, 0.0]), np.array([[2.0, 3.0], [5.0, 7.0]]), np.array([1.0, 1.0])
        )
        np.testing.assert_array_equal(y, [3.0, 4.0])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError) as err:
            linear_forward_backward(np.zeros(3), np.eye(2), np.zeros(2))
        assert "(3,)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=3)
        weight = rng.normal(size=(3, 4))
        bias = rng.normal(size=4)
        probe = rng.normal(size=4)  # loss = (x W + b) . probe

        store = ParamStore()
        store.add("W", weight)
        store.add("b", bias)

        def loss_fn(s):
            y, _ = linear_forward_backward(x, s.params["W"], s.params["b"])
            return float(y @ probe)

        _, grads = linear_forward_backward(x, weight, bias, upstream_grad=probe)
        store.grads["W"][...] = grads[1]
        store.grads["b"][...] = grads[2]
        assert finite_difference_check(loss_fn, store) < 1e-6


def scalar_adam_oracle(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    # independent reference implementation, plain floats
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


def per_name_adam_reference(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # Adam one parameter at a time, in sorted-name order: the oracle that
    # the flat-buffer adam_step must match bit for bit
    params = {n: p.copy() for n, p in params.items()}
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for name in sorted(params):
            g = grads[name]
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * np.square(g)
            m_hat = m[name] / (1.0 - beta1 ** t)
            v_hat = v[name] / (1.0 - beta2 ** t)
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        g = 0.3
        store = ParamStore()
        store.add("w", np.array([0.5]))
        store.grads["w"][...] = g
        state = AdamState.for_store(store)
        adam_step(store, state, lr=0.01)
        delta = store.params["w"][0] - 0.5
        assert abs(delta + 0.01 * math.copysign(1.0, g)) <= 0.01 * 1e-8 / abs(g) + 1e-15
        assert state.t == 1

    def test_zero_gradient_keeps_parameters(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0]))
        state = AdamState.for_store(store)
        adam_step(store, state, lr=0.1)
        np.testing.assert_array_equal(store.params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_quadratic_descent_matches_scalar_oracle(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        state = AdamState.for_store(store)
        for _ in range(100):
            store.grads["w"][...] = 2.0 * store.params["w"]
            adam_step(store, state, lr=0.1)
        expected = scalar_adam_oracle(1.0, lambda w: 2.0 * w, lr=0.1, steps=100)
        assert store.params["w"][0] == pytest.approx(expected, rel=1e-12)
        assert abs(store.params["w"][0]) < 0.5

    def test_missing_gradient_names_parameter(self):
        store = ParamStore()
        store.add("theta", np.zeros(2))
        state = AdamState.for_store(store)
        del store.grads["theta"]
        with pytest.raises(ContractError, match="theta"):
            adam_step(store, state, lr=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_per_name_reference(self, dtype):
        rng = np.random.default_rng(11)
        shapes = {"W_b": (3, 4), "a": (5,), "k": (2, 2, 3), "z0": (1,)}
        init = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        grad_steps = [{n: rng.normal(scale=0.5, size=s).astype(dtype)
                       for n, s in shapes.items()} for _ in range(20)]
        store = ParamStore()
        for name in ("k", "W_b", "z0", "a"):        # added out of order
            store.add(name, init[name])
        state = AdamState.for_store(store)
        for grads in grad_steps:
            store.zero_grads()
            for name, g in grads.items():
                store.accumulate(name, g)
            adam_step(store, state, lr=0.01)
        want = per_name_adam_reference(init, grad_steps, lr=0.01)
        for name in shapes:
            assert store.params[name].dtype == dtype
            assert store.params[name].tobytes() == want[name].tobytes(), name
        assert store.tobytes() == b"".join(want[n].tobytes() for n in sorted(want))

    def test_replaced_parameter_names_it(self):
        store = ParamStore()
        store.add("w", np.zeros(3))
        store.add("u", np.zeros(2))
        state = AdamState.for_store(store)
        store.params["w"] = np.ones(3)
        with pytest.raises(ContractError, match="'w'"):
            adam_step(store, state, lr=0.1)
        with pytest.raises(ContractError, match="'w'"):
            store.zero_grads()


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        store = ParamStore()
        store.add("w", np.array([0.3, -1.2, 2.0]))
        store.grads["w"][...] = 2.0 * store.params["w"]
        err = finite_difference_check(lambda s: float((s.params["w"] ** 2).sum()), store)
        assert err < 1e-8

    def test_nondeterministic_loss_rejected(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        calls = iter(range(1000))

        def jittery(s):
            return float(s.params["w"][0]) + next(calls) * 1e-3

        with pytest.raises(DeterminismError):
            finite_difference_check(jittery, store)


class TestRngStream:
    def test_same_seed_and_name_repeats(self):
        a = RngStream(9, "abc").random(16)
        b = RngStream(9, "abc").random(16)
        np.testing.assert_array_equal(a, b)

    def test_stream_names_separate(self):
        a = RngStream(9, "abc").random(16)
        b = RngStream(9, "abd").random(16)
        assert not np.array_equal(a, b)

    def test_mean_of_uniform_draws(self):
        draws = RngStream(123, "stats").random(100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError):
            RngStream(-1, "x")

    def test_derive_seed_stable(self):
        assert derive_seed(7, "shard-0") == derive_seed(7, "shard-0")
        assert derive_seed(7, "shard-0") != derive_seed(7, "shard-1")
        assert derive_seed(7, "shard-0") >= 0


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ContractError):
            store.add("w", np.zeros(1))

    def test_names_sorted(self):
        store = ParamStore()
        for name in ("b", "a", "c"):
            store.add(name, np.zeros(1))
        assert store.names() == ["a", "b", "c"]

    def test_accumulate_shape_checked(self):
        store = ParamStore()
        store.add("w", np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            store.accumulate("w", np.zeros(3))

    def test_entries_are_views_of_the_sorted_buffers(self):
        store = ParamStore()
        store.add("b", np.array([3.0, 4.0]))
        store.add("a", np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(store.values, [1.0, 2.0, 3.0, 4.0])
        packed_at_once = ParamStore({"b": [3.0, 4.0], "a": [[1.0], [2.0]]})
        assert packed_at_once.tobytes() == store.tobytes()
        assert packed_at_once.params["a"].shape == (2, 1)
        store.grads["b"][...] = 7.0
        np.testing.assert_array_equal(store.grad_values, [0.0, 0.0, 7.0, 7.0])
        twin = store.copy()
        twin.params["a"][...] = 0.0
        assert store.params["a"][0, 0] == 1.0
        np.testing.assert_array_equal(twin.grads["b"], [7.0, 7.0])

    def test_mixed_dtypes_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2, dtype=np.float32))
        with pytest.raises(ContractError, match="'u'"):
            store.add("u", np.zeros(2, dtype=np.float64))
