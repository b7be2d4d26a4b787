import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sru.backbone import (
    GATE_NAMES,
    BackboneConfig,
    GruModel,
    _check_ids,
    _gate_weights,
    _input_side,
    _stacked_gate_weights,
    _step_forward,
    encode,
    encode_batch,
    encode_stacked,
    gru_cell,
    gru_cell_backward,
    gru_cell_forward,
    init_gru_model,
    pad_prefixes,
    padded_items,
    score,
    sequence_loss_and_grads,
    train_backbone,
    train_many,
    training_points,
)
from sru.corpus import generate_synthetic, split
from sru.errors import ContractError, DimensionError
from sru.numerics import ParamStore, _Buffers, finite_difference_check, sigmoid
from reference import cross_entropy_rows


def zero_params(d):
    return {name: np.zeros(d if name.startswith("b") else (d, d)) for name in GATE_NAMES}


def random_gate_params(d, rng):
    return {
        name: rng.normal(scale=0.4, size=(d,) if name.startswith("b") else (d, d))
        for name in GATE_NAMES
    }


class TestGruCell:
    def test_zero_parameters_halve_previous_state(self):
        # z = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0, so the
        # new state is 0.5 * h_prev.
        d = 5
        rng = np.random.default_rng(0)
        h_prev = rng.normal(size=d)
        x = rng.normal(size=d)
        h_new = gru_cell(zero_params(d), x, h_prev)
        np.testing.assert_allclose(h_new, 0.5 * h_prev, rtol=1e-12)

    def test_zero_state_and_parameters_stay_zero(self):
        d = 4
        h_new = gru_cell(zero_params(d), np.ones(d), np.zeros(d))
        np.testing.assert_array_equal(h_new, np.zeros(d))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gru_cell(zero_params(3), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences(self, seed):
        d = 8
        rng = np.random.default_rng(seed)
        params = random_gate_params(d, rng)
        x = rng.normal(size=(1, d))
        h_prev = rng.normal(size=(1, d))
        probe = rng.normal(size=(1, d))  # loss = h_new . probe

        store = ParamStore()
        for name in GATE_NAMES:
            store.add(name, params[name])
        store.add("x", x)
        store.add("h_prev", h_prev)

        def loss_fn(s):
            gates = {name: s.params[name] for name in GATE_NAMES}
            h_new, _ = gru_cell_forward(gates, s.params["x"], s.params["h_prev"])
            return float((h_new * probe).sum())

        gates = {name: store.params[name] for name in GATE_NAMES}
        h_new, cache = gru_cell_forward(gates, store.params["x"], store.params["h_prev"])
        dx, dh, grads = gru_cell_backward(gates, cache, probe)
        for name in GATE_NAMES:
            store.grads[name][...] = grads[name]
        store.grads["x"][...] = dx
        store.grads["h_prev"][...] = dh
        assert finite_difference_check(loss_fn, store) < 1e-4


def tiny_model(num_items=6, d=4, seed=3, max_len=10, dtype="float64"):
    config = BackboneConfig(d=d, max_len=max_len, seed=seed, dtype=dtype)
    return init_gru_model(num_items, config)


class TestEncode:
    def test_empty_prefix_is_zero_state(self):
        model = tiny_model()
        np.testing.assert_array_equal(encode(model, []), np.zeros(4))

    def test_single_item_matches_one_cell_step(self):
        model = tiny_model()
        gates = {name: model.store.params[name] for name in GATE_NAMES}
        expected = gru_cell(gates, model.embeddings[3], np.zeros(4))
        np.testing.assert_array_equal(encode(model, [3]), expected)

    def test_three_items_match_manual_chaining(self):
        model = tiny_model()
        gates = {name: model.store.params[name] for name in GATE_NAMES}
        h = np.zeros(4)
        for item in (2, 5, 1):
            h = gru_cell(gates, model.embeddings[item], h)
        np.testing.assert_array_equal(encode(model, [2, 5, 1]), h)

    def test_prefix_causality(self):
        # extending the prefix only advances the state through the
        # appended items
        model = tiny_model()
        gates = {name: model.store.params[name] for name in GATE_NAMES}
        h = encode(model, [1, 2])
        for item in (4, 6):
            h = gru_cell(gates, model.embeddings[item], h)
        np.testing.assert_array_equal(encode(model, [1, 2, 4, 6]), h)

    def test_pads_skipped_and_window_applied(self):
        model = tiny_model(max_len=3)
        np.testing.assert_array_equal(
            encode(model, [5, 0, 1, 0, 2, 3, 4]), encode(model, [2, 3, 4])
        )

    def test_out_of_vocab_rejected(self):
        with pytest.raises(IndexError):
            encode(tiny_model(num_items=6), [7])

    def test_batch_matches_single(self):
        # batched matmuls may differ from the single-row path by an ulp
        model = tiny_model()
        prefixes = [[1, 2, 3], [], [4], [5, 6]]
        batch = encode_batch(model, prefixes)
        for row, prefix in zip(batch, prefixes):
            np.testing.assert_allclose(row, encode(model, prefix), rtol=1e-12, atol=1e-15)

    def test_shared_prefixes_padded_once(self):
        # Prefixes of one chain share its row; an empty prefix shares any
        # row at length 0; a windowed prefix is cleaned before matching.
        model = tiny_model(max_len=4)
        prefixes = [[1, 2], [5], [1, 2, 3], [], [1], [0, 1, 0, 2], [1, 2, 3],
                    [6, 1, 2, 3, 4], [5, 6], [2, 3], [1, 4], [1, 3]]
        ids, rows, lengths = pad_prefixes(model, prefixes)
        assert sorted(map(tuple, ids.tolist())) == [
            (1, 2, 3, 4), (1, 3, 0, 0), (1, 4, 0, 0), (2, 3, 0, 0), (5, 6, 0, 0)]
        np.testing.assert_array_equal(lengths, [2, 1, 3, 0, 1, 2, 3, 4, 2, 2, 2, 2])
        for prefix, row, length in zip(prefixes, rows, lengths):
            cleaned = [i for i in prefix if i][-4:]
            assert ids[row, :length].tolist() == cleaned
        assert rows[0] == rows[2] == rows[4] == rows[5] == rows[6] == rows[7]
        assert rows[1] == rows[8] != rows[9]
        assert len({rows[0], rows[10], rows[11]}) == 3
        batch = encode_batch(model, prefixes)
        for row, prefix in zip(batch, prefixes):
            np.testing.assert_allclose(row, encode(model, prefix), rtol=1e-12, atol=1e-15)

    def test_pad_prefixes_of_nothing(self):
        ids, rows, lengths = pad_prefixes(tiny_model(), [])
        assert ids.shape[0] == rows.size == lengths.size == 0
        ids, rows, lengths = pad_prefixes(tiny_model(), [[], [0]])
        assert ids.shape == (1, 1) and rows.tolist() == [0, 0] and lengths.tolist() == [0, 0]


class TestScore:
    def test_zero_state_gives_uniform_scores(self):
        model = tiny_model()
        logits = score(model, np.zeros(4))
        np.testing.assert_array_equal(logits[1:], np.zeros(6))
        assert logits[0] == -np.inf

    def test_orthogonal_embeddings_rank_own_item_first(self):
        model = tiny_model(num_items=4, d=4)
        model.store.params["E"][1:] = np.eye(4)
        logits = score(model, model.embeddings[3].copy())
        assert int(np.argmax(logits[1:])) + 1 == 3

    def test_matches_bruteforce_dot_products(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        h = rng.normal(size=4)
        logits = score(model, h)
        for v in range(1, 7):
            assert logits[v] == pytest.approx(float(model.embeddings[v] @ h), abs=1e-6)


class TestUnrolledGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_loss_passes_finite_differences(self, seed):
        data = generate_synthetic(3, 20, 2, noise_rate=0.3, seed=seed,
                                  min_len=4, max_len=6)
        config = BackboneConfig(d=6, max_len=6, seed=seed, dtype="float64")
        model = init_gru_model(20, config)
        ids, _ = padded_items([s.items for s in data.sessions], 6)

        _, positions = sequence_loss_and_grads(model, ids)
        assert positions > 0
        analytic = {k: v.copy() for k, v in model.store.grads.items()}

        def loss_only(store):
            # reruns the forward pass on the perturbed store, then puts the
            # reference analytic gradients back (the call clobbers them)
            s, p = sequence_loss_and_grads(model, ids)
            for k, v in analytic.items():
                store.grads[k][...] = v
            return s / p

        assert finite_difference_check(loss_only, model.store) < 1e-4


class TestTraining:
    def test_loss_decreases_on_small_corpus(self):
        data = generate_synthetic(20, 30, 2, noise_rate=0.1, seed=4)
        config = BackboneConfig(d=16, max_len=14, epochs=5, lr=3e-3, seed=1)
        model = train_backbone(data, config)
        losses = model.loss_history
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_training_is_bitwise_deterministic(self):
        data = generate_synthetic(40, 30, 2, noise_rate=0.2, seed=6)
        config = BackboneConfig(d=8, max_len=14, epochs=3, lr=3e-3, seed=11)
        first = train_backbone(data, config)
        second = train_backbone(data, config)
        assert first.params_bytes() == second.params_bytes()

    def test_beats_popularity_baseline_strongly(self):
        data = generate_synthetic(800, 200, 2, noise_rate=0.05, seed=9)
        train, _, test = split(data, seed=2)
        config = BackboneConfig(d=32, max_len=14, epochs=15, lr=3e-3, seed=3)
        model = train_backbone(train, config)

        counts = np.zeros(train.num_items() + 1)
        for s in train.sessions:
            for item in s.items:
                counts[item] += 1
        top10 = set(np.argsort(-counts[1:], kind="stable")[:10] + 1)

        points = [(s.items[:t], s.items[t]) for s in test.sessions
                  for t in range(1, len(s))]
        model_hits = 0
        pop_hits = 0
        for prefix, target in points:
            logits = model.predict(prefix)
            rank = 1 + int(np.sum(logits[1:] > logits[target]))
            model_hits += rank <= 10
            pop_hits += target in top10
        assert model_hits > 5 * max(1, pop_hits)

    def test_empty_dataset_rejected(self):
        data = generate_synthetic(5, 30, 2, seed=0)
        empty = data.with_sessions([])
        with pytest.raises(ContractError):
            train_backbone(empty, BackboneConfig(d=4, max_len=10, epochs=1, seed=0))

    def test_wrong_split_tag_rejected(self):
        data = generate_synthetic(12, 30, 2, seed=0)
        _, val, _ = split(data, seed=0)
        with pytest.raises(ContractError):
            train_backbone(val, BackboneConfig(d=4, max_len=10, epochs=1, seed=0))

    def test_parallel_training_matches_serial(self):
        data = generate_synthetic(60, 30, 2, noise_rate=0.1, seed=13)
        shards = [data.with_sessions(data.sessions[:30]),
                  data.with_sessions(data.sessions[30:])]
        configs = [BackboneConfig(d=8, max_len=14, epochs=2, lr=3e-3, seed=s)
                   for s in (21, 22)]
        serial = train_many(shards, configs, parallel=False)
        parallel = train_many(shards, configs, parallel=True)
        for a, b in zip(serial, parallel):
            assert a.params_bytes() == b.params_bytes()

    def test_early_stopping_restores_best(self):
        data = generate_synthetic(80, 30, 2, noise_rate=0.2, seed=5)
        train, val, _ = split(data, seed=1)
        config = BackboneConfig(d=8, max_len=14, epochs=12, lr=5e-3, seed=2, patience=2)
        stopped = train_backbone(train, config, val_dataset=val)
        rerun = train_backbone(train, config, val_dataset=val)
        assert stopped.params_bytes() == rerun.params_bytes()


# -- oracles: the per-step recurrence and the per-prefix padder that the
# library used before its time-major kernels, copied verbatim (renamed
# with a parent_ prefix), run in float64.

def parent_gru_cell_forward(params, x, h_prev):
    """One GRU step on row vectors; x and h_prev are (B, d).

    z = sigmoid(x Wz + h Uz + bz)
    r = sigmoid(x Wr + h Ur + br)
    n = tanh(x Wn + (r * h) Un + bn)
    h_new = (1 - z) * h + z * n
    """
    x = np.atleast_2d(np.asarray(x))
    h = np.atleast_2d(np.asarray(h_prev))
    if x.shape != h.shape or x.shape[1] != params["W_z"].shape[0]:
        raise DimensionError(f"gru_cell shapes do not conform: x {x.shape}, h {h.shape}")
    z = sigmoid(x @ params["W_z"] + h @ params["U_z"] + params["b_z"])
    r = sigmoid(x @ params["W_r"] + h @ params["U_r"] + params["b_r"])
    rh = r * h
    n = np.tanh(x @ params["W_n"] + rh @ params["U_n"] + params["b_n"])
    h_new = (1.0 - z) * h + z * n
    return h_new, (x, h, z, r, rh, n)


def parent_gru_cell_backward(params, cache, dh_new, out_grads=None):
    """Backward pass of one GRU step.

    Accumulates parameter gradients into out_grads (a name -> array
    mapping; created if omitted) and returns (dx, dh_prev, out_grads).
    """
    x, h, z, r, rh, n = cache
    dh_new = np.atleast_2d(np.asarray(dh_new))
    if out_grads is None:
        out_grads = {name: np.zeros_like(params[name]) for name in GATE_NAMES}

    dz = dh_new * (n - h)
    dn = dh_new * z
    dh = dh_new * (1.0 - z)

    dpre_n = dn * (1.0 - n * n)
    out_grads["W_n"] += x.T @ dpre_n
    out_grads["U_n"] += rh.T @ dpre_n
    out_grads["b_n"] += dpre_n.sum(axis=0)
    drh = dpre_n @ params["U_n"].T
    dr = drh * h
    dh += drh * r

    dpre_r = dr * r * (1.0 - r)
    out_grads["W_r"] += x.T @ dpre_r
    out_grads["U_r"] += h.T @ dpre_r
    out_grads["b_r"] += dpre_r.sum(axis=0)
    dh += dpre_r @ params["U_r"].T

    dpre_z = dz * z * (1.0 - z)
    out_grads["W_z"] += x.T @ dpre_z
    out_grads["U_z"] += h.T @ dpre_z
    out_grads["b_z"] += dpre_z.sum(axis=0)
    dh += dpre_z @ params["U_z"].T

    dx = dpre_n @ params["W_n"].T + dpre_r @ params["W_r"].T + dpre_z @ params["W_z"].T
    return dx, dh, out_grads


def parent_clean_prefix(model: GruModel, prefix) -> list[int]:
    items = [i for i in map(int, prefix) if i != 0]
    if items and max(items) > model.num_items:
        bad = next(i for i in items if i > model.num_items)
        raise IndexError(f"item id {bad} outside vocabulary of size {model.num_items}")
    return items[-model.max_len:]


def parent_pad_prefixes(model: GruModel, prefixes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad each shared prefix chain once; returns (ids, rows, lengths).

    Prefixes are cleaned as ``encode`` cleans them (pad ids skipped,
    last max_len items kept, every id checked against the vocabulary).
    A cleaned prefix that is a prefix of another one in the batch, or a
    duplicate of it, is not padded on its own: prefix i is the first
    lengths[i] items of row rows[i] of ids, and ids holds only the
    longest distinct prefixes. Sorting finds every such prefix without
    hashing each one: a prefix of any prefix in the batch is a prefix of
    its sorted successor, so one walk in reverse sorted order suffices.
    """
    cleaned = [parent_clean_prefix(model, p) for p in prefixes]
    rows = [0] * len(cleaned)
    kept: list[list[int]] = []
    successor = None
    for i in sorted(range(len(cleaned)), key=cleaned.__getitem__, reverse=True):
        prefix = cleaned[i]
        if successor is None or successor[: len(prefix)] != prefix:
            kept.append(prefix)
        rows[i] = len(kept) - 1
        successor = prefix
    ids, _ = padded_items(kept, model.max_len)
    lengths = np.array([len(c) for c in cleaned], dtype=np.int64)
    return ids, np.array(rows, dtype=np.int64), lengths


def parent_prefix_states(model: GruModel, ids: np.ndarray) -> np.ndarray:
    """GRU states at every position of a right-padded id matrix (n, L).

    states[i, t] is the encoding of ids[i, : t + 1]; entries at or past a
    row's padding are meaningless and must be masked by the caller.
    """
    params = model.store.params
    n, L = ids.shape
    dtype = model.embeddings.dtype
    states = np.zeros((n, L, model.d), dtype=dtype)
    h = np.zeros((n, model.d), dtype=dtype)
    X = model.embeddings[ids]
    for t in range(L):
        h, _ = parent_gru_cell_forward(params, X[:, t], h)
        states[:, t] = h
    return states


def parent_sequence_loss_and_grads(model: GruModel, ids: np.ndarray):
    """Unrolled next-item loss over one right-padded batch.

    Writes the analytic gradient of the mean-per-position cross-entropy
    into the model's store and returns (loss_sum, positions).
    """
    store = model.store
    params = store.params
    E = params["E"]
    inp = ids[:, :-1]
    tgt = ids[:, 1:]
    valid = tgt != 0          # right-padded, so this also implies inp != 0
    positions = int(valid.sum())
    store.zero_grads()
    if positions == 0:
        return 0.0, 0

    B, T = inp.shape
    X = E[inp]
    H = np.zeros((B, T, model.d), dtype=E.dtype)
    h = np.zeros((B, model.d), dtype=E.dtype)
    caches = []
    for t in range(T):
        h, cache = parent_gru_cell_forward(params, X[:, t], h)
        H[:, t] = h
        caches.append(cache)

    Hv = H[valid]
    tv = tgt[valid] - 1
    logits = Hv @ E[1:].T
    losses, dlogits = cross_entropy_rows(logits, tv)
    loss_sum = float(losses.sum())
    dlogits /= positions

    grads = store.grads
    grads["E"][1:] += dlogits.T @ Hv
    dH = np.zeros_like(H)
    dH[valid] = dlogits @ E[1:]

    dX = np.zeros_like(X)
    dh = np.zeros((B, model.d), dtype=E.dtype)
    gate_grads = {name: grads[name] for name in GATE_NAMES}
    for t in reversed(range(T)):
        dx, dh, _ = parent_gru_cell_backward(params, caches[t], dh + dH[:, t], gate_grads)
        dX[:, t] = dx
    np.add.at(grads["E"], inp.reshape(-1), dX.reshape(-1, model.d))
    grads["E"][0] = 0.0   # the pad row stays frozen
    return loss_sum, positions


def random_model(num_items, d, max_len, seed, dtype="float64"):
    """A model whose every parameter, biases included, is random."""
    model = init_gru_model(num_items, BackboneConfig(d=d, max_len=max_len, seed=seed,
                                                     dtype=dtype))
    rng = np.random.default_rng(seed)
    for name, value in model.store.params.items():
        value[...] = rng.normal(scale=0.5, size=value.shape)
    model.store.params["E"][0] = 0.0
    return model


def as_float64(model):
    store = ParamStore({k: v.astype(np.float64) for k, v in model.store.params.items()})
    return GruModel(store=store, d=model.d, num_items=model.num_items,
                    max_len=model.max_len, config=replace(model.config, dtype="float64"))


def ragged_ids(rng, n, L, num_items):
    """Right-padded (n, L) ids; row lengths 1..L, the first row full."""
    lengths = rng.integers(1, L + 1, size=n)
    lengths[0] = L
    ids = rng.integers(1, num_items + 1, size=(n, L))
    ids[np.arange(L) >= lengths[:, None]] = 0
    return ids


def grads_after(fn, model, ids):
    loss, positions = fn(model, ids)
    return loss, positions, {k: v.copy() for k, v in model.store.grads.items()}


SHAPES = [(1, 1), (1, 7), (6, 1), (9, 2), (13, 9), (40, 14)]


def point_states(model, ids):
    """``encode_stacked`` over the ``training_points`` of the rows of a
    right-padded id matrix: (states (P, d), points)."""
    points, targets = training_points([row[row != 0] for row in ids], ids.shape[1])
    _, rows, lengths = points
    np.testing.assert_array_equal(targets, ids[rows, lengths])
    return encode_stacked([model], *points)[:, 0], points


@st.composite
def training_batches(draw):
    """(num_items, max_len, ids): a right-padded batch of rows that hold
    0, 1 or max_len items or any number between; or rows that all have
    one length; or rows of at most one item, a batch with no target."""
    num_items = draw(st.integers(1, 12))
    max_len = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["ragged", "same length", "no target"]))
    if shape == "ragged":
        size = st.sampled_from([0, 1, max_len]) | st.integers(0, max_len)
        sizes = draw(st.lists(size, min_size=n, max_size=n))
    elif shape == "same length":
        sizes = [draw(st.integers(0, max_len))] * n
    else:
        sizes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    rows = [draw(st.lists(st.integers(1, num_items), min_size=m, max_size=m)) for m in sizes]
    ids, _ = padded_items(rows, max_len)
    return num_items, max_len, ids


class TestRecurrenceMatchesParent:
    @pytest.mark.parametrize("n, L", SHAPES)
    def test_prefix_states(self, n, L):
        model = random_model(20, 6, 14, seed=n * 100 + L)
        ids = ragged_ids(np.random.default_rng(L), n, L, 20)
        states, (_, rows, lengths) = point_states(model, ids)
        assert states.shape == (int(np.maximum((ids != 0).sum(axis=1) - 1, 0).sum()), 6)
        np.testing.assert_allclose(states, parent_prefix_states(model, ids)[rows, lengths - 1],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, L", SHAPES)
    def test_sequence_loss_and_grads(self, n, L):
        model = random_model(20, 6, 14, seed=n * 100 + L)
        ids = ragged_ids(np.random.default_rng(L), n, L, 20)
        loss, positions, grads = grads_after(sequence_loss_and_grads, model, ids)
        ref_loss, ref_positions, ref = grads_after(parent_sequence_loss_and_grads, model, ids)
        assert positions == ref_positions == int((ids[:, 1:] != 0).sum())
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        for name in ref:
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref[name]).max(), err_msg=name)

    @settings(max_examples=120, deadline=None)
    @given(batch=training_batches(), seed=st.integers(0, 2**16))
    @example(batch=(5, 4, np.array([[1, 0, 0, 0], [2, 3, 4, 5], [0, 0, 0, 0], [2, 3, 0, 0]])),
             seed=0)
    def test_packed_sequence_loss_on_ragged_batches(self, batch, seed):
        # the packed trainer against the all-rows oracle, with rows that
        # take no step, one step or every step, all rows of one length,
        # and batches without a single target. With one item the oracle's
        # loss and gradients are exactly 0 and the block-shifted softmax
        # leaves rounding there, so a bound on an exact 0 is 1e-12 (per
        # position for the loss sum).
        num_items, max_len, ids = batch
        model = random_model(num_items, 3, max_len, seed)
        loss, positions, grads = grads_after(sequence_loss_and_grads, model, ids)
        ref_loss, ref_positions, ref = grads_after(parent_sequence_loss_and_grads, model, ids)
        assert positions == ref_positions == int((ids[:, 1:] != 0).sum())
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0 if ref_loss else 1e-12 * positions)
        for name in ref:
            scale = np.abs(ref[name]).max() or 1.0
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    def test_batch_that_is_not_right_padded_raises(self):
        model = random_model(20, 6, 14, seed=1)
        with pytest.raises(ContractError, match="row 1 of the batch is not right-padded"):
            sequence_loss_and_grads(model, np.array([[3, 4, 5], [5, 0, 6]]))

    def test_training_pass_holds_no_padded_stack(self):
        # One full row and 255 rows of two items: 268 positions in a
        # (256, 14) batch of 3328 padded steps. The packed pass may hold
        # a (positions, V) logits block, about a dozen (positions, d)
        # state, gate and gradient arrays, the (V+1, 3d) input tables and
        # their gradients, and a few (B, L) index arrays; a single padded
        # (T, B, 5d) block of states and gates would not fit.
        B, L, V, d = 256, 14, 200, 32
        model = random_model(V, d, L, seed=1, dtype="float32")
        ids = np.zeros((B, L), dtype=np.int64)
        ids[:, :2] = np.random.default_rng(2).integers(1, V + 1, size=(B, 2))
        ids[0] = np.arange(1, L + 1)
        positions = L - 1 + B - 1
        tracemalloc.start()
        try:
            _, got = sequence_loss_and_grads(model, ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == positions
        bound = 4 * (positions * (V + 16 * d) + 4 * (V + 1) * 3 * d) + 8 * 6 * B * L
        assert peak < bound
        assert bound < 4 * (L - 1) * B * 5 * d

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_reused_buffers_bit_identical_to_fresh_ones(self, dtype):
        # One set of buffers serves batches of different widths and row
        # counts, a short last batch included, as in train_backbone; each
        # call must give what the same call gives with fresh buffers.
        model = random_model(40, 8, 14, seed=3, dtype=dtype)
        rng = np.random.default_rng(4)
        batches = [ragged_ids(rng, n, L, 40) for n, L in
                   [(64, 14), (64, 6), (64, 14), (17, 9), (64, 3), (5, 14)]]
        buffers = _Buffers()
        for ids in batches:
            reused = grads_after(lambda m, i: sequence_loss_and_grads(m, i, buffers), model, ids)
            fresh = grads_after(sequence_loss_and_grads, model, ids)
            assert reused[:2] == fresh[:2]
            for name in fresh[2]:
                assert reused[2][name].tobytes() == fresh[2][name].tobytes(), name

    def test_float32_matches_float64_oracle_at_default_shapes(self):
        model = random_model(200, 32, 14, seed=5, dtype="float32")
        oracle = as_float64(model)
        ids = ragged_ids(np.random.default_rng(6), 256, 14, 200)
        states, (_, rows, lengths) = point_states(model, ids)
        assert states.dtype == np.float32
        assert np.abs(states - parent_prefix_states(oracle, ids)[rows, lengths - 1]).max() <= 1e-5
        loss, _, grads = grads_after(sequence_loss_and_grads, model, ids)
        ref_loss, _, ref = grads_after(parent_sequence_loss_and_grads, oracle, ids)
        assert loss == pytest.approx(ref_loss, rel=1e-5)
        for name in ref:
            assert grads[name].dtype == np.float32
            assert np.abs(grads[name] - ref[name]).max() <= 1e-5 * np.abs(ref[name]).max(), name

    @pytest.mark.parametrize("bad", [21, -1])
    def test_id_outside_vocabulary_raises(self, bad):
        # The passes gather without a per-step bounds check, so each
        # checks its id matrix once.
        model = random_model(20, 6, 14, seed=1)
        ids = np.array([[3, 4, 0], [5, bad, 6]])
        for run in (sequence_loss_and_grads,
                    lambda m, i: encode_stacked([m], i, np.array([1]), np.array([3]))):
            with pytest.raises(IndexError, match=f"item id {bad} outside"):
                run(model, ids)

    def test_prefix_states_holds_no_per_step_input_table(self):
        # Besides its (P, 1, d) result, the pass over every training
        # point may hold the (V+1, 3d) input tables and a few (n, 3d)
        # buffers, but never an (n, L, .) input block or state block.
        n, L, d = 1600, 14, 32
        model = random_model(200, d, L, seed=1, dtype="float32")
        sequences = [row[row != 0] for row in ragged_ids(np.random.default_rng(2), n, L, 200)]
        tracemalloc.start()
        try:
            points, _ = training_points(sequences, L)
            states = encode_stacked([model], *points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert states.shape == (sum(len(q) - 1 for q in sequences), 1, d)
        assert peak < states.nbytes + 4 * n * 3 * d * 4


class TestEncodeStacked:
    def prefixes(self):
        rng = np.random.default_rng(4)
        return random_prefixes(rng, 40, 20) + [[], [0, 0], list(range(1, 21))]

    def test_each_model_bit_equal_to_its_own_pass(self):
        models = [random_model(20, 6, 9, seed=s) for s in (1, 2, 3)]
        prefixes = self.prefixes()
        stacked = encode_stacked(models, *pad_prefixes(models[0], prefixes))
        assert stacked.shape == (len(prefixes), 3, 6)
        for k, model in enumerate(models):
            assert stacked[:, k].tobytes() == encode_batch(model, prefixes).tobytes()

    def test_matches_parent_last_states(self):
        model = random_model(20, 6, 9, seed=4)
        prefixes = self.prefixes()
        cleaned = [[i for i in p if i][-9:] for p in prefixes]
        ids, _ = padded_items(cleaned, 9)
        states = parent_prefix_states(model, ids)
        for i, c in enumerate(cleaned):
            want = states[i, len(c) - 1] if c else np.zeros(6)
            np.testing.assert_allclose(encode_batch(model, [prefixes[i]])[0], want,
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            encode_batch(model, prefixes),
            [states[i, len(c) - 1] if c else np.zeros(6) for i, c in enumerate(cleaned)],
            rtol=0, atol=1e-12)

    def test_no_prefixes(self):
        models = [tiny_model(), tiny_model(seed=4)]
        assert encode_stacked(models, *pad_prefixes(models[0], [])).shape == (0, 2, 4)


def random_prefixes(rng, count, num_items):
    """Prefixes with pads, duplicates, shared chains and runs longer than
    the window."""
    prefixes = []
    for _ in range(count):
        roll = rng.random()
        if prefixes and roll < 0.2:
            prefixes.append(list(prefixes[rng.integers(len(prefixes))]))
        elif prefixes and roll < 0.4:
            source = prefixes[rng.integers(len(prefixes))]
            prefixes.append(list(source[: rng.integers(len(source) + 1)]))
        else:
            items = rng.integers(1, num_items + 1, size=rng.integers(0, 12))
            items[rng.random(items.size) < 0.2] = 0
            prefixes.append(items.tolist())
    return prefixes


class TestPadPrefixesMatchesParent:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_ids_rows_and_lengths(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(num_items=5 + seed, max_len=2 + seed % 5)
        prefixes = random_prefixes(rng, int(rng.integers(0, 60)), model.num_items)
        got = pad_prefixes(model, prefixes)
        want = parent_pad_prefixes(model, prefixes)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_tuples_and_arrays_are_cleaned_alike(self):
        model = tiny_model(max_len=3)
        prefixes = [(1, 0, 2), np.array([5, 6, 1, 2]), [], (0,), [4, 4]]
        for a, b in zip(pad_prefixes(model, prefixes), parent_pad_prefixes(model, prefixes)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [7, -1])
    def test_id_outside_vocabulary_raises(self, bad):
        with pytest.raises(IndexError, match=f"item id {bad} outside"):
            pad_prefixes(tiny_model(num_items=6), [[1, 2], [3, bad, 9]])



# -- packed passes against the all-rows loops they replaced -----------------------


def allrows_prefix_states(model: GruModel, ids: np.ndarray) -> np.ndarray:
    """The all-rows state table that the feature cache was built from:
    every row runs all L steps, pads included, and states[i, t] is the
    state after ids[i, : t + 1]."""
    w = _gate_weights(model.store.params)
    states = np.empty((ids.shape[1], ids.shape[0], model.d), dtype=model.embeddings.dtype)
    tables = _input_side(w, model.embeddings)
    _check_ids(ids, len(tables[0]))
    L, rows, d = states.shape
    zr = np.empty((rows, 2 * d), dtype=states.dtype)
    gate_n = np.empty((rows, d), dtype=states.dtype)
    rh = np.empty_like(gate_n)
    h = np.zeros((rows, d), dtype=states.dtype)
    for t in range(L):
        np.take(tables[0], ids[:, t], axis=0, out=zr, mode="clip")
        np.take(tables[1], ids[:, t], axis=0, out=gate_n, mode="clip")
        _step_forward(w, zr, gate_n, h, rh, states[t])
        h = states[t]
    return states.transpose(1, 0, 2)


def allrows_encode_stacked(models, ids: np.ndarray, rows: np.ndarray,
                           lengths: np.ndarray) -> np.ndarray:
    """The all-rows ``encode_stacked``: every row runs all L steps."""
    w = _stacked_gate_weights(models)
    table_zr, table_n = _input_side(w, np.stack([m.embeddings for m in models]))
    _check_ids(ids, table_n.shape[1])
    (n, L), K, d = ids.shape, len(models), table_n.shape[-1]
    out = np.zeros((len(rows), K, d), dtype=table_n.dtype)
    zr = np.empty((K, n, 2 * d), dtype=out.dtype)
    gate_n = np.empty((K, n, d), dtype=out.dtype)
    rh = np.empty((K, n, d), dtype=out.dtype)
    h = np.zeros((K, n, d), dtype=out.dtype)
    h_new = np.empty_like(h)
    by_length = np.argsort(lengths, kind="stable")
    # prefixes of length t + 1 are by_length[ends[t] : ends[t + 1]]
    ends = np.searchsorted(lengths[by_length], np.arange(L + 1), side="right")
    for t in range(L):
        np.take(table_zr, ids[:, t], axis=1, out=zr, mode="clip")
        np.take(table_n, ids[:, t], axis=1, out=gate_n, mode="clip")
        _step_forward(w, zr, gate_n, h, rh, h_new)
        h, h_new = h_new, h
        done = by_length[ends[t] : ends[t + 1]]
        out[done] = h[:, rows[done]].transpose(1, 0, 2)
    return out


BOUND = {"float64": 1e-12, "float32": 1e-6}


@st.composite
def ragged_batches(draw):
    """(num_items, max_len, dtype, prefixes): prefixes may be empty, hold
    pads, repeat or extend one another, run past max_len, or all share
    one length; a batch may hold a single row."""
    num_items = draw(st.integers(1, 12))
    max_len = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from(sorted(BOUND)))
    item = st.integers(0, num_items)
    shape = draw(st.sampled_from(["ragged", "single", "same length"]))
    if shape == "single":
        return num_items, max_len, dtype, [draw(st.lists(item, max_size=2 * max_len))]
    if shape == "same length":
        size = draw(st.integers(1, 2 * max_len))
        rows = draw(st.lists(st.lists(st.integers(1, num_items), min_size=size,
                                      max_size=size), min_size=1, max_size=8))
        return num_items, max_len, dtype, rows
    prefixes = []
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["new", "duplicate", "nested"] if prefixes else ["new"]
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            prefixes.append(draw(st.lists(item, max_size=2 * max_len)))
        else:
            source = prefixes[draw(st.integers(0, len(prefixes) - 1))]
            cut = len(source) if kind == "duplicate" else draw(st.integers(0, len(source)))
            prefixes.append(list(source[:cut]))
    return num_items, max_len, dtype, prefixes


# a batch whose rows all end at different steps, tried on every run
RAGGED = (5, 4, "float64", [[1], [2, 3, 4, 5, 1], [], [2, 3], [0, 4], [2, 3, 4]])


class TestPackedMatchesAllRows:
    @settings(max_examples=80, deadline=None)
    @given(batch=ragged_batches(), k=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(batch=RAGGED, k=2, seed=0)
    def test_encode_stacked(self, batch, k, seed):
        num_items, max_len, dtype, prefixes = batch
        models = [random_model(num_items, 3, max_len, seed + j, dtype) for j in range(k)]
        triple = pad_prefixes(models[0], prefixes)
        got = encode_stacked(models, *triple)
        want = allrows_encode_stacked(models, *triple)
        assert got.shape == want.shape == (len(prefixes), k, 3)
        assert got.dtype == want.dtype == np.dtype(dtype)
        np.testing.assert_allclose(got, want, rtol=0, atol=BOUND[dtype])
        for j, model in enumerate(models):
            for i, prefix in enumerate(prefixes):
                np.testing.assert_allclose(got[i, j], encode(model, prefix),
                                           rtol=0, atol=BOUND[dtype])

    @settings(max_examples=80, deadline=None)
    @given(batch=ragged_batches(), k=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(batch=RAGGED, k=2, seed=0)
    def test_float32_bit_equal_to_allrows(self, batch, k, seed):
        # A float32 row's state does not depend on which other rows share
        # its steps, so a cache updated from a few rows equals a rebuilt
        # one bit for bit (C1). Float64 is only held to its bound: with
        # OpenBLAS 0.3.31 some ragged float64 batches differ at ~1e-16.
        num_items, max_len, _, prefixes = batch
        models = [random_model(num_items, 3, max_len, seed + j, "float32") for j in range(k)]
        triple = pad_prefixes(models[0], prefixes)
        got = encode_stacked(models, *triple)
        want = allrows_encode_stacked(models, *triple)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(batch=ragged_batches(), seed=st.integers(0, 2**16))
    @example(batch=RAGGED, seed=0)
    def test_prefix_states(self, batch, seed):
        # every training point of each cleaned prefix, read as a session
        num_items, max_len, dtype, prefixes = batch
        model = random_model(num_items, 3, max_len, seed, dtype)
        ids, _ = padded_items([[i for i in p if i] for p in prefixes], max_len)
        got, (_, rows, lengths) = point_states(model, ids)
        want = allrows_prefix_states(model, ids)[rows, lengths - 1]
        assert got.shape == want.shape and got.dtype == want.dtype == np.dtype(dtype)
        np.testing.assert_allclose(got, want, rtol=0, atol=BOUND[dtype])
