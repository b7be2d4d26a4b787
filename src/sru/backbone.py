"""GRU session encoder with a tied item-embedding output head.

The same model class serves as the pretrained reference encoder and as
every per-shard sub-model. Training is plain full-softmax next-item
prediction; all gradients are hand-derived and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import SessionDataset
from .errors import ContractError, DimensionError
from .numerics import (
    AdamState,
    ParamStore,
    RngStream,
    adam_step,
    cross_entropy_rows,
    ranks_from_logits,
    sigmoid,
    xavier_uniform,
)

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_n", "U_n", "b_n")


@dataclass(frozen=True)
class BackboneConfig:
    d: int = 32
    max_len: int = 10
    epochs: int = 20
    batch_size: int = 256
    lr: float = 1e-3
    seed: int = 0
    patience: int = 3          # early stopping, only when a validation set is given
    dtype: str = "float32"     # "float64" for gradient-check instances

    def __post_init__(self):
        if self.d < 1 or self.batch_size < 1:
            raise ContractError("d and batch_size must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ContractError(f"unsupported dtype {self.dtype!r}")

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def as_dict(self) -> dict:
        return {
            "d": self.d, "max_len": self.max_len, "epochs": self.epochs,
            "batch_size": self.batch_size, "lr": self.lr, "seed": self.seed,
            "patience": self.patience, "dtype": self.dtype,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BackboneConfig":
        return cls(**data)


@dataclass
class GruModel:
    """Item embeddings, one GRU cell, and a tied output head.

    Embedding row 0 is the padding row; it never contributes to the loss
    or to rankings. Scores for item v are h . E[v].
    """

    store: ParamStore
    d: int
    num_items: int
    max_len: int
    config: BackboneConfig | None = None
    loss_history: list = field(default_factory=list)

    @property
    def embeddings(self) -> np.ndarray:
        return self.store.params["E"]

    def params_bytes(self) -> bytes:
        return self.store.tobytes()

    # -- inference ---------------------------------------------------------

    def encode(self, prefix) -> np.ndarray:
        return encode(self, prefix)

    def predict(self, prefix) -> np.ndarray:
        """Id-indexed logits (index 0 is the pad slot, fixed at -inf)."""
        return score(self, encode(self, prefix))

    __call__ = predict

    def predict_batch(self, prefixes) -> np.ndarray:
        h = encode_batch(self, prefixes)
        logits = h @ self.embeddings[1:].T
        out = np.full((len(prefixes), self.num_items + 1), -np.inf, dtype=logits.dtype)
        out[:, 1:] = logits
        return out


def init_gru_model(num_items: int, config: BackboneConfig) -> GruModel:
    """Fresh model; every weight drawn from the config's named stream.

    The draw order (embeddings first, then gates in GATE_NAMES order) is
    fixed so that a seed pins the exact initial parameters.
    """
    d = config.d
    dtype = config.np_dtype()
    stream = RngStream(config.seed, "backbone/init")
    store = ParamStore()
    emb = xavier_uniform(stream, num_items + 1, d, (num_items + 1, d), dtype)
    emb[0] = 0.0
    store.add("E", emb)
    for name in GATE_NAMES:
        if name.startswith("b"):
            store.add(name, np.zeros(d, dtype=dtype))
        else:
            store.add(name, xavier_uniform(stream, d, d, (d, d), dtype))
    return GruModel(store=store, d=d, num_items=num_items,
                    max_len=config.max_len, config=config)


# -- GRU cell ---------------------------------------------------------------


def gru_cell_forward(params, x, h_prev):
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


def gru_cell_backward(params, cache, dh_new, out_grads=None):
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


def gru_cell(params, x, h_prev) -> np.ndarray:
    """Single-vector convenience wrapper around gru_cell_forward."""
    h_new, _ = gru_cell_forward(params, x, h_prev)
    return h_new[0]


# -- encoding and scoring ----------------------------------------------------


def _clean_prefix(model: GruModel, prefix) -> list[int]:
    items = [i for i in map(int, prefix) if i != 0]
    if items and max(items) > model.num_items:
        bad = next(i for i in items if i > model.num_items)
        raise IndexError(f"item id {bad} outside vocabulary of size {model.num_items}")
    return items[-model.max_len:]


def encode(model: GruModel, prefix) -> np.ndarray:
    """Final GRU state after consuming the prefix left to right.

    Pad ids are skipped, the prefix is truncated to the model's last
    max_len items, and an empty prefix returns the zero initial state.
    """
    items = _clean_prefix(model, prefix)
    params = model.store.params
    h = np.zeros((1, model.d), dtype=model.embeddings.dtype)
    for item in items:
        h, _ = gru_cell_forward(params, model.embeddings[item][None, :], h)
    return h[0]


def padded_items(rows, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad item sequences, each cut to its last ``limit`` items.

    Returns (ids, lengths): ids is (n, L) with L >= 1 and lengths[i] is
    the number of items kept in row i.
    """
    rows = [r[-limit:] for r in rows]
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    L = max(1, int(lengths.max())) if rows else 1
    ids = np.zeros((len(rows), L), dtype=np.int64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
    return ids, lengths


def pad_prefixes(model: GruModel, prefixes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    cleaned = [_clean_prefix(model, p) for p in prefixes]
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


def last_states(states: np.ndarray, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """State of each prefix from a ``prefix_states`` block: row rows[i]
    after lengths[i] items, or the zero initial state for an empty
    prefix. Returns (n, d)."""
    out = np.zeros((len(rows), states.shape[2]), dtype=states.dtype)
    nonzero = lengths > 0
    out[nonzero] = states[rows[nonzero], lengths[nonzero] - 1]
    return out


def encode_batch(model: GruModel, prefixes) -> np.ndarray:
    """Vectorized encode over many prefixes; returns (n, d)."""
    ids, rows, lengths = pad_prefixes(model, prefixes)
    return last_states(prefix_states(model, ids), rows, lengths)


def prefix_states(model: GruModel, ids: np.ndarray) -> np.ndarray:
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
        h, _ = gru_cell_forward(params, X[:, t], h)
        states[:, t] = h
    return states


def score(model: GruModel, h: np.ndarray) -> np.ndarray:
    """Tied-head logits indexed by item id; the pad slot 0 is -inf."""
    h = np.asarray(h)
    if h.shape != (model.d,):
        raise DimensionError(f"hidden state must have shape ({model.d},), got {h.shape}")
    logits = model.embeddings[1:] @ h
    out = np.empty(model.num_items + 1, dtype=logits.dtype)
    out[0] = -np.inf
    out[1:] = logits
    return out


# -- training -----------------------------------------------------------------


def sequence_loss_and_grads(model: GruModel, ids: np.ndarray):
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
        h, cache = gru_cell_forward(params, X[:, t], h)
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
        dx, dh, _ = gru_cell_backward(params, caches[t], dh + dH[:, t], gate_grads)
        dX[:, t] = dx
    np.add.at(grads["E"], inp.reshape(-1), dX.reshape(-1, model.d))
    grads["E"][0] = 0.0   # the pad row stays frozen
    return loss_sum, positions


def _batch_step(model: GruModel, adam: AdamState, ids: np.ndarray, lr: float):
    loss_sum, positions = sequence_loss_and_grads(model, ids)
    if positions:
        adam_step(model.store, adam, lr)
    return loss_sum, positions


def validation_ndcg(model: GruModel, dataset: SessionDataset, k: int = 20) -> float:
    """Mean NDCG@k over every (prefix, next-item) point of a dataset."""
    ids, _ = padded_items([s.items for s in dataset.sessions], model.max_len)
    states = prefix_states(model, ids)
    tgt = ids[:, 1:]
    valid = tgt != 0
    Hv = states[:, :-1][valid]
    # Id-indexed: column 0 scores the zero pad row and is never ranked.
    ranks = ranks_from_logits(Hv @ model.embeddings.T, tgt[valid])
    gains = np.where(ranks <= k, 1.0 / np.log2(1.0 + ranks), 0.0)
    return float(gains.mean())


def train_backbone(dataset: SessionDataset, config: BackboneConfig,
                   val_dataset: SessionDataset | None = None) -> GruModel:
    """Train a GRU next-item model on every (prefix, next item) pair.

    Deterministic: the result is a pure function of the dataset content,
    the config, and the seed. Session order is shuffled each epoch from
    the model's named stream; with a validation set, training stops once
    NDCG@20 fails to improve for ``config.patience`` epochs and the best
    parameters are restored.
    """
    if dataset.split_tag != "train":
        raise ContractError(f"training data must be tagged 'train', got {dataset.split_tag!r}")
    if len(dataset) == 0:
        raise ContractError("cannot train on an empty dataset")

    model = init_gru_model(dataset.num_items(), config)
    adam = AdamState.for_store(model.store)
    shuffle = RngStream(config.seed, "backbone/shuffle")
    ids_all, _ = padded_items([s.items for s in dataset.sessions], config.max_len)
    n = ids_all.shape[0]

    best_metric = -np.inf
    best_params = None
    stale = 0
    for _ in range(config.epochs):
        perm = shuffle.permutation(n)
        loss_sum = 0.0
        positions = 0
        for start in range(0, n, config.batch_size):
            batch = ids_all[perm[start : start + config.batch_size]]
            ls, p = _batch_step(model, adam, batch, config.lr)
            loss_sum += ls
            positions += p
        model.loss_history.append(loss_sum / max(1, positions))

        if val_dataset is not None and len(val_dataset) > 0:
            metric = validation_ndcg(model, val_dataset)
            if metric > best_metric:
                best_metric = metric
                best_params = {k: v.copy() for k, v in model.store.params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    if best_params is not None:
        for k, v in best_params.items():
            model.store.params[k][...] = v
    return model


def _train_pair(pair):
    dataset, config = pair
    started = time.perf_counter()
    model = train_backbone(dataset, config)
    return model, (time.perf_counter() - started) * 1e3


def train_many_timed(datasets, configs, parallel: bool = True) -> list[tuple[GruModel, float]]:
    """Train several independent models, optionally across processes;
    returns (model, ms) pairs, each model's training time measured where
    it trains (in its worker process on the parallel path).

    Each model draws only from its own config's named streams, so the
    parallel results are bitwise identical to serial ones.
    """
    pairs = list(zip(datasets, configs))
    if not parallel or len(pairs) < 2:
        return [_train_pair(p) for p in pairs]
    import os
    from concurrent.futures import ProcessPoolExecutor
    workers = min(len(pairs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_train_pair, pairs))


def train_many(datasets, configs, parallel: bool = True) -> list[GruModel]:
    """``train_many_timed`` without the timings."""
    return [model for model, _ in train_many_timed(datasets, configs, parallel=parallel)]
