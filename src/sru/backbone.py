"""GRU session encoder with a tied item-embedding output head.

The same model class serves as the pretrained reference encoder and as
every per-shard sub-model. Training is plain full-softmax next-item
prediction; all gradients are hand-derived and checked against finite
differences in the test suite.

Both directions of the recurrence run packed: the rows of a batch go in
order of decreasing step count, so each step runs on the leading rows
still inside their sequence and no step runs on a pad. Inference
(``encode_stacked``) keeps only each prefix's final state; training
(``sequence_loss_and_grads``) keeps every step's arrays in one
time-major packed layout whose rows are exactly the loss positions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import SessionDataset
from .errors import ContractError, DimensionError
from .numerics import (
    AdamState,
    ParamStore,
    RngStream,
    _Buffers,
    _sigmoid_of_half,
    _softmax_loss,
    adam_step,
    ndcg_gains,
    ranks_from_logits,
    sigmoid,  # noqa: F401 -- unused; bench/test_bench.py checks its tracer patches it here
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
    or to rankings. Scores for item v are h . E[v]. ``loss_history``
    holds one mean training loss per epoch run; ``best_epoch`` is the
    1-based epoch whose parameters early stopping restored, or None for a
    model trained without a validation set.
    """

    store: ParamStore
    d: int
    num_items: int
    max_len: int
    config: BackboneConfig | None = None
    loss_history: list = field(default_factory=list)
    best_epoch: int | None = None

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


# -- GRU recurrence -----------------------------------------------------------
#
# Every GRU pass runs the two step kernels below: the packed training
# pass, ``sequence_loss_and_grads``, the single-step cell, and the one
# packed inference pass, ``encode_stacked``, for one model or several
# stacked. Every state that is read rather than trained comes from that
# pass: predictions and centroids through ``pad_prefixes``, the feature
# table and the validation metric through ``training_points``. The input side
# of a step, x W + b for all three gates, does not depend on the
# recurrence, so it is computed before the time loop: for an id matrix
# as the tables E [W_z|W_r] + [b_z|b_r] (V+1, 2d) and E W_n + b_n
# (V+1, d), whose rows each inference step gathers, and the training
# pass gathers for all its steps at once; for the single-step cell from
# x. Inside the loop a step costs one (d, 2d) product for the packed z|r
# gates and one (d, d) product for the candidate. The z|r and n blocks
# are kept apart so that every whole-block operation runs over
# contiguous memory; numpy is several times slower over the strided
# column slices of a (n, 3d) buffer. The training backward pass leaves
# every weight gradient to products over all steps after its loop.


class _GateWeights(NamedTuple):
    Wzr: np.ndarray   # (d, 2d): [W_z | W_r]
    bzr: np.ndarray   # (2d,): [b_z | b_r]
    Wn: np.ndarray    # (d, d)
    bn: np.ndarray    # (d,)
    Uzr: np.ndarray   # (d, 2d): [U_z | U_r]
    Un: np.ndarray    # (d, d)


def _gate_weights(params) -> _GateWeights:
    return _GateWeights(
        np.concatenate([params["W_z"], params["W_r"]], axis=1),
        np.concatenate([params["b_z"], params["b_r"]]),
        params["W_n"],
        params["b_n"],
        np.concatenate([params["U_z"], params["U_r"]], axis=1),
        params["U_n"],
    )


def _stacked_gate_weights(models) -> _GateWeights:
    """Gate weights of several models along a leading K axis; biases are
    (K, 1, .) so that they broadcast over rows."""
    parts = zip(*(_gate_weights(m.store.params) for m in models))
    Wzr, bzr, Wn, bn, Uzr, Un = (np.stack(p) for p in parts)
    return _GateWeights(Wzr, bzr[:, None], Wn, bn[:, None], Uzr, Un)


def _input_side(w: _GateWeights, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x W + b for rows x (m, d): the z|r block (m, 2d) and the n block (m, d)."""
    zr = x @ w.Wzr
    zr += w.bzr
    n = x @ w.Wn
    n += w.bn
    return zr, n


def _step_forward(w: _GateWeights, zr, n, h, rh, h_new) -> None:
    """One GRU step over rows h (b, d), or over a stack of models: h
    (K, b, d) with weights stacked along a leading K axis.

    On entry zr (.., b, 2d) and n (.., b, d) hold the input side x W + b
    of the z|r and n gates; on exit they hold the activations. rh and
    h_new receive r * h and the new state.

    z = sigmoid(x Wz + bz + h Uz)
    r = sigmoid(x Wr + br + h Ur)
    n = tanh(x Wn + bn + (r * h) Un)
    h_new = (1 - z) * h + z * n
    """
    d = h.shape[-1]
    zr += h @ w.Uzr
    zr *= 0.5
    _sigmoid_of_half(zr)
    z = zr[..., :d]
    np.multiply(zr[..., d:], h, out=rh)
    n += rh @ w.Un
    np.tanh(n, out=n)
    np.multiply(z, n, out=h_new)
    h_new += (1.0 - z) * h


def _step_backward(w: _GateWeights, zr, n, h, rh, dh_new, dzr, dn) -> np.ndarray:
    """Backward of ``_step_forward``: zr and n hold the step's
    activations, h and rh its input state and r * h. Writes the gradients
    of the input side x W + b into dzr (b, 2d) and dn (b, d) and returns
    the gradient of h."""
    d = h.shape[1]
    z, r = zr[:, :d], zr[:, d:]
    np.multiply(dh_new, z, out=dn)
    dn *= 1.0 - n * n
    drh = dn @ w.Un.T
    dh = dh_new * (1.0 - z)
    dh += drh * r
    np.multiply(drh, h, out=dzr[:, d:])
    np.subtract(n, h, out=dzr[:, :d])
    dzr[:, :d] *= dh_new
    dzr *= zr
    dzr *= 1.0 - zr
    dh += dzr @ w.Uzr.T
    return dh


def _add_weight_grads(out, x, dx_zr, dx_n, h, rh, dzr, dn) -> None:
    """Add gate-weight gradients to out (name -> array), one product per
    packed block.

    W_* and b_* come from inputs x (m, d) against the gradients of their
    input side dx_zr (m, 2d) and dx_n (m, d); U_* from states h and
    r * h (m', d) against the gate gradients dzr and dn of the same steps.
    """
    d = h.shape[1]
    ones = np.ones(x.shape[0], dtype=dx_zr.dtype)
    dWzr = x.T @ dx_zr
    dbzr = ones @ dx_zr
    dUzr = h.T @ dzr
    out["W_z"] += dWzr[:, :d]
    out["W_r"] += dWzr[:, d:]
    out["b_z"] += dbzr[:d]
    out["b_r"] += dbzr[d:]
    out["U_z"] += dUzr[:, :d]
    out["U_r"] += dUzr[:, d:]
    out["W_n"] += x.T @ dx_n
    out["b_n"] += ones @ dx_n
    out["U_n"] += rh.T @ dn


def _check_ids(ids: np.ndarray, rows: int) -> None:
    """Every id must index a table of the given number of rows. Checked
    once per pass, so that the per-step gathers can use take's unbuffered
    mode="clip", which then never clips."""
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        bad = ids[(ids < 0) | (ids >= rows)][0]
        raise IndexError(f"item id {bad} outside vocabulary of size {rows - 1}")


def _grouped_rows(keys: np.ndarray, blocks, size: int) -> list[np.ndarray]:
    """Per-key row sums of each block: out[k] sums the rows i of a block
    with keys[i] == k. Returns one (size, width) array per block."""
    # the narrowest key type lets numpy's stable sort run as a radix sort
    order = np.argsort(keys.astype(np.min_scalar_type(size - 1)), kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    sums = []
    for rows in blocks:
        out = np.zeros((size, rows.shape[1]), dtype=rows.dtype)
        grouped = np.take(rows, order, axis=0)
        out[sorted_keys[starts]] = np.add.reduceat(grouped, starts, axis=0)
        sums.append(out)
    return sums


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
    w = _gate_weights(params)
    zr, n = _input_side(w, x)
    rh = np.empty_like(n)
    h_new = np.empty_like(n)
    _step_forward(w, zr, n, h, rh, h_new)
    d = h.shape[1]
    return h_new, (x, h, zr[:, :d], zr[:, d:], rh, n)


def gru_cell_backward(params, cache, dh_new, out_grads=None):
    """Backward pass of one GRU step.

    Accumulates parameter gradients into out_grads (a name -> array
    mapping; created if omitted) and returns (dx, dh_prev, out_grads).
    """
    x, h, z, r, rh, n = cache
    dh_new = np.atleast_2d(np.asarray(dh_new))
    if out_grads is None:
        out_grads = {name: np.zeros_like(params[name]) for name in GATE_NAMES}
    w = _gate_weights(params)
    zr = np.concatenate([z, r], axis=1)
    dzr = np.empty_like(zr)
    dn = np.empty_like(n)
    dh = _step_backward(w, zr, n, h, rh, dh_new, dzr, dn)
    _add_weight_grads(out_grads, x, dzr, dn, h, rh, dzr, dn)
    return dzr @ w.Wzr.T + dn @ w.Wn.T, dh, out_grads


def gru_cell(params, x, h_prev) -> np.ndarray:
    """Single-vector convenience wrapper around gru_cell_forward."""
    h_new, _ = gru_cell_forward(params, x, h_prev)
    return h_new[0]


# -- encoding and scoring ----------------------------------------------------


def encode(model: GruModel, prefix) -> np.ndarray:
    """Final GRU state after consuming the prefix left to right.

    Pad ids are skipped, the prefix is truncated to the model's last
    max_len items, and an empty prefix returns the zero initial state.
    This is the one-prefix reference: it chains ``gru_cell_forward``
    item by item, and the batched paths are tested against it.
    """
    ids, _, lengths = pad_prefixes(model, [prefix])
    params = model.store.params
    h = np.zeros((1, model.d), dtype=model.embeddings.dtype)
    for item in ids[0, : lengths[0]]:
        h, _ = gru_cell_forward(params, model.embeddings[item][None, :], h)
    return h[0]


def _right_padded(items: np.ndarray, stop: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(n, L) id matrix, L >= 1, whose row i holds the lengths[i] items
    that end just before items[stop[i]], then pads."""
    width = max(1, int(lengths.max())) if lengths.size else 1
    cols = np.arange(width)
    inside = cols < lengths[:, None]
    padded = np.zeros((lengths.size, width), dtype=np.int64)
    padded[inside] = items[((stop - lengths)[:, None] + cols)[inside]]
    return padded


def padded_items(rows, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad item sequences, each cut to its last ``limit`` items.

    Returns (ids, lengths): ids is (n, L) with L >= 1 and lengths[i] is
    the number of items kept in row i.
    """
    rows = list(rows)
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    items = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                        count=int(sizes.sum()))
    lengths = np.minimum(sizes, limit)
    return _right_padded(items, np.cumsum(sizes), lengths), lengths


def training_points(sequences, limit: int):
    """Every (prefix, next item) point of each sequence's last ``limit``
    items, sequence by sequence and shortest prefix first.

    Returns ((ids, rows, lengths), targets): a ``pad_prefixes`` triple
    with one padded row per sequence, in which point j is the first
    lengths[j] items of row rows[j], and targets[j] is the item after
    them. ``encode_stacked(models, *points)`` is then the table of
    states at every point, each row running one step short of its end.
    """
    ids, sizes = padded_items(sequences, limit)
    counts = np.maximum(sizes - 1, 0)
    rows = np.repeat(np.arange(sizes.size), counts)
    # point j is number j - first[rows[j]] of its row, counted from 0
    first = np.cumsum(counts) - counts
    lengths = np.arange(1, rows.size + 1) - first[rows]
    return (ids, rows, lengths), ids[rows, lengths]


def pad_prefixes(model: GruModel, prefixes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad each shared prefix chain once; returns (ids, rows, lengths).

    Prefixes are cleaned as ``encode`` cleans them (pad ids skipped,
    last max_len items kept, every id checked against the vocabulary).
    A cleaned prefix that is a prefix of another one in the batch, or a
    duplicate of it, is not padded on its own: prefix i is the first
    lengths[i] items of row rows[i] of ids, and ids holds only the
    longest distinct prefixes. Sorting finds every such prefix without
    hashing each one: a prefix of any prefix in the batch is a prefix of
    its sorted successor, so one comparison with the next row in reverse
    sorted order suffices. Cleaning, sorting and the comparison each run
    once over all prefixes together, in time linear in their total
    number of items (plus the sort).
    """
    prefixes = list(prefixes)
    n = len(prefixes)
    sizes = np.fromiter(map(len, prefixes), dtype=np.int64, count=n)
    flat = np.fromiter(itertools.chain.from_iterable(prefixes), dtype=np.int64,
                       count=int(sizes.sum()))
    outside = (flat < 0) | (flat > model.num_items)
    if outside.any():
        bad = flat[outside][0]
        raise IndexError(f"item id {bad} outside vocabulary of size {model.num_items}")
    keep = flat != 0
    # kept[j] counts the non-pad ids in flat[:j]; prefix i keeps the items
    # that end just before flat[keep][stop[i]]
    kept = np.concatenate(([0], np.cumsum(keep)))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    stop = kept[bounds[1:]]
    lengths = np.minimum(stop - kept[bounds[:-1]], model.max_len)
    padded = _right_padded(flat[keep], stop, lengths)
    # Pads (0) sort below every item, so row order is list order; the
    # narrowest key type makes the sort several times faster.
    keys = padded.astype(np.min_scalar_type(model.num_items))
    walk = np.lexsort(keys.T[::-1])[::-1]
    ordered = padded[walk]
    within = np.arange(padded.shape[1]) >= lengths[walk][1:, None]
    new = np.ones(n, dtype=bool)
    new[1:] = ~np.all((ordered[1:] == ordered[:-1]) | within, axis=1)
    rows = np.empty(n, dtype=np.int64)
    rows[walk] = np.cumsum(new) - 1
    return ordered[new], rows, lengths


def encode_batch(model: GruModel, prefixes) -> np.ndarray:
    """Vectorized encode over many prefixes; returns (n, d)."""
    return encode_stacked([model], *pad_prefixes(model, prefixes))[:, 0]


def encode_stacked(models, ids: np.ndarray, rows: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Final state of every prefix of a ``pad_prefixes`` triple under each
    of several models that share a vocabulary: (len(rows), K, d).

    Prefix i is row rows[i] of ids after lengths[i] items; an empty
    prefix keeps the zero state. This is the one packed inference pass.
    The models run stacked, one batched product per gate block and step
    for all of them, and a row runs only as far as its longest prefix:
    the rows go longest first (ties in row order), so at step t the rows
    with more than t steps are the leading active[t] ones, and the step
    runs on those alone. Each prefix's state is taken as soon as the
    pass reaches its length, so no (L, n, d) block of states is kept.
    Besides the result, the pass holds the input tables (K, V+1, 3d in
    all) and 6 K n d floats of step buffers, each step using a leading
    part of each.
    """
    w = _stacked_gate_weights(models)
    table_zr, table_n = _input_side(w, np.stack([m.embeddings for m in models]))
    _check_ids(ids, table_n.shape[1])
    (n, L), K, d = ids.shape, len(models), table_n.shape[-1]
    out = np.zeros((len(rows), K, d), dtype=table_n.dtype)
    steps = np.zeros(n, dtype=np.int64)
    np.maximum.at(steps, rows, lengths)
    order = np.argsort(-steps, kind="stable")
    where = np.empty(n, dtype=np.int64)      # where[r]: row r's place in order
    where[order] = np.arange(n)
    active = np.count_nonzero(steps[:, None] > np.arange(L), axis=0)
    cols = ids.T.take(order, axis=1)         # (L, n): step t's ids, longest row first
    by_length = np.argsort(lengths, kind="stable")
    # prefixes of length t + 1 are by_length[ends[t] : ends[t + 1]]
    ends = np.searchsorted(lengths[by_length], np.arange(L + 1), side="right")
    zr_buf = np.empty(K * n * 2 * d, dtype=out.dtype)
    n_buf, rh_buf, h_new_buf = (np.empty(K * n * d, dtype=out.dtype) for _ in range(3))
    h_buf = np.zeros(K * n * d, dtype=out.dtype)
    h = h_buf.reshape(K, n, d)      # the zero state
    for t in range(L):
        a = int(active[t])
        if a == 0:
            break
        zr = zr_buf[: K * a * 2 * d].reshape(K, a, 2 * d)
        gate_n = n_buf[: K * a * d].reshape(K, a, d)
        h_new = h_new_buf[: K * a * d].reshape(K, a, d)
        np.take(table_zr, cols[t, :a], axis=1, out=zr, mode="clip")
        np.take(table_n, cols[t, :a], axis=1, out=gate_n, mode="clip")
        _step_forward(w, zr, gate_n, h[:, :a], rh_buf[: K * a * d].reshape(K, a, d), h_new)
        done = by_length[ends[t] : ends[t + 1]]
        out[done] = h_new[:, where[rows[done]]].transpose(1, 0, 2)
        h, h_buf, h_new_buf = h_new, h_new_buf, h_buf
    return out


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


def _packed_layout(ids: np.ndarray):
    """The packed time-major layout of a right-padded batch ids (B, L):
    (keys, targets, active). Row i takes steps[i] = max(len_i - 1, 0)
    steps, one per (prefix, next item) point. The rows go in order of
    decreasing step count (a stable sort), so at step t the rows still
    inside their sequence are the leading active[t] ones, and step t's
    rows follow step t - 1's. Packed row p is then one loss position:
    keys[p] is the item read at that step and targets[p] the item after
    it. A row with an item after a pad raises ContractError."""
    present = ids != 0
    lengths = np.count_nonzero(present, axis=1)
    misplaced = present != (np.arange(ids.shape[1]) < lengths[:, None])
    if misplaced.any():
        row = int(np.flatnonzero(misplaced.any(axis=1))[0])
        raise ContractError(f"row {row} of the batch is not right-padded: {ids[row].tolist()}")
    steps = np.maximum(lengths - 1, 0)
    order = np.argsort(-steps, kind="stable")
    T = max(ids.shape[1] - 1, 0)
    inside = (np.arange(T) < steps[order, None]).T     # (T, B), time-major
    sorted_ids = ids[order].T                           # (L, B)
    keys = sorted_ids[:-1][inside]
    targets = sorted_ids[1:][inside]
    active = np.count_nonzero(inside, axis=1)
    return keys, targets, active[active > 0]


def sequence_loss_and_grads(model: GruModel, ids: np.ndarray,
                            buffers: _Buffers | None = None):
    """Unrolled next-item loss over one right-padded batch, run packed.

    Writes the analytic gradient of the mean-per-position cross-entropy
    into the model's store and returns (loss_sum, positions). This is
    the training twin of ``encode_stacked``: no step runs on a pad. The
    rows go in order of decreasing step count (``_packed_layout``), so
    step t runs forward and backward on the leading active[t] rows
    alone, and every per-step array lives in one time-major packed
    layout of positions rows, step t's rows right after step t - 1's, in
    which every row is a loss position: the states, their inputs, the
    gate stacks and the keys of ``_grouped_rows``. The output layer reads
    the states as they are and its hidden-row gradient is the backward
    pass's input as it is, with no gather of valid rows and no zeroed
    scatter back. The per-step arrays come from buffers (fresh ones when
    None); the result does not depend on what they held before.
    """
    store = model.store
    params = store.params
    E = params["E"]
    _check_ids(ids, E.shape[0])
    keys, targets, active = _packed_layout(ids)
    positions = keys.size
    store.zero_grads()
    if positions == 0:
        return 0.0, 0

    buffers = _Buffers() if buffers is None else buffers
    d = model.d
    w = _gate_weights(params)
    # per step: its first packed row, its rows, and the next step's rows
    active = active.tolist()
    firsts = np.cumsum([0] + active[:-1]).tolist()
    steps = list(zip(firsts, active, active[1:] + [0]))
    table_zr, table_n = _input_side(w, E)
    zr = np.take(table_zr, keys, axis=0, out=buffers.take("zr", (positions, 2 * d), E.dtype),
                 mode="clip")
    n = np.take(table_n, keys, axis=0, out=buffers.take("n", (positions, d), E.dtype),
                mode="clip")
    rh = buffers.take("rh", (positions, d), E.dtype)
    hs = buffers.take("hs", (positions, d), E.dtype)        # state after each step
    h_in = buffers.take("h_in", (positions, d), E.dtype)    # state entering it
    h_in[: active[0]] = 0.0
    for first, a, nxt in steps:
        p = slice(first, first + a)
        _step_forward(w, zr[p], n[p], h_in[p], rh[p], hs[p])
        h_in[first + a : first + a + nxt] = hs[first : first + nxt]

    logits = buffers.take("logits", (positions, E.shape[0] - 1), E.dtype)
    grads = store.grads
    loss_sum, _, _, dH = _softmax_loss(hs, E[1:], None, targets - 1, positions, logits,
                                       dW=grads["E"][1:])

    dzr = buffers.take("dzr", zr.shape, E.dtype)
    dn = buffers.take("dn", n.shape, E.dtype)
    carry = dH[:0]       # no step follows the last one
    for first, a, nxt in reversed(steps):
        p = slice(first, first + a)
        dh = dH[p]
        dh[:nxt] += carry
        carry = _step_backward(w, zr[p], n[p], h_in[p], rh[p], dh, dzr[p], dn[p])
    dtable_zr, dtable_n = _grouped_rows(keys, (dzr, dn), E.shape[0])
    _add_weight_grads(grads, E, dtable_zr, dtable_n, h_in, rh, dzr, dn)
    grads["E"] += dtable_zr @ w.Wzr.T
    grads["E"] += dtable_n @ w.Wn.T
    grads["E"][0] = 0.0   # the pad row stays frozen
    return loss_sum, positions


def _batch_step(model: GruModel, adam: AdamState, ids: np.ndarray, lr: float,
                buffers: _Buffers):
    loss_sum, positions = sequence_loss_and_grads(model, ids, buffers)
    if positions:
        adam_step(model.store, adam, lr)
    return loss_sum, positions


def validation_ndcg(model: GruModel, dataset: SessionDataset, k: int = 20) -> float:
    """Mean NDCG@k over every (prefix, next-item) point of a dataset."""
    points, targets = training_points([s.items for s in dataset.sessions], model.max_len)
    H = encode_stacked([model], *points)[:, 0]
    # Id-indexed: column 0 scores the zero pad row and is never ranked.
    ranks = ranks_from_logits(H @ model.embeddings.T, targets)
    return float(ndcg_gains(ranks, k).mean())


def train_backbone(dataset: SessionDataset, config: BackboneConfig,
                   val_dataset: SessionDataset | None = None) -> GruModel:
    """Train a GRU next-item model on every (prefix, next item) pair.

    Deterministic: the result is a pure function of the dataset content,
    the config, and the seed. Session order is shuffled each epoch from
    the model's named stream; with a validation set, training stops once
    NDCG@20 fails to improve for ``config.patience`` epochs and the best
    parameters are restored, and ``best_epoch`` records their epoch.
    ``loss_history`` has one entry for every epoch run, the ones after
    the best included.
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
    buffers = _Buffers()

    best_metric = -np.inf
    best_params = None
    stale = 0
    for epoch in range(1, config.epochs + 1):
        perm = shuffle.permutation(n)
        loss_sum = 0.0
        positions = 0
        for start in range(0, n, config.batch_size):
            batch = ids_all[perm[start : start + config.batch_size]]
            ls, p = _batch_step(model, adam, batch, config.lr, buffers)
            loss_sum += ls
            positions += p
        model.loss_history.append(loss_sum / max(1, positions))

        if val_dataset is not None and len(val_dataset) > 0:
            metric = validation_ndcg(model, val_dataset)
            if metric > best_metric:
                best_metric = metric
                best_params = {k: v.copy() for k, v in model.store.params.items()}
                model.best_epoch = epoch
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
