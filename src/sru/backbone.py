"""GRU session encoder with a tied item-embedding output head.

The same model class serves as every per-shard sub-model and as the
SISA baseline's. Training is plain full-softmax next-item
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
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import SessionDataset
from .errors import ContractError, DimensionError
from .numerics import (
    AdamState,
    ParamStore,
    _Buffers,
    _logits,
    _sigmoid_of_half,
    _softmax_loss,
    adam_step,
    rng_stream,
    sigmoid,  # noqa: F401 -- unused; bench/test_bench.py checks its tracer patches it here
    xavier_uniform,
)

# the z and r gates packed: W_zr = [W_z | W_r] (d, 2d), b_zr and U_zr alike
GATE_NAMES = ("W_zr", "U_zr", "b_zr", "W_n", "U_n", "b_n")


@dataclass(frozen=True)
class BackboneConfig:
    d: int = 32
    max_len: int = 10
    epochs: int = 10
    batch_size: int = 256
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.batch_size < 1:
            raise ContractError("d and batch_size must be >= 1")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {self.max_len}")
        if not self.lr > 0:
            raise ContractError(f"lr must be > 0, got {self.lr}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GruModel:
    """Item embeddings, one GRU cell, and a tied output head.

    Embedding row 0 is the padding row; it never contributes to the loss
    or to rankings. Scores for item v are h . E[v]. ``loss_history``
    holds one mean training loss per epoch. A model is its parameters
    plus the config it was trained under: ``d`` and ``num_items`` are
    read from E's shape, ``max_len`` from the config.
    """

    store: ParamStore
    config: BackboneConfig
    loss_history: list = field(default_factory=list)

    @property
    def embeddings(self) -> np.ndarray:
        return self.store.params["E"]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    @property
    def num_items(self) -> int:
        return self.embeddings.shape[0] - 1

    @property
    def max_len(self) -> int:
        return self.config.max_len

    def params_bytes(self) -> bytes:
        return self.store.tobytes()

    def predict_batch(self, prefixes) -> np.ndarray:
        """``predict_padded`` of the prefixes that ``pad_prefixes`` pads."""
        return self.predict_padded(*pad_prefixes(self, prefixes))

    def predict_padded(self, ids, rows, lengths) -> np.ndarray:
        """Id-indexed logits of the prefixes of a ``pad_prefixes`` triple."""
        return self.logits_of_states(encode_stacked([self], ids, rows, lengths)[:, 0])

    def logits_of_states(self, h: np.ndarray) -> np.ndarray:
        """Id-indexed logits rows of GRU states h (n, d): item v scores
        h . E[v], and index 0, the pad slot, is -inf."""
        out = np.empty((len(h), self.num_items + 1), dtype=h.dtype)
        out[:, 0] = -np.inf
        _logits(h, self.embeddings[1:], None, out[:, 1:])
        return out


def init_gru_model(num_items: int, config: BackboneConfig) -> GruModel:
    """Fresh float32 model; every weight drawn from the config's named
    stream.

    The draw order (embeddings first, then W_z, U_z, W_r, U_r, W_n and
    U_n, each (d, d)) is fixed so that a seed pins the exact initial
    parameters; the z and r blocks are packed after the draws, and the
    biases start at zero.
    """
    d = config.d
    stream = rng_stream(config.seed, "backbone/init")
    emb = xavier_uniform(stream, num_items + 1, d, (num_items + 1, d), np.float32)
    emb[0] = 0.0
    w = {name: xavier_uniform(stream, d, d, (d, d), np.float32)
         for name in ("W_z", "U_z", "W_r", "U_r", "W_n", "U_n")}
    arrays = {"E": emb, "W_zr": np.hstack([w["W_z"], w["W_r"]]), "W_n": w["W_n"],
              "U_zr": np.hstack([w["U_z"], w["U_r"]]), "U_n": w["U_n"],
              "b_zr": np.zeros(2 * d, dtype=np.float32), "b_n": np.zeros(d, dtype=np.float32)}
    return GruModel(store=ParamStore(arrays), config=config)


# -- GRU recurrence -----------------------------------------------------------
#
# Every GRU pass runs the two step kernels below: the packed training
# pass, ``sequence_loss_and_grads``, the single-step cell, and the one
# packed inference pass, ``encode_stacked``, for one model or several
# stacked. Every state that is read rather than trained comes from that
# pass: predictions and centroids through ``pad_prefixes``; a split's
# evaluation points and the feature table through ``prefix_points``, the
# feature table on each session's last ``max_len`` items. The input side
# of a step, x W + b for all three gates, does not depend on the
# recurrence, so it is computed before the time loop:
# for an id matrix as the tables E W_zr + b_zr (V+1, 2d) and
# E W_n + b_n (V+1, d), whose rows each inference step gathers, and the
# training pass gathers for all its steps at once; for the single-step
# cell from x. Inside the loop a step costs one (d, 2d) product for the
# packed z|r gates and one (d, d) product for the candidate, both read
# from the store as it is. The z|r and n blocks are kept apart so that
# every whole-block operation runs over contiguous memory; numpy is
# several times slower over the strided column slices of a (n, 3d)
# buffer. The training backward pass leaves every weight gradient to
# products over all steps after its loop.


def _stacked_gate_weights(models) -> dict:
    """The gate weights of several models along a leading K axis; biases
    are (K, 1, .) so that they broadcast over rows."""
    stacked = {name: np.stack([m.store.params[name] for m in models]) for name in GATE_NAMES}
    for name in ("b_zr", "b_n"):
        stacked[name] = stacked[name][:, None]
    return stacked


def _input_side(w, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x W + b for rows x (m, d) under gate weights w (name -> array, as
    in a store): the z|r block (m, 2d) and the n block (m, d)."""
    zr = x @ w["W_zr"]
    zr += w["b_zr"]
    n = x @ w["W_n"]
    n += w["b_n"]
    return zr, n


def _step_forward(w, zr, n, h, rh, h_new) -> None:
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
    zr += h @ w["U_zr"]
    zr *= 0.5
    _sigmoid_of_half(zr)
    z = zr[..., :d]
    np.multiply(zr[..., d:], h, out=rh)
    n += rh @ w["U_n"]
    np.tanh(n, out=n)
    np.multiply(z, n, out=h_new)
    h_new += (1.0 - z) * h


def _step_backward(w, zr, n, h, rh, dh_new, dzr, dn) -> np.ndarray:
    """Backward of ``_step_forward``: zr and n hold the step's
    activations, h and rh its input state and r * h. Writes the gradients
    of the input side x W + b into dzr (b, 2d) and dn (b, d) and returns
    the gradient of h."""
    d = h.shape[1]
    z, r = zr[:, :d], zr[:, d:]
    np.multiply(dh_new, z, out=dn)
    dn *= 1.0 - n * n
    drh = dn @ w["U_n"].T
    dh = dh_new * (1.0 - z)
    dh += drh * r
    np.multiply(drh, h, out=dzr[:, d:])
    np.subtract(n, h, out=dzr[:, :d])
    dzr[:, :d] *= dh_new
    dzr *= zr
    dzr *= 1.0 - zr
    dh += dzr @ w["U_zr"].T
    return dh


def _add_weight_grads(out, x, dx_zr, dx_n, h, rh, dzr, dn) -> None:
    """Add gate-weight gradients in place to the arrays of out (name ->
    array), one product per gradient.

    W_* and b_* come from inputs x (m, d) against the gradients of their
    input side dx_zr (m, 2d) and dx_n (m, d); U_* from states h and
    r * h (m', d) against the gate gradients dzr and dn of the same steps.
    """
    ones = np.ones(x.shape[0], dtype=dx_zr.dtype)
    for name, left, right in (("W_zr", x.T, dx_zr), ("b_zr", ones, dx_zr), ("U_zr", h.T, dzr),
                              ("W_n", x.T, dx_n), ("b_n", ones, dx_n), ("U_n", rh.T, dn)):
        target = out[name]
        target += left @ right


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


# -- padding and encoding ----------------------------------------------------


def _right_padded(items: np.ndarray, stop: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(n, L) id matrix, L >= 1, whose row i holds the lengths[i] items
    that end just before items[stop[i]], then pads."""
    width = max(1, int(lengths.max())) if lengths.size else 1
    cols = np.arange(width)
    inside = cols < lengths[:, None]
    padded = np.zeros((lengths.size, width), dtype=np.int64)
    padded[inside] = items[((stop - lengths)[:, None] + cols)[inside]]
    return padded


def prefix_points(sequences, limit: int):
    """Every (prefix, next item) point of each whole sequence, sequence by
    sequence and shortest prefix first, each prefix cut to its last
    ``limit`` items as ``pad_prefixes`` cuts it.

    Returns ((ids, rows, lengths), targets), a ``pad_prefixes`` triple
    and the item after each prefix. The rows go sequence by sequence:
    first the sequence's first ``limit`` items, the row of every prefix
    that fits, then one window row of ``limit`` items for each longer
    prefix. So the points of any contiguous range run over a contiguous
    range of rows.

    This is the library's one builder of points from whole sessions.
    Evaluation passes a split's sessions as they are. Training and the
    feature table pass each session's last ``limit`` items: then no
    prefix needs a window row, row i is sequence i right-padded (the id
    matrix ``train_backbone`` trains on), and rows[j] is the sequence of
    point j.
    """
    sequences = list(sequences)
    sizes = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    items = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64,
                        count=int(sizes.sum()))
    offsets = np.cumsum(sizes) - sizes
    head = np.minimum(sizes, limit)
    counts = np.maximum(sizes - 1, 0)
    windows = np.maximum(counts - limit, 0)
    # row r is number r - row_start[seq] of its sequence: 0 is the head row
    row_counts = windows + 1
    row_start = np.cumsum(row_counts) - row_counts
    row_seq = np.repeat(np.arange(sizes.size), row_counts)
    row_stop = offsets[row_seq] + head[row_seq] + np.arange(row_seq.size) - row_start[row_seq]
    ids = _right_padded(items, row_stop, head[row_seq])
    # point j reads the first t[j] items of its sequence
    seq = np.repeat(np.arange(sizes.size), counts)
    t = np.arange(1, seq.size + 1) - (np.cumsum(counts) - counts)[seq]
    rows = row_start[seq] + np.maximum(t - limit, 0)
    return (ids, rows, np.minimum(t, limit)), items[offsets[seq] + t]


def pad_prefixes(model, prefixes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad each prefix on a row of its own for a model, anything with a
    ``num_items`` and a ``max_len``; returns (ids, rows, lengths).

    Each prefix is cleaned first: its pad ids are skipped, its last
    max_len items are kept, and every id is checked against the
    vocabulary (IndexError naming the first one outside it). Prefix i is
    the first lengths[i] items of row rows[i] == i of ids. Cleaning runs
    once over all prefixes together, in time linear in their total
    number of items.
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
    return _right_padded(flat[keep], stop, lengths), np.arange(n), lengths


def encode_batch(model: GruModel, prefixes) -> np.ndarray:
    """Final GRU state of each prefix, read left to right after
    ``pad_prefixes`` cleans it; an empty prefix keeps the zero state.
    Returns (n, d)."""
    return encode_stacked([model], *pad_prefixes(model, prefixes))[:, 0]


def encode_stacked(models, ids: np.ndarray, rows: np.ndarray,
                   lengths: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Final state of every prefix of a ``pad_prefixes`` or
    ``prefix_points`` triple under each of several models that share a
    vocabulary: (len(rows), K, d), written into ``out`` when given (any
    view of that shape and the models' dtype, such as one column of a
    wider table) and returned.

    Prefix i is row rows[i] of ids after lengths[i] items: a row of its
    own from ``pad_prefixes``, its session's row from ``prefix_points``.
    An empty prefix keeps the zero state. This is the one packed
    inference pass. The models run stacked, one batched product per gate
    block and step for all of them, and a row runs only as far as its
    longest prefix: the rows go longest first (ties in row order), so at
    step t the rows with more than t steps are the leading active[t]
    ones, and the step runs on those alone. Each prefix's state is taken as soon as the
    pass reaches its length, so no (L, n, d) block of states is kept.
    Besides the result, the pass holds the input tables (K, V+1, 3d in
    all) and 6 K max(n, 2) d floats of step buffers, each step using a
    leading part of each.
    """
    w = _stacked_gate_weights(models)
    table_zr, table_n = _input_side(w, np.stack([m.embeddings for m in models]))
    _check_ids(ids, table_n.shape[1])
    (n, L), K, d = ids.shape, len(models), table_n.shape[-1]
    if out is None:
        out = np.empty((len(rows), K, d), dtype=table_n.dtype)
    elif out.shape != (len(rows), K, d) or out.dtype != table_n.dtype:
        raise DimensionError(f"out must be {(len(rows), K, d)} {table_n.dtype}, "
                             f"got {out.shape} {out.dtype}")
    steps = np.zeros(n, dtype=np.int64)
    np.maximum.at(steps, rows, lengths)
    order = np.argsort(-steps, kind="stable")
    where = np.empty(n, dtype=np.int64)      # where[r]: row r's place in order
    where[order] = np.arange(n)
    active = np.count_nonzero(steps[:, None] > np.arange(L), axis=0)
    # A step never runs on one row alone: BLAS takes a one-row product
    # through its matrix-vector kernel, whose rounding can differ from its
    # matrix kernel's in the last bit, and a row's state would then depend
    # on the rows that share its steps. A lone active row runs beside a
    # spare one (a finished row, or pads), whose result is never read.
    width = max(n, 2)
    cols = np.zeros((L, width), dtype=ids.dtype)  # step t's ids, longest row first
    cols[:, :n] = ids.T[:, order]
    by_length = np.argsort(lengths, kind="stable")
    # prefixes of length t + 1 are by_length[ends[t] : ends[t + 1]]
    ends = np.searchsorted(lengths[by_length], np.arange(L + 1), side="right")
    out[by_length[: ends[0]]] = 0.0          # empty prefixes keep the zero state
    zr_buf = np.empty(K * width * 2 * d, dtype=out.dtype)
    n_buf, rh_buf, h_new_buf = (np.empty(K * width * d, dtype=out.dtype) for _ in range(3))
    h_buf = np.zeros(K * width * d, dtype=out.dtype)
    h = h_buf.reshape(K, width, d)  # the zero state
    for t in range(L):
        if active[t] == 0:
            break
        a = max(int(active[t]), 2)
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
    # per step: its first packed row, its rows, and the next step's rows
    active = active.tolist()
    firsts = np.cumsum([0] + active[:-1]).tolist()
    steps = list(zip(firsts, active, active[1:] + [0]))
    table_zr, table_n = _input_side(params, E)
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
        _step_forward(params, zr[p], n[p], h_in[p], rh[p], hs[p])
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
        carry = _step_backward(params, zr[p], n[p], h_in[p], rh[p], dh, dzr[p], dn[p])
    dtable_zr, dtable_n = _grouped_rows(keys, (dzr, dn), E.shape[0])
    _add_weight_grads(grads, E, dtable_zr, dtable_n, h_in, rh, dzr, dn)
    dE = grads["E"]
    dE += dtable_zr @ params["W_zr"].T
    dE += dtable_n @ params["W_n"].T
    dE[0] = 0.0   # the pad row stays frozen
    return loss_sum, positions


def train_backbone(dataset: SessionDataset, config: BackboneConfig) -> GruModel:
    """Train a GRU next-item model on every (prefix, next item) pair.

    Deterministic: the result is a pure function of the dataset content,
    the config, and the seed. Session order is shuffled each epoch from
    the model's named stream; ``loss_history`` has one entry per epoch.
    A dataset of no sessions (a shard that unlearning emptied) trains
    nothing: it gives the seeded initialisation and no loss curve.
    """
    if dataset.split_tag != "train":
        raise ContractError(f"training data must be tagged 'train', got {dataset.split_tag!r}")
    model = init_gru_model(dataset.num_items(), config)
    if len(dataset) == 0:
        return model
    adam = AdamState.for_store(model.store)
    shuffle = rng_stream(config.seed, "backbone/shuffle")
    L = config.max_len
    # the id matrix of the points: row i is session i's last L items
    ids_all = prefix_points([s.items[-L:] for s in dataset.sessions], L)[0][0]
    if ids_all.shape[1] < 2:
        raise ContractError(f"no training point: max_len {L} leaves no session 2 items")
    n = ids_all.shape[0]
    buffers = _Buffers()
    for _ in range(config.epochs):
        perm = shuffle.permutation(n)
        loss_sum = 0.0
        positions = 0
        for start in range(0, n, config.batch_size):
            batch = ids_all[perm[start : start + config.batch_size]]
            ls, p = sequence_loss_and_grads(model, batch, buffers)
            adam_step(model.store, adam, config.lr)
            loss_sum += ls
            positions += p
        model.loss_history.append(loss_sum / positions)
    return model


def _train_pair(pair):
    dataset, config = pair
    started = time.perf_counter()
    model = train_backbone(dataset, config)
    return model, (time.perf_counter() - started) * 1e3


def _training_workers(models: int) -> int:
    """Processes that train ``models`` independent models: as many as the
    usable CPUs hold processes of the BLAS pin's thread count, and no
    more than there are models; 1 means in process.

    Usable CPUs are the affinity mask's. BLAS threads come from the first
    of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS that holds a positive
    integer, else they are every usable CPU, which is what an unpinned
    BLAS takes: forking beside it would only oversubscribe the CPUs. The
    library reads the pin and never sets it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return max(1, min(models, cpus // threads))


def train_many_timed(datasets, configs) -> list[tuple[GruModel, float]]:
    """Train several independent models; returns (model, ms) pairs, each
    model's training time measured where it trains.

    ``_training_workers`` picks the number of processes. With one, the
    models train one after another in this process; otherwise a process
    pool trains them, so the times can add up to more than the call's
    wall time. Each model draws only from its own config's named
    streams, so both paths give bitwise identical models.
    """
    pairs = list(zip(datasets, configs))
    workers = _training_workers(len(pairs))
    if workers == 1:
        return [_train_pair(p) for p in pairs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_train_pair, pairs))


def train_many(datasets, configs) -> list[GruModel]:
    """``train_many_timed`` without the timings."""
    return [model for model, _ in train_many_timed(datasets, configs)]
