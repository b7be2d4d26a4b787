"""Fusion of per-shard hidden states into one prediction.

Per shard: an affine projection into a common space (applied to both the
session state and the shard centroid), then an attention weight computed
from the elementwise product of the projected pair, a convex fusion of
the projected states, and a two-layer ReLU output network over the item
set. Sub-models are frozen throughout; only these fusion parameters
train.

The batched passes compute the attention in folded form. For shard k
with state rows H_k (B, d), centroid c_k, projection (Wp_k, bp_k) and
Cp_k = c_k Wp_k + bp_k, the pre-activation is

    T_pre_k = ((H_k Wp_k + bp_k) * Cp_k) W_attn + b_attn = H_k M_k + m_k,
    M_k = N_k W_attn,  N_k = Wp_k diag(Cp_k),
    m_k = n_k W_attn + b_attn,  n_k = bp_k * Cp_k.

M_k and m_k depend on the parameters alone, so they are built once per
batch at K d d f multiply-adds, and the product U = Hp * Cp is never
formed, in either pass. H is a frozen input, so the backward pass needs
H_k^T dT_pre_k for M_k and never the gradient of U (see ``_backward``).
The projected states Hp_k = H_k Wp_k + bp_k are still formed for the
fused state.

A step runs shard-major: each batch is copied once into a (K, B, d + 1)
block whose last column is 1, so that every per-shard product is one
batched matmul over contiguous blocks that also adds its bias, and the
scores and attention weights are (K, B). The output layer and its loss
are ``numerics._softmax_loss``, the kernel the GRU trainer uses too, and
prediction computes its logits with the same ``numerics._logits``. A
training call takes every per-row array of its steps from one set of
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .backbone import (
    GruModel,
    encode_batch,
    encode_stacked,
    pad_prefixes,
    training_points,
)
from .corpus import SessionDataset
from .errors import ContractError, DimensionError
from .numerics import (
    AdamState,
    ParamStore,
    RngStream,
    _Buffers,
    _logits,
    _softmax_loss,
    adam_step,
    softmax,
    xavier_uniform,
)

CENTROID_SOURCES = ("submodel", "reference")


@dataclass(frozen=True)
class AggregationConfig:
    f: int = 64                 # attention width
    d_ff: int | None = None     # output hidden width; None means d
    lr: float = 5e-3
    epochs: int = 10
    batch_size: int = 256
    seed: int = 0
    centroid_source: str = "submodel"

    def __post_init__(self):
        if self.centroid_source not in CENTROID_SOURCES:
            raise ContractError(
                f"centroid_source must be one of {CENTROID_SOURCES}, "
                f"got {self.centroid_source!r}"
            )

    def as_dict(self) -> dict:
        return {
            "f": self.f, "d_ff": self.d_ff, "lr": self.lr, "epochs": self.epochs,
            "batch_size": self.batch_size, "seed": self.seed,
            "centroid_source": self.centroid_source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregationConfig":
        return cls(**data)


@dataclass
class ShardCentroids:
    """Mean hidden state of each shard's sessions.

    With source "submodel" (the default) centroid k lives in sub-model
    k's own hidden space; with "reference" all centroids come from the
    partition step in the reference model's space.
    """

    c: np.ndarray          # (k, d)
    source: str = "submodel"


@dataclass
class AggregationModel:
    store: ParamStore
    k: int
    d: int
    f: int
    d_ff: int
    num_items: int
    config: AggregationConfig | None = None
    loss_history: list = field(default_factory=list)

    def params_bytes(self) -> bytes:
        return self.store.tobytes()


def compute_centroid(sub_model: GruModel, shard: SessionDataset) -> np.ndarray:
    """Mean encoding of a shard's full sessions under its own sub-model."""
    if len(shard) == 0:
        raise ContractError("cannot compute the centroid of an empty shard")
    states = encode_batch(sub_model, [s.items for s in shard.sessions])
    return states.mean(axis=0)


def compute_centroids(sub_models, shards, source: str = "submodel",
                      reference_centroids: np.ndarray | None = None,
                      previous: ShardCentroids | None = None,
                      affected=()) -> ShardCentroids:
    """Centroids of every shard under ``source``.

    Given the ``previous`` centroids, a "submodel" refresh re-encodes
    only the ``affected`` shards and copies every other row: a shard
    whose sessions and sub-model are unchanged keeps its centroid.
    """
    if source == "submodel":
        if previous is not None:
            c = previous.c.copy()
            for k in affected:
                c[k] = compute_centroid(sub_models[k], shards[k])
        else:
            c = np.stack([compute_centroid(m, s) for m, s in zip(sub_models, shards)])
    elif source == "reference":
        if reference_centroids is None:
            raise ContractError("reference centroids requested but none provided")
        c = np.asarray(reference_centroids, dtype=sub_models[0].embeddings.dtype).copy()
    else:
        raise ContractError(f"unknown centroid source {source!r}")
    return ShardCentroids(c=c, source=source)


# -- single-example operations -------------------------------------------------


def project(h_k: np.ndarray, c_k: np.ndarray, W_k: np.ndarray, b_k: np.ndarray):
    """Apply one shard's affine map to its state and centroid alike."""
    h_k = np.asarray(h_k)
    c_k = np.asarray(c_k)
    if W_k.shape != (h_k.shape[0], h_k.shape[0]) or b_k.shape != h_k.shape or c_k.shape != h_k.shape:
        raise DimensionError(
            f"projection shapes do not conform: h {h_k.shape}, c {c_k.shape}, "
            f"W {W_k.shape}, b {b_k.shape}"
        )
    return h_k @ W_k + b_k, c_k @ W_k + b_k


def attention_scores(h_proj, c_proj, W_attn: np.ndarray, b_attn: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """Attention weights over shards from projected (state, centroid) pairs.

    score_k = g . relu((h'_k * c'_k) W_attn + b_attn); the weights are the
    softmax over scores, hence a probability vector of length K.
    """
    h_proj = np.asarray(h_proj)
    c_proj = np.asarray(c_proj)
    if h_proj.shape != c_proj.shape or h_proj.ndim != 2:
        raise DimensionError(
            f"need matching (k, d) arrays, got {h_proj.shape} and {c_proj.shape}"
        )
    if W_attn.shape[0] != h_proj.shape[1] or b_attn.shape != (W_attn.shape[1],) \
            or g.shape != (W_attn.shape[1],):
        raise DimensionError(
            f"attention parameter shapes do not conform: W {W_attn.shape}, "
            f"b {b_attn.shape}, g {g.shape}"
        )
    u = h_proj * c_proj
    t = np.maximum(u @ W_attn + b_attn, 0.0)
    return softmax(t @ g)


def fuse(a: np.ndarray, h_proj) -> np.ndarray:
    """Convex combination of projected states with attention weights."""
    a = np.asarray(a)
    h_proj = np.asarray(h_proj)
    if a.ndim != 1 or h_proj.shape[0] != a.shape[0]:
        raise DimensionError(f"weights {a.shape} do not match states {h_proj.shape}")
    if abs(float(a.sum()) - 1.0) > 1e-5:
        raise ContractError("attention weights must sum to 1")
    return a @ h_proj


def predict_output(h_fused: np.ndarray, W1, b1, W2, b2) -> np.ndarray:
    """Two-layer ReLU network mapping a fused state to item logits
    (compact, index v - 1 for item v)."""
    h_fused = np.asarray(h_fused)
    if W1.shape[0] != h_fused.shape[0] or W2.shape[0] != W1.shape[1]:
        raise DimensionError(
            f"output network shapes do not conform: h {h_fused.shape}, "
            f"W1 {W1.shape}, W2 {W2.shape}"
        )
    return np.maximum(h_fused @ W1 + b1, 0.0) @ W2 + b2


# -- batched forward/backward ---------------------------------------------------


class FusionCache(NamedTuple):
    """What ``_backward`` needs from one ``_hidden_pass``; the slots keep
    the order of the pass. Every per-row array is shard-major, (K, B, .).
    H, Wp and N carry the biases as an extra row or column (see
    ``_hidden_pass``). Both ReLUs run in place, so T and hidden hold
    the activations and their pre-activations are not kept."""

    H: np.ndarray          # (K, B, d + 1) frozen shard states, then a ones column
    C: np.ndarray          # (K, d) centroids
    Hp: np.ndarray         # (K, B, d) projected states
    Cp: np.ndarray         # (K, d) projected centroids
    Wp: np.ndarray         # (K, d + 1, d): W_proj_k, then the row b_proj_k
    N: np.ndarray          # (K, d + 1, d): N_k, then the row n_k
    T: np.ndarray          # (K, B, f) ReLU of the attention pre-activations
    A: np.ndarray          # (K, B) attention weights
    h_fused: np.ndarray    # (B, d)
    hidden: np.ndarray     # (B, d_ff) ReLU of the output-layer pre-activations


def _hidden_pass(params, H, C, buffers: _Buffers) -> FusionCache:
    """The fusion forward pass up to the output layer's hidden rows.

    H is (B, K, d) per-shard states, C is (K, d) centroids. H is copied
    once into a shard-major (K, B, d + 1) block whose last column is 1,
    so that every per-shard product is one batched matmul over
    contiguous blocks and carries its bias as one more weight row:
    Hp_k = [H_k 1] [Wp_k; bp_k] and T_pre_k = [H_k 1] [M_k; m_k], with
    [Wp_k; bp_k], [N_k; n_k] and [M_k; m_k] built once per call from the
    parameters (see the module docstring); U is never formed. The scores
    and attention weights are (K, B), so the softmax over shards runs
    down the columns. Every array the pass makes is taken from buffers.
    """
    Wp, bp, W_attn = params["W_proj"], params["b_proj"], params["W_attn"]
    B, K, d = H.shape
    f = params["b_attn"].shape[0]
    d_ff = params["b1"].shape[0]
    dtype = np.result_type(H, Wp)
    take = buffers.take
    H1 = take("H", (K, B, d + 1), dtype)
    H1[:, :, :d] = H.transpose(1, 0, 2)
    H1[:, :, d] = 1.0
    Cp = np.matmul(C[:, None, :], Wp)[:, 0, :] + bp
    Wp1 = take("Wp1", (K, d + 1, d), dtype)
    Wp1[:, :d] = Wp
    Wp1[:, d] = bp
    N1 = np.multiply(Wp1, Cp[:, None, :], out=take("N1", (K, d + 1, d), dtype))
    M1 = np.matmul(N1.reshape(K * (d + 1), d), W_attn,
                   out=take("M1", (K * (d + 1), f), dtype)).reshape(K, d + 1, f)
    M1[:, d] += params["b_attn"]
    Hp = np.matmul(H1, Wp1, out=take("Hp", (K, B, d), dtype))
    T = np.matmul(H1, M1, out=take("T", (K, B, f), dtype))
    np.maximum(T, 0.0, out=T)
    A = np.matmul(T.reshape(K * B, f), params["g_attn"],
                  out=take("A", (K * B,), dtype)).reshape(K, B)
    A -= A.max(axis=0)
    np.exp(A, out=A)
    A /= np.ones(K, dtype=dtype) @ A
    h_fused = np.matmul(A.T[:, None, :], Hp.transpose(1, 0, 2),
                        out=take("h_fused", (B, 1, d), dtype))[:, 0, :]
    hidden = np.matmul(h_fused, params["W1"], out=take("hidden", (B, d_ff), dtype))
    hidden += params["b1"]
    np.maximum(hidden, 0.0, out=hidden)
    return FusionCache(H1, C, Hp, Cp, Wp1, N1, T, A, h_fused, hidden)


def _forward(params, H, C, buffers: _Buffers | None = None):
    """Batched fusion forward pass: (logits, cache) for (B, K, d) states
    H and (K, d) centroids C. logits is (B, |V|) and cache the
    ``FusionCache`` of ``_hidden_pass``; both live in buffers (fresh ones
    when None). The logits are the training step's, bit for bit: both
    come from ``numerics._logits``."""
    buffers = _Buffers() if buffers is None else buffers
    cache = _hidden_pass(params, H, C, buffers)
    B, V = H.shape[0], params["b2"].shape[0]
    logits = _logits(cache.hidden, params["W2"].T, params["b2"],
                     buffers.take("logits", (B, V), cache.hidden.dtype))
    return logits, cache


def _backward(params, grads, cache: FusionCache, dhidden, buffers: _Buffers) -> None:
    """Write the gradients of every fusion parameter below the output
    layer into grads, given the gradient dhidden of its hidden rows;
    inputs are frozen. Each gradient is a single term, written with
    ``out=`` or one assignment, so grads need not be zeroed first.

    Sums over rows are products with a ones vector, which BLAS runs much
    faster than numpy's axis reductions. With dS the (K, B) score
    gradient, the pre-activation gradient of shard k is
    dT_pre_k = (dS_k g) * [T_k > 0]. g factors out of the folded
    gradients, so only dT_k = [T_k > 0] * dS_k is formed, in the buffer
    of the ReLU T once g's own gradient has read it. The ones column of
    H gives the bias rows of each product with it for free:

        [dM_k; dm_k] = ([H_k 1]^T dT_k) * g       (d + 1, f)

    The chain rule through M_k = N_k W_attn, m_k = n_k W_attn + b_attn,
    N_k = Wp_k diag(Cp_k), n_k = bp_k * Cp_k and Cp_k = c_k Wp_k + bp_k
    then runs on (K, d + 1, d)-sized arrays, once per batch:

        [dN_k; dn_k] = [dM_k; dm_k] W_attn^T
        dW_attn = sum_k N_k^T dM_k + n^T dm,   db_attn = sum_k dm_k
        dCp_k = colsum(dN_k * Wp_k) + dn_k * bp_k
        dWp_k = dN_k diag(Cp_k) + c_k^T dCp_k + H_k^T (A_k dh_fused)
        dbp_k = dn_k * Cp_k + dCp_k + A_k^T dh_fused

    The last terms of dWp and dbp come from the fused state's Hp; they
    are one product, [H_k 1]^T (A_k dh_fused), whose result is laid out
    like [dWp_k; dbp_k] so that it adds over contiguous memory. The
    cache is consumed: the ReLU masks are written over hidden and T.
    """
    H1, C, Hp, Cp, Wp1, N1, T, A, h_fused, hidden = cache
    K, B, d = Hp.shape
    f = T.shape[2]
    W_attn, g_attn = params["W_attn"], params["g_attn"]
    dtype = dhidden.dtype
    take = buffers.take
    dpre1 = dhidden
    dpre1 *= np.greater(hidden, 0, out=hidden)
    np.matmul(h_fused.T, dpre1, out=grads["W1"])
    np.matmul(np.ones(B, dtype=dtype), dpre1, out=grads["b1"])
    dh_fused = np.matmul(dpre1, params["W1"].T, out=take("dh_fused", (B, d), dtype))

    # dA[k, b] = Hp[k, b] . dh_fused[b], one small product per row
    dA = np.matmul(Hp.transpose(1, 0, 2), dh_fused[:, :, None])[:, :, 0]
    dS = np.multiply(A, dA.T, out=take("dS", (K, B), dtype))
    dS -= A * (np.ones(K, dtype=dtype) @ dS)
    np.matmul(dS.reshape(K * B), T.reshape(K * B, f), out=grads["g_attn"])
    dT = np.greater(T, 0, out=T)
    dT *= dS[:, :, None]
    dM1 = np.matmul(H1.transpose(0, 2, 1), dT, out=take("dM1", (K, d + 1, f), dtype))
    dM1 *= g_attn
    np.matmul(np.ones(K, dtype=dtype), dM1[:, d], out=grads["b_attn"])
    np.matmul(N1.reshape(K * (d + 1), d).T, dM1.reshape(K * (d + 1), f),
              out=grads["W_attn"])
    dN1 = np.matmul(dM1.reshape(K * (d + 1), f), W_attn.T,
                    out=take("dN1", (K * (d + 1), d), dtype)).reshape(K, d + 1, d)
    dCp = np.einsum("kij,kij->kj", dN1, Wp1)
    weighted = np.multiply(A[:, :, None], dh_fused, out=take("KBd", (K, B, d), dtype))
    dWp1 = np.matmul(H1.transpose(0, 2, 1), weighted, out=take("dWp1", (K, d + 1, d), dtype))
    dN1 *= Cp[:, None, :]
    dWp1 += dN1
    dWp1[:, :d] += C[:, :, None] * dCp[:, None, :]
    dWp1[:, d] += dCp
    grads["W_proj"][...] = dWp1[:, :d]
    grads["b_proj"][...] = dWp1[:, d]


def _train_step(params, grads, H, C, targets, buffers: _Buffers) -> float:
    """One fusion training step on (B, K, d) states H: writes the
    gradient of the mean cross-entropy against targets (column indices)
    into grads, over whatever they held, and returns the loss sum. The
    output layer and its loss are ``numerics._softmax_loss`` over W2
    and b2."""
    cache = _hidden_pass(params, H, C, buffers)
    B, V = H.shape[0], params["b2"].shape[0]
    loss_sum, _, _, dhidden = _softmax_loss(
        cache.hidden, params["W2"].T, params["b2"], targets, B,
        buffers.take("logits", (B, V), cache.hidden.dtype),
        dW=grads["W2"].T, db=grads["b2"])
    _backward(params, grads, cache, dhidden, buffers)
    return loss_sum


def init_aggregation_model(k: int, d: int, num_items: int,
                           config: AggregationConfig) -> AggregationModel:
    """Fresh fusion parameters from the config's named stream.

    Projections start at identity plus small noise so that the initial
    fused state stays in the sub-models' own scale.
    """
    d_ff = config.d_ff if config.d_ff else d
    dtype = np.float32
    stream = RngStream(config.seed, "aggregation/init")
    store = ParamStore()
    eye = np.broadcast_to(np.eye(d, dtype=dtype), (k, d, d))
    store.add("W_proj", eye + stream.uniform(-0.01, 0.01, (k, d, d)).astype(dtype))
    store.add("b_proj", np.zeros((k, d), dtype=dtype))
    store.add("W_attn", xavier_uniform(stream, d, config.f, (d, config.f), dtype))
    store.add("b_attn", np.zeros(config.f, dtype=dtype))
    store.add("g_attn", xavier_uniform(stream, config.f, 1, (config.f,), dtype))
    store.add("W1", xavier_uniform(stream, d, d_ff, (d, d_ff), dtype))
    store.add("b1", np.zeros(d_ff, dtype=dtype))
    store.add("W2", xavier_uniform(stream, d_ff, num_items, (d_ff, num_items), dtype))
    store.add("b2", np.zeros(num_items, dtype=dtype))
    return AggregationModel(store=store, k=k, d=d, f=config.f, d_ff=d_ff,
                            num_items=num_items, config=config)


@dataclass
class FeatureCache:
    """Precomputed per-shard state table, reusable across unlearn calls.

    Rows follow the training corpus session order; row_slices maps each
    session id to its (start, count) block. After a deletion only the
    retrained shard's column and the rewritten sessions' rows need
    recomputation, which is what keeps selective unlearning cheap
    relative to full retraining. ``updated_feature_cache`` does that in
    the table's own buffer, so a cache has one owner at a time: the
    ``SruState`` that holds it, which hands it over to the state that
    ``execute_unlearn`` returns. The update leaves the old cache with
    ``features = None``, so a second holder of it (a ``replace`` copy of
    the state) gets a ContractError instead of stale rows. ``copy()``
    gives a cache its own buffer. ``fit_state`` keeps the cache it
    trained the fusion layer on; a state loaded from disk has none, and
    ``execute_unlearn`` builds it lazily on the post-deletion sub-models.
    """

    features: np.ndarray | None               # (P, K, d); None once updated
    targets: np.ndarray                       # (P,)
    row_slices: dict[str, tuple[int, int]]

    def copy(self) -> FeatureCache:
        """A cache with its own buffer, for unlearning one state twice."""
        return FeatureCache(features=self.features.copy(), targets=self.targets,
                            row_slices=self.row_slices)


def _layout(sessions, max_len: int):
    """(starts, counts, row_slices) of the training rows of sessions:
    session i holds rows starts[i] : starts[i] + counts[i], one for each
    (prefix, next item) point of its last max_len items, in the order of
    ``training_points``; row_slices maps its id to that (start, count)."""
    sizes = np.fromiter(map(len, map(attrgetter("items"), sessions)), dtype=np.int64,
                        count=len(sessions))
    counts = np.maximum(np.minimum(sizes, max_len) - 1, 0)
    starts = np.cumsum(counts) - counts
    slices = dict(zip(map(attrgetter("session_id"), sessions),
                      zip(starts.tolist(), counts.tolist())))
    return starts, counts, slices


def build_feature_cache(sub_models, dataset: SessionDataset) -> FeatureCache:
    """Per-position hidden states of every sub-model over one dataset:
    features (P, K, d) and targets (P,), where P runs over all (prefix,
    next-item) training points in session order. Each sub-model runs its
    own ``encode_stacked`` pass, written into its column of the one
    table, so that the pass's result is one column and not a second
    table. Sub-models are only read, never written."""
    max_len = sub_models[0].max_len
    points, targets = training_points([s.items for s in dataset.sessions], max_len)
    _, _, slices = _layout(dataset.sessions, max_len)
    dtype = np.result_type(*(m.embeddings.dtype for m in sub_models))
    features = np.empty((len(targets), len(sub_models), sub_models[0].d), dtype=dtype)
    for c, model in enumerate(sub_models):
        features[:, c] = encode_stacked([model], *points)[:, 0]
    return FeatureCache(features=features, targets=targets, row_slices=slices)


# Rows per copy when reused rows move down the table: numpy copies an
# overlapping slice assignment through a temporary of the whole source.
_MOVE_ROWS = 1024


def updated_feature_cache(cache: FeatureCache, sub_models, dataset: SessionDataset,
                          dirty_shards, changed_session_ids) -> FeatureCache:
    """Update a cache after deletions in its own buffer, keeping every
    row that cannot have changed.

    dirty_shards lists sub-models that were retrained (their whole
    column is recomputed); changed_session_ids lists sessions whose item
    sequence was rewritten (their rows are recomputed under every clean
    sub-model too). Deletions only remove rows and keep the session
    order, so each reused session moves to an equal or lower row. The
    reused runs come from two arrays over the sessions in corpus order,
    their old and new first rows: a run goes on while both stay
    contiguous. The runs are moved first, in ascending order, then the
    fresh rows and dirty columns are overwritten: the fresh rows of all
    clean columns by one stacked pass over the clean sub-models, each
    dirty column by a pass of its own over all rows. The targets move
    and fill alike, into an array of their own. The result's table is a
    prefix of ``cache.features``, whose rows are overwritten, so
    ``cache`` gives up its buffer (its ``features`` becomes None) and
    updating it again raises ContractError. So does a layout that needs
    more rows than the buffer holds, or that moves a reused session to a
    later row.
    """
    k = len(sub_models)
    max_len = sub_models[0].max_len
    dirty = sorted(set(dirty_shards))
    changed = set(changed_session_ids)
    sessions = dataset.sessions
    starts, counts, slices = _layout(sessions, max_len)
    rows = int(counts.sum())
    buffer = cache.features
    if buffer is None:
        raise ContractError(
            "this feature cache was already updated in place and its buffer belongs "
            "to the cache that update returned; rebuild it (feature_cache=None)"
        )
    if rows > buffer.shape[0] or buffer.shape[1:] != (k, sub_models[0].d):
        raise ContractError(
            f"a ({rows}, {k}, {sub_models[0].d}) table does not fit the cached "
            f"buffer of shape {buffer.shape}"
        )
    features = buffer[:rows]

    ids = list(map(attrgetter("session_id"), sessions))
    # each session's (start, count) in the cache; (-1, 0) where it has none
    old = np.fromiter(chain.from_iterable(map(cache.row_slices.get, ids, repeat((-1, 0)))),
                      dtype=np.int64, count=2 * len(ids)).reshape(len(ids), 2)
    fresh = old[:, 0] < 0
    if changed:
        fresh |= np.fromiter(map(changed.__contains__, ids), dtype=bool, count=len(ids))
    kept = np.flatnonzero(~fresh)
    old_start, new_start, n = old[kept, 0], starts[kept], counts[kept]
    moved_up = (old_start < new_start) | (old[kept, 1] != n)
    if moved_up.any():
        i = int(kept[np.argmax(moved_up)])
        raise ContractError(
            f"session {ids[i]!r} moves from rows {_span(old[i])} to "
            f"{_span((starts[i], counts[i]))}; an in-place update only moves rows down"
        )
    runs = []                         # (old start, new start, rows)
    if kept.size:
        head = np.ones(kept.size, dtype=bool)
        head[1:] = ((old_start[1:] != old_start[:-1] + n[:-1])
                    | (new_start[1:] != new_start[:-1] + n[:-1]))
        heads = np.flatnonzero(head)
        runs = list(zip(old_start[heads].tolist(), new_start[heads].tolist(),
                        np.add.reduceat(n, heads).tolist()))

    cache.features = None
    clean_cols = [c for c in range(k) if c not in dirty]
    targets = np.empty(rows, dtype=cache.targets.dtype)
    for old_first, new_first, m in runs:
        targets[new_first : new_first + m] = cache.targets[old_first : old_first + m]
        if not clean_cols or old_first == new_first:
            continue
        for i in range(0, m, _MOVE_ROWS):
            step = min(_MOVE_ROWS, m - i)
            dst, src = new_first + i, old_first + i
            features[dst : dst + step] = buffer[src : src + step]
    fresh = np.flatnonzero(fresh)
    if fresh.size:
        fresh_points, targets_fresh = training_points([sessions[i].items for i in fresh],
                                                      max_len)
        # the rows of the fresh sessions, in the order of their points
        first = np.cumsum(counts[fresh]) - counts[fresh]
        fresh_rows = (np.repeat(starts[fresh] - first, counts[fresh])
                      + np.arange(len(targets_fresh)))
        targets[fresh_rows] = targets_fresh
        if clean_cols:
            features[fresh_rows[:, None], clean_cols] = encode_stacked(
                [sub_models[c] for c in clean_cols], *fresh_points)
    if dirty:
        points, _ = training_points([s.items for s in sessions], max_len)
        for c in dirty:
            features[:, c] = encode_stacked([sub_models[c]], *points)[:, 0]
    return FeatureCache(features=features, targets=targets, row_slices=slices)


def _span(slice_pair):
    start, n = (int(v) for v in slice_pair)
    return start, start + n


def train_aggregation(sub_models, centroids: ShardCentroids,
                      train_data: SessionDataset,
                      config: AggregationConfig,
                      precomputed=None) -> AggregationModel:
    """Train the fusion parameters on every training point of the corpus.

    Sub-model states are precomputed once (the sub-models are frozen, so
    they never change during these epochs) and the fusion stack is
    optimized with Adam under the config's seed. ``precomputed`` may
    carry a (features, targets) pair from a FeatureCache to skip the
    state computation.
    """
    k = len(sub_models)
    if k == 0:
        raise ContractError("need at least one sub-model")
    if centroids.c.shape[0] != k:
        raise ContractError(f"{k} sub-models but {centroids.c.shape[0]} centroids")
    d = sub_models[0].d
    num_items = train_data.num_items()

    if precomputed is None:
        cache = build_feature_cache(sub_models, train_data)
        precomputed = (cache.features, cache.targets)
    features, targets = precomputed
    C = centroids.c.astype(features.dtype)
    model = init_aggregation_model(k, d, num_items, config)
    store = model.store
    adam = AdamState.for_store(store)
    shuffle = RngStream(config.seed, "aggregation/shuffle")

    P = features.shape[0]
    # Each batch is gathered into one reused buffer, so no shuffled copy
    # of the table is made. perm is a permutation, so mode="clip" only
    # skips take's buffered bounds check. The steps share one set of
    # buffers for everything else.
    batch = np.empty((min(config.batch_size, P), *features.shape[1:]), dtype=features.dtype)
    buffers = _Buffers()
    for _ in range(config.epochs):
        perm = shuffle.permutation(P)
        loss_sum = 0.0
        for start in range(0, P, config.batch_size):
            rows = perm[start : start + config.batch_size]
            Hb = np.take(features, rows, axis=0, out=batch[: len(rows)], mode="clip")
            loss_sum += _train_step(store.params, store.grads, Hb, C, targets[rows] - 1,
                                    buffers)
            adam_step(store, adam, config.lr)
        model.loss_history.append(loss_sum / P)
    return model


# Rows per fusion forward in prediction: the blocks share one set of
# buffers, small enough to stay in cache.
_PREDICT_ROWS = 256


@dataclass
class SruModel:
    """Frozen sub-models plus trained fusion; the full predictor."""

    sub_models: tuple
    centroids: ShardCentroids
    aggregation: AggregationModel
    max_len: int

    @property
    def num_items(self) -> int:
        return self.aggregation.num_items

    def predict(self, prefix) -> np.ndarray:
        return self.predict_batch([prefix])[0]

    __call__ = predict

    def predict_batch(self, prefixes) -> np.ndarray:
        """Id-indexed logits rows; index 0 is the pad slot at -inf.

        Prefixes are cleaned and padded once, each shared prefix chain
        as one row; the sub-models read the same id matrix (they share
        the vocabulary and max_len) in one stacked pass. The fusion then
        runs on blocks of ``_PREDICT_ROWS`` rows.
        """
        H = encode_stacked(self.sub_models, *pad_prefixes(self.sub_models[0], prefixes))
        params = self.aggregation.store.params
        C = self.centroids.c.astype(H.dtype)
        out = np.empty((len(prefixes), self.num_items + 1),
                       dtype=np.result_type(H, params["W_proj"]))
        out[:, 0] = -np.inf
        buffers = _Buffers()
        for start in range(0, len(prefixes), _PREDICT_ROWS):
            stop = start + _PREDICT_ROWS
            logits, _ = _forward(params, H[start:stop], C, buffers)
            out[start:stop, 1:] = logits
        return out
