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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    adam_step,
    cross_entropy_rows,
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
    """What ``_backward`` needs from one ``_forward`` call; the slots keep
    the order of the pass. N holds the folded N_k = Wp_k diag(Cp_k)."""

    H: np.ndarray          # (B, K, d) frozen shard states
    C: np.ndarray          # (K, d) centroids
    Hp: np.ndarray         # (B, K, d) projected states
    Cp: np.ndarray         # (K, d) projected centroids
    N: np.ndarray          # (K, d, d)
    T_pre: np.ndarray      # (B, K, f) attention pre-activations
    T: np.ndarray          # (B, K, f) their ReLU
    A: np.ndarray          # (B, K) attention weights
    h_fused: np.ndarray    # (B, d)
    pre1: np.ndarray       # (B, d_ff) output-layer pre-activations
    hidden: np.ndarray     # (B, d_ff) their ReLU


def _forward(params, H, C, with_cache=False):
    """Batched fusion forward pass in folded form.

    H is (B, K, d) per-shard states, C is (K, d) centroids. Returns
    (logits, cache) where logits is (B, |V|) and cache is a
    ``FusionCache`` (None unless ``with_cache``). Shard k's attention
    pre-activation is H_k M_k + m_k, with M_k and m_k built once per
    call from the parameters (see the module docstring); U is never
    formed. Hp and T_pre are each one batched matmul over the
    shard-major view of H, written through a shard-major view of the
    output so that both stay C-contiguous in (B, K, .).
    """
    Wp, bp, W_attn = params["W_proj"], params["b_proj"], params["W_attn"]
    B, K, d = H.shape
    f = params["b_attn"].shape[0]
    dtype = np.result_type(H, Wp)
    Cp = np.matmul(C[:, None, :], Wp)[:, 0, :] + bp
    N = Wp * Cp[:, None, :]
    M = N @ W_attn
    m = (bp * Cp) @ W_attn
    m += params["b_attn"]
    H_shards = H.transpose(1, 0, 2)
    Hp = np.empty((B, K, d), dtype=dtype)
    np.matmul(H_shards, Wp, out=Hp.transpose(1, 0, 2))
    Hp += bp
    T_pre = np.empty((B, K, f), dtype=dtype)
    np.matmul(H_shards, M, out=T_pre.transpose(1, 0, 2))
    T_pre += m
    # Prediction keeps no pre-activations, so its ReLUs run in place.
    T = np.maximum(T_pre, 0.0, out=None if with_cache else T_pre)
    S = (T.reshape(B * K, f) @ params["g_attn"]).reshape(B, K)
    # numpy's row max over a few (K) columns is about 10x slower than
    # the same max taken down the columns of a contiguous transpose
    S -= np.ascontiguousarray(S.T).max(axis=0)[:, None]
    A = np.exp(S, out=S)
    A /= (A @ np.ones(K, dtype=A.dtype))[:, None]
    h_fused = np.matmul(A[:, None, :], Hp)[:, 0, :]
    pre1 = h_fused @ params["W1"]
    pre1 += params["b1"]
    hidden = np.maximum(pre1, 0.0, out=None if with_cache else pre1)
    logits = hidden @ params["W2"]
    logits += params["b2"]
    if not with_cache:
        return logits, None
    return logits, FusionCache(H, C, Hp, Cp, N, T_pre, T, A, h_fused, pre1, hidden)


def _backward(params, grads, cache, dlogits):
    """Accumulate gradients for all fusion parameters; inputs are frozen.

    Sums over rows are products with a ones vector, which BLAS runs much
    faster than numpy's axis reductions. With dS the score gradient and
    mask_k = [T_pre_k > 0], the pre-activation gradient of shard k is
    dT_pre_k = (dS_k g) * mask_k. It is never formed, because g factors
    out of both folded gradients:

        dM_k = ((H_k * dS_k)^T mask_k) * g       (d, f)
        dm_k = (dS_k^T mask_k) * g               (f,)

    The chain rule through M_k = N_k W_attn, m_k = n_k W_attn + b_attn,
    N_k = Wp_k diag(Cp_k), n_k = bp_k * Cp_k and Cp_k = c_k Wp_k + bp_k
    then runs on (K, d, d)-sized arrays, once per batch:

        dN_k = dM_k W_attn^T,   dn_k = dm_k W_attn^T
        dW_attn = sum_k N_k^T dM_k + n^T dm,   db_attn = sum_k dm_k
        dCp_k = colsum(dN_k * Wp_k) + dn_k * bp_k
        dWp_k = dN_k diag(Cp_k) + c_k^T dCp_k + H_k^T (A_k dh_fused)
        dbp_k = dn_k * Cp_k + dCp_k + A_k^T dh_fused

    The last terms of dWp and dbp come from the fused state's Hp. The
    cache is consumed: the ReLU masks are written over the
    pre-activations T_pre and pre1.
    """
    H, C, Hp, Cp, N, T_pre, T, A, h_fused, pre1, hidden = cache
    B, K, d = H.shape
    f = params["b_attn"].shape[0]
    Wp, bp, W_attn = params["W_proj"], params["b_proj"], params["W_attn"]
    g_attn = params["g_attn"]
    ones = np.ones(B, dtype=dlogits.dtype)
    grads["W2"] += hidden.T @ dlogits
    grads["b2"] += ones @ dlogits
    dpre1 = dlogits @ params["W2"].T
    dpre1 *= np.greater(pre1, 0, out=pre1)
    grads["W1"] += h_fused.T @ dpre1
    grads["b1"] += ones @ dpre1
    dh_fused = dpre1 @ params["W1"].T

    dA = np.matmul(Hp, dh_fused[:, :, None])[:, :, 0]
    dS = dA - ((A * dA) @ np.ones(K, dtype=dA.dtype))[:, None]
    dS *= A
    grads["g_attn"] += dS.reshape(B * K) @ T.reshape(B * K, f)
    mask = np.greater(T_pre, 0, out=T_pre).transpose(1, 0, 2)
    dM = np.matmul((H * dS[:, :, None]).transpose(1, 2, 0), mask)
    dM *= g_attn
    dm = np.matmul(dS.T[:, None, :], mask)[:, 0, :]
    dm *= g_attn
    n = bp * Cp
    grads["b_attn"] += np.ones(K, dtype=dm.dtype) @ dm
    grads["W_attn"] += N.reshape(K * d, d).T @ dM.reshape(K * d, f)
    grads["W_attn"] += n.T @ dm
    dN = dM @ W_attn.T
    dn = dm @ W_attn.T
    dCp = np.einsum("kij,kij->kj", dN, Wp)
    dCp += dn * bp
    dWp = dN * Cp[:, None, :]
    dWp += C[:, :, None] * dCp[:, None, :]
    dWp += ((H * A[:, :, None]).reshape(B, K * d).T @ dh_fused).reshape(K, d, d)
    grads["W_proj"] += dWp
    grads["b_proj"] += dn * Cp + dCp + A.T @ dh_fused


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
    """(points, targets, row_slices) of the training rows of sessions:
    the ``training_points`` of their items, and each session's (start,
    count) block of rows."""
    points, targets = training_points([s.items for s in sessions], max_len)
    counts = np.bincount(points[1], minlength=len(sessions))
    starts = np.cumsum(counts) - counts
    slices = dict(zip((s.session_id for s in sessions),
                      zip(starts.tolist(), counts.tolist())))
    return points, targets, slices


def build_feature_cache(sub_models, dataset: SessionDataset) -> FeatureCache:
    """Per-position hidden states of every sub-model over one dataset:
    features (P, K, d) and targets (P,), where P runs over all (prefix,
    next-item) training points in session order. Each sub-model runs its
    own ``encode_stacked`` pass, written into its column of the one
    table, so that the pass's result is one column and not a second
    table. Sub-models are only read, never written."""
    points, targets, slices = _layout(dataset.sessions, sub_models[0].max_len)
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
    order, so each reused session moves to an equal or lower row; the
    reused runs are moved first, in ascending order, then the fresh rows
    and dirty columns are overwritten: the fresh rows of all clean
    columns by one stacked pass over the clean sub-models, each dirty
    column by a pass of its own. The result's table is a prefix of
    ``cache.features``, whose rows are overwritten, so ``cache`` gives up
    its buffer (its ``features`` becomes None) and updating it again
    raises ContractError. So does a layout that needs more rows than the
    buffer holds, or that moves a reused session to a later row.
    """
    k = len(sub_models)
    dirty = sorted(set(dirty_shards))
    changed = set(changed_session_ids)
    points, targets, slices = _layout(dataset.sessions, sub_models[0].max_len)
    buffer = cache.features
    if buffer is None:
        raise ContractError(
            "this feature cache was already updated in place and its buffer belongs "
            "to the cache that update returned; rebuild it (feature_cache=None)"
        )
    if len(targets) > buffer.shape[0] or buffer.shape[1:] != (k, sub_models[0].d):
        raise ContractError(
            f"a ({len(targets)}, {k}, {sub_models[0].d}) table does not fit the cached "
            f"buffer of shape {buffer.shape}"
        )
    features = buffer[: len(targets)]

    fresh = []
    runs: list[list[int]] = []    # [old start, new start, rows], merged where contiguous
    for i, s in enumerate(dataset.sessions):
        start, n = slices[s.session_id]
        old = cache.row_slices.get(s.session_id)
        if s.session_id in changed or old is None:
            fresh.append(i)
            continue
        if old[0] < start or old[1] != n:
            raise ContractError(
                f"session {s.session_id!r} moves from rows {_span(old)} to "
                f"{_span((start, n))}; an in-place update only moves rows down"
            )
        if runs and runs[-1][0] + runs[-1][2] == old[0] and runs[-1][1] + runs[-1][2] == start:
            runs[-1][2] += n
        else:
            runs.append([old[0], start, n])

    cache.features = None
    clean_cols = [c for c in range(k) if c not in dirty]
    if clean_cols:
        for old_start, new_start, n in runs:
            if old_start == new_start:
                continue
            for i in range(0, n, _MOVE_ROWS):
                m = min(_MOVE_ROWS, n - i)
                dst, src = new_start + i, old_start + i
                features[dst : dst + m] = buffer[src : src + m]
    if clean_cols and fresh:
        fresh_points, _ = training_points(
            [dataset.sessions[i].items for i in fresh], sub_models[0].max_len)
        rows = np.flatnonzero(np.isin(points[1], fresh))
        features[rows[:, None], clean_cols] = encode_stacked(
            [sub_models[c] for c in clean_cols], *fresh_points)
    for c in dirty:
        features[:, c] = encode_stacked([sub_models[c]], *points)[:, 0]
    return FeatureCache(features=features, targets=targets, row_slices=slices)


def _span(slice_pair):
    start, n = slice_pair
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
    # skips take's buffered bounds check.
    batch = np.empty((min(config.batch_size, P), *features.shape[1:]), dtype=features.dtype)
    for _ in range(config.epochs):
        perm = shuffle.permutation(P)
        loss_sum = 0.0
        for start in range(0, P, config.batch_size):
            rows = perm[start : start + config.batch_size]
            Hb = np.take(features, rows, axis=0, out=batch[: len(rows)], mode="clip")
            tb = targets[rows] - 1
            logits, cache = _forward(store.params, Hb, C, with_cache=True)
            losses, dlogits = cross_entropy_rows(logits, tb)
            loss_sum += float(losses.sum())
            dlogits /= len(tb)
            store.zero_grads()
            _backward(store.params, store.grads, cache, dlogits)
            adam_step(store, adam, config.lr)
        model.loss_history.append(loss_sum / P)
    return model


# Rows per fusion forward in prediction: the per-block temporaries stay
# small enough to be reused from cache, and the logits go straight into
# the output.
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
        for start in range(0, len(prefixes), _PREDICT_ROWS):
            stop = start + _PREDICT_ROWS
            logits, _ = _forward(params, H[start:stop], C)
            out[start:stop, 1:] = logits
        return out
