"""Fusion of per-shard hidden states into one prediction.

Per shard: an affine projection into a common space (applied to both the
session state and the shard centroid), then an attention weight computed
from the elementwise product of the projected pair, a convex fusion of
the projected states, and a two-layer ReLU output network over the item
set. Sub-models are frozen throughout; only these fusion parameters
train.

Both passes compute the attention in folded form. For shard k with
state rows H_k (B, d), centroid c_k, projection (Wp_k, bp_k) and
Cp_k = c_k Wp_k + bp_k, the pre-activation is

    T_pre_k = ((H_k Wp_k + bp_k) * Cp_k) W_attn + b_attn = H_k M_k + m_k,
    M_k = N_k W_attn,  N_k = Wp_k diag(Cp_k),
    m_k = n_k W_attn + b_attn,  n_k = bp_k * Cp_k.

M_k and m_k depend on the parameters alone, so they are built once per
batch at K d d f multiply-adds, and the product U = Hp * Cp is never
formed, in either pass. H is a frozen input, so the backward pass needs
H_k^T dT_pre_k for M_k and never the gradient of U (see
``_FusionPass.step``). The projected states Hp_k = H_k Wp_k + bp_k are
still formed for the fused state.

The feature table stores each training point's K states as a
(K, d + 1) block whose last column is 1. A step gathers its batch with
one ``np.take`` into a reused (B, K, d + 1) buffer and runs shard-major
on that buffer's (K, B, d + 1) view, with no copy: every per-shard
product is one batched matmul that also adds its bias, and the scores
and attention weights are (K, B). Prediction copies each block of rows
into one reused buffer of that shape. Both run one ``_FusionPass``,
built once per training call (or prediction) and row count, so that a
step issues only numpy kernels. The output layer and its loss are
``numerics._softmax_loss``, the kernel the GRU trainer uses too, and
prediction computes its logits with the same ``numerics._logits``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .backbone import (
    GruModel,
    encode_batch,
    encode_stacked,
    pad_prefixes,
    prefix_points,
)
from .corpus import SessionDataset
from .errors import ContractError
from .numerics import (
    AdamState,
    ParamStore,
    _Buffers,
    _logits,
    _loss_consts,
    _softmax_loss,
    adam_step,
    rng_stream,
    xavier_uniform,
)

@dataclass(frozen=True)
class AggregationConfig:
    f: int = 64                 # attention width
    d_ff: int | None = None     # output hidden width; None means d
    lr: float = 2e-2
    epochs: int = 3
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.f < 1 or self.batch_size < 1:
            raise ContractError("f and batch_size must be >= 1")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.d_ff is not None and self.d_ff < 1:
            raise ContractError(f"d_ff must be >= 1 or None, got {self.d_ff}")
        if not self.lr > 0:
            raise ContractError(f"lr must be > 0, got {self.lr}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ShardCentroids:
    """Mean hidden state of each shard's sessions: centroid k lives in
    sub-model k's own hidden space, and is refit from its shard whenever
    that sub-model retrains. ``source`` names that one source."""

    c: np.ndarray          # (k, d)
    source = "submodel"    # a class constant, not a field


@dataclass
class AggregationModel:
    """The fusion parameters, the config they were trained under and the
    shard centroids they were trained against, without which they are not
    valid; every size is read from a parameter's shape."""

    store: ParamStore
    config: AggregationConfig
    centroids: ShardCentroids
    loss_history: list = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.store.params["W_proj"].shape[0]

    @property
    def d(self) -> int:
        return self.store.params["W_proj"].shape[1]

    @property
    def f(self) -> int:
        return self.store.params["b_attn"].shape[0]

    @property
    def d_ff(self) -> int:
        return self.store.params["b1"].shape[0]

    @property
    def num_items(self) -> int:
        return self.store.params["b2"].shape[0]

    def params_bytes(self) -> bytes:
        return self.store.tobytes()


def compute_centroid(sub_model: GruModel, shard: SessionDataset) -> np.ndarray:
    """Mean encoding of a shard's full sessions under its own sub-model."""
    if len(shard) == 0:
        raise ContractError("cannot compute the centroid of an empty shard")
    states = encode_batch(sub_model, [s.items for s in shard.sessions])
    return states.mean(axis=0)


def compute_centroids(sub_models, shards, source: str = ShardCentroids.source,
                      reference_centroids=None, previous: ShardCentroids | None = None,
                      affected=()) -> ShardCentroids:
    """Each shard's centroid under its own sub-model.

    Given the ``previous`` centroids, a refresh re-encodes only the
    ``affected`` shards and copies every other row: a shard whose
    sessions and sub-model are unchanged keeps its centroid.
    ``source`` must be ``ShardCentroids.source``, and
    ``reference_centroids`` is not read; both stay for callers that
    still pass them.
    """
    if source != ShardCentroids.source:
        raise ContractError(f"unknown centroid source {source!r}; "
                            f"only {ShardCentroids.source!r} remains")
    if previous is not None:
        c = previous.c.copy()
        for k in affected:
            c[k] = compute_centroid(sub_models[k], shards[k])
    else:
        c = np.stack([compute_centroid(m, s) for m, s in zip(sub_models, shards)])
    return ShardCentroids(c=c)


# -- forward and backward passes -----------------------------------------------


class _FusionPass:
    """The fusion pass over one block of B rows, built once per training
    call (or prediction) and row count, so that a step issues only
    numpy kernels.

    H is the (B, K, d + 1) block the pass reads: feature-table rows,
    whose last column is 1. The caller writes each batch into it, and
    its shard-major (K, B, d + 1) view feeds every per-shard product
    without a copy, carrying the bias as one more weight row:
    Hp_k = [H_k 1] [Wp_k; bp_k] and T_pre_k = [H_k 1] [M_k; m_k], with
    [Wp_k; bp_k], [N_k; n_k] and [M_k; m_k] rebuilt from the parameters
    each step (see the module docstring); U is never formed. The scores
    and attention weights are (K, B), so the softmax over shards runs
    down the columns.

    Everything else is built here: the arrays of both passes, taken from
    buffers (which passes over fewer rows share), their reshaped and
    transposed views, the views of the parameters and gradients, the
    ones vectors, the (B, .) zero blocks both ReLUs compare against
    (numpy runs that faster than a comparison with the scalar 0), the
    centroids with a ones column, and the loss kernel's constants. The
    parameters and gradients are read and written in place through
    those views, so they must stay the arrays given here. Without grads
    the pass only runs forward.
    """

    def __init__(self, params, C, H, buffers: _Buffers, grads=None):
        B, K, d1 = H.shape
        d = d1 - 1
        f = params["b_attn"].shape[0]
        d_ff = params["b1"].shape[0]
        V = params["b2"].shape[0]
        dtype = np.result_type(H, params["W_proj"])
        take = buffers.take
        self.params, self.grads, self.B = params, grads, B
        self.H = H
        self.H1 = H.transpose(1, 0, 2)                       # (K, B, d + 1)
        self.C3 = C[:, None, :]
        self.Cp3 = take("Cp", (K, 1, d), dtype)
        self.Cp = self.Cp3[:, 0, :]
        self.Wp1 = take("Wp1", (K, d + 1, d), dtype)         # [W_proj_k; b_proj_k]
        self.Wp1_top, self.Wp1_bias = self.Wp1[:, :d], self.Wp1[:, d]
        self.N1_2d = take("N1", (K * (d + 1), d), dtype)     # [N_k; n_k]
        self.N1 = self.N1_2d.reshape(K, d + 1, d)
        self.M1_2d = take("M1", (K * (d + 1), f), dtype)     # [M_k; m_k]
        self.M1 = self.M1_2d.reshape(K, d + 1, f)
        self.M1_bias = self.M1[:, d]
        self.Hp = take("Hp", (K, B, d), dtype)
        self.Hp_T = self.Hp.transpose(1, 0, 2)
        self.T = take("T", (K, B, f), dtype)
        self.T_2d = self.T.reshape(K * B, f)
        self.zero_T = take("zero_T", (B, f), dtype)          # broadcast over the shards
        self.zero_T.fill(0)
        self.A_flat = take("A", (K * B,), dtype)
        self.A = self.A_flat.reshape(K, B)
        self.A_T3 = self.A.T[:, None, :]
        self.A_max = take("A_max", (B,), dtype)
        self.A_sum = take("A_sum", (B,), dtype)
        self.ones_K = np.ones(K, dtype=dtype)
        self.h_fused3 = take("h_fused", (B, 1, d), dtype)
        self.h_fused = self.h_fused3[:, 0, :]
        self.hidden = take("hidden", (B, d_ff), dtype)
        self.zero_hidden = take("zero_hidden", (B, d_ff), dtype)
        self.zero_hidden.fill(0)
        self.W2_T = params["W2"].T
        self.logits_rows = take("logits", (B, V), dtype)
        if grads is None:
            return
        self.consts = _loss_consts(B, V, dtype)
        self.ones_B = self.consts.ones_rows
        self.gW2_T = grads["W2"].T
        self.W1_T = params["W1"].T
        self.W_attn_T = params["W_attn"].T
        self.H1_T = self.H1.transpose(0, 2, 1)               # (K, d + 1, B)
        self.N1_T = self.N1_2d.T
        self.C1_3 = np.ones((K, d + 1, 1), dtype=dtype)      # [c_k 1], as a column
        self.C1_3[:, :d, 0] = C
        self.h_fused_T = self.h_fused.T
        self.dh_fused = take("dh_fused", (B, d), dtype)
        self.dh_fused3 = self.dh_fused[:, :, None]
        self.dA3 = take("dA", (B, K, 1), dtype)
        self.dA_T = self.dA3[:, :, 0].T
        self.dS = take("dS", (K, B), dtype)
        self.dS3 = self.dS[:, :, None]
        self.dS_flat = self.dS.reshape(K * B)
        self.dS_sum = take("dS_sum", (B,), dtype)
        self.A_dS_sum = take("A_dS_sum", (K, B), dtype)
        self.A3 = self.A[:, :, None]
        self.dM1_2d = take("dM1", (K * (d + 1), f), dtype)
        self.dM1 = self.dM1_2d.reshape(K, d + 1, f)
        self.dM1_bias = self.dM1[:, d]
        self.dN1_2d = take("dN1", (K * (d + 1), d), dtype)
        self.dN1 = self.dN1_2d.reshape(K, d + 1, d)
        self.dCp = take("dCp", (K, d), dtype)
        self.dCp3 = self.dCp[:, None, :]
        self.weighted = take("KBd", (K, B, d), dtype)
        self.dWp1 = take("dWp1", (K, d + 1, d), dtype)
        self.dWp1_top, self.dWp1_bias = self.dWp1[:, :d], self.dWp1[:, d]

    def forward(self) -> np.ndarray:
        """The pass up to the output layer's hidden rows, (B, d_ff), on
        the rows in H. Both ReLUs run in place, so T and hidden hold the
        activations and their pre-activations are not kept."""
        p = self.params
        Wp, bp = p["W_proj"], p["b_proj"]
        np.matmul(self.C3, Wp, out=self.Cp3)
        self.Cp += bp
        np.copyto(self.Wp1_top, Wp)
        np.copyto(self.Wp1_bias, bp)
        np.multiply(self.Wp1, self.Cp3, out=self.N1)
        np.matmul(self.N1_2d, p["W_attn"], out=self.M1_2d)
        self.M1_bias += p["b_attn"]
        np.matmul(self.H1, self.Wp1, out=self.Hp)
        T = np.matmul(self.H1, self.M1, out=self.T)
        np.maximum(T, self.zero_T, out=T)
        A = self.A
        np.matmul(self.T_2d, p["g_attn"], out=self.A_flat)
        A -= np.max(A, axis=0, out=self.A_max)
        np.exp(A, out=A)
        A /= np.matmul(self.ones_K, A, out=self.A_sum)
        np.matmul(self.A_T3, self.Hp_T, out=self.h_fused3)
        hidden = np.matmul(self.h_fused, p["W1"], out=self.hidden)
        hidden += p["b1"]
        np.maximum(hidden, self.zero_hidden, out=hidden)
        return hidden

    def logits(self) -> np.ndarray:
        """(B, |V|) logits of the rows in H, from ``numerics._logits``:
        the training step's, bit for bit."""
        return _logits(self.forward(), self.W2_T, self.params["b2"], self.logits_rows)

    def step(self, targets) -> float:
        """One training step on the rows in H: writes the gradient of the
        mean cross-entropy against targets (B column indices) into
        grads, over whatever they held, and returns the loss sum. The
        output layer and its loss are ``numerics._softmax_loss`` over W2
        and b2.

        Below the output layer, sums over rows are products with a ones
        vector, which BLAS runs much faster than numpy's axis reductions.
        With dS the (K, B) score gradient, the pre-activation gradient of
        shard k is dT_pre_k = (dS_k g) * [T_k > 0]. g factors out of the
        folded gradients, so only dT_k = [T_k > 0] * dS_k is formed, in
        the buffer of the ReLU T once g's own gradient has read it. The
        ones column of H gives the bias rows of each product with it for
        free:

            [dM_k; dm_k] = ([H_k 1]^T dT_k) * g       (d + 1, f)

        The chain rule through M_k = N_k W_attn, m_k = n_k W_attn + b_attn,
        N_k = Wp_k diag(Cp_k), n_k = bp_k * Cp_k and Cp_k = c_k Wp_k + bp_k
        then runs on (K, d + 1, d)-sized arrays, once per batch:

            [dN_k; dn_k] = [dM_k; dm_k] W_attn^T
            dW_attn = sum_k N_k^T dM_k + n^T dm,   db_attn = sum_k dm_k
            dCp_k = colsum(dN_k * Wp_k) + dn_k * bp_k
            dWp_k = dN_k diag(Cp_k) + c_k^T dCp_k + H_k^T (A_k dh_fused)
            dbp_k = dn_k * Cp_k + dCp_k + A_k^T dh_fused

        The last terms of dWp and dbp come from the fused state's Hp;
        they are one product, [H_k 1]^T (A_k dh_fused), whose result is
        laid out like [dWp_k; dbp_k] so that it adds over contiguous
        memory, and so is [c_k 1]^T dCp_k. The ReLU masks are written
        over hidden and T.
        """
        p, g = self.params, self.grads
        hidden = self.forward()
        loss_sum, _, _, dpre1 = _softmax_loss(
            hidden, self.W2_T, p["b2"], targets, self.B, self.logits_rows,
            dW=self.gW2_T, db=g["b2"], consts=self.consts)
        dpre1 *= np.greater(hidden, self.zero_hidden, out=hidden)
        np.matmul(self.h_fused_T, dpre1, out=g["W1"])
        np.matmul(self.ones_B, dpre1, out=g["b1"])
        np.matmul(dpre1, self.W1_T, out=self.dh_fused)

        # dA[k, b] = Hp[k, b] . dh_fused[b], one small product per row
        np.matmul(self.Hp_T, self.dh_fused3, out=self.dA3)
        A, dS = self.A, self.dS
        np.multiply(A, self.dA_T, out=dS)
        dS -= np.multiply(A, np.matmul(self.ones_K, dS, out=self.dS_sum), out=self.A_dS_sum)
        np.matmul(self.dS_flat, self.T_2d, out=g["g_attn"])
        dT = np.greater(self.T, self.zero_T, out=self.T)
        dT *= self.dS3
        dM1 = np.matmul(self.H1_T, dT, out=self.dM1)
        dM1 *= p["g_attn"]
        np.matmul(self.ones_K, self.dM1_bias, out=g["b_attn"])
        np.matmul(self.N1_T, self.dM1_2d, out=g["W_attn"])
        np.matmul(self.dM1_2d, self.W_attn_T, out=self.dN1_2d)
        np.einsum("kij,kij->kj", self.dN1, self.Wp1, out=self.dCp)
        np.multiply(self.A3, self.dh_fused, out=self.weighted)
        dWp1 = np.matmul(self.H1_T, self.weighted, out=self.dWp1)
        self.dN1 *= self.Cp3
        dWp1 += self.dN1
        dWp1 += np.multiply(self.C1_3, self.dCp3, out=self.dN1)
        np.copyto(g["W_proj"], self.dWp1_top)
        np.copyto(g["b_proj"], self.dWp1_bias)
        return loss_sum


def init_aggregation_model(k: int, d: int, num_items: int,
                           config: AggregationConfig) -> AggregationModel:
    """Fresh fusion parameters from the config's named stream, with zero
    centroids.

    Projections start at identity plus small noise so that the initial
    fused state stays in the sub-models' own scale.
    """
    d_ff = config.d_ff if config.d_ff else d
    dtype = np.float32
    stream = rng_stream(config.seed, "aggregation/init")
    eye = np.broadcast_to(np.eye(d, dtype=dtype), (k, d, d))
    store = ParamStore({
        "W_proj": eye + stream.uniform(-0.01, 0.01, (k, d, d)).astype(dtype),
        "b_proj": np.zeros((k, d), dtype=dtype),
        "W_attn": xavier_uniform(stream, d, config.f, (d, config.f), dtype),
        "b_attn": np.zeros(config.f, dtype=dtype),
        "g_attn": xavier_uniform(stream, config.f, 1, (config.f,), dtype),
        "W1": xavier_uniform(stream, d, d_ff, (d, d_ff), dtype),
        "b1": np.zeros(d_ff, dtype=dtype),
        "W2": xavier_uniform(stream, d_ff, num_items, (d_ff, num_items), dtype),
        "b2": np.zeros(num_items, dtype=dtype),
    })
    centroids = ShardCentroids(np.zeros((k, d), dtype=dtype))
    return AggregationModel(store=store, config=config, centroids=centroids)


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

    Each row holds one training point's K states with a ones column
    after them, the layout the fusion pass reads (see the module
    docstring): ``features[:, :, :d]`` are the states and
    ``features[:, :, d]`` is 1.
    """

    features: np.ndarray | None               # (P, K, d + 1); None once updated
    targets: np.ndarray                       # (P,)
    row_slices: dict[str, tuple[int, int]]

    def copy(self) -> FeatureCache:
        """A cache with its own buffer, for unlearning one state twice."""
        return FeatureCache(features=self.features.copy(), targets=self.targets,
                            row_slices=self.row_slices)


def _session_points(sessions, max_len: int):
    """The training points of sessions, from ``backbone.prefix_points``
    over each one's last max_len items: ((ids, rows, lengths), targets,
    starts, counts, row_slices). Row i of ids is session i, so point j
    is of session rows[j]; session i holds points starts[i] : starts[i]
    + counts[i], and row_slices maps its id to that (start, count)."""
    points, targets = prefix_points([s.items[-max_len:] for s in sessions], max_len)
    counts = np.bincount(points[1], minlength=len(sessions))
    starts = np.cumsum(counts) - counts
    slices = dict(zip(map(attrgetter("session_id"), sessions),
                      zip(starts.tolist(), counts.tolist())))
    return points, targets, starts, counts, slices


def build_feature_cache(sub_models, dataset: SessionDataset) -> FeatureCache:
    """Per-position hidden states of every sub-model over one dataset:
    features (P, K, d + 1), the states with a ones column after them, and
    targets (P,), where P runs over all (prefix, next-item) training
    points in session order. The ones column is written once; each
    sub-model runs its own ``encode_stacked`` pass, which writes straight
    into the states of its column of the one table, so no pass makes a
    second table or a copy. Sub-models are only read, never written."""
    points, targets, _, _, slices = _session_points(dataset.sessions, sub_models[0].max_len)
    dtype = np.result_type(*(m.embeddings.dtype for m in sub_models))
    d = sub_models[0].d
    features = np.empty((len(targets), len(sub_models), d + 1), dtype=dtype)
    features[:, :, d] = 1.0
    for c, model in enumerate(sub_models):
        encode_stacked([model], *points, out=features[:, c : c + 1, :d])
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
    contiguous. The runs are moved first, in ascending order, as whole
    rows that carry their ones column, then the states of the fresh rows
    and dirty columns are overwritten (``[..., :d]``; every row of the
    buffer already holds its ones): the fresh rows of all clean columns
    by one stacked pass over the clean sub-models on the fresh sessions'
    rows of the id matrix alone, each dirty column by a pass of its own
    over all rows that writes straight into it. Layout, id matrix and
    targets all come from one ``backbone.prefix_points`` table, as in
    ``build_feature_cache``. The result's table is a prefix of
    ``cache.features``, whose rows are overwritten, so ``cache`` gives
    up its buffer (its ``features`` becomes None) and updating it again
    raises ContractError. So does a layout that needs more rows than the
    buffer holds, or that moves a reused session to a later row.
    """
    k = len(sub_models)
    d = sub_models[0].d
    dirty = sorted(set(dirty_shards))
    changed = set(changed_session_ids)
    sessions = dataset.sessions
    (ids_all, point_rows, lengths), targets, starts, counts, slices = _session_points(
        sessions, sub_models[0].max_len)
    rows = len(targets)
    buffer = cache.features
    if buffer is None:
        raise ContractError(
            "this feature cache was already updated in place and its buffer belongs "
            "to the cache that update returned; rebuild it (feature_cache=None)"
        )
    if rows > buffer.shape[0] or buffer.shape[1:] != (k, d + 1):
        raise ContractError(
            f"a ({rows}, {k}, {d + 1}) table does not fit the cached "
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
    for old_first, new_first, m in runs:
        if not clean_cols or old_first == new_first:
            continue
        for i in range(0, m, _MOVE_ROWS):
            step = min(_MOVE_ROWS, m - i)
            dst, src = new_first + i, old_first + i
            features[dst : dst + step] = buffer[src : src + step]
    if clean_cols and fresh.any():
        # the fresh sessions' points, encoded over their own rows of ids
        fresh_points = np.flatnonzero(fresh[point_rows])
        fresh_row = np.cumsum(fresh) - 1
        features[fresh_points[:, None], clean_cols, :d] = encode_stacked(
            [sub_models[c] for c in clean_cols], ids_all[fresh],
            fresh_row[point_rows[fresh_points]], lengths[fresh_points])
    for c in dirty:
        encode_stacked([sub_models[c]], ids_all, point_rows, lengths,
                       out=features[:, c : c + 1, :d])
    return FeatureCache(features=features, targets=targets, row_slices=slices)


def _span(slice_pair):
    start, n = (int(v) for v in slice_pair)
    return start, start + n


def train_aggregation(sub_models, centroids: ShardCentroids,
                      train_data: SessionDataset,
                      config: AggregationConfig,
                      precomputed=None) -> AggregationModel:
    """Train the fusion parameters on every training point of the corpus,
    against ``centroids``, which the returned model keeps.

    Sub-model states are precomputed once (the sub-models are frozen, so
    they never change during these epochs) and the fusion stack is
    optimized with Adam under the config's seed. ``precomputed`` may
    carry a (features, targets) pair from a FeatureCache to skip the
    state computation; it is checked once per call, and a table that is
    not (P, K, d + 1) for these sub-models, whose last column is not 1,
    or whose P is not the number of targets is a ContractError.
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
    _check_table(features, targets, k, d)
    C = centroids.c.astype(features.dtype)
    model = init_aggregation_model(k, d, num_items, config)
    model.centroids = centroids
    store = model.store
    adam = AdamState.for_store(store)
    shuffle = rng_stream(config.seed, "aggregation/shuffle")

    P = features.shape[0]
    # Each batch is gathered into one reused buffer, so no shuffled copy
    # of the table is made. perm is a permutation, so mode="clip" only
    # skips take's buffered bounds check. A batch has one of at most two
    # row counts, the full one and the last one's, and each gets its
    # pass (the full one first, so that the other's arrays are a prefix
    # of its buffers) and its slice of the target buffer.
    batch = np.empty((min(config.batch_size, P), k, d + 1), dtype=features.dtype)
    batch_targets = np.empty(len(batch), dtype=targets.dtype)
    buffers = _Buffers()
    steps = {}
    for n in sorted({len(batch), P % config.batch_size} - {0}, reverse=True):
        steps[n] = (_FusionPass(store.params, C, batch[:n], buffers, store.grads),
                    batch_targets[:n])
    for _ in range(config.epochs):
        perm = shuffle.permutation(P)
        loss_sum = 0.0
        for start in range(0, P, config.batch_size):
            rows = perm[start : start + config.batch_size]
            fusion, step_targets = steps[len(rows)]
            np.take(features, rows, axis=0, out=fusion.H, mode="clip")
            np.take(targets, rows, out=step_targets, mode="clip")
            step_targets -= 1
            loss_sum += fusion.step(step_targets)
            adam_step(store, adam, config.lr)
        model.loss_history.append(loss_sum / P)
    return model


def _check_table(features, targets, k: int, d: int) -> None:
    """A precomputed (features, targets) pair must be a (P, k, d + 1)
    table whose last column is 1 and P targets."""
    if targets.ndim != 1 or features.shape != (len(targets), k, d + 1):
        raise ContractError(
            f"expected a (P, {k}, {d + 1}) feature table and (P,) targets for one P, "
            f"found {features.shape} and {targets.shape}"
        )
    ones = features[:, :, d] == 1.0
    if not ones.all():
        row, col = np.argwhere(~ones)[0]
        raise ContractError(
            f"the last column of the {features.shape} feature table must be 1.0, "
            f"found {features[row, col, d]} in row {row}, shard {col}"
        )


# Rows per fusion forward in prediction: the blocks share one set of
# buffers, small enough to stay in cache.
_PREDICT_ROWS = 256


@dataclass
class SruModel:
    """Frozen sub-models plus trained fusion; the full predictor."""

    sub_models: tuple
    aggregation: AggregationModel

    @property
    def num_items(self) -> int:
        return self.aggregation.num_items

    @property
    def max_len(self) -> int:
        return self.sub_models[0].max_len

    def predict_batch(self, prefixes) -> np.ndarray:
        """``predict_padded`` of the prefixes that ``pad_prefixes`` pads."""
        return self.predict_padded(*pad_prefixes(self, prefixes))

    def predict_padded(self, ids, rows, lengths) -> np.ndarray:
        """Id-indexed logits of the prefixes of a ``pad_prefixes`` triple;
        index 0 is the pad slot at -inf.

        The sub-models read the id matrix in one stacked pass. The fusion
        then runs on blocks of ``_PREDICT_ROWS`` prefixes, each copied
        into one reused block whose last column is 1, the feature table's
        layout.
        """
        H = encode_stacked(self.sub_models, ids, rows, lengths)
        n, k, d = H.shape
        params = self.aggregation.store.params
        C = self.aggregation.centroids.c.astype(H.dtype)
        out = np.empty((n, self.num_items + 1), dtype=np.result_type(H, params["W_proj"]))
        out[:, 0] = -np.inf
        block = np.empty((min(n, _PREDICT_ROWS), k, d + 1), dtype=H.dtype)
        block[:, :, d] = 1.0
        buffers = _Buffers()
        fusion = None
        for start in range(0, n, _PREDICT_ROWS):
            rows = H[start : start + _PREDICT_ROWS]
            if fusion is None or fusion.B != len(rows):
                fusion = _FusionPass(params, C, block[: len(rows)], buffers)
            fusion.H[:, :, :d] = rows
            out[start : start + len(rows), 1:] = fusion.logits()
        return out
