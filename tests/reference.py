"""Reference versions that only the tests use, kept as oracles for the
library's batched paths.

Each one works on a single example, and the tests hold the library's
batched path to it:

- ``softmax``, ``cross_entropy_with_grad`` and ``cross_entropy_rows``
  for the output-layer-and-loss kernel ``numerics._softmax_loss``;
- ``gru_cell_forward`` and ``gru_cell_backward``, one GRU step over the
  library's step kernels, whose gradients C2 holds to finite differences;
- ``gru_cell`` and ``encode``, the one-prefix GRU pass, for
  ``backbone.encode_batch`` and ``backbone.encode_stacked``;
- ``project``, ``attention_scores``, ``fuse`` and ``predict_output``,
  the one-prefix fusion chain, for ``aggregation.SruModel.predict_batch``;
- ``unfolded_forward`` and ``unfolded_backward``, the fusion passes
  before the attention fold, and ``copying_forward`` and
  ``copying_train_step``, the folded passes before the feature table
  carried its ones column, for ``aggregation._FusionPass``;
- ``padded_items``, the right-padded id matrix of item sequences, for
  the id matrices the tests feed ``backbone.sequence_loss_and_grads``
  and the recurrence oracles;
- ``dataset_to_raw``, the inverse of ``corpus.preprocess``'s input, for
  its idempotence;
- ``assign``, the capacity-bounded scan over numpy scalars, for
  ``partition._assign``.

Every one of them was library code once. All but ``padded_items`` and
``dataset_to_raw`` moved here unchanged, as did
``finite_difference_check``, the central-difference oracle for every
hand-written backward pass, and ``DeterminismError``, which it raises;
``padded_items`` is a loop in place of the library's vectorized one,
which ``backbone.prefix_points`` made redundant, and ``dataset_to_raw``
writes each item's position as its timestamp, since a dataset keeps
item order only.
``assignment_from_members`` builds test partitions from member lists.
``as_float64`` casts a GRU model to float64, the dtype of the float64
oracles: the library trains and loads float32 models only, and its
kernels compute in the dtype of their arrays.
``evaluate_by_prefixes`` and ``hit_effectiveness_by_prefixes`` rank
each prefix as a list of items through ``predict_batch``, as
``evaluation`` did before it ranked every predictor from a padded
triple; ``FixedPredictor`` is a predictor that reads no prefix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from sru.backbone import (
    GATE_NAMES,
    GruModel,
    _add_weight_grads,
    _gate_weights,
    _input_side,
    _step_backward,
    _step_forward,
    pad_prefixes,
)
from sru.corpus import SessionDataset
from sru.errors import ContractError, DimensionError, SruError
from sru.numerics import ParamStore, _Buffers, _logits, _softmax_loss, ndcg_gains, ranks_from_logits
from sru.partition import ShardAssignment
from sru.reports import EffectivenessReport, RankingReport


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of a 1-D vector with max-subtraction for stability."""
    z = np.asarray(z)
    if z.ndim != 1 or z.size == 0:
        raise DimensionError(f"softmax expects a non-empty 1-D vector, got shape {z.shape}")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def cross_entropy_with_grad(logits: np.ndarray, target: int):
    """Cross-entropy of a single softmax distribution against one target.

    Returns (loss, dlogits) with loss = -log softmax(logits)[target] and
    dlogits = softmax(logits) - onehot(target).
    """
    logits = np.asarray(logits)
    if logits.ndim != 1:
        raise DimensionError(f"logits must be 1-D, got shape {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise IndexError(f"target {target} out of range for {logits.shape[0]} logits")
    p = softmax(logits)
    loss = -np.log(p[target])
    dlogits = p.copy()
    dlogits[target] -= 1.0
    return float(loss), dlogits


def cross_entropy_rows(logits: np.ndarray, targets: np.ndarray):
    """Row-wise softmax cross-entropy; targets are column indices.

    Returns (losses, dlogits) where dlogits rows are softmax - onehot,
    both in the dtype of the logits. The loss is taken in log-sum-exp
    form, log(sum(exp(s))) - s[target] with s = logits - row max, so no
    probability is ever passed to log: a float32 loss stays finite (and
    accurate) where the target's softmax probability underflows to 0.
    The row sum is a product with a ones vector, which BLAS runs several
    times faster than numpy's axis-1 reduction.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise DimensionError(
            f"need (n, m) logits and (n,) targets, got {logits.shape} and {targets.shape}"
        )
    rows = np.arange(logits.shape[0])
    dlogits = logits - logits.max(axis=1, keepdims=True)
    own = dlogits[rows, targets]
    np.exp(dlogits, out=dlogits)
    total = dlogits @ np.ones(dlogits.shape[1], dtype=dlogits.dtype)
    losses = np.log(total) - own
    dlogits /= total[:, None]
    dlogits[rows, targets] -= 1.0
    return losses, dlogits


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


def as_float64(model: GruModel) -> GruModel:
    """The model with every parameter cast to float64, under its config."""
    store = ParamStore({name: v.astype(np.float64) for name, v in model.store.params.items()})
    return GruModel(store=store, config=model.config)


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


# The oracle for the library's fusion pass, ``aggregation._FusionPass``:
# the step as it was before the feature table carried its ones column,
# which copies each (B, K, d) batch into a shard-major (K, B, d + 1)
# block and takes every array from named buffers per call, copied
# verbatim (renamed). "The module docstring" below is that of
# ``sru.aggregation``.


class FusionCache(NamedTuple):
    """What ``copying_backward`` needs from one ``copying_hidden_pass``; the slots keep
    the order of the pass. Every per-row array is shard-major, (K, B, .).
    H, Wp and N carry the biases as an extra row or column (see
    ``copying_hidden_pass``). Both ReLUs run in place, so T and hidden hold
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


def copying_hidden_pass(params, H, C, buffers: _Buffers) -> FusionCache:
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


def copying_forward(params, H, C, buffers: _Buffers | None = None):
    """Batched fusion forward pass: (logits, cache) for (B, K, d) states
    H and (K, d) centroids C. logits is (B, |V|) and cache the
    ``FusionCache`` of ``copying_hidden_pass``; both live in buffers (fresh ones
    when None). The logits are the training step's, bit for bit: both
    come from ``numerics._logits``."""
    buffers = _Buffers() if buffers is None else buffers
    cache = copying_hidden_pass(params, H, C, buffers)
    B, V = H.shape[0], params["b2"].shape[0]
    logits = _logits(cache.hidden, params["W2"].T, params["b2"],
                     buffers.take("logits", (B, V), cache.hidden.dtype))
    return logits, cache


def copying_backward(params, grads, cache: FusionCache, dhidden, buffers: _Buffers) -> None:
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


def copying_train_step(params, grads, H, C, targets, buffers: _Buffers) -> float:
    """One fusion training step on (B, K, d) states H: writes the
    gradient of the mean cross-entropy against targets (column indices)
    into grads, over whatever they held, and returns the loss sum. The
    output layer and its loss are ``numerics._softmax_loss`` over W2
    and b2."""
    cache = copying_hidden_pass(params, H, C, buffers)
    B, V = H.shape[0], params["b2"].shape[0]
    loss_sum, _, _, dhidden = _softmax_loss(
        cache.hidden, params["W2"].T, params["b2"], targets, B,
        buffers.take("logits", (B, V), cache.hidden.dtype),
        dW=grads["W2"].T, db=grads["b2"])
    copying_backward(params, grads, cache, dhidden, buffers)
    return loss_sum


def padded_items(rows, limit: int) -> np.ndarray:
    """(n, L) id matrix, L >= 1, whose row i holds the last ``limit``
    items of rows[i], then pads."""
    rows = [list(row)[-limit:] for row in rows]
    ids = np.zeros((len(rows), max([1, *map(len, rows)])), dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids


def dataset_to_raw(dataset: SessionDataset) -> dict[str, list[tuple[str, int]]]:
    """Rebuild the raw event-group form of a dataset (token space); a
    dataset keeps item order only, so each item's position stands in for
    its timestamp."""
    return {
        s.session_id: [(dataset.vocab.token_of(item), ts) for ts, item in enumerate(s.items)]
        for s in dataset.sessions
    }


def assign(dist: np.ndarray, delta: int) -> np.ndarray:
    """Scan all (session, shard) pairs in ascending distance order.

    Ties break on (session index, shard id). Every session lands on its
    nearest shard that still has capacity at the moment it is reached.
    """
    n, k = dist.shape
    sessions = np.repeat(np.arange(n), k)
    shards = np.tile(np.arange(k), n)
    order = np.lexsort((shards, sessions, dist.reshape(-1)))
    assignment = np.full(n, -1, dtype=np.int64)
    load = np.zeros(k, dtype=np.int64)
    remaining = n
    for pair in order:
        s = sessions[pair]
        c = shards[pair]
        if assignment[s] >= 0 or load[c] >= delta:
            continue
        assignment[s] = c
        load[c] += 1
        remaining -= 1
        if remaining == 0:
            break
    return assignment


def assignment_from_members(members, centroids, iterations_run, delta,
                            reseeds=()) -> ShardAssignment:
    """The partition whose shard k holds the session indices ``members[k]``,
    which must cover 0..n-1 once."""
    members = [list(m) for m in members]
    shard_of = np.full(sum(map(len, members)), -1, dtype=np.int64)
    for k, member in enumerate(members):
        shard_of[member] = k
    return ShardAssignment(shard_of, centroids, iterations_run, delta, reseeds)


class FixedPredictor:
    """A predictor that gives every prefix the same id-indexed logits
    row; it reads no prefix, so any ``max_len`` covers them."""

    def __init__(self, logits, max_len: int = 64):
        self.logits = np.asarray(logits)
        self.num_items = self.logits.size - 1
        self.max_len = max_len

    def predict_padded(self, ids, rows, lengths) -> np.ndarray:
        return np.tile(self.logits, (len(rows), 1))


def prefix_ranks(predict_batch, points, chunk: int = 4096) -> np.ndarray:
    """Rank of the target of each (prefix, target) point in the row that
    ``predict_batch`` gives the list of its chunk's prefixes, ``chunk``
    points a call."""
    prefixes = [prefix for prefix, _ in points]
    targets = np.array([target for _, target in points], dtype=np.int64)
    ranks = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), chunk):
        logits = predict_batch(prefixes[start : start + chunk])
        ranks[start : start + chunk] = ranks_from_logits(logits, targets[start : start + chunk])
    return ranks


def evaluate_by_prefixes(predictor, dataset: SessionDataset, ks, chunk: int = 4096):
    """``evaluation.evaluate`` through ``predict_batch`` over each point's
    whole prefix, the chunk-by-chunk path it took before every predictor
    was scored from a padded triple."""
    points = [(s.items[:t], s.items[t]) for s in dataset.sessions for t in range(1, len(s))]
    ranks = prefix_ranks(predictor.predict_batch, points, chunk)
    return RankingReport(recall={k: float(np.mean(ranks <= k)) for k in ks},
                         ndcg={k: float(ndcg_gains(ranks, k).mean()) for k in ks},
                         evaluation_points=ranks.size)


def hit_effectiveness_by_prefixes(predictor, deletion_results, ks, context: str = "prefix",
                                  chunk: int = 4096):
    """``evaluation.hit_effectiveness`` through ``predict_batch``, as
    ``evaluate_by_prefixes`` is ``evaluate``."""
    contexts = [r.context_prefix if context == "prefix" else r.context_full
                for r in deletion_results]
    audited = [(c, r.target_item) for c, r in zip(contexts, deletion_results) if c]
    ranks = prefix_ranks(predictor.predict_batch, audited, chunk)
    return EffectivenessReport(hit={k: float(np.mean(ranks <= k)) for k in ks},
                               audited_requests=len(audited),
                               skipped_empty_prefix=len(contexts) - len(audited))


class DeterminismError(SruError):
    """A function that must be deterministic returned differing values."""


def finite_difference_check(loss_fn, store, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients in ``store.grads`` against central
    finite differences of ``loss_fn``. ``store`` is a ``ParamStore``, or
    any object with ``params`` and ``grads`` mappings of the same names,
    such as one over a subset of a store's views; each parameter is
    perturbed in place.

    ``loss_fn`` is called as loss_fn(store) -> float and must be
    deterministic; it is evaluated twice up front and a mismatch raises
    DeterminismError. Returns the maximum over all coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    Run this with float64 parameters; float32 has too little headroom
    for epsilon around 1e-5.
    """
    first = float(loss_fn(store))
    second = float(loss_fn(store))
    if first != second:
        raise DeterminismError(
            f"loss_fn returned {first!r} then {second!r} for identical parameters"
        )
    worst = 0.0
    for name in sorted(store.params):
        p = store.params[name]
        analytic = store.grads[name]
        flat = p.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = float(loss_fn(store))
            flat[i] = orig - epsilon
            down = float(loss_fn(store))
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(1e-8, abs(aflat[i]) + abs(numeric))
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
