"""Reference versions that only the tests use, kept as oracles for the
library's batched kernels.

``cross_entropy_with_grad`` and ``cross_entropy_rows`` are the former
softmax cross-entropy of ``sru.numerics``, moved here unchanged once
both trainers ran their output layer and loss through
``numerics._softmax_loss``. ``unfolded_forward`` and
``unfolded_backward`` are the fusion passes before the attention fold.
"""

from __future__ import annotations

import numpy as np

from sru.errors import DimensionError
from sru.numerics import softmax


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
