"""Dense numeric kernels: activations, the output layer with its softmax
cross-entropy, rankings of id-indexed logits, Adam and named random
streams.

All kernels are deterministic. Parameter iteration follows lexicographic
name order so that repeated runs are bitwise identical, which the
exact-unlearning guarantee depends on.
"""

from __future__ import annotations

import hashlib
import math
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "AdamState",
    "ParamStore",
    "adam_step",
    "derive_seed",
    "ranks_from_logits",
    "rng_stream",
    "sigmoid",
    "xavier_uniform",
]


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit sub-seed for (seed, label), independent of platform."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Named deterministic random stream: a numpy Generator fully
    determined by (seed, name) and its call sequence.

    Streams with different names never share state, so independent
    consumers (e.g. per-shard trainings running in parallel) reproduce
    the exact sequences they would see when run serially.
    """
    if seed < 0:
        raise ContractError(f"stream seed must be non-negative, got {seed}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *words])))


class ParamStore:
    """Named parameters with matching gradient slots, packed flat.

    ``ParamStore(arrays)`` is the one way to build a store: it copies a
    name -> array mapping, all of one dtype, into one contiguous buffer
    (``values``) in sorted-name order, and makes a zeroed gradient buffer
    of the same layout (``grad_values``). ``params[name]`` and
    ``grads[name]`` are views into them, and both mappings are read-only:
    an entry is written in place through its view
    (``params[name][...] = x``), never replaced, removed or added
    (``grads[name] += g`` adds in place, then raises TypeError). So the
    whole-store operations (``zero_grads``, ``copy``, ``tobytes`` and
    ``adam_step``) work on the two buffers at once, and their cost does
    not grow with the number of parameters. A store pickles as its
    parameters and is packed again when loaded; its gradients load as
    zeros.
    """

    def __init__(self, arrays):
        names = sorted(arrays)
        values = [np.asarray(arrays[n]) for n in names]
        odd = [(n, v.dtype) for n, v in zip(names, values) if v.dtype != values[0].dtype]
        if odd:
            raise ContractError(f"parameter {odd[0][0]!r} has dtype {odd[0][1]} but "
                                f"{names[0]!r} has {values[0].dtype}; a store holds one dtype")
        self.values = np.concatenate([v.ravel() for v in values])
        self.grad_values = np.zeros_like(self.values)
        params, grads = {}, {}
        offset = 0
        for n, v in zip(names, values):
            end = offset + v.size
            params[n] = self.values[offset:end].reshape(v.shape)
            grads[n] = self.grad_values[offset:end].reshape(v.shape)
            offset = end
        self.params = MappingProxyType(params)
        self.grads = MappingProxyType(grads)

    def __reduce__(self):
        return ParamStore, (dict(self.params),)

    def zero_grads(self) -> None:
        self.grad_values[...] = 0

    def copy(self) -> "ParamStore":
        out = ParamStore(self.params)
        out.grad_values[...] = self.grad_values
        return out

    def tobytes(self) -> bytes:
        """Canonical byte image of the parameter values (sorted by name):
        the value buffer itself."""
        return self.values.tobytes()


class _Buffers:
    """Named flat arrays that grow to the largest request and are then
    reused: ``take`` returns a C-contiguous view of the leading part of
    one, so a narrower or shorter batch needs no new memory. Each trainer
    keeps one for all the batches of a call."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape, dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


def xavier_uniform(stream: np.random.Generator, fan_in: int, fan_out: int, shape,
                   dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return stream.uniform(-limit, limit, shape).astype(dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)), in the input's dtype.

    tanh saturates instead of overflowing, so there is no branch on the
    sign of x and no masked gather; the result stays in [0, 1].
    """
    # the outer asarray turns the scalar that a 0-d product gives back
    # into an array that tanh can write into
    return _sigmoid_of_half(np.asarray(np.asarray(x) * 0.5))


def _sigmoid_of_half(a: np.ndarray) -> np.ndarray:
    """sigmoid(2a) in place over the float array a, which holds x / 2;
    returns a. Shared by ``sigmoid`` and the GRU step kernel, which
    halves its packed gate block in place and needs no new array."""
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    return a


def ranks_from_logits(block: np.ndarray, targets) -> np.ndarray:
    """Optimistic rank of each row's target among items 1..|V|.

    block is (n, |V| + 1) id-indexed logits; column 0 is the pad slot and
    never counts. ranks[i] is one plus the number of items scoring
    strictly higher than targets[i] in row i, so tied items share the
    best rank. A one-row block ranks a single prediction.
    """
    block = np.asarray(block)
    targets = np.asarray(targets, dtype=np.int64)
    if block.ndim != 2 or targets.shape != (block.shape[0],):
        raise DimensionError(
            f"need (n, m) logits and (n,) targets, got {block.shape} and {targets.shape}"
        )
    if targets.size and not (targets.min() >= 1 and targets.max() < block.shape[1]):
        raise IndexError(f"targets outside item range 1..{block.shape[1] - 1}")
    own = block[np.arange(targets.shape[0]), targets]
    return 1 + np.count_nonzero(block[:, 1:] > own[:, None], axis=1)


def ndcg_gains(ranks, k: int) -> np.ndarray:
    """NDCG@k of single-target rankings: 1 / log2(1 + rank) for a rank
    within k, else 0."""
    return np.where(ranks <= k, 1.0 / np.log2(1.0 + ranks), 0.0)


def _logits(hidden: np.ndarray, W: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """Output-layer logits hidden W^T + b for rows hidden (n, h), weights
    W (V, h) and an optional bias b (V,), written into the leading n rows
    of out (a reused (>= n, V) buffer; None allocates one)."""
    n = hidden.shape[0]
    z = np.empty((n, W.shape[0]), dtype=np.result_type(hidden, W)) if out is None else out[:n]
    np.matmul(hidden, W.T, out=z)
    if b is not None:
        z += b
    return z


def _exp_sum_floor(dtype) -> float:
    """Smallest row sum of exp(logits - block max) that ``_softmax_loss``
    accepts: the square root of the dtype's smallest normal number,
    about 1e-19 in float32 and 1e-154 in float64."""
    return math.sqrt(np.finfo(dtype).tiny)


class _LossConsts(NamedTuple):
    """What ``_softmax_loss`` builds from its block's shape and dtype
    alone. A trainer whose blocks all have one shape builds them once
    with ``_loss_consts`` and passes them to every call."""

    rows: np.ndarray        # (n,) row index
    ones_rows: np.ndarray   # (n,) ones, for the sums over rows
    ones_cols: np.ndarray   # (width,) ones, for the sums over columns
    floor: float            # ``_exp_sum_floor`` of the dtype


def _loss_consts(n: int, width: int, dtype) -> _LossConsts:
    return _LossConsts(np.arange(n), np.ones(n, dtype=dtype), np.ones(width, dtype=dtype),
                       _exp_sum_floor(dtype))


def _row_max_exp(hidden, W, b, z, rows, targets):
    """The row-max form of ``_softmax_loss``'s exponentials: recomputes
    the logits into z, subtracts each row's max, takes exp in place and
    returns (own, total), the shifted target logits and the row sums."""
    _logits(hidden, W, b, z)
    z -= z.max(axis=1, keepdims=True)
    own = z[rows, targets]
    np.exp(z, out=z)
    return own, z @ np.ones(z.shape[1], dtype=z.dtype)


def _softmax_loss(hidden: np.ndarray, W: np.ndarray, b, targets: np.ndarray, scale,
                  out: np.ndarray | None = None, dW: np.ndarray | None = None,
                  db: np.ndarray | None = None, consts: _LossConsts | None = None):
    """Output layer and softmax cross-entropy of rows hidden (n, h).

    The logits are ``_logits(hidden, W, b, out)``; targets are their
    column indices. The loss is the sum over rows, taken in log-sum-exp
    form, log(sum(exp(s))) - s[target] with s the shifted logits, so no
    probability is ever passed to log: a float32 loss stays finite where
    the target's probability underflows to 0. The gradients are those of
    the loss sum divided by ``scale``. Returns (loss_sum, dW, db,
    dhidden); db is None without a bias. dW and db are written into the
    arrays given for them (dW of W's shape, and like W it may be a
    transposed view), or into new ones when None. ``consts`` are the
    block's ``_loss_consts``, built here when None.

    Everything runs in the one logits block, which ends up holding
    (softmax - onehot) / scale. The shift is the block's single max, a
    scalar: one flat reduction and one scalar subtract, where a per-row
    max costs a reduction per row and a broadcast subtract. Softmax does
    not depend on the shift, but a row whose own max lies far below the
    block's could underflow: when any row's sum of exp falls below
    ``_exp_sum_floor`` (that row's max then lies at least about 44
    below the block's in float32, 354 in float64), the block is
    recomputed with each row's own max subtracted (``_row_max_exp``),
    so no row's sum can underflow. Above the floor a row's largest term
    is at least floor / width, so a term can only drop below the
    smallest normal number where it is below width * floor times that
    largest term (about 2e-17 at 200 columns in float32), far below
    rounding. The row sum is a product with a ones vector, which BLAS
    runs several times faster than numpy's axis-1 reduction. The loss
    scale is folded into the one normalising divide, by total * scale,
    and 1 / scale is then subtracted at the targets.
    """
    z = _logits(hidden, W, b, out)
    n, width = z.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise DimensionError(f"need ({n},) targets for {n} rows, got {targets.shape}")
    consts = _loss_consts(n, width, z.dtype) if consts is None else consts
    rows = consts.rows
    z -= z.max()
    own = z[rows, targets]
    np.exp(z, out=z)
    total = z @ consts.ones_cols
    if total.min() < consts.floor:
        own, total = _row_max_exp(hidden, W, b, z, rows, targets)
    loss_sum = float((np.log(total) - own).sum())
    total *= scale
    z /= total[:, None]
    z[rows, targets] -= 1.0 / scale
    dW = np.matmul(z.T, hidden, out=dW)
    if b is not None:
        db = np.matmul(consts.ones_rows, z, out=db)
    return loss_sum, dW, db, z @ W


class AdamState:
    """First and second moment estimates, one flat buffer each, laid out
    like the store's ``values``; plus the shared step counter."""

    def __init__(self, m: np.ndarray, v: np.ndarray, t: int = 0):
        self.m = m
        self.v = v
        self.t = t

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        return cls(np.zeros_like(store.values), np.zeros_like(store.values), 0)


def adam_step(store: ParamStore, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, applied in place.

    Runs once over the store's flat value and gradient buffers. Adam is
    elementwise, so this is bit for bit the per-parameter update
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr m_hat / (sqrt(v_hat) + eps), with the same operation order.
    """
    if state.m.shape != store.values.shape:
        raise ContractError(f"Adam state holds {state.m.size} values, "
                            f"the store {store.values.size}")
    state.t += 1
    t = state.t
    g = store.grad_values
    m, v = state.m, state.v
    m *= beta1
    step = np.multiply(g, 1.0 - beta1)
    m += step
    v *= beta2
    np.square(g, out=step)
    step *= 1.0 - beta2
    v += step
    denom = np.divide(v, 1.0 - beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, 1.0 - beta1 ** t, out=step)
    step *= lr
    step /= denom
    store.values -= step
