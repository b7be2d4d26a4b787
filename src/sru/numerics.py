"""Dense numeric kernels: activations, the output layer with its softmax
cross-entropy, rankings of id-indexed logits, Adam, named random streams,
and a finite-difference gradient oracle.

All kernels are deterministic. Parameter iteration follows lexicographic
name order so that repeated runs are bitwise identical, which the
exact-unlearning guarantee depends on.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "AdamState",
    "ParamStore",
    "RngStream",
    "adam_step",
    "derive_seed",
    "ranks_from_logits",
    "sigmoid",
    "xavier_uniform",
]


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit sub-seed for (seed, label), independent of platform."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RngStream:
    """Named deterministic random stream.

    A stream is fully determined by (seed, name, call sequence). Streams
    with different names never share state, so independent consumers
    (e.g. per-shard trainings running in parallel) reproduce the exact
    sequences they would see when run serially.
    """

    def __init__(self, seed: int, name: str):
        if seed < 0:
            raise ContractError(f"stream seed must be non-negative, got {seed}")
        self.seed = seed
        self.name = name
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, *words]))
        )

    def random(self, size=None):
        """Uniform floats in [0, 1)."""
        return self._rng.random(size)

    def uniform(self, low, high, size=None):
        return self._rng.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        """Integers in [low, high) (or [0, low) when high is None)."""
        return self._rng.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._rng.permutation(n)

    def choice(self, n, size, replace=False) -> np.ndarray:
        return self._rng.choice(n, size=size, replace=replace)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, name={self.name!r})"


class ParamStore:
    """Named parameters with matching gradient slots, packed flat.

    Names are unique; every gradient has the shape and dtype of its
    parameter, and all parameters share one dtype. Values live in one
    contiguous buffer (``values``) and gradients in another
    (``grad_values``), both in sorted-name order; ``params[name]`` and
    ``grads[name]`` are views into them. The whole-store operations
    (``zero_grads``, ``copy``, ``tobytes`` and ``adam_step``) work on the
    two buffers at once, so their cost does not grow with the number of
    parameters.

    ``ParamStore(arrays)`` packs a name -> array mapping at once; ``add``
    repacks both buffers, which detaches the arrays handed out before
    it: read through ``params`` once the last parameter is added.
    Entries are written in place (``params[name][...] = x``); a whole-store
    operation on a store whose ``params`` or ``grads`` entry was replaced
    or removed raises ContractError naming it. Stores assembled entry by
    entry (``params[name] = x`` without ``add``) still serve per-name
    reads, such as the test suite's finite-difference check.
    """

    def __init__(self, arrays: dict | None = None):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.values = np.zeros(0)
        self.grad_values = np.zeros(0)
        self._views: tuple = ()   # (name, value view, gradient view), sorted
        if arrays:
            self._pack({n: np.asarray(a) for n, a in arrays.items()}, {})

    def add(self, name: str, value) -> np.ndarray:
        if name in self.params:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._check_packed()
        self._pack({**self.params, name: np.asarray(value)}, self.grads)
        return self.params[name]

    def _pack(self, values: dict, grads: dict) -> None:
        """Copy values, and the gradients present in grads (zeros for the
        rest), into fresh buffers in sorted-name order."""
        names = sorted(values)
        dtype = values[names[0]].dtype
        odd = [n for n in names if values[n].dtype != dtype]
        if odd:
            raise ContractError(f"parameter {odd[0]!r} has dtype {values[odd[0]].dtype} "
                                f"but {names[0]!r} has {dtype}; a store holds one dtype")
        total = sum(values[n].size for n in names)
        self.values = np.empty(total, dtype=dtype)
        self.grad_values = np.zeros(total, dtype=dtype)
        views = []
        offset = 0
        for n in names:
            shape = values[n].shape
            end = offset + values[n].size
            p = self.values[offset:end].reshape(shape)
            g = self.grad_values[offset:end].reshape(shape)
            p[...] = values[n]
            if n in grads:
                g[...] = grads[n]
            self.params[n] = p
            self.grads[n] = g
            views.append((n, p, g))
            offset = end
        self._views = tuple(views)

    def _check_packed(self) -> None:
        """Every entry must still be the view into the flat buffers."""
        for name, p, g in self._views:
            if self.params.get(name) is not p:
                raise ContractError(f"parameter {name!r} was replaced or removed; "
                                    f"write parameters in place")
            if self.grads.get(name) is not g:
                raise ContractError(f"parameter {name!r} has no gradient in the store's "
                                    f"buffer; write gradients in place")
        if len(self.params) != len(self._views) or len(self.grads) != len(self._views):
            packed = {n for n, _, _ in self._views}
            extra = sorted((set(self.params) | set(self.grads)) - packed)
            raise ContractError(f"parameters {extra} are not packed into the store's buffers")

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grads(self) -> None:
        self._check_packed()
        self.grad_values[...] = 0

    def copy(self) -> "ParamStore":
        self._check_packed()
        out = ParamStore()
        if self._views:
            out._pack(self.params, self.grads)
        return out

    def tobytes(self) -> bytes:
        """Canonical byte image of the parameter values (sorted by name):
        the value buffer itself."""
        self._check_packed()
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


def xavier_uniform(stream: RngStream, fan_in: int, fan_out: int, shape, dtype) -> np.ndarray:
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
    A store whose entries are no longer views of its buffers raises
    ContractError naming the parameter.
    """
    store._check_packed()
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
