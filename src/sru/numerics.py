"""Dense numeric kernels: linear maps, activations, cross-entropy, Adam,
named random streams, and a finite-difference gradient oracle.

All kernels are deterministic. Parameter iteration follows lexicographic
name order so that repeated runs are bitwise identical, which the
exact-unlearning guarantee depends on.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ContractError, DeterminismError, DimensionError

__all__ = [
    "AdamState",
    "ParamStore",
    "RngStream",
    "adam_step",
    "cross_entropy_rows",
    "cross_entropy_with_grad",
    "derive_seed",
    "finite_difference_check",
    "linear_forward_backward",
    "rank_from_logits",
    "ranks_from_logits",
    "sigmoid",
    "softmax",
    "softmax_rows",
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
    """Named parameters with matching gradient slots.

    Names are unique; every gradient has the shape and dtype of its
    parameter. Iteration everywhere is over sorted names.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        if name in self.params:
            raise ContractError(f"duplicate parameter name {name!r}")
        arr = np.array(value, copy=True)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)
        return arr

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0

    def accumulate(self, name: str, grad) -> None:
        g = np.asarray(grad)
        if g.shape != self.params[name].shape:
            raise DimensionError(
                f"gradient for {name!r} has shape {g.shape}, "
                f"parameter has {self.params[name].shape}"
            )
        self.grads[name] += g

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name in self.names():
            out.add(name, self.params[name])
            out.grads[name][...] = self.grads[name]
        return out

    def num_values(self) -> int:
        return sum(p.size for p in self.params.values())

    def tobytes(self) -> bytes:
        """Canonical byte image of the parameter values (sorted by name)."""
        return b"".join(self.params[n].tobytes() for n in self.names())


def xavier_uniform(stream: RngStream, fan_in: int, fan_out: int, shape, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return stream.uniform(-limit, limit, shape).astype(dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)), in the input's dtype.

    tanh saturates instead of overflowing, so there is no branch on the
    sign of x and no masked gather; the result stays in [0, 1].
    """
    out = np.tanh(np.asarray(x) * 0.5)
    out += 1.0
    out *= 0.5
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of a 1-D vector with max-subtraction for stability."""
    z = np.asarray(z)
    if z.ndim != 1 or z.size == 0:
        raise DimensionError(f"softmax expects a non-empty 1-D vector, got shape {z.shape}")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array."""
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] == 0:
        raise DimensionError(f"softmax_rows expects a (n, m) array with m >= 1, got {z.shape}")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def rank_from_logits(logits: np.ndarray, target: int) -> int:
    """Optimistic rank of ``target`` among items 1..|V|."""
    logits = np.asarray(logits)
    if not 1 <= target < logits.shape[0]:
        raise IndexError(f"target {target} outside item range 1..{logits.shape[0] - 1}")
    own = logits[target]
    items = logits[1:]
    return int(1 + np.count_nonzero(items > own))


def ranks_from_logits(block: np.ndarray, targets) -> np.ndarray:
    """Row-wise rank_from_logits.

    block is (n, |V| + 1) id-indexed logits; column 0 is the pad slot and
    never counts. ranks[i] is one plus the number of items scoring
    strictly higher than targets[i] in row i.
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

    Returns (losses, dlogits) where dlogits rows are softmax - onehot.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise DimensionError(
            f"need (n, m) logits and (n,) targets, got {logits.shape} and {targets.shape}"
        )
    p = softmax_rows(logits)
    rows = np.arange(logits.shape[0])
    losses = -np.log(p[rows, targets])
    dlogits = p
    dlogits[rows, targets] -= 1.0
    return losses, dlogits


def linear_forward_backward(x, W, b, upstream_grad=None):
    """Affine map y = x W + b with optional analytic backward pass.

    x may be a single row vector (n,) or a batch (B, n). When
    upstream_grad is given (same shape as y), returns
    (y, (dx, dW, db)); otherwise (y, None).
    """
    x = np.asarray(x)
    W = np.asarray(W)
    b = np.asarray(b)
    xr = np.atleast_2d(x)
    if W.ndim != 2 or xr.shape[1] != W.shape[0] or b.shape != (W.shape[1],):
        raise DimensionError(
            f"shapes do not conform for y = xW + b: x {x.shape}, W {W.shape}, b {b.shape}"
        )
    yr = xr @ W + b
    y = yr[0] if x.ndim == 1 else yr
    if upstream_grad is None:
        return y, None
    g = np.asarray(upstream_grad)
    if g.shape != y.shape:
        raise DimensionError(f"upstream gradient {g.shape} does not match output {y.shape}")
    gr = np.atleast_2d(g)
    dx = gr @ W.T
    dW = xr.T @ gr
    db = gr.sum(axis=0)
    if x.ndim == 1:
        dx = dx[0]
    return y, (dx, dW, db)


class AdamState:
    """First and second moment estimates for every parameter, plus the
    shared step counter."""

    def __init__(self, m: dict, v: dict, t: int = 0):
        self.m = m
        self.v = v
        self.t = t

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        m = {n: np.zeros_like(p) for n, p in store.params.items()}
        v = {n: np.zeros_like(p) for n, p in store.params.items()}
        return cls(m, v, 0)


def adam_step(store: ParamStore, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, applied in place.

    Parameters are visited in sorted-name order; the order is part of the
    reproducibility contract.
    """
    for name in store.names():
        if name not in store.grads:
            raise ContractError(f"parameter {name!r} has no gradient")
    state.t += 1
    t = state.t
    for name in store.names():
        g = store.grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        store.params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def finite_difference_check(loss_fn, store: ParamStore, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients in ``store.grads`` against central
    finite differences of ``loss_fn``.

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
    for name in store.names():
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
