"""Corpus co-occurrence embedding and capacity-bounded session sharding.

Sessions are embedded by the corpus embedding, a truncated SVD of the
L2-normalised session-by-item count matrix fit once on the training
corpus, and divided into K disjoint shards by a balanced k-means
variant: at every iteration
all (session, shard) distance pairs are scanned in one global ascending
order, and each session takes the first pair whose shard still has free
capacity. A session blocked by a full shard is therefore picked up at
its next-nearest shard with room, which keeps every shard at or below
the capacity bound delta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .corpus import SessionDataset
from .errors import ContractError
from .numerics import rng_stream

__all__ = [
    "CorpusEmbedding",
    "PartitionConfig",
    "ShardAssignment",
    "balanced_kmeans",
    "cluster_purity",
    "embed_all",
    "fit_corpus_embedding",
    "make_shards",
]


@dataclass(frozen=True)
class PartitionConfig:
    k: int = 8
    delta: int | None = None       # capacity; None means ceil(|D| / k)
    max_iters: int = 50
    centroid_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"shard count must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if self.delta is not None and self.delta < 1:
            raise ContractError(f"delta must be >= 1 or None, got {self.delta}")
        if not self.centroid_tol >= 0:
            raise ContractError(f"centroid_tol must be >= 0, got {self.centroid_tol}")

    def capacity(self, n: int) -> int:
        delta = self.delta if self.delta is not None else math.ceil(n / self.k)
        if self.k * delta < n:
            raise ContractError(
                f"capacity too small: k * delta = {self.k * delta} < {n} sessions"
            )
        return delta


@dataclass(frozen=True)
class ShardAssignment:
    """Disjoint, capacity-bounded map of session indices to shards.

    ``shard_of`` is the partition's one stored form. The shard count is
    the number of centroid rows, so an empty shard still counts, and
    ``members`` is derived from ``shard_of``. Construction checks the
    partition (``validate``), so an invalid one cannot be built.
    """

    shard_of: np.ndarray                 # (n,) int64 shard id per session index
    centroids: np.ndarray                # (k, d) in the reference hidden space
    iterations_run: int
    delta: int
    reseeds: tuple = ()                  # (iteration, shard, session) diagnostics

    def __post_init__(self):
        object.__setattr__(self, "shard_of", np.asarray(self.shard_of, dtype=np.int64))
        self.validate()

    def without(self, dropped) -> "ShardAssignment":
        """The partition of the corpus left once the session indices in
        ``dropped`` are removed; later indices shift down to close the gaps."""
        keep = np.ones(self.shard_of.shape[0], dtype=bool)
        keep[list(dropped)] = False
        return replace(self, shard_of=self.shard_of[keep])

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Each shard's session indices, in ascending order."""
        return tuple(tuple(np.flatnonzero(self.shard_of == c).tolist()) for c in range(self.k))

    def validate(self) -> None:
        """Every shard id lies in 0..k-1 and no shard holds more than delta
        sessions."""
        ids = self.shard_of
        if ids.ndim != 1 or ids.size and (ids.min() < 0 or ids.max() >= self.k):
            raise ContractError(f"shard_of must be a vector of shard ids in 0..{self.k - 1}")
        load = np.bincount(ids, minlength=self.k)
        if load.max(initial=0) > self.delta:
            raise ContractError(f"shard {int(load.argmax())} exceeds capacity {self.delta}")


@dataclass(frozen=True)
class CorpusEmbedding:
    """Item factors of the training corpus: the top d right singular
    vectors of its L2-normalised session-by-item count matrix X (``basis``,
    (V+1, d)) and their singular values (``scale``, (d,)), both float64.

    Row 0 of ``basis`` is the pad id's and is zero. A component beyond
    the rank of X has a zero basis column and a zero scale.
    """

    basis: np.ndarray
    scale: np.ndarray

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @property
    def num_items(self) -> int:
        return self.basis.shape[0] - 1

    @cached_property
    def embeddings(self) -> np.ndarray:
        """Item factors V S, one row per item id; the pad row is zero.
        Computed once per embedding, and read-only."""
        embeddings = self.basis * self.scale
        embeddings.flags.writeable = False
        return embeddings

    def params_bytes(self) -> bytes:
        return self.basis.tobytes() + self.scale.tobytes()


class _CountRows:
    """X, the L2-normalised item-count rows of some sessions, stored as its
    nonzero entries X[rows[j], cols[j]] = vals[j]; column i - 1 is item i
    (the pad id never occurs). ``dot`` and ``gram_dot`` take one bincount
    per column, so they cost O(nnz) time and memory per column and form
    neither X nor X^T X; ``gram`` forms X^T X, for small vocabularies."""

    def __init__(self, sessions, num_items: int):
        sizes = np.fromiter(map(len, sessions), dtype=np.int64, count=len(sessions))
        items = np.fromiter(itertools.chain.from_iterable(sessions), dtype=np.int64,
                            count=int(sizes.sum()))
        keys, counts = np.unique(np.repeat(np.arange(sizes.size), sizes) * num_items + items - 1,
                                 return_counts=True)
        self.rows, self.cols = np.divmod(keys, num_items)
        norm = np.sqrt(np.bincount(self.rows, weights=counts * counts, minlength=sizes.size))
        self.vals = counts / norm[self.rows]
        self.shape = (sizes.size, num_items)

    def dot(self, W: np.ndarray) -> np.ndarray:
        """X W for W (num_items, b)."""
        return np.column_stack([
            np.bincount(self.rows, weights=self.vals * w[self.cols], minlength=self.shape[0])
            for w in W.T])

    def gram_dot(self, W: np.ndarray) -> np.ndarray:
        """X^T X W for W (num_items, b)."""
        return np.column_stack([
            np.bincount(self.cols, weights=self.vals * p[self.rows], minlength=self.shape[1])
            for p in self.dot(W).T])

    def gram(self) -> np.ndarray:
        """X^T X, dense, summed over blocks of whole rows of X of at most
        _BLOCK_ENTRIES entries each (at least one row)."""
        n, num_items = self.shape
        step = max(1, min(n, _BLOCK_ENTRIES // num_items))
        bounds = np.searchsorted(self.rows, np.arange(0, n + step, step))
        gram = np.zeros((num_items, num_items))
        for first, (lo, hi) in zip(range(0, n, step), zip(bounds[:-1], bounds[1:])):
            block = np.zeros((step, num_items))
            block[self.rows[lo:hi] - first, self.cols[lo:hi]] = self.vals[lo:hi]
            gram += block.T @ block
        return gram


# Entries of one dense block of X in ``_CountRows.gram``: 512 KB of float64.
_BLOCK_ENTRIES = 1 << 16

# Width cap of the Krylov basis, in blocks of d columns: its memory is
# this many (V, d) float64 matrices. A vocabulary that fits under the cap
# (up to 256 items at the default d = 32) is fit from X^T X whole.
_KRYLOV_BLOCKS = 8


def _extend(rows: np.ndarray, W: np.ndarray, room: int) -> np.ndarray:
    """An orthonormal basis of at most ``room`` columns for the part of
    span(W) orthogonal to the orthonormal rows of ``rows``; directions
    below sqrt(eps) of W's largest column count as already in their span."""
    floor = np.sqrt(np.finfo(np.float64).eps) * np.linalg.norm(W, axis=0).max(initial=0.0)
    for _ in range(2):                     # classical Gram-Schmidt, twice
        W = W - rows.T @ (rows @ W)
    U, s, _ = np.linalg.svd(W, full_matrices=False)
    Q = U[:, s > floor][:, :room]
    return np.linalg.qr(Q - rows.T @ (rows @ Q))[0]


def _ritz_pairs(X: _CountRows, d: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The top min(d, m) Rayleigh-Ritz pairs of X^T X, ascending like
    ``np.linalg.eigh``, on an orthonormal block Krylov basis of m <= width
    vectors. The basis grows from d seeded vectors by X^T X times its
    newest block until it has ``width`` vectors or stops growing; T, its
    projection of X^T X, is filled one block row at a time."""
    num_items = X.shape[1]
    K = np.zeros((width, num_items))      # one basis vector per row
    T = np.zeros((width, width))
    start = rng_stream(0, "partition/embedding").uniform(-1.0, 1.0, (num_items, d))
    Q, m = np.linalg.qr(start)[0], 0
    while Q.shape[1]:
        b = Q.shape[1]
        K[m : m + b] = Q.T
        W = X.gram_dot(Q)
        T[m : m + b, : m + b] = W.T @ K[: m + b].T
        m += b
        Q = _extend(K[:m], W, width - m)
    values, vectors = np.linalg.eigh(T[:m, :m], UPLO="L")
    return values[-d:], K[:m].T @ vectors[:, -d:]


def fit_corpus_embedding(train: SessionDataset, d: int) -> CorpusEmbedding:
    """The corpus embedding of ``train``: the top d eigenpairs of X^T X,
    which are V and S^2.

    A vocabulary of at most 8 d items takes the eigenpairs of X^T X
    itself. A larger one takes the Rayleigh-Ritz pairs of a block Krylov
    basis of 8 d columns (``_ritz_pairs``), whose products with X^T X cost
    O(nnz(X)) per column; so time grows with the corpus and memory with
    V d, never with V squared. Each basis vector is flipped so that its
    largest-magnitude entry (the first, on ties) is positive. Eigenvalues
    at or below the rank tolerance of ``np.linalg.matrix_rank`` count as
    zero: their components, and any beyond the vocabulary or the Krylov
    basis, are zero. Deterministic: a pure function of the sessions and d.
    """
    if d < 1:
        raise ContractError(f"embedding width must be >= 1, got {d}")
    num_items = train.num_items()
    X = _CountRows([s.items for s in train.sessions], num_items)
    if num_items <= _KRYLOV_BLOCKS * d:
        values, vectors = np.linalg.eigh(X.gram())
    else:
        values, vectors = _ritz_pairs(X, d, _KRYLOV_BLOCKS * d)
    take = min(d, values.size)
    values, vectors = values[::-1][:take], vectors[:, ::-1][:, :take]
    tol = values.max(initial=0.0) * num_items * np.finfo(np.float64).eps
    kept = values > tol
    vectors = vectors * np.where(vectors[np.argmax(np.abs(vectors), axis=0),
                                         np.arange(take)] < 0, -1.0, 1.0)
    basis = np.zeros((num_items + 1, d))
    basis[1:, :take] = np.where(kept, vectors, 0.0)
    scale = np.zeros(d)
    scale[:take] = np.sqrt(np.where(kept, values, 0.0))
    return CorpusEmbedding(basis=basis, scale=scale)


def embed_all(embedding: CorpusEmbedding, dataset: SessionDataset) -> np.ndarray:
    """Each session's L2-normalised item-count row times the embedding's
    basis: (len(dataset), d). On the corpus it was fit on, this is U S."""
    if embedding.num_items != dataset.num_items():
        raise ContractError(
            f"embedding vocabulary ({embedding.num_items}) does not match "
            f"dataset ({dataset.num_items()})"
        )
    X = _CountRows([s.items for s in dataset.sessions], dataset.num_items())
    return X.dot(embedding.basis[1:])


def _assign(dist: np.ndarray, delta: int) -> np.ndarray:
    """Scan all (session, shard) pairs in ascending distance order.

    Ties break on (session index, shard id): the stable sort keeps equal
    distances in the row-major order of the (session, shard) grid. Every
    session lands on its nearest shard that still has capacity at the
    moment it is reached.
    """
    n, k = dist.shape
    assignment = [-1] * n
    load = [0] * k
    remaining = n
    for pair in np.argsort(dist.reshape(-1), kind="stable").tolist():
        s, c = divmod(pair, k)
        if assignment[s] >= 0 or load[c] >= delta:
            continue
        assignment[s] = c
        load[c] += 1
        remaining -= 1
        if remaining == 0:
            break
    return np.array(assignment, dtype=np.int64)


def balanced_kmeans(H: np.ndarray, config: PartitionConfig,
                    init_indices=None) -> ShardAssignment:
    """Capacity-bounded k-means over session embeddings.

    Centroids start at K distinct session rows drawn from the config's
    named stream (or at ``init_indices`` when given, e.g. for worked
    examples). Iteration stops when no centroid moves by centroid_tol or
    more, or after max_iters. An emptied shard is reseeded with the
    session currently farthest from its own centroid.
    """
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    k = config.k
    if k > n:
        raise ContractError(f"cannot form {k} shards from {n} sessions")
    delta = config.capacity(n)

    if init_indices is None:
        stream = rng_stream(config.seed, "partition/init")
        init_indices = np.sort(stream.choice(n, size=k, replace=False))
    else:
        init_indices = np.asarray(list(init_indices), dtype=np.int64)
        if init_indices.shape != (k,) or len(set(init_indices.tolist())) != k:
            raise ContractError(f"init_indices must be {k} distinct session indices")
    centroids = H[init_indices].copy()

    assignment = np.full(n, -1, dtype=np.int64)
    reseeds = []
    iterations = 0
    for iteration in range(1, config.max_iters + 1):
        iterations = iteration
        dist = np.sqrt(((H[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
        assignment = _assign(dist, delta)

        empty = [c for c in range(k) if not np.any(assignment == c)]
        if empty:
            own_dist = dist[np.arange(n), assignment]
            used = set()
            for c in empty:
                candidates = [i for i in np.argsort(-own_dist, kind="stable") if i not in used]
                chosen = int(candidates[0])
                used.add(chosen)
                centroids[c] = H[chosen]
                reseeds.append((iteration, c, chosen))
            continue  # not converged; re-assign against the reseeded centroids

        new_centroids = np.stack([H[assignment == c].mean(axis=0) for c in range(k)])
        movement = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if movement < config.centroid_tol:
            break

    return ShardAssignment(shard_of=assignment, centroids=centroids, iterations_run=iterations,
                           delta=delta, reseeds=tuple(reseeds))


def make_shards(dataset: SessionDataset, assignment: ShardAssignment) -> list[SessionDataset]:
    """Materialize one dataset per shard, sharing the parent vocabulary."""
    if assignment.shard_of.shape[0] != len(dataset):
        raise ContractError(
            f"assignment covers {assignment.shard_of.shape[0]} sessions, "
            f"dataset has {len(dataset)}"
        )
    return [dataset.subset(member) for member in assignment.members]


def cluster_purity(assignment: ShardAssignment, labels) -> float:
    """Majority-label fraction averaged over shards.

    ``labels`` holds one planted-cluster label per session; useful only
    on synthetic corpora where those labels exist.
    """
    labels = np.asarray(labels)
    fractions = []
    for member in assignment.members:
        if not member:
            continue
        shard_labels = labels[list(member)]
        _, counts = np.unique(shard_labels, return_counts=True)
        fractions.append(counts.max() / len(member))
    if not fractions:
        raise ContractError("assignment has no populated shards")
    return float(np.mean(fractions))
