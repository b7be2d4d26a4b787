"""Capacity-bounded session sharding.

Sessions are embedded with the pretrained reference encoder and divided
into K disjoint shards by a balanced k-means variant: at every iteration
all (session, shard) distance pairs are scanned in one global ascending
order, and each session takes the first pair whose shard still has free
capacity. A session blocked by a full shard is therefore picked up at
its next-nearest shard with room, which keeps every shard at or below
the capacity bound delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .backbone import GruModel, encode_batch
from .corpus import SessionDataset
from .errors import ContractError
from .numerics import RngStream

__all__ = [
    "PartitionConfig",
    "ShardAssignment",
    "balanced_kmeans",
    "cluster_purity",
    "embed_all",
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


def embed_all(reference_model: GruModel, dataset: SessionDataset) -> np.ndarray:
    """Hidden state of every full session under the reference model."""
    if reference_model.num_items != dataset.num_items():
        raise ContractError(
            f"model vocabulary ({reference_model.num_items}) does not match "
            f"dataset ({dataset.num_items()})"
        )
    return encode_batch(reference_model, [s.items for s in dataset.sessions])


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
        stream = RngStream(config.seed, "partition/init")
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
    return [
        dataset.with_sessions(dataset.sessions[i] for i in member)
        for member in assignment.members
    ]


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
