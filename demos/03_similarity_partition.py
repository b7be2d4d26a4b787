"""Shard sessions by similarity and inspect the result.

The corpus embedding is fit on the whole corpus (a truncated SVD of the
L2-normalised session-by-item count matrix), every session is embedded
as its row of U S, and a capacity-bounded k-means splits the
embeddings: all (session, shard) pairs are scanned in one
ascending-distance order and a session blocked by a full shard falls
through to its next-nearest shard with room.
"""

import collections

from sru import generate_synthetic
from sru.partition import (
    PartitionConfig,
    balanced_kmeans,
    cluster_purity,
    embed_all,
    fit_corpus_embedding,
    make_shards,
)

data = generate_synthetic(num_sessions=500, vocab_size=80, num_clusters=4,
                          noise_rate=0.0, seed=13)
print(f"corpus: {len(data)} sessions, {data.num_items()} items, 4 planted clusters")

embedding = fit_corpus_embedding(data, 32)
print(f"\ncorpus embedding: {embedding.d} components, leading singular values "
      + ", ".join(f"{v:.2f}" for v in embedding.scale[:4]))

H = embed_all(embedding, data)
print(f"embedded all sessions: {H.shape}")

config = PartitionConfig(k=4, seed=11)
assignment = balanced_kmeans(H, config)
print(f"\nbalanced k-means converged after {assignment.iterations_run} iterations")
print("shard sizes:", [len(m) for m in assignment.members],
      f"(capacity {assignment.delta})")

purity = cluster_purity(assignment, [s.cluster for s in data.sessions])
print(f"cluster purity (majority-label fraction per shard): {purity:.3f}")

for k, member in enumerate(assignment.members):
    counts = collections.Counter(data.sessions[i].cluster for i in member)
    print(f"  shard {k}: planted-cluster histogram {dict(sorted(counts.items()))}")

shards = make_shards(data, assignment)
print("\nshard datasets share one vocabulary:",
      all(s.vocab is data.vocab for s in shards))
print("they partition the corpus:",
      sum(len(s) for s in shards) == len(data))
