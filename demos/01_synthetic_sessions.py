"""Build a synthetic session corpus and walk through preprocessing.

The generator plants one Markov chain per cluster over disjoint item
blocks, which gives the partitioning stage something real to find. The
same script also shows the TSV ingestion path used for real logs.
"""

import collections

from sru import generate_synthetic, ingest_log, preprocess, split

print("=== synthetic corpus ===")
data = generate_synthetic(num_sessions=300, vocab_size=60, num_clusters=3,
                          noise_rate=0.1, seed=7)
print(f"{len(data)} sessions over {data.num_items()} items, "
      f"longest session {max(map(len, data.sessions))} items")

by_cluster = collections.Counter(s.cluster for s in data.sessions)
print("sessions per planted cluster:", dict(sorted(by_cluster.items())))

example = data.sessions[0]
print(f"\nfirst session {example.session_id!r} (cluster {example.cluster}):")
print("  items:", example.items)
block = (example.items[0] - 1) // 20
inside = sum(1 for i in example.items if (i - 1) // 20 == block)
print(f"  {inside}/{len(example)} items fall in block {block} "
      "(the rest are noise emissions)")

print("\n=== train/validation/test split ===")
train, validation, test = split(data, seed=1)
print(f"split sizes: {len(train)}/{len(validation)}/{len(test)} (8:1:1, disjoint)")

print("\n=== the TSV ingestion path ===")
lines = []
for s in data.sessions[:50]:
    for ts, item in enumerate(s.items):  # a dataset keeps item order only
        lines.append(f"{s.session_id}\t{data.vocab.token_of(item)}\t{ts}")
raw_text = "\n".join(lines) + "\n"
print(f"serialized 50 sessions to {len(lines)} TSV rows; parsing them back...")

raw = ingest_log(raw_text)
rebuilt = preprocess(raw, min_count=2, max_len=10)
print(f"preprocess kept {len(rebuilt)} sessions and "
      f"{rebuilt.num_items()} items (min_count=2, last 10 interactions)")
print("a rebuilt session:", rebuilt.sessions[0].items)
