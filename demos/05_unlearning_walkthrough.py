"""Delete one interaction and retrain exactly what it touched.

The walkthrough shows the three extra-deletion strategies on a single
session, then runs a deletion end to end and verifies the exactness
guarantee: the retrained sub-model is bit-for-bit the model you would
get by training from scratch on the post-deletion shard.
"""

import time

from sru import ExperimentConfig, generate_synthetic, split, train_backbone
from sru.numerics import derive_seed, rng_stream
from sru.pipeline import fit_state
from sru.unlearning import UnlearnRequest, ced_select, execute_unlearn, ned_select, red_select

config = ExperimentConfig.defaults(**{
    "seed": 23,
    "synthetic.sessions": 600,
    "synthetic.items": 80,
    "synthetic.clusters": 4,
    "partition.k": 4,
    "backbone.d": 16,
    "backbone.epochs": 8,
    "agg.f": 16,
    "agg.epochs": 3,
})
data = generate_synthetic(600, 80, 4, noise_rate=0.1,
                          seed=derive_seed(config.seed, "synthetic"))
train, validation, _ = split(data, seed=derive_seed(config.seed, "split"))

print("assembling the sharded model...")
state = fit_state(train, validation, config)

session = state.shards[1].sessions[0]
target = 4
print(f"\nsession {session.session_id!r}: items {session.items}")
print(f"deleting the item at position {target} (item {session.items[target]}) "
      "plus 2 extra items per strategy:\n")

ced = ced_select(session, target, 2, state.reference_model)
ned = ned_select(session, target, 2)
red = red_select(session, target, 2, rng_stream(1, "demo/red"))
print(f"  collaborative (embedding-nearest items): positions {ced}")
print(f"  neighbor (immediately preceding items):  positions {ned}")
print(f"  random (uniform over other positions):   positions {red}")

print("\nexecuting the collaborative deletion...")
request = UnlearnRequest(session.session_id, target, "CED", 2)
started = time.perf_counter()
outcome = execute_unlearn(state, [request])
elapsed = time.perf_counter() - started

result = outcome.deletions[0]
print(f"deleted positions {result.deleted_positions}; "
      f"survivors {result.context_full}")
timing = outcome.timing
print(f"phases: sub-model retrain {timing.sub_model_retrain_ms:.0f}ms, "
      f"fusion side {timing.aggregation_retrain_ms:.0f}ms "
      f"(centroids {timing.centroid_refresh_ms:.0f}ms, "
      f"feature cache {timing.feature_cache_ms:.0f}ms, "
      f"fusion training {timing.fusion_training_ms:.0f}ms; wall {elapsed:.1f}s)")

touched = [k for k in range(4)
           if outcome.state.sub_models[k] is not state.sub_models[k]]
print(f"\nshards retrained: {touched}; the other "
      f"{4 - len(touched)} sub-models are bitwise unchanged:",
      all(outcome.state.sub_models[k].params_bytes() == state.sub_models[k].params_bytes()
          for k in range(4) if k not in touched))

print("\nverifying exactness against an independent from-scratch run...")
k = touched[0]
fresh = train_backbone(outcome.state.shards[k], state.shard_configs[k])
match = fresh.params_bytes() == outcome.state.sub_models[k].params_bytes()
print(f"retrained sub-model == fresh training on the deleted shard: {match}")
print("\nnote: the corpus embedding is not refit; it only serves partitioning "
      "and collaborative distances, and it was fit on the deleted interaction "
      "too.")
