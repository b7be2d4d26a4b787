"""Audit whether deleted items can be re-inferred, and time the selective
retrain against the classical full retrain.

HIT@K asks: given the surviving items before the deleted target, does
the unlearned model still rank the target inside the top K? Lower is
better unlearning. Removing a few extra correlated items (here the
neighbor strategy at N=3) should push the ratio down versus deleting
the target alone (N=0).
"""

from sru import ExperimentConfig, generate_synthetic, hit_effectiveness, split
from sru.evaluation import benchmark_unlearn
from sru.numerics import derive_seed
from sru.pipeline import fit_state
from sru.unlearning import UnlearnRequest, execute_unlearn, sample_requests

config = ExperimentConfig.defaults(**{
    "seed": 29,
    "synthetic.sessions": 900,
    "synthetic.items": 120,
    "synthetic.clusters": 6,
    "partition.k": 6,
    "backbone.d": 24,
    "backbone.epochs": 15,
    "agg.f": 24,
    "agg.epochs": 4,
})
data = generate_synthetic(900, 120, 6, noise_rate=0.1,
                          seed=derive_seed(config.seed, "synthetic"))
train, validation, _ = split(data, seed=derive_seed(config.seed, "split"))

print("assembling the sharded model...")
state = fit_state(train, validation, config)

requests = sample_requests(state.corpus, 120, "NED", 0,
                           seed=31, min_target_position=5)
print(f"sampled {len(requests)} deletion requests (targets at position >= 5)")

for n_extra in (0, 3):
    batch = [UnlearnRequest(r.session_id, r.target_position, "NED", n_extra)
             for r in requests]
    outcome = execute_unlearn(state, batch)
    report = hit_effectiveness(outcome.state.sru_model(), outcome.deletions,
                               ks=(1, 5, 10, 20))
    hits = "  ".join(f"HIT@{k} {report.hit[k]:.3f}" for k in (1, 5, 10, 20))
    print(f"\nneighbor deletion, N={n_extra}: {hits}")
    print(f"  audited {report.audited_requests}, "
          f"skipped (empty surviving prefix) {report.skipped_empty_prefix}")

print("\ntiming selective unlearning against full retraining "
      "(requests confined to one shard)...")
confined = sample_requests(state.shards[0], 12, "CED", 2, seed=37,
                           min_target_position=2)
bench = benchmark_unlearn(state, confined)
print(f"  selective: sub-model {bench.sub_model_retrain_ms:.0f}ms + "
      f"fusion {bench.aggregation_retrain_ms:.0f}ms = {bench.total_ms:.0f}ms")
print(f"  full retrain of one backbone on the deleted corpus: "
      f"{bench.full_retrain_reference_ms:.0f}ms")
print(f"  speedup: {bench.speedup:.2f}x")
