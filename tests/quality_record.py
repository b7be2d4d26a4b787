"""Quality record of the default pipeline: ranking quality and partition
purity per seed, and the gate that a change to the pipeline must pass.

Run from the repository root (pytest does not collect this file):

    python3 tests/quality_record.py

For each of the 12 record seeds at the default config, and for seeds 7,
41 and 3 at ``synthetic.sessions = 8000``, it fits the framework state
on the synthetic corpus that the ``preprocess`` stage writes, and prints
recall@20 and ndcg@20 on the test split and the cluster purity of the
partition. It exits 1 when the 12-seed mean of recall@20 or of ndcg@20
falls more than TOLERANCE below the recorded means, which were measured
at commit 118720f (GRU reference encoder) with BLAS on one thread.
The larger corpus is reported and not gated.
"""

from __future__ import annotations

import os
import sys
import tempfile

# One BLAS thread, as the benchmark runs, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from sru.checkpoint import load_datasets  # noqa: E402
from sru.config import ExperimentConfig  # noqa: E402
from sru.evaluation import evaluate  # noqa: E402
from sru.partition import cluster_purity  # noqa: E402
from sru.pipeline import fit_state, run_pipeline  # noqa: E402

SEEDS = (7, 41, 3, 11, 12, 13, 14, 15, 16, 17, 18, 19)
LARGE_SEEDS = (7, 41, 3)
LARGE = {"synthetic.sessions": 8000}
RECORDED_RECALL = 0.8419
RECORDED_NDCG = 0.6478
TOLERANCE = 0.005


def measure(seed: int, **overrides) -> tuple[float, float, float]:
    """(recall@20, ndcg@20, cluster purity) of one seed's fitted state."""
    config = ExperimentConfig.defaults(seed=seed, **overrides)
    with tempfile.TemporaryDirectory() as run_dir:
        run_pipeline("preprocess", config, run_dir)
        splits = load_datasets(os.path.join(run_dir, "dataset.sru"), splits=["train", "test"])
    state = fit_state(splits["train"], None, config)
    report = evaluate(state.sru_model(), splits["test"], ks=(20,))
    purity = cluster_purity(state.assignment, [s.cluster for s in state.corpus.sessions])
    return report.recall[20], report.ndcg[20], purity


def record(label: str, seeds, **overrides) -> np.ndarray:
    rows = []
    for seed in seeds:
        row = measure(seed, **overrides)
        rows.append(row)
        print(f"{label} seed {seed:3d}  recall@20 {row[0]:.4f}  ndcg@20 {row[1]:.4f}  "
              f"purity {row[2]:.3f}", flush=True)
    rows = np.array(rows)
    mean = rows.mean(axis=0)
    print(f"{label} mean      recall@20 {mean[0]:.4f}  ndcg@20 {mean[1]:.4f}  "
          f"purity {mean[2]:.3f} (min {rows[:, 2].min():.3f})", flush=True)
    return mean


def main() -> int:
    mean = record("default", SEEDS)
    record("8000-session", LARGE_SEEDS, **LARGE)
    failures = [f"mean {name} {got:.4f} is more than {TOLERANCE} below the recorded {want:.4f}"
                for name, got, want in (("recall@20", mean[0], RECORDED_RECALL),
                                        ("ndcg@20", mean[1], RECORDED_NDCG))
                if got < want - TOLERANCE]
    for failure in failures:
        print(f"FAILED {failure}")
    if not failures:
        print(f"PASSED: both 12-seed means are within {TOLERANCE} of the recorded ones or above")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
