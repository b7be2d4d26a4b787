"""Benchmark of sharded session-recommendation unlearning.

Run from the repository root:

    python3 bench/run.py --workload unlearn_single --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (closed loop, one client, ``ExperimentConfig.defaults()`` with
the workload seed as ``seed``):

  unlearn_single  chained ``execute_unlearn`` calls of one request each,
                  then one timed full backbone retrain for reference
  audit           the ``eval`` then ``effectiveness`` pipeline stages on a
                  run directory that has been unlearned once

With ``--trace 0`` the last line holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` every other operation runs with the
library wrapped in spans, and the last line holds the per-layer metrics
(self seconds and counts per operation). Spans are written to
``.bench_work/``. Every check failure counts in ``failed`` and makes the
exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKDIR = os.path.join(ROOT, ".bench_work")
NAMES = ("unlearn_single", "audit")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def limit_blas_threads() -> None:
    """Run BLAS on one thread, whatever the caller's environment says, so
    that a measurement shows the program and not the scheduler. Must run
    before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit(root: str) -> str:
    """Commit of the checkout; git is not asked to look above it."""
    try:
        child = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)})
    except OSError:
        return "unknown"
    return child.stdout.strip() if child.returncode == 0 else "unknown"


def provenance(args, config, nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_hash": config.config_hash(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run, workloads) -> dict:
    return {
        "setup_s": workloads.median(run.samples["setup_s"]),
        "op_ref_ratio.p50": workloads.median(run.samples["op_ref_ratio"]),
        "peak_rss_mb": run.values.get("peak_rss_mb", float("nan")),
        "recall_at_20": run.values.get("recall_at_20", float("nan")),
        "ndcg_at_20": run.values.get("ndcg_at_20", float("nan")),
    }


def per_layer(run, names) -> dict:
    """Per-operation self seconds and counts of the traced operations,
    plus ``setup.*`` values per traced set-up."""
    from tracer import summarize
    ops, _ = summarize(run.tracer, "op/")
    setup, _ = summarize(run.tracer, "setup/")
    values = dict(ops)
    values.update({f"setup.{key}": value for key, value in setup.items()})
    calls = ops.get("execute_unlearn.calls", 0.0)
    values["updated_feature_cache.reused_ratio"] = ratio(
        ops.get("updated_feature_cache.cells_reused", 0.0), ops.get("updated_feature_cache.cells", 0.0))
    values["shards_retrained_per_call"] = ratio(ops.get("execute_unlearn.shards_retrained", 0.0), calls)
    values["positions_deleted"] = ops.get("execute_unlearn.positions_deleted", 0.0)
    values["requests_skipped"] = ops.get("execute_unlearn.requests_skipped", 0.0)
    values["fusion_retrains_per_request"] = ratio(
        ops.get("train_aggregation.calls", 0.0), ops.get("execute_unlearn.requests", 0.0))
    listed = {name.rsplit(".", 1)[0] for name in names
              if name.endswith((".s", ".self_s")) and not name.startswith("setup.")}
    values["unlisted.s"] = sum(v for k, v in ops.items()
                               if k.endswith(".s") and k[:-2] not in listed)
    return {name: values.get(name, 0.0) for name in names}


def print_rows(run, workloads) -> None:
    """Every measured figure by name and unit, including those that are
    printed but not gated."""
    for key in sorted(run.samples):
        samples = run.samples[key]
        unit = "ms" if key.endswith("_ms") else "s" if key.endswith("_s") else "x"
        print(f"{key}.p50 {workloads.median(samples):.6g} {unit} (n={len(samples)})")
        if len(samples) >= 100:
            p90 = sorted(samples)[int(0.9 * len(samples))]
            print(f"{key}.p90 {p90:.6g} {unit} (n={len(samples)})")
        else:
            print(f"{key}.p90 not reported: {len(samples)} samples, 100 give ten beyond p90")
    for key in ("recall_at_20", "ndcg_at_20", "hit_at_10"):
        if key in run.values:
            print(f"{key} {run.values[key]:.6g} ratio")
    print(f"failed_ratio {ratio(run.failed, run.attempted):.6g} ratio "
          f"({run.failed} of {run.attempted})")
    print(f"peak_rss_mb {run.values.get('peak_rss_mb', float('nan')):.6g} MB")
    if run.workload == "unlearn_single":
        op = workloads.median(run.samples["unlearn_ms"])
        full_ms = workloads.median(run.samples["full_retrain_s"]) * 1e3
        print(f"derived amortized_ms_per_request.batch_1 {op:.6g} ms")
        print(f"derived retrain_speedup {ratio(full_ms, op):.6g} x (full_retrain_s / unlearn_ms.p50)")
    if run.tracer is not None:
        print_trace_rows(run, workloads)


def print_trace_rows(run, workloads) -> None:
    from tracer import summarize
    ops, traced_ops = summarize(run.tracer, "op/")
    key = workloads.OPERATION[run.workload]
    traced = workloads.median(run.samples[f"traced.{key}"])
    untraced = workloads.median(run.samples[key])
    self_ms = sum(v for k, v in ops.items() if k.endswith(".s")) * 1e3
    print(f"trace accounting: self times sum to {self_ms:.6g} ms per traced operation "
          f"(n={traced_ops}); traced {key}.p50 {traced:.6g} ms, untraced {untraced:.6g} ms")
    print(f"tracing overhead {traced - untraced:.6g} ms per operation "
          f"({ratio(traced - untraced, untraced) * 100:.3g}%)")
    # The first set-up of a process is a cold one; compare warm with warm.
    setup_traced = workloads.median(run.samples["traced.setup_s"])
    setup_untraced = workloads.median(run.samples["setup_s"][1:])
    print(f"tracing overhead {setup_traced - setup_untraced:.6g} s per set-up "
          f"(against the warm untraced set-ups)")
    for phase, seconds in sorted(workloads.setup_split(run.tracer).items()):
        print(f"derived setup_split.{phase} {seconds:.6g} s "
              f"({ratio(seconds, setup_traced) * 100:.3g}%)")


def run_one(args, spec: dict, nproc: int, config=None) -> int:
    """Run one workload, print its figures and the result line."""
    import workloads
    from sru.config import ExperimentConfig
    config = config or ExperimentConfig.defaults(seed=args.seed)
    info = provenance(args, config, nproc)
    print("provenance " + json.dumps(info, sort_keys=True))
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    run = workloads.execute(args.workload, config, args.seconds, bool(args.trace), workdir)
    print(f"workload {args.workload} seed {args.seed} operations {run.values.get('ops', 0)}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print_rows(run, workloads)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(run, names)
        trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end(run, workloads)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        lines = child.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    done = [r for r in results.values() if r is not None]
    combined = {
        "correct": len(done) == len(NAMES) and all(r["correct"] for r in done),
        "attempted": max(1, sum(r["attempted"] for r in done)),
        "failed": sum(r["failed"] for r in done) + len(NAMES) - len(done),
        "metrics": {f"{name}.{metric}": value for name, r in results.items() if r
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if "SRU_SEED" in os.environ:
        print("refusing to run: SRU_SEED is set, and ExperimentConfig.seed would let it "
              "override the workload seed", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "sru", "__init__.py")):
        print(f"no library source at {os.path.join(SRC, 'sru')}", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"missing {SPEC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads()
    sys.path.insert(0, SRC)
    import sru
    if os.path.dirname(os.path.abspath(sru.__file__)) != os.path.join(SRC, "sru"):
        print(f"sru was imported from {sru.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec, nproc)


if __name__ == "__main__":
    sys.exit(main())
