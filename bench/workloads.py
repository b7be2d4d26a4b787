"""Workloads, correctness checks and metrics of the sru benchmark.

Every workload is one process and one closed-loop client: an operation
starts only after the previous one has returned. Inputs come from the
workload seed alone (it becomes ``ExperimentConfig.seed``). Set-up runs
SETUPS times and its median is reported on its own, so that work moved
out of the timed operation into set-up still shows.

The library is called through module attributes (``pipeline.fit_state``,
never a name bound at import), so that the tracer's wrappers are what
runs while a phase is traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import replace

import numpy as np

import sru.aggregation as aggregation
import sru.backbone as backbone
import sru.checkpoint as checkpoint
import sru.corpus as corpus
import sru.evaluation as evaluation
import sru.pipeline as pipeline
import sru.unlearning as unlearning
from sru.numerics import derive_seed

from tracer import Patch, Tracer

SETUPS = 3
MIN_OPS = 4            # at least two traced and two untraced operations
N_EXTRA = 2
AUDIT_REQUESTS = 200
AUDIT_STAGES = ("preprocess", "pretrain", "partition", "train-shards", "train-agg")
TRACED_SETUP = 1       # which set-up a traced run records

# Phases of fit_state, by the name of the call that runs them.
FIT_PHASES = {
    "train_backbone": "pretrain",
    "embed_all": "partition",
    "balanced_kmeans": "partition",
    "make_shards": "partition",
    "train_many": "shard_training",
    "compute_centroids": "centroids",
    "build_feature_cache": "feature_cache",
    "train_aggregation": "fusion",
}


class Run:
    """Samples, check outcomes and trace of one benchmark run."""

    def __init__(self, workload: str, config, seconds: float, trace: bool, workdir: str):
        self.workload = workload
        self.config = config
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.attempted = 0     # set-ups and operations begun
        self.failed = 0        # of those, the ones with a failure
        self.unit_failed = False
        self.failures: list[str] = []

    def begin(self) -> None:
        """Start one set-up or operation, the unit of attempted and failed."""
        self.attempted += 1
        self.unit_failed = False

    def fail(self, message: str) -> None:
        """Record a failure; it fails the current set-up or operation once,
        however many of its checks fail."""
        self.failures.append(message)
        if not self.unit_failed:
            self.failed += 1
            self.unit_failed = True

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check of the current unit."""
        if not ok:
            self.fail(f"{label}: {detail}" if detail else label)
        return ok

    def sample(self, key: str, value: float, traced: bool) -> None:
        self.samples[f"traced.{key}" if traced else key].append(value)

    @contextlib.contextmanager
    def phase(self, iteration: str, root: str, traced: bool):
        """Run a block with the library wrapped, under one root span."""
        if not traced:
            yield
            return
        self.tracer.iteration = iteration
        patch = Patch(self.tracer)
        try:
            with patch, self.tracer.span(root):
                yield
        finally:
            self.tracer.iteration = None
            self.check("tracer restored the library", patch.restored())

    def span(self, name: str):
        """A bench span inside a traced phase; nothing otherwise."""
        if self.tracer is None or self.tracer.iteration is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


class ReferenceKernel:
    """A fixed numpy computation timed just before each operation.

    On a shared machine the speed of a whole run drifts by up to 60%
    while neighbours are busy. This kernel drifts with it: over ten runs
    per workload on a 2-vCPU VM, the quartile spread of the operations'
    run medians was 20-26%, and that of the median ratio of each
    operation to the kernel timed before it 4%. It mixes the program's
    kinds of work (a permuted gather of a 16 MB table, small matmuls,
    exp, tanh) and uses nothing from the library, so a change to the
    library moves only the numerator.
    """

    BLOCK = 256

    def __init__(self):
        rng = np.random.default_rng(0)
        # Made in float32 and gathered block by block into one small
        # buffer, so that the kernel adds 16.4 MB to the process and
        # allocates nothing large while it runs.
        self.table = rng.standard_normal((16000, 8, 32), dtype=np.float32)
        self.perm = rng.permutation(16000)
        self.block = np.empty((self.BLOCK, 8, 32), dtype=np.float32)
        self.w_in = rng.standard_normal((32, 64)).astype(np.float32)
        self.w_out = rng.standard_normal((32, 200)).astype(np.float32)
        self.w_step = rng.standard_normal((32, 32)).astype(np.float32)

    def __call__(self) -> float:
        """Seconds one pass takes."""
        started = time.perf_counter()
        for start in range(0, len(self.perm), self.BLOCK):
            rows = self.perm[start : start + self.BLOCK]
            block = self.block[: len(rows)]
            np.take(self.table, rows, axis=0, out=block)
            np.maximum(block.reshape(-1, 32) @ self.w_in, 0.0)
            logits = block.mean(axis=1) @ self.w_out
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
        h = self.table[self.perm[: self.BLOCK], 0]
        for _ in range(200):
            z = 1.0 / (1.0 + np.exp(-(h @ self.w_step)))
            h = np.tanh(h @ self.w_step) * z
        return time.perf_counter() - started


def closed_loop(run: Run, op, limit: int) -> int:
    """Call op(i, traced) back to back until the run's seconds are used
    (and at least MIN_OPS times). A traced run traces every other
    operation, so the untraced ones in between give the overhead. The
    reference kernel runs just before each operation, and each untraced
    operation's time is also recorded as a ratio to it."""
    reference = ReferenceKernel()
    key = OPERATION[run.workload]
    deadline = time.perf_counter() + run.seconds
    i = 0
    while i < limit and (i < MIN_OPS or time.perf_counter() < deadline):
        reference_ms = reference() * 1e3
        run.samples["reference_ms"].append(reference_ms)
        done = len(run.samples[key])
        run.begin()
        try:
            op(i, run.trace and i % 2 == 1)
        except Exception:  # one failed operation is counted; the loop goes on
            run.fail(f"operation {i}: {traceback.format_exc(limit=3)}")
        if len(run.samples[key]) > done:
            run.samples["op_ref_ratio"].append(run.samples[key][-1] / reference_ms)
        i += 1
    # Peak memory of set-up and operations, read before the final checks
    # (which hold extra states and are not what a user runs). The harness
    # holds only the reference kernel's table and, in unlearn_single, the
    # request stream.
    run.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return i


# -- inputs ------------------------------------------------------------------------


def make_corpus(config):
    """The synthetic corpus of a config, split as the pipeline splits it."""
    dataset = corpus.generate_synthetic(
        num_sessions=config["synthetic.sessions"],
        vocab_size=config["synthetic.items"],
        num_clusters=config["synthetic.clusters"],
        noise_rate=config["synthetic.noise"],
        seed=derive_seed(config.seed, "synthetic"),
        min_len=config["synthetic.min_len"],
        max_len=config["synthetic.max_len"],
    )
    return corpus.split(dataset, seed=derive_seed(config.seed, "split"))


def rotated_requests(train, count: int, seed: int):
    """Requests over distinct sessions, strategies rotating CED/NED/RED."""
    drawn = unlearning.sample_requests(train, count, "CED", N_EXTRA, seed=seed)
    return [replace(r, strategy=unlearning.STRATEGIES[i % 3]) for i, r in enumerate(drawn)]


# -- checks ------------------------------------------------------------------------


def state_digest(state) -> str:
    h = hashlib.sha256()
    for model in (state.reference_model, *state.sub_models, state.aggregation):
        h.update(model.params_bytes())
    h.update(state.centroids.c.tobytes())
    return h.hexdigest()


def exactness_failures(state) -> list[str]:
    """C1: each sub-model and the fusion layer must be byte-identical to
    retraining from scratch on the stored shards with the stored configs."""
    failures = []
    for k, (shard, config, model) in enumerate(
            zip(state.shards, state.shard_configs, state.sub_models)):
        if backbone.train_backbone(shard, config).params_bytes() != model.params_bytes():
            failures.append(f"sub-model {k}")
    centroids = aggregation.compute_centroids(
        state.sub_models, state.shards, source=state.centroids.source,
        reference_centroids=state.assignment.centroids)
    if centroids.c.tobytes() != state.centroids.c.tobytes():
        failures.append("centroids")
    fusion = aggregation.train_aggregation(state.sub_models, centroids,
                                           state.current_train_dataset(), state.agg_config)
    if fusion.params_bytes() != state.aggregation.params_bytes():
        failures.append("fusion layer")
    return failures


def stored_session_failures(state, original, deleted: dict) -> list[str]:
    """Each stored session must equal its original minus the deleted
    positions; sessions left with fewer than two items must be gone."""
    stored = {s.session_id: s.items for shard in state.shards for s in shard.sessions}
    failures = []
    for session in original.sessions:
        positions = set(deleted.get(session.session_id, ()))
        expected = tuple(v for p, v in enumerate(session.items) if p not in positions)
        got = stored.pop(session.session_id, None)
        if len(expected) < 2:
            if got is not None:
                failures.append(f"{session.session_id} should have been dropped")
        elif got != expected:
            failures.append(f"{session.session_id} stored as {got}, expected {expected}")
    if stored:
        failures.append(f"{len(stored)} sessions not in the original corpus")
    return failures


def check_unlearn_outcome(run: Run, before, outcome, requests, original) -> None:
    """Per-operation checks: no request skipped, exactly the touched
    sub-models replaced, stored sessions rewritten as recorded."""
    home = {s.session_id: k for k, shard in enumerate(before.shards) for s in shard.sessions}
    touched = {home[r.session_id] for r in requests}
    run.check("no request skipped", len(outcome.deletions) == len(requests),
              f"{len(requests) - len(outcome.deletions)} skipped")
    wrong = [k for k, (old, new) in enumerate(zip(before.sub_models, outcome.state.sub_models))
             if (old is new) == (k in touched)]
    run.check("only touched sub-models replaced", not wrong, f"shards {wrong}")
    deleted = {d.session_id: d.deleted_positions for d in outcome.deletions}
    failures = stored_session_failures(outcome.state, original, deleted)
    run.check("stored sessions", not failures, "; ".join(failures[:3]))


def unit_interval_failures(report: dict) -> list[str]:
    return [
        f"{metric}@{k}={value}"
        for metric in ("recall", "ndcg", "hit") for k, value in report.get(metric, {}).items()
        if not 0.0 <= value <= 1.0
    ]


# -- set-up --------------------------------------------------------------------------


def fit_setups(run: Run):
    """Generate the corpus and fit the framework state, SETUPS times."""
    digests = []
    for k in range(SETUPS):
        traced = run.trace and k == TRACED_SETUP
        run.begin()
        state = None   # the previous set-up's state must not count in its peak
        with run.phase(f"setup/{k}", "bench.setup", traced):
            started = time.perf_counter()
            with run.span("corpus"):
                train, validation, test = make_corpus(run.config)
            state = pipeline.fit_state(train, validation, run.config)
            run.sample("setup_s", time.perf_counter() - started, traced)
        digests.append(state_digest(state))
    run.check("set-up is deterministic", len(set(digests)) == 1)
    return state, train, test


def build_run_dir(run: Run, run_dir: str) -> None:
    """Pipeline stages up to one unlearn of AUDIT_REQUESTS requests."""
    config = run.config
    for stage in AUDIT_STAGES:
        with run.span(f"stage.{stage}"):
            pipeline.run_pipeline(stage, config, run_dir)
    with run.span("stage.unlearn"):
        train = checkpoint.load_datasets(os.path.join(run_dir, "dataset.sru"))["train"]
        requests = unlearning.sample_requests(
            train, AUDIT_REQUESTS, config["unlearn.strategy"], config["unlearn.n_extra"],
            seed=derive_seed(config.seed, "bench/audit"), min_target_position=2)
        path = os.path.join(run_dir, "requests.csv")
        unlearning.save_requests(requests, path)
        pipeline.run_pipeline("unlearn", config, run_dir, requests_path=path)


def dir_digest(run_dir: str) -> dict:
    """Content hash of every artifact; the timing report is excluded."""
    return {
        name: hashlib.sha256(pathlib.Path(run_dir, name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(run_dir)) if name != "unlearn_timing.json"
    }


# -- workloads -------------------------------------------------------------------------


def unlearn_single(run: Run) -> None:
    state, train, test = fit_setups(run)
    stream = rotated_requests(train, len(train), derive_seed(run.config.seed, "bench/stream"))
    deleted = {}

    def op(i, traced):
        nonlocal state
        request = stream[i]
        with run.phase(f"op/{i}", "bench.op", traced):
            started = time.perf_counter()
            outcome = unlearning.execute_unlearn(state, [request])
            run.sample("unlearn_ms", (time.perf_counter() - started) * 1e3, traced)
        deleted.update({d.session_id: d.deleted_positions for d in outcome.deletions})
        check_unlearn_outcome(run, state, outcome, [request], state.current_train_dataset())
        state = outcome.state
        if i == 0:
            quality(run, state, test)

    run.values["ops"] = closed_loop(run, op, len(stream))
    # The reference a user without sharding pays: one backbone trained
    # from scratch on the post-deletion corpus.
    post = state.current_train_dataset()
    retrain_config = backbone.BackboneConfig(
        **{**state.shard_configs[0].as_dict(), "seed": derive_seed(state.seed, "retrain")})
    started = time.perf_counter()
    backbone.train_backbone(post, retrain_config)
    run.sample("full_retrain_s", time.perf_counter() - started, False)
    failures = stored_session_failures(state, train, deleted)
    run.check("stored sessions after the stream", not failures, "; ".join(failures[:3]))
    failures = exactness_failures(state)
    run.check("C1 exact unlearning after the stream", not failures, ", ".join(failures))


def audit(run: Run) -> None:
    digests = []
    for k in range(SETUPS):
        traced = run.trace and k == TRACED_SETUP
        run_dir = os.path.join(run.workdir, f"setup-{k}")
        run.begin()
        with run.phase(f"setup/{k}", "bench.setup", traced):
            started = time.perf_counter()
            build_run_dir(run, run_dir)
            run.sample("setup_s", time.perf_counter() - started, traced)
        digests.append(dir_digest(run_dir))
        if k + 1 < SETUPS:
            shutil.rmtree(run_dir)
    run.check("set-up is deterministic", all(d == digests[0] for d in digests))
    reports = {}

    def op(i, traced):
        with run.phase(f"op/{i}", "bench.op", traced):
            started = time.perf_counter()
            pipeline.run_pipeline("eval", run.config, run_dir)
            middle = time.perf_counter()
            pipeline.run_pipeline("effectiveness", run.config, run_dir)
            ended = time.perf_counter()
        run.sample("eval_ms", (middle - started) * 1e3, traced)
        run.sample("effectiveness_ms", (ended - middle) * 1e3, traced)
        run.sample("op_ms", (ended - started) * 1e3, traced)
        blobs = {}
        for name in ("eval.json", "effectiveness.json"):
            with open(os.path.join(run_dir, name), "rb") as handle:
                blobs[name] = handle.read()
        if not reports:
            reports.update(blobs)
            for blob in blobs.values():
                failures = unit_interval_failures(json.loads(blob))
                run.check("reported values in [0, 1]", not failures, ", ".join(failures))
        else:
            run.check("reports identical across iterations", blobs == reports)

    run.values["ops"] = closed_loop(run, op, 1 << 30)
    if reports:
        ranking = json.loads(reports["eval.json"])
        run.values["recall_at_20"] = ranking["recall"]["20"]
        run.values["ndcg_at_20"] = ranking["ndcg"]["20"]
        run.values["hit_at_10"] = json.loads(reports["effectiveness.json"])["hit"]["10"]


def quality(run: Run, state, test) -> None:
    """Recall and NDCG at 20 on the test split. Measured on the state of
    the first operation, which does not depend on how many ran."""
    report = evaluation.evaluate(state.sru_model(), test, ks=(20,))
    run.values["recall_at_20"] = report.recall[20]
    run.values["ndcg_at_20"] = report.ndcg[20]


WORKLOADS = {"unlearn_single": unlearn_single, "audit": audit}
OPERATION = {"unlearn_single": "unlearn_ms", "audit": "op_ms"}


def execute(workload: str, config, seconds: float, trace: bool, workdir: str) -> Run:
    """Run one workload; every failure is recorded on the returned Run."""
    run = Run(workload, config, seconds, trace, workdir)
    os.makedirs(workdir, exist_ok=True)
    try:
        WORKLOADS[workload](run)
    except Exception:  # a failed set-up or check is reported, not raised
        if run.attempted == 0:
            run.begin()
        run.fail(traceback.format_exc(limit=5))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def median(values):
    return statistics.median(values) if values else float("nan")


def setup_split(tracer: Tracer) -> dict[str, float]:
    """Seconds per set-up phase in the traced set-up."""
    iteration = f"setup/{TRACED_SETUP}"
    roots = {i for i, span in enumerate(tracer.spans)
             if span[4] == iteration and span[0] in ("bench.setup", "fit_state")}
    split: dict[str, float] = defaultdict(float)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(tracer.spans):
        if i in roots and name == "bench.setup":
            total = end - start
        elif parent in roots and name != "fit_state":
            split[FIT_PHASES.get(name, name.removeprefix("stage."))] += end - start
    split["other"] = total - sum(split.values())
    return dict(split)
