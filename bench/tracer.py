"""Span tracer that wraps the library from the outside.

The library binds names with ``from .numerics import sigmoid``, so a
function is patched in every ``sru`` namespace that holds it, not only in
the module that defines it. Spans live in memory as
``(name, start, end, parent, iteration)`` tuples and are written out once
the run ends. A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "backbone", "numerics", "partition", "aggregation",
    "unlearning", "evaluation", "checkpoint", "pipeline",
)
TRACED_METHODS = (("aggregation", "SruModel", "predict_batch"),)

# Public helpers that stay inside their caller's self time: per-request
# position selection belongs to execute_unlearn, and container framing
# belongs to the typed load/save functions that call it.
UNTRACED = frozenset({
    "derive_seed", "select_positions", "ced_select", "ned_select", "red_select",
    "metrics_at_k", "load_container", "save_container", "check_config_hash",
})
# Called once per ranked row: counted, never given a span, so that the
# ranking loop stays in evaluate's self time.
COUNT_ONLY = frozenset({"rank_from_logits"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _training_positions(sessions, max_len):
    return sum(max(0, min(len(s), max_len) - 1) for s in sessions)


def _count_train_backbone(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    config = _arg(args, kwargs, 1, "config")
    per_epoch = _training_positions(dataset.sessions, config.max_len)
    yield "positions", per_epoch * len(result.loss_history)


def _count_train_aggregation(args, kwargs, result):
    precomputed = kwargs.get("precomputed", args[4] if len(args) > 4 else None)
    if precomputed is not None:
        yield "rows", precomputed[0].shape[0]
    else:
        sub_models = _arg(args, kwargs, 0, "sub_models")
        train = _arg(args, kwargs, 2, "train_data")
        yield "rows", _training_positions(train.sessions, sub_models[0].max_len)


def _count_updated_feature_cache(args, kwargs, result):
    cache = _arg(args, kwargs, 0, "cache")
    dirty = set(_arg(args, kwargs, 3, "dirty_shards"))
    changed = set(_arg(args, kwargs, 4, "changed_session_ids"))
    rows, k = result.features.shape[:2]
    reused_rows = sum(
        n for sid, (_, n) in result.row_slices.items()
        if sid not in changed and sid in cache.row_slices
    )
    yield "cells", rows * k
    yield "cells_reused", reused_rows * (k - len(dirty))


def _count_execute_unlearn(args, kwargs, result):
    before = _arg(args, kwargs, 0, "state")
    requests = _arg(args, kwargs, 1, "requests")
    yield "requests", len(requests)
    yield "requests_skipped", len(requests) - len(result.deletions)
    yield "positions_deleted", sum(len(d.deleted_positions) for d in result.deletions)
    yield "shards_retrained", sum(
        1 for old, new in zip(before.sub_models, result.state.sub_models) if old is not new
    )


COUNTERS = {
    "train_backbone": _count_train_backbone,
    "train_aggregation": _count_train_aggregation,
    "updated_feature_cache": _count_updated_feature_cache,
    "execute_unlearn": _count_execute_unlearn,
    "prefix_states": lambda a, k, r: [("rows", _arg(a, k, 1, "ids").shape[0])],
    "cross_entropy_rows": lambda a, k, r: [("rows", _arg(a, k, 0, "logits").shape[0])],
    "balanced_kmeans": lambda a, k, r: [("iterations", r.iterations_run)],
    "load_checkpoint": lambda a, k, r: [("bytes", os.path.getsize(_arg(a, k, 0, "path")))],
    "save_checkpoint": lambda a, k, r: [("bytes", r)],
}


class Tracer:
    """In-memory spans and counts for one benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.iteration: str | None = None
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.iteration)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.iteration, key)] += value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.count(f"{name}.calls")
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name, start)
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    tracer.count(f"{name}.{key}", value)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, iteration in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - self._epoch, "end": end - self._epoch,
                    "parent": parent, "iteration": iteration,
                }) + "\n")


def traceable_functions() -> dict:
    """Every traced callable, keyed by span name: public functions of the
    traced modules plus the listed methods."""
    targets = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"sru.{short}")
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_") and name not in UNTRACED):
                targets[name] = value
    for short, cls_name, method in TRACED_METHODS:
        cls = getattr(importlib.import_module(f"sru.{short}"), cls_name)
        targets[f"{cls_name}.{method}"] = cls.__dict__[method]
    return targets


class Patch:
    """Installs tracer wrappers wherever the library looks a traced
    function up, and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        targets = traceable_functions()
        by_id = {id(fn): name for name, fn in targets.items()}
        wrappers = {name: tracer.wrap(name, fn) for name, fn in targets.items()}
        self.sites = []    # (namespace owner, attribute, original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "sru" or module_name.startswith("sru.")):
                continue
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is targets[name] and "." not in name:
                    self.sites.append((module, attr, value, wrappers[name]))
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"sru.{short}"), cls_name)
            name = f"{cls_name}.{method}"
            self.sites.append((cls, method, targets[name], wrappers[name]))

    def __enter__(self):
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)
        return False

    def restored(self) -> bool:
        """True when every patched site holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original, _ in self.sites)


def summarize(tracer: Tracer, prefix: str) -> tuple[dict, int]:
    """Per-iteration averages over iterations whose id starts with prefix.

    Returns ({key: value}, iterations) where keys are
    ``<span>.s`` / ``<span>.self_s`` (self seconds), ``<span>.total_s``,
    ``<span>.calls`` and every recorded count.
    """
    iterations = {s[4] for s in tracer.spans if s[4] is not None and s[4].startswith(prefix)}
    iterations |= {it for it, _ in tracer.counts if it is not None and it.startswith(prefix)}
    self_time = [end - start for _, start, end, _, _ in tracer.spans]
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            self_time[parent] -= end - start
    totals: dict = defaultdict(float)
    for index, (name, start, end, parent, iteration) in enumerate(tracer.spans):
        if iteration not in iterations:
            continue
        totals[f"{name}.s"] += self_time[index]
        totals[f"{name}.total_s"] += end - start
        totals[f"{name}.calls"] += 1
    for (iteration, key), value in tracer.counts.items():
        if iteration in iterations:
            totals[key] += value
    n = len(iterations)
    out = {key: value / n for key, value in totals.items()} if n else {}
    for key in list(out):
        if key.endswith(".s"):
            out[key[:-2] + ".self_s"] = out[key]
    return out, n
