"""Item-level unlearning: extra-deletion selection, session rewriting,
and retraining of exactly the affected sub-models plus the fusion layer.

Exactness comes from determinism rather than parameter surgery: a
retrained sub-model is the output of the ordinary training function on
the post-deletion shard with the original config and seed, so it is
bitwise identical to a model that never saw the deleted items. The
corpus embedding (the state's ``reference_model``) is NOT refit here; it
only serves partitioning and the collaborative-deletion distances. It
was fit on the deleted interactions too, which is a deliberate,
documented privacy caveat of this design.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .aggregation import (
    AggregationConfig,
    AggregationModel,
    FeatureCache,
    ShardCentroids,
    SruModel,
    build_feature_cache,
    compute_centroids,
    train_aggregation,
    updated_feature_cache,
)
from .backbone import BackboneConfig, GruModel, _training_workers, train_many_timed
from .corpus import Session, SessionDataset, parse_file
from .errors import ContractError, ParseError, PositionError, UnknownSessionError
from .numerics import derive_seed, rng_stream
from .partition import CorpusEmbedding, ShardAssignment, make_shards
from .reports import TimingReport, write_csv

STRATEGIES = ("CED", "NED", "RED")


@dataclass(frozen=True)
class UnlearnRequest:
    session_id: str
    target_position: int       # 0-based index into the stored session
    strategy: str              # CED, NED, or RED
    n_extra: int               # extra deletions beyond the target

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.n_extra < 0:
            raise ContractError(f"n_extra must be >= 0, got {self.n_extra}")
        if self.target_position < 0:
            raise PositionError(f"target_position must be >= 0, got {self.target_position}")


@dataclass
class DeletionResult:
    """Outcome of one applied request, self-contained for the audit."""

    session_id: str
    strategy: str
    n_extra: int
    target_position: int
    target_item: int
    deleted_positions: tuple[int, ...]   # includes the target position
    original_length: int
    dropped: bool                        # survivors < 2, session removed
    context_prefix: tuple[int, ...]      # survivors before the target position
    context_full: tuple[int, ...]        # all survivors


# Per DeletionResult field, in field order, from its annotation: the JSON
# types its value may have, their name, and whether it is a sequence of
# integers. The checks compare exact types, so a boolean is not an
# integer; a sequence is a list as json.load returns it, or a tuple
# straight from ``deletions_to_json``.
_JSON_TYPES = {"str": ((str,), "a string", False), "int": ((int,), "an integer", False),
               "bool": ((bool,), "true or false", False),
               "tuple[int, ...]": ((list, tuple), "a list of integers", True)}
_RECORD_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(DeletionResult)}
_INT = {int}


def deletions_to_json(deletions) -> list[dict]:
    """Audit-trail rows: one JSON-ready dict per DeletionResult."""
    return [{name: getattr(r, name) for name in _RECORD_TYPES} for r in deletions]


def deletions_from_json(rows) -> list[DeletionResult]:
    """Inverse of ``deletions_to_json``. A row with a missing or unknown
    field, or a value of the wrong type (booleans are not integers),
    raises ParseError naming its record index and the field."""
    records = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ParseError(f"audit record {index} is not an object")
        if row.keys() != _RECORD_TYPES.keys():
            missing = [name for name in _RECORD_TYPES if name not in row]
            unknown = sorted(set(row) - set(_RECORD_TYPES))
            raise ParseError(f"audit record {index}: missing fields {missing}, "
                             f"unknown fields {unknown}")
        values = []
        for name, (kinds, expected, sequence) in _RECORD_TYPES.items():
            value = row[name]
            if type(value) not in kinds or sequence and not _INT.issuperset(map(type, value)):
                raise ParseError(f"audit record {index}: field {name!r} must be "
                                 f"{expected}, got {value!r}")
            values.append(tuple(value) if sequence else value)
        records.append(DeletionResult(*values))
    return records


def _check_target(session: Session, target_position: int) -> None:
    if not 0 <= target_position < len(session):
        raise PositionError(
            f"target position {target_position} outside session "
            f"{session.session_id!r} of length {len(session)}"
        )


def ced_select(session: Session, target_position: int, n_extra: int,
               reference_model: CorpusEmbedding) -> tuple[int, ...]:
    """Collaborative extra deletion: also drop the n_extra items whose
    embeddings are closest to the target item's embedding.

    Distances use the corpus embedding's item factors (``embeddings``);
    ties break toward earlier positions.
    """
    _check_target(session, target_position)
    emb = reference_model.embeddings
    target_vec = emb[session.items[target_position]]
    candidates = [p for p in range(len(session)) if p != target_position]
    distances = {
        p: float(np.linalg.norm(emb[session.items[p]] - target_vec)) for p in candidates
    }
    candidates.sort(key=lambda p: (distances[p], p))
    chosen = candidates[: min(n_extra, len(candidates))]
    return tuple(sorted([target_position, *chosen]))


def ned_select(session: Session, target_position: int, n_extra: int) -> tuple[int, ...]:
    """Neighbor extra deletion: also drop the items immediately before
    the target."""
    _check_target(session, target_position)
    take = min(n_extra, target_position)
    return tuple(range(target_position - take, target_position + 1))


def red_select(session: Session, target_position: int, n_extra: int,
               stream: np.random.Generator) -> tuple[int, ...]:
    """Random extra deletion: also drop n_extra other positions sampled
    uniformly without replacement from the named stream."""
    _check_target(session, target_position)
    candidates = [p for p in range(len(session)) if p != target_position]
    take = min(n_extra, len(candidates))
    chosen = [candidates[int(i)] for i in stream.choice(len(candidates), size=take, replace=False)]
    return tuple(sorted([target_position, *chosen]))


# -- framework state -------------------------------------------------------------


@dataclass
class SruState:
    """Everything the unlearning flow needs to retrain selectively.

    ``corpus`` is the training corpus in stored order, the order
    ``dataset.sru`` keeps, and ``assignment`` is a full partition of
    exactly its positions: a session index is a position in ``corpus``.
    ``shards`` is derived from the two on first use, so neither may be
    changed in place. Each model keeps the config it was trained under,
    which unlearning retrains it with: ``shard_configs`` and
    ``agg_config`` read them.
    """

    reference_model: CorpusEmbedding
    corpus: SessionDataset
    assignment: ShardAssignment
    sub_models: list[GruModel]
    aggregation: AggregationModel
    seed: int = 0
    # Per-shard state table of the current corpus, owned by this state
    # alone. None until needed: execute_unlearn builds it on first use,
    # and after that hands it to the state it returns, which updates it
    # in place; the input state's field becomes None.
    feature_cache: FeatureCache | None = None

    def __post_init__(self):
        if self.assignment.shard_of.shape[0] != len(self.corpus):
            raise ContractError(
                f"partition covers {self.assignment.shard_of.shape[0]} sessions, "
                f"the training corpus has {len(self.corpus)}"
            )

    @property
    def shard_configs(self) -> list[BackboneConfig]:
        return [m.config for m in self.sub_models]

    @property
    def agg_config(self) -> AggregationConfig:
        return self.aggregation.config

    @property
    def centroids(self) -> ShardCentroids:
        """The centroids the fusion layer keeps. The property stays only
        because the benchmark harness (``bench/workloads.py``) reads it."""
        return self.aggregation.centroids

    @cached_property
    def shards(self) -> list[SessionDataset]:
        """One dataset per sub-model: ``make_shards(corpus, assignment)``."""
        return make_shards(self.corpus, self.assignment)

    def current_train_dataset(self) -> SessionDataset:
        """The full training corpus, in stored order: ``self.corpus``,
        which the library and demos read directly. The method stays only
        because the benchmark harness (``bench/workloads.py``) calls it."""
        return self.corpus

    def sru_model(self) -> SruModel:
        return SruModel(sub_models=tuple(self.sub_models), aggregation=self.aggregation)


@dataclass
class UnlearnOutcome:
    state: SruState
    timing: TimingReport
    deletions: list[DeletionResult]


def execute_unlearn(state: SruState, requests) -> UnlearnOutcome:
    """Apply a batch of unlearning requests and retrain what they touch.

    All target positions refer to sessions as stored in the corpus when
    the call starts; per session, deletions from multiple requests are
    unioned and applied once, and a request whose target position was
    already deleted by an earlier request in the batch is skipped with a
    warning. A request's positions are chosen among the survivors of the
    earlier requests on its session. The corpus is rewritten in one pass:
    sessions keep corpus order, untouched ones are carried over as the
    same objects, and one left with fewer than 2 items is dropped. The
    partition is re-indexed to the rewritten corpus, so it stays a full
    partition without holes.
    Affected sub-models are retrained from scratch on their modified
    shards with their original configs and seeds; untouched sub-models
    are returned as-is, bit for bit; several of them train across processes
    where ``train_many_timed`` finds the cores, and the timing report's
    ``retrain_workers`` says how many. The fusion layer is retrained from
    scratch on the modified full corpus (skipped when no request
    survives).

    The returned state takes over the input state's feature cache and
    updates it in place, so no second copy of the table is made; the
    input state is left with ``feature_cache = None`` and stays valid
    (unlearning it again rebuilds the cache, with the same result). A
    copy of the input state made earlier still holds the emptied cache
    and gets a ContractError; give it ``feature_cache=None`` instead.
    """
    requests = list(requests)
    started = time.perf_counter()
    if not requests:
        return UnlearnOutcome(state=state, timing=TimingReport(), deletions=[])

    # Resolve every request against the call-start sessions, building
    # each session's union of deleted positions once.
    corpus = state.corpus
    index = {s.session_id: i for i, s in enumerate(corpus.sessions)}
    deleted: dict[int, set[int]] = {}
    resolved: list[tuple[int, UnlearnRequest, tuple[int, ...]]] = []
    for request in requests:
        if request.session_id not in index:
            raise UnknownSessionError(f"session {request.session_id!r} not found in any shard")
        i = index[request.session_id]
        session = corpus.sessions[i]
        already = deleted.setdefault(i, set())
        if request.target_position in already:
            warnings.warn(
                f"position {request.target_position} of session "
                f"{request.session_id!r} was already deleted in this batch; skipping",
                stacklevel=2,
            )
            continue
        _check_target(session, request.target_position)
        # the selector sees the positions no earlier request deleted
        surviving = [p for p in range(len(session)) if p not in already]
        view = replace(session, items=tuple(session.items[p] for p in surviving))
        target = surviving.index(request.target_position)
        if request.strategy == "CED":
            chosen = ced_select(view, target, request.n_extra, state.reference_model)
        elif request.strategy == "NED":
            chosen = ned_select(view, target, request.n_extra)
        else:
            stream = rng_stream(derive_seed(state.seed, f"unlearn/red/{request.session_id}"),
                                f"red/{request.target_position}")
            chosen = red_select(view, target, request.n_extra, stream)
        positions = tuple(surviving[p] for p in chosen)
        already.update(positions)
        resolved.append((i, request, positions))

    if not resolved:
        return UnlearnOutcome(state=state, timing=TimingReport(), deletions=[])

    # Rewrite the corpus once; each result's contexts are its session's
    # survivors. Results, and so the audit trail, are grouped by shard in
    # ascending order, in request order within one.
    kept = {i: [p for p in range(len(corpus.sessions[i])) if p not in union]
            for i, union in deleted.items()}
    shard_of = state.assignment.shard_of
    resolved.sort(key=lambda r: shard_of[r[0]])
    affected = sorted({int(shard_of[i]) for i in kept})
    results = []
    for i, request, positions in resolved:
        session, survivors = corpus.sessions[i], kept[i]
        results.append(DeletionResult(
            session_id=session.session_id,
            strategy=request.strategy,
            n_extra=request.n_extra,
            target_position=request.target_position,
            target_item=session.items[request.target_position],
            deleted_positions=positions,
            original_length=len(session),
            dropped=len(survivors) < 2,
            context_prefix=tuple(session.items[p] for p in survivors
                                 if p < request.target_position),
            context_full=tuple(session.items[p] for p in survivors),
        ))
    dropped = {i for i, survivors in kept.items() if len(survivors) < 2}
    new_corpus = corpus.with_sessions(
        replace(s, items=tuple(s.items[p] for p in kept[i])) if i in kept else s
        for i, s in enumerate(corpus.sessions) if i not in dropped)
    new_state = replace(state, corpus=new_corpus,
                        assignment=state.assignment.without(dropped),
                        sub_models=list(state.sub_models))
    new_shards = new_state.shards

    # Retrain exactly the affected sub-models, from scratch.
    shard_started = time.perf_counter()
    new_models = new_state.sub_models
    per_shard_ms: dict[int, float] = {}
    retrained = train_many_timed([new_shards[k] for k in affected],
                                 [state.sub_models[k].config for k in affected])
    for k, (model, ms) in zip(affected, retrained):
        new_models[k] = model
        per_shard_ms[k] = ms
    shard_ms = (time.perf_counter() - shard_started) * 1e3

    # Refresh centroids of the affected shards, retrain the fusion layer.
    agg_started = time.perf_counter()
    centroids = compute_centroids(new_models, new_shards,
                                  previous=state.aggregation.centroids, affected=affected)
    cache_started = time.perf_counter()
    if state.feature_cache is not None:
        # updated in its own buffer, so the input state lets go of it
        old_cache, state.feature_cache = state.feature_cache, None
        cache = updated_feature_cache(old_cache, new_models, new_corpus,
                                      dirty_shards=affected,
                                      changed_session_ids={r.session_id for r in results})
    else:
        cache = build_feature_cache(new_models, new_corpus)
    new_state.feature_cache = cache
    fusion_started = time.perf_counter()
    new_state.aggregation = train_aggregation(
        new_models, centroids, new_corpus, state.aggregation.config,
        precomputed=(cache.features, cache.targets, cache.rows),
    )
    agg_ended = time.perf_counter()

    centroid_ms = (cache_started - agg_started) * 1e3
    cache_ms = (fusion_started - cache_started) * 1e3
    fusion_ms = (agg_ended - fusion_started) * 1e3
    timing = TimingReport(
        sub_model_retrain_ms=shard_ms,
        total_ms=(time.perf_counter() - started) * 1e3,
        per_shard_ms=per_shard_ms,
        retrain_workers=_training_workers(len(affected)),
        centroid_refresh_ms=centroid_ms,
        feature_cache_ms=cache_ms,
        fusion_training_ms=fusion_ms,
    )
    return UnlearnOutcome(state=new_state, timing=timing, deletions=results)


# -- request file format -----------------------------------------------------------

REQUEST_HEADER = ("session_id", "target_position", "strategy", "N")


def save_requests(requests, path) -> None:
    """Write requests in the format ``load_requests`` reads, atomically."""
    write_csv(path, REQUEST_HEADER,
              ((r.session_id, r.target_position, r.strategy, r.n_extra) for r in requests))


def load_requests(source) -> list[UnlearnRequest]:
    """Parse the request CSV ``session_id,target_position,strategy,N``
    from a file object or a path; errors in a file at a path name it."""
    if not hasattr(source, "read"):
        return parse_file(source, lambda text: load_requests(io.StringIO(text)))
    rows = list(csv.reader(io.StringIO(source.read())))
    if not rows or tuple(rows[0]) != REQUEST_HEADER:
        raise ParseError(f"request file must start with header {','.join(REQUEST_HEADER)}", 1)
    requests = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", lineno)
        sid, pos_text, strategy, n_text = row
        try:
            position = int(pos_text)
            n_extra = int(n_text)
        except ValueError:
            raise ParseError("target_position and N must be integers", lineno) from None
        try:
            requests.append(UnlearnRequest(sid, position, strategy.strip().upper(), n_extra))
        except (ContractError, PositionError) as exc:
            raise ParseError(str(exc), lineno) from None
    return requests


def sample_requests(dataset: SessionDataset, count: int, strategy: str, n_extra: int,
                    seed: int, min_target_position: int = 1) -> list[UnlearnRequest]:
    """Draw requests over distinct sessions with deep-enough targets.

    Sessions are sampled without replacement; the target position is
    uniform in [min_target_position, len - 1]. Sessions shorter than
    min_target_position + 1 are not eligible.
    """
    stream = rng_stream(seed, "unlearn/sample")
    eligible = [i for i, s in enumerate(dataset.sessions) if len(s) > min_target_position]
    if count > len(eligible):
        raise ContractError(
            f"cannot sample {count} requests from {len(eligible)} eligible sessions"
        )
    picks = stream.choice(len(eligible), size=count, replace=False)
    requests = []
    for pick in picks:
        session = dataset.sessions[eligible[int(pick)]]
        position = int(stream.integers(min_target_position, len(session)))
        requests.append(UnlearnRequest(session.session_id, position, strategy, n_extra))
    return requests
