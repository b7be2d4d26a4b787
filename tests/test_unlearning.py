import functools
import io
import json
import os
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sru.aggregation import build_feature_cache
from sru.backbone import train_backbone
from sru.corpus import ItemVocab, Session, SessionDataset, generate_synthetic
from sru.errors import (
    ContractError,
    ParseError,
    PositionError,
    SruError,
    UnknownSessionError,
)
from sru.numerics import rng_stream
from sru.partition import CorpusEmbedding, make_shards
from sru.pipeline import _write_audit
from sru.unlearning import (
    STRATEGIES,
    DeletionResult,
    UnlearnRequest,
    ced_select,
    deletions_from_json,
    deletions_to_json,
    execute_unlearn,
    load_requests,
    ned_select,
    red_select,
    sample_requests,
    save_requests,
)


def vocab4():
    return ItemVocab.from_tokens(["a", "b", "c", "x", "d"])


def reference_with_line_embeddings():
    # 1-D geometry on the first item-factor axis, scaled by 2:
    # a=5, b=1.5, c=9, x=1, d=20 so dist(b,x) < dist(a,x) < dist(c,x)
    basis = np.zeros((6, 2))
    for item, value in ((1, 5.0), (2, 1.5), (3, 9.0), (4, 1.0), (5, 20.0)):
        basis[item, 0] = value / 2
    return CorpusEmbedding(basis=basis, scale=np.array([2.0, 1.0]))


class TestCedSelect:
    def test_zero_extras_only_target(self):
        session = Session("s", (1, 2, 3, 4))
        assert ced_select(session, 3, 0, reference_with_line_embeddings()) == (3,)

    def test_nearest_embedding_joins_target(self):
        session = Session("s", (1, 2, 3, 4))  # a b c x, target x
        model = reference_with_line_embeddings()
        assert ced_select(session, 3, 1, model) == (1, 3)
        assert ced_select(session, 3, 2, model) == (0, 1, 3)

    def test_saturates_to_whole_session(self):
        session = Session("s", (1, 2, 3, 4))
        model = reference_with_line_embeddings()
        assert ced_select(session, 3, 99, model) == (0, 1, 2, 3)

    def test_distance_tie_prefers_earlier_position(self):
        session = Session("s", (2, 2, 4))  # duplicate item, both distance 0.5
        model = reference_with_line_embeddings()
        assert ced_select(session, 2, 1, model) == (0, 2)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ced_select(Session("s", (1, 2)), 2, 0, reference_with_line_embeddings())


class TestNedSelect:
    def test_two_preceding_neighbors(self):
        session = Session("s", (1, 2, 3, 4, 5))  # a b c x d, target x at 3
        assert ned_select(session, 3, 2) == (1, 2, 3)

    def test_first_position_has_no_predecessors(self):
        assert ned_select(Session("s", (1, 2, 3)), 0, 7) == (0,)

    def test_saturates_at_session_start(self):
        assert ned_select(Session("s", (1, 2, 3, 4, 5)), 3, 5) == (0, 1, 2, 3)


class TestRedSelect:
    def test_zero_extras(self):
        stream = rng_stream(0, "red")
        assert red_select(Session("s", (1, 2, 3)), 1, 0, stream) == (1,)

    def test_same_stream_same_selection(self):
        session = Session("s", (1, 2, 3, 4, 5))
        a = red_select(session, 2, 2, rng_stream(5, "red"))
        b = red_select(session, 2, 2, rng_stream(5, "red"))
        assert a == b

    def test_saturates_to_whole_session(self):
        stream = rng_stream(1, "red")
        assert red_select(Session("s", (1, 2, 3, 4)), 1, 3, stream) == (0, 1, 2, 3)

    @given(st.integers(2, 12), st.integers(0, 15), st.integers(0, 100))
    def test_selection_size_is_one_plus_min(self, length, n_extra, seed):
        session = Session("s", tuple([1] * length))
        target = seed % length
        out = red_select(session, target, n_extra, rng_stream(seed, "red"))
        assert len(out) == 1 + min(n_extra, length - 1)
        assert target in out
        assert len(set(out)) == len(out)


@functools.cache
def tiny_state():
    """Two shards over s1 = (a, b, c, x, d), s2 = (d, x, c, b) and ten
    short filler sessions, small enough that a batch unlearns in
    milliseconds. Shared, so a test must not change it in place."""
    from sru.config import ExperimentConfig
    from sru.pipeline import fit_state

    filler = [(1, 2, 3), (2, 3, 4, 5), (5, 1), (3, 4), (4, 5, 1, 2), (1, 3, 5), (2, 4),
              (5, 4, 3), (1, 2), (3, 5, 2, 4)]
    sessions = (Session("s1", (1, 2, 3, 4, 5)), Session("s2", (5, 4, 3, 2)),
                *(Session(f"f{j}", items) for j, items in enumerate(filler)))
    config = ExperimentConfig.defaults(**{"seed": 3, "partition.k": 2, "backbone.d": 4,
                                          "backbone.epochs": 1, "agg.f": 4, "agg.epochs": 1})
    return fit_state(SessionDataset(sessions=sessions, vocab=vocab4()), None, config)


def stored(state, session_id):
    return next((s for s in state.corpus.sessions if s.session_id == session_id), None)


class TestRewrite:
    """``execute_unlearn`` rewrites the corpus once for the whole batch."""

    def test_survivors_keep_order(self):
        outcome = execute_unlearn(tiny_state(), [UnlearnRequest("s1", 3, "NED", 2)])
        (result,) = outcome.deletions
        assert stored(outcome.state, "s1").items == (1, 5)  # [a, d]
        assert result.deleted_positions == (1, 2, 3)
        assert not result.dropped
        assert result.context_prefix == (1,)
        assert result.context_full == (1, 5)
        assert result.target_item == 4

    def test_session_dropped_below_two_items(self):
        state = tiny_state()
        outcome = execute_unlearn(state, [UnlearnRequest("s2", 2, "NED", 2)])
        (result,) = outcome.deletions
        assert result.dropped and result.deleted_positions == (0, 1, 2)
        assert ([s.session_id for s in outcome.state.corpus.sessions]
                == [s.session_id for s in state.corpus.sessions if s.session_id != "s2"])

    def test_untouched_sessions_identical(self):
        state = tiny_state()
        outcome = execute_unlearn(state, [UnlearnRequest("s1", 0, "RED", 0)])
        before, after = state.corpus.sessions, outcome.state.corpus.sessions
        assert after[0].items == before[0].items[1:]
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after[1:], before[1:]))

    def test_requests_on_one_session_share_one_rewrite(self):
        outcome = execute_unlearn(tiny_state(), [UnlearnRequest("s1", 1, "NED", 0),
                                                 UnlearnRequest("s1", 3, "NED", 0)])
        results = outcome.deletions
        assert stored(outcome.state, "s1").items == (1, 3, 5)
        assert [r.deleted_positions for r in results] == [(1,), (3,)]
        assert all(r.context_full == (1, 3, 5) for r in results)
        assert results[1].context_prefix == (1, 3)

    def test_a_later_request_selects_among_the_survivors(self):
        # after position 1 goes, the two neighbours before position 3 are
        # positions 2 and 0
        outcome = execute_unlearn(tiny_state(), [UnlearnRequest("s1", 1, "NED", 0),
                                                 UnlearnRequest("s1", 3, "NED", 2)])
        assert [r.deleted_positions for r in outcome.deletions] == [(1,), (0, 2, 3)]
        assert all(r.dropped and r.context_full == (5,) for r in outcome.deletions)
        assert stored(outcome.state, "s1") is None

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_each_session_loses_the_union_of_its_results(self, cores, data):
        cores(1)
        state = tiny_state()
        sessions = state.corpus.sessions
        pool = data.draw(st.lists(st.integers(0, len(sessions) - 1), min_size=1, max_size=4,
                                  unique=True), label="sessions")
        requests = []
        for i in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8),
                           label="picks"):
            s = sessions[i]
            requests.append(UnlearnRequest(s.session_id, data.draw(st.integers(0, len(s) - 1)),
                                           data.draw(st.sampled_from(STRATEGIES)),
                                           data.draw(st.integers(0, 5))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            outcome = execute_unlearn(state, requests)

        union = {}
        for r in outcome.deletions:
            assert r.target_position in r.deleted_positions
            union.setdefault(r.session_id, set()).update(r.deleted_positions)
        # a request is skipped only when an earlier one deleted its target
        for request in requests:
            assert request.target_position in union[request.session_id]
        assert len(outcome.deletions) <= len(requests)
        after = {s.session_id: s for s in outcome.state.corpus.sessions}
        assert list(after) == [s.session_id for s in sessions if s.session_id in after]
        for s in sessions:
            if s.session_id not in union:
                assert after[s.session_id] is s
                continue
            survivors = [p for p in range(len(s)) if p not in union[s.session_id]]
            items = tuple(s.items[p] for p in survivors)
            if len(items) < 2:
                assert s.session_id not in after
            else:
                assert after[s.session_id].items == items
            for r in outcome.deletions:
                if r.session_id == s.session_id:
                    assert r.dropped == (len(items) < 2)
                    assert r.context_full == items
                    assert r.context_prefix == tuple(s.items[p] for p in survivors
                                                     if p < r.target_position)


class TestDeletionJson:
    def results(self):
        requests = [UnlearnRequest("s1", 3, "NED", 2), UnlearnRequest("s2", 0, "CED", 3)]
        results = execute_unlearn(tiny_state(), requests).deletions
        return sorted(results, key=lambda r: r.session_id)

    def test_round_trip_through_json_text(self):
        results = self.results()
        text = json.dumps(deletions_to_json(results), sort_keys=True, indent=2)
        assert deletions_from_json(json.loads(text)) == results

    positions = st.lists(st.integers(0, 10**6), max_size=6).map(tuple)
    deletion_results = st.lists(st.builds(
        DeletionResult, session_id=st.text(max_size=8), strategy=st.sampled_from(STRATEGIES),
        n_extra=st.integers(0, 99), target_position=st.integers(0, 99),
        target_item=st.integers(1, 10**6), deleted_positions=positions,
        original_length=st.integers(0, 99), dropped=st.booleans(),
        context_prefix=positions, context_full=positions), max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(deletion_results)
    def test_json_rows_and_tuple_rows_read_back_equal(self, results):
        # json.load gives the sequence fields as lists, deletions_to_json
        # holds them as tuples; one decoder reads both back alike.
        rows = deletions_to_json(results)
        assert deletions_from_json(json.loads(json.dumps(rows))) == results
        assert deletions_from_json(rows) == results

    def test_rows_hold_every_field(self):
        rows = deletions_to_json(self.results())
        assert rows[0] == {
            "session_id": "s1", "strategy": "NED", "n_extra": 2, "target_position": 3,
            "target_item": 4, "deleted_positions": (1, 2, 3), "original_length": 5,
            "dropped": False, "context_prefix": (1,), "context_full": (1, 5),
        }
        assert rows[1]["dropped"] is True and rows[1]["context_full"] == ()

    @settings(max_examples=60, deadline=None)
    @given(deletion_results)
    def test_rows_are_the_asdict_form_and_write_the_same_audit(self, results):
        rows = deletions_to_json(results)
        assert rows == [asdict(r) for r in results]
        assert [list(row) for row in rows] == [list(asdict(r)) for r in results]
        expected = json.dumps({"config_hash": "h", "records": [asdict(r) for r in results]},
                              sort_keys=True, indent=2) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "audit.json")
            _write_audit(path, results, {"config_hash": "h"})
            with open(path, "rb") as handle:
                assert handle.read() == expected.encode("utf-8")

    def test_unknown_field_names_the_record(self):
        rows = deletions_to_json(self.results())
        rows[0]["modified_session"] = None
        with pytest.raises(ParseError,
                           match=r"audit record 0: .*unknown fields \['modified_session'\]"):
            deletions_from_json(rows)

    def test_non_object_record_rejected(self):
        with pytest.raises(ParseError, match="audit record 0 is not an object"):
            deletions_from_json([[1, 2]])

    @pytest.mark.parametrize("field, value, expected", [
        ("target_item", "7", "an integer"),
        ("target_item", None, "an integer"),
        ("target_item", True, "an integer"),
        ("n_extra", 1.0, "an integer"),
        ("session_id", 3, "a string"),
        ("strategy", None, "a string"),
        ("dropped", 0, "true or false"),
        ("deleted_positions", [1, "2"], "a list of integers"),
        ("context_prefix", 4, "a list of integers"),
        ("context_full", [1, None], "a list of integers"),
        ("deleted_positions", [1, True], "a list of integers"),
        ("context_full", [True], "a list of integers"),
    ])
    def test_wrong_value_type_names_record_and_field(self, field, value, expected):
        rows = json.loads(json.dumps(deletions_to_json(self.results())))
        rows[1][field] = value
        with pytest.raises(ParseError, match=rf"audit record 1: field '{field}' must be {expected}"):
            deletions_from_json(rows)


@pytest.fixture(scope="module")
def small_state():
    from sru.config import ExperimentConfig
    from sru.pipeline import fit_state
    from sru.corpus import split

    config = ExperimentConfig.defaults(**{
        "seed": 5,
        "synthetic.sessions": 240,
        "synthetic.items": 40,
        "synthetic.clusters": 4,
        "partition.k": 4,
        "backbone.d": 12,
        "backbone.epochs": 3,
        "agg.f": 8,
        "agg.epochs": 2,
    })
    data = generate_synthetic(240, 40, 4, noise_rate=0.1,
                              seed=config.seed, min_len=6, max_len=10)
    train, val, _ = split(data, seed=config.seed)
    return fit_state(train, val, config), config


class TestExecuteUnlearn:
    def test_zero_requests_is_identity(self, small_state):
        state, _ = small_state
        outcome = execute_unlearn(state, [])
        assert outcome.state is state
        assert outcome.timing.total_ms == 0.0
        assert outcome.timing.sub_model_retrain_ms == 0.0
        assert outcome.timing.aggregation_retrain_ms == 0.0
        assert outcome.deletions == []

    def test_timing_phases_fit_in_total(self, small_state):
        state, _ = small_state
        session = state.shards[1].sessions[0]
        timing = execute_unlearn(state, [UnlearnRequest(session.session_id, 2, "NED", 1)]).timing
        phases = (timing.centroid_refresh_ms, timing.feature_cache_ms, timing.fusion_training_ms)
        assert all(p > 0 for p in phases)
        assert timing.aggregation_retrain_ms == pytest.approx(sum(phases), rel=1e-12)
        assert timing.sub_model_retrain_ms + sum(phases) <= timing.total_ms

    def test_state_reads_each_config_from_its_model(self, small_state):
        state, config = small_state
        session = state.shards[1].sessions[0]
        after = execute_unlearn(state, [UnlearnRequest(session.session_id, 2, "NED", 1)]).state
        for s in (state, after):
            assert s.shard_configs == [m.config for m in s.sub_models]
            assert s.agg_config == s.aggregation.config
        assert after.shard_configs == state.shard_configs == [
            config.backbone_config(f"shard-{k}") for k in range(4)]
        assert after.agg_config == state.agg_config == config.aggregation_config()

    def test_per_shard_timing_covers_exactly_the_retrained_shards(self, small_state, cores):
        state, _ = small_state
        requests = [UnlearnRequest(state.shards[k].sessions[0].session_id, 2, "NED", 1)
                    for k in (0, 2)]
        cores(1)      # in process, so the shard times add up inside the phase
        serial = execute_unlearn(state, requests)
        assert sorted(serial.timing.per_shard_ms) == [0, 2]
        assert all(ms > 0 for ms in serial.timing.per_shard_ms.values())
        assert sum(serial.timing.per_shard_ms.values()) <= serial.timing.sub_model_retrain_ms

    def test_parallel_path_fills_per_shard_timing(self, small_state, cores):
        state, _ = small_state
        requests = [UnlearnRequest(state.shards[k].sessions[0].session_id, 2, "NED", 1)
                    for k in (1, 3)]
        cores(1)
        serial = execute_unlearn(state, requests)
        assert serial.timing.retrain_workers == 1 and cores.pools == []
        cores(2)
        parallel = execute_unlearn(state, requests)
        assert parallel.timing.retrain_workers == 2 and cores.pools == [2]
        assert sorted(parallel.timing.per_shard_ms) == [1, 3]
        assert all(ms > 0 for ms in parallel.timing.per_shard_ms.values())
        for a, b in zip(serial.state.sub_models, parallel.state.sub_models):
            assert a.params_bytes() == b.params_bytes()
        assert (serial.state.aggregation.params_bytes()
                == parallel.state.aggregation.params_bytes())

    def test_only_affected_shard_retrained_and_exact(self, small_state):
        state, _ = small_state
        shard_id = 2
        victims = [s.session_id for s in state.shards[shard_id].sessions[:3]]
        requests = [UnlearnRequest(sid, 2, "NED", 1) for sid in victims]
        outcome = execute_unlearn(state, requests)

        for k in range(4):
            if k == shard_id:
                assert outcome.state.sub_models[k] is not state.sub_models[k]
            else:
                assert outcome.state.sub_models[k] is state.sub_models[k]
                assert (outcome.state.sub_models[k].params_bytes()
                        == state.sub_models[k].params_bytes())

        # the exact-unlearning property: retraining from scratch on the
        # post-deletion shard reproduces the sub-model bit for bit
        fresh = train_backbone(outcome.state.shards[shard_id],
                               state.shard_configs[shard_id])
        assert fresh.params_bytes() == outcome.state.sub_models[shard_id].params_bytes()

        # deleted items are gone from the stored sessions
        for sid, result in zip(victims, outcome.deletions):
            stored = [s for s in outcome.state.shards[shard_id].sessions
                      if s.session_id == sid]
            if not result.dropped:
                assert len(stored[0]) == result.original_length - len(result.deleted_positions)

    def test_target_removed_under_every_strategy(self, small_state):
        state, _ = small_state
        session = state.shards[1].sessions[0]
        for strategy in ("CED", "NED", "RED"):
            for n_extra in (0, 2):
                outcome = execute_unlearn(
                    state, [UnlearnRequest(session.session_id, 3, strategy, n_extra)]
                )
                result = outcome.deletions[0]
                assert 3 in result.deleted_positions
                assert result.target_item == session.items[3]

    def test_repeated_target_warns_and_skips(self, small_state):
        state, _ = small_state
        sid = state.shards[0].sessions[0].session_id
        requests = [UnlearnRequest(sid, 2, "NED", 0), UnlearnRequest(sid, 2, "NED", 0)]
        with pytest.warns(UserWarning, match="already deleted") as record:
            outcome = execute_unlearn(state, requests)
        skips = [w for w in record if "already deleted" in str(w.message)]
        assert [w.filename for w in skips] == [__file__]  # points at the caller
        assert len(outcome.deletions) == 1

    def test_results_grouped_by_shard_in_request_order(self, small_state):
        state, _ = small_state
        picks = [(3, 0), (0, 0), (3, 1), (1, 0)]
        requests = [UnlearnRequest(state.shards[k].sessions[i].session_id, 1, "NED", 0)
                    for k, i in picks]
        outcome = execute_unlearn(state, requests)
        order = [requests[j].session_id for j in (1, 3, 0, 2)]
        assert [d.session_id for d in outcome.deletions] == order

    def test_dropped_session_leaves_a_full_partition_of_the_corpus(self, small_state):
        state, _ = small_state
        session = state.shards[2].sessions[1]
        last = len(session) - 1
        outcome = execute_unlearn(state, [UnlearnRequest(session.session_id, last, "NED",
                                                         len(session))])
        assert outcome.deletions[0].dropped
        after = outcome.state
        assert len(after.current_train_dataset()) == len(state.current_train_dataset()) - 1
        after.assignment.validate()
        assert make_shards(after.current_train_dataset(), after.assignment) == after.shards

    def test_a_whole_shard_can_be_unlearned(self):
        # One RED request per session of shard 0, each deleting the whole
        # session: the shard is left with no session, its sub-model is the
        # seeded initialisation and its centroid zero, and every model
        # equals a retrain from scratch, as does the cache updated in place.
        from sru.aggregation import compute_centroids, train_aggregation
        from sru.backbone import init_gru_model

        state = with_cache(tiny_state())
        victims = state.shards[0].sessions
        assert len(victims) == 6
        outcome = execute_unlearn(state, [UnlearnRequest(s.session_id, 0, "RED", len(s))
                                          for s in victims])
        after = outcome.state
        assert all(d.dropped for d in outcome.deletions)
        assert len(after.shards[0]) == 0 and not np.any(after.assignment.shard_of == 0)
        configs = state.shard_configs
        init = init_gru_model(state.corpus.num_items(), configs[0])
        assert after.sub_models[0].params_bytes() == init.params_bytes()
        for k, shard in enumerate(after.shards):
            fresh = train_backbone(shard, configs[k])
            assert fresh.params_bytes() == after.sub_models[k].params_bytes()
        centroids = compute_centroids(after.sub_models, after.shards)
        assert not centroids.c[0].any()
        assert centroids.c.tobytes() == after.centroids.c.tobytes()
        fusion = train_aggregation(after.sub_models, centroids, after.corpus, state.agg_config)
        assert fusion.params_bytes() == after.aggregation.params_bytes()
        assert_cache_is_rebuild(after)

    def test_unknown_session_rejected(self, small_state):
        state, _ = small_state
        with pytest.raises(KeyError):
            execute_unlearn(state, [UnlearnRequest("nope", 0, "NED", 0)])

    def test_request_errors_are_typed(self, small_state):
        state, _ = small_state
        session = state.corpus.sessions[0]
        with pytest.raises(PositionError, match="outside session") as info:
            execute_unlearn(state, [UnlearnRequest(session.session_id, len(session), "CED", 0)])
        assert isinstance(info.value, SruError) and isinstance(info.value, IndexError)
        with pytest.raises(UnknownSessionError) as info:
            execute_unlearn(state, [UnlearnRequest("nope", 0, "NED", 0)])
        assert isinstance(info.value, SruError) and isinstance(info.value, KeyError)
        with pytest.raises(PositionError, match="must be >= 0"):
            UnlearnRequest(session.session_id, -1, "NED", 0)

    def test_unknown_session_among_known_ones_names_it(self, small_state):
        state, _ = small_state
        known = [UnlearnRequest(state.shards[k].sessions[-1].session_id, 1, "CED", 0)
                 for k in range(4)]
        with pytest.raises(KeyError, match="'nope' not found in any shard"):
            execute_unlearn(state, known[:2] + [UnlearnRequest("nope", 0, "NED", 0)] + known[2:])

    def test_aggregation_retrained_from_scratch(self, small_state):
        state, _ = small_state
        sid = state.shards[3].sessions[0].session_id
        outcome = execute_unlearn(state, [UnlearnRequest(sid, 2, "CED", 1)])
        from sru.aggregation import train_aggregation
        fresh = train_aggregation(outcome.state.sub_models, outcome.state.centroids,
                                  outcome.state.current_train_dataset(),
                                  state.agg_config)
        assert fresh.params_bytes() == outcome.state.aggregation.params_bytes()


def with_cache(state):
    """A copy of the state that owns a freshly built feature cache."""
    return replace(state, feature_cache=build_feature_cache(state.sub_models, state.corpus))


def assert_cache_is_rebuild(state):
    """The state's cache, read through its rows, equals one built from
    scratch: the points' states, their targets and each session's number
    of points."""
    full = build_feature_cache(state.sub_models, state.corpus)
    cache = state.feature_cache
    assert cache.features.dtype == full.features.dtype
    assert cache.features[cache.rows].tobytes() == full.features.tobytes()
    assert cache.targets.tobytes() == full.targets.tobytes()
    assert ({sid: n for sid, (_, n) in cache.row_slices.items()}
            == {sid: n for sid, (_, n) in full.row_slices.items()})


@pytest.fixture(scope="module")
def wide_state():
    """Eight shards over 1200 sessions: the feature table (3.4 MB) is the
    largest array an unlearn call touches."""
    from sru.config import ExperimentConfig
    from sru.corpus import split
    from sru.pipeline import fit_state

    config = ExperimentConfig.defaults(**{
        "seed": 5, "synthetic.sessions": 1200, "synthetic.items": 40,
        "synthetic.clusters": 4, "partition.k": 8, "backbone.d": 16,
        "backbone.epochs": 1, "agg.f": 8, "agg.epochs": 1,
    })
    data = generate_synthetic(1200, 40, 4, noise_rate=0.1, seed=5, min_len=6, max_len=10)
    train, val, _ = split(data, seed=5)
    return fit_state(train, val, config)


class TestFeatureCacheHandover:
    def requests(self, state):
        return [UnlearnRequest(state.shards[k].sessions[0].session_id, 2, "NED", 1)
                for k in (0, 3)]

    def test_new_state_takes_the_cache_and_the_input_stays_valid(self, small_state):
        state = with_cache(small_state[0])
        table = state.feature_cache.features
        requests = self.requests(state)
        first = execute_unlearn(state, requests)
        assert state.feature_cache is None
        assert np.shares_memory(first.state.feature_cache.features, table)
        assert_cache_is_rebuild(first.state)

        again = execute_unlearn(state, requests)
        assert state.feature_cache is None
        for a, b in zip(first.state.sub_models, again.state.sub_models):
            assert a.params_bytes() == b.params_bytes()
        assert first.state.centroids.c.tobytes() == again.state.centroids.c.tobytes()
        assert (first.state.aggregation.params_bytes()
                == again.state.aggregation.params_bytes())
        cached, built = first.state.feature_cache, again.state.feature_cache
        assert cached.features[cached.rows].tobytes() == built.features[built.rows].tobytes()
        assert first.deletions == again.deletions

    def test_a_copy_that_shares_a_handed_over_cache_is_contract_error(self, small_state):
        # replace() copies the cache reference; after one copy's unlearn
        # the other's rows are stale, so using them must fail loudly
        state = with_cache(small_state[0])
        twin = replace(state)
        requests = self.requests(state)
        first = execute_unlearn(state, requests)
        assert twin.feature_cache is not None and twin.feature_cache.features is None
        with pytest.raises(ContractError, match="already updated in place"):
            execute_unlearn(twin, requests)
        again = execute_unlearn(replace(twin, feature_cache=None), requests)
        assert (first.state.aggregation.params_bytes()
                == again.state.aggregation.params_bytes())

    def test_unlearn_allocates_no_second_table(self, wide_state):
        # the former update wrote a new table beside the old one (2.4x)
        state = with_cache(wide_state)
        table = state.feature_cache.features.nbytes
        requests = [UnlearnRequest(state.shards[1].sessions[0].session_id, 2, "NED", 1)]
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            outcome = execute_unlearn(state, requests)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.0 * table

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_in_place_cache_equals_a_rebuild_along_a_chain(self, small_state, data):
        # Three batches of random requests, one of which names a session
        # of every shard and drops one of them; after each, the cache
        # updated in place equals one built from scratch, in the one
        # buffer of its first build, whose rows never change in number.
        state = with_cache(small_state[0])
        buffer = state.feature_cache.features
        table_rows = len(buffer)
        every_shard = data.draw(st.integers(0, 2), label="every-shard batch")
        for step in range(3):
            sessions = state.corpus.sessions
            if step == every_shard:
                picks = [int(np.flatnonzero(state.assignment.shard_of == k)[0])
                         for k in range(state.assignment.k)]
            else:
                picks = data.draw(st.lists(st.integers(0, len(sessions) - 1),
                                           min_size=1, max_size=4, unique=True))
            requests = []
            for j, i in enumerate(picks):
                s = sessions[i]
                drop = step == every_shard and j == 0
                requests.append(UnlearnRequest(
                    s.session_id,
                    data.draw(st.integers(0, len(s) - 1)),
                    "CED" if drop else data.draw(st.sampled_from(STRATEGIES)),
                    len(s) if drop else data.draw(st.integers(0, 3)),
                ))
            outcome = execute_unlearn(state, requests)
            assert state.feature_cache is None
            if step == every_shard:
                assert outcome.deletions[0].dropped
                assert len(outcome.state.corpus) < len(state.corpus)
            state = outcome.state
            assert_cache_is_rebuild(state)
            assert state.feature_cache.features is buffer and len(buffer) == table_rows


class TestRequestFile:
    def test_round_trip(self, tmp_path):
        requests = [
            UnlearnRequest("s1", 3, "CED", 2),
            UnlearnRequest("s2", 0, "RED", 0),
        ]
        path = tmp_path / "requests.csv"
        save_requests(requests, path)
        assert load_requests(path) == requests

    def test_session_id_with_comma_and_quote_round_trips(self, tmp_path):
        requests = [UnlearnRequest('a,"b"', 1, "NED", 0), UnlearnRequest("c", 2, "RED", 3)]
        path = tmp_path / "requests.csv"
        save_requests(requests, path)
        assert load_requests(path) == requests

    def test_write_failing_at_rename_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "requests.csv"
        save_requests([UnlearnRequest("s1", 3, "CED", 2)], path)
        previous = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_requests([UnlearnRequest("s2", 1, "NED", 0)] * 3, path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["requests.csv"]

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            load_requests(io.StringIO("s1,3,CED,2\n"))

    def test_bad_strategy_cites_line(self):
        text = "session_id,target_position,strategy,N\ns1,3,WAT,2\n"
        with pytest.raises(ParseError, match="line 2"):
            load_requests(io.StringIO(text))

    def test_non_integer_fields_rejected(self):
        text = "session_id,target_position,strategy,N\ns1,three,CED,2\n"
        with pytest.raises(ParseError):
            load_requests(io.StringIO(text))


class TestSampleRequests:
    def test_distinct_sessions_and_depth(self):
        data = generate_synthetic(50, 30, 2, seed=1, min_len=8, max_len=12)
        requests = sample_requests(data, 20, "CED", 2, seed=3, min_target_position=6)
        assert len({r.session_id for r in requests}) == 20
        assert all(r.target_position >= 6 for r in requests)

    def test_too_many_requests_rejected(self):
        data = generate_synthetic(5, 30, 2, seed=1)
        with pytest.raises(ContractError):
            sample_requests(data, 50, "NED", 1, seed=0)
