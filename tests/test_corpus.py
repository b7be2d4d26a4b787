import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sru import corpus
from sru.config import ExperimentConfig
from sru.corpus import (
    ItemVocab,
    Session,
    SessionDataset,
    generate_synthetic,
    ingest_log,
    preprocess,
    split,
)
from sru.errors import ContractError, EmptyDatasetError, ParseError
from sru.partition import make_shards
from sru.pipeline import fit_state
from sru.unlearning import UnlearnRequest, execute_unlearn
from reference import assignment_from_members, dataset_to_raw


def tsv(rows):
    return "\n".join("\t".join(str(f) for f in row) for row in rows) + "\n"


class TestIngest:
    def test_empty_input_is_empty_collection(self):
        assert ingest_log("") == {}

    def test_rows_sorted_by_timestamp(self):
        text = tsv([("s1", "a", 5), ("s1", "b", 1), ("s1", "c", 3)])
        groups = ingest_log(text)
        assert groups == {"s1": [("b", 1), ("c", 3), ("a", 5)]}

    def test_timestamp_ties_keep_input_order(self):
        text = tsv([("s1", "a", 2), ("s1", "b", 2), ("s1", "c", 1)])
        assert ingest_log(text)["s1"] == [("c", 1), ("a", 2), ("b", 2)]

    def test_bad_timestamp_cites_line_number(self):
        rows = [("s1", "a", 1)] * 6 + [("s1", "b", "soon")]
        with pytest.raises(ParseError, match="line 7"):
            ingest_log(tsv(rows))

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            ingest_log("just-one-field\n")

    def test_bytes_and_stream_inputs_agree(self):
        text = tsv([("s1", "a", 1), ("s2", "b", 2)])
        assert ingest_log(text) == ingest_log(text.encode()) == ingest_log(io.StringIO(text))


def session_rows(sid, tokens, start=0):
    return [(sid, tok, start + i) for i, tok in enumerate(tokens)]


class TestPreprocess:
    def test_all_rare_items_filtered_is_error(self):
        raw = ingest_log(tsv(session_rows("s1", ["a", "b", "c", "d", "e"])))
        with pytest.raises(EmptyDatasetError):
            preprocess(raw, min_count=5, max_len=10)

    def test_truncates_to_last_max_len(self):
        tokens = [f"t{i}" for i in range(12)]
        rows = []
        for sid in ("s1", "s2", "s3", "s4", "s5"):
            rows += session_rows(sid, tokens)
        data = preprocess(ingest_log(tsv(rows)), min_count=5, max_len=10)
        kept = [data.vocab.token_of(i) for i in data.sessions[0].items]
        assert kept == tokens[-10:]

    def test_item_filter_runs_before_session_filter(self):
        # "x" appears once and is removed, which shortens s2 below the
        # session threshold; s1 survives untouched.
        rows = session_rows("s1", ["a", "b", "a", "b", "a"])
        rows += session_rows("s2", ["a", "b", "x"])
        data = preprocess(ingest_log(tsv(rows)), min_count=3, max_len=10)
        assert [s.session_id for s in data.sessions] == ["s1"]

    def test_idempotent_on_representative_corpus(self):
        synthetic = generate_synthetic(120, 40, 2, noise_rate=0.2, seed=3)
        raw = dataset_to_raw(synthetic)
        once = preprocess(raw, min_count=3, max_len=10)
        twice = preprocess(dataset_to_raw(once), min_count=3, max_len=10)
        assert [s.items for s in twice.sessions] == [s.items for s in once.sessions]
        assert twice.vocab == once.vocab

    def test_pad_id_reserved(self):
        synthetic = generate_synthetic(30, 20, 2, seed=1)
        assert synthetic.vocab.pad_id == 0
        assert all(0 not in s.items for s in synthetic.sessions)


class TestVocab:
    @given(st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=40))
    def test_ids_round_trip(self, tokens):
        vocab = ItemVocab.from_tokens(sorted(tokens))
        for i in range(1, len(vocab) + 1):
            assert vocab.id_of(vocab.token_of(i)) == i

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ContractError):
            ItemVocab.from_tokens(["a", "a"])


class TestSplit:
    def make(self, n, seed=0):
        return generate_synthetic(n, 30, 2, noise_rate=0.1, seed=seed)

    def test_ten_sessions_split_8_1_1(self):
        data = self.make(10)
        train, val, test = split(data, seed=4)
        assert (len(train), len(val), len(test)) == (8, 1, 1)
        ids = [s.session_id for part in (train, val, test) for s in part.sessions]
        assert sorted(ids) == sorted(s.session_id for s in data.sessions)
        assert len(set(ids)) == 10

    def test_same_seed_same_assignment(self):
        data = self.make(37)
        first = split(data, seed=9)
        second = split(data, seed=9)
        for a, b in zip(first, second):
            assert [s.session_id for s in a.sessions] == [s.session_id for s in b.sessions]

    def test_different_seeds_differ(self):
        # oracle: rerun and compare membership sets across seeds
        data = self.make(60)
        train_a = {s.session_id for s in split(data, seed=1)[0].sessions}
        train_b = {s.session_id for s in split(data, seed=2)[0].sessions}
        assert train_a != train_b

    def test_small_dataset_warns_but_splits(self):
        data = self.make(4)
        with pytest.warns(UserWarning):
            train, _, _ = split(data, seed=0)
        assert len(train) >= 1

    @given(st.integers(1, 60), st.integers(0, 5))
    def test_split_is_partition(self, n, seed):
        data = generate_synthetic(n, 30, 2, noise_rate=0.0, seed=0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parts = split(data, seed=seed)
        ids = [s.session_id for part in parts for s in part.sessions]
        assert sorted(ids) == sorted(s.session_id for s in data.sessions)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ContractError):
            split(self.make(10), ratios=(7, 2, 2), seed=0)


class TestSynthetic:
    def test_full_noise_frequencies_uniform(self):
        # chi-squared count check: statistic within 3 sigma of its mean
        data = generate_synthetic(1000, 50, 2, noise_rate=1.0, seed=8,
                                  min_len=10, max_len=10)
        counts = np.zeros(51)
        for s in data.sessions:
            for item in s.items:
                counts[item] += 1
        total = counts[1:].sum()
        expected = total / 50.0
        stat = float(((counts[1:] - expected) ** 2 / expected).sum())
        dof = 49
        assert stat <= dof + 3.0 * np.sqrt(2.0 * dof)

    def test_zero_noise_stays_in_one_block(self):
        data = generate_synthetic(200, 40, 2, noise_rate=0.0, seed=2)
        for s in data.sessions:
            blocks = {(item - 1) // 20 for item in s.items}
            assert len(blocks) == 1
            assert next(iter(blocks)) == s.cluster

    def test_same_seed_identical(self):
        a = generate_synthetic(50, 30, 2, noise_rate=0.3, seed=7)
        b = generate_synthetic(50, 30, 2, noise_rate=0.3, seed=7)
        assert a == b

    def test_cluster_labels_recorded(self):
        data = generate_synthetic(50, 30, 3, seed=0)
        assert all(s.cluster in (0, 1, 2) for s in data.sessions)

    @pytest.mark.parametrize("clusters", [0, -2])
    def test_no_cluster_rejected(self, clusters):
        # 0 clusters once divided the vocabulary by zero
        with pytest.raises(ContractError, match=f"num_clusters must be >= 1, got {clusters}"):
            generate_synthetic(10, 30, clusters, seed=0)

    def test_small_vocab_rejected(self):
        with pytest.raises(ContractError):
            generate_synthetic(10, 19, 2, seed=0)


class TestTypes:
    def test_session_rejects_pad(self):
        with pytest.raises(ContractError):
            Session("s", (1, 0, 2))

    def test_dataset_rejects_short_sessions(self):
        vocab = ItemVocab.from_tokens(["a", "b"])
        with pytest.raises(ContractError):
            SessionDataset(sessions=(Session("s", (1,)),), vocab=vocab)

    def test_dataset_rejects_out_of_vocab(self):
        vocab = ItemVocab.from_tokens(["a", "b"])
        with pytest.raises(ContractError):
            SessionDataset(sessions=(Session("s", (1, 3)),), vocab=vocab)


class TestSessionChecks:
    def dataset(self):
        vocab = ItemVocab.from_tokens(["a", "b", "c", "d", "e"])
        return SessionDataset((Session("ok", (1, 5)), Session("ok2", (2, 3, 4))), vocab)

    @pytest.mark.parametrize("items, problem", [
        ((1, 0, 2), "contains the pad id"), ((1, 6), "has an out-of-vocabulary id"),
        ((3,), "has fewer than 2 items")])
    def test_new_session_is_named_at_construction(self, items, problem):
        data = self.dataset()
        with pytest.raises(ContractError, match=f"session 'bad' {problem}"):
            data.with_sessions(data.sessions + (Session("bad", items),))

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        check = corpus.check_sessions

        def spy(sessions, num_items):
            sessions = list(sessions)
            seen.extend(s.session_id for s in sessions)
            check(sessions, num_items)
        monkeypatch.setattr(corpus, "check_sessions", spy)
        return seen

    def test_carried_over_sessions_are_not_checked_again(self, checked):
        data = self.dataset()
        checked.clear()
        data.with_sessions((data.sessions[1], Session("new", (4, 2))))
        assert checked == ["new"]

    def test_shards_check_no_session(self, checked):
        data = generate_synthetic(20, 30, 2, seed=1)
        assignment = assignment_from_members(
            (range(0, 20, 2), range(1, 20, 2)), np.zeros((2, 4)), iterations_run=1, delta=10)
        checked.clear()
        shards = make_shards(data, assignment)
        assert checked == [] and sum(len(s) for s in shards) == 20

    def test_a_subset_checks_no_session(self, checked):
        data = generate_synthetic(20, 30, 2, seed=1)
        checked.clear()
        part = data.subset([5, 2, 7])
        assert checked == []
        assert all(a is b for a, b in zip(part.sessions, (data.sessions[i] for i in (5, 2, 7))))
        assert len(part) == 3 and part.vocab is data.vocab and part.split_tag == data.split_tag

    def test_deletion_checks_only_the_rewritten_session(self, checked):
        data = generate_synthetic(20, 30, 2, seed=1)
        config = ExperimentConfig.defaults(**{"partition.k": 2, "backbone.d": 4,
                                              "backbone.epochs": 1, "agg.f": 4,
                                              "agg.epochs": 1})
        state = fit_state(data, None, config)
        victim = data.sessions[3]
        checked.clear()
        outcome = execute_unlearn(state, [UnlearnRequest(victim.session_id, 1, "CED", 0)])
        assert checked == [victim.session_id]
        assert outcome.state.corpus.sessions[3].items == victim.items[:1] + victim.items[2:]
