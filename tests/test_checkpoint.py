import inspect
import json
import os
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sru.aggregation import (
    CENTROID_SOURCES,
    AggregationConfig,
    compute_centroids,
    init_aggregation_model,
    train_aggregation,
)
from sru.backbone import BackboneConfig, init_gru_model
from sru.checkpoint import (
    check_config_hash,
    load_assignment,
    load_checkpoint,
    load_container,
    load_datasets,
    save_assignment,
    save_checkpoint,
    save_container,
    save_datasets,
    write_atomic,
)
from sru.corpus import ItemVocab, Session, SessionDataset, generate_synthetic, split
from sru.errors import (
    ContractError,
    IntegrityError,
    ParseError,
    StaleArtifactError,
    VersionError,
)
from sru.partition import PartitionConfig, ShardAssignment, balanced_kmeans
from sru.reports import EffectivenessReport, RankingReport, TimingReport, emit_report


def models_equal(a, b):
    return a.params_bytes() == b.params_bytes()


class TestModelRoundTrip:
    def test_gru_round_trip_bitwise(self, tmp_path):
        model = init_gru_model(20, BackboneConfig(d=8, max_len=10, seed=3))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path, {"config_hash": "abc"})
        loaded = load_checkpoint(path)
        assert models_equal(model, loaded)
        assert loaded.config == model.config
        assert loaded.num_items == 20

    def test_gru_best_epoch_round_trip(self, tmp_path):
        model = init_gru_model(20, BackboneConfig(d=8, max_len=10, seed=3))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path)
        assert load_checkpoint(path).best_epoch is None
        model.best_epoch = 4
        save_checkpoint(model, path)
        assert load_checkpoint(path).best_epoch == 4
        # a checkpoint written before the field existed loads with None
        tensors, metadata = load_container(path)
        del metadata["best_epoch"]
        save_container(path, tensors, metadata)
        assert load_checkpoint(path).best_epoch is None

    def test_aggregation_round_trip_bitwise(self, tmp_path):
        model = init_aggregation_model(4, 8, 30, AggregationConfig(f=6, seed=5))
        path = tmp_path / "a.sru"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert models_equal(model, loaded)
        assert (loaded.k, loaded.d, loaded.f) == (4, 8, 6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("source", CENTROID_SOURCES)
    def test_trained_fusion_keeps_its_centroids(self, tmp_path, dtype, source):
        # The fusion parameters are float32 whatever the sub-models' dtype;
        # the centroids keep the sub-models' dtype, and their source is
        # the config's.
        data = generate_synthetic(16, 20, 2, noise_rate=0.1, seed=1)
        shards = [data.with_sessions(data.sessions[:8]), data.with_sessions(data.sessions[8:])]
        models = [init_gru_model(data.num_items(),
                                 BackboneConfig(d=4, max_len=10, seed=k, dtype=dtype))
                  for k in range(2)]
        centroids = compute_centroids(models, shards, source=source,
                                      reference_centroids=np.arange(8.0).reshape(2, 4) / 3)
        model = train_aggregation(models, centroids, data,
                                  AggregationConfig(f=3, epochs=1, centroid_source=source))
        path = tmp_path / "a.sru"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert models_equal(model, loaded)
        assert loaded.centroids.c.dtype == np.dtype(dtype)
        assert loaded.centroids.c.tobytes() == model.centroids.c.tobytes()
        assert loaded.centroids.source == source

    def test_save_is_deterministic(self, tmp_path):
        model = init_gru_model(10, BackboneConfig(d=4, max_len=10, seed=1))
        p1, p2 = tmp_path / "one.sru", tmp_path / "two.sru"
        save_checkpoint(model, p1, {"config_hash": "x"})
        save_checkpoint(model, p2, {"config_hash": "x"})
        assert p1.read_bytes() == p2.read_bytes()


# kind -> (a fresh model, its config's metadata key and size field, the
# sizes it records)
MODEL_KINDS = {
    "gru": (lambda: init_gru_model(12, BackboneConfig(d=4, max_len=10, seed=1)),
            "backbone_config", "d", ("d", "num_items", "max_len")),
    "aggregation": (lambda: init_aggregation_model(3, 4, 12,
                                                   AggregationConfig(f=5, d_ff=6, seed=2)),
                    "agg_config", "f", ("k", "d", "f", "d_ff", "num_items")),
}
CHANGES = [(kind, change) for kind, (_, _, _, sizes) in MODEL_KINDS.items()
           for change in (*sizes, "config size", "missing tensor", "extra tensor",
                          "missing config", "float64 tensors")]
CHANGES += [("aggregation", change)
            for change in ("centroids absent", "k + 1 centroids", "int64 centroids")]


class TestModelLoadChecks:
    """A model is read from its tensors and its config, so the loader
    checks them against the sizes the file records and the dtype the
    config gives."""

    @pytest.mark.parametrize("kind, change", CHANGES)
    def test_file_that_disagrees_with_itself_is_named(self, tmp_path, kind, change):
        make, config_key, config_size, sizes = MODEL_KINDS[kind]
        path = tmp_path / f"{kind}.sru"
        save_checkpoint(make(), path)
        tensors, metadata = load_container(path)
        tensors = dict(tensors)
        if change in sizes:
            metadata[change] += 1
        elif change == "config size":
            metadata[config_key][config_size] += 1
        elif change == "missing tensor":
            del tensors[sorted(tensors)[-1]]
        elif change == "extra tensor":
            tensors["extra"] = np.zeros(2, dtype=np.float32)
        elif change == "float64 tensors":
            # a model of a float32 config would predict in float64, and so
            # never equal a retrain under its config
            tensors = {name: t.astype(np.float64) for name, t in tensors.items()}
        elif change == "centroids absent":
            # a fusion layer stored apart from its centroids
            del tensors["centroids"]
        elif change == "k + 1 centroids":
            tensors["centroids"] = np.zeros((metadata["k"] + 1, metadata["d"]), np.float32)
        elif change == "int64 centroids":
            tensors["centroids"] = tensors["centroids"].astype(np.int64)
        else:
            del metadata[config_key]
        save_container(path, tensors, metadata)
        with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: ") as info:
            load_checkpoint(path)
        if "centroids" in change:
            assert "centroids is " in str(info.value)

    @pytest.mark.parametrize("value", [None, "4", 4.5, True])
    def test_size_that_is_not_an_integer(self, tmp_path, value):
        path = tmp_path / "m.sru"
        save_checkpoint(MODEL_KINDS["gru"][0](), path)
        tensors, metadata = load_container(path)
        save_container(path, tensors, {**metadata, "d": value})
        with pytest.raises(IntegrityError, match="are not all integers"):
            load_checkpoint(path)

    def test_config_with_an_unknown_field(self, tmp_path):
        path = tmp_path / "m.sru"
        save_checkpoint(MODEL_KINDS["gru"][0](), path)
        tensors, metadata = load_container(path)
        metadata["backbone_config"]["width"] = 3
        save_container(path, tensors, metadata)
        with pytest.raises(IntegrityError, match="no readable training config 'backbone_config'"):
            load_checkpoint(path)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 6), num_items=st.integers(1, 9), max_len=st.integers(2, 20),
           k=st.integers(1, 4), f=st.integers(1, 6), d_ff=st.integers(0, 6),
           dtype=st.sampled_from(["float32", "float64"]))
    def test_sizes_are_read_from_the_tensors(self, d, num_items, max_len, k, f, d_ff, dtype):
        gru = init_gru_model(num_items, BackboneConfig(d=d, max_len=max_len, seed=1,
                                                       dtype=dtype))
        assert (gru.d, gru.num_items, gru.max_len) == (d, num_items, max_len)
        agg = init_aggregation_model(k, d, num_items,
                                     AggregationConfig(f=f, d_ff=d_ff or None, seed=2))
        assert (agg.k, agg.d, agg.f, agg.d_ff, agg.num_items) == (k, d, f, d_ff or d, num_items)
        with tempfile.TemporaryDirectory() as tmp:
            for model in (gru, agg):
                first, second = Path(tmp, "first.sru"), Path(tmp, "second.sru")
                save_checkpoint(model, first, {"config_hash": "h"})
                save_checkpoint(load_checkpoint(first), second, {"config_hash": "h"})
                assert first.read_bytes() == second.read_bytes()


class TestCorruption:
    """Each way a container can be corrupt raises its error type, with a
    message that starts with the file's path."""

    def saved(self, tmp_path):
        model = init_gru_model(12, BackboneConfig(d=6, max_len=10, seed=2))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path)
        return path

    def rejected(self, path, error):
        with pytest.raises(error, match=f"^{re.escape(str(path))}: ") as info:
            load_checkpoint(path)
        return info.value

    def test_truncated_file_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert "checksum mismatch" in str(self.rejected(path, IntegrityError))

    def test_flipped_byte_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        error = self.rejected(path, IntegrityError)
        assert "checksum mismatch" in str(error) and error.offset == len(blob) - 4

    def test_foreign_magic_is_version_error(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        assert "unrecognized magic bytes b'NOPE'" in str(self.rejected(path, VersionError))

    def test_unknown_version_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field, little-endian u32
        # fix the checksum so only the version is wrong
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert "unsupported checkpoint version 99" in str(self.rejected(path, VersionError))

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        assert "checksum mismatch" in str(self.rejected(path, IntegrityError))

    def test_file_too_short(self, tmp_path):
        path = tmp_path / "m.sru"
        path.write_bytes(b"SRU1")
        error = self.rejected(path, IntegrityError)
        assert "file too short" in str(error) and error.offset == 4


class TestConfigHashGate:
    def test_mismatch_rejected_unless_forced(self, tmp_path):
        model = init_gru_model(10, BackboneConfig(d=4, max_len=10, seed=1))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path, {"config_hash": "old"})
        with pytest.raises(StaleArtifactError):
            load_checkpoint(path, expected_config_hash="new")
        loaded = load_checkpoint(path, expected_config_hash=None)
        assert models_equal(model, loaded)

    def test_stale_message_names_both_hashes_and_the_remedy(self, tmp_path):
        model = init_gru_model(10, BackboneConfig(d=4, max_len=10, seed=1))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path, {"config_hash": "old"})
        with pytest.raises(StaleArtifactError) as err:
            load_checkpoint(path, expected_config_hash="new")
        message = str(err.value)
        assert "m.sru" in message and "old" in message and "new" in message
        assert "rerun the upstream stage" in message
        assert "force" not in message

    def test_no_loader_takes_a_force_option(self):
        for fn in (check_config_hash, load_assignment, load_checkpoint, load_datasets):
            assert "force" not in inspect.signature(fn).parameters, fn.__name__


class TestDatasetRoundTrip:
    def test_splits_round_trip(self, tmp_path):
        data = generate_synthetic(30, 30, 3, noise_rate=0.2, seed=4)
        train, val, test = split(data, seed=1)
        path = tmp_path / "d.sru"
        save_datasets(path, {"train": train, "validation": val, "test": test})
        loaded = load_datasets(path)
        for tag, original in (("train", train), ("validation", val), ("test", test)):
            assert loaded[tag] == original

    def test_requested_split_equals_full_load(self, tmp_path):
        data = generate_synthetic(30, 30, 3, noise_rate=0.2, seed=4)
        train, val, test = split(data, seed=1)
        path = tmp_path / "d.sru"
        save_datasets(path, {"train": train, "validation": val, "test": test})
        full = load_datasets(path)
        for tag in ("train", "validation", "test"):
            alone = load_datasets(path, splits=[tag])
            assert list(alone) == [tag]
            assert alone[tag].split_tag == tag
            assert alone[tag].vocab.tokens == full[tag].vocab.tokens
            assert alone[tag].max_len == full[tag].max_len
            assert alone[tag].sessions == full[tag].sessions

    def test_unknown_split_is_parse_error_naming_file_and_tag(self, tmp_path):
        data = generate_synthetic(8, 30, 2, seed=5)
        path = tmp_path / "d.sru"
        save_datasets(path, {"train": data})
        with pytest.raises(ParseError, match=r"d\.sru: no split 'test'"):
            load_datasets(path, splits=["train", "test"])

    def test_cluster_labels_survive(self, tmp_path):
        data = generate_synthetic(8, 30, 2, seed=5)
        path = tmp_path / "d.sru"
        save_datasets(path, {"train": data})
        loaded = load_datasets(path)["train"]
        assert [s.cluster for s in loaded.sessions] == [s.cluster for s in data.sessions]


def write_train_split(path, rows):
    """A dataset container whose train split holds the given (id, items)
    rows over the vocabulary 1..5, unchecked."""
    vocab = ItemVocab.from_tokens(["a", "b", "c", "d", "e"])
    save_datasets(path, {"train": SessionDataset((Session("x", (1, 2)),), vocab, 10)})
    tensors, metadata = load_container(path)
    tensors["train/items"] = np.array([i for _, items in rows for i in items], dtype=np.int64)
    tensors["train/offsets"] = np.cumsum([0] + [len(items) for _, items in rows])
    tensors["train/clusters"] = np.full(len(rows), -1, dtype=np.int64)
    metadata["session_ids"]["train"] = [sid for sid, _ in rows]
    save_container(path, tensors, metadata)


BAD_SESSIONS = [((1, 0, 2), "contains the pad id"), ((1, 6), "has an out-of-vocabulary id"),
                ((3,), "has fewer than 2 items")]


class TestDatasetLoadChecks:
    @pytest.mark.parametrize("items, problem", BAD_SESSIONS)
    def test_bad_session_is_named(self, tmp_path, items, problem):
        path = tmp_path / "d.sru"
        write_train_split(path, [("ok", (1, 5)), ("bad", items), ("ok2", (2, 3, 4))])
        with pytest.raises(ContractError, match=f"session 'bad' {problem}"):
            load_datasets(path)

    def test_first_bad_session_is_named(self, tmp_path):
        path = tmp_path / "d.sru"
        write_train_split(path, [("ok", (1, 5)), ("short", (2,)), ("pad", (0, 1)),
                                 ("outside", (9, 1))])
        with pytest.raises(ContractError, match="session 'short' has fewer than 2 items"):
            load_datasets(path)

    def test_good_sessions_load(self, tmp_path):
        path = tmp_path / "d.sru"
        write_train_split(path, [("ok", (1, 5)), ("ok2", (2, 3, 4))])
        loaded = load_datasets(path)["train"]
        assert [(s.session_id, s.items) for s in loaded.sessions] == [
            ("ok", (1, 5)), ("ok2", (2, 3, 4))]


class TestAssignmentRoundTrip:
    def test_round_trip(self, tmp_path):
        H = np.random.default_rng(3).normal(size=(20, 4))
        assignment = balanced_kmeans(H, PartitionConfig(k=3, seed=2))
        path = tmp_path / "p.sru"
        save_assignment(path, assignment)
        loaded = load_assignment(path)
        assert loaded.members == assignment.members
        np.testing.assert_array_equal(loaded.shard_of, assignment.shard_of)
        np.testing.assert_array_equal(loaded.centroids, assignment.centroids)
        assert (loaded.iterations_run, loaded.delta, loaded.reseeds) == \
            (assignment.iterations_run, assignment.delta, assignment.reseeds)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_partitions_keep_shard_of_and_bytes(self, data):
        # Empty shards allowed; the file stores shard_of as it is.
        k = data.draw(st.integers(1, 5), label="shards")
        shard_of = data.draw(st.lists(st.integers(0, k - 1), max_size=40), label="shard_of")
        delta = max(shard_of.count(c) for c in range(k)) + data.draw(st.integers(0, 2))
        centroids = np.arange(k * 3.0).reshape(k, 3) / 7
        assignment = ShardAssignment(shard_of, centroids, 5, delta, ((2, 0, 1),))
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp, "p.sru"), Path(tmp, "p2.sru")
            save_assignment(first, assignment)
            loaded = load_assignment(first)
            save_assignment(again, loaded)
            assert first.read_bytes() == again.read_bytes()
        assert loaded.shard_of.dtype == np.int64 and loaded.shard_of.tolist() == shard_of
        assert loaded.members == assignment.members
        np.testing.assert_array_equal(loaded.centroids, centroids)
        assert (loaded.iterations_run, loaded.delta, loaded.reseeds) == (5, delta, ((2, 0, 1),))

    def test_counts_are_the_tensor_shapes(self, tmp_path):
        # k and the session count are read from the tensors, not stored.
        H = np.random.default_rng(4).normal(size=(6, 2))
        path = tmp_path / "p.sru"
        save_assignment(path, balanced_kmeans(H, PartitionConfig(k=2, seed=0)),
                        {"config_hash": "h"})
        tensors, metadata = load_container(path)
        assert {name: t.shape for name, t in tensors.items()} == {
            "shard_of": (6,), "centroids": (2, 2)}
        assert sorted(metadata) == ["config_hash", "delta", "iterations_run", "kind",
                                    "reseeds"]


class TestAssignmentLoadChecks:
    """A partition container that is not one int64 shard_of vector plus
    its centroids, or whose partition is invalid, raises IntegrityError
    naming the file; a container of another kind raises VersionError."""

    def saved(self, tmp_path):
        H = np.random.default_rng(5).normal(size=(6, 2))
        path = tmp_path / "p.sru"
        save_assignment(path, balanced_kmeans(H, PartitionConfig(k=2, seed=0)))
        tensors, metadata = load_container(path)
        return path, dict(tensors), metadata

    def test_other_kind_is_version_error(self, tmp_path):
        path, tensors, metadata = self.saved(tmp_path)
        save_container(path, tensors, {**metadata, "kind": "centroids"})
        with pytest.raises(VersionError, match=f"^{re.escape(str(path))}: expected a "
                                               "partition container, found kind 'centroids'"):
            load_assignment(path)

    @pytest.mark.parametrize("change", ["extra tensor", "missing shard_of", "missing centroids",
                                        "float shard_of", "2-D shard_of", "1-D centroids"])
    def test_wrong_tensors_are_named(self, tmp_path, change):
        path, tensors, metadata = self.saved(tmp_path)
        if change == "extra tensor":
            tensors["sessions"] = np.array([6])
        elif change.startswith("missing"):
            del tensors[change.split()[1]]
        elif change == "float shard_of":
            tensors["shard_of"] = tensors["shard_of"].astype(np.float64)
        elif change == "2-D shard_of":
            tensors["shard_of"] = tensors["shard_of"].reshape(2, 3)
        else:
            tensors["centroids"] = tensors["centroids"].reshape(-1)
        save_container(path, tensors, metadata)
        with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: expected an int64 "
                                                 "shard_of vector and a 2-D centroids matrix"):
            load_assignment(path)

    @pytest.mark.parametrize("shard_of, match", [
        ([0, 1, 2, 0, 1, 0], r"shard ids in 0\.\.1"),
        ([0, 1, -1, 0, 1, 0], r"shard ids in 0\.\.1"),
        ([0, 0, 0, 0, 1, 1], "shard 0 exceeds capacity 3"),
    ], ids=["id of k", "negative id", "shard over delta"])
    def test_invalid_partition_is_named(self, tmp_path, shard_of, match):
        path, tensors, metadata = self.saved(tmp_path)
        save_container(path, {**tensors, "shard_of": np.array(shard_of, dtype=np.int64)},
                       metadata)
        with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: not a valid "
                                                 f"partition \\(ContractError: .*{match}"):
            load_assignment(path)

    def test_missing_diagnostic_is_named(self, tmp_path):
        path, tensors, metadata = self.saved(tmp_path)
        del metadata["delta"]
        save_container(path, tensors, metadata)
        with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: not a valid "
                                                 "partition \\(KeyError: 'delta'\\)"):
            load_assignment(path)

    def test_swapped_shard_ids_fail_to_load(self, tmp_path):
        # Two sessions trade shards in place: the checksum no longer holds.
        path, tensors, _ = self.saved(tmp_path)
        shard_of = tensors["shard_of"]
        i, j = 0, int(np.flatnonzero(shard_of != shard_of[0])[0])
        blob = bytearray(path.read_bytes())
        start = len(blob) - 4 - shard_of.nbytes    # shard_of is the last tensor
        assert blob[start : len(blob) - 4] == shard_of.tobytes()
        swapped = shard_of.copy()
        swapped[[i, j]] = swapped[[j, i]]
        blob[start : len(blob) - 4] = swapped.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: checksum mismatch"):
            load_assignment(path)


class TestWriteAtomic:
    def test_replaces_previous_bytes(self, tmp_path):
        path = tmp_path / "audit.json"
        path.write_bytes(b"old\n")
        write_atomic(path, b"new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["audit.json"]

    def test_write_failing_part_way_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "audit.json"
        previous = b'{\n  "config_hash": "abc",\n  "records": []\n}\n'
        path.write_bytes(previous)
        real_fdopen = os.fdopen

        class HalfWrite:
            """File handle that writes half of the data, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, *args, **kw: HalfWrite(real_fdopen(fd, *args, **kw)))
        with pytest.raises(OSError, match="no space left"):
            write_atomic(path, b'{"config_hash": "abc", "records": [1, 2, 3]}\n')
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["audit.json"]


class TestContainerValidation:
    def test_bad_dtype_rejected_on_save(self, tmp_path):
        with pytest.raises(ContractError):
            save_container(tmp_path / "x.sru", {"t": np.zeros(3, dtype=np.int16)}, {})

    def test_shape_product_checked(self, tmp_path):
        path = tmp_path / "x.sru"
        save_container(path, {"t": np.zeros((2, 3), dtype=np.float32)}, {"kind": "raw"})
        tensors, meta = load_container(path)
        assert tensors["t"].shape == (2, 3)
        assert meta["kind"] == "raw"


class TestContainerHeaders:
    """Each header field fails with its own message and offset. The
    container holds metadata {"kind": "raw"} and one (2, 3) float32
    tensor named "t"; a body is resealed with a fresh checksum, so that
    only the framing is wrong."""

    META = b'{"kind":"raw"}'

    def body(self, tmp_path):
        path = tmp_path / "x.sru"
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        save_container(path, {"t": values}, {"kind": "raw"})
        return path.read_bytes()[:-4]

    def fields(self):
        """(name, start, size) of each field after the magic and version."""
        m = len(self.META)
        return [("meta_len", 8, 4), ("metadata", 12, m), ("count", 12 + m, 4),
                ("name_len", 16 + m, 2), ("name", 18 + m, 1), ("tag_ndim", 19 + m, 2),
                ("shape", 21 + m, 16), ("nbytes", 37 + m, 8), ("values", 45 + m, 24)]

    def load_sealed(self, tmp_path, body):
        path = tmp_path / "y.sru"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        return load_container(path)

    def test_layout_is_as_documented(self, tmp_path):
        body = self.body(tmp_path)
        assert body[12 : 12 + len(self.META)] == self.META
        assert len(body) == 69 + len(self.META)

    @pytest.mark.parametrize("field", range(9))
    @pytest.mark.parametrize("depth", ["start", "middle", "last"])
    def test_truncation_inside_each_field(self, tmp_path, field, depth):
        name, start, size = self.fields()[field]
        kept = {"start": 0, "middle": size // 2, "last": size - 1}[depth]
        body = self.body(tmp_path)[: start + kept]
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, body)
        assert info.value.offset == start, name
        assert str(info.value) == (f"{tmp_path / 'y.sru'}: file truncated: wanted {size} "
                                   f"bytes, {kept} remain (at byte offset {start})")

    def test_unknown_dtype_tag(self, tmp_path):
        body = bytearray(self.body(tmp_path))
        body[19 + len(self.META)] = 9
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, bytes(body))
        assert str(info.value) == (f"{tmp_path / 'y.sru'}: unknown dtype tag 9 for tensor 't' "
                                   f"(at byte offset {21 + len(self.META)})")

    def test_size_mismatch(self, tmp_path):
        body = bytearray(self.body(tmp_path))
        body[37 + len(self.META)] = 20
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, bytes(body))
        assert str(info.value) == (f"{tmp_path / 'y.sru'}: tensor 't': 20 bytes stored but "
                                   f"shape (2, 3) needs 24 (at byte offset {45 + len(self.META)})")

    def test_trailing_bytes(self, tmp_path):
        body = self.body(tmp_path)
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, body + b"xy")
        assert str(info.value) == (f"{tmp_path / 'y.sru'}: 2 unexpected trailing bytes "
                                   f"(at byte offset {len(body)})")

    def test_checksum_and_magic_messages(self, tmp_path):
        body = self.body(tmp_path)
        path = tmp_path / "y.sru"
        path.write_bytes(body + b"\0\0\0\0")
        with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: checksum "
                                                 "mismatch") as info:
            load_container(path)
        assert info.value.offset == len(body)
        path.write_bytes(b"NOPE" + body[4:] + b"\0\0\0\0")
        with pytest.raises(VersionError) as info:
            load_container(path)
        assert str(info.value) == f"{path}: unrecognized magic bytes b'NOPE'; expected b'SRU1'"

    def test_tensors_are_writable_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "x.sru"
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(4, dtype=np.int64)
        save_container(path, {"a": a, "b": b}, {})
        tensors, _ = load_container(path)
        np.testing.assert_array_equal(tensors["a"], a)
        np.testing.assert_array_equal(tensors["b"], b)
        assert tensors["a"].flags.writeable

        def owner(array):
            while isinstance(array, np.ndarray):
                array = array.base
            return array.obj if isinstance(array, memoryview) else array

        assert isinstance(owner(tensors["a"]), bytearray)
        assert owner(tensors["a"]) is owner(tensors["b"])


class TestReports:
    def test_empty_metric_map_header_only_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report({}, "csv", path)
        assert path.read_text() == "metric,k,value\n"

    def test_same_report_same_bytes(self, tmp_path):
        report = RankingReport(recall={10: 0.5, 20: 0.625}, ndcg={10: 0.25, 20: 0.3},
                               evaluation_points=16)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, "json", a)
        emit_report(report, "json", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip_within_precision(self, tmp_path):
        report = EffectivenessReport(hit={1: 1 / 3, 5: 2 / 3, 10: 0.70000049},
                                     audited_requests=3, skipped_empty_prefix=1)
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        parsed = json.loads(path.read_text())
        for k, v in report.hit.items():
            assert parsed["hit"][str(k)] == pytest.approx(v, rel=1e-5)
        assert parsed["audited_requests"] == 3

    def test_csv_one_row_per_metric_k(self, tmp_path):
        report = RankingReport(recall={10: 0.5, 20: 0.75}, ndcg={10: 0.5, 20: 0.5},
                               evaluation_points=4)
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "metric,k,value"
        assert "recall,10,0.5" in lines and "recall,20,0.75" in lines
        assert "evaluation_points,,4" in lines

    def test_six_significant_digits(self, tmp_path):
        report = RankingReport(recall={10: 0.123456789}, ndcg={10: 0.123456789},
                               evaluation_points=1)
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        assert "recall,10,0.123457" in path.read_text()

    def test_timing_report_invariant(self):
        with pytest.raises(ContractError):
            TimingReport(sub_model_retrain_ms=5.0, total_ms=1.0)

    def test_speedup_property(self):
        report = TimingReport(sub_model_retrain_ms=1.0, fusion_training_ms=1.0,
                              total_ms=2.5, full_retrain_reference_ms=10.0)
        assert report.speedup == 4.0

    def test_report_validation(self):
        with pytest.raises(ContractError):
            RankingReport(recall={10: 0.2}, ndcg={10: 0.5}, evaluation_points=1)
        with pytest.raises(ContractError):
            EffectivenessReport(hit={1: 0.5, 5: 0.1}, audited_requests=2,
                                skipped_empty_prefix=0)
