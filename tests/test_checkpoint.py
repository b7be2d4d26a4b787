import json
import os
import struct
import zlib

import numpy as np
import pytest

from sru.aggregation import AggregationConfig, init_aggregation_model
from sru.backbone import BackboneConfig, init_gru_model
from sru.checkpoint import (
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
from sru.partition import PartitionConfig, balanced_kmeans
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

    def test_save_is_deterministic(self, tmp_path):
        model = init_gru_model(10, BackboneConfig(d=4, max_len=10, seed=1))
        p1, p2 = tmp_path / "one.sru", tmp_path / "two.sru"
        save_checkpoint(model, p1, {"config_hash": "x"})
        save_checkpoint(model, p2, {"config_hash": "x"})
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    def saved(self, tmp_path):
        model = init_gru_model(12, BackboneConfig(d=6, max_len=10, seed=2))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_flipped_byte_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_foreign_magic_is_version_error(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field, little-endian u32
        # fix the checksum so only the version is wrong
        import struct
        import zlib
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(IntegrityError):
            load_checkpoint(path)


class TestConfigHashGate:
    def test_mismatch_rejected_unless_forced(self, tmp_path):
        model = init_gru_model(10, BackboneConfig(d=4, max_len=10, seed=1))
        path = tmp_path / "m.sru"
        save_checkpoint(model, path, {"config_hash": "old"})
        with pytest.raises(StaleArtifactError):
            load_checkpoint(path, expected_config_hash="new")
        loaded = load_checkpoint(path, expected_config_hash="new", force=True)
        assert models_equal(model, loaded)


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
        csv_path, bin_path = tmp_path / "p.csv", tmp_path / "c.sru"
        save_assignment(csv_path, bin_path, assignment)
        loaded = load_assignment(csv_path, bin_path)
        assert loaded.members == assignment.members
        np.testing.assert_array_equal(loaded.shard_of, assignment.shard_of)
        np.testing.assert_array_equal(loaded.centroids, assignment.centroids)
        assert (loaded.iterations_run, loaded.delta, loaded.reseeds) == \
            (assignment.iterations_run, assignment.delta, assignment.reseeds)

    def test_holed_partition_rejected(self, tmp_path):
        # Indices 1 and 3 are in no shard; the first gap is named.
        csv_path, bin_path = tmp_path / "p.csv", tmp_path / "c.sru"
        H = np.random.default_rng(3).normal(size=(6, 2))
        save_assignment(csv_path, bin_path, balanced_kmeans(H, PartitionConfig(k=2, seed=0)))
        csv_path.write_text("session_index,shard_id\n0,0\n2,1\n4,0\n5,1\n")
        with pytest.raises(ParseError, match="no row for session index 1"):
            load_assignment(csv_path, bin_path)

    def test_csv_is_sorted_with_header(self, tmp_path):
        H = np.random.default_rng(4).normal(size=(6, 2))
        assignment = balanced_kmeans(H, PartitionConfig(k=2, seed=0))
        csv_path, bin_path = tmp_path / "p.csv", tmp_path / "c.sru"
        save_assignment(csv_path, bin_path, assignment)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "session_index,shard_id"
        indices = [int(line.split(",")[0]) for line in lines[1:]]
        assert indices == sorted(indices) == list(range(6))


class TestAssignmentParsing:
    """Malformed partition.csv rows raise ParseError naming their line, and
    a missing row names its session index."""

    def saved(self, tmp_path):
        H = np.random.default_rng(5).normal(size=(6, 2))
        assignment = balanced_kmeans(H, PartitionConfig(k=2, seed=0))
        csv_path, bin_path = tmp_path / "p.csv", tmp_path / "c.sru"
        save_assignment(csv_path, bin_path, assignment)
        return csv_path, bin_path

    def assert_line_rejected(self, tmp_path, bad_row, match):
        csv_path, bin_path = self.saved(tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[3] = bad_row                      # file line 4
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=match) as info:
            load_assignment(csv_path, bin_path)
        assert info.value.line_number == 4

    def test_missing_row_names_its_session_index(self, tmp_path):
        csv_path, bin_path = self.saved(tmp_path)
        lines = csv_path.read_text().splitlines()
        del lines[3]                            # the row of session index 2
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="no row for session index 2"):
            load_assignment(csv_path, bin_path)

    def test_row_count_differs_from_metadata(self, tmp_path):
        # Without its last row the file is a whole partition of 5 sessions,
        # but the centroid container records 6.
        csv_path, bin_path = self.saved(tmp_path)
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError, match=r"p\.csv: 5 rows, but .*c\.sru records 6 sessions"):
            load_assignment(csv_path, bin_path)

    def test_file_without_row_count_still_loads(self, tmp_path):
        csv_path, bin_path = self.saved(tmp_path)
        tensors, metadata = load_container(bin_path)
        assert metadata.pop("sessions") == 6
        save_container(bin_path, tensors, metadata)
        assert len(load_assignment(csv_path, bin_path).shard_of) == 6

    @pytest.mark.parametrize("text", ["", "index,shard\n0,0\n", "0,0\n1,1\n"])
    def test_missing_or_wrong_header_names_file_and_line_1(self, tmp_path, text):
        csv_path, bin_path = self.saved(tmp_path)
        csv_path.write_text(text)
        with pytest.raises(ParseError, match="p.csv: expected the header") as info:
            load_assignment(csv_path, bin_path)
        assert info.value.line_number == 1

    def test_negative_shard_id(self, tmp_path):
        self.assert_line_rejected(tmp_path, "2,-1", "shard id -1")

    def test_shard_id_not_below_k(self, tmp_path):
        self.assert_line_rejected(tmp_path, "2,2", "shard id 2")

    def test_non_integer_field(self, tmp_path):
        self.assert_line_rejected(tmp_path, "2,one", "non-integer")

    def test_wrong_field_count(self, tmp_path):
        self.assert_line_rejected(tmp_path, "2,0,1", "session_index,shard_id")

    def test_negative_session_index(self, tmp_path):
        self.assert_line_rejected(tmp_path, "-1,0", "negative session index")

    def test_duplicated_session_index(self, tmp_path):
        self.assert_line_rejected(tmp_path, "0,1", "session index 0 listed twice")


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
        assert str(info.value) == (f"file truncated: wanted {size} bytes, {kept} remain "
                                   f"(at byte offset {start})")

    def test_unknown_dtype_tag(self, tmp_path):
        body = bytearray(self.body(tmp_path))
        body[19 + len(self.META)] = 9
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, bytes(body))
        assert str(info.value) == (f"unknown dtype tag 9 for tensor 't' "
                                   f"(at byte offset {21 + len(self.META)})")

    def test_size_mismatch(self, tmp_path):
        body = bytearray(self.body(tmp_path))
        body[37 + len(self.META)] = 20
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, bytes(body))
        assert str(info.value) == (f"tensor 't': 20 bytes stored but shape (2, 3) needs 24 "
                                   f"(at byte offset {45 + len(self.META)})")

    def test_trailing_bytes(self, tmp_path):
        body = self.body(tmp_path)
        with pytest.raises(IntegrityError) as info:
            self.load_sealed(tmp_path, body + b"xy")
        assert str(info.value) == f"2 unexpected trailing bytes (at byte offset {len(body)})"

    def test_checksum_and_magic_messages(self, tmp_path):
        body = self.body(tmp_path)
        path = tmp_path / "y.sru"
        path.write_bytes(body + b"\0\0\0\0")
        with pytest.raises(IntegrityError, match="checksum mismatch") as info:
            load_container(path)
        assert info.value.offset == len(body)
        path.write_bytes(b"NOPE" + body[4:] + b"\0\0\0\0")
        with pytest.raises(VersionError) as info:
            load_container(path)
        assert str(info.value) == "unrecognized magic bytes b'NOPE'; expected b'SRU1'"

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
            TimingReport(sub_model_retrain_ms=5.0, aggregation_retrain_ms=0.0,
                         total_ms=1.0)

    def test_speedup_property(self):
        report = TimingReport(sub_model_retrain_ms=1.0, aggregation_retrain_ms=1.0,
                              total_ms=2.5, full_retrain_reference_ms=10.0)
        assert report.speedup == 4.0

    def test_report_validation(self):
        with pytest.raises(ContractError):
            RankingReport(recall={10: 0.2}, ndcg={10: 0.5}, evaluation_points=1)
        with pytest.raises(ContractError):
            EffectivenessReport(hit={1: 0.5, 5: 0.1}, audited_requests=2,
                                skipped_empty_prefix=0)
