"""Bit-exact binary persistence for models, datasets, and centroids.

Container layout (little-endian throughout):

    magic "SRU1" | u32 version | u32 meta_len | canonical-JSON metadata |
    u32 tensor_count | per tensor:
        u16 name_len | name utf-8 | u8 dtype_tag | u8 ndim |
        u64 shape[ndim] | u64 nbytes | raw row-major values
    | u32 crc32 of everything before

Tensors are written in sorted name order and the metadata JSON is
canonical (sorted keys, compact separators), so identical inputs always
produce identical files. Loads fully validate magic, version, shapes,
and the checksum before any object is constructed; a truncated or
corrupt file never yields a partial model.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .aggregation import AggregationConfig, AggregationModel, ShardCentroids
from .backbone import BackboneConfig, GruModel
from .corpus import ItemVocab, Session, SessionDataset, check_sessions
from .errors import (
    ContractError,
    IntegrityError,
    ParseError,
    StaleArtifactError,
    VersionError,
)
from .numerics import ParamStore
from .partition import ShardAssignment

MAGIC = b"SRU1"
VERSION = 1

_DTYPE_TAGS = {"<f4": 1, "<f8": 2, "<i8": 3}
_TAG_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8")}


def _canonical_meta(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _tag_for(arr: np.ndarray) -> int:
    key = arr.dtype.newbyteorder("<").str
    if key not in _DTYPE_TAGS:
        raise ContractError(f"unsupported tensor dtype {arr.dtype}")
    return _DTYPE_TAGS[key]


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it
    over ``path``: a reader sees the old bytes or the new ones, and a
    failed write leaves no temporary file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_container(path, tensors: dict[str, np.ndarray], metadata: dict) -> int:
    """Write one container atomically; returns the byte count."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta = _canonical_meta(metadata)
    parts.append(struct.pack("<I", len(meta)))
    parts.append(meta)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        tag = _tag_for(arr)
        raw = arr.astype(_TAG_DTYPES[tag], copy=False).tobytes()
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<BB", tag, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(struct.pack("<Q", len(raw)))
        parts.append(raw)
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body))
    write_atomic(path, blob)
    return len(blob)


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_TAG_NDIM = struct.Struct("<BB")
_U64 = struct.Struct("<Q")


class _Reader:
    """Cursor over the body ``blob[:end]``: each field is decoded in place
    with ``unpack_from``, and reading past ``end`` is a truncation."""

    def __init__(self, blob: bytearray, end: int):
        self.blob = blob
        self.end = end
        self.offset = 0

    def skip(self, count: int) -> int:
        """Advance past ``count`` bytes; returns where they start."""
        if self.offset + count > self.end:
            raise IntegrityError(
                f"file truncated: wanted {count} bytes, "
                f"{self.end - self.offset} remain",
                offset=self.offset,
            )
        start = self.offset
        self.offset += count
        return start

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack_from(self.blob, self.skip(fmt.size))

    def text(self, count: int) -> str:
        start = self.skip(count)
        return self.blob[start : self.offset].decode("utf-8")


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read and fully validate one container. The tensors are views of
    the one buffer the file was read into."""
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if len(blob) < len(MAGIC) + 8:
        raise IntegrityError("file too short to be a checkpoint", offset=len(blob))
    if blob[: len(MAGIC)] != MAGIC:
        raise VersionError(f"unrecognized magic bytes {bytes(blob[:4])!r}; expected {MAGIC!r}")
    end = len(blob) - 4
    (expected_crc,) = _U32.unpack_from(blob, end)
    actual_crc = zlib.crc32(memoryview(blob)[:end])
    if actual_crc != expected_crc:
        raise IntegrityError(
            f"checksum mismatch: stored {expected_crc:#010x}, computed {actual_crc:#010x}",
            offset=end,
        )

    reader = _Reader(blob, end)
    reader.skip(len(MAGIC))
    (version,) = reader.unpack(_U32)
    if version != VERSION:
        raise VersionError(f"unsupported checkpoint version {version}")
    (meta_len,) = reader.unpack(_U32)
    try:
        metadata = json.loads(reader.text(meta_len))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"metadata block unreadable: {exc}", offset=reader.offset) from None
    (count,) = reader.unpack(_U32)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack(_U16)
        name = reader.text(name_len)
        tag, ndim = reader.unpack(_TAG_NDIM)
        if tag not in _TAG_DTYPES:
            raise IntegrityError(f"unknown dtype tag {tag} for tensor {name!r}",
                                 offset=reader.offset)
        shape = reader.unpack(struct.Struct(f"<{ndim}Q"))
        (nbytes,) = reader.unpack(_U64)
        dtype = _TAG_DTYPES[tag]
        expected = math.prod(shape) * dtype.itemsize
        if nbytes != expected:
            raise IntegrityError(
                f"tensor {name!r}: {nbytes} bytes stored but shape {shape} needs {expected}",
                offset=reader.offset,
            )
        start = reader.skip(nbytes)
        tensors[name] = np.frombuffer(blob, dtype=dtype, count=nbytes // dtype.itemsize,
                                      offset=start).reshape(shape)
    if reader.offset != end:
        raise IntegrityError(
            f"{end - reader.offset} unexpected trailing bytes", offset=reader.offset
        )
    return tensors, metadata


def check_config_hash(metadata: dict, expected: str | None, force: bool, path) -> None:
    if expected is None or force:
        return
    found = metadata.get("config_hash")
    if found != expected:
        raise StaleArtifactError(
            f"{path} was produced under config hash {found}, current is {expected}; "
            "rerun the upstream stage or pass force"
        )


# -- typed wrappers ----------------------------------------------------------------


def save_checkpoint(obj, path, extra_metadata: dict | None = None) -> int:
    """Persist a GruModel or AggregationModel, with its per-epoch training
    loss curve (``loss_history``) in the metadata, and for a GruModel the
    epoch that early stopping restored (``best_epoch``, null without
    one)."""
    extra = dict(extra_metadata or {})
    if isinstance(obj, GruModel):
        meta = {
            "kind": "gru",
            "d": obj.d,
            "num_items": obj.num_items,
            "max_len": obj.max_len,
            "backbone_config": obj.config.as_dict() if obj.config else None,
            "loss_history": list(obj.loss_history),
            "best_epoch": obj.best_epoch,
            **extra,
        }
        return save_container(path, dict(obj.store.params), meta)
    if isinstance(obj, AggregationModel):
        meta = {
            "kind": "aggregation",
            "k": obj.k,
            "d": obj.d,
            "f": obj.f,
            "d_ff": obj.d_ff,
            "num_items": obj.num_items,
            "agg_config": obj.config.as_dict() if obj.config else None,
            "loss_history": list(obj.loss_history),
            **extra,
        }
        return save_container(path, dict(obj.store.params), meta)
    raise ContractError(f"cannot checkpoint object of type {type(obj).__name__}")


def load_checkpoint(path, expected_config_hash: str | None = None, force: bool = False):
    """Load a model checkpoint back into its typed object; a checkpoint
    written without a loss curve loads with an empty one, and a GRU
    checkpoint without a ``best_epoch`` loads with None."""
    tensors, metadata = load_container(path)
    check_config_hash(metadata, expected_config_hash, force, path)
    kind = metadata.get("kind")
    store = ParamStore(tensors)
    loss_history = list(metadata.get("loss_history", []))
    if kind == "gru":
        config = None
        if metadata.get("backbone_config"):
            config = BackboneConfig.from_dict(metadata["backbone_config"])
        return GruModel(store=store, d=metadata["d"], num_items=metadata["num_items"],
                        max_len=metadata["max_len"], config=config,
                        loss_history=loss_history, best_epoch=metadata.get("best_epoch"))
    if kind == "aggregation":
        config = None
        if metadata.get("agg_config"):
            config = AggregationConfig.from_dict(metadata["agg_config"])
        return AggregationModel(store=store, k=metadata["k"], d=metadata["d"],
                                f=metadata["f"], d_ff=metadata["d_ff"],
                                num_items=metadata["num_items"], config=config,
                                loss_history=loss_history)
    raise VersionError(f"checkpoint kind {kind!r} is not a model")


def save_datasets(path, splits: dict[str, SessionDataset],
                  extra_metadata: dict | None = None) -> int:
    """Persist one or more splits sharing a vocabulary in one container."""
    if not splits:
        raise ContractError("no splits to save")
    vocabs = {id(ds.vocab): ds.vocab for ds in splits.values()}
    if len({v.tokens for v in vocabs.values()}) != 1:
        raise ContractError("all splits must share one vocabulary")
    any_ds = next(iter(splits.values()))
    tensors: dict[str, np.ndarray] = {}
    meta: dict = {
        "kind": "dataset",
        "vocab": list(any_ds.vocab.tokens),
        "max_len": any_ds.max_len,
        "splits": sorted(splits),
        "session_ids": {},
        **(extra_metadata or {}),
    }
    for tag, ds in splits.items():
        items = np.concatenate([np.asarray(s.items, dtype=np.int64) for s in ds.sessions]) \
            if ds.sessions else np.zeros(0, dtype=np.int64)
        offsets = np.zeros(len(ds.sessions) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in ds.sessions], out=offsets[1:])
        clusters = np.array([-1 if s.cluster is None else s.cluster for s in ds.sessions],
                            dtype=np.int64)
        tensors[f"{tag}/items"] = items
        tensors[f"{tag}/offsets"] = offsets
        tensors[f"{tag}/clusters"] = clusters
        if all(s.times is not None for s in ds.sessions):
            times = np.concatenate([np.asarray(s.times, dtype=np.int64) for s in ds.sessions]) \
                if ds.sessions else np.zeros(0, dtype=np.int64)
            tensors[f"{tag}/times"] = times
        meta["session_ids"][tag] = [s.session_id for s in ds.sessions]
    return save_container(path, tensors, meta)


def load_datasets(path, expected_config_hash: str | None = None,
                  force: bool = False, splits=None) -> dict[str, SessionDataset]:
    """Load the splits of one dataset container, keyed by tag.

    ``splits`` names the tags to build sessions for (default: all). The
    whole container is still read and checksummed; a tag the container
    does not hold is a ``ParseError`` naming the file and the tag.
    """
    tensors, metadata = load_container(path)
    check_config_hash(metadata, expected_config_hash, force, path)
    if metadata.get("kind") != "dataset":
        raise VersionError(f"expected a dataset container, found kind {metadata.get('kind')!r}")
    tags = metadata["splits"] if splits is None else list(splits)
    for tag in tags:
        if tag not in metadata["splits"]:
            raise ParseError(f"{path}: no split {tag!r}; the file holds "
                             f"{', '.join(metadata['splits'])}")
    vocab = ItemVocab.from_tokens(metadata["vocab"])
    out: dict[str, SessionDataset] = {}
    for tag in tags:
        session_ids = metadata["session_ids"][tag]
        _check_item_array(session_ids, tensors[f"{tag}/items"], tensors[f"{tag}/offsets"],
                          len(vocab))
        offsets = tensors[f"{tag}/offsets"].tolist()
        items = tensors[f"{tag}/items"].tolist()
        clusters = tensors[f"{tag}/clusters"].tolist()
        times = tensors.get(f"{tag}/times")
        times = None if times is None else times.tolist()
        sessions = []
        for i, sid in enumerate(session_ids):
            lo, hi = offsets[i], offsets[i + 1]
            sessions.append(Session(
                session_id=sid,
                items=tuple(items[lo:hi]),
                times=None if times is None else tuple(times[lo:hi]),
                cluster=None if clusters[i] < 0 else clusters[i],
            ))
        sessions = tuple(sessions)
        out[tag] = SessionDataset(sessions=sessions, vocab=vocab, max_len=metadata["max_len"],
                                  split_tag=tag, checked=sessions)
    return out


def _check_item_array(session_ids, items: np.ndarray, offsets: np.ndarray,
                      num_items: int) -> None:
    """The dataset's session check over one split's flat id array, in one
    comparison: session i holds items[offsets[i]:offsets[i + 1]]. The
    first session that fails is checked on its own, which raises the
    ``ContractError`` that constructing it would."""
    outside = (items < 1) | (items > num_items)
    bad = np.diff(offsets) < 2
    bad[np.searchsorted(offsets, np.flatnonzero(outside), side="right") - 1] = True
    if bad.any():
        i = int(np.argmax(bad))
        session = Session(session_ids[i], tuple(items[offsets[i] : offsets[i + 1]].tolist()))
        check_sessions((session,), num_items)


def save_assignment(csv_path, bin_path, assignment: ShardAssignment,
                    extra_metadata: dict | None = None) -> None:
    """Persist the partition as `session_index,shard_id` CSV plus a
    binary centroid block, whose metadata records the row count."""
    rows = sorted(
        (i, k) for k, member in enumerate(assignment.members) for i in member
    )
    text = "\n".join(["session_index,shard_id", *(f"{i},{k}" for i, k in rows)]) + "\n"
    write_atomic(csv_path, text.encode("utf-8"))
    meta = {
        "kind": "centroids",
        "iterations_run": assignment.iterations_run,
        "delta": assignment.delta,
        "k": assignment.k,
        "reseeds": [list(r) for r in assignment.reseeds],
        "sessions": len(rows),
        **(extra_metadata or {}),
    }
    save_container(bin_path, {"centroids": assignment.centroids}, meta)


def load_assignment(csv_path, bin_path, expected_config_hash: str | None = None,
                    force: bool = False) -> ShardAssignment:
    tensors, metadata = load_container(bin_path)
    check_config_hash(metadata, expected_config_hash, force, bin_path)
    if metadata.get("kind") != "centroids":
        raise VersionError(f"expected a centroid container, found {metadata.get('kind')!r}")
    k = metadata["k"]
    with open(csv_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != "session_index,shard_id":
        raise ParseError(f"{csv_path}: expected the header session_index,shard_id",
                         line_number=1)
    pairs = []
    seen: set[int] = set()
    for number, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"{csv_path}: expected session_index,shard_id, got {line!r}",
                             line_number=number)
        try:
            i, c = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"{csv_path}: non-integer field in {line!r}",
                             line_number=number) from None
        if i < 0:
            raise ParseError(f"{csv_path}: negative session index {i}", line_number=number)
        if not 0 <= c < k:
            raise ParseError(f"{csv_path}: shard id {c} outside 0..{k - 1}",
                             line_number=number)
        if i in seen:
            raise ParseError(f"{csv_path}: session index {i} listed twice",
                             line_number=number)
        seen.add(i)
        pairs.append((i, c))
    missing = next((i for i in range(len(pairs)) if i not in seen), None)
    if missing is not None:
        raise ParseError(f"{csv_path}: no row for session index {missing}")
    expected = metadata.get("sessions")    # absent from files of older versions
    if expected is not None and expected != len(pairs):
        raise ParseError(f"{csv_path}: {len(pairs)} rows, but {bin_path} records "
                         f"{expected} sessions")
    members: list[list[int]] = [[] for _ in range(k)]
    for i, c in pairs:
        members[c].append(i)
    return ShardAssignment.from_members(
        [sorted(m) for m in members],
        tensors["centroids"],
        metadata["iterations_run"],
        metadata["delta"],
        tuple(tuple(r) for r in metadata.get("reseeds", [])),
    )


def save_centroid_state(path, centroids: ShardCentroids,
                        extra_metadata: dict | None = None) -> int:
    meta = {"kind": "shard_centroids", "source": centroids.source, **(extra_metadata or {})}
    return save_container(path, {"c": centroids.c}, meta)


def load_centroid_state(path, expected_config_hash: str | None = None,
                        force: bool = False) -> ShardCentroids:
    tensors, metadata = load_container(path)
    check_config_hash(metadata, expected_config_hash, force, path)
    if metadata.get("kind") != "shard_centroids":
        raise VersionError(f"expected shard centroids, found {metadata.get('kind')!r}")
    return ShardCentroids(c=tensors["c"], source=metadata["source"])
