"""Bit-exact binary persistence for models, datasets and partitions.

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
corrupt file never yields a partial model, and its error names the file.
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
from .partition import CorpusEmbedding, ShardAssignment

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
    """Cursor over the body ``blob[:end]`` of the file at ``path``: each
    field is decoded in place with ``unpack_from``, and reading past
    ``end`` is a truncation."""

    def __init__(self, path, blob: bytearray, end: int):
        self.path = path
        self.blob = blob
        self.end = end
        self.offset = 0

    def error(self, message: str) -> IntegrityError:
        """An ``IntegrityError`` naming the file and the current offset."""
        return IntegrityError(f"{self.path}: {message}", offset=self.offset)

    def skip(self, count: int) -> int:
        """Advance past ``count`` bytes; returns where they start."""
        if self.offset + count > self.end:
            raise self.error(f"file truncated: wanted {count} bytes, "
                             f"{self.end - self.offset} remain")
        start = self.offset
        self.offset += count
        return start

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack_from(self.blob, self.skip(fmt.size))

    def text(self, count: int, what: str) -> str:
        """The next ``count`` bytes, the file's ``what``, decoded as UTF-8."""
        start = self.skip(count)
        try:
            return self.blob[start : self.offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IntegrityError(f"{self.path}: {what} is not UTF-8: {exc.reason}",
                                 offset=start + exc.start) from None


def load_container(path, kinds: tuple[str, ...] | None = None,
                   expected_config_hash: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read and fully check one container: magic, checksum, version,
    framing, a metadata object, the config-hash stamp and a ``kind`` in
    ``kinds`` (any when None). The tensors are views of the one buffer the
    file was read into. Every error's message starts with the path."""
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if len(blob) < len(MAGIC) + 8:
        raise IntegrityError(f"{path}: file too short to be a checkpoint", offset=len(blob))
    if blob[: len(MAGIC)] != MAGIC:
        raise VersionError(f"{path}: unrecognized magic bytes {bytes(blob[:4])!r}; "
                           f"expected {MAGIC!r}")
    end = len(blob) - 4
    (expected_crc,) = _U32.unpack_from(blob, end)
    actual_crc = zlib.crc32(memoryview(blob)[:end])
    if actual_crc != expected_crc:
        raise IntegrityError(
            f"{path}: checksum mismatch: stored {expected_crc:#010x}, "
            f"computed {actual_crc:#010x}",
            offset=end,
        )

    reader = _Reader(path, blob, end)
    reader.skip(len(MAGIC))
    (version,) = reader.unpack(_U32)
    if version != VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = reader.unpack(_U32)
    try:
        metadata = json.loads(reader.text(meta_len, "metadata block"))
    except json.JSONDecodeError as exc:
        raise reader.error(f"metadata block unreadable: {exc}") from None
    if not isinstance(metadata, dict):
        raise reader.error(f"metadata block is a JSON {type(metadata).__name__}, not an object")
    (count,) = reader.unpack(_U32)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack(_U16)
        name = reader.text(name_len, "tensor name")
        tag, ndim = reader.unpack(_TAG_NDIM)
        if tag not in _TAG_DTYPES:
            raise reader.error(f"unknown dtype tag {tag} for tensor {name!r}")
        shape = reader.unpack(struct.Struct(f"<{ndim}Q"))
        (nbytes,) = reader.unpack(_U64)
        dtype = _TAG_DTYPES[tag]
        expected = math.prod(shape) * dtype.itemsize
        if nbytes != expected:
            raise reader.error(
                f"tensor {name!r}: {nbytes} bytes stored but shape {shape} needs {expected}")
        start = reader.skip(nbytes)
        tensors[name] = np.frombuffer(blob, dtype=dtype, count=nbytes // dtype.itemsize,
                                      offset=start).reshape(shape)
    if reader.offset != end:
        raise reader.error(f"{end - reader.offset} unexpected trailing bytes")
    check_config_hash(metadata, expected_config_hash, path)
    if kinds is not None and metadata.get("kind") not in kinds:
        raise VersionError(f"{path}: expected kind {' or '.join(map(repr, kinds))}, "
                           f"found kind {metadata.get('kind')!r}")
    return tensors, metadata


def check_config_hash(metadata: dict, expected: str | None, path) -> None:
    if expected is None:
        return
    found = metadata.get("config_hash")
    if found != expected:
        raise StaleArtifactError(
            f"{path} was produced under config hash {found}, current is {expected}; "
            "rerun the upstream stage"
        )


# -- typed wrappers ----------------------------------------------------------------


def _gru_layout(config: BackboneConfig, E):
    """A GRU checkpoint's tensor shapes, from its config's ``d`` and E's rows."""
    d = config.d
    return {"E": (E.shape[0], d), "W_zr": (d, 2 * d), "U_zr": (d, 2 * d), "b_zr": (2 * d,),
            "W_n": (d, d), "U_n": (d, d), "b_n": (d,)}


def _aggregation_layout(config: AggregationConfig, W_proj, b2):
    """``_gru_layout`` for a fusion checkpoint, from W_proj, b2 and its
    config: W_proj carries each projection's bias as its last row, and
    the centroids are one more tensor."""
    (k, _, d), num_items = W_proj.shape, len(b2)
    f, d_ff = config.f, config.d_ff or d
    return {"W_proj": (k, d + 1, d), "W_attn": (d, f), "b_attn": (f,),
            "g_attn": (f,), "W1": (d, d_ff), "b1": (d_ff,), "W2": (d_ff, num_items),
            "b2": (num_items,), "centroids": (k, d)}


# kind -> (model class, config class, the config's metadata key, the
# anchor tensors the layout reads sizes from with their ndim, the layout,
# a tensor that only files of the old, unpacked layout hold)
_MODELS = {
    "gru": (GruModel, BackboneConfig, "backbone_config", {"E": 2}, _gru_layout, "W_z"),
    "aggregation": (AggregationModel, AggregationConfig, "agg_config", {"W_proj": 3, "b2": 1},
                    _aggregation_layout, "b_proj"),
}


def save_checkpoint(obj, path, extra_metadata: dict | None = None) -> int:
    """Persist a GruModel or AggregationModel: its tensors, whose shapes
    are its sizes, and in the metadata its training config and per-epoch
    training loss curve (``loss_history``); for an AggregationModel its
    centroids as one more tensor."""
    kind = next((kind for kind, spec in _MODELS.items() if isinstance(obj, spec[0])), None)
    if kind is None:
        raise ContractError(f"cannot checkpoint object of type {type(obj).__name__}")
    config_key = _MODELS[kind][2]
    meta = {"kind": kind, config_key: obj.config.as_dict(),
            "loss_history": list(obj.loss_history)}
    tensors = dict(obj.store.params)
    if kind == "aggregation":
        tensors["centroids"] = obj.centroids.c
    return save_container(path, tensors, {**meta, **(extra_metadata or {})})


def load_checkpoint(path, expected_config_hash: str | None = None):
    """Load a model checkpoint back into its typed object; a checkpoint
    written without a loss curve loads with an empty one.

    The model is read from its tensors and its training config, so both
    are checked first. A missing or unreadable config, an anchor tensor
    (E; W_proj, b2) absent or of another ndim, other tensors than the
    layout that the anchors and config give, a tensor that is not
    float32, or a ``loss_history`` that is not a list of numbers raise
    IntegrityError naming the file. A file of the old layout, a GRU with
    per-gate tensors (W_z) or a fusion layer with b_proj, first raises
    VersionError naming the file; ``train-shards`` and ``train-agg``
    rewrite it with the same values. Other metadata keys are ignored.
    """
    tensors, metadata = load_container(path, tuple(_MODELS), expected_config_hash)
    kind = metadata["kind"]
    model_class, config_class, config_key, anchors, layout, old_tensor = _MODELS[kind]
    if old_tensor in tensors:
        raise VersionError(f"{path}: a model file in the old layout (it holds {old_tensor}); "
                           f"rerun train-shards and train-agg to rewrite it")
    stored = metadata.get(config_key)
    try:
        config = config_class(**stored)
    except (TypeError, ContractError) as exc:
        raise IntegrityError(f"{path}: no readable training config {config_key!r} "
                             f"({type(exc).__name__}: {exc})") from None
    found = {name: t.shape for name, t in tensors.items()}
    wrong = ", ".join(f"{name} is {found.get(name, 'absent')}, expected {ndim}-D"
                      for name, ndim in anchors.items() if len(found.get(name, ())) != ndim)
    if wrong:
        raise IntegrityError(f"{path}: {wrong}")
    expected = layout(config, **{name: tensors[name] for name in anchors})
    if found != expected:
        wrong = sorted(name for name in found.keys() | expected.keys()
                       if found.get(name) != expected.get(name))
        raise IntegrityError(f"{path}: the tensors disagree with each other or with "
                             f"{config_key}: " + ", ".join(
                                 f"{name} is {found.get(name, 'absent')}, expected "
                                 f"{expected.get(name, 'absent')}" for name in wrong))
    wrong = sorted(name for name, t in tensors.items() if t.dtype != np.float32)
    if wrong:
        raise IntegrityError(f"{path}: " + ", ".join(
            f"{name} is {tensors[name].dtype}, expected float32" for name in wrong))
    history = metadata.get("loss_history", [])
    if not isinstance(history, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in history):
        raise IntegrityError(f"{path}: metadata field 'loss_history' is not a list of numbers")
    own = ({} if kind == "gru" else
           {"centroids": ShardCentroids(tensors.pop("centroids"))})
    return model_class(store=ParamStore(tensors), config=config, loss_history=history, **own)


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
        meta["session_ids"][tag] = [s.session_id for s in ds.sessions]
    return save_container(path, tensors, meta)


def load_datasets(path, expected_config_hash: str | None = None,
                  splits=None) -> dict[str, SessionDataset]:
    """Load the splits of one dataset container, keyed by tag.

    ``splits`` names the tags to build sessions for (default: all). The
    whole container is still read and checksummed; a tag the container
    does not hold is a ``ParseError`` naming the file and the tag.
    """
    tensors, metadata = load_container(path, ("dataset",), expected_config_hash)
    _check_dataset_metadata(path, metadata)
    tags = metadata["splits"] if splits is None else list(splits)
    for tag in tags:
        if tag not in metadata["splits"]:
            raise ParseError(f"{path}: no split {tag!r}; the file holds "
                             f"{', '.join(metadata['splits'])}")
    vocab = ItemVocab.from_tokens(metadata["vocab"])
    out: dict[str, SessionDataset] = {}
    for tag in tags:
        session_ids = metadata["session_ids"][tag]
        _check_split_layout(path, tag, tensors, len(session_ids))
        _check_item_array(session_ids, tensors[f"{tag}/items"], tensors[f"{tag}/offsets"],
                          len(vocab))
        offsets = tensors[f"{tag}/offsets"].tolist()
        items = tensors[f"{tag}/items"].tolist()
        clusters = tensors[f"{tag}/clusters"].tolist()
        sessions = []
        for i, sid in enumerate(session_ids):
            lo, hi = offsets[i], offsets[i + 1]
            sessions.append(Session(
                session_id=sid,
                items=tuple(items[lo:hi]),
                cluster=None if clusters[i] < 0 else clusters[i],
            ))
        sessions = tuple(sessions)
        out[tag] = SessionDataset(sessions=sessions, vocab=vocab, split_tag=tag,
                                  checked=sessions)
    return out


def _check_dataset_metadata(path, metadata: dict) -> None:
    """``splits`` and ``vocab`` are lists of strings and ``session_ids`` an
    object with one for each split; the first field that is not raises
    IntegrityError naming the file and the field. So does a token that
    ``vocab`` repeats, and a session id that one split repeats, which
    the error also names with its split."""
    def strings(value):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    splits, session_ids = metadata.get("splits"), metadata.get("session_ids")
    valid = {"splits": strings(splits), "vocab": strings(metadata.get("vocab")),
             "session_ids": isinstance(session_ids, dict) and strings(splits)
             and all(strings(session_ids.get(tag)) for tag in splits)}
    bad = [field for field, ok in valid.items() if not ok]
    if bad:
        raise IntegrityError(f"{path}: dataset metadata field {bad[0]!r} is missing or malformed")
    token = _first_repeat(metadata["vocab"])
    if token is not None:
        raise IntegrityError(f"{path}: dataset metadata field 'vocab' repeats token {token!r}")
    for tag in splits:
        sid = _first_repeat(session_ids[tag])
        if sid is not None:
            raise IntegrityError(f"{path}: dataset metadata field 'session_ids': split {tag!r} "
                                 f"repeats session id {sid!r}")


def _first_repeat(values):
    """The first value that occurs a second time, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def _check_split_layout(path, tag: str, tensors: dict, sessions: int) -> None:
    """One split's tensors hold ``sessions`` sessions: int64 items,
    offsets and clusters vectors, offsets running from 0 to len(items)
    without decreasing, one more offset than sessions and one cluster per
    session. The first breach raises IntegrityError naming the file and
    the split."""
    names = [f"{tag}/{part}" for part in ("items", "offsets", "clusters")]
    missing = [name for name in names if name not in tensors]
    if missing:
        raise IntegrityError(f"{path}: split {tag!r}: no tensor {missing[0]}")
    items, offsets, clusters = (tensors[name] for name in names)
    wrong = [f"{name} is {t.dtype} {t.shape}" for name, t in zip(names, (items, offsets, clusters))
             if t.dtype != np.int64 or t.ndim != 1]
    if wrong:
        problem = "expected int64 vectors: " + ", ".join(wrong)
    elif len(offsets) != sessions + 1:
        problem = f"{len(offsets)} offsets for {sessions} session ids, expected {sessions + 1}"
    elif offsets[0] != 0:
        problem = f"offsets start at {offsets[0]}, not 0"
    elif np.any(np.diff(offsets) < 0):
        problem = f"offsets decrease after offset {int(np.argmax(np.diff(offsets) < 0))}"
    elif offsets[-1] != len(items):
        problem = f"offsets end at {offsets[-1]}, but there are {len(items)} items"
    elif len(clusters) != sessions:
        problem = f"{len(clusters)} clusters for {sessions} session ids"
    else:
        return
    raise IntegrityError(f"{path}: split {tag!r}: {problem}")


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


def save_embedding(path, embedding: CorpusEmbedding,
                   extra_metadata: dict | None = None) -> int:
    """Persist the corpus embedding: its basis and scale as tensors, and
    no metadata of its own beyond the kind."""
    return save_container(path, {"basis": embedding.basis, "scale": embedding.scale},
                          {"kind": "embedding", **(extra_metadata or {})})


def load_embedding(path, expected_config_hash: str | None = None) -> CorpusEmbedding:
    """Load an embedding container. Another kind raises VersionError;
    tensors other than a float64 basis (V+1, d) with V >= 1 and d >= 1
    and a float64 scale (d,) raise IntegrityError naming the file."""
    tensors, _ = load_container(path, ("embedding",), expected_config_hash)
    basis, scale = tensors.get("basis"), tensors.get("scale")
    if (tensors.keys() != {"basis", "scale"} or basis.dtype != np.float64
            or scale.dtype != np.float64 or basis.ndim != 2 or basis.shape[0] < 2
            or basis.shape[1] < 1 or scale.shape != basis.shape[1:]):
        found = ", ".join(f"{name} {t.dtype} {t.shape}" for name, t in sorted(tensors.items()))
        raise IntegrityError(f"{path}: expected a float64 basis (V+1, d) and a float64 "
                             f"scale (d,), found {found or 'no tensors'}")
    return CorpusEmbedding(basis=basis, scale=scale)


def save_assignment(path, assignment: ShardAssignment,
                    extra_metadata: dict | None = None) -> int:
    """Persist the partition in one container: ``shard_of`` and the
    centroids as tensors, the k-means diagnostics as metadata. The shard
    and session counts are the tensors' shapes, not stored apart."""
    meta = {"kind": "partition", "iterations_run": assignment.iterations_run,
            "delta": assignment.delta, "reseeds": [list(r) for r in assignment.reseeds],
            **(extra_metadata or {})}
    return save_container(path, {"shard_of": assignment.shard_of,
                                 "centroids": assignment.centroids}, meta)


def load_assignment(path, expected_config_hash: str | None = None) -> ShardAssignment:
    """Load a partition container. Tensors other than an int64
    ``shard_of`` vector and a 2-D ``centroids`` matrix, or a partition
    that ``ShardAssignment`` rejects, raise IntegrityError naming the
    file."""
    tensors, metadata = load_container(path, ("partition",), expected_config_hash)
    shard_of, centroids = tensors.get("shard_of"), tensors.get("centroids")
    if (tensors.keys() != {"shard_of", "centroids"} or shard_of.dtype != np.int64
            or shard_of.ndim != 1 or centroids.ndim != 2):
        found = ", ".join(f"{name} {t.dtype} {t.shape}" for name, t in sorted(tensors.items()))
        raise IntegrityError(f"{path}: expected an int64 shard_of vector and a 2-D centroids "
                             f"matrix, found {found or 'no tensors'}")
    try:
        return ShardAssignment(shard_of, centroids, metadata["iterations_run"],
                               metadata["delta"], tuple(map(tuple, metadata["reseeds"])))
    except (KeyError, TypeError, ContractError) as exc:
        raise IntegrityError(f"{path}: not a valid partition "
                             f"({type(exc).__name__}: {exc})") from None

