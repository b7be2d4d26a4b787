"""Interaction-log ingestion, preprocessing into fixed-length sessions,
train/validation/test splitting, and synthetic corpus generation.

External item identifiers are mapped to dense internal ids 1..|V|;
internal id 0 is the reserved padding id and never maps to a real item.
Sessions are stored compact (unpadded); padding is applied by consumers
when they batch.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ContractError, EmptyDatasetError, ParseError
from .numerics import rng_stream

PAD_ID = 0
SPLIT_TAGS = ("train", "validation", "test")


@dataclass(frozen=True)
class ItemVocab:
    """Bijection between external item tokens and dense internal ids.

    tokens[i - 1] is the external token for internal id i; id 0 is the
    padding id and has no token.
    """

    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_tokens(cls, tokens) -> "ItemVocab":
        tokens = tuple(tokens)
        index = {tok: i + 1 for i, tok in enumerate(tokens)}
        if len(index) != len(tokens):
            raise ContractError("vocabulary tokens must be unique")
        return cls(tokens=tokens, index=index)

    @property
    def pad_id(self) -> int:
        return PAD_ID

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index[token]

    def token_of(self, item_id: int) -> str:
        if not 1 <= item_id <= len(self.tokens):
            raise IndexError(f"internal id {item_id} outside 1..{len(self.tokens)}")
        return self.tokens[item_id - 1]

    def __eq__(self, other):
        return isinstance(other, ItemVocab) and self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)


@dataclass(frozen=True)
class Session:
    """One ordered interaction sequence.

    cluster carries the generating-cluster label for synthetic data and is
    None for real logs; it is diagnostic metadata only.
    """

    session_id: str
    items: tuple[int, ...]
    cluster: int | None = None

    def __post_init__(self):
        if PAD_ID in self.items:
            raise ContractError(f"session {self.session_id!r} contains the pad id")

    def __len__(self) -> int:
        return len(self.items)


def check_sessions(sessions, num_items: int) -> None:
    """Every session must hold at least 2 items, each in 1..num_items; the
    first one that does not raises ``ContractError`` naming it."""
    for s in sessions:
        if len(s) < 2:
            raise ContractError(f"session {s.session_id!r} has fewer than 2 items")
        if min(s.items) < 1 or max(s.items) > num_items:
            raise ContractError(f"session {s.session_id!r} has an out-of-vocabulary id")


@dataclass(frozen=True)
class SessionDataset:
    """A collection of sessions over one shared vocabulary.

    Each session is checked against the vocabulary once: ``checked``
    holds sessions that are known to pass (those of a dataset over the
    same vocabulary, or ones the caller has checked), and only the others
    are checked here. Models cut sessions to their config's ``max_len``.
    """

    sessions: tuple[Session, ...]
    vocab: ItemVocab
    split_tag: str = "train"
    checked: InitVar[tuple[Session, ...]] = ()

    def __post_init__(self, checked):
        if self.split_tag not in SPLIT_TAGS:
            raise ContractError(f"split_tag must be one of {SPLIT_TAGS}, got {self.split_tag!r}")
        if checked is not self.sessions:
            known = {id(s) for s in checked}
            check_sessions((s for s in self.sessions if id(s) not in known), len(self.vocab))

    def __len__(self) -> int:
        return len(self.sessions)

    def num_items(self) -> int:
        return len(self.vocab)

    def with_sessions(self, sessions, split_tag=None) -> "SessionDataset":
        """A dataset over the same vocabulary; sessions carried over from
        this one are not checked again."""
        return SessionDataset(
            sessions=tuple(sessions),
            vocab=self.vocab,
            split_tag=split_tag or self.split_tag,
            checked=self.sessions,
        )

    def subset(self, indices) -> "SessionDataset":
        """The dataset of this one's sessions at ``indices``, in that
        order; they are all carried over, so none is checked again."""
        sessions = tuple(self.sessions[i] for i in indices)
        return SessionDataset(sessions=sessions, vocab=self.vocab,
                              split_tag=self.split_tag, checked=sessions)


def read_text(path) -> str:
    """An input file's UTF-8 text, newlines as stored; a file that cannot
    be read as such is a ParseError whose message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def parse_file(path, parse):
    """``parse`` of the text that ``read_text`` reads from ``path``; a
    ParseError or ContractError that ``parse`` raises gets the path in
    front of its message."""
    text = read_text(path)
    try:
        return parse(text)
    except (ParseError, ContractError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def ingest_log(source) -> dict[str, list[tuple[str, int]]]:
    """Parse raw TSV interaction lines into per-session event lists.

    Each line is ``session_id <TAB> item_token <TAB> timestamp`` with an
    integer timestamp. Returns {session_id: [(token, ts), ...]} with each
    list sorted by timestamp ascending (stable, so ties keep input
    order) and session ids in first-appearance order. Blank lines are
    ignored; any other malformed line raises ParseError with its 1-based
    line number.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        raise ContractError(f"unsupported ingest source type {type(source).__name__}")

    groups: dict[str, list[tuple[str, int]]] = {}
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
        sid, token, ts_text = parts
        if not sid or not token:
            raise ParseError("empty session id or item token", lineno)
        try:
            ts = int(ts_text)
        except ValueError:
            raise ParseError(f"timestamp {ts_text!r} is not an integer", lineno) from None
        groups.setdefault(sid, []).append((token, ts))
    for sid in groups:
        groups[sid].sort(key=lambda pair: pair[1])
    return groups


def preprocess(raw: dict[str, list[tuple[str, int]]], min_count: int = 5,
               max_len: int = 10) -> SessionDataset:
    """Filter, truncate, and index a raw interaction log.

    Single-pass core filtering: items occurring fewer than min_count
    times are removed first, then sessions with fewer than min_count
    surviving interactions are dropped (no iterative re-filtering).
    Surviving sessions keep their last max_len interactions. The
    vocabulary covers exactly the items present in the result.
    """
    if max_len < 2:
        raise ContractError(f"max_len must be >= 2, got {max_len}")
    counts: dict[str, int] = {}
    for events in raw.values():
        for token, _ in events:
            counts[token] = counts.get(token, 0) + 1
    kept_tokens = {tok for tok, c in counts.items() if c >= min_count}

    surviving: list[tuple[str, list[tuple[str, int]]]] = []
    for sid, events in raw.items():
        filtered = [(tok, ts) for tok, ts in events if tok in kept_tokens]
        if len(filtered) < min_count:
            continue
        surviving.append((sid, filtered[-max_len:]))
    if not surviving:
        raise EmptyDatasetError(
            f"no sessions survive min_count={min_count} filtering of "
            f"{len(raw)} raw sessions"
        )

    # Vocabulary in first-appearance order over the final sessions.
    order: list[str] = []
    seen: set[str] = set()
    for _, events in surviving:
        for tok, _ in events:
            if tok not in seen:
                seen.add(tok)
                order.append(tok)
    vocab = ItemVocab.from_tokens(order)

    sessions = tuple(
        Session(
            session_id=sid,
            items=tuple(vocab.id_of(tok) for tok, _ in events),
        )
        for sid, events in surviving
    )
    return SessionDataset(sessions=sessions, vocab=vocab, split_tag="train")


def _split_sizes(n: int, ratios: tuple[int, int, int]) -> list[int]:
    # Largest-remainder apportionment; stays within +/-1 of exact shares.
    total = sum(ratios)
    exact = [n * r / total for r in ratios]
    sizes = [int(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    for _ in range(n - sum(sizes)):
        i = max(range(len(ratios)), key=lambda j: (remainders[j], -j))
        sizes[i] += 1
        remainders[i] = -1.0
    return sizes


def split(dataset: SessionDataset, ratios: tuple[int, int, int] = (8, 1, 1),
          seed: int = 0):
    """Disjoint session-level split into (train, validation, test).

    The assignment comes from one seeded shuffle, so a fixed seed always
    reproduces the same partition.
    """
    if sum(ratios) != 10:
        raise ContractError(f"split ratios must sum to 10, got {ratios}")
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    if n < 10:
        warnings.warn(
            f"splitting only {n} sessions; ratios {ratios} are approximate",
            stacklevel=2,
        )
    stream = rng_stream(seed, "corpus/split")
    perm = stream.permutation(n)
    sizes = _split_sizes(n, ratios)
    if sizes[0] == 0:
        # Always keep at least one training session.
        donor = max(range(1, 3), key=lambda j: sizes[j])
        sizes[donor] -= 1
        sizes[0] += 1
    cut1 = sizes[0]
    cut2 = sizes[0] + sizes[1]
    picks = (perm[:cut1], perm[cut1:cut2], perm[cut2:])
    out = []
    for tag, idx in zip(SPLIT_TAGS, picks):
        chosen = sorted(int(i) for i in idx)
        out.append(dataset.with_sessions((dataset.sessions[i] for i in chosen), split_tag=tag))
    return tuple(out)


def _cluster_transitions(block: list[int],
                         stream: np.random.Generator) -> dict[int, tuple[list[int], list[float]]]:
    # A random cycle through the block carries most of the mass, with two
    # random escapes per item. The cycle keeps the stationary distribution
    # near uniform (so popularity alone predicts little) while each step
    # stays strongly predictable from the previous item.
    table = {}
    weights = [0.7, 0.2, 0.1]
    order = [block[j] for j in stream.permutation(len(block))]
    for i, item in enumerate(order):
        succ = [
            order[(i + 1) % len(order)],
            block[int(stream.integers(len(block)))],
            block[int(stream.integers(len(block)))],
        ]
        table[item] = (succ, weights)
    return table


def generate_synthetic(num_sessions: int, vocab_size: int, num_clusters: int,
                       noise_rate: float = 0.0,
                       seed: int = 0, min_len: int = 8, max_len: int = 14) -> SessionDataset:
    """Desk-scale synthetic corpus with planted session clusters.

    Sessions are emitted by first-order Markov chains, one chain per
    cluster over its own disjoint item block. Each emission is replaced
    by a uniform-random item with probability noise_rate (the hidden
    chain state still advances). The generating cluster is recorded on
    every session for partition-quality diagnostics.
    """
    if num_clusters < 1:
        raise ContractError(f"num_clusters must be >= 1, got {num_clusters}")
    if vocab_size < num_clusters * 10:
        raise ContractError(
            f"vocab_size must be >= 10 * num_clusters ({num_clusters * 10}), got {vocab_size}"
        )
    if not 0.0 <= noise_rate <= 1.0:
        raise ContractError(f"noise_rate must be in [0, 1], got {noise_rate}")
    if not 2 <= min_len <= max_len:
        raise ContractError(f"need 2 <= min_len <= max_len, got {min_len}..{max_len}")

    stream = rng_stream(seed, "corpus/synthetic")
    block_size = vocab_size // num_clusters
    blocks = [
        list(range(1 + c * block_size, 1 + (c + 1) * block_size))
        for c in range(num_clusters)
    ]
    chains = [_cluster_transitions(block, stream) for block in blocks]

    sessions = []
    for idx in range(num_sessions):
        cluster = int(stream.integers(num_clusters))
        length = int(stream.integers(min_len, max_len + 1))
        state = blocks[cluster][int(stream.integers(block_size))]
        items = []
        for _ in range(length):
            if float(stream.random()) < noise_rate:
                items.append(1 + int(stream.integers(vocab_size)))
            else:
                items.append(state)
            succ, weights = chains[cluster][state]
            u = float(stream.random())
            acc = 0.0
            nxt = succ[-1]
            for s, w in zip(succ, weights):
                acc += w
                if u < acc:
                    nxt = s
                    break
            state = nxt
        sessions.append(
            Session(
                session_id=f"syn{idx:05d}",
                items=tuple(items),
                cluster=cluster,
            )
        )

    vocab = ItemVocab.from_tokens(f"item{i:05d}" for i in range(1, vocab_size + 1))
    return SessionDataset(sessions=tuple(sessions), vocab=vocab, split_tag="train")

