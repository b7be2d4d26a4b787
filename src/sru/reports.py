"""Report value types and deterministic CSV/JSON emission."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .checkpoint import write_atomic
from .errors import ContractError

__all__ = ["EffectivenessReport", "RankingReport", "TimingReport", "emit_report", "write_csv"]


@dataclass
class RankingReport:
    """Recall@K and NDCG@K means over all evaluation points."""

    recall: dict[int, float]
    ndcg: dict[int, float]
    evaluation_points: int

    def __post_init__(self):
        for k in self.recall:
            r, n = self.recall[k], self.ndcg[k]
            if not (0.0 <= r <= 1.0 and 0.0 <= n <= 1.0):
                raise ContractError(f"metrics at K={k} outside [0, 1]: recall {r}, ndcg {n}")
            if n > r + 1e-9:
                raise ContractError(f"ndcg@{k}={n} exceeds recall@{k}={r}")

    def as_dict(self) -> dict:
        return {
            "recall": {str(k): v for k, v in sorted(self.recall.items())},
            "ndcg": {str(k): v for k, v in sorted(self.ndcg.items())},
            "evaluation_points": self.evaluation_points,
        }


@dataclass
class EffectivenessReport:
    """HIT@K of deleted items re-surfacing from the surviving context.

    Lower is better unlearning. Requests whose surviving context was
    empty are excluded from the ratio and counted separately.
    """

    hit: dict[int, float]
    audited_requests: int
    skipped_empty_prefix: int

    def __post_init__(self):
        ks = sorted(self.hit)
        for k in ks:
            if not 0.0 <= self.hit[k] <= 1.0:
                raise ContractError(f"hit@{k}={self.hit[k]} outside [0, 1]")
        for lo, hi in zip(ks, ks[1:]):
            if self.hit[hi] < self.hit[lo] - 1e-12:
                raise ContractError(
                    f"hit@{hi}={self.hit[hi]} below hit@{lo}={self.hit[lo]}"
                )

    def as_dict(self) -> dict:
        return {
            "hit": {str(k): v for k, v in sorted(self.hit.items())},
            "audited_requests": self.audited_requests,
            "skipped_empty_prefix": self.skipped_empty_prefix,
        }


@dataclass
class TimingReport:
    """Wall-clock phases of one unlearning pass, in milliseconds.

    The fusion side is split into three consecutive phases: refreshing
    the shard centroids, rebuilding the training corpus and its feature
    cache, and training the fusion layer. ``aggregation_retrain_ms`` is
    their sum. The sub-model phase plus the three never exceed
    ``total_ms``; the rest of the total is request resolution and session
    rewriting. ``retrain_workers`` is the number of processes that
    retrained the affected sub-models: 1 means in process, 0 that none
    was retrained. Above 1 the ``per_shard_ms`` times overlap, so their
    sum can exceed ``sub_model_retrain_ms``.
    """

    sub_model_retrain_ms: float = 0.0
    total_ms: float = 0.0
    full_retrain_reference_ms: float | None = None
    per_shard_ms: dict[int, float] = field(default_factory=dict)
    retrain_workers: int = 0
    centroid_refresh_ms: float = 0.0
    feature_cache_ms: float = 0.0
    fusion_training_ms: float = 0.0

    def __post_init__(self):
        for phase in (self.sub_model_retrain_ms, self.aggregation_retrain_ms):
            if self.total_ms + 1e-6 < phase:
                raise ContractError("total time is below a component phase")
        parts = (self.sub_model_retrain_ms + self.centroid_refresh_ms
                 + self.feature_cache_ms + self.fusion_training_ms)
        if self.total_ms + 1e-6 < parts:
            raise ContractError("total time is below the sum of its phases")

    @property
    def aggregation_retrain_ms(self) -> float:
        return self.centroid_refresh_ms + self.feature_cache_ms + self.fusion_training_ms

    @property
    def speedup(self) -> float | None:
        if self.full_retrain_reference_ms is None or self.total_ms == 0.0:
            return None
        return self.full_retrain_reference_ms / self.total_ms

    def as_dict(self) -> dict:
        out = {
            "sub_model_retrain_ms": self.sub_model_retrain_ms,
            "aggregation_retrain_ms": self.aggregation_retrain_ms,
            "centroid_refresh_ms": self.centroid_refresh_ms,
            "feature_cache_ms": self.feature_cache_ms,
            "fusion_training_ms": self.fusion_training_ms,
            "total_ms": self.total_ms,
            "per_shard_ms": {str(k): v for k, v in sorted(self.per_shard_ms.items())},
            "retrain_workers": self.retrain_workers,
        }
        if self.full_retrain_reference_ms is not None:
            out["full_retrain_reference_ms"] = self.full_retrain_reference_ms
            out["speedup"] = self.speedup
        return out


def _six_digits(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def _rounded(obj):
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return _six_digits(obj)


def write_csv(path, header, rows) -> None:
    """Write a header row and rows as CSV with "\n" line ends, atomically
    (``write_atomic``); a field that holds a comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, out.getvalue().encode("utf-8"))


def emit_report(report, fmt: str, path) -> None:
    """Write a report as CSV or JSON with a stable field order.

    Floats are serialized with 6 significant digits; identical reports
    always produce byte-identical files. CSV has one row per metric/K
    pair (the K column is empty for scalar fields).
    """
    data = report.as_dict() if hasattr(report, "as_dict") else dict(report)
    if fmt == "json":
        text = json.dumps(_rounded(data), sort_keys=True, indent=2) + "\n"
        write_atomic(path, text.encode("utf-8"))
    elif fmt == "csv":
        rows = []
        for metric in sorted(data):
            value = data[metric]
            if isinstance(value, dict):
                rows.extend((metric, k, _six_digits(value[k]))
                            for k in sorted(value, key=lambda s: (len(s), s)))
            else:
                rows.append((metric, "", _six_digits(value)))
        write_csv(path, ("metric", "k", "value"), rows)
    else:
        raise ContractError(f"unknown report format {fmt!r}; use 'csv' or 'json'")
