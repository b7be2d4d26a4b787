"""Sharded session-recommendation unlearning.

Training sessions are partitioned into similarity-based, capacity-bounded
shards, one sequence model is trained per shard, and a centroid-conditioned
attention layer fuses the per-shard states into the final next-item
prediction. Deleting an interaction retrains only the owning shard's model
plus the fusion layer, optionally removing extra correlated items so the
deleted one cannot be re-inferred; an audit measures exactly that.
"""

from .aggregation import (
    AggregationConfig,
    AggregationModel,
    ShardCentroids,
    SruModel,
    compute_centroid,
    compute_centroids,
    train_aggregation,
)
from .backbone import (
    BackboneConfig,
    GruModel,
    encode_batch,
    init_gru_model,
    train_backbone,
    train_many,
    train_many_timed,
)
from .checkpoint import (
    load_assignment,
    load_checkpoint,
    load_datasets,
    load_embedding,
    save_assignment,
    save_checkpoint,
    save_datasets,
    save_embedding,
)
from .config import ExperimentConfig
from .corpus import (
    ItemVocab,
    Session,
    SessionDataset,
    generate_synthetic,
    ingest_log,
    preprocess,
    split,
)
from .errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    EmptyDatasetError,
    IntegrityError,
    ParseError,
    PositionError,
    SruError,
    StageDependencyError,
    StaleArtifactError,
    UnknownSessionError,
    VersionError,
)
from .evaluation import (
    SisaModel,
    benchmark_unlearn,
    evaluate,
    hit_effectiveness,
    sisa_baseline,
)
from .numerics import (
    AdamState,
    ParamStore,
    adam_step,
    derive_seed,
    ranks_from_logits,
    rng_stream,
)
from .partition import (
    CorpusEmbedding,
    PartitionConfig,
    ShardAssignment,
    balanced_kmeans,
    cluster_purity,
    embed_all,
    fit_corpus_embedding,
    make_shards,
)
from .pipeline import fit_state, load_model, load_state, run_pipeline
from .reports import EffectivenessReport, RankingReport, TimingReport, emit_report
from .unlearning import (
    DeletionResult,
    SruState,
    UnlearnOutcome,
    UnlearnRequest,
    ced_select,
    execute_unlearn,
    load_requests,
    ned_select,
    red_select,
    sample_requests,
    save_requests,
)

__version__ = "0.1.0"
