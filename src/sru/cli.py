"""Command-line entry point wrapping the staged pipeline."""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig
from .errors import SruError
from .pipeline import run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sru",
        description="Sharded session-recommendation unlearning pipeline. "
                    "Stages communicate through artifacts in --run-dir.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_stage(name, help_text, **extras):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="flat key = value config file (defaults apply when omitted)")
        p.add_argument("--run-dir", default="sru-run",
                       help="artifact directory shared by all stages")
        for flag, kwargs in extras.items():
            p.add_argument(flag, **kwargs)
        return p

    add_stage("preprocess", "build the train/validation/test dataset artifact")
    add_stage("pretrain", "fit the corpus embedding of the training sessions")
    add_stage("partition", "shard sessions by balanced k-means over their embeddings")
    add_stage("train-shards", "train one sub-model per shard")
    add_stage("train-agg", "train the attentive fusion layer")
    add_stage("eval", "score the fused model on a held-out split",
              **{"--split": dict(choices=("validation", "test"), default="test")})
    add_stage("unlearn", "apply deletion requests and retrain what they touch",
              **{"--requests": dict(required=True,
                                    help="CSV: session_id,target_position,strategy,N")})
    add_stage("effectiveness", "audit whether deleted items can be re-inferred")
    add_stage("bench", "time selective unlearning against full retraining",
              **{"--requests": dict(required=True)})
    add_stage("ablate", "run one ablation recipe end to end",
              **{"mode": dict(choices=("shards", "partition", "deletion"))})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = ExperimentConfig.from_file(args.config)
        else:
            config = ExperimentConfig.defaults()
        return run_pipeline(
            args.subcommand,
            config,
            args.run_dir,
            requests_path=getattr(args, "requests", None),
            split_tag=getattr(args, "split", "test"),
            ablate_mode=getattr(args, "mode", None),
        )
    except SruError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
