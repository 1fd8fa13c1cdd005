"""Command-line entry points: synth, train, evaluate, embed, gradcheck.

``train`` fits the manifest's ``train`` split, saving every epoch and ``final.ckpt``; it
reads an optional `key = value` config file, overridden by one flag per config field.
``evaluate`` takes no config: a trained system's is its checkpoint's.  Its one model
setting, ``--score-fusion-weight`` (default ``TrainConfig.score_fusion_weight``), is read
by ``score_level`` alone and refused for every other system.  Every command that draws
from a seed echoes it for reproduction.  Flags are taken only in full: a prefix of one is
refused, so no later flag can change what an old command means.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from avfuse.config import ConfigError, TrainConfig, load_config
from avfuse.evaluation import RAW_SYSTEMS, TRAINED_SYSTEMS, embed_utterances, evaluate
from avfuse.featio import load_dataset, parse_trial_list, refuse_unnamed, save_features
from avfuse.gradcheck import format_suite_report, run_suite
from avfuse.metrics import DcfParams, format_report
from avfuse.model import VerificationModel
from avfuse.synthetic import SyntheticSpec, generate_dataset
from avfuse.training import DivergenceError, train


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One ``--flag`` per TrainConfig field; values stay strings until ``load_config`` parses them."""
    parser.add_argument("--config", type=Path, help="flat `key = value` config file")
    for field in fields(TrainConfig):
        parser.add_argument(f"--{field.name.replace('_', '-')}", dest=field.name, default=None)


def _config_flags(args: argparse.Namespace) -> dict[str, str]:
    """The TrainConfig flags given on the command line, by field name."""
    return {f.name: getattr(args, f.name) for f in fields(TrainConfig)
            if getattr(args, f.name) is not None}


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    return load_config(args.config, _config_flags(args))


def _cmd_synth(args) -> int:
    if args.eval_utts_per_speaker < 2:
        # Target trials pair two held-out utterances of one speaker.
        raise ConfigError(f"--eval-utts-per-speaker {args.eval_utts_per_speaker} gives no target "
                          f"trials; hold out at least 2 utterances per speaker")
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    entries = generate_dataset(spec, args.out)
    print(f"seed = {spec.seed}")
    print(f"wrote {len(entries)} utterances "
          f"({sum(e.split == 'eval' for e in entries)} held out) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    print(f"seed = {config.seed}")
    train_utts = [u for u in load_dataset(args.data).values() if u.split == "train"]
    result = train(config, train_utts, args.out)
    for epoch, loss in enumerate(result.epoch_losses):
        print(f"epoch {epoch} loss {loss!r}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_evaluate(args) -> int:
    trained = args.system in TRAINED_SYSTEMS
    if trained and args.checkpoint is None:
        raise ConfigError(f"system {args.system!r} requires --checkpoint")
    if not trained and args.checkpoint is not None:
        raise ConfigError(f"system {args.system!r} is untrained; remove --checkpoint")
    weight = args.score_fusion_weight
    if weight is not None and args.system != "score_level":
        raise ConfigError(f"system {args.system!r} does not read --score-fusion-weight; remove it")
    dcf = DcfParams(**{f.name: getattr(args, f.name) for f in fields(DcfParams)})
    trials = parse_trial_list(args.trials)
    if not trials:
        raise ConfigError(f"{args.trials}: empty trial list")
    utterances = load_dataset(args.data)
    model = None
    if trained:
        model = VerificationModel.from_checkpoint(args.checkpoint)
        print(f"seed = {model.config.seed}")
    report, _ = evaluate(args.system, trials, utterances, model=model,
                         dcf_params=dcf, scores_path=args.scores_out,
                         weight=TrainConfig.score_fusion_weight if weight is None else weight)
    print(format_report(report))
    if args.scores_out:
        print(f"scores written to {args.scores_out}")
    return 0


def _cmd_embed(args) -> int:
    model = VerificationModel.from_checkpoint(args.checkpoint)
    print(f"seed = {model.config.seed}")
    utterances = load_dataset(args.data)
    ids = sorted(utterances)
    out_dir = Path(args.out)
    names = [f"{utt_id}.emb.avf" for utt_id in ids]
    refuse_unnamed(out_dir, ".emb.avf", set(names),
                   "embedding not named by this run; embed into an empty directory")
    embeddings = embed_utterances(model, ids, utterances)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, emb in zip(names, embeddings):
        save_features(out_dir / name, emb.reshape(-1, 1))
    print(f"embedded {len(utterances)} utterances to {out_dir}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    print(f"seed = {args.seed}")
    print(format_suite_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfuse",
        description="Audio-visual person verification: synthesis, training, evaluation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset", allow_abbrev=False)
    p.add_argument("--out", type=Path, required=True)
    for field in fields(SyntheticSpec):
        # --speakers sets n_speakers; every other flag spells its field with dashes.
        p.add_argument(f"--{field.name.removeprefix('n_').replace('_', '-')}", dest=field.name,
                       type=type(field.default), default=field.default)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a fusion model", allow_abbrev=False)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a trial list and report metrics", allow_abbrev=False)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--trials", type=Path, required=True)
    p.add_argument("--system", choices=TRAINED_SYSTEMS + RAW_SYSTEMS, default=TrainConfig.fusion)
    p.add_argument("--checkpoint", type=Path)
    p.add_argument("--scores-out", type=Path)
    for field in fields(DcfParams):
        p.add_argument(f"--{field.name.replace('_', '-')}", type=float, default=field.default)
    p.add_argument("--score-fusion-weight", type=float, default=None,
                   help=f"audio weight of the score_level system "
                        f"(default {TrainConfig.score_fusion_weight})")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("embed", help="write per-utterance embeddings", allow_abbrev=False)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DivergenceError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
