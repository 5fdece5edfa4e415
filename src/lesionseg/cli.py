"""Command-line workflow: gen-data | train | eval | predict | gradcheck.

Configuration is a flat key=value text file ('#' starts a comment). Every key
has a type and a default (see KEYS); unknown keys and values of the wrong type
are hard errors so typos cannot silently fall back. --set key=value overrides
individual entries from the command line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .backbone import CheckpointError, ConfigError, atomic_write, load_checkpoint, save_checkpoint
from .data import (
    DatasetError,
    gen_synthetic,
    load_dataset,
    load_images,
    read_manifest,
    split_dataset,
    write_manifest,
    write_mask,
    write_sample,
)
from .metrics import summary_table, write_ja_histogram, write_metrics_csv
from .model import (
    MODEL_KEYS,
    RUN_KEYS,
    ModelConfig,
    build_params,
    config_echo,
    config_from_echo,
    predict_mask,
)
from .schema import Schema, build, field_default, field_type, format_value, parse_value
from .training import TrainConfig, TrainingDivergedError, evaluate, train, write_loss_log

# Every configuration key: key -> (section, field). The field's type and
# default are the key's (see schema.py); the model's keys come from model.py.
KEYS: Schema = {
    **MODEL_KEYS,
    **RUN_KEYS,
    "seed": ("train", "seed"),
    "mcdf.stop_grad_alpha": ("train", "stop_grad_alpha"),
    "train.base_lr": ("train", "base_lr"),
    "train.power": ("train", "power"),
    "train.max_iter": ("train", "max_iter"),
    "train.batch_size": ("train", "batch_size"),
    "train.class_weights": ("train", "class_weights"),
    "train.momentum": ("train", "momentum"),
    "synth.count": ("synth", "count"),
    "synth.size": ("synth", "size"),
    "synth.lesion_fraction": ("synth", "lesion_fraction"),
    "synth.contrast": ("synth", "contrast"),
    "synth.noise_std": ("synth", "noise_std"),
    "synth.hair_prob": ("synth", "hair_prob"),
}
# the keys that set no dataclass field, with their defaults (and so types)
LITERAL_KEYS = {"image_size": 64, "train.split": 0.8}


def _type(key: str):
    if key in LITERAL_KEYS:
        return type(LITERAL_KEYS[key])
    return field_type(*KEYS[key])


DEFAULTS: dict[str, str] = {
    **{key: format_value(field_default(*row), _type(key)) for key, row in KEYS.items()},
    **{key: format_value(value, _type(key)) for key, value in LITERAL_KEYS.items()},
}

ABLATIONS = {
    "baseline": (False, False),
    "bidfl": (True, False),
    "mcdf": (False, True),
    "bidfl+mcdf": (True, True),
}


class UsageError(ValueError):
    pass


def parse_config(path: str | None, overrides: list[str] | None = None) -> dict[str, str]:
    config = dict(DEFAULTS)
    entries: list[tuple[str, str]] = []
    if path:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = stripped.partition("=")
            entries.append((key.strip(), value.strip()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        entries.append((key.strip(), value.strip()))
    for key, value in entries:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        config[key] = value
    for key, value in config.items():
        parse_value(key, value, _type(key))
    # image_size sets no field and no dataclass checks seed; each dataclass
    # checks the ranges of its own fields
    for key, least in (("image_size", 1), ("seed", 0)):
        value = config_value(config, key)
        if value < least:
            raise ConfigError(f"{key}: expected at least {least}, got {value}")
    return config


def config_value(cfg: dict[str, str], key: str):
    """One key's value, parsed against its type."""
    return parse_value(key, cfg[key], _type(key))


def train_config(cfg: dict[str, str], ablation: str | None = None) -> TrainConfig:
    switches = {}
    if ablation is not None:
        switches = dict(zip(("use_bidfl", "use_mcdf"), ABLATIONS[ablation]))
    return build("train", KEYS, cfg, **switches)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = parse_config(args.config, args.set)
    samples = gen_synthetic(build("synth", KEYS, cfg, seed=config_value(cfg, "seed")))
    train_split, val_split = split_dataset(samples, config_value(cfg, "train.split"),
                                           config_value(cfg, "seed"))
    out = Path(args.out)
    for sample in samples:
        write_sample(sample, out, fmt=args.format)
    val_ids = {s.id for s in val_split}
    write_manifest(out, [(s.id, "val" if s.id in val_ids else "train")
                         for s in samples])
    print(f"wrote {len(samples)} samples to {out} "
          f"({len(train_split)} train / {len(val_split)} val)")
    return 0


def _load_split(data_dir: str, cfg: dict[str, str]) -> tuple[list, list]:
    """The manifest's train/val split, or a train.split/seed split without one.
    A manifest must give every sample the split train or val."""
    with warnings.catch_warnings():
        # the error below says it in one line
        warnings.filterwarnings("ignore", "no samples found under", UserWarning)
        samples = load_dataset(data_dir, size=config_value(cfg, "image_size"))
    if not samples:
        raise DatasetError(f"no samples under {data_dir}")
    path = Path(data_dir) / "manifest.csv"
    if path.is_file():
        manifest = read_manifest(data_dir)
        for s in samples:
            if s.id not in manifest:
                raise DatasetError(f"{path} does not list sample {s.id}")
            if manifest[s.id] not in ("train", "val"):
                raise DatasetError(f"{path}: sample {s.id} has split "
                                   f"{manifest[s.id]!r}, expected train or val")
        train_set = [s for s in samples if manifest[s.id] == "train"]
        val_set = [s for s in samples if manifest[s.id] == "val"]
    else:
        train_set, val_set = split_dataset(samples, config_value(cfg, "train.split"),
                                           config_value(cfg, "seed"))
    return train_set, val_set


def cmd_train(args) -> int:
    cfg = parse_config(args.config, args.set)
    tc = train_config(cfg, args.ablation)
    train_set, _ = _load_split(args.data, cfg)
    out = Path(args.out)
    try:
        state, records = train(train_set, tc)
    except TrainingDivergedError as err:
        # no model to save, but the log shows where the run went wrong
        write_loss_log(out / "loss_log.csv", err.records)
        raise
    echo = config_echo(tc.model, tc.use_bidfl, tc.use_mcdf, tc.sigma_sq, tc.seed)
    # the log first: a run whose last update overflowed a parameter has no
    # checkpoint to save, and the log shows where it went wrong
    write_loss_log(out / "loss_log.csv", records)
    save_checkpoint(out / "checkpoint.ckpt", state.parameters, echo)
    print(f"trained {tc.max_iter} iterations "
          f"(final loss {records[-1].loss:.6f}, running {state.running_loss:.6f})")
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return 0


def _load_model(path: str) -> tuple[dict, ModelConfig, bool, bool, float]:
    """Checkpoint parameters and the model they belong to: every parameter
    the echoed architecture builds, with its shape, and no other."""
    params, echo = load_checkpoint(path)
    try:
        mc, use_bidfl, use_mcdf, sigma_sq = config_from_echo(echo)
    except ConfigError as err:
        raise ConfigError(f"{path}: checkpoint echo: {err}") from None
    expected = {name: p.shape for name, p in build_params(mc, 0, use_bidfl).items()}
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise CheckpointError(f"{path}: parameter {name} is missing")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter {name}")
        if params[name].shape != expected[name]:
            raise CheckpointError(f"{path}: parameter {name} has shape "
                                  f"{params[name].shape}, expected {expected[name]}")
    return params, mc, use_bidfl, use_mcdf, sigma_sq


def cmd_eval(args) -> int:
    cfg = parse_config(args.config, args.set)
    params, mc, use_bidfl, use_mcdf, sigma_sq = _load_model(args.checkpoint)
    if args.ablation is not None:
        want = ABLATIONS[args.ablation]
        if want != (use_bidfl, use_mcdf):
            raise ConfigError(
                f"checkpoint was trained with ablation "
                f"bidfl={use_bidfl}/mcdf={use_mcdf}, not {args.ablation!r}")
    train_set, val_set = _load_split(args.data, cfg)
    chosen = {"val": val_set, "train": train_set,
              "all": train_set + val_set}[args.split]
    if not chosen:
        raise DatasetError(f"split {args.split!r} is empty")
    report, ids = evaluate(chosen, params, mc, use_bidfl, use_mcdf, sigma_sq)
    out = Path(args.out)
    write_metrics_csv(out / "metrics.csv", ids, report.entries)
    write_ja_histogram(out / "ja_histogram.csv", report.entries)
    label = f"bidfl={'on' if use_bidfl else 'off'},mcdf={'on' if use_mcdf else 'off'}"
    text = summary_table(report, label=label)
    atomic_write(out / "summary.txt", text.encode())
    print(text, end="")
    return 0


def cmd_predict(args) -> int:
    cfg = parse_config(args.config, args.set)
    params, mc, use_bidfl, use_mcdf, sigma_sq = _load_model(args.checkpoint)
    images = load_images(args.input, size=config_value(cfg, "image_size"))
    if not images:
        raise DatasetError(f"no images under {Path(args.input) / 'images'}")
    out = Path(args.out)
    # one batch: load_images gives every image the configured size
    masks = predict_mask(Tensor(np.stack([image.data for _, image in images])),
                         params, mc, use_bidfl, use_mcdf, sigma_sq)
    for (stem, _), mask in zip(images, masks):
        write_mask(mask, out / f"{stem}.pgm")
    print(f"wrote {len(images)} predicted masks to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_suite
    results = run_suite()
    worst = 0.0
    for name, err in results:
        status = "ok" if err < args.tol else "FAIL"
        worst = max(worst, err)
        print(f"{status:4s} {name:32s} max relative error {err:.3e}")
    print(f"worst case {worst:.3e} (tolerance {args.tol:.0e})")
    return 0 if worst < args.tol else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="lesionseg",
                     description="Desk-scale lesion segmentation workflow")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ppm", "png"), default="ppm")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train and write checkpoint + loss log")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ablation", choices=sorted(ABLATIONS), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, write metric reports")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("val", "train", "all"), default="val")
    p.add_argument("--ablation", choices=sorted(ABLATIONS), default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write predicted masks for a directory")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage()
            return 1
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ConfigError, DatasetError, OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
