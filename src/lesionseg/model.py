"""Full network assembly: encoder, optional bidirectional refinement, skip
heads, and score fusion, plus parameter construction and prediction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, softmax_channels
from .backbone import (
    BackboneConfig,
    ConfigError,
    backbone_forward,
    block_factors,
    init_params as init_backbone_params,
)
from .bidfl import (
    backward_pass,
    bidfl_params_from,
    dilated_bank,
    forward_pass,
    fuse_bidirectional,
    init_bidfl_params,
    per_level_maps,
)
from .mcdf import (
    ScoreStack,
    fuse_scores,
    head_params_from,
    init_head_params,
    score_heads,
    sum_fuse,
)
from .schema import Schema, build, field_type, format_value, sections

PAPER_RATES = (3, 6, 12, 18, 24)
PAPER_WINDOWS = (3, 3, 3, 5, 7, 9, 11, 13, 15, 17)
DESK_RATES = (1, 2, 4, 6, 8)

# configuration keys -> (section, field); see schema.py
MODEL_KEYS: Schema = {
    "backbone.channels": ("backbone", "channels"),
    "backbone.strides": ("backbone", "strides"),
    "backbone.reduce": ("backbone", "reduce_channels"),
    "backbone.in_channels": ("backbone", "in_channels"),
    "bank.rates": ("model", "rates"),
    "bank.channels": ("model", "bank_channels"),
    "bidfl.fusion": ("model", "fusion"),
    "bidfl.reducer_relu": ("model", "reducer_relu"),
    "bidfl.bank_relu": ("model", "bank_relu"),
    "mcdf.windows": ("model", "windows"),
}
# how a trained model runs
RUN_KEYS: Schema = {
    "train.use_bidfl": ("train", "use_bidfl"),
    "train.use_mcdf": ("train", "use_mcdf"),
    "mcdf.sigma_sq": ("train", "sigma_sq"),
}
# what a checkpoint records
ECHO_KEYS: Schema = {**MODEL_KEYS, **RUN_KEYS,
                     "model.num_classes": ("model", "num_classes"),
                     "train.seed": ("train", "seed")}


@dataclass(frozen=True)
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    rates: tuple[int, ...] = PAPER_RATES
    bank_channels: int = 16
    windows: tuple[int, ...] = PAPER_WINDOWS
    fusion: str = "concat_all"
    reducer_relu: bool = True
    bank_relu: bool = True
    num_classes: int = 2

    def __post_init__(self):
        expected = 5 + len(self.rates)
        if len(self.windows) != expected:
            raise ConfigError(
                f"{len(self.windows)} fusion windows for {expected} score heads "
                f"(5 blocks + {len(self.rates)} dilated levels)")

    def head_windows(self, use_bidfl: bool) -> tuple[int, ...]:
        return self.windows if use_bidfl else self.windows[:5]


def build_params(config: ModelConfig, seed: int, use_bidfl: bool) -> dict[str, Tensor]:
    """All trainable tensors for one architecture, split-seeded per module."""
    seeds = np.random.SeedSequence(seed).spawn(3)
    seed_ints = [int(s.generate_state(1)[0]) for s in seeds]
    params = init_backbone_params(config.backbone, seed_ints[0])
    chans = list(config.backbone.channels)
    factors = block_factors(config.backbone)
    head_channels = list(chans)
    head_factors = list(factors)
    if use_bidfl:
        params.update(init_bidfl_params(
            config.backbone.reduce_channels, config.bank_channels, config.rates,
            seed_ints[1], fusion=config.fusion))
        head_channels[4] = config.bank_channels          # block-5 head reads fused map
        head_channels += [config.bank_channels] * len(config.rates)
        head_factors += [factors[-1]] * len(config.rates)
    params.update(init_head_params(head_channels, head_factors,
                                   config.num_classes, seed_ints[2]))
    return params


def model_forward(image: Tensor, params: dict[str, Tensor], config: ModelConfig,
                  use_bidfl: bool, use_mcdf: bool, sigma_sq: float,
                  stop_grad_alpha: bool = False) -> tuple[Tensor, Tensor, ScoreStack]:
    """Run the pipeline; returns (fused logits, class probabilities, stack)."""
    blocks = backbone_forward(image, config.backbone, params)
    fused = None
    levels: list[Tensor] = []
    if use_bidfl:
        bp = bidfl_params_from(params, config.rates, fusion=config.fusion)
        bank = dilated_bank(blocks.reduced, bp, apply_relu=config.bank_relu)
        fwd = forward_pass(bank, bp, apply_relu=config.reducer_relu)
        bwd = backward_pass(bank, bp, apply_relu=config.reducer_relu)
        fused = fuse_bidirectional(fwd, bwd, bp, strategy=config.fusion,
                                   apply_relu=config.reducer_relu)
        levels = per_level_maps(fwd, bwd, bp, apply_relu=config.reducer_relu)

    factors = block_factors(config.backbone)
    head_factors = list(factors) + [factors[-1]] * len(levels)
    heads = head_params_from(params, head_factors)
    stack = score_heads(blocks, fused, levels, heads,
                        config.head_windows(use_bidfl), sigma_sq)
    logits = fuse_scores(stack, stop_grad_alpha) if use_mcdf else sum_fuse(stack)
    return logits, softmax_channels(logits), stack


def predict_mask(image: Tensor, params: dict[str, Tensor], config: ModelConfig,
                 use_bidfl: bool, use_mcdf: bool, sigma_sq: float) -> np.ndarray:
    """Binary lesion mask: lesion-channel probability thresholded at 0.5."""
    _, probs, _ = model_forward(image, params, config, use_bidfl, use_mcdf, sigma_sq)
    lesion = probs.data[..., 0, :, :]
    return (lesion > 0.5).astype(float)


def config_echo(config: ModelConfig, use_bidfl: bool, use_mcdf: bool,
                sigma_sq: float, seed: int) -> dict[str, str]:
    """Flat text snapshot stored in checkpoints, enough to rebuild the model."""
    run = sections()["train"](model=config, use_bidfl=use_bidfl, use_mcdf=use_mcdf,
                              sigma_sq=sigma_sq, seed=seed)
    owners = {"backbone": config.backbone, "model": config, "train": run}
    return {key: format_value(getattr(owners[section], name), field_type(section, name))
            for key, (section, name) in ECHO_KEYS.items()}


def config_from_echo(echo: dict[str, str]) -> tuple[ModelConfig, bool, bool, float]:
    try:
        run = build("train", ECHO_KEYS, echo)
    except ConfigError as err:
        raise ConfigError(f"checkpoint echo: {err}") from None
    return run.model, run.use_bidfl, run.use_mcdf, run.sigma_sq
