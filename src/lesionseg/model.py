"""Full network assembly: encoder, optional bidirectional refinement, skip
heads, and score fusion, plus parameter construction and prediction."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tasks, Tensor, published, softmax_channels
from .backbone import (
    BackboneConfig,
    BlockFeatures,
    ConfigError,
    backbone_forward,
    block_factors,
    init_params as init_backbone_params,
)
from .bidfl import (
    FUSION_STRATEGIES,
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
# Images per predict_mask chunk; a batch of more than one chunk is pipelined,
# which keeps two chunks alive. On the desk model, pipelined chunks of 4
# served a 40-image batch about 1.6x as fast as sequential ones but raised
# peak RSS by about 7%, since one chunk of 4 peaks at block 2's im2col
# columns; chunks of 2 gave about 1.5x for about 4%, and pinned to one CPU
# they are as fast as the sequential chunks of 4 they replace. Batches of 1
# to 12 give each image the same probabilities byte for byte.
PREDICT_CHUNK = 2

# configuration keys -> (section, field); see schema.py
MODEL_KEYS: Schema = {
    "backbone.channels": ("backbone", "channels"),
    "backbone.strides": ("backbone", "strides"),
    "backbone.reduce": ("backbone", "reduce_channels"),
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
ECHO_KEYS: Schema = {**MODEL_KEYS, **RUN_KEYS, "train.seed": ("train", "seed")}


@dataclass(frozen=True)
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    rates: tuple[int, ...] = PAPER_RATES
    bank_channels: int = 16
    windows: tuple[int, ...] = PAPER_WINDOWS
    fusion: str = "concat_all"
    reducer_relu: bool = True
    bank_relu: bool = True

    def __post_init__(self):
        # the forward sweep runs from the smallest rate outward
        if not self.rates or self.rates[0] < 1 \
                or any(lo >= hi for lo, hi in zip(self.rates, self.rates[1:])):
            raise ConfigError(
                f"bank.rates: expected strictly ascending values, each at least 1, "
                f"got {self.rates}")
        if self.bank_channels < 1:
            raise ConfigError(f"bank.channels: expected at least 1, got {self.bank_channels}")
        if self.fusion not in FUSION_STRATEGIES:
            raise ConfigError(f"bidfl.fusion: expected one of "
                              f"{', '.join(FUSION_STRATEGIES)}, got {self.fusion!r}")
        expected = 5 + len(self.rates)
        if len(self.windows) != expected:
            raise ConfigError(
                f"mcdf.windows: expected {expected} windows, one per score head "
                f"(5 blocks + {len(self.rates)} dilated levels), got {len(self.windows)}")
        # a consistency window is centred on its pixel
        if any(l < 1 or l % 2 == 0 for l in self.windows):
            raise ConfigError(
                f"mcdf.windows: expected odd values, each at least 1, got {self.windows}")

    def head_windows(self, use_bidfl: bool) -> tuple[int, ...]:
        return self.windows if use_bidfl else self.windows[:5]


def _head_factors(config: ModelConfig, use_bidfl: bool) -> list[int]:
    """Upsampling factor of every skip head: one per block, then one per bank
    level at the top block's stride."""
    factors = block_factors(config.backbone)
    if use_bidfl:
        factors += [factors[-1]] * len(config.rates)
    return factors


def build_params(config: ModelConfig, seed: int, use_bidfl: bool) -> dict[str, Tensor]:
    """All trainable tensors for one architecture, split-seeded per module."""
    seeds = np.random.SeedSequence(seed).spawn(3)
    seed_ints = [int(s.generate_state(1)[0]) for s in seeds]
    params = init_backbone_params(config.backbone, seed_ints[0], with_reduce=use_bidfl)
    head_channels = list(config.backbone.channels)
    if use_bidfl:
        params.update(init_bidfl_params(
            config.backbone.reduce_channels, config.bank_channels, config.rates,
            seed_ints[1], fusion=config.fusion))
        head_channels[4] = config.bank_channels          # block-5 head reads fused map
        head_channels += [config.bank_channels] * len(config.rates)
    params.update(init_head_params(head_channels, _head_factors(config, use_bidfl),
                                   seed_ints[2]))
    return params


# what encode hands to decide: the block outputs, and with BiDFL the fused
# top map and the per-level maps
Features = tuple[BlockFeatures, Tensor | None, list[Tensor]]


def encode(image: Tensor, params: dict[str, Tensor], config: ModelConfig,
           use_bidfl: bool, tasks: Tasks | None = None) -> Features:
    """Feature learning: the encoder, then the bidirectional refinement.
    The encoder's blocks run with tasks published, if given."""
    with published(tasks):
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
    return blocks, fused, levels


def decide(features: Features, params: dict[str, Tensor], config: ModelConfig,
           use_bidfl: bool, use_mcdf: bool, sigma_sq: float,
           stop_grad_alpha: bool = False,
           tasks: Tasks | None = None) -> tuple[Tensor, Tensor, ScoreStack]:
    """Decision fusion: the skip heads' score maps, fused and normalised;
    returns (fused logits, class probabilities, stack). The fusion runs with
    tasks published, if given."""
    blocks, fused, levels = features
    heads = head_params_from(params, _head_factors(config, use_bidfl))
    stack = score_heads(blocks, fused, levels, heads,
                        config.head_windows(use_bidfl), sigma_sq)
    with published(tasks):
        logits = fuse_scores(stack, stop_grad_alpha) if use_mcdf else sum_fuse(stack)
    return logits, softmax_channels(logits), stack


def model_forward(image: Tensor, params: dict[str, Tensor], config: ModelConfig,
                  use_bidfl: bool, use_mcdf: bool, sigma_sq: float,
                  stop_grad_alpha: bool = False) -> tuple[Tensor, Tensor, ScoreStack]:
    """Run the pipeline; returns (fused logits, class probabilities, stack).

    A pass that records a graph (some parameter needs a gradient) opens one
    worker thread, joined before this returns or raises, and publishes it
    for the encoder's blocks and the fusion: each windowed convolution and
    pool there hands the worker the first half of the batch, and the fusion
    hands it the first half of its variances. The pointwise convolutions,
    the bank and the heads gained nothing from a split and run here.
    """
    if not any(p.requires_grad for p in params.values()):
        return decide(encode(image, params, config, use_bidfl), params, config,
                      use_bidfl, use_mcdf, sigma_sq, stop_grad_alpha)
    with ThreadPoolExecutor(1) as worker:
        def tasks(task):
            # the task runs in this thread's context, so np.errstate reaches it
            return worker.submit(copy_context().run, task)
        return decide(encode(image, params, config, use_bidfl, tasks), params, config,
                      use_bidfl, use_mcdf, sigma_sq, stop_grad_alpha, tasks)


def predict_mask(image: Tensor, params: dict[str, Tensor], config: ModelConfig,
                 use_bidfl: bool, use_mcdf: bool, sigma_sq: float) -> np.ndarray:
    """Binary lesion mask: lesion-channel probability thresholded at 0.5.

    Runs on detached parameters, so the forward pass records no graph, and
    a batch PREDICT_CHUNK images at a time, so peak memory does not grow
    with the batch size. A batch of more than one chunk is pipelined: one
    worker thread decides chunk k while this thread encodes chunk k+1, so at
    most two chunks' features are alive, and the worker is joined before
    this returns or raises. One image or one chunk starts no thread.
    """
    frozen = {name: p.detach() for name, p in params.items()}
    count = len(image.data) if image.ndim == 4 else 1
    chunks = [image] if image.ndim == 3 else [
        Tensor(image.data[i:i + PREDICT_CHUNK]) for i in range(0, count, PREDICT_CHUNK)]

    def mask(features: Features) -> np.ndarray:
        # the chunk's features and score maps are garbage once its mask is cut
        probs = decide(features, frozen, config, use_bidfl, use_mcdf, sigma_sq)[1]
        return probs.data[..., 0, :, :] > 0.5

    if len(chunks) == 1:
        masks = [mask(encode(chunks[0], frozen, config, use_bidfl))]
    else:
        masks, pending = [], None
        with ThreadPoolExecutor(1) as worker:
            for chunk in chunks:
                features = encode(chunk, frozen, config, use_bidfl)
                if pending is not None:
                    masks.append(pending.result())
                # the task runs in this thread's context, so np.errstate reaches it
                pending = worker.submit(copy_context().run, mask, features)
            masks.append(pending.result())
    return np.concatenate(masks).astype(float)


def config_echo(config: ModelConfig, use_bidfl: bool, use_mcdf: bool,
                sigma_sq: float, seed: int) -> dict[str, str]:
    """Flat text snapshot stored in checkpoints, enough to rebuild the model."""
    run = sections()["train"](model=config, use_bidfl=use_bidfl, use_mcdf=use_mcdf,
                              sigma_sq=sigma_sq, seed=seed)
    owners = {"backbone": config.backbone, "model": config, "train": run}
    return {key: format_value(getattr(owners[section], name), field_type(section, name))
            for key, (section, name) in ECHO_KEYS.items()}


def config_from_echo(echo: dict[str, str]) -> tuple[ModelConfig, bool, bool, float]:
    run = build("train", ECHO_KEYS, echo)
    return run.model, run.use_bidfl, run.use_mcdf, run.sigma_sq
