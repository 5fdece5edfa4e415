"""Multi-scale consistency-weighted decision fusion.

Each skip layer contributes a full-resolution class-score map. Per pixel and
per class, a map's local reliability is a Gaussian of its score variance
inside an odd window: alpha = exp(-var / sigma_sq). Fusion is the alpha-
weighted sum of all maps, differentiable through both the scores and the
weights. A plain sum over maps serves as the ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    ConvParams,
    Tensor,
    Variance,
    conv2d,
    conv_transpose2d,
    gaussian_weighted_sum,
    local_variance,
)
from .backbone import BlockFeatures, ConfigError, add_conv, conv_params, he_kernel


# class-score channels: lesion, background
NUM_CLASSES = 2


@dataclass
class ScoreStack:
    maps: list[Tensor]
    windows: tuple[int, ...]
    sigma_sq: float
    # each map's windowed variance and its adjoint, when the heads took them
    variances: list[Variance] | None = None

    def __post_init__(self):
        if len(self.windows) != len(self.maps):
            raise ConfigError(f"score stack has {len(self.maps)} maps but "
                              f"{len(self.windows)} windows; expected one window per map")
        # the image size sets the maps' extent, so no config key can check this
        h, w = self.maps[0].shape[-2:]
        for l in self.windows:
            if l > min(h, w):
                raise ConfigError(f"window {l} exceeds map extent {h}x{w}")


def fuse_scores(stack: ScoreStack, stop_grad_alpha: bool = False) -> Tensor:
    """Weighted fusion: sum_k alpha_k * S_k with alpha from local consistency.

    Differentiates through the weights by default; stop_grad_alpha freezes
    them for ablation. The variance feeds the Gaussian directly (no sqrt on
    the path) so constant regions have clean gradients. The variances are
    the stack's, or taken here when the heads did not take them.
    """
    variances = stack.variances
    if variances is None:
        variances = [_score_variance(score, window)
                     for score, window in zip(stack.maps, stack.windows)]
    return gaussian_weighted_sum(stack.maps, variances, stack.sigma_sq, stop_grad_alpha)


def _score_variance(score: Tensor, window: int) -> Variance:
    """A score map's windowed variance, with its adjoint when the map needs a
    gradient; a map that needs none, as in predict_mask, frees the adjoint's
    window means and gate at once rather than hold them through the fusion."""
    value, adjoint = local_variance(score.data, window)
    return value, adjoint if score.requires_grad else None


def sum_fuse(stack: ScoreStack) -> Tensor:
    """Plain score summation, the non-selective baseline."""
    fused = stack.maps[0]
    for score in stack.maps[1:]:
        fused = fused + score
    return fused


# ---------------------------------------------------------------------------
# skip-layer score heads: 1x1 classifier + transposed-conv upsampling
# ---------------------------------------------------------------------------

@dataclass
class HeadParams:
    classifier: ConvParams
    upsample: ConvParams | None


def bilinear_kernel(channels: int, factor: int) -> np.ndarray:
    """Per-channel bilinear interpolation weights for a stride-f transposed conv."""
    size = 2 * factor
    pos = np.arange(size, dtype=np.float64)
    w1d = 1.0 - np.abs(pos + 0.5 - factor) / factor
    w2d = np.outer(w1d, w1d)
    kernel = np.zeros((channels, channels, size, size))
    for c in range(channels):
        kernel[c, c] = w2d
    return kernel


def init_head_params(source_channels: list[int], factors: list[int],
                     seed: int) -> dict[str, Tensor]:
    """He-init 1x1 classifiers; upsampling starts as bilinear interpolation."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for k, (in_c, f) in enumerate(zip(source_channels, factors)):
        add_conv(params, f"head.{k}.cls", he_kernel(rng, NUM_CLASSES, in_c, 1))
        if f > 1:
            add_conv(params, f"head.{k}.up", bilinear_kernel(NUM_CLASSES, f))
    return params


def head_params_from(params: dict[str, Tensor], factors: list[int]) -> list[HeadParams]:
    """One head per factor; a factor f > 1 upsamples by a stride-f transposed conv."""
    heads = []
    for k, f in enumerate(factors):
        up = None
        if f > 1:
            up = conv_params(params, f"head.{k}.up", stride=f, padding=f // 2)
        heads.append(HeadParams(conv_params(params, f"head.{k}.cls"), up))
    return heads


def classify_upsample(feature: Tensor, head: HeadParams) -> Tensor:
    """Apply one skip head: class scores at the feature's grid, then upsample."""
    scores = conv2d(feature, head.classifier)
    if head.upsample is not None:
        scores = conv_transpose2d(scores, head.upsample)
    return scores


def _scored_head(feature: Tensor, head: HeadParams,
                 window: int) -> tuple[Tensor, Variance]:
    """One head's task: its score map and the map's windowed variance."""
    scores = classify_upsample(feature, head)
    return scores, _score_variance(scores, window)


def score_heads(blocks: BlockFeatures, fused_bidfl: Tensor | None,
                per_level: list[Tensor], params: list[HeadParams],
                windows: tuple[int, ...], sigma_sq: float,
                submit: Callable | None = None) -> ScoreStack:
    """Class-score maps from every skip layer, all at full label resolution.

    Sources are the five block outputs followed by the per-level maps; when
    the bidirectional module is active its fused output replaces the raw
    block-5 feature, so the top-layer head reads the enhanced representation.

    submit, when given, runs a task on a worker thread and returns its
    future. Each head then also takes its map's windowed variance, the first
    half of the heads runs on the worker as one task and this thread runs
    the second half. The tasks read the sources and parameters and write
    nothing that another task reads.
    """
    sources = list(blocks.per_block)
    if fused_bidfl is not None:
        sources[4] = fused_bidfl
    sources.extend(per_level)
    if submit is None:
        maps = [classify_upsample(src, head) for src, head in zip(sources, params)]
        return ScoreStack(maps=maps, windows=tuple(windows), sigma_sq=sigma_sq)
    heads = list(zip(sources, params, windows))
    half = len(heads) // 2
    first = submit(lambda: [_scored_head(*h) for h in heads[:half]])
    second = [_scored_head(*h) for h in heads[half:]]
    scored = first.result() + second
    return ScoreStack(maps=[m for m, _ in scored], windows=tuple(windows),
                      sigma_sq=sigma_sq, variances=[v for _, v in scored])
