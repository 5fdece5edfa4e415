"""Multi-scale consistency-weighted decision fusion.

Each skip layer contributes a full-resolution class-score map. Per pixel and
per class, a map's local reliability is a Gaussian of its score variance
inside an odd window: alpha = exp(-var / sigma_sq). Fusion is the alpha-
weighted sum of all maps, differentiable through both the scores and the
weights. A plain sum over maps serves as the ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ConvParams,
    Tensor,
    conv2d,
    conv_transpose2d,
    gaussian_weighted_sum,
    windowed_variance,
)
from .backbone import BlockFeatures, ConfigError, add_conv, conv_params, he_kernel


# class-score channels: lesion, background
NUM_CLASSES = 2


@dataclass
class ScoreStack:
    maps: list[Tensor]
    windows: tuple[int, ...]
    sigma_sq: float

    def __post_init__(self):
        # the image size sets the maps' extent, so no config key can check this
        h, w = self.maps[0].shape[-2:]
        for l in self.windows:
            if l > min(h, w):
                raise ConfigError(f"window {l} exceeds map extent {h}x{w}")


def fuse_scores(stack: ScoreStack, stop_grad_alpha: bool = False) -> Tensor:
    """Weighted fusion: sum_k alpha_k * S_k with alpha from local consistency.

    Differentiates through the weights by default; stop_grad_alpha freezes
    them for ablation. The variance feeds the Gaussian directly (no sqrt on
    the path) so constant regions have clean gradients.
    """
    variances = [windowed_variance(score, window)
                 for score, window in zip(stack.maps, stack.windows)]
    return gaussian_weighted_sum(variances, stack.maps, stack.sigma_sq, stop_grad_alpha)


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


def score_heads(blocks: BlockFeatures, fused_bidfl: Tensor | None,
                per_level: list[Tensor], params: list[HeadParams],
                windows: tuple[int, ...], sigma_sq: float) -> ScoreStack:
    """Class-score maps from every skip layer, all at full label resolution.

    Sources are the five block outputs followed by the per-level maps; when
    the bidirectional module is active its fused output replaces the raw
    block-5 feature, so the top-layer head reads the enhanced representation.
    """
    sources = list(blocks.per_block)
    if fused_bidfl is not None:
        sources[4] = fused_bidfl
    sources.extend(per_level)
    maps = [classify_upsample(src, head) for src, head in zip(sources, params)]
    return ScoreStack(maps=maps, windows=tuple(windows), sigma_sq=sigma_sq)
