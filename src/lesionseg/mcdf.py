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
    ShapeMismatchError,
    Tensor,
    conv2d,
    conv_transpose2d,
    exp,
    windowed_variance,
)
from .backbone import BlockFeatures, ConfigError, he_kernel


class NonpositiveSigmaError(ValueError):
    pass


@dataclass
class ScoreStack:
    maps: list[Tensor]
    windows: tuple[int, ...]
    sigma_sq: float

    def __post_init__(self):
        if not self.maps:
            raise ConfigError("score stack needs at least one map")
        if len(self.windows) != len(self.maps):
            raise ConfigError(
                f"{len(self.windows)} windows for {len(self.maps)} score maps")
        shape = self.maps[0].shape
        for i, m in enumerate(self.maps):
            if m.shape != shape:
                raise ShapeMismatchError(
                    f"score map {i} shape {m.shape} != map 0 shape {shape}")
        h, w = shape[-2], shape[-1]
        for l in self.windows:
            if l < 1 or l % 2 == 0:
                raise ConfigError(f"windows must be odd and >= 1, got {l}")
            if l > min(h, w):
                raise ConfigError(f"window {l} exceeds map extent {h}x{w}")
        if self.sigma_sq <= 0:
            raise NonpositiveSigmaError(f"sigma_sq must be positive, got {self.sigma_sq}")

    def __len__(self) -> int:
        return len(self.maps)


def fuse_scores(stack: ScoreStack, stop_grad_alpha: bool = False) -> Tensor:
    """Weighted fusion: sum_k alpha_k * S_k with alpha from local consistency.

    Differentiates through the weights by default; stop_grad_alpha freezes
    them for ablation. The variance feeds the Gaussian directly (no sqrt on
    the path) so constant regions have clean gradients.
    """
    fused = None
    for score, window in zip(stack.maps, stack.windows):
        var = windowed_variance(score, window)
        alpha = exp(-var / stack.sigma_sq)
        if stop_grad_alpha:
            alpha = alpha.detach()
        term = alpha * score
        fused = term if fused is None else fused + term
    return fused


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
    factor: int

    def __post_init__(self):
        if self.factor < 1:
            raise ConfigError(f"upsampling factor must be >= 1, got {self.factor}")
        if self.factor > 1:
            if self.upsample is None:
                raise ConfigError(f"factor {self.factor} head needs upsample params")
            if self.upsample.stride != self.factor:
                raise ConfigError(
                    f"upsample stride {self.upsample.stride} != factor {self.factor}")


@dataclass
class SkipHeadParams:
    heads: list[HeadParams]

    def __len__(self) -> int:
        return len(self.heads)


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
                     num_classes: int, seed: int) -> dict[str, Tensor]:
    """He-init 1x1 classifiers; upsampling starts as bilinear interpolation."""
    if len(source_channels) != len(factors):
        raise ConfigError(
            f"{len(source_channels)} sources for {len(factors)} factors")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for k, (in_c, f) in enumerate(zip(source_channels, factors)):
        params[f"head.{k}.cls.kernel"] = he_kernel(rng, num_classes, in_c, 1)
        params[f"head.{k}.cls.bias"] = Tensor(np.zeros(num_classes), requires_grad=True)
        if f > 1:
            params[f"head.{k}.up.kernel"] = Tensor(bilinear_kernel(num_classes, f),
                                                   requires_grad=True)
            params[f"head.{k}.up.bias"] = Tensor(np.zeros(num_classes),
                                                 requires_grad=True)
    return params


def head_params_from(params: dict[str, Tensor], factors: list[int]) -> SkipHeadParams:
    heads = []
    for k, f in enumerate(factors):
        cls = ConvParams(params[f"head.{k}.cls.kernel"], params[f"head.{k}.cls.bias"])
        up = None
        if f > 1:
            if f % 2:
                raise ConfigError(f"upsampling factor must be 1 or even, got {f}")
            up = ConvParams(params[f"head.{k}.up.kernel"], params[f"head.{k}.up.bias"],
                            stride=f, padding=f // 2)
        heads.append(HeadParams(classifier=cls, upsample=up, factor=f))
    return SkipHeadParams(heads=heads)


def classify_upsample(feature: Tensor, head: HeadParams) -> Tensor:
    """Apply one skip head: class scores at the feature's grid, then upsample."""
    scores = conv2d(feature, head.classifier)
    if head.factor > 1:
        scores = conv_transpose2d(scores, head.upsample)
    return scores


def score_heads(blocks: BlockFeatures, fused_bidfl: Tensor | None,
                per_level: list[Tensor], params: SkipHeadParams,
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
    if len(sources) != len(params.heads):
        raise ConfigError(
            f"{len(sources)} head inputs for {len(params.heads)} heads")
    if len(windows) != len(sources):
        raise ConfigError(
            f"{len(windows)} windows for {len(sources)} score maps")
    maps = [classify_upsample(src, head) for src, head in zip(sources, params.heads)]
    target = maps[0].shape[-2:]
    for k, m in enumerate(maps):
        if m.shape[-2:] != target:
            raise ShapeMismatchError(
                f"head {k} produced {m.shape[-2:]}, expected {target}; "
                f"check its upsampling factor")
    return ScoreStack(maps=maps, windows=tuple(windows), sigma_sq=sigma_sq)
