"""Small configurable convolutional encoder.

Five blocks of conv-ReLU(-maxpool). The last two blocks trade stride for
dilation (rates 2 and 4) so their feature maps keep block 3's resolution,
and a final 1x1 reduction produces the compact top-layer feature map that
feeds the dilated bank. He-style seeded init replaces pretraining.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ConvParams, ShapeMismatchError, Tensor, conv2d, max_pool2d, relu


class ConfigError(ValueError):
    pass


# dilation used by blocks 4 and 5 whenever their configured stride is 1
DILATED_BLOCK_RATES = {3: 2, 4: 4}


@dataclass(frozen=True)
class BackboneConfig:
    channels: tuple[int, ...] = (8, 16, 32, 32, 32)
    strides: tuple[int, ...] = (1, 2, 2, 1, 1)
    reduce_channels: int = 16
    in_channels: int = 3

    def __post_init__(self):
        if len(self.channels) != 5 or len(self.strides) != 5:
            raise ConfigError(
                f"expected 5 block channels and 5 strides, got "
                f"{len(self.channels)} and {len(self.strides)}")
        if any(c < 1 for c in self.channels) or self.reduce_channels < 1:
            raise ConfigError("channel counts must be positive")
        if any(s not in (1, 2) for s in self.strides):
            raise ConfigError(f"block strides must be 1 or 2, got {self.strides}")

    @property
    def cumulative_stride(self) -> int:
        out = 1
        for s in self.strides:
            out *= s
        return out

    def block_dilation(self, index: int) -> int:
        if index in DILATED_BLOCK_RATES and self.strides[index] == 1:
            return DILATED_BLOCK_RATES[index]
        return 1


@dataclass
class BlockFeatures:
    per_block: list[Tensor]
    reduced: Tensor


def init_params(config: BackboneConfig, seed: int) -> dict[str, Tensor]:
    """He fan-in uniform kernels, zero biases, fully determined by seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    in_c = config.in_channels
    for i, out_c in enumerate(config.channels):
        params[f"backbone.b{i + 1}.kernel"] = he_kernel(rng, out_c, in_c, 3)
        params[f"backbone.b{i + 1}.bias"] = Tensor(np.zeros(out_c), requires_grad=True)
        in_c = out_c
    params["backbone.reduce.kernel"] = he_kernel(rng, config.reduce_channels, in_c, 1)
    params["backbone.reduce.bias"] = Tensor(np.zeros(config.reduce_channels),
                                            requires_grad=True)
    return params


def he_kernel(rng: np.random.Generator, out_c: int, in_c: int, k: int) -> Tensor:
    fan_in = in_c * k * k
    limit = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-limit, limit, size=(out_c, in_c, k, k)),
                  requires_grad=True)


def backbone_forward(image: Tensor, config: BackboneConfig,
                     params: dict[str, Tensor]) -> BlockFeatures:
    h, w = image.shape[-2], image.shape[-1]
    cum = config.cumulative_stride
    if h % cum or w % cum:
        raise ShapeMismatchError(
            f"spatial dims {h}x{w} not divisible by cumulative stride {cum}")
    if image.shape[-3] != config.in_channels:
        raise ShapeMismatchError(
            f"image channels {image.shape[-3]} != configured {config.in_channels}")

    x = image
    blocks: list[Tensor] = []
    for i in range(5):
        d = config.block_dilation(i)
        conv = ConvParams(params[f"backbone.b{i + 1}.kernel"],
                          params[f"backbone.b{i + 1}.bias"],
                          stride=1, padding=d, dilation=d)
        x = relu(conv2d(x, conv))
        if config.strides[i] == 2:
            x = max_pool2d(x, 2, 2)
        blocks.append(x)
    reduce = ConvParams(params["backbone.reduce.kernel"],
                        params["backbone.reduce.bias"])
    reduced = relu(conv2d(blocks[-1], reduce))
    return BlockFeatures(per_block=blocks, reduced=reduced)


def block_factors(config: BackboneConfig) -> list[int]:
    """Cumulative stride at each block output (the skip upsampling factors)."""
    out, cum = [], 1
    for s in config.strides:
        cum *= s
        out.append(cum)
    return out


# ---------------------------------------------------------------------------
# checkpoint format: flat binary, little-endian
#   magic "LSEGCKPT" | u32 version | u32 echo length | echo (key=value lines,
#   utf-8) | u32 record count | records of
#   u16 name length | name | u8 rank | u32 dims... | float64 data
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"LSEGCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict[str, Tensor], echo: dict[str, str]) -> None:
    """Writes a temporary file that then replaces path, so a failed write
    leaves no truncated checkpoint."""
    echo_bytes = "".join(f"{k}={v}\n" for k, v in sorted(echo.items())).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(echo_bytes)))
            fh.write(echo_bytes)
            fh.write(struct.pack("<I", len(params)))
            for name in sorted(params):
                data = params[name].data
                encoded = name.encode()
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", data.ndim))
                for dim in data.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict[str, str]]:
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (echo_len,) = struct.unpack("<I", fh.read(4))
        echo: dict[str, str] = {}
        for line in fh.read(echo_len).decode().splitlines():
            key, _, value = line.partition("=")
            echo[key] = value
        (count,) = struct.unpack("<I", fh.read(4))
        params: dict[str, Tensor] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode()
            (rank,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{rank}I", fh.read(4 * rank)) if rank else ()
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * n)
            data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            params[name] = Tensor(data, requires_grad=True)
    return params, echo
