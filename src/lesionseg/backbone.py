"""Small configurable convolutional encoder.

Five blocks of conv-ReLU(-maxpool). The last two blocks trade stride for
dilation (rates 2 and 4) so their feature maps keep block 3's resolution.
With BiDFL on top, a final 1x1 reduction produces the compact top-layer map
that feeds its dilated bank. He-style seeded init replaces pretraining.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ConvParams, ShapeMismatchError, Tensor, conv2d, max_pool2d


class ConfigError(ValueError):
    pass


class DtypeMismatchError(ValueError):
    """An image that needs a gradient is not in the model's dtype."""


# dilation used by blocks 4 and 5 whenever their configured stride is 1
DILATED_BLOCK_RATES = {3: 2, 4: 4}
# RGB: the loaders give every image three channels
IMAGE_CHANNELS = 3


@dataclass(frozen=True)
class BackboneConfig:
    channels: tuple[int, ...] = (8, 16, 32, 32, 32)
    strides: tuple[int, ...] = (1, 2, 2, 1, 1)
    reduce_channels: int = 16

    def __post_init__(self):
        for key, values in (("channels", self.channels), ("strides", self.strides)):
            if len(values) != 5:
                raise ConfigError(f"backbone.{key}: expected 5 values, got {len(values)}")
        if any(c < 1 for c in self.channels):
            raise ConfigError(
                f"backbone.channels: expected positive values, got {self.channels}")
        if self.reduce_channels < 1:
            raise ConfigError(
                f"backbone.reduce: expected at least 1, got {self.reduce_channels}")
        if any(s not in (1, 2) for s in self.strides):
            raise ConfigError(f"backbone.strides: expected each 1 or 2, got {self.strides}")

    def block_dilation(self, index: int) -> int:
        if index in DILATED_BLOCK_RATES and self.strides[index] == 1:
            return DILATED_BLOCK_RATES[index]
        return 1


@dataclass
class BlockFeatures:
    per_block: list[Tensor]
    reduced: Tensor | None   # None when the parameters hold no reduction


def add_conv(params: dict[str, Tensor], name: str, kernel: np.ndarray) -> None:
    """Store one conv layer as trainable name.kernel and a zero name.bias, in
    float32, the model's dtype; the kernel is drawn in float64 and rounded."""
    params[f"{name}.kernel"] = Tensor(kernel.astype(np.float32), requires_grad=True)
    params[f"{name}.bias"] = Tensor(np.zeros(kernel.shape[0], np.float32),
                                    requires_grad=True)


def conv_params(params: dict[str, Tensor], name: str, **geometry) -> ConvParams:
    """The layer add_conv stored under name, with the given geometry."""
    return ConvParams(params[f"{name}.kernel"], params[f"{name}.bias"], **geometry)


def he_kernel(rng: np.random.Generator, out_c: int, in_c: int, k: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_c * k * k))
    return rng.uniform(-limit, limit, size=(out_c, in_c, k, k))


def init_params(config: BackboneConfig, seed: int,
                with_reduce: bool = False) -> dict[str, Tensor]:
    """He fan-in uniform kernels, zero biases, fully determined by seed. The
    1x1 reduction, the last draw, is built only with_reduce."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    in_c = IMAGE_CHANNELS
    for i, out_c in enumerate(config.channels):
        add_conv(params, f"backbone.b{i + 1}", he_kernel(rng, out_c, in_c, 3))
        in_c = out_c
    if with_reduce:
        add_conv(params, "backbone.reduce", he_kernel(rng, config.reduce_channels, in_c, 1))
    return params


def backbone_forward(image: Tensor, config: BackboneConfig,
                     params: dict[str, Tensor]) -> BlockFeatures:
    """The five blocks, in the kernels' dtype: an image that needs no
    gradient is cast to it, and one that needs a gradient must have it."""
    h, w = image.shape[-2], image.shape[-1]
    cum = block_factors(config)[-1]
    if h % cum or w % cum:
        raise ShapeMismatchError(
            f"spatial dims {h}x{w} not divisible by cumulative stride {cum}")
    dtype = params["backbone.b1.kernel"].data.dtype
    if image.data.dtype != dtype:
        if image.requires_grad:
            raise DtypeMismatchError(
                f"image dtype {image.data.dtype} differs from the model's {dtype}")
        image = Tensor(image.data.astype(dtype))

    x = image
    blocks: list[Tensor] = []
    for i in range(5):
        d = config.block_dilation(i)
        x = conv2d(x, conv_params(params, f"backbone.b{i + 1}", padding=d, dilation=d),
                   relu=True)
        if config.strides[i] == 2:
            x = max_pool2d(x)
        blocks.append(x)
    reduced = None
    if "backbone.reduce.kernel" in params:
        reduced = conv2d(blocks[-1], conv_params(params, "backbone.reduce"), relu=True)
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
# The records are float64 on disk and hold the float32 parameters exactly;
# they load as float32, so a float64 checkpoint is rounded once on load.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"LSEGCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def atomic_write(path, data: bytes) -> None:
    """Writes a temporary file beside path, in a directory made on demand,
    that then replaces path, so a failed write leaves no truncated file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # the directory is missing
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: dict[str, Tensor], echo: dict[str, str]) -> None:
    echo_bytes = "".join(f"{k}={v}\n" for k, v in sorted(echo.items())).encode()
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(echo_bytes))
    blob += echo_bytes
    blob += struct.pack("<I", len(params))
    for name in sorted(params):
        data = params[name].data
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: record {name} holds a non-finite value")
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", data.ndim)
        for dim in data.shape:
            blob += struct.pack("<I", dim)
        blob += np.ascontiguousarray(data, dtype="<f8").tobytes()
    atomic_write(path, blob)


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict[str, str]]:
    """Float32 parameters and echo of a checkpoint. Every read is
    length-checked and every value must be finite in float32, so a damaged
    file raises CheckpointError naming it."""
    blob = Path(path).read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(
                f"{path}: truncated at byte {len(blob)} while reading {what}")
        pos += n
        return blob[pos - n:pos]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def text(n: int, what: str) -> str:
        try:
            return take(n, what).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not utf-8") from None

    if take(len(CHECKPOINT_MAGIC), "the header") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = unpack("<I", "the header")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (echo_len,) = unpack("<I", "the header")
    echo: dict[str, str] = {}
    for line in text(echo_len, "the config echo").splitlines():
        key, _, value = line.partition("=")
        echo[key] = value
    (count,) = unpack("<I", "the record count")
    params: dict[str, Tensor] = {}
    for i in range(count):
        (name_len,) = unpack("<H", f"record {i}")
        name = text(name_len, f"record {i}")
        (rank,) = unpack("<B", f"record {name}")
        shape = unpack(f"<{rank}I", f"record {name}")
        if name in params or 0 in shape:
            raise CheckpointError(f"{path}: record {name} is repeated or empty")
        raw = take(8 * math.prod(shape), f"record {name}")
        data = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: record {name} holds a non-finite value")
        with np.errstate(over="ignore"):
            data = data.astype(np.float32)
        if not np.isfinite(data).all():
            raise CheckpointError(
                f"{path}: record {name} holds a value beyond float32's range")
        params[name] = Tensor(data, requires_grad=True)
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} bytes after the last record")
    return params, echo
