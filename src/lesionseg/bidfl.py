"""Bi-directional feature learning over a bank of dilated convolutions.

A bank of 3x3 convolutions with ascending dilation rates turns the top-layer
feature map into maps with growing receptive fields. Two refinement sweeps
then pass information through the bank: a forward sweep from the smallest
rate outward and a backward sweep from the largest rate inward, each step a
concat followed by a 1x1 reduction that keeps the channel count fixed. The
two refined sequences are finally merged into a single feature map, and a
per-level merge feeds the per-level score heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ConvParams, Tensor, concat_channels, conv2d
from .backbone import add_conv, conv_params, he_kernel

FUSION_STRATEGIES = ("concat_all", "ends", "sum")


@dataclass
class DilatedBank:
    rates: tuple[int, ...]
    maps: list[Tensor]

    def __len__(self) -> int:
        return len(self.maps)


@dataclass
class BidflParams:
    bank_convs: list[ConvParams]
    forward_reducers: list[ConvParams]
    backward_reducers: list[ConvParams]
    level_reducers: list[ConvParams]
    fuse_reducer: ConvParams | None
    rates: tuple[int, ...] = ()


def init_bidfl_params(in_channels: int, bank_channels: int, rates: tuple[int, ...],
                      seed: int, fusion: str = "concat_all") -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    j, c = len(rates), bank_channels
    params: dict[str, Tensor] = {}
    for i in range(j):
        add_conv(params, f"bidfl.bank.{i}", he_kernel(rng, c, in_channels, 3))
    for direction in ("fwd", "bwd"):
        for i in range(j - 1):
            add_conv(params, f"bidfl.{direction}.{i}", he_kernel(rng, c, 2 * c, 1))
    for i in range(j):
        add_conv(params, f"bidfl.level.{i}", he_kernel(rng, c, 2 * c, 1))
    if fusion != "sum":
        fused_in = 2 * j * c if fusion == "concat_all" else 2 * c
        add_conv(params, "bidfl.fuse", he_kernel(rng, c, fused_in, 1))
    return params


def bidfl_params_from(params: dict[str, Tensor], rates: tuple[int, ...],
                      fusion: str = "concat_all") -> BidflParams:
    j = len(rates)
    return BidflParams(
        bank_convs=[conv_params(params, f"bidfl.bank.{i}", padding=r, dilation=r)
                    for i, r in enumerate(rates)],
        forward_reducers=[conv_params(params, f"bidfl.fwd.{i}") for i in range(j - 1)],
        backward_reducers=[conv_params(params, f"bidfl.bwd.{i}") for i in range(j - 1)],
        level_reducers=[conv_params(params, f"bidfl.level.{i}") for i in range(j)],
        fuse_reducer=None if fusion == "sum" else conv_params(params, "bidfl.fuse"),
        rates=tuple(rates))


def dilated_bank(f0: Tensor, params: BidflParams, apply_relu: bool = True) -> DilatedBank:
    """One same-padded 3x3 conv per dilation rate over the shared input."""
    maps = [conv2d(f0, conv, relu=apply_relu) for conv in params.bank_convs]
    return DilatedBank(rates=params.rates, maps=maps)


def forward_pass(bank: DilatedBank, params: BidflParams,
                 apply_relu: bool = True) -> list[Tensor]:
    """Refine from the smallest rate outward; level j sees levels 1..j only."""
    refined = [bank.maps[0]]
    for j in range(1, len(bank)):
        merged = concat_channels([refined[-1], bank.maps[j]])
        refined.append(conv2d(merged, params.forward_reducers[j - 1], relu=apply_relu))
    return refined


def backward_pass(bank: DilatedBank, params: BidflParams,
                  apply_relu: bool = True) -> list[Tensor]:
    """Mirror sweep from the largest rate inward; level j sees levels j..J."""
    j_total = len(bank)
    refined = [bank.maps[-1]]
    for j in range(j_total - 2, -1, -1):
        merged = concat_channels([refined[0], bank.maps[j]])
        refined.insert(0, conv2d(merged, params.backward_reducers[j], relu=apply_relu))
    return refined


def fuse_bidirectional(fwd: list[Tensor], bwd: list[Tensor], params: BidflParams,
                       strategy: str = "concat_all", apply_relu: bool = True) -> Tensor:
    """Merge the two refined sequences into one bank-channel feature map."""
    if strategy == "sum":
        out = fwd[0]
        for m in [*fwd[1:], *bwd]:
            out = out + m
        return out
    merged = [*fwd, *bwd] if strategy == "concat_all" else [fwd[-1], bwd[0]]
    return conv2d(concat_channels(merged), params.fuse_reducer, relu=apply_relu)


def per_level_maps(fwd: list[Tensor], bwd: list[Tensor], params: BidflParams,
                   apply_relu: bool = True) -> list[Tensor]:
    """Per-level merge of both directions, feeding the per-level score heads."""
    out = []
    for f, b, conv in zip(fwd, bwd, params.level_reducers):
        out.append(conv2d(concat_channels([f, b]), conv, relu=apply_relu))
    return out
