"""Finite-difference verification suite for every differentiable operation.

Each case builds a small scalar-valued graph and compares the analytic
gradient against central differences. Shared by the test suite and the
`gradcheck` CLI subcommand.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import (
    ConvParams,
    Tensor,
    clip_min,
    concat_channels,
    conv2d,
    conv_transpose2d,
    max_pool2d,
    softmax_channels,
    windowed_variance,
)
from .backbone import BackboneConfig
from .mcdf import ScoreStack, fuse_scores
from .model import ModelConfig, build_params, model_forward
from .training import one_hot_masks, weighted_ce_loss

TINY_MODEL = ModelConfig(
    backbone=BackboneConfig(channels=(3, 4, 4, 4, 4), strides=(1, 2, 2, 1, 1),
                            reduce_channels=3),
    rates=(1, 2), bank_channels=3, windows=(1, 3, 3, 3, 3, 3, 3),
)


def _float64(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """The model's float32 parameters as float64, so central differences at
    eps 1e-5 resolve the pipeline's gradient."""
    return {name: Tensor(p.data.astype(np.float64), requires_grad=True)
            for name, p in params.items()}


def grad_check(scalar_of: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    scalar_of must map a tensor to a scalar tensor and be free of side effects;
    it is re-invoked for every perturbed evaluation. Relative error per
    element is |a - n| / max(1e-8, |a| + |n|). A case whose analytic and
    numeric gradients are both all zero returns inf: it would pass while
    checking nothing.
    """
    eps = 1e-5  # central-difference step
    base = np.array(x.data, dtype=np.float64)
    probe = Tensor(base, requires_grad=True)
    out = scalar_of(probe)
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = scalar_of(Tensor(base)).data.item()
        flat[i] = orig - eps
        lo = scalar_of(Tensor(base)).data.item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    if not analytic.any() and not numeric.any():
        return float("inf")  # all-zero gradients: the case checks nothing
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float((np.abs(analytic - numeric) / denom).max())


def _cases() -> list[tuple[str, Callable[[], float]]]:
    rng = np.random.default_rng(2024)

    def elementwise():
        a = Tensor(rng.standard_normal((2, 4, 4)))
        b = Tensor(rng.standard_normal((2, 4, 4)))
        return grad_check(lambda t: ((t * b + t) / (b * b + 2.0) - b * 0.5).sum(),
                          a)

    def conv_input():
        w = Tensor(rng.standard_normal((3, 4, 4)))
        p = ConvParams(Tensor(rng.standard_normal((3, 2, 3, 3))),
                       Tensor(rng.standard_normal(3)), stride=2, padding=1)
        return grad_check(lambda t: (conv2d(t, p) * w).sum(),
                          Tensor(rng.standard_normal((2, 8, 8))))

    def conv_dilated_kernel():
        x = Tensor(rng.standard_normal((2, 8, 8)))
        w = Tensor(rng.standard_normal((3, 8, 8)))
        bias = Tensor(rng.standard_normal(3))
        k0 = Tensor(rng.standard_normal((3, 2, 3, 3)))
        return grad_check(
            lambda k: (conv2d(x, ConvParams(k, bias, padding=2, dilation=2)) * w).sum(),
            k0)

    def conv_batched_kernel():
        x = Tensor(rng.standard_normal((2, 2, 7, 7)))
        w = Tensor(rng.standard_normal((2, 3, 7, 7)))
        bias = Tensor(rng.standard_normal(3))
        k0 = Tensor(rng.standard_normal((3, 2, 3, 3)))
        return grad_check(
            lambda k: (conv2d(x, ConvParams(k, bias, padding=2, dilation=2)) * w).sum(),
            k0)

    def conv_relu_kernel():
        x = Tensor(rng.standard_normal((2, 2, 6, 6)))
        w = Tensor(rng.standard_normal((2, 3, 6, 6)))
        bias = Tensor(rng.standard_normal(3))
        k0 = Tensor(rng.standard_normal((3, 2, 3, 3)))
        return grad_check(
            lambda k: (conv2d(x, ConvParams(k, bias, padding=1), relu=True) * w).sum(), k0)

    def conv_pointwise():
        x = Tensor(rng.standard_normal((3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 5, 5)))
        k0 = Tensor(rng.standard_normal((2, 3, 1, 1)))
        return grad_check(
            lambda k: (conv2d(x, ConvParams(k, Tensor(np.zeros(2)))) * w).sum(), k0)

    def convt_input():
        w = Tensor(rng.standard_normal((2, 8, 8)))
        p = ConvParams(Tensor(rng.standard_normal((3, 2, 4, 4))),
                       Tensor(rng.standard_normal(2)), stride=2, padding=1)
        return grad_check(lambda t: (conv_transpose2d(t, p) * w).sum(),
                          Tensor(rng.standard_normal((3, 4, 4))))

    def convt_kernel():
        y = Tensor(rng.standard_normal((3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 8, 8)))
        k0 = Tensor(rng.standard_normal((3, 2, 4, 4)))
        return grad_check(
            lambda k: (conv_transpose2d(
                y, ConvParams(k, Tensor(np.zeros(2)), stride=2, padding=1)) * w).sum(),
            k0)

    def concat():
        other = Tensor(rng.standard_normal((3, 4, 4)))
        w = Tensor(rng.standard_normal((5, 4, 4)))
        return grad_check(lambda t: (concat_channels([t, other]) * w).sum(),
                          Tensor(rng.standard_normal((2, 4, 4))))

    def clip_min_case():
        w = Tensor(rng.standard_normal((2, 5, 5)))
        return grad_check(lambda t: (clip_min(t, 0.0) * w).sum(),
                          Tensor(rng.standard_normal((2, 5, 5)) + 0.1))

    def max_pool():
        w = Tensor(rng.standard_normal((2, 3, 3)))
        return grad_check(lambda t: (max_pool2d(t) * w).sum(),
                          Tensor(rng.standard_normal((2, 6, 6))))

    def softmax():
        w = Tensor(rng.standard_normal((3, 4, 4)))
        return grad_check(lambda t: (softmax_channels(t) * w).sum(),
                          Tensor(rng.standard_normal((3, 4, 4))))

    def wvar_batched():
        w = Tensor(rng.standard_normal((2, 2, 6, 6)))
        return grad_check(lambda t: (windowed_variance(t, 5) * w).sum(),
                          Tensor(rng.standard_normal((2, 2, 6, 6))))

    def wvar():
        w = Tensor(rng.standard_normal((2, 6, 6)))
        return grad_check(lambda t: (windowed_variance(t, 3) * w).sum(),
                          Tensor(rng.standard_normal((2, 6, 6))))

    def softmax_ce():
        labels = one_hot_masks((rng.random((1, 1, 4, 4)) > 0.6).astype(float))
        return grad_check(
            lambda t: weighted_ce_loss(softmax_channels(t), labels[0], (0.8, 0.2)),
            Tensor(rng.standard_normal((2, 4, 4))))

    def mcdf_fusion():
        other = Tensor(rng.standard_normal((2, 8, 8)))
        w = Tensor(rng.standard_normal((2, 8, 8)))

        def fusion(t):
            stack = ScoreStack([t, other], (3, 5), 10.0)
            return (fuse_scores(stack) * w).sum()
        return grad_check(fusion, Tensor(rng.standard_normal((2, 8, 8))))

    def full_pipeline():
        params = _float64(build_params(TINY_MODEL, seed=7, use_bidfl=True))
        labels = one_hot_masks((rng.random((1, 1, 8, 8)) > 0.7).astype(float))[0]

        def pipeline(t):
            _, probs, _ = model_forward(t, params, TINY_MODEL, use_bidfl=True,
                                        use_mcdf=True, sigma_sq=10.0)
            return weighted_ce_loss(probs, labels, (0.8, 0.2))
        return grad_check(pipeline, Tensor(rng.standard_normal((3, 8, 8))))

    def full_pipeline_params():
        # a seed whose reduced map is alive, so the bank kernel's gradient is
        # not all zero
        params = _float64(build_params(TINY_MODEL, seed=0, use_bidfl=True))
        image = Tensor(rng.random((3, 8, 8)))
        labels = one_hot_masks((rng.random((1, 1, 8, 8)) > 0.7).astype(float))[0]
        name = "bidfl.bank.0.kernel"

        def by_param(k):
            swapped = dict(params)
            swapped[name] = k
            _, probs, _ = model_forward(image, swapped, TINY_MODEL, use_bidfl=True,
                                        use_mcdf=True, sigma_sq=10.0)
            return weighted_ce_loss(probs, labels, (0.8, 0.2))
        return grad_check(by_param, Tensor(params[name].data))

    return [
        ("elementwise_arith", elementwise),
        ("conv2d_input", conv_input),
        ("conv2d_dilated_kernel", conv_dilated_kernel),
        ("conv2d_pointwise_kernel", conv_pointwise),
        ("conv_transpose2d_input", convt_input),
        ("conv_transpose2d_kernel", convt_kernel),
        ("concat_channels", concat),
        ("clip_min", clip_min_case),
        ("max_pool2d", max_pool),
        ("softmax_channels", softmax),
        ("windowed_variance", wvar),
        ("windowed_variance_batched", wvar_batched),
        ("softmax_cross_entropy", softmax_ce),
        ("mcdf_fusion", mcdf_fusion),
        ("full_pipeline_input", full_pipeline),
        ("full_pipeline_bank_kernel", full_pipeline_params),
        # the cases draw from one rng in this order: new cases go last, so
        # that the others keep their inputs
        ("conv2d_batched_kernel", conv_batched_kernel),
        ("conv2d_relu_kernel", conv_relu_kernel),
    ]


def run_suite() -> list[tuple[str, float]]:
    """Evaluate every case; returns (name, max relative error) pairs."""
    return [(name, fn()) for name, fn in _cases()]
