"""Desk-scale skin lesion segmentation toolkit.

A self-contained float64 autodiff engine drives an encoder with a dilated-
convolution bank, bi-directional feature refinement, and consistency-weighted
multi-scale decision fusion, trained with weighted cross entropy and a poly
learning-rate schedule on synthetic lesion data.
"""

from .autodiff import (
    ConvParams,
    Tensor,
    concat_channels,
    conv2d,
    conv_transpose2d,
    grad_check,
    gradients,
    max_pool2d,
    relu,
    softmax_channels,
    windowed_variance,
)
from .backbone import (
    BackboneConfig,
    BlockFeatures,
    backbone_forward,
    load_checkpoint,
    save_checkpoint,
)
from .bidfl import (
    BidflParams,
    DilatedBank,
    backward_pass,
    dilated_bank,
    forward_pass,
    fuse_bidirectional,
)
from .data import Sample, SynthConfig, gen_synthetic, load_dataset
from .mcdf import (
    ScoreStack,
    SkipHeadParams,
    fuse_scores,
    score_heads,
    sum_fuse,
)
from .metrics import ConfusionCounts, MetricReport, aggregate, compute_metrics, confusion
from .model import ModelConfig, build_params, model_forward, predict_mask
from .training import (
    TrainConfig,
    TrainState,
    augment,
    poly_lr,
    sgd_step,
    train,
    weighted_ce_loss,
)

__version__ = "0.1.0"
