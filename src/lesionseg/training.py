"""Weighted cross-entropy training loop with poly learning-rate decay.

The loss is L = -(1/N) sum_p sum_i w_i y_i^p log(o_i^p) over one-hot labels,
with the probability clamped at 1e-12 inside the log. The learning rate
follows base * (1 - iter/max_iter)^power and updates are plain SGD (momentum
optional, off by default). Augmentation applies shared random flips plus a
random rescale in [0.8, 1.2] with bilinear image / nearest mask resampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tensor, clip_min, gradients, log, pad2d
from .backbone import ConfigError
from .data import Sample, resize_bilinear, resize_nearest
from .metrics import MetricReport, aggregate, compute_metrics, confusion, write_csv
from .model import ModelConfig, model_forward, predict_mask


class TrainingDivergedError(RuntimeError):
    """A non-finite loss; records is the loss log up to and including the
    iteration that diverged."""

    def __init__(self, message: str, records: list[LossRecord]):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    base_lr: float = 1e-3
    power: float = 0.9
    max_iter: int = 1000
    class_weights: tuple[float, float] = (0.8, 0.2)
    sigma_sq: float = 10.0
    seed: int = 0
    batch_size: int = 4
    use_bidfl: bool = True
    use_mcdf: bool = True
    momentum: float = 0.0
    stop_grad_alpha: bool = False

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError(f"train.base_lr: expected a positive value, got {self.base_lr}")
        if not 0.0 < self.power <= 1.0:
            raise ConfigError(f"train.power: expected a value in (0, 1], got {self.power}")
        if self.max_iter < 1:
            raise ConfigError(f"train.max_iter: expected at least 1, got {self.max_iter}")
        if any(w <= 0 for w in self.class_weights):
            raise ConfigError(
                f"train.class_weights: expected positive values, got {self.class_weights}")
        if self.sigma_sq <= 0:
            raise ConfigError(f"mcdf.sigma_sq: expected a positive value, got {self.sigma_sq}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size: expected at least 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(
                f"train.momentum: expected a value in [0, 1), got {self.momentum}")


@dataclass
class TrainState:
    iteration: int
    parameters: dict[str, Tensor]
    seed: int
    running_loss: float
    velocity: dict[str, np.ndarray] | None = None


@dataclass(frozen=True)
class LossRecord:
    iteration: int
    lr: float
    loss: float


def weighted_ce_loss(probs: Tensor, labels, weights: tuple[float, ...]) -> Tensor:
    """Class-weighted cross entropy averaged over all pixels."""
    onehot = labels.data if isinstance(labels, Tensor) else np.asarray(labels, float)
    if onehot.shape != probs.shape:
        raise ShapeMismatchError(
            f"labels shape {onehot.shape} != probs shape {probs.shape}")
    if len(weights) != probs.shape[-3]:
        raise ShapeMismatchError(
            f"{len(weights)} class weights for {probs.shape[-3]} channels")
    if not np.isin(onehot, (0.0, 1.0)).all() \
            or not np.array_equal(onehot.sum(axis=-3), np.ones(onehot.sum(axis=-3).shape)):
        raise ValueError("labels must be one-hot over the class axis")
    w = np.asarray(weights, dtype=float).reshape(
        (1,) * (probs.ndim - 3) + (-1, 1, 1))
    pixels = onehot.size // onehot.shape[-3]
    weight_map = Tensor(w * onehot)
    return -(weight_map * log(clip_min(probs, 1e-12))).sum() / pixels


def poly_lr(iteration: int, config: TrainConfig) -> float:
    if not 0 <= iteration <= config.max_iter:
        raise ValueError(
            f"iteration {iteration} outside [0, {config.max_iter}]")
    return config.base_lr * (1.0 - iteration / config.max_iter) ** config.power


def sgd_step(state: TrainState, grads: dict[str, np.ndarray], lr: float,
             momentum: float = 0.0) -> TrainState:
    """theta <- theta - lr * g (optionally velocity-smoothed); returns new state."""
    new_params: dict[str, Tensor] = {}
    velocity = state.velocity
    new_velocity: dict[str, np.ndarray] | None = None if momentum == 0.0 else {}
    for name, p in state.parameters.items():
        if name not in grads:
            raise KeyError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} != parameter shape {p.data.shape} "
                f"for {name!r}")
        if momentum:
            v = momentum * (velocity[name] if velocity else 0.0) + g
            new_velocity[name] = v
            g = v
        new_params[name] = Tensor(p.data - lr * g, requires_grad=True)
    return TrainState(iteration=state.iteration + 1, parameters=new_params,
                      seed=state.seed, running_loss=state.running_loss,
                      velocity=new_velocity)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentDraw:
    flip_horizontal: bool
    flip_vertical: bool
    scale: float


def sample_augment(rng: np.random.Generator) -> AugmentDraw:
    return AugmentDraw(
        flip_horizontal=bool(rng.random() < 0.5),
        flip_vertical=bool(rng.random() < 0.5),
        scale=float(rng.uniform(0.8, 1.2)),
    )


def apply_flip(arr: np.ndarray, horizontal: bool, vertical: bool) -> np.ndarray:
    if horizontal:
        arr = arr[..., ::-1]
    if vertical:
        arr = arr[..., ::-1, :]
    return np.ascontiguousarray(arr)


def apply_augment(image: np.ndarray, mask: np.ndarray,
                  draw: AugmentDraw) -> tuple[np.ndarray, np.ndarray]:
    image = apply_flip(image, draw.flip_horizontal, draw.flip_vertical)
    mask = apply_flip(mask, draw.flip_horizontal, draw.flip_vertical)
    h, w = image.shape[-2:]
    nh, nw = max(1, round(h * draw.scale)), max(1, round(w * draw.scale))
    if (nh, nw) != (h, w):
        image = resize_bilinear(image, nh, nw)
        mask = resize_nearest(mask, nh, nw)
        if nh >= h:  # center crop back
            top, left = (nh - h) // 2, (nw - w) // 2
            image = image[:, top:top + h, left:left + w]
            mask = mask[:, top:top + h, left:left + w]
        else:  # center pad back: image replicates edges, mask stays background
            top, left = (h - nh) // 2, (w - nw) // 2
            rows, cols = (top, h - nh - top), (left, w - nw - left)
            image = pad2d(image, rows, cols, edge=True)
            mask = pad2d(mask, rows, cols, edge=False)
    return np.ascontiguousarray(image), np.ascontiguousarray(mask)


# ---------------------------------------------------------------------------
# training and evaluation loops
# ---------------------------------------------------------------------------

def one_hot_masks(masks: np.ndarray) -> np.ndarray:
    """(N,1,H,W) binary -> (N,2,H,W) one-hot with lesion as channel 0."""
    lesion = masks[:, 0]
    return np.stack([lesion, 1.0 - lesion], axis=1)


def _loss_and_gradients(batch: Tensor, labels: np.ndarray, params: dict[str, Tensor],
                        config: TrainConfig) -> tuple[float, dict[str, np.ndarray] | None]:
    """One batch's loss and parameter gradients (None for a non-finite loss).

    The step's graph dies on return, so the next forward pass never runs
    while the previous graph is still alive.
    """
    _, probs, _ = model_forward(batch, params, config.model, config.use_bidfl,
                                config.use_mcdf, config.sigma_sq, config.stop_grad_alpha)
    loss = weighted_ce_loss(probs, labels, config.class_weights)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        return loss_value, None
    return loss_value, gradients(loss, params)


def train(dataset: list[Sample], config: TrainConfig) -> tuple[TrainState, list[LossRecord]]:
    """Full optimization loop; bit-deterministic for a fixed seed."""
    if not dataset:
        raise ConfigError("training dataset is empty")
    from .model import build_params  # local import keeps module load light

    init_seed, order_seed, aug_seed = (
        int(s.generate_state(1)[0])
        for s in np.random.SeedSequence(config.seed).spawn(3))
    params = build_params(config.model, init_seed, config.use_bidfl)
    state = TrainState(iteration=0, parameters=params, seed=config.seed,
                       running_loss=0.0)
    order_rng = np.random.default_rng(order_seed)
    aug_rng = np.random.default_rng(aug_seed)

    records: list[LossRecord] = []
    queue: list[int] = []
    for it in range(config.max_iter):
        lr = poly_lr(it, config)
        while len(queue) < config.batch_size:
            queue.extend(order_rng.permutation(len(dataset)).tolist())
        picks, queue = queue[:config.batch_size], queue[config.batch_size:]

        images, masks = [], []
        for idx in picks:
            img, msk = apply_augment(dataset[idx].image.data, dataset[idx].mask.data,
                                     sample_augment(aug_rng))
            images.append(img)
            masks.append(msk)
        batch = Tensor(np.stack(images))
        labels = one_hot_masks(np.stack(masks))

        with np.errstate(all="ignore"):  # an overflow shows as a non-finite loss
            loss_value, grads = _loss_and_gradients(batch, labels, state.parameters,
                                                    config)
            records.append(LossRecord(iteration=it, lr=lr, loss=loss_value))
            if grads is None:
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} at iteration {it} (lr={lr:.3e}, "
                    f"last finite loss={records[-2].loss if it else float('nan'):.6f})",
                    records)
            state = sgd_step(state, grads, lr, momentum=config.momentum)
        state.running_loss = (loss_value if it == 0
                              else 0.98 * state.running_loss + 0.02 * loss_value)
    return state, records


def write_loss_log(path, records: list[LossRecord]) -> None:
    rows = [["iter", "lr", "loss"]]
    for r in records:
        rows.append([r.iteration, f"{r.lr:.17g}", f"{r.loss:.17g}"])
    write_csv(path, rows)


def evaluate(samples: list[Sample], params: dict[str, Tensor], config: ModelConfig,
             use_bidfl: bool, use_mcdf: bool,
             sigma_sq: float) -> tuple[MetricReport, list[str]]:
    """Per-image metrics of thresholded predictions against ground truth.

    The samples, which share one image size, are predicted as one batch.
    """
    if not samples:
        raise ConfigError("evaluation set is empty")
    preds = predict_mask(Tensor(np.stack([s.image.data for s in samples])), params,
                         config, use_bidfl, use_mcdf, sigma_sq)
    entries = [compute_metrics(confusion(pred, s.mask.data[0]))
               for pred, s in zip(preds, samples)]
    return aggregate(entries), [s.id for s in samples]
