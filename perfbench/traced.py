"""Traced run: per-layer time, per-op backward time and graph counts.

Spans are recorded here, around the calls into each module, never inside
the program. A training step is rebuilt from the public functions in
``model_forward``'s order, and its loss and every gradient must be
bit-identical to ``model_forward`` + ``weighted_ce_loss`` + ``gradients`` on
the same batch and parameters, so the replay cannot drift from the program.
Per-op backward time comes from wrapping each recorded node's ``_backward``
and keying it on the node's ``_op`` tag before calling the program's own
``gradients()``.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from lesionseg.autodiff import Tensor, gradients, softmax_channels
from lesionseg.backbone import backbone_forward, block_factors
from lesionseg.bidfl import (
    backward_pass,
    bidfl_params_from,
    dilated_bank,
    forward_pass,
    fuse_bidirectional,
    per_level_maps,
)
from lesionseg.mcdf import fuse_scores, head_params_from, score_heads, sum_fuse
from lesionseg.model import build_params, model_forward, predict_mask
from lesionseg.training import (
    TrainState,
    apply_augment,
    one_hot_masks,
    poly_lr,
    sample_augment,
    sgd_step,
    train,
    weighted_ce_loss,
)

from pipeline import (DESK_MODEL, SETUP_REPS, SIGMA_SQ, WORKLOADS, Checks, SetUp,
                      train_config)

BACKWARD_OPS = ("conv2d", "conv_transpose2d", "windowed_variance", "max_pool2d", "relu")
STEP_SPANS = ("backbone.forward", "bidfl.bank", "bidfl.sweeps", "bidfl.merge",
              "mcdf.heads", "mcdf.fusion", "training.loss", "autodiff.backward")
MIN_STEPS = 3
MIN_PREDICTS = 20


class Spans:
    """Summed durations of named spans, in seconds."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def replay_forward(image: Tensor, params: dict[str, Tensor], full: bool,
                   span: Spans) -> Tensor:
    """model_forward's calls in model_forward's order, one span per stage."""
    config = DESK_MODEL
    with span("backbone.forward"):
        blocks = backbone_forward(image, config.backbone, params)
    fused, levels = None, []
    if full:
        with span("bidfl.bank"):
            bp = bidfl_params_from(params, config.rates, fusion=config.fusion)
            bank = dilated_bank(blocks.reduced, bp, apply_relu=config.bank_relu)
        with span("bidfl.sweeps"):
            fwd = forward_pass(bank, bp, apply_relu=config.reducer_relu)
            bwd = backward_pass(bank, bp, apply_relu=config.reducer_relu)
        with span("bidfl.merge"):
            fused = fuse_bidirectional(fwd, bwd, bp, strategy=config.fusion,
                                       apply_relu=config.reducer_relu)
            levels = per_level_maps(fwd, bwd, bp, apply_relu=config.reducer_relu)
    with span("mcdf.heads"):
        factors = block_factors(config.backbone)
        heads = head_params_from(params, list(factors) + [factors[-1]] * len(levels))
        stack = score_heads(blocks, fused, levels, heads,
                            config.head_windows(full), SIGMA_SQ)
    with span("mcdf.fusion"):
        return fuse_scores(stack) if full else sum_fuse(stack)


def graph_nodes(root: Tensor) -> list[Tensor]:
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def time_backward_ops(nodes: list[Tensor], seconds: dict[str, float],
                      counts: dict[str, int]) -> None:
    """Wrap every recorded _backward so its time lands on the node's op."""
    def timed(fn, op):
        def _bw(g):
            t0 = time.perf_counter()
            fn(g)
            seconds[op] += time.perf_counter() - t0
            counts[op] += 1
        return _bw

    for node in nodes:
        if node._backward is not None:
            op = node._op if node._op in BACKWARD_OPS else "other"
            node._backward = timed(node._backward, op)


def fresh(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(p.data, requires_grad=True) for k, p in params.items()}


def bits(arrays: dict[str, np.ndarray]) -> dict[str, bytes]:
    return {k: a.tobytes() for k, a in arrays.items()}


def reference_step(batch: Tensor, labels: np.ndarray, params, cfg):
    _, probs, _ = model_forward(batch, params, cfg.model, cfg.use_bidfl,
                                cfg.use_mcdf, cfg.sigma_sq, cfg.stop_grad_alpha)
    loss = weighted_ce_loss(probs, labels, cfg.class_weights)
    return loss, gradients(loss, params)


def train_seeds(cfg) -> list[int]:
    """train()'s split of cfg.seed into init, batch-order and augment seeds."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(3)]


def batches(train_set: list, cfg):
    """The batches train() draws for cfg, in train()'s order; yields
    (batch image, one-hot labels, seconds spent building them)."""
    _, order_seed, aug_seed = train_seeds(cfg)
    order_rng = np.random.default_rng(order_seed)
    aug_rng = np.random.default_rng(aug_seed)
    queue: list[int] = []
    while True:
        while len(queue) < cfg.batch_size:
            queue.extend(order_rng.permutation(len(train_set)).tolist())
        picks, queue = queue[:cfg.batch_size], queue[cfg.batch_size:]
        t0 = time.perf_counter()
        images, masks = [], []
        for idx in picks:
            img, msk = apply_augment(train_set[idx].image.data,
                                     train_set[idx].mask.data, sample_augment(aug_rng))
            images.append(img)
            masks.append(msk)
        batch = Tensor(np.stack(images))
        labels = one_hot_masks(np.stack(masks))
        yield batch, labels, time.perf_counter() - t0


def initial_params(cfg) -> dict[str, Tensor]:
    return build_params(cfg.model, train_seeds(cfg)[0], cfg.use_bidfl)


def trace_steps(train_set: list, cfg, seconds: float, checks: Checks) -> dict[str, float]:
    """Replay train()'s first steps, traced, each checked against the program."""
    per_step: dict[str, list[float]] = defaultdict(list)
    losses: list[float] = []
    state = TrainState(iteration=0, parameters=initial_params(cfg), seed=cfg.seed,
                       running_loss=0.0)
    draws = batches(train_set, cfg)
    start = time.perf_counter()
    it = 0
    while it < cfg.max_iter and (it < MIN_STEPS or time.perf_counter() - start < seconds):
        batch, labels, batch_s = next(draws)
        ref_params, traced_params = fresh(state.parameters), fresh(state.parameters)
        span = Spans()
        op_s: dict[str, float] = defaultdict(float)
        op_n: dict[str, int] = defaultdict(int)

        def traced():
            t0 = time.perf_counter()
            logits = replay_forward(batch, traced_params, cfg.use_bidfl, span)
            with span("training.loss"):
                loss = weighted_ce_loss(softmax_channels(logits), labels,
                                        cfg.class_weights)
            nodes = graph_nodes(loss)
            time_backward_ops(nodes, op_s, op_n)
            with span("autodiff.backward"):
                grads = gradients(loss, traced_params)
            return loss, grads, nodes, time.perf_counter() - t0

        def reference():
            t0 = time.perf_counter()
            loss, grads = reference_step(batch, labels, ref_params, cfg)
            return loss, grads, time.perf_counter() - t0

        # alternate which side runs first, so neither always gets warm caches
        if it % 2:
            ref_loss, ref_grads, ref_s = reference()
            loss, grads, nodes, traced_s = traced()
        else:
            loss, grads, nodes, traced_s = traced()
            ref_loss, ref_grads, ref_s = reference()
        checks.check(loss.data.tobytes() == ref_loss.data.tobytes()
                     and bits(grads) == bits(ref_grads),
                     f"step {it}: traced loss or gradients differ from the program's")

        t0 = time.perf_counter()
        state = sgd_step(state, ref_grads, poly_lr(it, cfg), momentum=cfg.momentum)
        per_step["training.sgd"].append(time.perf_counter() - t0)
        per_step["training.batch"].append(batch_s)
        for name in STEP_SPANS:
            per_step[name].append(span.seconds[name])
        for op in BACKWARD_OPS + ("other",):
            per_step[f"autodiff.backward.{op}"].append(op_s[op])
            per_step[f"autodiff.backward.{op}_count"].append(op_n[op])
        per_step["autodiff.backward.walk"].append(
            span.seconds["autodiff.backward"] - sum(op_s.values()))
        per_step["trace.step"].append(traced_s)
        per_step["trace.reference_step"].append(ref_s)
        per_step["trace.unattributed"].append(traced_s - sum(span.seconds.values()))
        per_step["trace.overhead"].append(traced_s - ref_s)
        per_step["autodiff.nodes"].append(len(nodes))
        per_step["autodiff.graph_mb"].append(sum(n.data.nbytes for n in nodes) / 2**20)
        losses.append(ref_loss.item())
        it += 1

    # The replay copies train()'s seed split, batch queue and augmentation
    # draws; train() itself must record the same losses. Step 0's lr is the
    # base lr whatever max_iter is, so a two-step train() gives the replay's
    # first two losses: the init, two batches and one update.
    _, records = train(train_set, replace(cfg, max_iter=2))
    checks.check(np.array([r.loss for r in records]).tobytes()
                 == np.array(losses[:2]).tobytes(),
                 "replayed losses differ from train()'s first two")

    metrics = {}
    for name, values in per_step.items():
        value = statistics.median(values)
        if name.endswith("_count") or name in ("autodiff.nodes", "autodiff.graph_mb"):
            metrics[name] = value
        else:
            metrics[f"{name}_ms"] = 1000.0 * value
    metrics["trace.steps"] = it
    return metrics


def cyclic_garbage(train_set: list, cfg) -> int:
    """Objects the collector frees after one training step made with gc off."""
    batch, labels, _ = next(batches(train_set, cfg))
    params = initial_params(cfg)

    def step():
        _, grads = reference_step(batch, labels, params, cfg)
        sgd_step(TrainState(0, params, cfg.seed, 0.0), grads, poly_lr(0, cfg),
                 momentum=cfg.momentum)

    gc.collect()
    gc.disable()
    try:
        step()
        return gc.collect()
    finally:
        gc.enable()


def trace_predicts(val_set: list, params: dict[str, Tensor], full: bool,
                   seconds: float, checks: Checks) -> dict[str, float]:
    """predict_mask at batch 1, then the same call replayed with its forward split."""
    parts = {"model.predict.backbone": ("backbone.forward",),
             "model.predict.bidfl": ("bidfl.bank", "bidfl.sweeps", "bidfl.merge"),
             "model.predict.heads": ("mcdf.heads",),
             "model.predict.fusion": ("mcdf.fusion",)}
    per_call: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    calls = 0
    while calls < MIN_PREDICTS or time.perf_counter() - start < seconds:
        sample = val_set[calls % len(val_set)]
        calls += 1
        t0 = time.perf_counter()
        want = predict_mask(sample.image, params, DESK_MODEL, full, full, SIGMA_SQ)
        per_call["model.predict"].append(time.perf_counter() - t0)
        span = Spans()
        logits = replay_forward(sample.image, params, full, span)
        got = (softmax_channels(logits).data[..., 0, :, :] > 0.5).astype(float)
        checks.check(np.array_equal(got, want),
                     f"predict {calls}: traced mask differs from predict_mask")
        for name, spans in parts.items():
            per_call[name].append(sum(span.seconds[s] for s in spans))
    metrics = {f"{name}_ms": 1000.0 * statistics.median(v) for name, v in per_call.items()}
    metrics["model.predict.calls"] = calls

    # the graph one batched predict_mask call records and never walks
    batch = Tensor(np.stack([s.image.data for s in val_set]))
    logits = replay_forward(batch, params, full, Spans())
    nodes = graph_nodes(softmax_channels(logits))
    metrics["model.predict.nodes"] = len(nodes)
    metrics["model.predict.graph_mb"] = sum(n.data.nbytes for n in nodes) / 2**20
    return metrics


def run(workload: str, seed: int, seconds: float, root: Path,
        checks: Checks) -> tuple[dict[str, float], dict[str, object]]:
    """One traced run; returns (per-layer metrics, sample counts)."""
    full, _ = WORKLOADS[workload]
    cfg = train_config(seed, full)
    setup = SetUp(seed, full, root, checks)
    for _ in range(SETUP_REPS - 1):
        setup.repeat()
    metrics = {f"{name}_ms": 1000.0 * statistics.median(p[name] for p in setup.parts)
               for name in setup.parts[0]}
    metrics.update(trace_steps(setup.train_set, cfg, seconds / 2, checks))
    metrics.update(trace_predicts(setup.val_set, setup.params, full, seconds / 2, checks))
    metrics["autodiff.cyclic_garbage"] = cyclic_garbage(setup.train_set, cfg)
    counts = {"traced steps": metrics.pop("trace.steps"),
              "traced batch-1 predicts": metrics.pop("model.predict.calls"),
              "setup repetitions": len(setup.parts)}
    return metrics, counts
