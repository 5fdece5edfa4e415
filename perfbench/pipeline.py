"""Untraced end-to-end workloads of the lesionseg benchmark.

Every workload walks the same user pipeline through the program's public
functions: set up the data and a checkpoint, train one ablation cell,
evaluate it, and serve per-image predictions. The workload fixes the cell
(bidfl+mcdf on, or both off) and which phase receives the measured seconds.
Nothing here calls ``gc.collect()`` or touches the gc thresholds: the cyclic
graph garbage the engine leaves behind is part of what a user pays for.

Timed values are reported at the host's reference speed (see ``Pace``): on a
shared host the same call runs up to 1.5x slower for stretches of seconds to
minutes, and two sets of runs of the same code would otherwise disagree by
more than the bounds. The unscaled wall times are printed next to them.
"""

from __future__ import annotations

import bisect
import resource
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lesionseg.autodiff import Tensor
from lesionseg.backbone import BackboneConfig, load_checkpoint, save_checkpoint
from lesionseg.data import (
    SynthConfig,
    gen_synthetic,
    load_dataset,
    split_dataset,
    write_sample,
)
from lesionseg.model import (
    DESK_RATES,
    ModelConfig,
    build_params,
    config_echo,
    predict_mask,
)
from lesionseg.training import TrainConfig, TrainingDivergedError, evaluate, train

# the desk model of configs/desk.cfg, as pinned in tests/test_acceptance.py
DESK_MODEL = ModelConfig(
    backbone=BackboneConfig(channels=(12, 24, 48, 48, 48),
                            strides=(1, 2, 2, 1, 1), reduce_channels=24),
    rates=DESK_RATES, bank_channels=24,
    windows=(3, 3, 3, 5, 7, 9, 11, 13, 15, 17))
SIGMA_SQ = 1.0
BASE_LR = 0.12
BATCH = 4
# One train() call: long enough that the val JA after it varies across seeds
# by about 5%, short enough that a run of the full cell fits two calls.
TRAIN_ITERS = 60
# set-up repetitions of a traced run; an untraced run sets up once more
# after every serving round
SETUP_REPS = 7
# at least five passes over the 40 val images: 200 batch-1 samples, ten beyond p95
SERVE_ROUNDS = 5
# serving rounds after each training call in the train workloads
SERVE_PER_CALL = 3

# workload -> (bidfl and mcdf on, phase that receives --seconds)
WORKLOADS = {
    "train_full": (True, "train"),
    "train_baseline": (False, "train"),
    "infer_full": (True, "serve"),
}

Span = tuple[float, float]                # perf_counter() at start and end


def synth_config(seed: int) -> SynthConfig:
    return SynthConfig(count=200, size=64, seed=seed,
                       lesion_fraction=(0.05, 0.4), contrast=(0.15, 0.45),
                       noise_std=0.05, hair_prob=0.6)


def train_config(seed: int, full: bool) -> TrainConfig:
    return TrainConfig(model=DESK_MODEL, base_lr=BASE_LR, power=0.9,
                       max_iter=TRAIN_ITERS, seed=seed, batch_size=BATCH,
                       use_bidfl=full, use_mcdf=full, sigma_sq=SIGMA_SQ)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pace:
    """How fast the host runs, sampled all through a run.

    Every INTERVAL_S an interval timer runs two fixed numpy kernels in the
    main thread, between two bytecodes of whatever the run is doing, and
    records how long each took. The small kernel stays in cache and is bound
    by the interpreter, like a batch-1 forward pass; the large one streams a
    GEMM and ufuncs over arrays larger than a core's L2 cache, like a
    training step or a batch-40 forward pass. Neither calls the program or
    leaves anything for the collector, so no change to the program can move
    them.

    ``seconds(span)`` is a span's wall time minus the kernel runs inside it;
    ``factor(span, kernel)`` is the kernel's median time in it over its
    reference time, 1.3 while the host runs 30% slower than the reference.
    Their quotient is the span's time on the reference host.
    """
    INTERVAL_S = 0.15
    REFERENCE_S = {"small": 0.004, "large": 0.008}
    MIN_SAMPLES = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((192, 192))
        self._b = rng.standard_normal((192, 192))
        self._x = rng.standard_normal((4, 12, 64, 64))
        self._c = rng.standard_normal((8192, 216))
        self._d = rng.standard_normal((216, 24))
        self._y = rng.standard_normal((2, 48, 64, 64))
        self.ends: list[float] = []       # perf_counter() after each sample
        self.samples: dict[str, list[float]] = {k: [] for k in self.REFERENCE_S}
        self.spent: list[float] = []      # both kernels, per sample

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for _ in range(4):
            self._a @ self._b
        total = float(np.exp(0.1 * self._x).sum())
        tile = self._x[0, 0, :4, :4]
        for i in range(300):
            total += float(np.add(tile, i).sum())
        t1 = time.perf_counter()
        self._c @ self._d
        total += float(np.maximum(self._y, 0.0).sum()) + float((self._y * self._y).sum())
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.samples["small"].append(t1 - t0)
        self.samples["large"].append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self) -> Pace:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, span: Span) -> slice:
        return slice(bisect.bisect_left(self.ends, span[0]),
                     bisect.bisect_right(self.ends, span[1]))

    def seconds(self, span: Span) -> float:
        return span[1] - span[0] - sum(self.spent[self._inside(span)])

    def factor(self, span: Span, kernel: str) -> float:
        """Over the samples inside span, or the MIN_SAMPLES nearest to it."""
        inside = self._inside(span)
        lo, hi = inside.start, inside.stop
        while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        return statistics.median(self.samples[kernel][lo:hi]) / self.REFERENCE_S[kernel]


@dataclass
class Checks:
    """Output checks counted against the operations attempted."""
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class SetUp:
    """Data generation, the CLI's disk round-trip, a checkpoint round-trip.

    Each repetition runs in a fresh directory under root, removed after use;
    it must load the same arrays as the first one and read back the
    checkpoint it wrote. The first repetition's data and parameters serve
    the run.
    """

    def __init__(self, seed: int, full: bool, root: Path, checks: Checks):
        self.seed, self.full, self.root, self.checks = seed, full, root, checks
        self.spans: list[Span] = []
        self.parts: list[dict[str, float]] = []   # per repetition: span -> seconds
        self.repeat()

    def repeat(self) -> None:
        seed, full, checks, rep = self.seed, self.full, self.checks, len(self.spans)
        scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        try:
            t0 = time.perf_counter()
            samples = gen_synthetic(synth_config(seed))
            t1 = time.perf_counter()
            for sample in samples:
                write_sample(sample, scratch / "data")
            t2 = time.perf_counter()
            loaded = load_dataset(scratch / "data", size=64)
            t3 = time.perf_counter()
            train_set, val_set = split_dataset(loaded, 0.8, seed=seed)
            params = build_params(DESK_MODEL, seed, full)
            t4 = time.perf_counter()
            save_checkpoint(scratch / "model.ckpt", params,
                            config_echo(DESK_MODEL, full, full, SIGMA_SQ, seed))
            restored, _ = load_checkpoint(scratch / "model.ckpt")
            t5 = time.perf_counter()
        finally:
            shutil.rmtree(scratch)
        self.spans.append((t0, t5))
        self.parts.append({"data.gen_synthetic": t1 - t0, "data.write_sample": t2 - t1,
                           "data.load_dataset": t3 - t2, "backbone.checkpoint_io": t5 - t4})

        checks.check(len(train_set) == 160 and len(val_set) == 40,
                     f"setup {rep}: split is {len(train_set)}/{len(val_set)}")
        checks.check(sorted(restored) == sorted(params) and all(
            restored[k].data.tobytes() == params[k].data.tobytes() for k in params),
            f"setup {rep}: checkpoint did not read back bit-identical")
        arrays = [s.image.data for s in loaded] + [s.mask.data for s in loaded]
        if rep == 0:
            self.train_set, self.val_set, self.params = train_set, val_set, restored
            self._arrays = arrays
        else:
            checks.check(all(np.array_equal(a, b) for a, b in zip(arrays, self._arrays)),
                         f"setup {rep}: data differs from repetition 0")


class Trainer:
    """train() calls with one seed; every loss must be finite and every
    call's loss record byte-identical to the first call's."""

    def __init__(self, train_set: list, cfg: TrainConfig, checks: Checks):
        self.train_set, self.cfg, self.checks = train_set, cfg, checks
        self.spans: list[Span] = []       # one per call that finished
        self.parameters: dict[str, Tensor] | None = None
        self.calls = 0
        self._first: bytes | None = None

    def call(self) -> None:
        self.calls += 1
        t0 = time.perf_counter()
        try:
            state, records = train(self.train_set, self.cfg)
        except TrainingDivergedError as err:
            self.checks.check(False, f"train call {self.calls}: {err}")
            return
        self.spans.append((t0, time.perf_counter()))
        self.parameters = state.parameters
        losses = np.array([(r.iteration, r.lr, r.loss) for r in records])
        self.checks.check(bool(np.isfinite(losses).all()),
                          f"train call {self.calls}: non-finite loss")
        if self._first is None:
            self._first = losses.tobytes()
        else:
            self.checks.check(losses.tobytes() == self._first,
                              f"train call {self.calls}: loss record differs from call 1")


class Server:
    """Rounds of one batch-1 predict_mask pass over the val images plus one
    call on all of them at once. Every mask must be binary, and the batched
    masks must equal the per-image ones."""

    def __init__(self, val_set: list, full: bool, checks: Checks):
        self.val_set, self.full, self.checks = val_set, full, checks
        self.batch = Tensor(np.stack([s.image.data for s in val_set]))
        # per round: its span, its batch-1 call spans, its batched call span
        self.rounds: list[tuple[Span, list[Span], Span]] = []

    def round(self, params: dict[str, Tensor]) -> None:
        n = len(self.rounds) + 1
        start = time.perf_counter()
        masks, singles = [], []
        for sample in self.val_set:
            t0 = time.perf_counter()
            mask = predict_mask(sample.image, params, DESK_MODEL, self.full, self.full,
                                SIGMA_SQ)
            singles.append((t0, time.perf_counter()))
            self.checks.check(
                mask.shape == (64, 64) and bool(np.isin(mask, (0.0, 1.0)).all()),
                f"round {n}: {sample.id} mask is not binary 64x64")
            masks.append(mask)
        t0 = time.perf_counter()
        batched = predict_mask(self.batch, params, DESK_MODEL, self.full, self.full,
                               SIGMA_SQ)
        end = time.perf_counter()
        self.rounds.append(((start, end), singles, (t0, end)))
        self.checks.check(np.array_equal(batched, np.stack(masks)),
                          f"round {n}: batched masks differ from batch-1 masks")


def timings(pace: Pace, setup: SetUp, trainer: Trainer, server: Server,
            scale: bool = True) -> dict[str, float]:
    """The timed end-to-end metrics. The small kernel scales work on small
    arrays (set-up, batch-1 calls), the large one work on large arrays
    (training, batch-40 calls). A batch-1 call is too short to hold samples
    of its own, so its round's pace scales it."""
    def scaled(span: Span, around: Span, kernel: str) -> float:
        return pace.seconds(span) / (pace.factor(around, kernel) if scale else 1.0)

    single_ms = [1000.0 * scaled(call, whole, "small")
                 for whole, calls, _ in server.rounds for call in calls]
    images = len(server.val_set)
    return {
        "setup_s": statistics.median(scaled(s, s, "small") for s in setup.spans),
        "train_img_s": statistics.median(
            trainer.cfg.max_iter * trainer.cfg.batch_size / scaled(s, s, "large")
            for s in trainer.spans) if trainer.spans else float("nan"),
        "infer_ms_p50": float(np.percentile(single_ms, 50)),
        "infer_ms_p95": float(np.percentile(single_ms, 95)),
        "infer_batch_img_s": statistics.median(
            images / scaled(batch, whole, "large") for whole, _, batch in server.rounds),
    }


def run(workload: str, seed: int, seconds: float, root: Path,
        checks: Checks) -> tuple[dict[str, float], dict[str, object]]:
    """One untraced run; returns (end-to-end metrics, sample counts)."""
    full, timed_phase = WORKLOADS[workload]
    cfg = train_config(seed, full)
    with Pace() as pace:
        setup = SetUp(seed, full, root, checks)
        trainer = Trainer(setup.train_set, cfg, checks)
        server = Server(setup.val_set, full, checks)

        start = time.perf_counter()
        if timed_phase == "train":
            # Alternate training calls, serving rounds and set-ups so that the
            # samples of each span the whole run. Whole cycles keep the order
            # of work the same from run to run.
            rss = None
            while trainer.calls < 2 or time.perf_counter() - start < seconds:
                trainer.call()
                if rss is None:
                    # ru_maxrss only grows and every call of one seed is the
                    # same, so the peak after the first call is the training
                    # peak; read it before the first serving graph can raise it
                    rss = peak_rss_mb()
                for _ in range(SERVE_PER_CALL):
                    server.round(trainer.parameters or setup.params)
                    setup.repeat()
        else:
            while (len(server.rounds) < SERVE_ROUNDS
                   or time.perf_counter() - start < seconds):
                server.round(setup.params)
                setup.repeat()
            # read the peak before training, so that the training phase's
            # graph garbage does not count as serving memory
            rss = peak_rss_mb()
            trainer.call()
    report, _ = evaluate(setup.val_set, trainer.parameters or setup.params, DESK_MODEL,
                         full, full, SIGMA_SQ)

    metrics = timings(pace, setup, trainer, server)
    metrics.update(train_ja=report.mean.ja, peak_rss_mb=rss)
    counts = {
        "setup repetitions": len(setup.spans),
        "train calls": f"{trainer.calls} x {cfg.max_iter} steps x batch {cfg.batch_size}",
        "batch-1 predicts": sum(len(calls) for _, calls, _ in server.rounds),
        f"batch-{len(setup.val_set)} predicts": len(server.rounds),
        "pace samples": len(pace.ends),
        "pace small/large": "/".join(f"{pace.factor((0.0, time.perf_counter()), k):.4f}"
                                     for k in Pace.REFERENCE_S),
    }
    counts.update({f"unscaled {k}": round(v, 4)
                   for k, v in timings(pace, setup, trainer, server, scale=False).items()})
    return metrics, counts
