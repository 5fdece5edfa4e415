import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionseg import autodiff, mcdf, model
from lesionseg.autodiff import Tensor, gradients
from lesionseg.backbone import BackboneConfig, ConfigError
from lesionseg.bidfl import FUSION_STRATEGIES
from lesionseg.cli import parse_config, train_config
from lesionseg.gradcheck import TINY_MODEL
from lesionseg.model import (
    DESK_RATES,
    PAPER_RATES,
    PAPER_WINDOWS,
    PREDICT_CHUNK,
    ModelConfig,
    build_params,
    config_echo,
    config_from_echo,
    model_forward,
    predict_mask,
)
from lesionseg.training import one_hot_masks, weighted_ce_loss

TINY = ModelConfig(
    backbone=BackboneConfig(channels=(4, 6, 6, 6, 6), strides=(1, 2, 2, 1, 1),
                            reduce_channels=4),
    rates=(1, 2), bank_channels=4, windows=(3, 3, 3, 5, 7, 3, 3))
DESK_CFG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"
SRC = Path(__file__).resolve().parent.parent / "src"
# the stage functions as the package defines them, for the wrappers below
model_encode, model_decide = model.encode, model.decide
mcdf_classify_upsample = mcdf.classify_upsample
engine_local_variance = autodiff._local_variance
engine_conv_windows = autodiff._conv_windows


@pytest.fixture(scope="module")
def desk():
    """The benchmark's model, randomly initialised, and 64x64 images for it."""
    tc = train_config(parse_config(str(DESK_CFG)))
    params = build_params(tc.model, seed=3, use_bidfl=True)
    images = np.random.default_rng(7).random((16, 3, 64, 64))

    def predict(image):
        return predict_mask(Tensor(image), params, tc.model, True, True, tc.sigma_sq)
    return predict, images


def test_published_constants():
    assert PAPER_RATES == (3, 6, 12, 18, 24)
    assert PAPER_WINDOWS == (3, 3, 3, 5, 7, 9, 11, 13, 15, 17)
    assert len(PAPER_WINDOWS) == 10


def test_window_count_validation():
    with pytest.raises(ConfigError):
        ModelConfig(backbone=BackboneConfig(), rates=(1, 2), windows=(3, 3, 3))


@st.composite
def accepted_configs(draw, size):
    """A small ModelConfig that constructs, for size x size images: each
    window fits the full-resolution score maps."""
    rates = tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3))))
    windows = draw(st.lists(st.sampled_from(range(1, size + 1, 2)),
                            min_size=5 + len(rates), max_size=5 + len(rates)))
    return ModelConfig(
        backbone=BackboneConfig(channels=(2, 3, 3, 3, 3), strides=(1, 2, 2, 1, 1),
                                reduce_channels=2),
        rates=rates, bank_channels=draw(st.integers(1, 3)), windows=tuple(windows),
        fusion=draw(st.sampled_from(FUSION_STRATEGIES)),
        reducer_relu=draw(st.booleans()), bank_relu=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(accepted_configs(size=8), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_accepted_config_runs_in_every_cell(config, use_bidfl, use_mcdf, seed):
    # ModelConfig is the only check of the model keys, so whatever it accepts
    # the builders and the forward pass must run
    rng = np.random.default_rng(seed)
    params = build_params(config, seed, use_bidfl)
    image = Tensor(rng.random((2, 3, 8, 8)))
    labels = one_hot_masks((rng.random((2, 1, 8, 8)) > 0.5).astype(float))
    _, probs, _ = model_forward(image, params, config, use_bidfl, use_mcdf, 10.0)
    loss = weighted_ce_loss(probs, labels, (0.8, 0.2))
    gradients(loss, params)
    assert np.isfinite(loss.data).all()
    mask = predict_mask(Tensor(image.data[0]), params, config, use_bidfl, use_mcdf, 10.0)
    assert mask.shape == (8, 8)
    assert np.isin(mask, (0.0, 1.0)).all()


def test_param_sets_differ_by_ablation():
    with_bidfl = build_params(TINY, seed=0, use_bidfl=True)
    without = build_params(TINY, seed=0, use_bidfl=False)
    assert any(k.startswith("bidfl.") for k in with_bidfl)
    assert not any(k.startswith("bidfl.") for k in without)
    # 5 block heads vs 5 + J level heads
    assert sum(k.startswith("head.") and k.endswith("cls.kernel") for k in with_bidfl) == 7
    assert sum(k.startswith("head.") and k.endswith("cls.kernel") for k in without) == 5


def test_forward_shapes_all_ablations():
    rng = np.random.default_rng(0)
    image = Tensor(rng.random((3, 32, 32)))
    for use_bidfl in (False, True):
        params = build_params(TINY, seed=1, use_bidfl=use_bidfl)
        wide = {name: Tensor(p.data.astype(np.float64)) for name, p in params.items()}
        for use_mcdf in (False, True):
            def forward(params):
                logits, probs, stack = model_forward(image, params, TINY, use_bidfl,
                                                     use_mcdf, sigma_sq=10.0)
                assert logits.shape == (2, 32, 32)
                assert probs.shape == (2, 32, 32)
                assert len(stack.maps) == (7 if use_bidfl else 5)
                return probs.data
            probs = forward(wide)
            assert probs.dtype == np.float64
            np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)
            # float32: the exp errors cancel in the two-class sum, which is
            # left with the sum's, the divisions' and the add's roundings
            probs = forward(params)
            assert probs.dtype == np.float32
            assert np.abs(probs.sum(axis=0) - 1.0).max() <= 2 * np.finfo(np.float32).eps


class ReadLog(dict):
    """A parameter dict that records every name read from it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


# (use_bidfl, use_mcdf) of the four ablation cells
CELLS = pytest.mark.parametrize("use_bidfl, use_mcdf", [
    (True, True), (False, False), (True, False), (False, True)],
    ids=["full", "baseline", "bidfl", "mcdf"])


@pytest.mark.parametrize("fusion", FUSION_STRATEGIES)
@CELLS
def test_forward_reads_exactly_the_built_parameters(use_bidfl, use_mcdf, fusion):
    # a layer built and never read, or read and never built, breaks this
    config = replace(TINY, fusion=fusion)
    params = ReadLog(build_params(config, seed=0, use_bidfl=use_bidfl))
    model_forward(Tensor(np.zeros((3, 32, 32))), params, config, use_bidfl, use_mcdf,
                  10.0)
    assert params.read == set(params)
    assert ("backbone.reduce.kernel" in params) == use_bidfl


def test_forward_batched_matches_single():
    rng = np.random.default_rng(1)
    params = build_params(TINY, seed=2, use_bidfl=True)
    images = rng.random((2, 3, 32, 32))
    _, batch_probs, _ = model_forward(Tensor(images), params, TINY, True, True, 10.0)
    for i in range(2):
        _, one, _ = model_forward(Tensor(images[i]), params, TINY, True, True, 10.0)
        assert np.array_equal(batch_probs.data[i], one.data)


@pytest.mark.parametrize("full", [True, False], ids=["full", "baseline"])
def test_desk_probabilities_do_not_depend_on_the_batch(full):
    tc = train_config(parse_config(str(DESK_CFG)))
    params = {name: p.detach()
              for name, p in build_params(tc.model, seed=3, use_bidfl=full).items()}
    images = np.random.default_rng(7).random((9, 3, 64, 64))

    def probs(batch):
        return model_forward(Tensor(batch), params, tc.model, full, full, tc.sigma_sq)[1].data
    singles = np.stack([probs(image) for image in images])
    for batch in range(1, 10):
        assert probs(images[:batch]).tobytes() == singles[:batch].tobytes(), batch


def test_predict_mask_binary():
    rng = np.random.default_rng(2)
    params = build_params(TINY, seed=3, use_bidfl=True)
    mask = predict_mask(Tensor(rng.random((3, 32, 32))), params, TINY, True, True, 10.0)
    assert mask.shape == (32, 32)
    assert np.isin(mask, (0.0, 1.0)).all()


def test_predict_mask_records_no_graph(monkeypatch):
    recorded = []

    def decide(*args, **kwargs):
        out = model_decide(*args, **kwargs)
        recorded.append(out[1])
        return out

    monkeypatch.setattr(model, "decide", decide)
    rng = np.random.default_rng(2)
    params = build_params(TINY, seed=3, use_bidfl=True)
    predict_mask(Tensor(rng.random((3, 32, 32))), params, TINY, True, True, 10.0)
    (probs,) = recorded
    assert probs._parents == () and probs._backward is None


def test_predict_mask_chunks_match_single_images(desk, monkeypatch):
    predict, images = desk
    singles = np.stack([predict(image) for image in images[:9]])
    encoded, decided = [], []

    def encode(image, *args, **kwargs):
        encoded.append(len(image.data))
        return model_encode(image, *args, **kwargs)

    def decide(features, *args, **kwargs):
        out = model_decide(features, *args, **kwargs)
        decided.append(len(out[1].data))
        assert out[1]._parents == () and out[1]._backward is None
        return out

    monkeypatch.setattr(model, "encode", encode)
    monkeypatch.setattr(model, "decide", decide)
    for batch in (1, 2, 3, 4, 9):     # one chunk, whole chunks and remainders
        encoded.clear()
        decided.clear()
        assert np.array_equal(predict(images[:batch]), singles[:batch])
        assert encoded == [min(PREDICT_CHUNK, batch - i)
                           for i in range(0, batch, PREDICT_CHUNK)]
        assert decided == encoded


BATCH_MASKS = """
import sys
import numpy as np
from lesionseg.autodiff import Tensor
from lesionseg.cli import parse_config, train_config
from lesionseg.model import build_params, predict_mask
tc = train_config(parse_config(sys.argv[1]))
params = build_params(tc.model, seed=3, use_bidfl=True)
images = np.random.default_rng(7).random((9, 3, 64, 64))

def predict(x):
    return predict_mask(Tensor(x), params, tc.model, True, True, tc.sigma_sq)

singles = np.stack([predict(image) for image in images])
assert predict(images).tobytes() == singles.tobytes()
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pipelined_batch_matches_single_images_at_each_blas_thread_count(threads):
    # a fresh process, as OpenBLAS reads its thread count once, at load
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BATCH_MASKS, str(DESK_CFG)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path,
                        "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
    assert proc.returncode == 0, proc.stderr


class Boom(RuntimeError):
    pass


def test_predict_mask_raises_what_a_chunk_raised_and_joins_its_worker(desk, monkeypatch):
    predict, images = desk
    calls = []

    def decide(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise Boom("second chunk")
        return model_decide(*args, **kwargs)

    monkeypatch.setattr(model, "decide", decide)
    before = threading.active_count()
    with pytest.raises(Boom, match="^second chunk$"):
        predict(images[:6])
    assert threading.active_count() == before
    assert len(calls) == 2 and threading.main_thread() not in calls


@pytest.mark.parametrize("batch, started", [
    (1, 0),                       # one image
    (PREDICT_CHUNK, 0),           # one chunk
    (PREDICT_CHUNK + 1, 1),       # the pipeline: one worker
    (6 * PREDICT_CHUNK, 1),
], ids=["batch1", "one_chunk", "two_chunks", "six_chunks"])
def test_predict_mask_threads(desk, monkeypatch, batch, started):
    predict, images = desk
    starts = []
    start = threading.Thread.start

    def recorded(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    before = threading.active_count()
    predict(images[0] if batch == 1 else images[:batch])
    assert len(starts) == started
    assert threading.active_count() == before


@pytest.mark.parametrize("batch", [1, 2, 3, 6])
def test_predict_mask_runs_every_chunk_under_the_callers_errstate(batch):
    """np.errstate is context-local; the pipeline's worker takes the
    caller's, so a pipelined batch raises where one chunk raises. At this
    sigma_sq every consistency weight underflows."""
    params = build_params(TINY_MODEL, seed=0, use_bidfl=True)
    images = np.random.default_rng(4).random((batch, 3, 32, 32))
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        predict_mask(Tensor(images), params, TINY_MODEL, True, True, 1e-30)


class InlineExecutor:
    """ThreadPoolExecutor's stand-in: each task runs on the caller as it is
    submitted, so the engine's worker tasks run on one thread."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as err:
            future.set_exception(err)
        return future


def tiny_step(use_bidfl, use_mcdf):
    """One TINY training step's loss and gradients, as bytes."""
    rng = np.random.default_rng(6)
    image = Tensor(rng.random((2, 3, 32, 32)))
    labels = one_hot_masks((rng.random((2, 1, 32, 32)) > 0.6).astype(float))
    params = build_params(TINY, seed=2, use_bidfl=use_bidfl)
    _, probs, _ = model_forward(image, params, TINY, use_bidfl, use_mcdf, 10.0)
    loss = weighted_ce_loss(probs, labels, (0.8, 0.2))
    grads = gradients(loss, params)
    return loss.data.tobytes(), {name: g.tobytes() for name, g in grads.items()}


def recorded_starts(monkeypatch):
    """The threads started from now on, in order."""
    starts = []
    start = threading.Thread.start

    def recorded(thread):
        starts.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", recorded)
    return starts


@CELLS
def test_two_thread_step_gives_the_one_thread_bytes(use_bidfl, use_mcdf, monkeypatch):
    two_threads = tiny_step(use_bidfl, use_mcdf)
    monkeypatch.setattr(autodiff, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(model, "ThreadPoolExecutor", InlineExecutor)
    starts = recorded_starts(monkeypatch)
    assert tiny_step(use_bidfl, use_mcdf) == two_threads
    assert starts == []


@CELLS
def test_recorded_forward_starts_one_worker_per_pass(use_bidfl, use_mcdf, desk,
                                                     monkeypatch):
    """Each recorded desk forward starts one thread. The five encoder blocks
    hand it the first half of their batch, and an MCDF fusion the
    variances of the first half of its maps while the caller takes the
    second; a sum-fused cell takes no variance. A one-chunk predict_mask,
    and an encode that records nothing, start no thread."""
    tc = train_config(parse_config(str(DESK_CFG)))
    params = build_params(tc.model, seed=3, use_bidfl=use_bidfl)
    images = desk[1][:2]
    windows, taken = [], []

    def conv_windows(x4, *geometry):
        windows.append((len(x4), threading.current_thread()))
        return engine_conv_windows(x4, *geometry)

    def local_variance(x, window):
        taken.append((x, threading.current_thread()))
        return engine_local_variance(x, window)

    monkeypatch.setattr(autodiff, "_conv_windows", conv_windows)
    monkeypatch.setattr(autodiff, "_local_variance", local_variance)
    starts = recorded_starts(monkeypatch)
    before = threading.active_count()
    for passes in (1, 2):
        windows.clear()
        taken.clear()
        _, _, stack = model_forward(Tensor(images), params, tc.model, use_bidfl, use_mcdf,
                                    tc.sigma_sq)
        assert len(starts) == passes and starts[-1] is not threading.main_thread()
        assert threading.active_count() == before
        # each block's halves; the bank's convolutions run whole, on the caller
        on_worker = [call for call in windows if call[1] is starts[-1]]
        assert on_worker == [(1, starts[-1])] * 5
        assert windows.count((1, threading.main_thread())) == 5
        if not use_mcdf:
            assert taken == []
            continue
        heads = len(stack.maps)
        by_map = [next(t for x, t in taken if x is m.data) for m in stack.maps]
        assert by_map == [starts[-1]] * (heads // 2) + \
            [threading.main_thread()] * (heads - heads // 2)
    frozen = {name: p.detach() for name, p in params.items()}
    predict_mask(Tensor(images[:PREDICT_CHUNK]), params, tc.model, use_bidfl, use_mcdf,
                 tc.sigma_sq)
    model_encode(Tensor(images), frozen, tc.model, use_bidfl)
    assert len(starts) == 2


@pytest.mark.parametrize("failing, raised", [({0}, 0), ({6}, 6), (set(range(7)), 0)],
                         ids=["worker_half", "caller_half", "every_map"])
def test_a_variance_error_surfaces_as_itself_with_no_thread_left(failing, raised,
                                                                  monkeypatch):
    """An error in either half surfaces as itself; when both halves raise,
    the first half's, map 0's, surfaces."""
    params = build_params(TINY, seed=2, use_bidfl=True)
    scores, ran = [], []

    def classify_upsample(feature, head):
        scores.append(mcdf_classify_upsample(feature, head))
        return scores[-1]

    def local_variance(x, window):
        k = next(k for k, score in enumerate(scores) if score.data is x)
        if k in failing:
            ran.append(threading.current_thread())
            raise Boom(f"variance {k}")
        return engine_local_variance(x, window)

    monkeypatch.setattr(mcdf, "classify_upsample", classify_upsample)
    monkeypatch.setattr(autodiff, "_local_variance", local_variance)
    before = threading.active_count()
    with pytest.raises(Boom, match=f"^variance {raised}$"):
        model_forward(Tensor(np.zeros((3, 32, 32))), params, TINY, True, True, 10.0)
    assert threading.active_count() == before
    assert (threading.main_thread() in ran) == (6 in failing)
    assert (len(set(ran)) == 2) == (len(failing) > 1)


def test_predict_mask_memory_does_not_grow_with_batch(desk):
    predict, images = desk

    def peak_bytes(batch):
        tracemalloc.start()
        try:
            predict(images[:batch])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(16) <= 1.5 * peak_bytes(4)


def test_training_step_leaves_no_reference_cycles():
    rng = np.random.default_rng(4)
    params = build_params(TINY, seed=5, use_bidfl=True)

    def step():
        image = Tensor(rng.random((2, 3, 32, 32)))
        labels = one_hot_masks((rng.random((2, 1, 32, 32)) > 0.5).astype(float))
        _, probs, _ = model_forward(image, params, TINY, True, True, 10.0)
        gradients(weighted_ce_loss(probs, labels, (0.8, 0.2)), params)

    gc.collect()
    gc.disable()
    try:
        step()
        assert gc.collect() == 0
    finally:
        gc.enable()


def desk_loss(use_bidfl, use_mcdf):
    """The benchmark model's parameters and the loss of one 4-image 64x64
    training batch, its graph not yet walked."""
    tc = train_config(parse_config(str(DESK_CFG)))
    params = build_params(tc.model, seed=3, use_bidfl=use_bidfl)
    rng = np.random.default_rng(5)
    image = Tensor(rng.random((4, 3, 64, 64)))
    labels = one_hot_masks((rng.random((4, 1, 64, 64)) > 0.7).astype(float))
    _, probs, _ = model_forward(image, params, tc.model, use_bidfl, use_mcdf, tc.sigma_sq)
    return params, weighted_ce_loss(probs, labels, tc.class_weights)


@CELLS
def test_desk_step_runs_in_float32(use_bidfl, use_mcdf, accumulated_dtypes):
    """The parameters carry float32 and nothing promotes it: a float64 scalar
    or label would turn the loss, and with it all of backward, into float64."""
    params, loss = desk_loss(use_bidfl, use_mcdf)
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
    assert loss.data.dtype == np.float32
    grads = gradients(loss, params)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
    assert set(accumulated_dtypes) == {np.dtype(np.float32)}


@CELLS
def test_backward_releases_the_desk_graph(use_bidfl, use_mcdf):
    params, loss = desk_loss(use_bidfl, use_mcdf)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    ops = [n._op for n in nodes.values()]
    assert "relu" not in ops  # every ReLU is folded into its conv2d node
    grads = gradients(loss, params)
    interior = [n for n in nodes.values() if n._op != "leaf"]
    assert all(n.grad is None and n._backward is None for n in interior)
    # every parameter the cell builds is on its loss's graph
    assert all(id(p) in nodes for p in params.values())
    assert all(p.grad is not None and grads[name] is p.grad
               for name, p in params.items())


@pytest.mark.parametrize("full, bound_mb", [(True, 45), (False, 38)],
                         ids=["full", "baseline"])
def test_desk_training_step_peak_memory(full, bound_mb):
    """Backward frees each node once its rules have run, conv2d's kernel rule
    rebuilds its columns rather than keep them, and the fusion keeps only its
    weights, so one float32 step peaks at about 21 MB (full) and 16 MB
    (baseline); in float64 it peaked at about 35 and 32 MB.
    With the columns and the fusion's intermediates kept it peaked at about
    81 and 47 MB, and with the graph also kept whole until backward returned,
    at about 154 and 83 MB."""
    tracemalloc.start()
    try:
        params, loss = desk_loss(full, full)
        gradients(loss, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_echo_roundtrip():
    echo = config_echo(TINY, use_bidfl=True, use_mcdf=False, sigma_sq=2.5, seed=11)
    cfg, use_bidfl, use_mcdf, sigma_sq = config_from_echo(echo)
    assert cfg == TINY
    assert use_bidfl is True and use_mcdf is False
    assert sigma_sq == 2.5


def test_desk_rates_fit_desk_features():
    cfg = ModelConfig(backbone=BackboneConfig(), rates=DESK_RATES,
                      windows=PAPER_WINDOWS)
    params = build_params(cfg, seed=4, use_bidfl=True)
    image = Tensor(np.random.default_rng(3).random((3, 64, 64)))
    logits, _, stack = model_forward(image, params, cfg, True, True, 10.0)
    assert logits.shape == (2, 64, 64)
    assert stack.windows == PAPER_WINDOWS
