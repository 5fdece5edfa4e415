import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lesionseg.autodiff import ShapeMismatchError, Tensor
from lesionseg.backbone import (
    BackboneConfig,
    CheckpointError,
    ConfigError,
    DtypeMismatchError,
    atomic_write,
    backbone_forward,
    block_factors,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

DESK = BackboneConfig(channels=(8, 16, 32, 32, 32), strides=(1, 2, 2, 1, 1),
                      reduce_channels=16)


def test_config_rejects_wrong_length():
    with pytest.raises(ConfigError):
        BackboneConfig(channels=(8, 16, 32), strides=(1, 2, 2, 1, 1))
    with pytest.raises(ConfigError):
        BackboneConfig(strides=(1, 2, 3, 1, 1))


def test_desk_shape_chain():
    params = init_params(DESK, seed=0, with_reduce=True)
    feats = backbone_forward(Tensor(np.zeros((3, 64, 64))), DESK, params)
    dims = [f.shape for f in feats.per_block]
    assert dims == [(8, 64, 64), (16, 32, 32), (32, 16, 16),
                    (32, 16, 16), (32, 16, 16)]
    assert feats.reduced.shape == (16, 16, 16)


def test_blocks_4_5_keep_block3_resolution():
    params = init_params(DESK, seed=3)
    rng = np.random.default_rng(0)
    feats = backbone_forward(Tensor(rng.random((3, 32, 32))), DESK, params)
    b3 = feats.per_block[2].shape[-2:]
    assert feats.per_block[3].shape[-2:] == b3
    assert feats.per_block[4].shape[-2:] == b3


def test_shape_chain_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        strides = tuple(int(s) for s in rng.integers(1, 3, size=5))
        channels = tuple(int(c) for c in rng.integers(2, 8, size=5))
        cfg = BackboneConfig(channels=channels, strides=strides, reduce_channels=4)
        size = block_factors(cfg)[-1] * int(rng.integers(2, 5))
        feats = backbone_forward(Tensor(rng.random((3, size, size))), cfg,
                                 init_params(cfg, 1))
        expect = size
        for b, s in enumerate(strides):
            expect //= s
            assert feats.per_block[b].shape[-2:] == (expect, expect)


def test_zero_image_zero_features():
    params = init_params(DESK, seed=5, with_reduce=True)
    feats = backbone_forward(Tensor(np.zeros((3, 32, 32))), DESK, params)
    for f in feats.per_block:
        assert not f.data.any()
    assert not feats.reduced.data.any()


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    image = rng.random((3, 32, 32))
    outs = []
    for _ in range(2):
        feats = backbone_forward(Tensor(image), DESK,
                                 init_params(DESK, seed=9, with_reduce=True))
        outs.append([f.data.copy() for f in feats.per_block] + [feats.reduced.data])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_reduction_is_built_and_run_only_on_request():
    # the reduce kernel is the last draw, so the blocks do not depend on it
    with_reduce = init_params(DESK, seed=2, with_reduce=True)
    without = init_params(DESK, seed=2)
    assert sorted(with_reduce) == sorted(without) + ["backbone.reduce.bias",
                                                     "backbone.reduce.kernel"]
    assert all(np.array_equal(without[n].data, with_reduce[n].data) for n in without)
    image = Tensor(np.random.default_rng(1).random((3, 32, 32)))
    feats = backbone_forward(image, DESK, without)
    assert feats.reduced is None
    full = backbone_forward(image, DESK, with_reduce)
    assert full.reduced.shape == (16, 8, 8)
    for a, b in zip(feats.per_block, full.per_block):
        assert a.data.tobytes() == b.data.tobytes()


def test_forward_runs_in_the_kernels_dtype():
    params = init_params(DESK, seed=3)
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
    image = np.random.default_rng(0).random((3, 16, 16))
    narrow = backbone_forward(Tensor(image), DESK, params)
    assert narrow.per_block[-1].data.dtype == np.float32
    assert np.array_equal(
        narrow.per_block[-1].data,
        backbone_forward(Tensor(image.astype(np.float32)), DESK, params).per_block[-1].data)
    with pytest.raises(DtypeMismatchError,
                       match="^image dtype float64 differs from the model's float32$"):
        backbone_forward(Tensor(image, requires_grad=True), DESK, params)
    wide = {name: Tensor(p.data.astype(np.float64)) for name, p in params.items()}
    assert backbone_forward(Tensor(image), DESK, wide).per_block[-1].data.dtype == np.float64


def test_divisibility_error():
    params = init_params(DESK, seed=0)
    with pytest.raises(ShapeMismatchError):
        backbone_forward(Tensor(np.zeros((3, 30, 30))), DESK, params)


def test_init_seed_behaviour():
    a = init_params(DESK, seed=42)
    b = init_params(DESK, seed=42)
    c = init_params(DESK, seed=43)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_init_he_scale():
    cfg = BackboneConfig(channels=(64, 64, 64, 64, 64), strides=(1, 1, 1, 1, 1),
                         reduce_channels=8)
    params = init_params(cfg, seed=7)
    k = params["backbone.b3.kernel"].data
    fan_in = 64 * 9
    assert abs(k.std() - np.sqrt(2.0 / fan_in)) / np.sqrt(2.0 / fan_in) < 0.2


def test_block_factors():
    assert block_factors(DESK) == [1, 2, 4, 4, 4]


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(DESK, seed=12)
    echo = {"backbone.channels": "8,16,32,32,32", "seed": "12"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, echo)
    loaded, echo2 = load_checkpoint(path)
    assert echo2 == echo
    assert set(loaded) == set(params)
    for name in params:
        # float32 parameters read back in float32, bit for bit
        assert loaded[name].data.dtype == np.float32
        assert loaded[name].data.tobytes() == params[name].data.tobytes()
        assert loaded[name].requires_grad


def test_float64_checkpoint_is_rounded_once_on_load(tmp_path):
    rng = np.random.default_rng(5)
    wide = {"a.kernel": Tensor(rng.standard_normal((2, 3, 3, 3))),
            # just above float32's largest value, but rounding down to it
            "b.bias": Tensor(np.array([np.finfo(np.float32).max * (1 + 2.0**-30), -1e-50]))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, wide, {"seed": "1"})
    loaded, _ = load_checkpoint(path)
    for name, p in wide.items():
        assert loaded[name].data.tobytes() == p.data.astype(np.float32).tobytes()


@pytest.mark.parametrize("value", [1e39, -3.5e38], ids=["above", "below"])
def test_checkpoint_rejects_a_value_beyond_float32(tmp_path, value):
    params = {"a.kernel": Tensor(np.arange(6.0).reshape(1, 2, 3)),
              "b.bias": Tensor(np.array([1.0, value]))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, {"seed": "1"})
    with pytest.raises(CheckpointError, match=(
            f"^{re.escape(str(path))}: record b.bias holds a value beyond "
            f"float32's range$")):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_failed_save_keeps_old_file(tmp_path):
    class Unreadable:
        @property
        def data(self):
            raise RuntimeError("write interrupted")

    params = init_params(DESK, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, {"seed": "13"})
    before = path.read_bytes()
    # sorted last, so the write fails after every other record is written
    broken = {**params, "zzz.kernel": Unreadable()}
    with pytest.raises(RuntimeError, match="write interrupted"):
        save_checkpoint(path, broken, {"seed": "14"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_refuses_a_non_finite_record(tmp_path, value):
    params = {"a.kernel": Tensor(np.arange(6.0).reshape(1, 2, 3)),
              "b.bias": Tensor(np.array([1.0, value]))}
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError, match=(
            f"^{re.escape(str(path))}: record b.bias holds a non-finite value$")):
        save_checkpoint(path, params, {"seed": "1"})
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_makes_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    atomic_write(path, b"first")
    assert path.read_bytes() == b"first"
    assert [p.name for p in path.parent.iterdir()] == ["out.bin"]


def test_atomic_write_replaces_the_target_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    atomic_write(path, b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_checkpoint_truncated_anywhere_fails_closed(tmp_path):
    params = {"a.kernel": Tensor(np.arange(6.0).reshape(1, 2, 3)),
              "b.bias": Tensor(np.ones(2)), "c.scale": Tensor(4.0)}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, {"seed": "1"})
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for offset in range(len(blob)):
        cut.write_bytes(blob[:offset])
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(cut))}: truncated at byte {offset} "):
            load_checkpoint(cut)
    cut.write_bytes(blob + b"\0")
    with pytest.raises(CheckpointError, match="1 bytes after the last record"):
        load_checkpoint(cut)
