import numpy as np
import pytest
from numpy.testing import assert_allclose

from lesionseg.autodiff import ShapeMismatchError, Tensor
from lesionseg.backbone import (
    BackboneConfig,
    CheckpointError,
    ConfigError,
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
    params = init_params(DESK, seed=0)
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
        size = cfg.cumulative_stride * int(rng.integers(2, 5))
        feats = backbone_forward(Tensor(rng.random((3, size, size))), cfg,
                                 init_params(cfg, 1))
        expect = size
        for b, s in enumerate(strides):
            expect //= s
            assert feats.per_block[b].shape[-2:] == (expect, expect)


def test_zero_image_zero_features():
    params = init_params(DESK, seed=5)
    feats = backbone_forward(Tensor(np.zeros((3, 32, 32))), DESK, params)
    for f in feats.per_block:
        assert not f.data.any()
    assert not feats.reduced.data.any()


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    image = rng.random((3, 32, 32))
    outs = []
    for _ in range(2):
        feats = backbone_forward(Tensor(image), DESK, init_params(DESK, seed=9))
        outs.append([f.data.copy() for f in feats.per_block] + [feats.reduced.data])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


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
                         reduce_channels=8, in_channels=64)
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
        assert np.array_equal(loaded[name].data, params[name].data)
        assert loaded[name].requires_grad


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
