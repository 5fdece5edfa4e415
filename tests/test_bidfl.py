import numpy as np
from numpy.testing import assert_allclose

from lesionseg.autodiff import ConvParams, Tensor, concat_channels, conv2d
from lesionseg.bidfl import (
    BidflParams,
    DilatedBank,
    backward_pass,
    bidfl_params_from,
    dilated_bank,
    forward_pass,
    fuse_bidirectional,
    init_bidfl_params,
    per_level_maps,
)
from lesionseg.gradcheck import grad_check


def build(rates, in_ch=4, bank_ch=4, seed=0, fusion="concat_all"):
    params = init_bidfl_params(in_ch, bank_ch, tuple(rates), seed=seed, fusion=fusion)
    return params, bidfl_params_from(params, tuple(rates), fusion=fusion)


def selector_reducer(bank_ch, half):
    """1x1 kernel picking one half of a 2C-channel concat."""
    k = np.zeros((bank_ch, 2 * bank_ch, 1, 1))
    for c in range(bank_ch):
        k[c, half * bank_ch + c, 0, 0] = 1.0
    return ConvParams(Tensor(k), Tensor(np.zeros(bank_ch)))


def test_bank_shapes_desk_rates():
    _, p = build((1, 2, 4, 6, 8), in_ch=16, bank_ch=16)
    f0 = Tensor(np.random.default_rng(0).random((16, 16, 16)))
    bank = dilated_bank(f0, p)
    assert len(bank) == 5
    for m in bank.maps:
        assert m.shape == (16, 16, 16)


def test_bank_shapes_paper_rates():
    # the published rate schedule on a map the dilation barely fits
    _, p = build((3, 6, 12, 18, 24), in_ch=8, bank_ch=8)
    f0 = Tensor(np.random.default_rng(1).random((8, 32, 32)))
    bank = dilated_bank(f0, p)
    assert [m.shape for m in bank.maps] == [(8, 32, 32)] * 5


def test_bank_published_width():
    # 512 input channels -> five 512-channel maps at the published rates
    _, p = build((3, 6, 12, 18, 24), in_ch=512, bank_ch=512, seed=1)
    f0 = Tensor(np.random.default_rng(2).random((512, 8, 8)))
    bank = dilated_bank(f0, p)
    assert len(bank) == 5
    assert all(m.shape == (512, 8, 8) for m in bank.maps)


def test_zero_input_zero_bank():
    _, p = build((1, 2, 3))
    bank = dilated_bank(Tensor(np.zeros((4, 8, 8))), p)
    for m in bank.maps:
        assert not m.data.any()


def test_forward_pass_single_level_is_identity():
    _, p = build((3,))
    bank = dilated_bank(Tensor(np.random.default_rng(2).random((4, 6, 6))), p)
    out = forward_pass(bank, p)
    assert len(out) == 1
    assert out[0] is bank.maps[0]


def test_backward_pass_single_level_is_identity():
    _, p = build((3,))
    bank = dilated_bank(Tensor(np.random.default_rng(3).random((4, 6, 6))), p)
    out = backward_pass(bank, p)
    assert out[0] is bank.maps[0]


def test_selector_reducers_reproduce_bank():
    rng = np.random.default_rng(4)
    rates = (1, 2, 4)
    _, p = build(rates)
    maps = [Tensor(rng.standard_normal((4, 6, 6))) for _ in rates]
    bank = DilatedBank(rates=rates, maps=maps)
    pick_second = [selector_reducer(4, half=1) for _ in range(2)]
    params = BidflParams(bank_convs=p.bank_convs, forward_reducers=pick_second,
                         backward_reducers=pick_second,
                         level_reducers=p.level_reducers, fuse_reducer=None,
                         rates=rates)
    fwd = forward_pass(bank, params, apply_relu=False)
    bwd = backward_pass(bank, params, apply_relu=False)
    for got, want in zip(fwd, maps):
        assert_allclose(got.data, want.data, atol=1e-15)
    for got, want in zip(bwd, maps):
        assert_allclose(got.data, want.data, atol=1e-15)


def test_forward_pass_matches_hand_composition():
    rng = np.random.default_rng(5)
    rates = (1, 2, 3)
    _, p = build(rates, seed=8)
    maps = [Tensor(rng.standard_normal((4, 5, 5))) for _ in rates]
    bank = DilatedBank(rates=rates, maps=maps)
    got = forward_pass(bank, p, apply_relu=False)[-1]
    r1, r2 = p.forward_reducers
    want = conv2d(concat_channels([conv2d(concat_channels([maps[0], maps[1]]), r1),
                                   maps[2]]), r2)
    assert_allclose(got.data, want.data, atol=1e-15)


def test_zero_bank_zero_passes():
    _, p = build((1, 2))
    bank = DilatedBank(rates=(1, 2), maps=[Tensor(np.zeros((4, 5, 5)))] * 2)
    for out in (forward_pass(bank, p), backward_pass(bank, p)):
        for m in out:
            assert not m.data.any()


def test_mirror_equivalence():
    rng = np.random.default_rng(6)
    for j in (2, 3, 5):
        rates = tuple(range(1, j + 1))
        _, p = build(rates, seed=int(j))
        maps = [Tensor(rng.standard_normal((4, 5, 5))) for _ in rates]
        bank = DilatedBank(rates=rates, maps=maps)
        bwd = backward_pass(bank, p)

        mirrored = BidflParams(
            bank_convs=p.bank_convs,
            forward_reducers=list(reversed(p.backward_reducers)),
            backward_reducers=p.backward_reducers,
            level_reducers=p.level_reducers, fuse_reducer=None, rates=rates)
        rev_bank = DilatedBank(rates=rates, maps=list(reversed(maps)))
        via_fwd = list(reversed(forward_pass(rev_bank, mirrored)))
        for a, b in zip(bwd, via_fwd):
            assert np.array_equal(a.data, b.data)


def test_dependency_direction_bit_exact():
    rng = np.random.default_rng(7)
    for j in (1, 2, 3, 5):
        rates = tuple(range(1, j + 1))
        _, p = build(rates, seed=20 + j)
        maps = [rng.standard_normal((4, 5, 5)) for _ in rates]
        base_fwd = forward_pass(DilatedBank(rates, [Tensor(m) for m in maps]), p)
        base_bwd = backward_pass(DilatedBank(rates, [Tensor(m) for m in maps]), p)
        for m in range(j):
            bumped = [x.copy() for x in maps]
            bumped[m] += rng.standard_normal(bumped[m].shape)
            fwd = forward_pass(DilatedBank(rates, [Tensor(x) for x in bumped]), p)
            bwd = backward_pass(DilatedBank(rates, [Tensor(x) for x in bumped]), p)
            for idx in range(j):
                if idx < m:  # forward level idx only sees maps 0..idx
                    assert np.array_equal(fwd[idx].data, base_fwd[idx].data)
                if idx > m:  # backward level idx only sees maps idx..J-1
                    assert np.array_equal(bwd[idx].data, base_bwd[idx].data)


def test_fuse_average_reproduces_single_map():
    rng = np.random.default_rng(8)
    rates = (2,)
    _, p = build(rates)
    f1 = Tensor(rng.standard_normal((4, 5, 5)))
    avg = np.zeros((4, 8, 1, 1))
    for c in range(4):
        avg[c, c, 0, 0] = 0.5
        avg[c, 4 + c, 0, 0] = 0.5
    params = BidflParams(bank_convs=p.bank_convs, forward_reducers=[],
                         backward_reducers=[], level_reducers=p.level_reducers,
                         fuse_reducer=ConvParams(Tensor(avg), Tensor(np.zeros(4))),
                         rates=rates)
    out = fuse_bidirectional([f1], [f1], params, apply_relu=False)
    assert_allclose(out.data, f1.data, atol=1e-15)


def test_fuse_zero_inputs_zero_output():
    _, p = build((1, 2))
    zeros = [Tensor(np.zeros((4, 5, 5)))] * 2
    for strategy in ("concat_all", "sum"):
        pp = p if strategy == "concat_all" else build((1, 2), fusion="sum")[1]
        out = fuse_bidirectional(zeros, zeros, pp, strategy=strategy)
        assert not out.data.any()


def test_fuse_output_channels():
    rng = np.random.default_rng(9)
    for j in (1, 2, 3, 4, 5):
        rates = tuple(range(1, j + 1))
        _, p = build(rates, seed=j)
        bank = dilated_bank(Tensor(rng.random((4, 6, 6))), p)
        fwd, bwd = forward_pass(bank, p), backward_pass(bank, p)
        out = fuse_bidirectional(fwd, bwd, p)
        assert out.shape == (4, 6, 6)


def test_fuse_strategies_differ_but_share_shape():
    rng = np.random.default_rng(10)
    f0 = Tensor(rng.random((4, 6, 6)))
    for strategy in ("concat_all", "ends", "sum"):
        _, p = build((1, 2, 3), fusion=strategy, seed=2)
        bank = dilated_bank(f0, p)
        out = fuse_bidirectional(forward_pass(bank, p), backward_pass(bank, p), p,
                                 strategy=strategy)
        assert out.shape == (4, 6, 6)


def test_per_level_maps_shapes():
    rng = np.random.default_rng(11)
    _, p = build((1, 2, 3))
    bank = dilated_bank(Tensor(rng.random((4, 6, 6))), p)
    levels = per_level_maps(forward_pass(bank, p), backward_pass(bank, p), p)
    assert len(levels) == 3
    for m in levels:
        assert m.shape == (4, 6, 6)


def test_spatial_dims_preserved_end_to_end():
    rng = np.random.default_rng(12)
    _, p = build((1, 3, 5), in_ch=3, bank_ch=4)
    f0 = Tensor(rng.random((3, 12, 10)))
    bank = dilated_bank(f0, p)
    fwd, bwd = forward_pass(bank, p), backward_pass(bank, p)
    fused = fuse_bidirectional(fwd, bwd, p)
    assert fused.shape[-2:] == (12, 10)


def test_composite_gradient():
    rng = np.random.default_rng(13)
    _, p = build((1, 2), in_ch=2, bank_ch=2, seed=3)
    w = Tensor(rng.standard_normal((2, 4, 4)))

    def pipeline(t):
        bank = dilated_bank(t, p)
        fused = fuse_bidirectional(forward_pass(bank, p), backward_pass(bank, p), p)
        return (fused * w).sum()

    err = grad_check(pipeline, Tensor(rng.standard_normal((2, 4, 4))))
    assert err < 1e-4
