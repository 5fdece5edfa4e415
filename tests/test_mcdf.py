import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lesionseg.autodiff import (
    EvenWindowError,
    ShapeMismatchError,
    Tensor,
    gaussian_weighted_sum,
    local_variance,
    windowed_variance,
)
from lesionseg.backbone import (
    BackboneConfig,
    BlockFeatures,
    ConfigError,
    backbone_forward,
    block_factors,
    init_params,
)
from lesionseg.gradcheck import grad_check
from lesionseg.mcdf import (
    ScoreStack,
    bilinear_kernel,
    classify_upsample,
    fuse_scores,
    head_params_from,
    init_head_params,
    score_heads,
    sum_fuse,
)


def scalar_fusion_oracle(maps, windows, sigma_sq):
    """Per-pixel loop re-deriving mean, std, weight, and the weighted sum."""
    k_total = len(maps)
    c, h, w = maps[0].shape
    fused = np.zeros((c, h, w))
    for k in range(k_total):
        l = windows[k]
        r = (l - 1) // 2
        padded = np.pad(maps[k], ((0, 0), (r, r), (r, r)), mode="edge")
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    win = padded[ci, i:i + l, j:j + l]
                    mean = win.mean()
                    var = ((win - mean) ** 2).mean()
                    alpha = np.exp(-var / sigma_sq)
                    fused[ci, i, j] += alpha * maps[k][ci, i, j]
    return fused


class TestLocalStd:
    """The paper's local standard deviation, which windowed_variance yields
    squared: the form the consistency weight uses."""

    def test_constant_map_zero(self):
        out = windowed_variance(Tensor(np.full((2, 6, 6), 4.2)), 3)
        assert not out.data.any()

    def test_window1_zero(self):
        rng = np.random.default_rng(0)
        out = windowed_variance(Tensor(rng.standard_normal((1, 5, 5))), 1)
        assert not out.data.any()

    def test_hand_derived_center_value(self):
        grid = np.array([[[0.0, 2.0, 0.0], [2.0, 0.0, 2.0], [0.0, 2.0, 0.0]]])
        out = windowed_variance(Tensor(grid), 3)
        vals = grid[0].ravel()
        want = ((vals - vals.mean()) ** 2).mean()
        assert out.data[0, 1, 1] == pytest.approx(want, rel=1e-12)

    def test_matches_deviation_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 8)) * 3
        for l in (3, 5):
            r = (l - 1) // 2
            xp = np.pad(x, ((0, 0), (r, r), (r, r)), mode="edge")
            want = np.zeros_like(x)
            for c in range(2):
                for i in range(8):
                    for j in range(8):
                        win = xp[c, i:i + l, j:j + l]
                        want[c, i, j] = ((win - win.mean()) ** 2).mean()
            assert_allclose(windowed_variance(Tensor(x), l).data, want, atol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        out = windowed_variance(Tensor(rng.standard_normal((3, 7, 7))), 5)
        assert (out.data >= 0).all()

    def test_even_window_rejected(self):
        with pytest.raises(EvenWindowError):
            windowed_variance(Tensor(np.zeros((1, 4, 4))), 2)


def edge_windows(x, l):
    """Every edge-replicated l x l window of x, one per output pixel."""
    r = (l - 1) // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(r, r), (r, r)], mode="edge")
    h, w = x.shape[-2:]
    return [((i, j), xp[..., i:i + l, j:j + l]) for i in range(h) for j in range(w)]


def variance_loop(x, l):
    """Two-pass population variance of every window, pixel by pixel."""
    out = np.zeros_like(x)
    for (i, j), win in edge_windows(x, l):
        out[..., i, j] = win.var(axis=(-2, -1))
    return out


def variance_grad_loop(x, l, g):
    """d/dx sum(g * var): window (i, j) sends 2 g (x_q - mean) / l^2 to each of
    its cells q, and edge replication folds padded cells onto the border."""
    r = (l - 1) // 2
    h, w = x.shape[-2:]
    gp = np.zeros(x.shape[:-2] + (h + 2 * r, w + 2 * r))
    for (i, j), win in edge_windows(x, l):
        mean = win.mean(axis=(-2, -1), keepdims=True)
        gp[..., i:i + l, j:j + l] += 2 * g[..., i, j, None, None] * (win - mean) / l**2
    rows = np.clip(np.arange(h + 2 * r) - r, 0, h - 1)
    cols = np.clip(np.arange(w + 2 * r) - r, 0, w - 1)
    out = np.zeros_like(x)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            out[..., i, j] += gp[..., a, b]
    return out


odd_windows = st.integers(1, 8).map(lambda k: 2 * k + 1)       # 3 .. 17
leads = st.sampled_from([(1,), (2,), (2, 2), (1, 2, 2)])         # 3-d .. 5-d inputs
extents = st.tuples(st.integers(1, 20), st.integers(1, 20))
scales = st.floats(-6, 6).map(lambda e: 10.0 ** e)
seeds = st.integers(0, 2**32 - 1)


class TestWindowedVarianceProperties:
    """Properties of the integral-image variance over random geometry."""

    @settings(max_examples=60, deadline=None)
    @given(odd_windows, leads, extents, scales, seeds)
    def test_matches_window_loop(self, l, lead, hw, scale, seed):
        x = np.random.default_rng(seed).standard_normal(lead + hw) * scale
        out = windowed_variance(Tensor(x), l).data
        assert (out >= 0).all()
        assert_allclose(out, variance_loop(x, l), rtol=1e-7, atol=1e-9 * scale**2)

    @settings(max_examples=40, deadline=None)
    @given(odd_windows, leads, extents, seeds)
    def test_gradient_matches_window_loop(self, l, lead, hw, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(lead + hw), requires_grad=True)
        g = rng.standard_normal(lead + hw)
        (windowed_variance(x, l) * Tensor(g)).sum().backward()
        assert_allclose(x.grad, variance_grad_loop(x.data, l, g), rtol=1e-7, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(odd_windows, leads, extents, st.integers(1, 12), scales, seeds)
    def test_exactly_zero_on_constant_windows(self, l, lead, hw, block, scale, seed):
        """Blocks of one to three levels: every window inside one block is
        constant and must give exactly 0 with an exactly-0 gradient."""
        rng = np.random.default_rng(seed)
        levels = rng.integers(1, 4, lead + tuple(-(-n // block) for n in hw))
        x = scale * np.kron(levels, np.ones((block, block)))[..., :hw[0], :hw[1]]
        t = Tensor(x, requires_grad=True)
        var = windowed_variance(t, l)
        var.sum().backward()
        assert (var.data >= 0).all()
        for (i, j), win in edge_windows(x, l):
            flat = win.reshape(*lead, -1)
            constant = (flat == flat[..., :1]).all(axis=-1)
            assert not var.data[..., i, j][constant].any()
        if np.all(x == x.reshape(*lead, -1)[..., :1, None]):
            assert not t.grad.any()

    @settings(max_examples=60, deadline=None)
    @given(odd_windows, leads, extents, scales, seeds)
    def test_scales_quadratically(self, l, lead, hw, c, seed):
        x = np.random.default_rng(seed).standard_normal(lead + hw)
        assert_allclose(windowed_variance(Tensor(c * x), l).data,
                        c * c * windowed_variance(Tensor(x), l).data,
                        rtol=1e-7, atol=1e-9 * c * c)


def fusion_weight(score, sigma_sq, window=3):
    """The weight fuse_scores gives a single score map, as fused / score."""
    fused = fuse_scores(ScoreStack([Tensor(score)], (window,), sigma_sq)).data
    return fused / score


class TestConsistencyCoeff:
    """The weight exp(-var / sigma_sq) as fuse_scores applies it."""

    def test_zero_std_gives_one(self):
        score = np.full((2, 2, 4, 4), -1.5)
        assert np.array_equal(fusion_weight(score, 10.0), np.ones_like(score))

    def test_paper_operating_point(self):
        # four corners at +a and five cells at 0: variance 20 a^2 / 81 = 10
        a = np.sqrt(40.5)
        grid = np.array([[[a, 0.0, a], [0.0, 0.0, 0.0], [a, 0.0, a]]]) + 1.0
        alpha = fusion_weight(grid, 10.0)[0, 1, 1]
        assert alpha == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert alpha == pytest.approx(0.367879, abs=1e-6)

    def test_monotone_decay_to_zero(self):
        rng = np.random.default_rng(12)
        score = rng.standard_normal((1, 5, 5)) + 4.0
        alphas = np.array([fusion_weight(score * c, 10.0)[0, 2, 2]
                           for c in np.linspace(1.0, 40.0, 50)])
        assert (np.diff(alphas) < 0).all()
        assert alphas[-1] < 1e-30
        assert (alphas > 0).all() and (alphas <= 1).all()


class TestFuseScores:
    def test_single_constant_map_passes_through(self):
        m = Tensor(np.full((2, 6, 6), 1.25))
        out = fuse_scores(ScoreStack([m], (3,), 10.0))
        assert np.array_equal(out.data, m.data)

    def test_huge_sigma_reduces_to_sum(self):
        rng = np.random.default_rng(3)
        maps = [Tensor(rng.standard_normal((2, 8, 8))) for _ in range(3)]
        fused = fuse_scores(ScoreStack(maps, (3, 5, 3), 1e12)).data
        plain = sum_fuse(ScoreStack(maps, (3, 5, 3), 1e12)).data
        assert_allclose(fused, plain, rtol=1e-6, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(4):
            k = int(rng.integers(1, 5))
            maps = [rng.standard_normal((2, 8, 8)) * 2 for _ in range(k)]
            windows = tuple(int(w) for w in rng.choice([1, 3, 5], size=k))
            stack = ScoreStack([Tensor(m) for m in maps], windows, 10.0)
            want = scalar_fusion_oracle(maps, windows, 10.0)
            assert_allclose(fuse_scores(stack).data, want, atol=1e-9)

    def test_alpha_one_exactly_on_constant_windows(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((1, 16, 16))
        base[0, 4:13, 4:13] = 0.75  # 9x9 constant patch
        stack = ScoreStack([Tensor(base)], (3,), 10.0)
        fused = fuse_scores(stack).data
        assert np.array_equal(fused[0, 5:12, 5:12], base[0, 5:12, 5:12])

    def test_alpha_in_unit_interval(self):
        rng = np.random.default_rng(6)
        score = Tensor(rng.standard_normal((2, 10, 10)) * 4)
        alpha = np.exp(-windowed_variance(score, 5).data / 10.0)
        assert (alpha > 0).all() and (alpha <= 1).all()

    def test_gradient_through_weights(self):
        rng = np.random.default_rng(7)
        other = Tensor(rng.standard_normal((2, 6, 6)))
        w = Tensor(rng.standard_normal((2, 6, 6)))

        def fusion(t):
            stack = ScoreStack([t, other], (3, 5), 10.0)
            return (fuse_scores(stack) * w).sum()

        err = grad_check(fusion, Tensor(rng.standard_normal((2, 6, 6))))
        assert err < 1e-4

    def test_stop_grad_alpha_changes_gradient(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((1, 6, 6))
        grads = []
        for flag in (False, True):
            t = Tensor(data, requires_grad=True)
            fuse_scores(ScoreStack([t], (3,), 10.0), stop_grad_alpha=flag).sum().backward()
            grads.append(t.grad.copy())
        assert not np.allclose(grads[0], grads[1])

    def test_stop_grad_alpha_same_forward(self):
        rng = np.random.default_rng(9)
        t = Tensor(rng.standard_normal((1, 6, 6)))
        a = fuse_scores(ScoreStack([t], (3,), 10.0), stop_grad_alpha=False).data
        b = fuse_scores(ScoreStack([t], (3,), 10.0), stop_grad_alpha=True).data
        assert np.array_equal(a, b)



def gaussian_fusion_reference(variances, maps, g, sigma_sq):
    """The fusion as separate numpy ops in the order the engine once recorded
    them, negate, divide, exp, multiply and a left-fold add, with each op's
    gradient rule: returns the value, the maps' gradients and the
    variances' gradients."""
    alphas = [np.exp(np.negative(v) / sigma_sq) for v in variances]
    fused = alphas[0] * maps[0]
    for alpha, score in zip(alphas[1:], maps[1:]):
        fused = fused + alpha * score
    map_grads = [g * alpha for alpha in alphas]
    var_grads = [np.negative(((g * score) * alpha) / sigma_sq)
                 for alpha, score in zip(alphas, maps)]
    return fused, map_grads, var_grads


def signed_zero_maps(rng, count, shape):
    """Normals at a few scales, each map with a constant block (a zero
    variance, so a weight of exactly 1) and about a fifth of its entries
    +0.0 and a fifth -0.0."""
    maps = []
    for _ in range(count):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-2, 3)
        x[..., :2, :2] = x[..., :1, :1]
        pick = rng.random(shape)
        x[pick < 0.2] = 0.0
        x[pick > 0.8] = -0.0
        maps.append(x)
    return maps


fusion_cases = dict(count=st.integers(1, 10), lead=st.sampled_from([(1,), (2,), (2, 2)]),
                    hw=st.tuples(st.integers(3, 8), st.integers(3, 8)),
                    sigma_sq=st.sampled_from([1.0, 0.3, 10.0, 7.5e-3]),
                    stop_grad=st.booleans(), seed=seeds)


class TestFusionBytes:
    """fuse_scores and its engine op against the numpy reference, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(**fusion_cases)
    @example(count=10, lead=(2,), hw=(8, 8), sigma_sq=1.0, stop_grad=False, seed=0)
    def test_fuse_scores_matches_reference(self, count, lead, hw, sigma_sq, stop_grad,
                                           seed):
        rng = np.random.default_rng(seed)
        data = signed_zero_maps(rng, count, lead + hw)
        windows = tuple(int(w) for w in rng.choice(range(1, min(hw) + 1, 2), count))
        g = signed_zero_maps(rng, 1, lead + hw)[0]
        maps = [Tensor(m, requires_grad=True) for m in data]
        out = fuse_scores(ScoreStack(maps, windows, sigma_sq), stop_grad)
        (out * Tensor(g)).sum().backward()

        variances = [windowed_variance(Tensor(m), l).data for m, l in zip(data, windows)]
        want, map_grads, var_grads = gaussian_fusion_reference(variances, data, g, sigma_sq)
        assert out.data.tobytes() == want.tobytes()
        for k, (m, l) in enumerate(zip(data, windows)):
            want_grad = map_grads[k]
            if not stop_grad and l > 1:
                # windowed_variance's own rule, handed variance k's gradient
                probe = Tensor(m, requires_grad=True)
                (windowed_variance(probe, l) * Tensor(var_grads[k])).sum().backward()
                want_grad = want_grad + probe.grad
            assert maps[k].grad.tobytes() == want_grad.tobytes(), f"map {k}"

    @settings(max_examples=100, deadline=None)
    @given(**fusion_cases, interior=st.booleans())
    def test_op_matches_reference(self, count, lead, hw, sigma_sq, stop_grad, seed,
                                  interior):
        """Variances with recording adjoints: adjoint k is handed exactly the
        reference's variance-k gradient, or nothing under stop_grad, and what
        it returns is added to map k's gradient. Interior maps take the rules
        that the walk's worker shares."""
        rng = np.random.default_rng(seed)
        shape = lead + hw
        data = signed_zero_maps(rng, count, shape)
        var_data = [np.abs(v) for v in signed_zero_maps(rng, count, shape)]
        g = signed_zero_maps(rng, 1, shape)[0]
        returned = signed_zero_maps(rng, count, shape)
        handed = {}

        def adjoint(k):
            def vjp(gv):
                handed[k] = gv
                return returned[k]
            return vjp

        leaves = [Tensor(m, requires_grad=True) for m in data]
        # times 1.0 is exact both ways, so interior maps keep the bytes
        maps = [leaf * 1.0 for leaf in leaves] if interior else leaves
        variances = [(v, adjoint(k)) for k, v in enumerate(var_data)]
        out = gaussian_weighted_sum(maps, variances, sigma_sq, stop_grad)
        (out * Tensor(g)).sum().backward()
        want, map_grads, var_grads = gaussian_fusion_reference(var_data, data, g, sigma_sq)
        assert out.data.tobytes() == want.tobytes()
        if stop_grad:
            assert handed == {}
        else:
            assert [handed[k].tobytes() for k in range(count)] == \
                [w.tobytes() for w in var_grads]
            map_grads = [w + r for w, r in zip(map_grads, returned)]
        assert [m.grad.tobytes() for m in leaves] == [w.tobytes() for w in map_grads]

    def test_op_rejects_a_variance_count_that_differs_from_the_map_count(self):
        maps = [Tensor(np.zeros((2, 4, 4))), Tensor(np.ones((2, 4, 4)))]
        with pytest.raises(ShapeMismatchError, match="2 maps but 1 variances$"):
            gaussian_weighted_sum(maps, [local_variance(maps[0].data, 3)], 10.0)


class TestSumFuse:
    def test_single_map_identity(self):
        m = Tensor(np.random.default_rng(10).standard_normal((2, 4, 4)))
        assert np.array_equal(sum_fuse(ScoreStack([m], (3,), 10.0)).data, m.data)

    def test_opposite_maps_cancel(self):
        m = np.random.default_rng(11).standard_normal((2, 4, 4))
        stack = ScoreStack([Tensor(m), Tensor(-m)], (3, 3), 10.0)
        assert_allclose(sum_fuse(stack).data, 0.0, atol=1e-15)


class TestScoreStackValidation:
    def test_oversized_window_rejected(self):
        with pytest.raises(ConfigError):
            ScoreStack([Tensor(np.zeros((2, 8, 8)))], (9,), 10.0)

    @pytest.mark.parametrize("windows", [(3,), (3, 3, 3)], ids=["fewer", "more"])
    def test_window_count_must_match_map_count(self, windows):
        maps = [Tensor(np.zeros((2, 8, 8))), Tensor(np.ones((2, 8, 8)))]
        with pytest.raises(ConfigError, match=f"^score stack has 2 maps but "
                                              f"{len(windows)} windows;"):
            ScoreStack(maps, windows, 10.0)


DESK = BackboneConfig(channels=(4, 6, 8, 8, 8), strides=(1, 2, 2, 1, 1),
                      reduce_channels=4)


class TestScoreHeads:
    def test_block_heads_full_resolution(self):
        rng = np.random.default_rng(12)
        bb = init_params(DESK, seed=0)
        feats = backbone_forward(Tensor(rng.random((3, 32, 32))), DESK, bb)
        factors = block_factors(DESK)
        hp = init_head_params([4, 6, 8, 8, 8], factors, seed=1)
        heads = head_params_from(hp, factors)
        stack = score_heads(feats, None, [], heads, (3, 3, 3, 5, 7), 10.0)
        assert len(stack.maps) == 5
        for m in stack.maps:
            assert m.shape == (2, 32, 32)

    def test_k4_heads_from_generic_sources(self):
        rng = np.random.default_rng(13)
        chans = [3, 5, 4, 6]
        factors = [1, 2, 4, 4]
        hp = head_params_from(init_head_params(chans, factors, seed=3), factors)
        maps = []
        for c, f in zip(chans, factors):
            src = Tensor(rng.random((c, 64 // f, 64 // f)))
            maps.append(classify_upsample(src, hp[len(maps)]))
        stack = ScoreStack(maps, (3, 5, 7, 9), 10.0)
        assert len(stack.maps) == 4
        for m in stack.maps:
            assert m.shape == (2, 64, 64)

    def test_zero_features_zero_scores(self):
        bb = init_params(DESK, seed=4)
        feats = backbone_forward(Tensor(np.zeros((3, 32, 32))), DESK, bb)
        factors = block_factors(DESK)
        hp = init_head_params([4, 6, 8, 8, 8], factors, seed=5)
        stack = score_heads(feats, None, [], head_params_from(hp, factors),
                            (3, 3, 3, 5, 7), 10.0)
        for m in stack.maps:
            assert not m.data.any()

    def test_fused_replaces_block5_source(self):
        rng = np.random.default_rng(14)
        bb = init_params(DESK, seed=6)
        feats = backbone_forward(Tensor(rng.random((3, 32, 32))), DESK, bb)
        factors = block_factors(DESK)
        hp = head_params_from(init_head_params([4, 6, 8, 8, 8], factors, seed=7),
                              factors)
        base = score_heads(feats, None, [], hp, (3, 3, 3, 5, 7), 10.0)
        fused = Tensor(rng.random(feats.per_block[4].shape))
        swapped = score_heads(feats, fused, [], hp, (3, 3, 3, 5, 7), 10.0)
        for k in range(4):
            assert np.array_equal(base.maps[k].data, swapped.maps[k].data)
        assert not np.array_equal(base.maps[4].data, swapped.maps[4].data)

    def test_paper_window_schedule_shape(self):
        # ten heads: blocks 1-3 at window 3, then 5,7 and the five levels 9..17
        windows = (3, 3, 3, 5, 7, 9, 11, 13, 15, 17)
        assert len(windows) == 10
        assert windows[3:] == tuple(range(5, 18, 2))


class TestBilinearKernel:
    def test_factor2_classic_weights(self):
        k = bilinear_kernel(1, 2)
        profile = np.array([0.25, 0.75, 0.75, 0.25])
        assert_allclose(k[0, 0], np.outer(profile, profile))

    def test_upsample_constant_preserved(self):
        # a constant map upsampled bilinearly stays constant away from edges
        from lesionseg.autodiff import ConvParams, conv_transpose2d
        k = Tensor(bilinear_kernel(2, 4))
        p = ConvParams(k, Tensor(np.zeros(2)), stride=4, padding=2)
        out = conv_transpose2d(Tensor(np.full((2, 8, 8), 3.0)), p)
        assert out.shape == (2, 32, 32)
        assert_allclose(out.data[:, 8:24, 8:24], 3.0, rtol=1e-12)
