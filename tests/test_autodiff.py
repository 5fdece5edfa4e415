import numpy as np
import pytest
from numpy.testing import assert_allclose

from lesionseg.autodiff import (
    ConvParams,
    DegenerateOutputError,
    NonScalarRootError,
    ShapeMismatchError,
    Tensor,
    concat_channels,
    conv2d,
    conv_transpose2d,
    grad_check,
    max_pool2d,
    relu,
    softmax_channels,
)


def naive_conv2d(x, kernel, bias, stride, pad, dil):
    """Reference correlation: plain loops, no vectorization."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - dil * (kh - 1) - 1) // stride + 1
    ow = (w + 2 * pad - dil * (kw - 1) - 1) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += xp[c, i * stride + ky * dil,
                                      j * stride + kx * dil] * kernel[o, c, ky, kx]
                out[o, i, j] = acc + bias[o]
    return out


def make_params(kernel, bias=None, **kw):
    kernel = np.asarray(kernel, dtype=float)
    if bias is None:
        bias = np.zeros(kernel.shape[0])
    return ConvParams(Tensor(kernel), Tensor(np.asarray(bias, dtype=float)), **kw)


class TestTensor:
    def test_scalar_roundtrip(self):
        t = Tensor(3.5)
        assert t.item() == 3.5
        assert t.shape == ()

    def test_rejects_zero_sized_dims(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros((2, 0, 3)))

    def test_data_is_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_arithmetic_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
        assert_allclose((a + b).data, [4.0, 7.0])
        assert_allclose((a - b).data, [-2.0, -3.0])
        assert_allclose((a * b).data, [3.0, 10.0])
        assert_allclose((a / b).data, [1 / 3, 0.4])
        assert_allclose((2.0 * a - 1.0).data, [1.0, 3.0])

    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_relu_chain_gradient(self):
        for v, want in [(1.0, 2.0), (-1.0, 0.0)]:
            x = Tensor(v, requires_grad=True)
            relu(2.0 * x).backward()
            got = 0.0 if x.grad is None else float(x.grad)
            assert got == pytest.approx(want)

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NonScalarRootError):
            (x * x).backward()

    def test_disconnected_parameter_keeps_no_grad(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        (x * x).backward()
        assert y.grad is None  # caller treats missing grad as zero

    def test_gradients_map_zeros_disconnected(self):
        from lesionseg.autodiff import gradients
        x = Tensor([2.0, 1.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        grads = gradients((x * x).sum(), {"x": x, "y": y})
        assert_allclose(grads["x"], [4.0, 2.0])
        assert np.array_equal(grads["y"], [0.0])

    def test_backward_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        grads = []
        for _ in range(2):
            x = Tensor(data, requires_grad=True)
            p = make_params(k, padding=1)
            (conv2d(relu(x), p) * conv2d(x, p)).sum().backward()
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestConv2d:
    def test_scalar_scaling(self):
        out = conv2d(Tensor([[[5.0]]]), make_params([[[[2.0]]]]))
        assert_allclose(out.data, [[[10.0]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), make_params(k, padding=1))
        assert_allclose(out.data, x, atol=1e-15)

    def test_dilated_taps(self):
        x = np.arange(25, dtype=float).reshape(1, 5, 5)
        k = np.ones((1, 1, 3, 3))
        out = conv2d(Tensor(x), make_params(k, dilation=2))
        taps = x[0][np.ix_([0, 2, 4], [0, 2, 4])].sum()
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == taps

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            c, o = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            h = int(rng.integers(5, 9))
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            d = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            if (h + 2 * p - d * (k - 1) - 1) // s + 1 < 1:
                continue
            x = rng.standard_normal((c, h, h))
            kern = rng.standard_normal((o, c, k, k))
            bias = rng.standard_normal(o)
            got = conv2d(Tensor(x), make_params(kern, bias, stride=s,
                                                padding=p, dilation=d)).data
            assert_allclose(got, naive_conv2d(x, kern, bias, s, p, d), atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 6, 6)), rng.standard_normal((2, 6, 6))
        p = make_params(rng.standard_normal((3, 2, 3, 3)), padding=1)
        lhs = conv2d(Tensor(2.5 * x - 1.5 * y), p).data
        rhs = 2.5 * conv2d(Tensor(x), p).data - 1.5 * conv2d(Tensor(y), p).data
        assert_allclose(lhs, rhs, atol=1e-9)

    def test_shift_equivariance_interior(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 10, 10))
        p = make_params(rng.standard_normal((1, 1, 3, 3)), padding=1)
        base = conv2d(Tensor(x), p).data
        shifted = conv2d(Tensor(np.roll(x, (2, 1), axis=(1, 2))), p).data
        # compare away from the wrapped/padded border
        assert_allclose(shifted[:, 3:-3, 3:-3],
                        np.roll(base, (2, 1), axis=(1, 2))[:, 3:-3, 3:-3],
                        atol=1e-12)

    def test_channel_mismatch_error(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            conv2d(Tensor(np.zeros((3, 4, 4))),
                   make_params(np.zeros((1, 2, 3, 3))))

    def test_degenerate_output_error(self):
        with pytest.raises(DegenerateOutputError):
            conv2d(Tensor(np.zeros((1, 4, 4))),
                   make_params(np.zeros((1, 1, 3, 3)), dilation=2))


class TestConvTranspose2d:
    def test_unit_impulse_reproduces_kernel(self):
        k = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        out = conv_transpose2d(Tensor([[[1.0]]]), make_params(k, [0.0], stride=2))
        assert_allclose(out.data, k[0])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 4))
        k = rng.standard_normal((2, 1, 3, 3))
        y = rng.standard_normal((2, 2, 2))
        lhs = (conv2d(Tensor(x), make_params(k)).data * y).sum()
        rhs = (x * conv_transpose2d(Tensor(y), make_params(k, [0.0])).data).sum()
        assert abs(lhs - rhs) < 1e-9

    def test_adjoint_identity_strided_dilated(self):
        rng = np.random.default_rng(4)
        for s, p, d, h in [(2, 1, 1, 7), (1, 0, 2, 8), (2, 0, 1, 7), (3, 1, 1, 8)]:
            k = int(3)
            span = h + 2 * p - d * (k - 1) - 1
            if span % s:
                continue
            oh = span // s + 1
            x = rng.standard_normal((2, h, h))
            kern = rng.standard_normal((3, 2, k, k))
            y = rng.standard_normal((3, oh, oh))
            lhs = (conv2d(Tensor(x), make_params(kern, stride=s, padding=p,
                                                 dilation=d)).data * y).sum()
            xt = conv_transpose2d(Tensor(y), make_params(kern, np.zeros(2), stride=s,
                                                         padding=p, dilation=d)).data
            assert xt.shape == x.shape
            assert abs(lhs - (x * xt).sum()) < 1e-9

    def test_linearity_in_input(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((2, 3, 3))
        p = make_params(rng.standard_normal((2, 1, 4, 4)), [0.0], stride=2, padding=1)
        assert_allclose(conv_transpose2d(Tensor(3.0 * y), p).data,
                        3.0 * conv_transpose2d(Tensor(y), p).data, atol=1e-12)

    def test_channel_mismatch_error(self):
        with pytest.raises(ShapeMismatchError):
            conv_transpose2d(Tensor(np.zeros((3, 4, 4))),
                             make_params(np.zeros((2, 1, 2, 2)), [0.0], stride=2))


class TestConcat:
    def test_channel_additivity(self):
        a = Tensor(np.zeros((4, 5, 5)))
        b = Tensor(np.zeros((8, 5, 5)))
        assert concat_channels([a, b]).shape == (12, 5, 5)

    def test_single_part_identity(self):
        a = Tensor(np.ones((2, 3, 3)))
        assert concat_channels([a]) is a

    def test_roundtrip_slices(self):
        rng = np.random.default_rng(6)
        parts = [rng.standard_normal((c, 4, 4)) for c in (1, 3, 2)]
        out = concat_channels([Tensor(p) for p in parts]).data
        start = 0
        for p in parts:
            c = p.shape[0]
            assert np.array_equal(out[start:start + c], p)
            start += c

    def test_spatial_mismatch_error(self):
        with pytest.raises(ShapeMismatchError):
            concat_channels([Tensor(np.zeros((1, 4, 4))),
                             Tensor(np.zeros((1, 5, 4)))])


class TestPointwiseOps:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_idempotent(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4, 4))
        once = relu(Tensor(x)).data
        twice = relu(relu(Tensor(x))).data
        assert np.array_equal(once, twice)
        nonneg = np.abs(x)
        assert np.array_equal(relu(Tensor(nonneg)).data, nonneg)

    def test_max_pool_values(self):
        out = max_pool2d(Tensor([[[1.0, 2.0], [3.0, 4.0]]]), 2, 2)
        assert_allclose(out.data, [[[4.0]]])
        const = max_pool2d(Tensor(np.full((1, 4, 4), 2.5)), 2, 2)
        assert_allclose(const.data, np.full((1, 2, 2), 2.5))

    def test_max_pool_window1_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 3))
        assert np.array_equal(max_pool2d(Tensor(x), 1, 1).data, x)

    def test_max_pool_degenerate_error(self):
        with pytest.raises(DegenerateOutputError):
            max_pool2d(Tensor(np.zeros((1, 2, 2))), 3, 1)

    def test_softmax_symmetry(self):
        out = softmax_channels(Tensor(np.zeros((2, 3, 3))))
        assert_allclose(out.data, np.full((2, 3, 3), 0.5))

    def test_softmax_hand_values(self):
        logits = np.stack([np.zeros((2, 2)), np.full((2, 2), np.log(3.0))])
        out = softmax_channels(Tensor(logits))
        assert_allclose(out.data[0], 0.25, atol=1e-12)
        assert_allclose(out.data[1], 0.75, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 4))
        a = softmax_channels(Tensor(x)).data
        b = softmax_channels(Tensor(x + 7.25)).data
        assert_allclose(a, b, atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(11)
        out = softmax_channels(Tensor(rng.standard_normal((4, 5, 6)) * 50)).data
        assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
        moderate = softmax_channels(Tensor(rng.standard_normal((4, 5, 6)) * 5)).data
        assert (moderate > 0).all() and (moderate < 1).all()


class TestGradChecks:
    """Every differentiable primitive against central differences."""

    rng = np.random.default_rng(99)

    def test_linear_map_is_exact(self):
        w = Tensor(self.rng.standard_normal((3, 4)))
        err = grad_check(lambda t: (t * w).sum(), Tensor(self.rng.standard_normal((3, 4))))
        assert err < 1e-10

    def test_conv2d_wrt_input(self):
        w = Tensor(self.rng.standard_normal((3, 6, 6)))
        p = make_params(self.rng.standard_normal((3, 2, 3, 3)),
                        self.rng.standard_normal(3), padding=1)
        err = grad_check(lambda t: (conv2d(t, p) * w).sum(),
                         Tensor(self.rng.standard_normal((2, 6, 6))))
        assert err < 1e-4

    def test_conv2d_wrt_kernel_and_bias(self):
        x = Tensor(self.rng.standard_normal((2, 6, 6)))
        w = Tensor(self.rng.standard_normal((3, 3, 3)))
        k0 = self.rng.standard_normal((3, 2, 3, 3))
        b0 = self.rng.standard_normal(3)

        def by_kernel(k):
            return (conv2d(x, ConvParams(k, Tensor(b0), stride=2, padding=1)) * w).sum()

        def by_bias(b):
            return (conv2d(x, ConvParams(Tensor(k0), b, stride=2, padding=1)) * w).sum()

        assert grad_check(by_kernel, Tensor(k0)) < 1e-4
        assert grad_check(by_bias, Tensor(b0)) < 1e-4

    def test_conv_transpose_wrt_input_and_kernel(self):
        y0 = self.rng.standard_normal((3, 3, 3))
        k0 = self.rng.standard_normal((3, 2, 4, 4))
        w = Tensor(self.rng.standard_normal((2, 6, 6)))

        def by_input(t):
            return (conv_transpose2d(t, make_params(k0, np.zeros(2), stride=2,
                                                    padding=1)) * w).sum()

        def by_kernel(k):
            return (conv_transpose2d(Tensor(y0),
                                     ConvParams(k, Tensor(np.zeros(2)), stride=2,
                                                padding=1)) * w).sum()

        assert grad_check(by_input, Tensor(y0)) < 1e-4
        assert grad_check(by_kernel, Tensor(k0)) < 1e-4

    def test_concat_and_slice_paths(self):
        other = Tensor(self.rng.standard_normal((2, 4, 4)))
        w = Tensor(self.rng.standard_normal((4, 4, 4)))
        err = grad_check(lambda t: (concat_channels([t, other]) * w).sum(),
                         Tensor(self.rng.standard_normal((2, 4, 4))))
        assert err < 1e-8

    def test_relu_and_pool(self):
        w = Tensor(self.rng.standard_normal((2, 3, 3)))
        err = grad_check(lambda t: (max_pool2d(relu(t), 2, 2) * w).sum(),
                         Tensor(self.rng.standard_normal((2, 6, 6))))
        assert err < 1e-4

    def test_softmax_cross_entropy_composite(self):
        onehot = np.zeros((2, 3, 3))
        onehot[0, ::2, ::2] = 1.0
        onehot[1] = 1.0 - onehot[0]
        target = Tensor(onehot)

        def ce(t):
            from lesionseg.autodiff import clip_min, log
            probs = softmax_channels(t)
            return -(target * log(clip_min(probs, 1e-12))).sum()

        err = grad_check(ce, Tensor(self.rng.standard_normal((2, 3, 3))))
        assert err < 1e-6
