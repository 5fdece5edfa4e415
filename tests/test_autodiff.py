import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import copy_context

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from lesionseg import autodiff
from lesionseg.autodiff import (
    ConvParams,
    DegenerateOutputError,
    NonScalarRootError,
    ShapeMismatchError,
    SpentGraphError,
    Tensor,
    clip_min,
    concat_channels,
    _node,
    conv2d,
    conv_transpose2d,
    gaussian_weighted_sum,
    gradients,
    log,
    max_pool2d,
    pad2d,
    softmax_channels,
    windowed_variance,
    _as_4d,
    _conv_node,
    _conv_out_dim,
    _conv_windows,
    _convt_scatter,
    _im2col_channel_major,
    _kernel_grad,
    _local_variance,
)
from lesionseg.gradcheck import TINY_MODEL, grad_check
from lesionseg.model import build_params, model_forward
from lesionseg.training import one_hot_masks, weighted_ce_loss


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


def tap_loop_conv2d(x, kernel, bias, stride, pad, dil, g):
    """Batched reference: the value and the input, kernel and bias gradients
    of conv2d against output gradient g, one kernel tap at a time."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    oh, ow = g.shape[-2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, c_out, oh, ow))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for ky in range(kh):
        for kx in range(kw):
            rows = slice(ky * dil, ky * dil + stride * (oh - 1) + 1, stride)
            cols = slice(kx * dil, kx * dil + stride * (ow - 1) + 1, stride)
            tap = kernel[:, :, ky, kx]
            out += np.einsum("nchw,oc->nohw", xp[:, :, rows, cols], tap)
            gxp[:, :, rows, cols] += np.einsum("nohw,oc->nchw", g, tap)
            gk[:, :, ky, kx] = np.einsum("nohw,nchw->oc", g, xp[:, :, rows, cols])
    out += bias[None, :, None, None]
    return out, gxp[:, :, pad:pad + h, pad:pad + w], gk, g.sum(axis=(0, 2, 3))


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

    def test_float32_data_stays_float32(self):
        data = np.ones((2, 3), np.float32)
        assert Tensor(data).data is data
        for other in (np.ones(2, np.float16), np.ones(2, np.int32), [True, False]):
            assert Tensor(other).data.dtype == np.float64

    def test_arithmetic_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
        assert_allclose((a + b).data, [4.0, 7.0])
        assert_allclose((a - b).data, [-2.0, -3.0])
        assert_allclose((a * b).data, [3.0, 10.0])
        assert_allclose((a / b).data, [1 / 3, 0.4])
        assert_allclose((a * 2.0 - 1.0).data, [1.0, 3.0])

    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_clip_min_chain_gradient(self):
        for v, want in [(1.0, 2.0), (-1.0, 0.0)]:
            x = Tensor(v, requires_grad=True)
            clip_min(x * 2.0, 0.0).backward()
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
            (conv2d(clip_min(x, 0.0), p) * conv2d(x, p)).sum().backward()
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestGraphRelease:
    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        mid = x * c
        root = clip_min(mid + x, 0.0).sum()
        interior = [root, root._parents[0], mid]
        root.backward()
        assert_allclose(x.grad, [4.0, 0.0])
        assert c.grad is None
        for node in interior:
            assert node.grad is None and node._backward is None, node._op
            assert node._parents == (), node._op

    def test_walk_keeps_no_reference_to_the_gradient_it_hands_over(self):
        """A rule may free its gradient before it returns: conv2d's ReLU mask
        drops the unmasked gradient before the conv's own rules run."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * 2.0
        freed = []

        def rule(g):
            ref = weakref.ref(g)
            del g
            freed.append(ref() is None)
        mid._backward = rule
        _node("probe", mid.data.sum(), (mid,), lambda g: np.full(2, 3.0)).backward()
        assert freed == [True]

    def test_second_backward_on_a_spent_root_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        root = (x * x).sum()
        root.backward()
        with pytest.raises(SpentGraphError, match="earlier backward"):
            root.backward()
        assert_allclose(x.grad, [2.0, 4.0])

    def test_new_root_over_a_spent_subgraph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        shared = x * x
        (shared * 2.0).sum().backward()
        with pytest.raises(SpentGraphError):
            (shared * 3.0).sum().backward()

    def test_leaf_root_may_run_backward_again(self):
        x = Tensor(2.0, requires_grad=True)
        x.backward()
        x.backward()
        assert x.grad == 2.0


class TestNode:
    def test_inputs_without_grad_record_no_graph(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 5, 5)))
        p = make_params(rng.standard_normal((3, 2, 3, 3)), padding=1)
        outs = [x * x + 1.0, -x / 2.0, clip_min(x, 0.0), log(x * x + 1.0), x.sum(),
                gaussian_weighted_sum([x], [3], 1.0), conv2d(x, p),
                conv_transpose2d(x, make_params(rng.standard_normal((2, 1, 2, 2)),
                                                [0.0], stride=2)),
                concat_channels([x, x]), max_pool2d(x), softmax_channels(x),
                windowed_variance(x, 3)]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == () and out._backward is None, out._op

    def test_vjp_runs_only_for_parents_with_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 6.0])
        calls = []

        def rule(name):
            def vjp(g):
                calls.append(name)
                return 3.0 * g
            return vjp

        out = _node("add", x.data + c.data, (x, c), rule("x"), rule("c"))
        assert out._parents == (x, c) and out._op == "add"
        out.sum().backward()
        assert calls == ["x"]
        assert_allclose(x.grad, [3.0, 3.0])
        assert c.grad is None


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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6),
           st.tuples(st.integers(1, 5), st.integers(1, 5)), st.integers(1, 3),
           st.integers(0, 3), st.integers(1, 3),
           st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(0, 2**32 - 1))
    @example(2, 3, 4, (1, 1), 1, 0, 1, (3, 5), 0)   # the pointwise path
    def test_batched_matches_tap_loop(self, n, ic, oc, k, s, pad, d, extra, seed):
        """4-d batches, rectangular maps and kernels: the value and all three
        gradients match a per-tap loop, so no batch and channel axes mix."""
        rng = np.random.default_rng(seed)
        hw = [max(1, d * (kk - 1) + 1 - 2 * pad) + e for kk, e in zip(k, extra)]
        x0 = rng.standard_normal((n, ic, *hw))
        k0, b0 = rng.standard_normal((oc, ic, *k)), rng.standard_normal(oc)
        x = Tensor(x0, requires_grad=True)
        p = ConvParams(Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True),
                       stride=s, padding=pad, dilation=d)
        out = conv2d(x, p)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        want = tap_loop_conv2d(x0, k0, b0, s, pad, d, g)
        for got, ref in zip((out.data, x.grad, p.kernel.grad, p.bias.grad), want):
            assert got.shape == ref.shape
            assert_allclose(got, ref, rtol=0, atol=1e-9)

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 2), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([(), (2,)]), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 3), st.integers(0, 2**32 - 1))
    @example(1, 0, 1, 1, (), 2, 3, 2, 0)   # the 1x1 contraction path, 3-d
    @example(1, 0, 1, 1, (2,), 3, 2, 0, 1)  # and 4-d
    def test_relu_fold_matches_clip_min_node(self, s, pad, d, k, lead, ic, oc, extra,
                                             seed):
        """conv2d(x, p, relu=True) equals clip_min(conv2d(x, p), 0.0) byte for
        byte, in its value and in the input, kernel and bias gradients."""
        rng = np.random.default_rng(seed)
        size = d * (k - 1) + 1 + extra
        x0 = rng.standard_normal(lead + (ic, size, size))
        k0, b0 = rng.standard_normal((oc, ic, k, k)), rng.standard_normal(oc)

        def run(fold):
            x = Tensor(x0, requires_grad=True)
            p = ConvParams(Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True),
                           stride=s, padding=pad, dilation=d)
            out = conv2d(x, p, relu=True) if fold else clip_min(conv2d(x, p), 0.0)
            g = np.random.default_rng(seed).standard_normal(out.shape)
            value = out.data.tobytes()
            (out * Tensor(g)).sum().backward()
            return value, x.grad.tobytes(), p.kernel.grad.tobytes(), p.bias.grad.tobytes()

        assert run(True) == run(False)

    def test_channel_mismatch_error(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            conv2d(Tensor(np.zeros((3, 4, 4))),
                   make_params(np.zeros((1, 2, 3, 3))))

    def test_degenerate_output_error(self):
        with pytest.raises(DegenerateOutputError):
            conv2d(Tensor(np.zeros((1, 4, 4))),
                   make_params(np.zeros((1, 1, 3, 3)), dilation=2))


def row_major_conv2d(x, kernel, bias, pad, dil, g, with_relu):
    """conv2d at stride 1 from row-major im2col columns (one row per output
    pixel) or, for a 1x1 kernel, a tensordot: the value and the input, kernel
    and bias gradients, each in that formula's operation order."""
    n, c, h, w = x.shape
    oc, _, kh, kw = kernel.shape
    oh, ow = g.shape[-2:]
    if kh == kw == 1:
        k2 = kernel[:, :, 0, 0]
        out = np.moveaxis(np.tensordot(x, k2, axes=([1], [1])), 3, 1)
    else:
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = sliding_window_view(xp, (dil * (kh - 1) + 1, dil * (kw - 1) + 1),
                                  axis=(2, 3))[:, :, :oh, :ow, ::dil, ::dil]
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        out = np.moveaxis((cols @ kernel.reshape(oc, -1).T).reshape(n, oh, ow, oc), 3, 1)
    out = np.ascontiguousarray(out)
    out += bias[None, :, None, None]
    if with_relu:
        np.maximum(out, 0.0, out=out)
        g = g * (out > 0)
    if kh == kw == 1:
        gx = np.moveaxis(np.tensordot(g, k2, axes=([1], [0])), 3, 1)
        gk = np.tensordot(g, x, axes=([0, 2, 3], [0, 2, 3]))[:, :, None, None]
    else:
        # the input rule: one contraction, then per-tap shifted adds
        taps = np.einsum("naij,abkl->nbklij", g, kernel, optimize=True)
        gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        for ky in range(kh):
            for kx in range(kw):
                gxp[:, :, ky * dil:ky * dil + oh, kx * dil:kx * dil + ow] += taps[:, :, ky, kx]
        gx = gxp[:, :, pad:pad + h, pad:pad + w]
        gk = (np.moveaxis(g, 1, 0).reshape(oc, -1) @ cols).reshape(kernel.shape)
    return out, gx, gk, g.sum(axis=(0, 2, 3))


# (input channels, height = width, output channels, kernel size, padding =
# dilation, ReLU folded in) of every conv2d in the configs/desk.cfg model
DESK_CONVS = [
    # encoder blocks 1-5
    (3, 64, 12, 3, 1, True), (12, 64, 24, 3, 1, True), (24, 32, 48, 3, 1, True),
    (48, 16, 48, 3, 2, True), (48, 16, 48, 3, 4, True),
    # the block-5 reduction and the sweeps' reducers, then the dilated bank
    # and the fusion reducer
    (48, 16, 24, 1, 0, True), *((24, 16, 24, 3, d, True) for d in (1, 2, 4, 6, 8)),
    (240, 16, 24, 1, 0, True),
    # the score heads' classifiers
    (12, 64, 2, 1, 0, False), (24, 32, 2, 1, 0, False), (48, 16, 2, 1, 0, False),
    (24, 16, 2, 1, 0, False),
]


class TestConv2dBytes:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("c, size, oc, k, pad, with_relu", DESK_CONVS)
    def test_desk_geometry_matches_row_major_columns(self, c, size, oc, k, pad, with_relu,
                                                     n):
        """Column layout changes a GEMM's summation order at some shapes; at
        the desk model's, conv2d's value and gradients keep their bytes."""
        rng = np.random.default_rng(size * c + oc + pad)
        x0 = rng.standard_normal((n, c, size, size))
        k0 = rng.standard_normal((oc, c, k, k)) * 0.2
        b0 = rng.standard_normal(oc) * 0.1
        x = Tensor(x0, requires_grad=True)
        p = ConvParams(Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True),
                       padding=pad, dilation=max(pad, 1))
        out = conv2d(x, p, relu=with_relu)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        want = row_major_conv2d(x0, k0, b0, pad, max(pad, 1), g, with_relu)
        got = (out.data, x.grad, p.kernel.grad, p.bias.grad)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]



def stored_columns_conv2d(x, params, relu=False):
    """conv2d's windowed path with the kernel rule reading the columns the
    forward product kept, as it did before that rule rebuilt them; the input
    rule is conv2d's, one image at a time."""
    kernel = params.kernel.data
    s, p, d = params.stride, params.padding, params.dilation
    oc, _, kh, kw = kernel.shape
    x4 = _as_4d(x.data)
    n, h, w = x4.shape[0], x4.shape[2], x4.shape[3]
    oh, ow = _conv_out_dim(h, kh, s, p, d), _conv_out_dim(w, kw, s, p, d)
    cols = _im2col_channel_major(_conv_windows(x4, kh, kw, s, p, d, (oh, ow)))
    out4 = np.moveaxis((kernel.reshape(oc, -1) @ cols).reshape(oc, n, oh, ow), 0, 1)

    def vjp_x4(g4):
        gx = np.empty_like(x4)
        for i in range(n):
            gx[i] = _convt_scatter(g4[i:i + 1], kernel, s, p, d, (h, w))[0]
        return gx

    return _conv_node("conv2d", x, params, lambda part: out4, vjp_x4,
                      lambda g4: _kernel_grad(g4, cols.T, kernel.shape), relu)


class TestConv2dColumns:
    def test_forward_keeps_no_columns(self):
        """Desk block 2 at batch 4: once the forward pass returns, the node
        holds its 3 MB output but not the 13.5 MB channel-major columns."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 12, 64, 64)))
        p = make_params(rng.standard_normal((24, 12, 3, 3)), padding=1)
        p.kernel.requires_grad = True
        cols_bytes = 12 * 3 * 3 * 4 * 64 * 64 * 8
        tracemalloc.start()
        try:
            out = conv2d(x, p, relu=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held < cols_bytes, f"held {held / 2**20:.1f} MB"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.tuples(st.integers(1, 4), st.integers(1, 4)), st.integers(1, 2),
           st.integers(0, 2), st.integers(1, 3),
           st.tuples(st.integers(1, 9), st.integers(1, 9)), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(4, 12, 24, (3, 3), 1, 1, 1, (16, 16), True, False, 0)   # desk block 2
    def test_gradients_match_stored_columns(self, n, c, oc, k, s, pad, d, in_hw, relu,
                                            squeeze, seed):
        """The rebuilt columns give the input, kernel and bias gradients of
        the stored ones byte for byte, signed zeros included."""
        kh, kw = k
        assume(not (kh == kw == 1 and s == 1 and pad == 0))   # the pointwise path
        out_hw = tuple(_conv_out_dim(i, kk, s, pad, d) for i, kk in zip(in_hw, k))
        assume(min(out_hw) >= 1)
        lead = (c,) if squeeze and n == 1 else (n, c)
        rng = np.random.default_rng(seed)
        x0 = signed_zeros(rng, (*lead, *in_hw))
        k0, b0 = signed_zeros(rng, (oc, c, kh, kw)), signed_zeros(rng, (oc,))
        g = signed_zeros(rng, (*lead[:-1], oc, *out_hw))
        grads = []
        for conv in (conv2d, stored_columns_conv2d):
            x = Tensor(x0, requires_grad=True)
            p = ConvParams(Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True),
                           stride=s, padding=pad, dilation=d)
            out = conv(x, p, relu)
            (out * Tensor(g)).sum().backward()
            grads.append([out.data.tobytes(), x.grad.tobytes(), p.kernel.grad.tobytes(),
                          p.bias.grad.tobytes()])
        assert grads[0] == grads[1]


@contextmanager
def forward_worker():
    """One worker published for the forward ops, as a recording
    model_forward publishes it."""
    with ThreadPoolExecutor(1) as worker, autodiff.published(
            lambda task: worker.submit(copy_context().run, task)):
        yield


def whole_and_halves(op):
    """op's value with no worker published, then with one."""
    whole = op().data
    with forward_worker():
        return whole, op().data


class HalfError(RuntimeError):
    pass


class TestBatchHalves:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 6),
           st.tuples(st.integers(1, 4), st.integers(1, 4)), st.integers(1, 3),
           st.integers(0, 3), st.integers(1, 3),
           st.tuples(st.integers(1, 24), st.integers(1, 24)), st.booleans(),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @example(3, 12, 24, (3, 3), 1, 1, 1, (64, 64), True, np.float32, 0)   # desk block 2
    def test_conv2d_halves_match_the_whole_batch(self, n, c, oc, k, s, pad, d, in_hw,
                                                 relu, dtype, seed):
        """Each half is a GEMM of its own width, and OpenBLAS computes the
        columns of a product's last partial tile with another kernel. So a
        half that ends off a tile boundary changes some values within the
        rounding of their c*kh*kw-term sum and the bias; at the model's
        geometries no bit moves (test_desk_encoder_keeps_its_bytes)."""
        kh, kw = k
        out_hw = tuple(_conv_out_dim(i, kk, s, pad, d) for i, kk in zip(in_hw, k))
        assume(min(out_hw) >= 1)
        rng = np.random.default_rng(seed)
        x0, k0, b0 = (signed_zeros(rng, shape).astype(dtype)
                      for shape in ((n, c, *in_hw), (oc, c, kh, kw), (oc,)))
        geometry = {"stride": s, "padding": pad, "dilation": d}
        params = ConvParams(Tensor(k0, requires_grad=True), Tensor(b0), **geometry)
        whole, halves = whole_and_halves(lambda: conv2d(Tensor(x0), params, relu))
        assert halves.dtype == whole.dtype and halves.shape == whole.shape
        magnitude = conv2d(Tensor(np.abs(x0.astype(np.float64))),
                           ConvParams(Tensor(np.abs(k0.astype(np.float64))),
                                      Tensor(np.abs(b0.astype(np.float64))), **geometry)).data
        error = np.abs(halves.astype(np.float64) - whole)
        assert np.all(error <= (c * kh * kw + 2) * np.finfo(dtype).eps * magnitude)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6),
           st.tuples(st.integers(2, 24), st.integers(2, 24)),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_max_pool2d_halves_keep_the_bytes(self, n, c, hw, dtype, seed):
        """Ties between equal values and between -0.0 and 0.0, odd extents."""
        levels = np.array([-1.0, -0.0, 0.0, 1.0], dtype)
        x = Tensor(levels[np.random.default_rng(seed).integers(0, 4, (n, c, *hw))])
        whole, halves = whole_and_halves(lambda: max_pool2d(x))
        assert halves.dtype == whole.dtype
        assert halves.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("c, size, oc, k, pad, with_relu", DESK_CONVS[:5],
                             ids=[f"block{b}" for b in range(1, 6)])
    def test_desk_encoder_keeps_its_bytes(self, c, size, oc, k, pad, with_relu, n):
        rng = np.random.default_rng(size * c + n)
        x = Tensor(rng.standard_normal((n, c, size, size)).astype(np.float32))
        params = ConvParams(
            Tensor((rng.standard_normal((oc, c, k, k)) * 0.2).astype(np.float32),
                   requires_grad=True),
            Tensor((rng.standard_normal(oc) * 0.1).astype(np.float32)),
            padding=pad, dilation=pad)
        for op in (lambda: conv2d(x, params, with_relu), lambda: max_pool2d(x)):
            whole, halves = whole_and_halves(op)
            assert halves.tobytes() == whole.tobytes()

    def test_the_first_halfs_error_surfaces(self, monkeypatch):
        """Both halves raise, the caller's first; the first half's error
        surfaces once the worker is done."""
        def windows(x4, *geometry):
            first = int(x4[0, 0, 0, 0])
            if first == 0:
                time.sleep(0.05)
            raise HalfError(f"images from {first}")

        monkeypatch.setattr(autodiff, "_conv_windows", windows)
        x = Tensor(np.arange(4.0)[:, None, None, None] * np.ones((4, 1, 5, 5)))
        params = ConvParams(Tensor(np.ones((1, 1, 3, 3)), requires_grad=True),
                            Tensor(np.zeros(1)))
        with forward_worker(), pytest.raises(HalfError, match="^images from 0$") as err:
            conv2d(x, params)
        assert str(err.value.__context__) == "images from 2"


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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3),
           st.tuples(st.integers(1, 4), st.integers(1, 4)),
           st.tuples(st.integers(1, 5), st.integers(1, 5)),
           st.sampled_from([(), (1,), (2,)]), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_adjoint_identity_random_geometry(self, s, d, k, out_hw, lead, ic, oc,
                                              pad, seed):
        """<conv2d(x), y> == <x, conv_transpose2d(y)> with zero biases."""
        spans = [(o - 1) * s + d * (kk - 1) for o, kk in zip(out_hw, k)]
        p = min(pad, *(span // 2 for span in spans))   # keeps the input >= 1 pixel
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (ic, *(span + 1 - 2 * p for span in spans)))
        y = rng.standard_normal(lead + (oc, *out_hw))
        kernel = rng.standard_normal((oc, ic, *k))
        geometry = dict(stride=s, padding=p, dilation=d)
        forward = conv2d(Tensor(x), make_params(kernel, **geometry)).data
        adjoint = conv_transpose2d(Tensor(y), make_params(kernel, np.zeros(ic),
                                                          **geometry)).data
        assert forward.shape == y.shape and adjoint.shape == x.shape
        assert np.vdot(forward, y) == pytest.approx(np.vdot(x, adjoint),
                                                    rel=1e-10, abs=1e-10)

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


def per_tap_scatter(y4, kernel, stride, pad, dil, out_hw):
    """Reference transposed correlation: one contraction, then one shifted,
    range-clipped add per kernel tap in row-major tap order."""
    n, _, ih, iw = y4.shape
    _, b, kh, kw = kernel.shape
    oh, ow = out_hw

    def tap_range(tap, in_n, out_n):
        r0 = tap * dil - pad
        i0 = max(0, -(r0 // stride))
        return i0, min(in_n, (out_n - 1 - r0) // stride + 1), r0 + stride * i0

    taps = np.einsum("naij,abkl->nbklij", y4, kernel, optimize=True)
    out = np.zeros((n, b, oh, ow))
    for ky in range(kh):
        i0, i1, rs = tap_range(ky, ih, oh)
        for kx in range(kw):
            j0, j1, cs = tap_range(kx, iw, ow)
            if i1 > i0 and j1 > j0:
                out[:, :, rs:rs + stride * (i1 - i0):stride,
                    cs:cs + stride * (j1 - j0):stride] += taps[:, :, ky, kx, i0:i1, j0:j1]
    return out


def signed_zeros(rng, shape):
    """Standard normals with about a fifth of the entries +0.0 and a fifth -0.0."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    x[pick < 0.2] = 0.0
    x[pick > 0.8] = -0.0
    return x


def einsum_taps(y4, kernel):
    """The taps as np.einsum formed them, without the batch axis at batch 1."""
    if len(y4) == 1:
        return np.einsum("aij,abkl->bklij", y4[0], kernel, optimize=True)[None]
    return np.einsum("naij,abkl->nbklij", y4, kernel, optimize=True)


class TestConvtScatter:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8),
           st.tuples(st.integers(1, 8), st.integers(1, 8)), st.integers(1, 4),
           st.integers(0, 7), st.integers(1, 3),
           st.tuples(st.integers(1, 6), st.integers(1, 6)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 2**32 - 1))
    @example(1, 2, 2, (4, 4), 2, 1, 1, (32, 32), (0, 0), 0)   # the desk heads
    @example(4, 2, 2, (8, 8), 4, 2, 1, (16, 16), (0, 0), 1)
    @example(2, 3, 2, (5, 3), 2, 2, 1, (3, 4), (1, 1), 2)     # k not a multiple of s
    def test_matches_per_tap_adds(self, n, a, b, k, s, pad, d, in_hw, extra, seed):
        """Byte for byte, including signed zeros and a conv2d input rule's
        output that runs up to stride - 1 cells past the transposed extent."""
        kh, kw = k
        pad = min(pad, max(kh, kw) - 1)
        out_hw = tuple((i - 1) * s + d * (kk - 1) + 1 - 2 * pad + e % s
                       for i, kk, e in zip(in_hw, k, extra))
        assume(min(out_hw) >= 1)
        rng = np.random.default_rng(seed)
        y4 = signed_zeros(rng, (n, a, *in_hw))
        kernel = signed_zeros(rng, (a, b, kh, kw))
        got = _convt_scatter(y4, kernel, s, pad, d, out_hw)
        want = per_tap_scatter(y4, kernel, s, pad, d, out_hw)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 40),
           st.tuples(st.integers(1, 8), st.integers(1, 8)), st.integers(1, 4),
           st.integers(0, 7), st.integers(1, 3),
           st.tuples(st.integers(1, 24), st.integers(1, 24)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @example(1, 2, 2, (4, 4), 2, 1, 1, (32, 32), (0, 0), np.float32, 0)   # desk heads
    @example(4, 2, 2, (8, 8), 4, 2, 1, (16, 16), (0, 0), np.float32, 1)
    @example(1, 24, 12, (3, 3), 1, 1, 1, (64, 64), (0, 0), np.float32, 2)  # block 2's rule
    @example(1, 48, 48, (3, 3), 1, 4, 4, (16, 16), (0, 0), np.float32, 3)  # block 5's
    def test_matches_the_einsum_scatter(self, n, a, b, k, s, pad, d, in_hw, extra,
                                        dtype, seed):
        """The taps' GEMM gives np.einsum's bytes, at batch 1 and above."""
        kh, kw = k
        pad = min(pad, max(kh, kw) - 1)
        out_hw = tuple((i - 1) * s + d * (kk - 1) + 1 - 2 * pad + e % s
                       for i, kk, e in zip(in_hw, k, extra))
        assume(min(out_hw) >= 1)
        rng = np.random.default_rng(seed)
        y4 = signed_zeros(rng, (n, a, *in_hw)).astype(dtype)
        kernel = signed_zeros(rng, (a, b, kh, kw)).astype(dtype)
        got = _convt_scatter(y4, kernel, s, pad, d, out_hw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(autodiff, "_convt_taps", einsum_taps)
            want = _convt_scatter(y4, kernel, s, pad, d, out_hw)
        assert got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def row_major_conv_transpose2d(x, kernel, bias, factor, g):
    """A score head's conv_transpose2d (stride = factor, padding = factor // 2)
    from per-tap adds and row-major im2col columns of g: the value and the
    input, kernel and bias gradients, each in that formula's operation order."""
    n, a, ih, iw = x.shape
    _, b, kh, kw = kernel.shape
    pad = factor // 2
    out = per_tap_scatter(x, kernel, factor, pad, 1, g.shape[-2:])
    out += bias[None, :, None, None]
    gp = np.pad(g, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(gp, (kh, kw), axis=(2, 3))[:, :, ::factor, ::factor][:, :, :ih, :iw]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ih * iw, b * kh * kw)
    gx = np.moveaxis((cols @ kernel.reshape(a, -1).T).reshape(n, ih, iw, a), 3, 1)
    gk = (np.moveaxis(x, 1, 0).reshape(a, -1) @ cols).reshape(kernel.shape)
    return out, gx, gk, g.sum(axis=(0, 2, 3))


class TestConvTranspose2dBytes:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("size, factor", [(32, 2), (16, 4)])
    def test_desk_head_matches_per_tap_adds(self, size, factor, n):
        """The desk score heads' upsampling (2 classes, factors 2 and 4) keeps
        the bytes of per-tap adds and row-major gradient columns."""
        rng = np.random.default_rng(size * n + factor)
        x0 = rng.standard_normal((n, 2, size, size))
        k0 = rng.standard_normal((2, 2, 2 * factor, 2 * factor))
        b0 = rng.standard_normal(2)
        x = Tensor(x0, requires_grad=True)
        p = ConvParams(Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True),
                       stride=factor, padding=factor // 2)
        out = conv_transpose2d(x, p)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        want = row_major_conv_transpose2d(x0, k0, b0, factor, g)
        got = (out.data, x.grad, p.kernel.grad, p.bias.grad)
        assert [w.shape for w in want] == [a.shape for a in got]
        assert [np.ascontiguousarray(a).tobytes() for a in got] == \
            [np.ascontiguousarray(w).tobytes() for w in want]


class TestPadding:
    # 2-d to 5-d maps, 1-pixel maps, padding as wide as or wider than the map,
    # and a NaN-filled out= buffer that is a view past a first row and column,
    # as windowed_variance passes it
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 9), st.integers(1, 9),
           st.tuples(*[st.integers(0, 5)] * 4), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(1, 4, 4, (0, 0, 0, 0), True, False, 0)
    @example(1, 1, 1, (3, 0, 0, 2), True, False, 0)
    @example(1, 5, 7, (2, 2, 2, 2), False, False, 0)
    @example(1, 5, 7, (2, 2, 2, 2), True, True, 0)
    @example(1, 1, 1, (3, 3, 3, 3), False, True, 0)
    @example(2, 4, 4, (4, 4, 4, 4), True, True, 1)
    @example(2, 2, 6, (4, 4, 4, 4), False, False, 2)
    @example(3, 3, 1, (3, 3, 3, 3), True, True, 3)
    @example(3, 1, 9, (1, 1, 1, 1), False, True, 4)
    def test_pad2d_matches_np_pad(self, lead, h, w, widths, edge, into, seed):
        x = signed_zeros(np.random.default_rng(seed), (2,) * lead + (h, w))
        top, bottom, left, right = widths
        want = np.pad(x, [(0, 0)] * lead + [(top, bottom), (left, right)],
                      mode="edge" if edge else "constant")
        out = None
        if into:
            out = np.full((*want.shape[:-2], want.shape[-2] + 1, want.shape[-1] + 1),
                          np.nan)[..., 1:, 1:]
        got = pad2d(x, (top, bottom), (left, right), edge=edge, out=out)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if into:
            assert got is out


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
    def test_clip_min_values(self):
        out = clip_min(Tensor([-1.0, 0.0, 2.0]), 0.0)
        assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_clip_min_idempotent(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4, 4))
        once = clip_min(Tensor(x), 0.0).data
        twice = clip_min(clip_min(Tensor(x), 0.0), 0.0).data
        assert np.array_equal(once, twice)
        nonneg = np.abs(x)
        assert np.array_equal(clip_min(Tensor(nonneg), 0.0).data, nonneg)

    def test_max_pool_values(self):
        out = max_pool2d(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        assert_allclose(out.data, [[[4.0]]])
        const = max_pool2d(Tensor(np.full((1, 4, 4), 2.5)))
        assert_allclose(const.data, np.full((1, 2, 2), 2.5))

    def test_max_pool_degenerate_error(self):
        with pytest.raises(DegenerateOutputError):
            max_pool2d(Tensor(np.zeros((1, 1, 3))))

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


def max_pool_grad_loop(x, g):
    """Each output cell sends its gradient to the first maximum of its 2x2
    window, scanning the window row by row."""
    h, w = x.shape[-2:]
    cells = [(a, b) for a in range(2) for b in range(2)]
    out = np.zeros_like(x)
    for *lead, i, j in np.ndindex(*x.shape[:-2], h // 2, w // 2):
        y0, x0 = i * 2, j * 2
        a, b = max(cells, key=lambda ab: x[(*lead, y0 + ab[0], x0 + ab[1])])
        out[(*lead, y0 + a, x0 + b)] += g[(*lead, i, j)]
    return out


def argmax_max_pool2d(x, g):
    """max_pool2d's value and input gradient from each window's argmax, the
    formula the engine used before it read strided corner views."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    win = sliding_window_view(x, (2, 2), axis=(2, 3))[:, :, ::2, ::2].reshape(n, c, oh, ow, 4)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    ni, ci, oy, ox = np.indices((n, c, oh, ow), sparse=True)
    gx = np.zeros_like(x)
    gx[ni, ci, oy * 2 + arg // 2, ox * 2 + arg % 2] = g + 0.0
    return out, gx


class TestMaxPool2d:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(1, 1), (2, 1), (2, 3)]),
           st.tuples(st.integers(0, 8), st.integers(0, 8)), st.integers(0, 2**32 - 1))
    def test_bytes_match_argmax_formula(self, lead, extra, seed):
        """Ties between equal values and between -0.0 and 0.0, odd extents,
        and -0.0 in the output gradient: value and gradient keep their bytes."""
        rng = np.random.default_rng(seed)
        levels = np.array([-1.0, -0.0, 0.0, 1.0])
        x = Tensor(levels[rng.integers(0, 4, lead + (2 + extra[0], 2 + extra[1]))],
                   requires_grad=True)
        out = max_pool2d(x)
        g = np.where(rng.random(out.shape) < 0.3, -0.0, rng.standard_normal(out.shape))
        (out * Tensor(g)).sum().backward()
        want_out, want_gx = argmax_max_pool2d(x.data, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == want_gx.tobytes()

    def test_forward_copies_no_window(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 24, 64, 64)))
        tracemalloc.start()
        try:
            max_pool2d(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes, f"peak {peak} bytes"

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(1,), (2,), (2, 3)]),
           st.tuples(st.integers(0, 8), st.integers(0, 8)), st.integers(0, 2**32 - 1))
    def test_gradient_matches_window_loop(self, lead, extra, seed):
        """Even and odd extents; three levels make ties common, and a tie goes
        to the window's first maximum."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.integers(0, 3, lead + (2 + extra[0], 2 + extra[1]))
                   .astype(float), requires_grad=True)
        out = max_pool2d(x)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        assert np.array_equal(x.grad, max_pool_grad_loop(x.data, g))


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

    def test_clip_min_and_pool(self):
        w = Tensor(self.rng.standard_normal((2, 3, 3)))
        err = grad_check(lambda t: (max_pool2d(clip_min(t, 0.0)) * w).sum(),
                         Tensor(self.rng.standard_normal((2, 6, 6))))
        assert err < 1e-4

    def test_softmax_cross_entropy_composite(self):
        onehot = np.zeros((2, 3, 3))
        onehot[0, ::2, ::2] = 1.0
        onehot[1] = 1.0 - onehot[0]
        target = Tensor(onehot)

        def ce(t):
            probs = softmax_channels(t)
            return -(target * log(clip_min(probs, 1e-12))).sum()

        err = grad_check(ce, Tensor(self.rng.standard_normal((2, 3, 3))))
        assert err < 1e-6

    def test_all_zero_gradients_fail(self):
        # the case would pass while checking nothing
        err = grad_check(lambda t: (t * 0.0).sum(),
                         Tensor(self.rng.standard_normal((2, 3))))
        assert err == float("inf")


class Leaves:
    """Seeded leaves that require gradients, remembered in creation order."""

    def __init__(self, seed, dtype=np.float64):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype
        self.made = []

    def __call__(self, *shape):
        t = Tensor(self.rng.standard_normal(shape).astype(self.dtype), requires_grad=True)
        self.made.append(t)
        return t

    def conv(self, oc, ic, k, **geometry):
        return ConvParams(self(oc, ic, k, k), self(oc), **geometry)


# one graph per engine op, with every input of the op a leaf
OP_GRAPHS = {
    "add_broadcast": lambda t: t(2, 3, 4) + t(3, 1),
    "sub": lambda t: t(2, 3) - t(2, 3),
    "neg": lambda t: -t(2, 3),
    "mul_broadcast": lambda t: t(2, 3) * t(3),
    "div_broadcast": lambda t: t(2, 3) / (t(3) * t(3) + 1.0),
    "log": lambda t: log(t(2, 3) * t(2, 3) + 1.0),
    "clip_min": lambda t: clip_min(t(2, 4, 4), 0.0),
    "sum": lambda t: t(2, 3).sum() * t(2, 3),
    "conv2d": lambda t: conv2d(t(3, 7, 7), t.conv(4, 3, 3, stride=2, padding=1)),
    "conv2d_dilated_batched": lambda t: conv2d(t(2, 3, 7, 7),
                                               t.conv(4, 3, 3, padding=2, dilation=2)),
    "conv2d_relu": lambda t: conv2d(t(2, 3, 6, 6), t.conv(4, 3, 3, padding=1), relu=True),
    "conv2d_pointwise_relu": lambda t: conv2d(t(2, 3, 5, 5), t.conv(4, 3, 1), relu=True),
    "conv_transpose2d": lambda t: conv_transpose2d(
        t(2, 3, 4, 4), ConvParams(t(3, 2, 4, 4), t(2), stride=2, padding=1)),
    "concat_channels": lambda t: concat_channels([t(2, 4, 4), t(3, 4, 4)]),
    "max_pool2d": lambda t: max_pool2d(t(2, 2, 5, 5)),
    "softmax_channels": lambda t: softmax_channels(t(2, 3, 4, 4)),
    "windowed_variance": lambda t: windowed_variance(t(2, 2, 6, 6), 3),
    # interior maps, whose rules the walk's worker shares, then a leaf map
    "gaussian_weighted_sum": lambda t: gaussian_weighted_sum(
        [t(2, 4, 4) * t(2, 4, 4), t(2, 4, 4) + t(2, 4, 4), t(2, 4, 4)], (3, 1, 3), 2.0),
}


def freeze_gradients(monkeypatch):
    """Make every gradient a node holds read-only as it is handed over, so a
    rule that writes into the gradient it receives, or into an array it has
    returned, raises."""
    accum = Tensor._accum

    def frozen(self, g):
        accum(self, g)
        self.grad = np.asarray(self.grad)
        self.grad.setflags(write=False)
    monkeypatch.setattr(Tensor, "_accum", frozen)


class TestGradientHandOff:
    @staticmethod
    def op_gradients(build):
        leaves = Leaves(0)
        out = build(leaves)
        (out * Tensor(leaves.rng.standard_normal(out.shape))).sum().backward()
        return [t.grad.tobytes() for t in leaves.made]

    @pytest.mark.parametrize("op", sorted(OP_GRAPHS))
    def test_op_rules_do_not_write_gradients(self, op, monkeypatch):
        want = self.op_gradients(OP_GRAPHS[op])
        freeze_gradients(monkeypatch)
        assert self.op_gradients(OP_GRAPHS[op]) == want

    @pytest.mark.parametrize("full", [True, False], ids=["full", "baseline"])
    def test_model_rules_do_not_write_gradients(self, full, monkeypatch):
        def model_gradients():
            rng = np.random.default_rng(4)
            params = build_params(TINY_MODEL, seed=0, use_bidfl=full)
            image = Tensor(rng.random((2, 3, 8, 8), np.float32), requires_grad=True)
            labels = one_hot_masks((rng.random((2, 1, 8, 8)) > 0.7).astype(float))
            _, probs, _ = model_forward(image, params, TINY_MODEL, use_bidfl=full,
                                        use_mcdf=full, sigma_sq=10.0)
            grads = gradients(weighted_ce_loss(probs, labels, (0.8, 0.2)), params)
            return image.grad.tobytes(), {k: g.tobytes() for k, g in grads.items()}

        want = model_gradients()
        freeze_gradients(monkeypatch)
        assert model_gradients() == want

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_shared_gradient_survives_a_later_accumulation(self, shared_first):
        # a and b receive the add's gradient as one array; b then takes a
        # second gradient, which must not reach a
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 5.0], requires_grad=True)
        w = np.array([2.0, 3.0])
        shared = ((a + b) * Tensor(w)).sum()
        again = (b * b).sum()
        (shared + again if shared_first else again + shared).backward()
        assert_allclose(a.grad, w)
        assert_allclose(b.grad, w + 2.0 * b.data)


class LeafRuleError(RuntimeError):
    pass


class TestBackwardWorker:
    def test_leaf_rules_run_on_one_worker_in_walk_order(self):
        """Every leaf rule runs on one thread other than the caller's, after
        the leaf rules of the nodes the walk reached first; interior rules
        run on the caller."""
        calls = []

        def rule(name):
            def vjp(g):
                calls.append((name, threading.current_thread()))
                return g
            return vjp

        a, b = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        mid = _node("mid", a.data + b.data, (a, b), rule("a1"), rule("b1"))
        out = _node("out", mid.data + a.data, (mid, a), rule("mid"), rule("a2"))
        out.sum().backward()
        # out's leaf rule races mid's rule, not the leaf rules after it
        assert [name for name, _ in calls if name != "mid"] == ["a2", "a1", "b1"]
        threads = {name: t for name, t in calls}
        assert threads["mid"] is threading.main_thread()
        assert threads["a1"] is threads["a2"] is threads["b1"]
        assert threads["a1"] is not threading.main_thread()
        assert (a.grad.tolist(), b.grad.tolist()) == ([2.0], [1.0])

    @pytest.mark.parametrize("read_on_submit", [False, True], ids=["last", "on_submit"])
    def test_leaf_rule_error_surfaces_and_the_worker_is_joined(self, read_on_submit):
        before = threading.active_count()

        def boom(g):
            raise LeafRuleError("leaf rule failed")

        z, x = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        if read_on_submit:   # x * x's leaf task follows the failing one
            root = _node("boom", z.data.copy(), (z, x * x), boom, lambda g: g)
        else:
            root = _node("boom", z.data.copy(), (z,), boom)
        with pytest.raises(LeafRuleError, match="leaf rule failed"):
            gradients(root.sum(), {"z": z})
        assert threading.active_count() == before

    def test_interior_rule_error_joins_the_worker(self):
        before = threading.active_count()

        def boom(g):
            raise LeafRuleError("interior rule failed")

        x = Tensor([1.0], requires_grad=True)
        mid = x * x                      # its leaf task may still be running
        root = _node("boom", mid.data.copy(), (mid,), boom) * x
        with pytest.raises(LeafRuleError, match="interior rule failed"):
            root.sum().backward()
        assert threading.active_count() == before

    def test_fusion_hands_its_second_half_of_map_rules_to_the_worker(self, monkeypatch):
        """The caller runs the first half, the worker the second, as one task
        that accumulates nothing; an error there surfaces from gradients()
        as itself, with the worker joined."""
        ran = {}

        def adjoint(k, fail):
            def vjp(gv):
                ran[k] = threading.current_thread()
                if fail:
                    raise LeafRuleError(f"map {k}")
                return gv
            return vjp

        before = threading.active_count()
        for fail in (False, True):
            x = Tensor(np.arange(18.0).reshape(2, 3, 3), requires_grad=True)
            maps = [x * float(k + 1) for k in range(4)]

            def local_variance(data, window):
                k = next(k for k, m in enumerate(maps) if m.data is data)
                return np.zeros(x.shape), adjoint(k, fail and k == 3)

            monkeypatch.setattr(autodiff, "_local_variance", local_variance)
            root = gaussian_weighted_sum(maps, [3] * 4, 1.0).sum()
            if fail:
                with pytest.raises(LeafRuleError, match="^map 3$"):
                    gradients(root, {"x": x})
            else:
                gradients(root, {"x": x})
            assert ran[0] is ran[1] is threading.main_thread()
            assert ran[2] is ran[3] and ran[2] is not threading.main_thread()
            assert threading.active_count() == before
        assert x.grad is None

    def test_leaf_rules_run_under_the_callers_errstate(self):
        """np.errstate is context-local; the worker takes the caller's."""
        x = Tensor([1e300], requires_grad=True)
        root = _node("square", x.data.copy(), (x,), lambda g: g * 1e300 * 1e300)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            root.sum().backward()

    def test_kernel_shared_by_conv_nodes_sums_in_walk_order(self):
        """A kernel read by three chained conv nodes takes their kernel
        gradients in walk order (the last conv's first), the bytes of the
        same graph with three copies of the kernel summed in that order."""
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((2, 4, 12, 12))
        k0 = rng.standard_normal((4, 4, 3, 3)) * 0.3
        b0 = rng.standard_normal(4) * 0.1
        g0 = rng.standard_normal((2, 4, 12, 12))

        def run(kernels):
            params = [ConvParams(Tensor(k0, requires_grad=True),
                                 Tensor(b0, requires_grad=True), padding=1)
                      for _ in range(kernels)]
            y = Tensor(x0)
            for i in range(3):
                y = conv2d(y, params[i % kernels], relu=True)
            (y * Tensor(g0)).sum().backward()
            return [p.kernel.grad for p in params]

        (shared,) = run(1)
        first, second, third = run(3)
        assert shared.tobytes() == ((third + second) + first).tobytes()
        assert shared.tobytes() != ((first + second) + third).tobytes()


class TestConv2dPerImageInputRule:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.tuples(st.integers(1, 5), st.integers(1, 5)), st.integers(1, 3),
           st.integers(0, 3), st.integers(1, 3),
           st.tuples(st.integers(1, 12), st.integers(1, 12)), st.integers(0, 2**32 - 1))
    def test_within_rounding_of_the_batched_scatter(self, n, c, oc, k, s, pad, d, in_hw,
                                                    seed):
        """conv2d's input rule scatters one image at a time. The batched
        scatter contracts the same terms in a GEMM blocked over the batch,
        so the two may differ by rounding: at most twice the error bound of
        summing the a*kh*kw terms, scaled by the sum of their magnitudes."""
        kh, kw = k
        assume(not (kh == kw == 1 and s == 1 and pad == 0))   # the pointwise path
        out_hw = tuple(_conv_out_dim(i, kk, s, pad, d) for i, kk in zip(in_hw, k))
        assume(min(out_hw) >= 1)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, c, *in_hw)), requires_grad=True)
        kernel = rng.standard_normal((oc, c, kh, kw))
        g4 = rng.standard_normal((n, oc, *out_hw))
        out = conv2d(x, ConvParams(Tensor(kernel), Tensor(np.zeros(oc)),
                                   stride=s, padding=pad, dilation=d))
        (out * Tensor(g4)).sum().backward()
        batched = _convt_scatter(g4, kernel, s, pad, d, in_hw)
        magnitude = _convt_scatter(np.abs(g4), np.abs(kernel), s, pad, d, in_hw)
        bound = 2 * oc * kh * kw * np.finfo(np.float64).eps * magnitude
        assert np.all(np.abs(x.grad - batched) <= bound)


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OP_GRAPHS))
    def test_op_keeps_its_inputs_dtype(self, op, dtype, accumulated_dtypes):
        """Every op computes in its inputs' dtype, forward and backward; the
        scalars in the graphs (`+ 1.0`) take the tensors' dtype."""
        leaves = Leaves(0, dtype)
        out = OP_GRAPHS[op](leaves)
        assert out.data.dtype == dtype
        weights = leaves.rng.standard_normal(out.shape).astype(dtype)
        (out * Tensor(weights)).sum().backward()
        assert set(accumulated_dtypes) == {np.dtype(dtype)}
        assert all(t.grad.dtype == dtype for t in leaves.made)

    @pytest.mark.parametrize("scalar", [7, 0.1, np.float64(0.1), np.int64(3),
                                        np.array(0.1)])
    def test_a_scalar_takes_the_tensors_dtype(self, scalar):
        x = Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
        for out in (x + scalar, x - scalar, x * scalar, x / scalar):
            assert out.data.dtype == np.float32
        (x / scalar).sum().backward()
        assert x.grad.dtype == np.float32

    def test_mixed_float_operands_are_promoted(self):
        """Tensor operands of different float dtypes compute in float64, as
        numpy promotes them, and each gets its gradient in its own dtype."""
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        out = a * b + a / b
        assert out.data.dtype == np.float64
        assert_allclose(out.data, a.data.astype(np.float64) * b.data
                        + a.data.astype(np.float64) / b.data)
        out.sum().backward()
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64

        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        params = ConvParams(
            Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True),
            Tensor(np.zeros(4, np.float32), requires_grad=True), padding=1)
        out = concat_channels([conv2d(x, params, relu=True), x])
        assert out.data.dtype == np.float64
        out.sum().backward()
        assert x.grad.dtype == np.float64
        assert params.kernel.grad.dtype == params.bias.grad.dtype == np.float32

        # a float64 bias promotes a float32 product too
        wide_bias = ConvParams(Tensor(params.kernel.data), Tensor(np.zeros(4)), padding=1)
        assert conv2d(Tensor(x.data.astype(np.float32)), wide_bias).data.dtype == np.float64


EPS32 = float(np.finfo(np.float32).eps)


def narrow_and_wide(rng, *shapes, scale=1.0):
    """float32 draws, and the same values in float64."""
    narrow = [(rng.standard_normal(s) * scale).astype(np.float32) for s in shapes]
    return narrow, [a.astype(np.float64) for a in narrow]


def assert_within(narrow, wide, depth, magnitude, floor=0.0):
    """A float32 result lies within depth float32 epsilons of the float64
    result on the same values, relative to the magnitude of its terms: the
    forward error bound of a depth-term sum, each term rounded once. floor
    bounds what underflow below float32's normal range adds."""
    assert narrow.dtype == np.float32
    error = np.abs(narrow.astype(np.float64) - wide)
    assert np.all(error <= depth * EPS32 * magnitude + floor), (error / magnitude).max()


def bilinear_run(op, x, kernel, bias, g, geometry):
    """op's value and its input, kernel and bias gradients under the output
    weights g."""
    xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kernel, bias))
    out = op(xt, ConvParams(kt, bt, **geometry))
    (out * Tensor(g)).sum().backward()
    return out.data, xt.grad, kt.grad, bt.grad


def assert_bilinear_within(op, rng, x_shape, kernel_shape, out_shape, geometry,
                           depths):
    """op at float32 against float64 on the same values; each value and
    gradient is a sum of products, so running op on the absolute values
    gives the magnitude of its terms."""
    (x, kernel, bias), wide = narrow_and_wide(rng, x_shape, kernel_shape,
                                              (out_shape[-3],), scale=2.0)
    g = rng.standard_normal(out_shape).astype(np.float32)
    narrow = bilinear_run(op, x, kernel, bias, g, geometry)
    exact = bilinear_run(op, *wide, g.astype(np.float64), geometry)
    magnitude = bilinear_run(op, *(np.abs(a) for a in wide), np.abs(g.astype(np.float64)),
                             geometry)
    for got, want, depth, size in zip(narrow, exact, depths, magnitude):
        assert_within(got, want, depth, size)


class TestFloat32Bounds:
    """Each op at float32 against float64 on the same float32 values."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["pointwise", "dilated", "strided"]), st.booleans(),
           st.integers(1, 4), st.integers(1, 4),
           st.tuples(st.integers(5, 12), st.integers(5, 12)), st.integers(0, 2**32 - 1))
    def test_conv2d(self, kind, batched, c, oc, hw, seed):
        k, s, p, d = {"pointwise": (1, 1, 0, 1), "dilated": (3, 1, 2, 2),
                      "strided": (3, 2, 1, 1)}[kind]
        n = 2 if batched else 1
        lead = (n,) if batched else ()
        out_hw = tuple(_conv_out_dim(i, k, s, p, d) for i in hw)
        # value: c*k*k products and the bias; input gradient: oc*k*k
        # products; kernel and bias gradients: one per output pixel
        depths = (c * k * k + 1, oc * k * k, n * out_hw[0] * out_hw[1],
                  n * out_hw[0] * out_hw[1])
        assert_bilinear_within(conv2d, np.random.default_rng(seed), (*lead, c, *hw),
                               (oc, c, k, k), (*lead, oc, *out_hw),
                               {"stride": s, "padding": p, "dilation": d}, depths)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
           st.integers(1, 3), st.integers(1, 3),
           st.tuples(st.integers(2, 6), st.integers(2, 6)), st.integers(0, 2**32 - 1))
    def test_conv_transpose2d(self, k, s, d, p, a, b, in_hw, seed):
        out_hw = tuple((i - 1) * s + d * (k - 1) + 1 - 2 * p for i in in_hw)
        assume(min(out_hw) >= 1)
        # value: a*k*k products and the bias; input gradient: b*k*k
        # products; kernel gradient: one per input pixel, bias: per output
        depths = (a * k * k + 1, b * k * k, in_hw[0] * in_hw[1], out_hw[0] * out_hw[1])
        assert_bilinear_within(conv_transpose2d, np.random.default_rng(seed),
                               (a, *in_hw), (a, b, k, k), (b, *out_hw),
                               {"stride": s, "padding": p, "dilation": d}, depths)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.tuples(st.integers(2, 9), st.integers(2, 9)),
           st.integers(0, 2**32 - 1))
    def test_max_pool2d_is_exact(self, c, hw, seed):
        """A maximum rounds nothing: depth 0, so float32 equals float64."""
        rng = np.random.default_rng(seed)
        (x,), (wide,) = narrow_and_wide(rng, (c, *hw))
        g = rng.standard_normal((c, hw[0] // 2, hw[1] // 2)).astype(np.float32)
        results = []
        for data, weights in ((x, g), (wide, g.astype(np.float64))):
            t = Tensor(data, requires_grad=True)
            out = max_pool2d(t)
            (out * Tensor(weights)).sum().backward()
            results.append((out.data, t.grad))
        for narrow, exact in zip(*results):
            assert narrow.dtype == np.float32
            assert np.array_equal(narrow, exact)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.floats(0.1, 8.0), st.integers(0, 2**32 - 1))
    def test_softmax_channels(self, c, scale, seed):
        """Each probability's relative error: one rounding of x - max, which
        exp scales by |x - max|; exp's own (at most 4 ulps) twice, through
        the term and through the sum; c - 1 adds and one division."""
        (x,), (wide,) = narrow_and_wide(np.random.default_rng(seed), (c, 4, 5), scale=scale)
        exact = softmax_channels(Tensor(wide)).data
        spread = (wide.max(axis=0) - wide.min(axis=0)).max()
        assert_within(softmax_channels(Tensor(x)).data, exact, c + 8 + spread, exact)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 3, 5]), st.booleans(),
           st.tuples(st.integers(5, 10), st.integers(5, 10)), st.floats(0.01, 100.0),
           st.integers(0, 2**32 - 1))
    def test_local_variance_is_float64_rounded_once(self, window, batched, hw, scale,
                                                    seed):
        rng = np.random.default_rng(seed)
        lead = (2,) if batched else ()
        (x, g), (wide, g_wide) = narrow_and_wide(rng, (*lead, 2, *hw), (*lead, 2, *hw),
                                                 scale=scale)
        narrow, narrow_vjp = _local_variance(x, window)
        exact, exact_vjp = _local_variance(wide, window)
        assert narrow.tobytes() == exact.astype(np.float32).tobytes()
        if window > 1:
            assert narrow_vjp(g).tobytes() == exact_vjp(g_wide).astype(np.float32).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.lists(st.sampled_from([1, 3, 5]), min_size=4, max_size=4),
           st.floats(0.1, 10.0), st.floats(0.5, 20.0), st.integers(0, 2**32 - 1))
    def test_gaussian_weighted_sum(self, count, windows, scale, sigma_sq, seed):
        """Each weight's relative error: the rounded variance, sigma_sq and
        the division, which exp scales by v / sigma_sq, and exp's own (at
        most 4 ulps); then one product and count - 1 adds, relative to the
        sum of the terms' magnitudes. A weight below float32's normal range
        is off by at most that range's bound, times its map."""
        rng = np.random.default_rng(seed)
        narrow, wide = narrow_and_wide(rng, *[(2, 7, 7)] * count, scale=scale)
        windows = windows[:count]

        def fused(maps):
            return gaussian_weighted_sum([Tensor(m) for m in maps], windows, sigma_sq).data
        variances = [_local_variance(m, l)[0] for m, l in zip(wide, windows)]
        magnitude = sum(np.exp(-v / sigma_sq) * np.abs(m) for v, m in zip(variances, wide))
        exponent = max(v.max() for v in variances) / sigma_sq
        floor = np.finfo(np.float32).tiny * sum(np.abs(m) for m in wide)
        assert_within(fused(narrow), fused(wide), count + 8 + 2 * exponent, magnitude,
                      floor)
