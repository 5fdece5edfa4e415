"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (channels x height x width layout for images,
optional leading batch axis) and records the operation that produced it.
Building an expression therefore builds a computation graph on the fly;
calling ``backward()`` on a scalar result walks the graph once in reverse
topological order and accumulates exact gradients into every reachable
tensor that has ``requires_grad`` set.

All arithmetic is 64-bit. Graphs are throwaway: they exist only while the
output tensor is alive and are rebuilt from scratch on every forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible; the message names the offending dim."""


class DegenerateOutputError(ValueError):
    """A spatial operation would produce an output dimension below 1."""


class EvenWindowError(ValueError):
    """Windowed statistics require an odd window size."""


class NonScalarRootError(ValueError):
    """backward() was called on a tensor that is not a scalar."""


class Tensor:
    """Graph node: a value, an optional gradient, and links to its inputs."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if any(s < 1 for s in arr.shape):
            raise ShapeMismatchError(f"zero-sized dimension in shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = _op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        # copy on first write: g may alias another node's gradient buffer
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
            if self.grad.shape != self.data.shape:
                self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all ancestor tensors."""
        if self.data.size != 1:
            raise NonScalarRootError(
                f"backward root must be scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic (numpy broadcasting, gradients summed back) --

    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __radd__(self, other):
        return _add(_as_tensor(other), self)

    def __sub__(self, other):
        return _add(self, _neg(_as_tensor(other)))

    def __rsub__(self, other):
        return _add(_as_tensor(other), _neg(self))

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return _mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return _div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return _div(_as_tensor(other), self)

    def __neg__(self):
        return _neg(self)

    def sum(self) -> "Tensor":
        """Full reduction to a scalar; the usual way to form a backward root."""
        src = self
        out = Tensor(src.data.sum(), requires_grad=src.requires_grad,
                     _parents=(src,), _op="sum")

        def _bw(g):
            if src.requires_grad:
                src._accum(np.broadcast_to(g, src.data.shape).copy())
        out._backward = _bw
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b), _op="add")

    def _bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))
    out._backward = _bw
    return out


def _mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b), _op="mul")

    def _bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))
    out._backward = _bw
    return out


def _div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b), _op="div")

    def _bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
    out._backward = _bw
    return out


def _neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data, requires_grad=a.requires_grad, _parents=(a,), _op="neg")

    def _bw(g):
        if a.requires_grad:
            a._accum(-g)
    out._backward = _bw
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), requires_grad=x.requires_grad,
                 _parents=(x,), _op="relu")

    def _bw(g):
        if x.requires_grad:
            x._accum(g * (x.data > 0))
    out._backward = _bw
    return out


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data), requires_grad=x.requires_grad,
                 _parents=(x,), _op="exp")

    def _bw(g):
        if x.requires_grad:
            x._accum(g * out.data)
    out._backward = _bw
    return out


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data), requires_grad=x.requires_grad,
                 _parents=(x,), _op="log")

    def _bw(g):
        if x.requires_grad:
            x._accum(g / x.data)
    out._backward = _bw
    return out


def clip_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is zero where the floor is active."""
    out = Tensor(np.maximum(x.data, floor), requires_grad=x.requires_grad,
                 _parents=(x,), _op="clip_min")

    def _bw(g):
        if x.requires_grad:
            x._accum(g * (x.data > floor))
    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """Kernel (out_ch x in_ch x kH x kW), bias (out_ch), and geometry.

    For conv_transpose2d the same kernel is read the other way around:
    dim 0 is the transposed op's input channel count and dim 1 its output.
    """
    kernel: Tensor
    bias: Tensor
    stride: int = 1
    padding: int = 0
    dilation: int = 1

    def __post_init__(self):
        if self.kernel.ndim != 4:
            raise ShapeMismatchError(
                f"kernel must be 4-d (out,in,kH,kW), got {self.kernel.shape}")
        if self.bias.ndim != 1:
            raise ShapeMismatchError(f"bias must be 1-d, got {self.bias.shape}")
        if self.stride < 1 or self.dilation < 1 or self.padding < 0:
            raise ValueError(
                f"stride/dilation must be >= 1 and padding >= 0, got "
                f"stride={self.stride} dilation={self.dilation} padding={self.padding}")


def _as_4d(x: np.ndarray) -> tuple[np.ndarray, bool]:
    if x.ndim == 4:
        return x, False
    if x.ndim == 3:
        return x[None], True
    raise ShapeMismatchError(f"expected 3-d or 4-d spatial tensor, got ndim={x.ndim}")


def _conv_out_dim(n: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (n + 2 * pad - dil * (k - 1) - 1) // stride + 1


def _conv_windows(x4: np.ndarray, kh: int, kw: int, stride: int, pad: int,
                  dil: int, out_hw: tuple[int, int]) -> np.ndarray:
    """Strided+dilated sliding windows of shape (N,C,outH,outW,kh,kw)."""
    if pad:
        x4 = np.pad(x4, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    eh, ew = dil * (kh - 1) + 1, dil * (kw - 1) + 1
    win = sliding_window_view(x4, (eh, ew), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, ::dil, ::dil]
    return win[:, :, :out_hw[0], :out_hw[1]]


def _convt_tap_ranges(tap: int, in_n: int, out_n: int, stride: int, pad: int,
                      dil: int) -> tuple[int, int, int]:
    """Valid input range [i0, i1) and output start for one scatter tap.

    Tap `tap` of the kernel writes input index i to output index
    tap*dil - pad + stride*i; the range keeps that index inside [0, out_n).
    """
    r0 = tap * dil - pad
    i0 = max(0, -(r0 // stride))
    i1 = min(in_n, (out_n - 1 - r0) // stride + 1)
    return i0, i1, r0 + stride * i0


def _convt_scatter(y4: np.ndarray, kernel: np.ndarray, stride: int, pad: int,
                   dil: int, out_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of the windowed correlation: one contraction, then per-tap adds."""
    n, _, ih, iw = y4.shape
    _, b, kh, kw = kernel.shape
    oh, ow = out_hw
    taps = np.einsum("naij,abkl->nbklij", y4, kernel, optimize=True)
    out = np.zeros((n, b, oh, ow))
    for ky in range(kh):
        i0, i1, rs = _convt_tap_ranges(ky, ih, oh, stride, pad, dil)
        if i1 <= i0:
            continue
        for kx in range(kw):
            j0, j1, cs = _convt_tap_ranges(kx, iw, ow, stride, pad, dil)
            if j1 <= j0:
                continue
            out[:, :, rs:rs + stride * (i1 - i0):stride,
                cs:cs + stride * (j1 - j0):stride] += taps[:, :, ky, kx, i0:i1, j0:j1]
    return out


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Dilated 2-d correlation over the channel axis, plus bias."""
    kernel, bias = params.kernel, params.bias
    s, p, d = params.stride, params.padding, params.dilation
    oc, ic, kh, kw = kernel.shape
    in_c = x.shape[-3]
    if in_c != ic:
        raise ShapeMismatchError(
            f"input channels {in_c} != kernel input channels {ic}")
    if bias.shape[0] != oc:
        raise ShapeMismatchError(
            f"bias length {bias.shape[0]} != out channels {oc}")
    h, w = x.shape[-2], x.shape[-1]
    oh = _conv_out_dim(h, kh, s, p, d)
    ow = _conv_out_dim(w, kw, s, p, d)
    if oh < 1 or ow < 1:
        raise DegenerateOutputError(
            f"conv output {oh}x{ow} from input {h}x{w} "
            f"(k={kh}x{kw}, stride={s}, pad={p}, dilation={d})")

    x4, squeezed = _as_4d(x.data)
    pointwise = kh == kw == 1 and s == 1 and p == 0
    if pointwise:
        k2 = kernel.data[:, :, 0, 0]
        out_data = np.moveaxis(np.tensordot(x4, k2, axes=([1], [1])), 3, 1)
        win = None
    else:
        win = _conv_windows(x4, kh, kw, s, p, d, (oh, ow))
        out_data = np.moveaxis(
            np.tensordot(win, kernel.data, axes=([1, 4, 5], [1, 2, 3])), 3, 1)
    out_data = np.ascontiguousarray(out_data)
    out_data += bias.data[None, :, None, None]
    if squeezed:
        out_data = out_data[0]

    needs = x.requires_grad or kernel.requires_grad or bias.requires_grad
    out = Tensor(out_data, requires_grad=needs, _parents=(x, kernel, bias),
                 _op="conv2d")

    def _bw(g):
        g4, _ = _as_4d(g)
        if bias.requires_grad:
            bias._accum(g4.sum(axis=(0, 2, 3)))
        if kernel.requires_grad:
            if pointwise:
                gk = np.tensordot(g4, x4, axes=([0, 2, 3], [0, 2, 3]))
                kernel._accum(gk[:, :, None, None])
            else:
                kernel._accum(np.tensordot(g4, win, axes=([0, 2, 3], [0, 2, 3])))
        if x.requires_grad:
            if pointwise:
                gx = np.moveaxis(
                    np.tensordot(g4, kernel.data[:, :, 0, 0], axes=([1], [0])), 3, 1)
            else:
                gx = _convt_scatter(g4, kernel.data, s, p, d, (h, w))
            x._accum(gx[0] if squeezed else gx)
    out._backward = _bw
    return out


def conv_transpose2d(x: Tensor, params: ConvParams) -> Tensor:
    """Transposed (fractionally strided) convolution; exact adjoint of conv2d.

    The kernel is shared with conv2d: dim 0 matches this op's input channels,
    dim 1 its output channels. Output spatial size per axis is
    (in - 1) * stride + dilation * (k - 1) + 1 - 2 * padding.
    """
    kernel, bias = params.kernel, params.bias
    s, p, d = params.stride, params.padding, params.dilation
    a, b, kh, kw = kernel.shape
    in_c = x.shape[-3]
    if in_c != a:
        raise ShapeMismatchError(
            f"input channels {in_c} != kernel dim-0 channels {a}")
    if bias.shape[0] != b:
        raise ShapeMismatchError(
            f"bias length {bias.shape[0]} != out channels {b}")
    ih, iw = x.shape[-2], x.shape[-1]
    oh = (ih - 1) * s + d * (kh - 1) + 1 - 2 * p
    ow = (iw - 1) * s + d * (kw - 1) + 1 - 2 * p
    if oh < 1 or ow < 1:
        raise DegenerateOutputError(
            f"conv_transpose output {oh}x{ow} from input {ih}x{iw}")

    x4, squeezed = _as_4d(x.data)
    out_data = _convt_scatter(x4, kernel.data, s, p, d, (oh, ow))
    out_data += bias.data[None, :, None, None]
    if squeezed:
        out_data = out_data[0]

    needs = x.requires_grad or kernel.requires_grad or bias.requires_grad
    out = Tensor(out_data, requires_grad=needs, _parents=(x, kernel, bias),
                 _op="conv_transpose2d")

    def _bw(g):
        g4, _ = _as_4d(g)
        if bias.requires_grad:
            bias._accum(g4.sum(axis=(0, 2, 3)))
        if kernel.requires_grad:
            # same windowed-correlation structure as the conv2d kernel grad,
            # with the roles of input and output gradient swapped
            gwin = _conv_windows(g4, kh, kw, s, p, d, (ih, iw))
            kernel._accum(np.tensordot(x4, gwin, axes=([0, 2, 3], [0, 2, 3])))
        if x.requires_grad:
            win = _conv_windows(g4, kh, kw, s, p, d, (ih, iw))
            gx = np.tensordot(win, kernel.data, axes=([1, 4, 5], [1, 2, 3]))
            gx = np.moveaxis(gx, 3, 1)
            x._accum(gx[0] if squeezed else gx)
    out._backward = _bw
    return out


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; spatial and batch dims must match."""
    if not parts:
        raise ShapeMismatchError("concat_channels needs at least one input")
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    for i, p in enumerate(parts[1:], start=1):
        if p.ndim != first.ndim or p.shape[-2:] != first.shape[-2:] \
                or p.shape[:-3] != first.shape[:-3]:
            raise ShapeMismatchError(
                f"part {i} shape {p.shape} incompatible with part 0 "
                f"shape {first.shape} outside the channel axis")
    out_data = np.concatenate([p.data for p in parts], axis=-3)
    needs = any(p.requires_grad for p in parts)
    out = Tensor(out_data, requires_grad=needs, _parents=tuple(parts),
                 _op="concat")
    sizes = [p.shape[-3] for p in parts]

    def _bw(g):
        start = 0
        for p, c in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[-3] = slice(start, start + c)
                p._accum(g[tuple(sl)])
            start += c
    out._backward = _bw
    return out


def max_pool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Max over window x window patches; ties route to the first element."""
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window}, {stride}")
    h, w = x.shape[-2], x.shape[-1]
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    if oh < 1 or ow < 1:
        raise DegenerateOutputError(
            f"max_pool output {oh}x{ow} from input {h}x{w}")
    x4, squeezed = _as_4d(x.data)
    n, c = x4.shape[:2]
    win = sliding_window_view(x4, (window, window), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(n, c, oh, ow, window * window)
    arg = win.argmax(axis=-1)
    out_data = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    if squeezed:
        out_data = out_data[0]

    out = Tensor(out_data, requires_grad=x.requires_grad, _parents=(x,),
                 _op="max_pool2d")

    def _bw(g):
        if not x.requires_grad:
            return
        g4, _ = _as_4d(g)
        ni, ci, oy, ox = np.indices((n, c, oh, ow), sparse=False)
        iy = oy * stride + arg // window
        ix = ox * stride + arg % window
        gx = np.zeros_like(x4)
        np.add.at(gx, (ni, ci, iy, ix), g4)
        x._accum(gx[0] if squeezed else gx)
    out._backward = _bw
    return out


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis, max-subtracted for stability."""
    if x.ndim < 3:
        raise ShapeMismatchError(
            f"softmax_channels expects a spatial tensor, got shape {x.shape}")
    z = x.data - x.data.max(axis=-3, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-3, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad, _parents=(x,), _op="softmax")

    def _bw(g):
        if x.requires_grad:
            x._accum(y * (g - (g * y).sum(axis=-3, keepdims=True)))
    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# windowed variance (edge-replicated box filter), used by the decision fusion
# ---------------------------------------------------------------------------

def _box_sums(arr: np.ndarray, l: int) -> np.ndarray:
    """All l x l window sums of the trailing two axes via an integral image."""
    ii = arr.cumsum(axis=-2).cumsum(axis=-1)
    pad = [(0, 0)] * (arr.ndim - 2) + [(1, 0), (1, 0)]
    ii = np.pad(ii, pad)
    return (ii[..., l:, l:] - ii[..., :-l, l:]
            - ii[..., l:, :-l] + ii[..., :-l, :-l])


def _edge_fold(gp: np.ndarray, r: int, h: int, w: int) -> np.ndarray:
    """Adjoint of edge-replication padding: fold border mass onto the edges."""
    gp = gp.copy()
    if r:
        gp[..., r, :] += gp[..., :r, :].sum(axis=-2)
        gp[..., h + r - 1, :] += gp[..., h + r:, :].sum(axis=-2)
        gp = gp[..., r:r + h, :]
        gp[..., :, r] += gp[..., :, :r].sum(axis=-1)
        gp[..., :, w + r - 1] += gp[..., :, w + r:].sum(axis=-1)
        gp = gp[..., :, r:r + w]
    return gp


# Relative floor below which the cancellation form mean(x^2) - mean(x)^2 is
# integral-image rounding noise; such windows count as exactly constant. The
# noise scales with the cumsum extent, hence the padded-area factor applied
# by windowed_variance.
_VAR_FLOOR_EPS = 32 * np.finfo(np.float64).eps


def windowed_variance(x: Tensor, window: int) -> Tensor:
    """Windowed population variance with edge replication.

    Single fused pass over stacked [x, x^2] box means. Exactly zero (with zero
    gradient) wherever the window is constant, which the Gaussian consistency
    weight relies on; the cutoff assumes window magnitudes within a few orders
    of the map's global scale.
    """
    if window < 1 or window % 2 == 0:
        raise EvenWindowError(f"window must be odd and >= 1, got {window}")
    if window == 1:
        return Tensor(np.zeros_like(x.data))
    r = (window - 1) // 2
    h, w = x.shape[-2], x.shape[-1]
    pad = [(0, 0)] * (x.ndim - 2) + [(r, r), (r, r)]
    stacked = np.concatenate([x.data[None], (x.data * x.data)[None]])
    sums = _box_sums(np.pad(stacked, [(0, 0)] + pad, mode="edge"), window)
    m = sums[0] / (window * window)
    msq = sums[1] / (window * window)
    raw = msq - m * m
    floor = _VAR_FLOOR_EPS * (h + window) * (w + window)
    gate = raw > floor * (msq + m * m)
    out_data = np.where(gate, raw, 0.0)

    out = Tensor(out_data, requires_grad=x.requires_grad, _parents=(x,),
                 _op="windowed_variance")

    def _bw(g):
        if not x.requires_grad:
            return
        gg = g * gate
        zpad = [(0, 0)] * (g.ndim - 2) + [(window - 1, window - 1)] * 2
        stacked_g = np.concatenate([gg[None], (gg * m)[None]])
        folded = _box_sums(np.pad(stacked_g / (window * window),
                                  [(0, 0)] + zpad), window)
        a_g = _edge_fold(folded[0], r, h, w)
        a_gm = _edge_fold(folded[1], r, h, w)
        x._accum(2.0 * (x.data * a_g - a_gm))
    out._backward = _bw
    return out


def gradients(root: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Backward from a scalar root; returns one gradient per named parameter.

    Parameters the root does not depend on get zero gradients rather than
    an error. Deterministic: identical graphs produce bit-identical maps.
    """
    root.backward()
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(builder: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    builder must map a tensor to a scalar tensor and be free of side effects;
    it is re-invoked for every perturbed evaluation. Relative error per
    element is |a - n| / max(1e-8, |a| + |n|).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = np.array(x.data, dtype=np.float64)
    probe = Tensor(base, requires_grad=True)
    out = builder(probe)
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = builder(Tensor(base)).data.item()
        flat[i] = orig - eps
        lo = builder(Tensor(base)).data.item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float((np.abs(analytic - numeric) / denom).max())
