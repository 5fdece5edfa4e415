"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (channels x height x width layout for images,
optional leading batch axis) and records the operation that produced it.
Building an expression therefore builds a computation graph on the fly;
calling ``backward()`` on a scalar result walks the graph once in reverse
topological order and accumulates exact gradients into every reachable
tensor that has ``requires_grad`` set.

Backward consumes the graph: as an interior node's rules run, it drops its
gradient, its rules and its links to its inputs, so a step's memory is
released as the walk goes. The walk keeps no reference to the gradient it
hands a node's rules, so a rule that is done with it frees it (conv2d's
ReLU mask drops the unmasked gradient). Leaves (parameters, probes) keep
their gradients. A second backward through a consumed node raises
SpentGraphError.

Each operation gives its forward value and one gradient rule per input to
``_node``; a result of inputs that need no gradient records no graph.

Gradients are handed on without copies: a node keeps the first gradient it
receives as given, and adds later ones out of place. So one array may be
several nodes' gradient at once, and the rule that keeps that safe is: no
gradient rule writes into the gradient it receives or into an array it has
returned. Callers of ``gradients()`` read the arrays and do not write them.
Rules also read their inputs' arrays when backward runs (conv2d's kernel rule
rebuilds its im2col columns from the input), so nothing may write into an
array that a recorded node has read.

Backward runs on two threads. A leaf rule is a rule whose input is a leaf
(a conv kernel or bias, say): one node's leaf rules go to a worker thread
as one task, and the walk goes on with the node's other rules. The no-write
rule is what makes that safe, since the worker's leaf rules and the
caller's rules read the same gradient ``g`` at once. Leaves are accumulated
only on the worker, one task at a time in walk order, so every leaf
gradient is summed in the order a one-thread walk sums it. The decision
fusion's node also hands the worker the rules of its second half of maps,
as one task that returns their gradients and accumulates nothing: the
caller runs the first half, waits for the task, then accumulates every
map's gradient in order, so no leaf is summed out of walk order.

All arithmetic is 64-bit. Graphs are throwaway: they are rebuilt from
scratch on every forward pass.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from itertools import accumulate
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


class SpentGraphError(ValueError):
    """backward() reached a node that an earlier backward() consumed."""


Vjp = Callable[[np.ndarray], np.ndarray]

# The running walk's hand-off to its worker: it runs a task there and returns
# the task's future. Rules stay one-argument callables, so a node's _backward
# reaches the worker through this variable.
_worker_tasks: ContextVar[Callable[[Callable[[], object]], Future]] = \
    ContextVar("_worker_tasks")


class Tensor:
    """Graph node: a value, an optional gradient, and links to its inputs."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if any(s < 1 for s in arr.shape):
            raise ShapeMismatchError(f"zero-sized dimension in shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
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

    def _accum(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def _take_grad(self) -> np.ndarray | None:
        g, self.grad = self.grad, None
        return g

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all ancestor tensors.

        Consumes the graph: every interior node drops its gradient, rules and
        input links as its rules run, and a later backward() through any of
        them raises SpentGraphError. Leaves keep their gradients.
        The leaf rules, and the second half of the fusion's map rules, run
        on one worker thread, started by the first of them and joined before
        this returns or raises; an error in a worker's rule is raised here.
        """
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
            if node.requires_grad and node._backward is None and node._op != "leaf":
                raise SpentGraphError(
                    f"{node._op} node was consumed by an earlier backward(); "
                    f"run the forward pass again")
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        with ThreadPoolExecutor(1) as worker:
            pending: list[Future] = []

            def submit(task: Callable[[], object]) -> Future:
                # one task at a time: a queue would keep every waiting task's
                # gradient alive. The task runs in this thread's context, so
                # np.errstate reaches it.
                if pending:
                    pending.pop().result()
                pending.append(worker.submit(copy_context().run, task))
                return pending[-1]

            token = _worker_tasks.set(submit)
            try:
                # pop rather than iterate, so a released node is not kept alive
                while topo:
                    node = topo.pop()
                    if node._backward is not None:
                        rules, node._backward, node._parents = node._backward, None, ()
                        # the gradient goes to the rules with no other reference
                        # left, so a rule may free it before it returns
                        rules(node._take_grad())
                if pending:
                    pending.pop().result()
            finally:
                _worker_tasks.reset(token)

    # -- elementwise arithmetic (numpy broadcasting, gradients summed back) --

    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __sub__(self, other):
        return _add(self, _neg(_as_tensor(other)))

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return _div(self, _as_tensor(other))

    def __neg__(self):
        return _neg(self)

    def sum(self) -> "Tensor":
        """Full reduction to a scalar; the usual way to form a backward root."""
        return _node("sum", self.data.sum(), (self,),
                     lambda g: np.broadcast_to(g, self.data.shape))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"


def _node(op: str, value: np.ndarray, parents: tuple[Tensor, ...],
          *vjps: Vjp, split: bool = False) -> Tensor:
    """One operation's result: value, where vjps[i](g) is parents[i]'s gradient.

    A result whose parents need no gradient is a plain tensor. A vjp must not
    reach the result itself, or the graph becomes a reference cycle. The
    rules of leaf parents run on the walk's worker, the others on the caller;
    a split node also hands the worker the second half of those others, whose
    gradients the caller accumulates after its own half.
    """
    live = [(p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad]
    if not live:
        return Tensor(value, _op=op)
    out = Tensor(value, requires_grad=True, _op=op)
    out._parents = parents
    leaf = [(p, vjp) for p, vjp in live if p._op == "leaf"]
    inner = [(p, vjp) for p, vjp in live if p._op != "leaf"]
    handed = inner[len(inner) // 2:] if split else []
    kept = inner[:len(inner) - len(handed)]

    def _backward(g: np.ndarray) -> None:
        if leaf:
            _worker_tasks.get()(lambda: _accum_rules(leaf, g))
        if handed:
            grads = _worker_tasks.get()(lambda: [vjp(g) for _, vjp in handed])
        _accum_rules(kept, g)
        if handed:
            for (p, _), pg in zip(handed, grads.result()):
                p._accum(pg)
    out._backward = _backward
    return out


def _accum_rules(rules: list[tuple[Tensor, Vjp]], g: np.ndarray) -> None:
    for p, vjp in rules:
        p._accum(vjp(g))


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
    return _node("add", a.data + b.data, (a, b),
                 lambda g: _unbroadcast(g, a.data.shape),
                 lambda g: _unbroadcast(g, b.data.shape))


def _mul(a: Tensor, b: Tensor) -> Tensor:
    return _node("mul", a.data * b.data, (a, b),
                 lambda g: _unbroadcast(g * b.data, a.data.shape),
                 lambda g: _unbroadcast(g * a.data, b.data.shape))


def _div(a: Tensor, b: Tensor) -> Tensor:
    return _node("div", a.data / b.data, (a, b),
                 lambda g: _unbroadcast(g / b.data, a.data.shape),
                 lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))


def _neg(a: Tensor) -> Tensor:
    return _node("neg", -a.data, (a,), lambda g: -g)


def log(x: Tensor) -> Tensor:
    return _node("log", np.log(x.data), (x,), lambda g: g / x.data)


def clip_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is zero where the floor is active."""
    return _node("clip_min", np.maximum(x.data, floor), (x,),
                 lambda g: g * (x.data > floor))


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


def _as_4d(x: np.ndarray) -> np.ndarray:
    if x.ndim == 4:
        return x
    if x.ndim == 3:
        return x[None]
    raise ShapeMismatchError(f"expected 3-d or 4-d spatial tensor, got ndim={x.ndim}")


def _conv_out_dim(n: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (n + 2 * pad - dil * (k - 1) - 1) // stride + 1


def pad2d(arr: np.ndarray, rows: tuple[int, int], cols: tuple[int, int],
          edge: bool, out: np.ndarray | None = None) -> np.ndarray:
    """arr grown by rows = (top, bottom) and cols = (left, right) cells on its
    last two axes, filled with copies of the nearest edge cell when edge is
    set and with zeros otherwise: np.pad's edge and constant modes. Written
    into out, which must have the grown shape, when it is given."""
    (top, bottom), (left, right) = rows, cols
    h, w = arr.shape[-2:]
    if out is None:
        fill = np.empty if edge else np.zeros
        out = fill((*arr.shape[:-2], top + h + bottom, left + w + right), arr.dtype)
    elif not edge:
        out[...] = 0.0
    out[..., top:top + h, left:left + w] = arr
    if edge:
        out[..., :top, left:left + w] = arr[..., :1, :]
        out[..., top + h:, left:left + w] = arr[..., -1:, :]
        out[..., :left] = out[..., left:left + 1]
        out[..., left + w:] = out[..., left + w - 1:left + w]
    return out


def _conv_windows(x4: np.ndarray, kh: int, kw: int, stride: int, pad: int,
                  dil: int, out_hw: tuple[int, int]) -> np.ndarray:
    """Strided+dilated sliding windows of shape (N,C,outH,outW,kh,kw)."""
    if pad:
        x4 = pad2d(x4, (pad, pad), (pad, pad), edge=False)
    eh, ew = dil * (kh - 1) + 1, dil * (kw - 1) + 1
    win = sliding_window_view(x4, (eh, ew), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, ::dil, ::dil]
    return win[:, :, :out_hw[0], :out_hw[1]]


def _im2col(windows: np.ndarray) -> np.ndarray:
    """(N,C,outH,outW,kh,kw) windows as contiguous (N*outH*outW, C*kh*kw) columns."""
    n, c, oh, ow, kh, kw = windows.shape
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)


def _im2col_channel_major(windows: np.ndarray) -> np.ndarray:
    """(N,C,outH,outW,kh,kw) windows as contiguous (C*kh*kw, N*outH*outW) columns."""
    n, c, oh, ow, kh, kw = windows.shape
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * oh * ow)


def _correlate(cols: np.ndarray, kernel: np.ndarray, n: int,
               out_hw: tuple[int, int]) -> np.ndarray:
    """Contract columns with an (O,C,kh,kw) kernel into an (N,O,outH,outW) view."""
    out = cols @ kernel.reshape(kernel.shape[0], -1).T
    return np.moveaxis(out.reshape(n, *out_hw, -1), 3, 1)


def _kernel_grad(a4: np.ndarray, cols: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Contract an (N,A,outH,outW) map with the columns over N and space."""
    return (np.moveaxis(a4, 1, 0).reshape(a4.shape[1], -1) @ cols).reshape(shape)


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
    """Adjoint of the windowed correlation: one contraction, then per-phase adds.

    Undilated and strided, tap (ky, kx) writes output phase (ky % s, kx % s)
    shifted by (ky // s, kx // s) strides, so one add per shift moves s x s
    taps at once; each output element still takes its taps in row-major tap
    order, one add each onto +0.0, so the bytes match per-tap adds.
    """
    n, _, ih, iw = y4.shape
    _, b, kh, kw = kernel.shape
    oh, ow = out_hw
    if n == 1:
        # the same products without the batch axis, which spares einsum a
        # transposed copy of y4
        taps = np.einsum("aij,abkl->bklij", y4[0], kernel, optimize=True)[None]
    else:
        taps = np.einsum("naij,abkl->nbklij", y4, kernel, optimize=True)
    if stride > 1 and dil == 1:
        s = stride
        qh, qw = -(-kh // s), -(-kw // s)
        # padded output row Y = y + pad sits at phase Y % s, phase row Y // s
        ph = max(ih + qh - 1, -(-(oh + pad) // s))
        pw = max(iw + qw - 1, -(-(ow + pad) // s))
        phases = np.zeros((n, b, s, s, ph, pw))
        for qy in range(qh):
            for qx in range(qw):
                block = taps[:, :, qy * s:qy * s + s, qx * s:qx * s + s]
                phases[:, :, :block.shape[2], :block.shape[3],
                       qy:qy + ih, qx:qx + iw] += block
        padded = phases.transpose(0, 1, 4, 2, 5, 3).reshape(n, b, ph * s, pw * s)
        return padded[:, :, pad:pad + oh, pad:pad + ow]
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


def _check_channels(x: Tensor, bias: Tensor, in_c: int, out_c: int,
                    kernel_dim: str) -> None:
    if x.shape[-3] != in_c:
        raise ShapeMismatchError(
            f"input channels {x.shape[-3]} != {kernel_dim} channels {in_c}")
    if bias.shape[0] != out_c:
        raise ShapeMismatchError(f"bias length {bias.shape[0]} != out channels {out_c}")


def _conv_node(op: str, x: Tensor, params: ConvParams, out4: np.ndarray,
               vjp_x4: Vjp, vjp_kernel: Vjp, relu: bool = False) -> Tensor:
    """Bias add, optional in-place ReLU, 3-d round trip and node of conv2d and
    its adjoint; the two rules take the 4-d output gradient."""
    squeezed = x.ndim == 3
    out4 = np.ascontiguousarray(out4)
    out4 += params.bias.data[None, :, None, None]
    if relu:
        np.maximum(out4, 0.0, out=out4)

    def vjp_x(g):
        gx = vjp_x4(_as_4d(g))
        return gx[0] if squeezed else gx

    out = _node(op, out4[0] if squeezed else out4, (x, params.kernel, params.bias),
                vjp_x, lambda g: vjp_kernel(_as_4d(g)),
                lambda g: _as_4d(g).sum(axis=(0, 2, 3)))
    if relu and out._backward is not None:
        # the ReLU's rule, run once ahead of the input, kernel and bias rules;
        # y > 0 exactly where the pre-activation is
        rules, y = out._backward, out.data

        def masked(g):
            g = g * (y > 0)     # the walk kept no reference: this frees the old g
            rules(g)
        out._backward = masked
    return out


def conv2d(x: Tensor, params: ConvParams, relu: bool = False) -> Tensor:
    """Dilated 2-d correlation over the channel axis, plus bias; relu=True
    also applies a ReLU, recording one node instead of two."""
    kernel = params.kernel.data
    s, p, d = params.stride, params.padding, params.dilation
    oc, ic, kh, kw = kernel.shape
    _check_channels(x, params.bias, ic, oc, "kernel input")
    h, w = x.shape[-2], x.shape[-1]
    oh = _conv_out_dim(h, kh, s, p, d)
    ow = _conv_out_dim(w, kw, s, p, d)
    if oh < 1 or ow < 1:
        raise DegenerateOutputError(
            f"conv output {oh}x{ow} from input {h}x{w} "
            f"(k={kh}x{kw}, stride={s}, pad={p}, dilation={d})")

    x4 = _as_4d(x.data)
    n = x4.shape[0]
    if kh == kw == 1 and s == 1 and p == 0:
        # pointwise: one (O,C) @ (C,H*W) product per image, so an image's
        # output does not depend on the batch; differentiated as a channel
        # contraction, 4x faster than windows
        k2 = kernel[:, :, 0, 0]
        return _conv_node(
            "conv2d", x, params, (k2 @ x4.reshape(n, ic, h * w)).reshape(n, oc, h, w),
            lambda g4: np.moveaxis(np.tensordot(g4, k2, axes=([1], [0])), 3, 1),
            lambda g4: np.tensordot(g4, x4, axes=([0, 2, 3], [0, 2, 3]))[:, :, None, None],
            relu)
    # channel-major columns: the product comes out (O,N,outH,outW), already in
    # output order at N = 1; the kernel rule rebuilds them from x4 rather
    # than keep a kh*kw-fold copy of the input alive until backward
    def cols():
        return _im2col_channel_major(_conv_windows(x4, kh, kw, s, p, d, (oh, ow)))

    out4 = np.moveaxis((kernel.reshape(oc, -1) @ cols()).reshape(oc, n, oh, ow), 0, 1)

    # one image at a time, so the scatter's kh*kw-fold taps of a single image
    # are alive beside the kernel rule's columns, not the whole batch's
    def vjp_x4(g4):
        gx = np.empty_like(x4)
        for i in range(n):
            gx[i] = _convt_scatter(g4[i:i + 1], kernel, s, p, d, (h, w))[0]
        return gx

    return _conv_node("conv2d", x, params, out4, vjp_x4,
                      lambda g4: _kernel_grad(g4, cols().T, kernel.shape), relu)


def conv_transpose2d(x: Tensor, params: ConvParams) -> Tensor:
    """Transposed (fractionally strided) convolution; exact adjoint of conv2d.

    The kernel is shared with conv2d: dim 0 matches this op's input channels,
    dim 1 its output channels. Output spatial size per axis is
    (in - 1) * stride + dilation * (k - 1) + 1 - 2 * padding.
    """
    kernel = params.kernel.data
    s, p, d = params.stride, params.padding, params.dilation
    a, b, kh, kw = kernel.shape
    _check_channels(x, params.bias, a, b, "kernel dim-0")
    ih, iw = x.shape[-2], x.shape[-1]
    oh = (ih - 1) * s + d * (kh - 1) + 1 - 2 * p
    ow = (iw - 1) * s + d * (kw - 1) + 1 - 2 * p
    if oh < 1 or ow < 1:
        raise DegenerateOutputError(
            f"conv_transpose output {oh}x{ow} from input {ih}x{iw}")

    x4 = _as_4d(x.data)
    # Both gradients read the output gradient's columns, and each rule builds
    # its own. They stay row-major, unlike conv2d's: the kernel product
    # reduces over every pixel into as many rows as input channels (2 in the
    # score heads), and channel-major columns change its last bits.
    def gcols(g4):
        return _im2col(_conv_windows(g4, kh, kw, s, p, d, (ih, iw)))

    return _conv_node("conv_transpose2d", x, params,
                      _convt_scatter(x4, kernel, s, p, d, (oh, ow)),
                      lambda g4: _correlate(gcols(g4), kernel, g4.shape[0], (ih, iw)),
                      lambda g4: _kernel_grad(x4, gcols(g4), kernel.shape))


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
    ends = list(accumulate(p.shape[-3] for p in parts))
    return _node("concat", np.concatenate([p.data for p in parts], axis=-3), tuple(parts),
                 *(lambda g, lo=lo, hi=hi: g[..., lo:hi, :, :]
                   for lo, hi in zip([0] + ends[:-1], ends)))


def max_pool2d(x: Tensor) -> Tensor:
    """Max over disjoint 2x2 patches (stride 2); ties route to the first
    element, and an odd last row or column is dropped."""
    h, w = x.shape[-2], x.shape[-1]
    oh, ow = h // 2, w // 2
    if oh < 1 or ow < 1:
        raise DegenerateOutputError(
            f"max_pool output {oh}x{ow} from input {h}x{w}")
    x4 = _as_4d(x.data)
    n, c = x4.shape[:2]
    # the four corners of every patch, as strided views of the input
    quads = x4[:, :, :2 * oh, :2 * ow].reshape(n, c, oh, 2, ow, 2)
    a, b, cc, d = (quads[:, :, :, i, :, j] for i in (0, 1) for j in (0, 1))
    # np.maximum returns its second operand on a tie (+0.0 against -0.0), so
    # the corners go in last to first and the value is the first maximum's
    out_data = np.maximum(np.maximum(d, cc), np.maximum(b, a))

    def vjp(g):
        # flat index of each patch's first maximal corner in row order: its
        # offset from the patch's top-left cell (0, 1, w or w + 1) plus that
        # cell's own index
        at = (a != out_data) * (1 + (b != out_data) * (w - 1 + (cc != out_data)))
        at += (np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
               + np.arange(0, 2 * oh * w, 2 * w)[:, None] + np.arange(0, 2 * ow, 2))
        gx = np.zeros_like(x4)
        # each cell takes at most one gradient; + 0.0 turns -0.0 into 0.0,
        # as adding into zeros does
        gx.reshape(-1)[at] = _as_4d(g) + 0.0
        return gx[0] if x.ndim == 3 else gx

    return _node("max_pool2d", out_data[0] if x.ndim == 3 else out_data, (x,), vjp)


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis, max-subtracted for stability."""
    if x.ndim < 3:
        raise ShapeMismatchError(
            f"softmax_channels expects a spatial tensor, got shape {x.shape}")
    z = x.data - x.data.max(axis=-3, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-3, keepdims=True)
    return _node("softmax", y, (x,),
                 lambda g: y * (g - (g * y).sum(axis=-3, keepdims=True)))


# ---------------------------------------------------------------------------
# windowed variance (edge-replicated box filter), used by the decision fusion
# ---------------------------------------------------------------------------

def _box_sums(buf: np.ndarray, l: int) -> np.ndarray:
    """All l x l window sums of buf's trailing two axes past the zero first row
    and column; buf becomes their integral image in place."""
    np.cumsum(buf, axis=-2, out=buf)
    np.cumsum(buf, axis=-1, out=buf)
    return (buf[..., l:, l:] - buf[..., :-l, l:]
            - buf[..., l:, :-l] + buf[..., :-l, :-l])


def _edge_fold(gp: np.ndarray, r: int, h: int, w: int) -> np.ndarray:
    """Adjoint of edge-replication padding: fold border mass onto the edges,
    overwriting gp."""
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
# by local_variance.
_VAR_FLOOR_EPS = 32 * np.finfo(np.float64).eps

# a map's windowed variance and its adjoint, as local_variance returns them
Variance = tuple[np.ndarray, Vjp | None]


def local_variance(x: np.ndarray, window: int) -> Variance:
    """Windowed population variance with edge replication, and its adjoint.

    Single fused pass over stacked [x, x^2] box means. Exactly zero (with zero
    gradient) wherever the window is constant, which the Gaussian consistency
    weight relies on; the cutoff assumes window magnitudes within a few orders
    of the map's global scale. At window 1 the variance is zero everywhere
    and the adjoint is None.
    """
    if window < 1 or window % 2 == 0:
        raise EvenWindowError(f"window must be odd and >= 1, got {window}")
    if window == 1:
        return np.zeros_like(x), None
    r = (window - 1) // 2
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    # [x, x^2], edge-padded by r, past the integral image's zero row and column
    buf = np.empty((2, *lead, h + window, w + window))
    buf[..., 0, :] = 0.0
    buf[..., :, 0] = 0.0
    xp, xsq = buf[..., 1:, 1:]
    pad2d(x, (r, r), (r, r), edge=True, out=xp)
    np.multiply(xp, xp, out=xsq)
    sums = _box_sums(buf, window)
    m = sums[0] / (window * window)
    msq = sums[1] / (window * window)
    raw = msq - m * m
    floor = _VAR_FLOOR_EPS * (h + window) * (w + window)
    gate = raw > floor * (msq + m * m)

    def vjp(g):
        gg = g * gate
        # [g, g*m] / l^2, zero-padded by l - 1, past the zero row and column
        buf = np.zeros((2, *lead, h + 2 * window - 1, w + 2 * window - 1))
        g_in, gm_in = buf[..., window:window + h, window:window + w]
        np.divide(gg, window * window, out=g_in)
        np.multiply(gg, m, out=gm_in)
        gm_in /= window * window
        folded = _box_sums(buf, window)
        a_g = _edge_fold(folded[0], r, h, w)
        a_gm = _edge_fold(folded[1], r, h, w)
        return 2.0 * (x * a_g - a_gm)

    return np.where(gate, raw, 0.0), vjp


def windowed_variance(x: Tensor, window: int) -> Tensor:
    """local_variance as an op: the same value, differentiated by its adjoint."""
    value, vjp = local_variance(x.data, window)
    return Tensor(value) if vjp is None else _node("windowed_variance", value, (x,), vjp)


def gaussian_weighted_sum(maps: Sequence[Tensor], variances: Sequence[Variance],
                          sigma_sq: float, stop_grad: bool = False) -> Tensor:
    """sum_k exp(-v_k / sigma_sq) * S_k, added left to right, as one node
    whose parents are the maps alone.

    variances[k] is map k's variance v_k and its adjoint, as local_variance
    returns them. The node keeps the K weights and the adjoints. Map k's
    gradient is g * alpha_k + adjoint_k(-(((g * S_k) * alpha_k) / sigma_sq)),
    the bytes that separate variance, neg, div, exp, mul and add nodes give;
    stop_grad, or an adjoint of None, leaves the second term out. The walk's
    worker runs the second half of the maps' rules.
    """
    if len(variances) != len(maps):
        raise ShapeMismatchError(
            f"gaussian_weighted_sum: {len(maps)} maps but {len(variances)} variances")
    alphas = [np.exp(-v / sigma_sq) for v, _ in variances]
    fused = alphas[0] * maps[0].data
    for alpha, score in zip(alphas[1:], maps[1:]):
        fused += alpha * score.data

    def rule(a: np.ndarray, s: np.ndarray, adjoint: Vjp | None) -> Vjp:
        if stop_grad or adjoint is None:
            return lambda g: g * a
        return lambda g: g * a + adjoint(-(((g * s) * a) / sigma_sq))

    return _node("gaussian_weighted_sum", fused, tuple(maps),
                 *(rule(a, m.data, adjoint)
                   for a, m, (_, adjoint) in zip(alphas, maps, variances)),
                 split=True)


def gradients(root: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Backward from a scalar root; returns one gradient per named parameter.

    Parameters the root does not depend on get zero gradients rather than
    an error. Deterministic: identical graphs produce bit-identical maps.
    """
    root.backward()
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}

