"""Numeric layer kernels: forward passes, hand-derived gradients, Adam.

Every layer is a forward/backward pair with one calling convention:
`<stem>_forward(x, *arrays, *constants, *bn_states, mode)` returns (out, cache),
where only a layer with batch-norm state takes the states and the mode, and
`<stem>_backward(dout, cache)` returns (dx, *grads) with the grads in the
order of the arrays, or a bare dx for a layer without parameters. Training
runs in float32; gradient checking builds the same graph in float64, where
central finite differences are trustworthy. Convs take no bias: each feeds a
batch norm, whose beta plays that role.

Cache conventions, which bound what a training forward keeps alive: the stem
and each residual block half is one `conv_bn_relu` unit, whose batch norm runs
fused with the ReLU after it (and a block's skip add between them) in
`batchnorm_relu_forward`, which caches its input, its per-channel float64 mean
and invstd, gamma, its per-channel scale and shift in the input's dtype, and
its output, not xhat. ReLU caches its output (out > 0 exactly where x > 0),
and conv1d caches its unpadded input, so a conv after a ReLU holds the very
same array: the stem's output is also res0's conv1 input. A residual block
keeps no full-size output a1 of its first unit: the block swaps a1, in unit
1's batch-norm cache and in unit 2's conv cache, for one `Windows` that
rebuilds any window of it from unit 1's conv output with the cached scale and
shift, bit for bit. So a block holds its conv outputs c1 and c2 and its
output; a1 is rebuilt where a backward reads it: a tile at a time for unit 2's
dw and unit 1's dx, a batch row at a time for unit 1's batch-norm sums. A
unit's backward passes the gradient of its conv output from the batch norm to
the conv as `Windows` as well, so it is never full-size either. `Windows` is
the one lazy array type, and a kernel reads a (B, C, T) operand that may be
lazy only through `_window_reader`, which gives views of an ndarray.
`batchnorm1d_*` and `relu_*` are the unfused reference the fused pair is
tested against; the head runs `relu_*`. No kernel keeps a padded or otherwise
copied (B, C, T) array, and kernels write into fresh outputs only, never into
an array a cache holds.

Tile convention: one function, `_conv_window`, applies conv taps, in training
and eval alike. It reads a window one column wider on each side than its
output, zero past either end of the row, and sums tap 1, then 0, then 2. Every
training conv (forward and backward) runs one loop, `_conv_tiles`, over each
batch row in time tiles of about `_TILE` samples. Tile [s, e) reads its haloed
window, columns s - 1 : e + 1, through `_window_reader`, so a lazy input (a1,
or the batch-norm gradient) is built tile by tile inside the loop, and a
tile's input, output and scratch stay in a core's L2 cache. Nothing carries
over from one tile to the next: output columns s:e are finished when the loop
yields the tile. The conv backward's dw reads the tile's columns of x, one
wider on each side but clamped to [0, T), the same way. No conv allocates a
full-size tap buffer: taps 0 and 2 go through one tile-sized scratch buffer.
Each output element sums the same products in the same order as an untiled
conv, so the forward and dx are bit-identical to it (except, across tiles, the
dx of a C_in = 1 conv, whose taps are matrix-vector products that the BLAS
rounds by position); dw sums its tiles in another order.

Eval convention: an eval forward keeps nothing for a backward pass and runs
depth first, so it never holds a (B, C, T) activation. An eval
`conv_bn_relu_forward` or `residual_block_forward` folds each batch norm into
its conv (`fold_batchnorm`, from the current parameters and running statistics
on every call) and returns `Windows`: the layer's output, computed only when
the pool reads it, one batch row and one time tile of about `_TILE` samples at
a time. A window of a unit's output needs its input one column wider on each
side, so the pool's tile reads the network input with a halo of one column per
unit (7 for three blocks); a block reads its input window once and adds it as
the skip. Each unit runs `_conv_window` on its window, applies its folded
bias, the skip and the ReLU, and zeroes the columns outside [0, T), which are
the next conv's padding. `adaptive_avg_pool1d_forward` adds each finished tile
into float64 per-bin sums. `batchnorm1d_forward`'s eval branch is the unfolded
reference; it returns no cache, so there is no eval backward.

GRU convention: `bigru_*` read and give back (B, C, T) and run `gru_*` over
(B, T, C). The reset gate multiplies the hidden-to-candidate product,
    r_t = sigm(W_ir x_t + b_ir + W_hr h_{t-1} + b_hr)
    z_t = sigm(W_iz x_t + b_iz + W_hz h_{t-1} + b_hz)
    n_t = tanh(W_in x_t + b_in + r_t * (W_hn h_{t-1} + b_hn))
    h_t = (1 - z_t) * n_t + z_t * h_{t-1}
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Tensor shape mismatch; message lists expected vs got."""


class TrainingError(RuntimeError):
    """Numeric failure during training (e.g. non-finite gradients)."""


@dataclass
class ParamTensor:
    """A named trainable array paired with its accumulated gradient."""

    name: str
    values: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        if self.grad.shape != self.values.shape:
            raise ShapeError(
                f"{self.name}: grad shape {self.grad.shape} != values shape {self.values.shape}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass
class BatchNormState:
    """Per-channel running statistics; `initialized` flips on the first train batch."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    initialized: bool = False

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


# --- arrays built one time window at a time -------------------------------------


class Windows:
    """A (B, C, T) array that is never held in full: windows of its time axis are built as they are read.

    `window(i, lo, hi)` gives columns lo:hi of batch row i as a (C, hi - lo)
    array, which may be a view and is only read. lo may be below 0 and hi
    above T; those columns read as 0, so a conv can take them as its padding.
    A window depends on (i, lo, hi) alone, so windows may be read in any order
    and any number of times. `np.asarray(windows)` builds the whole array one
    tile at a time.
    """

    def __init__(self, shape, dtype, window):
        self.shape, self.dtype, self.window = tuple(shape), np.dtype(dtype), window

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape, self.dtype)
        for i in range(self.shape[0]):
            for s, e in _tile_bounds(self.shape[2]):
                out[i, :, s:e] = self.window(i, s, e)
        return out if dtype is None else out.astype(dtype, copy=False)


def _padded(shape, dtype, inside):
    """`Windows` that read inside(i, lo, hi) for 0 <= lo <= hi <= T, and 0 outside [0, T)."""
    c, t = shape[1], shape[2]

    def window(i, lo, hi):
        s, e = max(lo, 0), min(hi, t)
        if (s, e) == (lo, hi):
            return inside(i, lo, hi)
        out = np.zeros((c, hi - lo), dtype=dtype)
        if s < e:
            out[:, s - lo : e - lo] = inside(i, s, e)
        return out
    return Windows(shape, dtype, window)


def _window_reader(x):
    """The `window` function of x, an ndarray or `Windows`; an ndarray's window inside [0, T) is a view."""
    if isinstance(x, Windows):
        return x.window
    return _padded(x.shape, x.dtype, lambda i, lo, hi: x[i, :, lo:hi]).window


# --- elementwise -------------------------------------------------------------


def relu_forward(x):
    out = np.maximum(x, 0)
    return out, out  # out > 0 exactly where x > 0


def relu_backward(dout, cache):
    # subgradient at exactly 0 is 0
    return dout * (cache > 0)


def sigmoid(x):
    """Numerically stable logistic, clamped into the open interval (0, 1).

    The clamp keeps outputs strictly inside (0, 1) even where the exact value
    would round to 0.0 or 1.0 in the working precision.
    """
    x = np.asarray(x)
    e = np.exp(-np.abs(x))  # never overflows; for x < 0 it is exp(x) itself
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    tiny = np.nextafter(x.dtype.type(0), x.dtype.type(1))
    top = np.nextafter(x.dtype.type(1), x.dtype.type(0))
    return np.clip(out, tiny, top)


def sigmoid_forward(x):
    out = sigmoid(x)
    return out, out


def sigmoid_backward(dout, cache):
    s = cache
    return dout * s * (1.0 - s)


# --- linear ------------------------------------------------------------------


def linear_forward(x, w, b):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: expected x (B, {w.shape[1] if w.ndim == 2 else '?'}), got x {x.shape}, w {w.shape}")
    out = x @ w.T + b
    return out, (x, w)


def linear_backward(dout, cache):
    x, w = cache
    dx = dout @ w
    dw = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dw, db


# --- 1-D convolution (kernel 3, stride 1, padding 1) --------------------------

_TILE = 8192  # time samples per tile; at C=64, 4 MiB L2: 4096-16384 ran alike, 2048 slower


def _tile_bounds(t: int) -> list[tuple[int, int]]:
    """ceil(t / _TILE) near-equal (start, stop) tiles of a length-t axis.

    Near-equal, so no tile is one column, which the BLAS would run as a
    matrix-vector product; starts are multiples of 64, so each column keeps its
    place in the GEMM kernel's column blocks. Both keep every tiled product bit
    for bit what the untiled GEMM computes. A _TILE below 128 can round two
    starts to one; the tile between them is dropped, so no tile is empty.
    """
    n = max(1, -(-t // _TILE))
    starts = list(dict.fromkeys(k * t // n // 64 * 64 for k in range(n)))
    return list(zip(starts, starts[1:] + [t]))


def _conv_window(xw, taps, product, out=None, scratch=None):
    """The conv of the window xw, which is one column wider on each side than the output, into out if given.

    taps are (W, k) in summation order; tap (W, k) adds product(W, xw[:, k : k + n])
    to the n output columns. The first product writes out, the others go through
    scratch, one buffer at least n columns wide, allocated here if not given.
    """
    n = xw.shape[1] - 2
    (w, k), *rest = taps
    out = product(w, xw[:, k : k + n], out=out)
    for w, k in rest:
        scratch = product(w, xw[:, k : k + n], out=None if scratch is None else scratch[:, :n])
        out += scratch
    return out


def _conv_tiles(src, taps, out, product=np.matmul):
    """Fill out[i] with the conv of src[i] by taps (`_conv_window`), one tile at a time.

    src is an ndarray or `Windows`; tile [s, e) of batch row i reads the window
    src[i, :, s - 1 : e + 1] through `_window_reader`, zero past either end of
    the row, and writes out[i, :, s:e] from it, so a tile is finished when it is
    yielded and no state passes from one tile to the next. One tile-sized
    scratch buffer serves every tile. Yields (i, tile, s) after each tile: tile
    is columns s:e of src's row i.
    """
    b, _, t = src.shape
    read, bounds = _window_reader(src), _tile_bounds(t)
    scratch = np.empty((out.shape[1], max(e - s for s, e in bounds)), dtype=out.dtype)
    for i in range(b):
        for s, e in bounds:
            xw = read(i, s - 1, e + 1)
            _conv_window(xw, taps, product, out[i, :, s:e], scratch)
            yield i, xw[:, 1:-1], s


def _check_conv(x, w):
    if len(x.shape) != 3:
        raise ShapeError(f"conv1d: expected x (B, C_in, T), got {x.shape}")
    if w.ndim != 3 or w.shape[2] != 3:
        raise ShapeError(f"conv1d: expected w (C_out, C_in, 3), got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: x has {x.shape[1]} channels but w expects {w.shape[1]}")


def _conv_product(w):
    """The product that applies a tap of w: the stem (C_in = 1) multiplies by
    broadcasting, which is cheaper than a K=1 GEMM."""
    return np.multiply if w.shape[1] == 1 else np.matmul


def _taps(w):
    """The taps of w for `_conv_window`, summed 1, 0, 2; tap k reads x[t + k - 1]."""
    return [(w[:, :, k], k) for k in (1, 0, 2)]


def conv1d_forward(x, w):
    _check_conv(x, w)
    out = np.empty((x.shape[0], w.shape[0], x.shape[2]), dtype=np.result_type(x.dtype, w.dtype))
    for _ in _conv_tiles(x, _taps(w), out, _conv_product(w)):
        pass
    return out, (x, w)


def conv1d_backward(dout, cache):
    """(dx, dw). dx is the conv of dout with the transposed taps, summed 1, 0, 2 like the
    forward; dw accumulates each tap's products tile by tile, while the dout tile is in cache,
    from the columns [s - 1, e + 1) of x that the tile needs, clamped to [0, T). dout and the
    cached input may each be an ndarray or `Windows`."""
    x, w = cache
    t = x.shape[2]
    dx = np.empty(x.shape, dtype=np.result_type(dout.dtype, w.dtype))
    dw = np.zeros(w.shape, dtype=dx.dtype)
    taps = [(wk.T, 2 - k) for wk, k in _taps(w)]  # tap k carries dout[t] to dx[t + k - 1]
    read_x = _window_reader(x)
    for i, d, s in _conv_tiles(dout, taps, dx):
        e, lo = s + d.shape[1], max(s - 1, 0)
        xw = read_x(i, lo, min(e + 1, t))
        for k in range(3):  # tap k: dw[:, :, k] = sum over t of dout[t] x[t + k - 1]^T
            l, h = max(s, 1 - k), min(e, t + 1 - k)
            dw[:, :, k] += np.matmul(d[:, l - s : h - s], xw[:, l + k - 1 - lo : h + k - 1 - lo].T)
    return dx, dw


# --- batch normalization over (batch, time) per channel -----------------------


def _running_invstd(state: BatchNormState):
    if not state.initialized:
        raise TrainingError("batchnorm1d: eval mode before any train step or checkpoint load")
    return 1.0 / np.sqrt(state.running_var + state.eps)


def batchnorm1d_forward(x, gamma, beta, state: BatchNormState, mode: str):
    if x.ndim != 3 or x.shape[1] != gamma.shape[0]:
        raise ShapeError(f"batchnorm1d: expected x (B, {gamma.shape[0]}, T), got {x.shape}")
    if mode == "train":
        n = x.shape[0] * x.shape[2]
        if n < 2:
            raise ShapeError("batchnorm1d train mode needs >= 2 elements per channel")
        mean = x.mean(axis=(0, 2))
        xhat = x - mean[None, :, None]
        var = (xhat * xhat).sum(axis=(0, 2)) / n  # biased; the same sums as x.var
        invstd = 1.0 / np.sqrt(var + state.eps)
        m = state.momentum
        state.running_mean[...] = (1 - m) * state.running_mean + m * mean
        state.running_var[...] = (1 - m) * state.running_var + m * var * (n / (n - 1))
        state.initialized = True
    elif mode == "eval":  # the unfolded reference for `fold_batchnorm`; no backward
        invstd = _running_invstd(state)
        xhat = x - state.running_mean[None, :, None]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    xhat *= invstd[None, :, None]
    out = gamma[None, :, None] * xhat
    out += beta[None, :, None]
    return out, ((xhat, gamma, invstd) if mode == "train" else None)


def batchnorm1d_backward(dout, cache):
    xhat, gamma, invstd = cache
    dgamma = (dout * xhat).sum(axis=(0, 2))
    dbeta = dout.sum(axis=(0, 2))
    n = dout.shape[0] * dout.shape[2]
    # fused train-mode backward through mean and variance:
    # dx = gamma * invstd / n * (n * dout - dbeta - xhat * dgamma)
    dx = n * dout
    dx -= dbeta[None, :, None]
    dx -= xhat * dgamma[None, :, None]
    dx *= (gamma * invstd)[None, :, None] / n
    return dx, dgamma, dbeta


# --- training: batch norm, skip add and ReLU fused --------------------------------


def _affine_relu(x, scale, shift, skip=None):
    """relu(x * scale + shift + skip) into a fresh array, with per-channel (C, 1) scale and shift.

    x is (B, C, T) or columns of one (C, T) batch row; elementwise, so a window
    gives bit for bit that window of the whole.
    """
    out = x * scale
    out += shift
    if skip is not None:
        out += skip
    return np.maximum(out, 0, out=out)


def _affine_relu_windows(x, scale, shift):
    """relu(x * scale + shift) as `Windows` over the ndarray x: bit for bit the output of a forward without a skip."""
    return _padded(x.shape, x.dtype, lambda i, lo, hi: _affine_relu(x[i, :, lo:hi], scale, shift))


def batchnorm_relu_forward(x, gamma, beta, state: BatchNormState, skip=None):
    """Training only: relu(batchnorm1d(x) + skip), normalized by the batch statistics.

    The batch statistics update the running ones. The per-channel sum and sum of squares each take one float64 pass over x;
    in float64 the one-pass variance E[x^2] - mean^2 loses nothing that matters
    for float32 data. The output is one fresh array, x * scale + shift, to which
    the skip is added and the ReLU applied in place. The cache keeps the
    per-channel scale and shift in x's dtype, from which the output can be
    rebuilt (`_affine_relu_windows`) where it is not kept.
    """
    if x.ndim != 3 or x.shape[1] != gamma.shape[0]:
        raise ShapeError(f"batchnorm_relu: expected x (B, {gamma.shape[0]}, T), got {x.shape}")
    n = x.shape[0] * x.shape[2]
    if n < 2:
        raise ShapeError("batchnorm_relu needs >= 2 elements per channel")
    mean = x.sum(axis=(0, 2), dtype=np.float64) / n
    var = np.einsum("bct,bct->c", x, x, dtype=np.float64) / n - mean * mean
    var = np.maximum(var, 0.0)  # a constant channel may round below 0
    invstd = 1.0 / np.sqrt(var + state.eps)
    m = state.momentum
    state.running_mean[...] = (1 - m) * state.running_mean + m * mean
    state.running_var[...] = (1 - m) * state.running_var + m * var * (n / (n - 1))
    state.initialized = True
    scale = gamma * invstd
    affine = scale.astype(x.dtype)[:, None], (beta - mean * scale).astype(x.dtype)[:, None]
    out = _affine_relu(x, *affine, skip=skip)
    return out, (x, mean, invstd, gamma, affine, out, skip is not None)


def batchnorm_relu_backward(dout, cache):
    """(dx, dgamma, dbeta), and dskip when the forward took a skip.

    With g the upstream gradient under the ReLU mask and xhat = (x - mean) * invstd,
    dx = gamma * invstd / n * (n * g - sum(g) - xhat * sum(g * xhat)), which is
    a * g + b * x + k with per-channel a, b, k. One pass over whole batch rows
    sums g and g * x in float64; dx is returned as `Windows` that rebuild each
    window of g and apply a, b, k to it. So neither g nor dx is ever full-size,
    except g when it is returned as dskip. dout is an ndarray; the cached
    output may be an ndarray or Windows.
    """
    x, mean, invstd, gamma, _, out, has_skip = cache
    t = x.shape[2]
    n = x.shape[0] * t
    read_out = _window_reader(out)

    def masked(i, lo, hi, into=None):  # subgradient at exactly 0 is 0
        return np.multiply(dout[i, :, lo:hi], read_out(i, lo, hi) > 0, out=into)

    g = np.empty(x.shape, dtype=dout.dtype) if has_skip else None
    dbeta = np.zeros(x.shape[1])
    sum_gx = np.zeros(x.shape[1])
    for i in range(x.shape[0]):
        gi = masked(i, 0, t, None if g is None else g[i])
        dbeta += gi.sum(axis=1, dtype=np.float64)
        sum_gx += np.einsum("ct,ct->c", gi, x[i], dtype=np.float64)
    dgamma = invstd * (sum_gx - mean * dbeta)
    a = gamma * invstd
    b = -a * invstd * dgamma / n
    k = -a * dbeta / n - b * mean
    a, b, k = (v.astype(dout.dtype)[:, None] for v in (a, b, k))

    def dx(i, lo, hi):
        d = (masked(i, lo, hi) if g is None else g[i, :, lo:hi]) * a
        d += x[i, :, lo:hi] * b
        d += k
        return d

    grads = (_padded(x.shape, dout.dtype, dx), dgamma.astype(dout.dtype), dbeta.astype(dout.dtype))
    return grads + (g,) if has_skip else grads


# --- inference: batch norm folded into the conv before it ----------------------


def fold_batchnorm(w, gamma, beta, state: BatchNormState):
    """Conv weight and bias with the eval-mode batch norm after the conv folded in.

    Per output channel, with s = gamma / sqrt(running_var + eps):
    w' = w * s and b' = beta - running_mean * s, so conv1d(x, w') + b'
    equals batchnorm1d(conv1d(x, w), mode="eval") up to rounding.
    """
    scale = gamma * _running_invstd(state)
    return w * scale[:, None, None], beta - state.running_mean * scale


def _folded_unit(xw, w, b, lo, hi, t, skip=None):
    """Inference only: relu(conv1d(x, w) + b + skip) at columns lo:hi of a length-t row.

    xw holds the input columns lo - 1 : hi + 1, with zeros outside [0, t), and
    `_conv_window` applies the taps to it as in training. The rest is the
    epilogue: skip, if given, is columns lo:hi, and output columns outside
    [0, t) are zeroed: they are the next conv's padding.
    """
    out = _conv_window(xw, _taps(w), _conv_product(w))
    out += b[:, None]
    if skip is not None:
        out += skip
    np.maximum(out, 0, out=out)
    out[:, : max(0, -lo)] = 0
    out[:, max(0, t - lo) :] = 0
    return out


def _folded_windows(x, folds, skip: bool):
    """Inference only: the folded units `folds`, [(w, b), ...], run in order over x as `Windows`.

    Each window of the output reads one window of x, n columns wider on each
    side for n units; with `skip`, its middle is added to the last unit's
    output as the residual.
    """
    for w, _ in folds:
        _check_conv(x, w)
    read, t, n = _window_reader(x), x.shape[2], len(folds)

    def window(i, lo, hi):
        h = xw = read(i, lo - n, hi + n)
        for k, (w, b) in enumerate(folds, 1):
            res = xw[:, n : n + hi - lo] if skip and k == n else None
            h = _folded_unit(h, w, b, lo - n + k, hi + n - k, t, res)
        return h
    w_last = folds[-1][0]
    return Windows((x.shape[0], w_last.shape[0], t), np.result_type(x.dtype, w_last.dtype), window)


# --- conv -> batch norm -> ReLU: the stem and each residual block half ---------


def conv_bn_relu_forward(x, w, gamma, beta, state: BatchNormState, mode: str, skip=None):
    """relu(BN(conv1d(x, w)) + skip). Train mode runs `conv1d_forward` and then
    `batchnorm_relu_forward`; eval mode folds the batch norm into the conv,
    returns the output as `Windows` and no cache, and takes no skip."""
    if mode == "eval":
        if skip is not None:
            raise ValueError("an eval unit takes no skip; residual_block_forward adds its own")
        return _folded_windows(x, [fold_batchnorm(w, gamma, beta, state)], skip=False), None
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")
    c, cache_conv = conv1d_forward(x, w)
    out, cache_bn = batchnorm_relu_forward(c, gamma, beta, state, skip)
    return out, (cache_conv, cache_bn)


def conv_bn_relu_backward(dout, cache):
    """(dx, dw, dgamma, dbeta), and dskip when the forward took a skip."""
    cache_conv, cache_bn = cache
    dc, *grads = batchnorm_relu_backward(dout, cache_bn)
    dx, dw = conv1d_backward(dc, cache_conv)
    return (dx, dw, *grads)


# --- adaptive average pooling --------------------------------------------------


def _pool_bins(t: int, out_len: int) -> list[tuple[int, int]]:
    return [(int(np.floor(j * t / out_len)), int(np.ceil((j + 1) * t / out_len))) for j in range(out_len)]


def adaptive_avg_pool1d_forward(x, out_len: int):
    if out_len <= 0:
        raise ValueError(f"out_len must be positive, got {out_len}")
    t = x.shape[2]
    if out_len > t:
        raise ValueError(f"out_len {out_len} exceeds input length {t}")
    bins = _pool_bins(t, out_len)
    if isinstance(x, Windows):
        return _pool_windows(x, bins), (t, bins)
    out = np.empty(x.shape[:2] + (out_len,), dtype=x.dtype)
    for j, (s, e) in enumerate(bins):
        out[:, :, j] = x[:, :, s:e].mean(axis=2)
    return out, (t, bins)


def _pool_windows(x, bins):
    """The bin means of `Windows`, read one batch row and one tile at a time into float64 sums.

    Adjacent bins may share a column, so a column can count toward two bins.
    """
    tiles = [(s, e, [(j, max(a, s), min(b, e)) for j, (a, b) in enumerate(bins) if a < e and b > s])
             for s, e in _tile_bounds(x.shape[2])]
    sums = np.zeros(x.shape[:2] + (len(bins),))
    for i in range(x.shape[0]):
        for s, e, parts in tiles:
            tile = x.window(i, s, e)
            for j, a, b in parts:
                sums[i, :, j] += tile[:, a - s : b - s].sum(axis=1, dtype=np.float64)
            del tile  # else it stays alive while the next tile is built
    sums /= [e - s for s, e in bins]
    return sums.astype(x.dtype)


def adaptive_avg_pool1d_backward(dout, cache):
    t, bins = cache
    dx = np.zeros(dout.shape[:2] + (t,), dtype=dout.dtype)
    for j, (s, e) in enumerate(bins):
        dx[:, :, s:e] += dout[:, :, j : j + 1] / (e - s)
    return dx


# --- GRU -----------------------------------------------------------------------


@dataclass
class GRUDirParams:
    """One direction's weights: input-to-hidden (H, I), hidden-to-hidden (H, H)."""

    w_ir: np.ndarray
    w_iz: np.ndarray
    w_in: np.ndarray
    w_hr: np.ndarray
    w_hz: np.ndarray
    w_hn: np.ndarray
    b_ir: np.ndarray
    b_iz: np.ndarray
    b_in: np.ndarray
    b_hr: np.ndarray
    b_hz: np.ndarray
    b_hn: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_ir.shape[0]


def gru_forward(x, p: GRUDirParams):
    """Run one direction over (B, T, I); returns the final hidden state (B, H).

    The input projections W_i* x_t + b_i* of all steps are one GEMM before the
    time loop, which is left with the hidden-to-hidden products.
    """
    if x.ndim != 3 or x.shape[2] != p.w_ir.shape[1]:
        raise ShapeError(f"gru: expected x (B, T, {p.w_ir.shape[1]}), got {x.shape}")
    b, t, _ = x.shape
    hid = p.hidden
    xs = x.reshape(b * t, -1)  # a copy when x is the reversed view of the backward direction
    w_i = np.concatenate([p.w_ir, p.w_iz, p.w_in])
    a = (xs @ w_i.T + np.concatenate([p.b_ir, p.b_iz, p.b_in])).reshape(b, t, 3 * hid)
    h = np.zeros((b, hid), dtype=x.dtype)
    steps = []
    for i in range(t):
        a_r, a_z, a_n = a[:, i, :hid], a[:, i, hid : 2 * hid], a[:, i, 2 * hid :]
        r = sigmoid(a_r + h @ p.w_hr.T + p.b_hr)
        z = sigmoid(a_z + h @ p.w_hz.T + p.b_hz)
        hn = h @ p.w_hn.T + p.b_hn
        n = np.tanh(a_n + r * hn)
        h_new = (1.0 - z) * n + z * h
        steps.append((h, r, z, n, hn))
        h = h_new
    return h, (steps, p, xs, w_i, x.shape)


def gru_backward(dh_final, cache):
    """Backprop-through-time; gradient arrives only at the final hidden state.

    Returns (dx, *grads), the grads in GRUDirParams field order. The loop
    collects the gradients of the input pre-activations; dx, dW_i* and db_i*
    are one GEMM or sum each after it.
    """
    steps, p, xs, w_i, x_shape = cache
    b, t, _ = x_shape
    hid = p.hidden
    da = np.empty((b, t, 3 * hid), dtype=dh_final.dtype)  # d(r, z, n pre-activations) per step
    g = {k: np.zeros_like(getattr(p, k)) for k in ("w_hr", "w_hz", "w_hn", "b_hn")}
    dh = dh_final
    for i in range(t - 1, -1, -1):
        h_prev, r, z, n, hn = steps[i]
        dn = dh * (1.0 - z)
        dz = dh * (h_prev - n)
        dh_prev = dh * z
        da_n = dn * (1.0 - n * n)
        dgh_n = da_n * r
        dr = da_n * hn
        da_r = dr * r * (1.0 - r)
        da_z = dz * z * (1.0 - z)
        da[:, i, :hid], da[:, i, hid : 2 * hid], da[:, i, 2 * hid :] = da_r, da_z, da_n

        dh_prev = dh_prev + da_r @ p.w_hr + da_z @ p.w_hz + dgh_n @ p.w_hn

        g["w_hr"] += da_r.T @ h_prev
        g["w_hz"] += da_z.T @ h_prev
        g["w_hn"] += dgh_n.T @ h_prev
        g["b_hn"] += dgh_n.sum(axis=0)
        dh = dh_prev
    da = da.reshape(b * t, 3 * hid)
    dx = (da @ w_i).reshape(x_shape)
    dw_i = da.T @ xs
    db_i = da.sum(axis=0)
    g.update(w_ir=dw_i[:hid], w_iz=dw_i[hid : 2 * hid], w_in=dw_i[2 * hid :],
             b_ir=db_i[:hid], b_iz=db_i[hid : 2 * hid], b_in=db_i[2 * hid :],
             b_hr=db_i[:hid], b_hz=db_i[hid : 2 * hid])
    return (dx, *(g[k] for k in vars(p)))  # in GRUDirParams field order


def bigru_forward(x, *weights):
    """Bidirectional GRU over (B, C, T); output is the two final hidden states concatenated (B, 2H).

    weights: the forward direction's GRUDirParams fields, then the backward's."""
    n = len(weights) // 2
    fwd, bwd = GRUDirParams(*weights[:n]), GRUDirParams(*weights[n:])
    xt = np.ascontiguousarray(x.transpose(0, 2, 1))  # gru_forward reads (B, T, C)
    h_f, cache_f = gru_forward(xt, fwd)
    h_b, cache_b = gru_forward(xt[:, ::-1, :], bwd)
    return np.concatenate([h_f, h_b], axis=1), (cache_f, cache_b, fwd.hidden)


def bigru_backward(dout, cache):
    """(dx, *forward-direction grads, *backward-direction grads), in `bigru_forward`'s weight order."""
    cache_f, cache_b, hidden = cache
    dx_f, *g_f = gru_backward(dout[:, :hidden], cache_f)
    dx_b, *g_b = gru_backward(dout[:, hidden:], cache_b)
    return np.ascontiguousarray((dx_f + dx_b[:, ::-1, :]).transpose(0, 2, 1)), *g_f, *g_b


# --- residual block ------------------------------------------------------------


def residual_block_forward(x, w1, gamma1, beta1, w2, gamma2, beta2, state1, state2, mode: str):
    """y = relu(BN2(conv2(relu(BN1(conv1(x))))) + x); channel count is preserved.

    Two conv -> BN -> ReLU units, the second adding the skip. Eval mode folds
    both and returns the output as `Windows`, each read from one window of x
    that is also the skip, and no cache. In train mode the block does not keep
    unit 1's output a1: unit 1's batch norm (for its ReLU mask) and unit 2's
    conv (for its dw) hold `Windows` that rebuild it from unit 1's conv output.
    """
    if mode == "eval":
        folds = [fold_batchnorm(w1, gamma1, beta1, state1), fold_batchnorm(w2, gamma2, beta2, state2)]
        return _folded_windows(x, folds, skip=True), None
    a1, cache1 = conv_bn_relu_forward(x, w1, gamma1, beta1, state1, mode)
    out, cache2 = conv_bn_relu_forward(a1, w2, gamma2, beta2, state2, mode, skip=x)
    conv1, (c1, mean, invstd, gamma, affine, _, has_skip) = cache1
    (_, w), bn2 = cache2
    a1 = _affine_relu_windows(c1, *affine)
    return out, ((conv1, (c1, mean, invstd, gamma, affine, a1, has_skip)), ((a1, w), bn2))


def residual_block_backward(dout, cache):
    """(dx, dw1, dgamma1, dbeta1, dw2, dgamma2, dbeta2)."""
    cache1, cache2 = cache
    da1, *grads2, dskip = conv_bn_relu_backward(dout, cache2)
    dx, *grads1 = conv_bn_relu_backward(da1, cache1)
    dx += dskip
    return (dx, *grads1, *grads2)


# --- optimizer -----------------------------------------------------------------


class Adam:
    """Adam with bias correction; zeroes gradients after each applied step."""

    def __init__(self, params: dict[str, ParamTensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def step(self) -> None:
        """Apply one step to every parameter, or raise before changing any state."""
        for name, p in self.params.items():
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.grad[...] = 0.0
