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
its ReLU mask, out > 0, packed along time with np.packbits into a (B, C,
ceil(T / 8)) uint8 array, one bit per sample; never its output, nor xhat. Its
backward unpacks the bits a window at a time (`_mask_reader`). conv1d caches
its unpadded input, so an activation is held once, by the conv that reads it:
the stem's output only as res0's conv1 input, and the last block's output by
no cache at all. A residual block never builds the output a1 of its first
unit in full: unit 1 returns it as `Windows` that build any window of it from
unit 1's conv output c1 with the cached scale and shift, bit for bit, and
unit 2's conv reads it a tile at a time and keeps it for its dw. As each a1
tile passes, that conv packs the tile's mask into unit 1's bits, so a1 is
never rebuilt for them. So a block holds c1, its unit-2 conv output c2 and two
masks, and its input is held by its conv1. Two gradients are `Windows` as
well: the one a unit's batch norm passes to its conv, and the pool's dx, whose
windows are built from the (B, C, pool_len) upstream gradient. `Windows` is
the one lazy array type, and a kernel reads a (B, C, T) operand that may be
lazy only through `_window_reader`, which gives views of an ndarray.
`batchnorm1d_*` and `relu_*` are the unfused reference the fused pair is
tested against; the head runs `relu_*`. No kernel keeps a padded or otherwise
copied (B, C, T) array, and kernels never write into an array a cache holds.
They write into fresh outputs, except in one epilogue: unit 2's masked
gradient is the block's dskip, and unit 1's conv backward adds each finished
dx tile into it (`conv1d_backward`'s into), so the block's dx needs no array
of its own.
`Model.backward` frees each layer's cache as its backward returns, so a
training step peaks in the last block's conv backwards: all held caches but
the head's, plus dskip, da1 and a few tile-sized buffers; the upstream
gradient there is the pool's `Windows`, which holds nothing full-size.

Batch statistics: a training conv's tile body returns the per-channel float64
sum and sum of squares of its output tile while that is in cache
(`_tile_moments`), and the batch norm after the conv reads their totals, so no
pass over a whole conv output computes them. The batch-norm backward sums g and
g * x the same way. Each tile goes through a reused float64 buffer, one per
thread: a float32 value, square or product is exact in float64, and only the
summation order differs from one whole-array float64 pass.

Tile convention: every loop over batch rows and time tiles runs in one driver,
`_tile_pass`: the training convs, `_moments`, the batch norm's mask pack and
backward sums, the pool of `Windows` and `np.asarray` of `Windows`. Tiles are
about `_TILE` samples and start at multiples of 64, so a tile of packed mask
bits fills whole bytes. The batch rows run on min(usable cores, OpenBLAS's
thread count, B) participants (`_participants`): the calling thread and
threads of one lazily started pool, which take rows in turn. OpenBLAS runs at
one thread meanwhile, and gets its count back when the pass ends; with one
participant, the pass is a plain loop on the caller. There is one participant
under any other BLAS and for a pass of fewer than `_THREADED_MIN` B * C * T
elements, which the caller finishes before a thread handoff would. A body
writes only into its own row of an output. Its tile buffers (a conv's scratch
where it has one, float64 sum buffers) are one set per participant, all
allocated by the caller:
glibc would keep buffers freed by a pool thread in that thread's malloc arena,
which adds to the process's peak RSS.
The fold order is `_tile_pass`'s alone: a body returns its tile's partials, and
only the caller adds them into the accumulators, row by row and tile by tile,
so every cross-tile sum (the moments, dw, dgamma, dbeta) rounds the same way
on one thread and on several. One function, `_conv_window`, applies conv
taps, in training and eval alike. It reads a window one column wider on each
side than its output, zero past either end of the row, and sums tap 1, then 0,
then 2. A conv's tile [s, e) reads its haloed window, columns s - 1 : e + 1,
through `_window_reader`, so a lazy input (a1, or the batch-norm gradient) is
built tile by tile, and a tile's input, output and scratch stay in a core's L2
cache. Only the sums carry over from one tile to the next: output columns s:e
are finished, and the body's locals freed, when the body returns. The conv
backward's dw reads the tile's columns of x, one wider on each side but clamped
to [0, T), the same way. No conv allocates a full-size tap buffer. A window
that reaches past either end of the row is one zero-filled buffer, into whose
middle a lazy source writes (`_padded`). Each output element sums the same
products in the same order as an untiled conv. In float32 the forward and dx
are bit-identical to it, at any BLAS thread count (except, across tiles, the
dx of a C_in = 1 conv, whose taps are matrix-vector products that the BLAS
rounds by position). OpenBLAS's float64 GEMM rounds a column by its place in
the call and by how the call is split over threads, so in float64 they agree
with it to a few ulps. dw sums its tiles in another order.

BLAS taps: a float32 matmul tap is one call to the sgemm of the OpenBLAS that
numpy ships (`_sgemm`, through ctypes, which drops the GIL as numpy does),
straight into the output tile: tap 1 with beta=0, then taps 0 and 2 with
beta=1, so the BLAS adds each into the output in its micro-kernel, and no
elementwise pass over the tile adds them. With K = C_in up to `_SGEMM_MAX_K`
the contraction is one k-block, and C += AB rounds as numpy's `out += A @ B`
does: the same bits. Every other tap takes numpy's path, tap 1 into the output
and taps 0 and 2 through one tile-sized scratch buffer: float64 (the gradient
checks), the C_in = 1 stem's forward (a broadcast multiply), any product with
M, N or K of 1 (numpy runs it as a matrix-vector product, which rounds
otherwise), K past `_SGEMM_MAX_K`, operands the call cannot read in place, and
any BLAS that `_openblas` does not find. A conv whose taps all take the BLAS
gets no scratch buffer. The dw GEMMs, which contract over a whole tile, and the
dx epilogue of `conv1d_backward`'s into stay numpy.

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

import contextlib
import ctypes
import functools
import math
import os
import threading
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
        _tile_pass(self.shape, lambda i, s, e: np.copyto(out[i, :, s:e], self.window(i, s, e)))
        return out if dtype is None else out.astype(dtype, copy=False)


def _padded(shape, dtype, inside):
    """`Windows` that read inside(i, lo, hi, out) for 0 <= lo <= hi <= T, and 0 outside [0, T).

    inside returns columns lo:hi of batch row i, or, given out, writes them
    there. A window that reaches past the row is one zero-filled buffer, into
    whose middle inside writes.
    """
    c, t = shape[1], shape[2]

    def window(i, lo, hi):
        s, e = max(lo, 0), min(hi, t)
        if (s, e) == (lo, hi):
            return inside(i, lo, hi)
        out = np.zeros((c, hi - lo), dtype=dtype)
        if s < e:
            inside(i, s, e, out[:, s - lo : e - lo])
        return out
    return Windows(shape, dtype, window)


def _window_reader(x):
    """The `window` function of x, an ndarray or `Windows`; an ndarray's window inside [0, T) is a view."""
    if isinstance(x, Windows):
        return x.window

    def inside(i, lo, hi, out=None):
        return x[i, :, lo:hi] if out is None else np.copyto(out, x[i, :, lo:hi])
    return _padded(x.shape, x.dtype, inside).window


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
    to the n output columns. A matmul tap that `_sgemm` takes is one BLAS call
    straight into out, the first with beta=0 and the others with beta=1, so the
    BLAS adds each later product into out itself. Otherwise the first product
    writes out and the others go through scratch, one buffer at least n columns
    wide, allocated here if not given. Both ways give the same bits.
    """
    n, first = xw.shape[1] - 2, taps[0][0]
    if out is None:
        out = np.empty((first.shape[0], n), dtype=np.result_type(first.dtype, xw.dtype))
    for j, (w, k) in enumerate(taps):
        x = xw[:, k : k + n]
        if product is np.matmul and _sgemm(w, x, out, beta=0.0 if j == 0 else 1.0):
            continue
        if j == 0:
            product(w, x, out=out)
        else:
            scratch = product(w, x, out=None if scratch is None else scratch[:, :n])
            out += scratch
    return out


def _tile_width(t: int) -> int:
    """The widest of `_tile_bounds(t)`: the columns a reused tile buffer needs."""
    return max(e - s for s, e in _tile_bounds(t))


# Process-wide, as OpenBLAS's thread count is: one threaded pass at a time, on one pool of
# participants besides the caller, started by the first threaded pass. A pass that finds the
# lock held runs serially.
_PASS_LOCK = threading.Lock()
_POOL = None
# B * C * T below which a pass runs on the caller alone. Measured on 2 cores, serial against two
# threads: `_moments` 31-159 against 70-273 us and a conv forward 114-906 against 186-1064 us at
# 512-128000 elements; every pass the benchmark runs has at least 192000.
_THREADED_MIN = 1 << 17


@functools.cache
def _openblas():
    """(get, set, sgemm) of the OpenBLAS that numpy ships in numpy.libs, or None for any other BLAS.

    get and set read and set its thread count; sgemm is its ILP64 cblas_sgemm.
    """
    libs = os.path.dirname(np.__file__) + ".libs"
    names = [n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_")] if os.path.isdir(libs) else []
    if len(names) != 1:
        return None
    try:
        lib = ctypes.CDLL(os.path.join(libs, names[0]))  # numpy has it loaded already, so this is the same library
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        sgemm = lib.scipy_cblas_sgemm64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    i, f, p = ctypes.c_int64, ctypes.c_float, ctypes.c_void_p
    sgemm.argtypes = [ctypes.c_int] * 3 + [i, i, i, f, p, i, p, i, f, p, i]
    sgemm.restype = None
    return get, set_, sgemm


# cblas_sgemm's order and transpose arguments
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112
# The deepest contraction `_sgemm` takes. Within OpenBLAS's k-block one call adds a @ b into c once, as
# numpy's `c += a @ b` does; past it each k-block is added into c in turn, which rounds otherwise. On
# SkylakeX the bits matched up to K = 448 and not at 512; 128 leaves a margin for shallower k-blocks.
_SGEMM_MAX_K = 128


def _sgemm_takes(m: int, k: int, dtype) -> bool:
    """Whether `_sgemm` can take an (m, k) a of this dtype: OpenBLAS, float32, m >= 2 and 2 <= k <= `_SGEMM_MAX_K`."""
    return dtype == np.float32 and m > 1 and 1 < k <= _SGEMM_MAX_K and _openblas() is not None


def _leading(v):
    """The row stride, in elements, of a 2-D array that the BLAS reads row-major in place, or None."""
    rows, cols = v.strides
    fits = v.flags.aligned and cols == v.itemsize and rows % v.itemsize == 0 and rows // v.itemsize >= v.shape[1]
    return rows // v.itemsize if fits else None


def _sgemm(a, b, c, beta: float) -> bool:
    """c = a @ b + beta * c in place by one OpenBLAS sgemm call, and True; False, with c untouched, where it cannot.

    It takes float32 operands of `_sgemm_takes` shapes with n >= 2: numpy runs a
    product with one row or column as a matrix-vector product, which rounds
    otherwise. a is read contiguous, in either order, which gives its leading
    dimension and whether it is transposed; a conv tap, a strided view of the
    weight, is copied in its own axis order, as numpy's matmul copies it: the
    BLAS's small-matrix kernels round a transposed a otherwise. b and c need
    unit column stride (`_leading`). a, b and c stay referenced here until the
    call returns.
    """
    (m, k), n = a.shape, b.shape[1]
    if (not _sgemm_takes(m, k, a.dtype) or n < 2 or b.shape[0] != k or c.shape != (m, n)
            or b.dtype != np.float32 or c.dtype != np.float32 or not c.flags.writeable):
        return False
    ldb, ldc = _leading(b), _leading(c)
    if ldb is None or ldc is None:
        return False
    if not (a.flags.c_contiguous or a.flags.f_contiguous):
        a = a.copy(order="K")
    trans, lda = (_NO_TRANS, k) if a.flags.c_contiguous else (_TRANS, m)
    _openblas()[2](_ROW_MAJOR, trans, _NO_TRANS, m, n, k, 1.0, a.ctypes.data, lda, b.ctypes.data, ldb,
                   beta, c.ctypes.data, ldc)
    return True


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS at one thread inside the block, and restore its thread count however the block ends."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas[:2]
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def _cores() -> int:
    """The cores this process may run on: its affinity mask where the platform has one (Linux), else os.cpu_count()."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _participants(shape) -> int:
    """How many threads run a pass over a (B, C, T) shape: min(usable cores, OpenBLAS's threads, B), or 1 with any
    other BLAS or for a pass of fewer than `_THREADED_MIN` elements, which the caller finishes sooner alone."""
    blas = _openblas()
    return 1 if blas is None or shape[0] < 2 or math.prod(shape) < _THREADED_MIN else min(_cores(), blas[0](), shape[0])


def _tile_pass(shape, body, *sums, buffers=()):
    """Call body(i, s, e, *bufs) for each batch row i of a (B, C, T) shape and each tile [s, e) of `_tile_bounds(T)`.

    body returns one partial per accumulator in sums, in their order, or
    nothing when there are none; once every row is done they are added in
    place in (row, tile) order. buffers lists (channels, dtype) pairs or None,
    and bufs is one tile buffer of shape (channels, `_tile_width(T)`) for each
    pair, which only the thread running body uses, and None for each None. The
    rows run on `_participants(shape)` threads, the caller among them, which
    take rows in turn.
    """
    bounds, width = _tile_bounds(shape[2]), _tile_width(shape[2])
    rows, parts, take, failed = iter(range(shape[0])), [None] * shape[0], threading.Lock(), []

    def participant(bufs):
        while not failed:
            with take:
                i = next(rows, None)
            if i is None:
                return
            try:
                parts[i] = [body(i, s, e, *bufs) for s, e in bounds]
            except BaseException:
                failed.append(i)  # the other participants take no further rows
                raise

    # one participant for a pass inside a body or on another thread while a pass runs
    n = _participants(shape)
    locked = n > 1 and _PASS_LOCK.acquire(blocking=False)
    try:
        _run_participants(participant, [[None if b is None else np.empty((b[0], width), b[1]) for b in buffers]
                                        for _ in range(n if locked else 1)])
    finally:
        if locked:
            _PASS_LOCK.release()
    for row in parts:
        for tile in row:
            for acc, part in zip(sums, tile or (), strict=True):
                acc += part


def _run_participants(participant, sets):
    """participant(sets[0]) on the caller and participant(bufs) for each other set on a pool thread.

    Every buffer set comes from the caller. With more than one, OpenBLAS runs
    at one thread until all have returned. The first error raised is raised.
    """
    global _POOL
    if len(sets) == 1:
        return participant(sets[0])
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="rawnetlite-tiles")
    with _one_blas_thread():
        futures = [_POOL.submit(participant, bufs) for bufs in sets[1:]]
        try:
            participant(sets[0])
        finally:
            for f in futures:
                if not f.cancel():
                    f.exception()  # waits for a participant that started
        for f in futures:
            if not f.cancelled() and f.exception() is not None:
                raise f.exception()


def _tile_moments(tile, buf):
    """The per-channel float64 sum and sum of squares of tile, a (C, n) array.

    The tile goes through buf, a reused float64 buffer of C rows and at least
    n columns; a float32 square is exact in float64.
    """
    f = buf[:, : tile.shape[1]]
    np.copyto(f, tile)
    return f.sum(axis=1), np.einsum("ct,ct->c", f, f)


def _pack_mask(tile, bits, i, s):
    """Pack tile > 0, columns s:s + n of batch row i, into bits along time (np.packbits).

    s is a tile start, a multiple of 64, so the tile fills whole bytes; past T
    the last byte's bits are 0.
    """
    bits[i, :, s // 8 : -(-(s + tile.shape[1]) // 8)] = np.packbits(tile > 0, axis=1)


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


def conv1d_forward(x, w, moments=None, mask=None):
    """conv1d(x, w) and its cache (x, w), a tile at a time. For a training unit, two extras run on each tile while it is in cache:

    moments, a (2, C_out) float64 array, gets the per-channel sum and sum of
    squares of the output added (`_tile_moments`), for the batch norm after
    the conv; mask, a (B, C_in, ceil(T / 8)) uint8 array, gets x > 0 packed
    along time (np.packbits), the ReLU mask of a lazy x. Tile starts are
    multiples of 64, so each tile fills whole bytes.
    """
    _check_conv(x, w)
    out = np.empty((x.shape[0], w.shape[0], x.shape[2]), dtype=np.result_type(x.dtype, w.dtype))
    read, taps, product = _window_reader(x), _taps(w), _conv_product(w)

    def tile(i, s, e, scratch, buf=None):
        xw = read(i, s - 1, e + 1)
        o = _conv_window(xw, taps, product, out[i, :, s:e], scratch)
        if mask is not None:
            _pack_mask(xw[:, 1:-1], mask, i, s)
        return None if moments is None else _tile_moments(o, buf)
    # a scratch tile only for taps the BLAS does not add into the output itself
    buffers = [None if _sgemm_takes(w.shape[0], w.shape[1], out.dtype) else (w.shape[0], out.dtype)]
    buffers += [] if moments is None else [(w.shape[0], np.float64)]
    _tile_pass(out.shape, tile, *(() if moments is None else moments), buffers=buffers)
    return out, (x, w)


def conv1d_backward(dout, cache, into=None):
    """(dx, dw). dx is the conv of dout with the transposed taps, summed 1, 0, 2 like the
    forward; dw accumulates each tap's products tile by tile, while the dout tile is in cache,
    from the columns [s - 1, e + 1) of x that the tile needs, clamped to [0, T). dout and the
    cached input may each be an ndarray or `Windows`. Given into, an array of dx's shape and
    dtype, each finished dx tile is added into it and into is returned as dx: float addition
    commutes, so that is dx + into bit for bit, without a full-size dx."""
    x, w = cache
    t = x.shape[2]
    dx = np.empty(x.shape, dtype=np.result_type(dout.dtype, w.dtype)) if into is None else into
    dw = np.zeros(w.shape, dtype=dx.dtype)
    taps = [(wk.T, 2 - k) for wk, k in _taps(w)]  # tap k carries dout[t] to dx[t + k - 1]
    read, read_x = _window_reader(dout), _window_reader(x)

    def tile(i, s, e, scratch, acc=None):
        win, o = read(i, s - 1, e + 1), dx[i, :, s:e]
        if into is None:
            _conv_window(win, taps, np.matmul, o, scratch)
        else:
            o += _conv_window(win, taps, np.matmul, acc[:, : e - s], scratch)
        d, lo = win[:, 1:-1], max(s - 1, 0)
        xw = read_x(i, lo, min(e + 1, t))
        parts = []
        for k in range(3):  # tap k: dw[:, :, k] = sum over t of dout[t] x[t + k - 1]^T
            l, h = max(s, 1 - k), min(e, t + 1 - k)
            parts.append(np.matmul(d[:, l - s : h - s], xw[:, l + k - 1 - lo : h + k - 1 - lo].T))
        return parts
    buffers = [None if _sgemm_takes(x.shape[1], w.shape[0], dx.dtype) else (x.shape[1], dx.dtype)]
    buffers += [] if into is None else [(x.shape[1], dx.dtype)]
    _tile_pass(dx.shape, tile, *(dw[:, :, k] for k in range(3)), buffers=buffers)
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


def _affine_relu(x, scale, shift, skip=None, out=None):
    """relu(x * scale + shift + skip) into out, or a fresh array, with per-channel (C, 1) scale and shift.

    x is (B, C, T) or columns of one (C, T) batch row; elementwise, so a window
    gives bit for bit that window of the whole.
    """
    out = np.multiply(x, scale, out=out)
    out += shift
    if skip is not None:
        out += skip
    return np.maximum(out, 0, out=out)


def _affine_relu_windows(x, scale, shift):
    """relu(x * scale + shift) as `Windows` over the ndarray x: bit for bit the output of a forward without a skip."""
    return _padded(x.shape, x.dtype, lambda i, lo, hi, out=None: _affine_relu(x[i, :, lo:hi], scale, shift, out=out))


def _moments(x):
    """(2, C) float64: the per-channel sum and sum of squares of x, a tile at a time in `conv1d_forward`'s order."""
    moments = np.zeros((2, x.shape[1]))
    _tile_pass(x.shape, lambda i, s, e, buf: _tile_moments(x[i, :, s:e], buf), *moments,
               buffers=[(x.shape[1], np.float64)])
    return moments


def _mask_reader(bits):
    """read(i, lo, hi), the ReLU mask at columns lo:hi of row i as bools, for 0 <= lo <= hi <= T.

    bits is the mask packed along time by np.packbits, a (B, C, ceil(T / 8))
    uint8 array, which is unpacked a window at a time.
    """
    def read(i, lo, hi):
        unpacked = np.unpackbits(bits[i, :, lo // 8 : -(-hi // 8)], axis=1)
        return unpacked[:, lo % 8 : lo % 8 + hi - lo].view(bool)
    return read


def batchnorm_relu_forward(x, gamma, beta, state: BatchNormState, skip=None, moments=None, lazy=False):
    """Training only: relu(batchnorm1d(x) + skip), normalized by the batch statistics.

    The batch statistics update the running ones. They come from moments, the
    per-channel float64 sum and sum of squares of x that `conv1d_forward`
    added up tile by tile, or else from `_moments`, which sums in the same
    order. In float64 the one-pass variance E[x^2] - mean^2 loses nothing that
    matters for float32 data. The output is one fresh array, x * scale +
    shift, to which the skip is added and the ReLU applied in place; with lazy
    (and no skip) it is `Windows` that build it from x a window at a time
    (`_affine_relu_windows`). The cache keeps the per-channel scale and shift
    in x's dtype, from which the output can be rebuilt, and the ReLU mask
    out > 0 packed along time into a (B, C, ceil(T / 8)) uint8 array, never the
    output itself. The mask of an array output is packed here a tile at a
    time; that of a lazy one is left for the conv that reads the output to
    fill as it passes (`conv1d_forward`'s mask).
    """
    if x.ndim != 3 or x.shape[1] != gamma.shape[0]:
        raise ShapeError(f"batchnorm_relu: expected x (B, {gamma.shape[0]}, T), got {x.shape}")
    n = x.shape[0] * x.shape[2]
    if n < 2:
        raise ShapeError("batchnorm_relu needs >= 2 elements per channel")
    if lazy and skip is not None:
        raise ValueError("a lazy batchnorm_relu output takes no skip")
    sums, squares = _moments(x) if moments is None else moments
    mean = sums / n
    var = squares / n - mean * mean
    var = np.maximum(var, 0.0)  # a constant channel may round below 0
    invstd = 1.0 / np.sqrt(var + state.eps)
    m = state.momentum
    state.running_mean[...] = (1 - m) * state.running_mean + m * mean
    state.running_var[...] = (1 - m) * state.running_var + m * var * (n / (n - 1))
    state.initialized = True
    scale = gamma * invstd
    affine = scale.astype(x.dtype)[:, None], (beta - mean * scale).astype(x.dtype)[:, None]
    bits = np.empty(x.shape[:2] + (-(-x.shape[2] // 8),), dtype=np.uint8)
    if lazy:
        out = _affine_relu_windows(x, *affine)
    else:
        out = _affine_relu(x, *affine, skip=skip)
        _tile_pass(x.shape, lambda i, s, e: _pack_mask(out[i, :, s:e], bits, i, s))
    return out, (x, mean, invstd, gamma, affine, bits, skip is not None)


def batchnorm_relu_backward(dout, cache):
    """(dx, dgamma, dbeta), and dskip when the forward took a skip.

    With g the upstream gradient under the ReLU mask and xhat = (x - mean) * invstd,
    dx = gamma * invstd / n * (n * g - sum(g) - xhat * sum(g * xhat)), which is
    a * g + b * x + k with per-channel a, b, k. One pass sums g and g * x in
    float64 a tile at a time, through one reused float64 tile buffer; dx is
    returned as `Windows` that rebuild each window of g and apply a, b, k to
    it. So neither g nor dx is ever full-size, except g when it is returned as
    dskip. dout is an ndarray or `Windows` (the pool's gradient), read through
    `_window_reader`; the ReLU mask is unpacked from the cached bits a window
    at a time (`_mask_reader`).
    """
    x, mean, invstd, gamma, _, bits, has_skip = cache
    t = x.shape[2]
    n = x.shape[0] * t
    read, mask = _window_reader(dout), _mask_reader(bits)

    def masked(i, lo, hi, into=None):  # subgradient at exactly 0 is 0
        return np.multiply(read(i, lo, hi), mask(i, lo, hi), out=into)

    g = np.empty(x.shape, dtype=dout.dtype) if has_skip else None
    dbeta, sum_gx = np.zeros((2, x.shape[1]))

    def sums(i, s, e, buf):
        f = buf[:, : e - s]
        if g is None:
            masked(i, s, e, f)  # a float32 product, cast to float64 exactly
        else:
            np.copyto(f, masked(i, s, e, g[i, :, s:e]))
        return f.sum(axis=1), np.einsum("ct,ct->c", f, x[i, :, s:e])
    _tile_pass(x.shape, sums, dbeta, sum_gx, buffers=[(x.shape[1], np.float64)])
    dgamma = invstd * (sum_gx - mean * dbeta)
    a = gamma * invstd
    b = -a * invstd * dgamma / n
    k = -a * dbeta / n - b * mean
    a, b, k = (v.astype(dout.dtype)[:, None] for v in (a, b, k))

    def dx(i, lo, hi, out=None):
        if g is None:
            d = masked(i, lo, hi, out)
            d *= a
        else:
            d = np.multiply(g[i, :, lo:hi], a, out=out)
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


def conv_bn_relu_forward(x, w, gamma, beta, state: BatchNormState, mode: str, skip=None, lazy=False, mask=None):
    """relu(BN(conv1d(x, w)) + skip). Train mode runs `conv1d_forward`, which sums the
    batch statistics tile by tile, and then `batchnorm_relu_forward`, whose output is
    `Windows` with lazy; mask goes to `conv1d_forward`. Eval mode folds the batch norm
    into the conv, returns the output as `Windows` and no cache, and takes no skip."""
    if mode == "eval":
        if skip is not None:
            raise ValueError("an eval unit takes no skip; residual_block_forward adds its own")
        return _folded_windows(x, [fold_batchnorm(w, gamma, beta, state)], skip=False), None
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")
    moments = np.zeros((2, w.shape[0]))
    c, cache_conv = conv1d_forward(x, w, moments, mask)
    out, cache_bn = batchnorm_relu_forward(c, gamma, beta, state, skip, moments, lazy)
    return out, (cache_conv, cache_bn)


def conv_bn_relu_backward(dout, cache, into=None):
    """(dx, dw, dgamma, dbeta), and dskip when the forward took a skip. Given into, dx
    is added into it (`conv1d_backward`)."""
    cache_conv, cache_bn = cache
    dc, *grads = batchnorm_relu_backward(dout, cache_bn)
    dx, dw = conv1d_backward(dc, cache_conv, into)
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
    sums = np.zeros(x.shape[:2] + (len(bins),))

    @functools.cache  # the bins each tile overlaps, found on the first row and kept for the rest
    def parts(s, e):
        return [(j, max(a, s), min(b, e)) for j, (a, b) in enumerate(bins) if a < e and b > s]

    def tile(i, s, e):
        win = x.window(i, s, e)
        for j, a, b in parts(s, e):
            sums[i, :, j] += win[:, a - s : b - s].sum(axis=1, dtype=np.float64)
    _tile_pass(x.shape, tile)
    sums /= [e - s for s, e in bins]
    return sums.astype(x.dtype)


def adaptive_avg_pool1d_backward(dout, cache):
    """dx as `Windows`: a window starts from zeros and adds dout[i, :, j] / (e - s) at
    its columns of each bin [s, e) it overlaps, in bin order, so it is bit for bit that
    window of the dense dx, also where adjacent bins share a column."""
    t, bins = cache
    scaled = dout / np.array([e - s for s, e in bins], dtype=dout.dtype)

    def window(i, lo, hi):
        out = np.zeros((dout.shape[1], hi - lo), dtype=dout.dtype)
        for j, (s, e) in enumerate(bins):
            if s < hi and e > lo:
                out[:, max(s, lo) - lo : min(e, hi) - lo] += scaled[i, :, j, None]
        return out
    return Windows(dout.shape[:2] + (t,), dout.dtype, window)


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
    that is also the skip, and no cache. In train mode unit 1's output a1 is
    never built in full: it is `Windows` over unit 1's conv output, which unit
    2's conv reads a tile at a time, and keeps for its dw. As each a1 tile
    passes, unit 2's conv packs its ReLU mask into the bits that unit 1's
    batch norm caches.
    """
    if mode == "eval":
        folds = [fold_batchnorm(w1, gamma1, beta1, state1), fold_batchnorm(w2, gamma2, beta2, state2)]
        return _folded_windows(x, folds, skip=True), None
    a1, cache1 = conv_bn_relu_forward(x, w1, gamma1, beta1, state1, mode, lazy=True)
    bits = cache1[1][5]  # unit 1's ReLU mask, which unit 2's conv fills
    out, cache2 = conv_bn_relu_forward(a1, w2, gamma2, beta2, state2, mode, skip=x, mask=bits)
    return out, (cache1, cache2)


def residual_block_backward(dout, cache):
    """(dx, dw1, dgamma1, dbeta1, dw2, dgamma2, dbeta2). Unit 1's conv backward adds dx into dskip's buffer."""
    cache1, cache2 = cache
    da1, *grads2, dskip = conv_bn_relu_backward(dout, cache2)
    dx, *grads1 = conv_bn_relu_backward(da1, cache1, into=dskip)
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
