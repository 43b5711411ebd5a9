import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rawnetlite import nn_core as nn
from rawnetlite.nn_core import (
    Adam, GRUDirParams, ParamTensor, ShapeError, TrainingError,
)

from conftest import bn_state, finite_difference_check

GRU_FIELDS = ["w_ir", "w_iz", "w_in", "w_hr", "w_hz", "w_hn",
              "b_ir", "b_iz", "b_in", "b_hr", "b_hz", "b_hn"]


def _relu_masks(cache):
    """The packed ReLU masks, the uint8 arrays, in a kernel's cache of nested tuples."""
    if isinstance(cache, tuple):
        return [m for c in cache for m in _relu_masks(c)]
    return [cache] if isinstance(cache, np.ndarray) and cache.dtype == np.uint8 else []


def fd_layer_check(forward, backward, arrays_to_check, rng, n_coords=20, tol=1e-4):
    """Project the layer output to a scalar and compare grads to central FDs.

    `backward` is a kernel's own: it returns (dx, *grads), or a bare dx. An
    entry v is stepped by h = 1e-5 * (|v| + 1), or by h / 10 as often as a
    step flips a ReLU mask in the cache, down to 1e-8 * (|v| + 1): across a
    kink the layer has no derivative for the difference to approximate.
    """
    out, cache = forward()
    masks = _relu_masks(cache)
    w = rng.normal(size=out.shape)
    grads = backward(w, cache)
    grads = grads if isinstance(grads, tuple) else (grads,)

    def probe(flat, i, v):
        flat[i] = v
        out, cache = forward()
        return float((out * w).sum()), all(map(np.array_equal, masks, _relu_masks(cache)))

    worst = 0.0
    for arr, g in zip(arrays_to_check, grads):
        flat, gf = arr.reshape(-1), np.asarray(g).reshape(-1)
        for i in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            orig = flat[i]
            h = 1e-5 * (abs(orig) + 1.0)
            while True:
                (fp, kept_p), (fm, kept_m) = probe(flat, i, orig + h), probe(flat, i, orig - h)
                if (kept_p and kept_m) or h < 1e-8 * (abs(orig) + 1.0):
                    break
                h /= 10
            flat[i] = orig
            num = (fp - fm) / (2 * h)
            worst = max(worst, abs(num - gf[i]) / max(abs(num), abs(gf[i]), 1e-5))
    assert worst < tol, f"max relative error {worst}"


def make_gru_weights(h, i, rng):
    """One direction's GRU weights, in GRUDirParams field order."""
    return [rng.normal(size=(h, i) if f.startswith("w_i") else (h, h) if f.startswith("w_h") else (h,))
            for f in GRU_FIELDS]


# --- elementwise ----------------------------------------------------------------


def test_relu_values_and_gradient():
    out, cache = nn.relu_forward(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 2.0])
    dx = nn.relu_backward(np.ones(3), cache)
    assert np.array_equal(dx, [0.0, 0.0, 1.0])


@given(arrays(np.float64, st.integers(1, 30),
              elements=st.floats(-100, 100, allow_nan=False)))
def test_relu_idempotent(x):
    once, _ = nn.relu_forward(x)
    twice, _ = nn.relu_forward(once)
    assert np.array_equal(once, twice)


def test_sigmoid_basics():
    assert nn.sigmoid(np.array([0.0]))[0] == 0.5
    out, cache = nn.sigmoid_forward(np.array([0.0]))
    assert nn.sigmoid_backward(np.ones(1), cache)[0] == 0.25


def test_sigmoid_extreme_negative_no_overflow():
    with np.errstate(over="raise"):
        v = nn.sigmoid(np.array([-1000.0]))[0]
    assert 0.0 < v <= 1e-300


@given(arrays(np.float64, st.integers(1, 50),
              elements=st.floats(-700, 700, allow_nan=False)))
def test_sigmoid_strictly_inside_unit_interval(x):
    s = nn.sigmoid(x)
    assert np.all(s > 0.0) and np.all(s < 1.0)


def test_sigmoid_negative_tail_keeps_relative_accuracy():
    # 0.5 * (1 + tanh(x / 2)) keeps only ~3 digits here: 1 + tanh(-15) cancels
    e = np.exp(-30.0)
    assert nn.sigmoid(np.array([-30.0]))[0] == pytest.approx(e / (1.0 + e), rel=1e-15)


def test_sigmoid_float32_stays_open():
    s = nn.sigmoid(np.array([1e4, -1e4], dtype=np.float32))
    assert 0.0 < s[1] and s[0] < 1.0


# --- linear -----------------------------------------------------------------------


def test_linear_identity_and_hand_value():
    x = np.array([[1.0, 2.0]])
    out, _ = nn.linear_forward(x, np.eye(2), np.zeros(2))
    assert np.array_equal(out, x)
    out, _ = nn.linear_forward(x, np.array([[3.0, 4.0]]), np.array([5.0]))
    assert out[0, 0] == 16.0


def test_linear_bias_gradient_is_batch_count():
    x = np.random.default_rng(0).normal(size=(7, 3))
    out, cache = nn.linear_forward(x, np.random.default_rng(1).normal(size=(2, 3)), np.zeros(2))
    _, _, db = nn.linear_backward(np.ones_like(out), cache)
    assert np.array_equal(db, [7.0, 7.0])


def test_linear_gradients_match_fd():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    fd_layer_check(lambda: nn.linear_forward(x, w, b), nn.linear_backward,
                   [x, w, b], rng)


def test_linear_shape_mismatch():
    with pytest.raises(ShapeError):
        nn.linear_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))


# --- conv1d -----------------------------------------------------------------------


def test_conv1d_identity_kernel():
    x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
    w = np.zeros((1, 1, 3))
    w[0, 0, 1] = 1.0
    out, _ = nn.conv1d_forward(x, w)
    assert np.array_equal(out, x)


def test_conv1d_sum_kernel():
    x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
    out, _ = nn.conv1d_forward(x, np.ones((1, 1, 3)))
    assert np.array_equal(out[0, 0], [3.0, 6.0, 9.0, 7.0])


def test_conv1d_preserves_length():
    x = np.random.default_rng(2).normal(size=(2, 3, 17))
    out, _ = nn.conv1d_forward(x, np.random.default_rng(3).normal(size=(5, 3, 3)))
    assert out.shape == (2, 5, 17)


def test_conv1d_gradients_match_fd():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 7))
    w = rng.normal(size=(4, 3, 3))
    fd_layer_check(lambda: nn.conv1d_forward(x, w), nn.conv1d_backward, [x, w], rng)


def test_conv1d_shape_errors():
    with pytest.raises(ShapeError, match="channels"):
        nn.conv1d_forward(np.zeros((1, 2, 5)), np.zeros((4, 3, 3)))
    with pytest.raises(ShapeError):
        nn.conv1d_forward(np.zeros((1, 3, 5)), np.zeros((4, 3, 5)))


# --- conv taps through the BLAS ---------------------------------------------------
# A float32 matmul tap runs as one OpenBLAS sgemm call into the output, the first with
# beta=0 and the others with beta=1; these tests hold it to the numpy form it replaces:
# out = W1 @ x1, then out += W0 @ x0 and out += W2 @ x2, each product rounded on its own.

needs_openblas = pytest.mark.skipif(nn._openblas() is None, reason="numpy's OpenBLAS was not found")


def _counting_openblas(calls):
    """`_openblas`'s triple with an sgemm that records each call's (m, n, k) in calls before it runs."""
    get, set_, sgemm = nn._openblas()
    counting = get, set_, lambda *args: calls.append(args[3:6]) or sgemm(*args)
    return lambda: counting


@needs_openblas
@settings(max_examples=100, deadline=None)
@given(c_in=st.sampled_from([1, 2, 8, 64]), c_out=st.sampled_from([1, 2, 8, 64]),
       n=st.sampled_from([1, 2, 3, 64, 200]), extra=st.integers(0, 70), rows=st.integers(1, 3),
       transposed=st.booleans(), fresh=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(c_in=2, c_out=64, n=2, extra=0, rows=1, transposed=True, fresh=False, seed=0)
@example(c_in=64, c_out=64, n=200, extra=5, rows=3, transposed=True, fresh=False, seed=1)
@example(c_in=1, c_out=64, n=200, extra=5, rows=3, transposed=False, fresh=False, seed=2)
def test_blas_taps_equal_the_numpy_three_matmul_form(c_in, c_out, n, extra, rows, transposed, fresh, seed):
    """Any tile of n columns of any row of a (B, C, T) array, also where its window reaches past the
    row and is zero-padded, through forward taps or transposed (dx) taps, into a row view of an
    output or a fresh array: the BLAS path runs one sgemm per tap where M, N and K are all >= 2,
    none otherwise, and gives the numpy form bit for bit, touching no other column. A C_in = 1
    forward, the stem's, runs its taps as broadcast multiplies, with the same bits. The first
    example is a small-matrix kernel's case: a dx tap copied in C order rounds otherwise there."""
    rng = np.random.default_rng(seed)
    t = n + extra
    i, s = seed % rows, seed // rows % (t - n + 1)
    w = (rng.normal(size=(c_out, c_in, 3)) * np.exp(rng.normal(size=(c_out, c_in, 3)))).astype(np.float32)
    taps = nn._taps(w)
    if transposed:  # as conv1d_backward: tap k carries dout[t] to dx[t + k - 1]
        taps = [(wk.T, 2 - k) for wk, k in taps]
    m, k = taps[0][0].shape
    x = (rng.normal(size=(rows, k, t)) * np.exp(rng.normal(size=(rows, k, t)))).astype(np.float32)
    xw = nn._window_reader(x)(i, s - 1, s + n + 1)
    ref = np.matmul(taps[0][0], xw[:, taps[0][1] : taps[0][1] + n])
    for wk, j in taps[1:]:
        ref += np.matmul(wk, xw[:, j : j + n])
    dst = np.full((rows, m, t), np.nan, dtype=np.float32)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_openblas", _counting_openblas(calls))
        got = nn._conv_window(xw, taps, None if fresh else dst[i, :, s : s + n])
    assert np.array_equal(got, ref)
    assert len(calls) == (3 if min(m, n, k) >= 2 else 0)
    if not fresh:
        assert np.shares_memory(got, dst) and np.isnan(np.delete(dst[i], np.s_[s : s + n], axis=1)).all()
        assert np.isnan(np.delete(dst, i, axis=0)).all()


@pytest.mark.parametrize("c_in, t", [(1, 200), (8, 1), (8, 2), (8, 200), (64, 129)])
def test_conv_without_openblas_takes_the_numpy_path_with_the_same_bits(monkeypatch, c_in, t):
    """With `_openblas` patched to None, `_sgemm` takes nothing. Either way a conv tile pass asks
    `_tile_pass` only for the forward's float64 sum buffer and the accumulator of the backward's
    into, as `_conv_window` keeps its own temporary. The forward, dx, dx added into an array and
    an eval unit give the same bits both ways."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(t + c_in)
    x = rng.normal(size=(3, c_in, t)).astype(np.float32)
    w = rng.normal(size=(16, c_in, 3)).astype(np.float32)
    b = rng.normal(size=16).astype(np.float32)
    dout, into = rng.normal(size=(3, 16, t)).astype(np.float32), rng.normal(size=x.shape).astype(np.float32)
    tile_pass, requested = nn._tile_pass, []

    def spy(shape, body, *sums, buffers=()):
        requested.append(list(buffers))
        return tile_pass(shape, body, *sums, buffers=buffers)
    monkeypatch.setattr(nn, "_tile_pass", spy)

    def kernels():
        out, cache = nn.conv1d_forward(x, w, np.zeros((2, 16)))
        dx, dw = nn.conv1d_backward(dout, cache)
        dx_into, dw_into = nn.conv1d_backward(dout, cache, into.copy())
        unit = nn._folded_unit(nn._window_reader(x)(1, -1, t + 1), w, b, 0, t, t)
        return out, dx, dw, dx_into, dw_into, unit
    blas = kernels()
    sums_and_acc = [[(16, np.float64)], [], [(c_in, np.float32)]]
    assert requested == sums_and_acc
    requested.clear()
    monkeypatch.setattr(nn, "_openblas", lambda: None)
    assert all(np.array_equal(a, b) for a, b in zip(blas, kernels(), strict=True))
    assert requested == sums_and_acc
    c = np.zeros((16, t), np.float32)
    assert not nn._sgemm(w[:, :, 1], x[0], c, 0.0) and not c.any()


@needs_openblas
@pytest.mark.parametrize("case", ["m=1", "n=1", "k=1", "deep k", "float64", "b strided", "c strided",
                                  "c read-only", "b rows overlap", "a strided"])
def test_sgemm_declines_what_it_cannot_take_and_leaves_c_alone(case):
    """`_sgemm` returns False, and writes nothing, for a product numpy would round otherwise or
    operands it cannot pass in place; a strided a is copied and taken."""
    rng = np.random.default_rng(3)
    shapes = {"m=1": (1, 8, 5), "n=1": (8, 8, 1), "k=1": (8, 1, 5), "deep k": (8, nn._SGEMM_MAX_K + 1, 5)}
    m, k, n = shapes.get(case, (8, 8, 5))
    a, b = rng.normal(size=(m, k)).astype(np.float32), rng.normal(size=(k, n)).astype(np.float32)
    c = np.zeros((m, n), np.float32)
    if case == "float64":
        a = a.astype(np.float64)
    elif case == "b strided":
        b = np.repeat(b, 2, axis=1)[:, ::2]
    elif case == "c strided":
        c = np.zeros((m, 2 * n), np.float32)[:, ::2]
    elif case == "c read-only":
        c.flags.writeable = False
    elif case == "b rows overlap":
        b = np.lib.stride_tricks.as_strided(b, strides=(4, 4))
    elif case == "a strided":
        a3 = rng.normal(size=(m, k, 3)).astype(np.float32)
        a = a3[:, :, 1]
        assert nn._sgemm(a, b, c, 0.0) and np.array_equal(c, np.matmul(a, b))
        return
    assert not nn._sgemm(a, b, c, 0.0)
    assert not c.any()


# --- batchnorm ---------------------------------------------------------------------


def test_batchnorm_constant_channel_is_zero():
    x = np.full((2, 1, 3), 7.0)
    st_ = bn_state(1, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.ones(1), np.zeros(1), st_, "train")
    assert np.allclose(out, 0.0)


def test_batchnorm_two_point_channel():
    x = np.array([[[0.0]], [[2.0]]])
    st_ = bn_state(1, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.ones(1), np.zeros(1), st_, "train")
    assert np.allclose(out.ravel(), [-0.999995, 0.999995], atol=1e-6)


def test_batchnorm_affine_rescale():
    x = np.array([[[0.0]], [[2.0]]])
    st_ = bn_state(1, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.array([2.0]), np.array([3.0]), st_, "train")
    assert np.allclose(out.ravel(), [1.00001, 4.99999], atol=1e-4)


def test_batchnorm_normalizes_batch():
    rng = np.random.default_rng(12)
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3, 50))
    st_ = bn_state(3, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.ones(3), np.zeros(3), st_, "train")
    assert np.max(np.abs(out.mean(axis=(0, 2)))) < 1e-6
    assert np.max(np.abs(out.var(axis=(0, 2)) - 1.0)) < 1e-4


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(13)
    x = rng.normal(loc=1.0, size=(4, 2, 25))
    st_ = bn_state(2, dtype=np.float64)
    nn.batchnorm1d_forward(x, np.ones(2), np.zeros(2), st_, "train")
    n = 4 * 25
    expected_mean = 0.1 * x.mean(axis=(0, 2))
    expected_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2)) * n / (n - 1)
    assert np.allclose(st_.running_mean, expected_mean)
    assert np.allclose(st_.running_var, expected_var)
    assert st_.initialized


def test_batchnorm_eval_before_train_rejected():
    st_ = bn_state(2)
    with pytest.raises(TrainingError, match="eval mode before"):
        nn.batchnorm1d_forward(np.zeros((1, 2, 4)), np.ones(2), np.zeros(2), st_, "eval")


def test_batchnorm_gradients_match_fd_train():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 5))
    gamma = rng.normal(size=2) + 1.0
    beta = rng.normal(size=2)
    st_ = bn_state(2, dtype=np.float64)
    fd_layer_check(lambda: nn.batchnorm1d_forward(x, gamma, beta, st_, "train"),
                   nn.batchnorm1d_backward, [x, gamma, beta], rng)


# --- conv and batch norm against the padded reference formulas -------------------
# The references are the straightforward formulas: a zero-padded copy of x, one
# tensordot per tap for dw, statistics from x.mean / x.var. The kernels must
# match them bit for bit, except conv dw, whose batch and time sums run in
# another order (a batched matmul per tap, then a sum over the batch). The conv
# reference sums its taps in the kernel's order: 1, then 0, then 2.

DW_TOL_EPS = 128  # conv dw: |dw - ref| <= DW_TOL_EPS * eps(dtype) * max|ref|


def conv1d_reference(x, w):
    t = x.shape[2]
    xpad = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    out = np.matmul(w[:, :, 1], xpad[:, :, 1 : 1 + t])
    for k in (0, 2):
        out += np.matmul(w[:, :, k], xpad[:, :, k : k + t])
    return out


def conv1d_backward_reference(dout, x, w):
    t = x.shape[2]
    xpad = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    dw = np.empty_like(w)
    dxpad = np.zeros_like(xpad)
    for k in range(3):
        dw[:, :, k] = np.tensordot(dout, xpad[:, :, k : k + t], axes=([0, 2], [0, 2]))
        dxpad[:, :, k : k + t] += np.matmul(w[:, :, k].T, dout)
    return dxpad[:, :, 1:-1], dw


def batchnorm_reference(x, gamma, beta, mean, var, eps, dout):
    """out and the train-mode dx, dgamma, dbeta, normalizing with the given statistics."""
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None]) * invstd[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    dgamma = (dout * xhat).sum(axis=(0, 2))
    dbeta = dout.sum(axis=(0, 2))
    n = dout.shape[0] * dout.shape[2]
    s1 = dout.sum(axis=(0, 2))[None, :, None]
    s2 = (dout * xhat).sum(axis=(0, 2))[None, :, None]
    dx = (gamma * invstd)[None, :, None] / n * (n * dout - s1 - xhat * s2)
    return out, dx, dgamma, dbeta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in, t", [(1, 2000), (24, 2000), (24, 1)])
def test_conv1d_matches_padded_reference(dtype, c_in, t):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, c_in, t)).astype(dtype)
    w = rng.normal(size=(32, c_in, 3)).astype(dtype)
    dout = rng.normal(size=(3, 32, t)).astype(dtype)
    out, cache = nn.conv1d_forward(x, w)
    dx, dw = nn.conv1d_backward(dout, cache)
    ref_dx, ref_dw = conv1d_backward_reference(dout, x, w)
    assert np.array_equal(out, conv1d_reference(x, w))
    assert np.array_equal(dx, ref_dx) and dx.flags.c_contiguous
    tol = DW_TOL_EPS * np.finfo(dtype).eps * np.abs(ref_dw).max()
    assert np.abs(dw - ref_dw).max() <= tol
    assert dw.dtype == out.dtype == dx.dtype == dtype


# The conv kernels run over time tiles of about nn._TILE samples. These lengths put
# the tile boundaries just before, at and just after T, and make three tiles. In
# float32 the forward and dx still match the reference bit for bit, except dx with
# C_in = 1: each of its taps is then a matrix-vector product, which the BLAS rounds
# by the column's place in the call, so it agrees within DX_GEMV_TOL_EPS instead.
# OpenBLAS's float64 GEMM also rounds a column by its place in the call and by how
# the call is split over threads, and a tile pass over two or more rows runs the
# BLAS at one thread, so in float64 the forward and dx agree within DX_GEMV_TOL_EPS.

DX_GEMV_TOL_EPS = 16  # |dx - ref| <= DX_GEMV_TOL_EPS * eps(dtype) * max|ref|; measured <= 2
TILE_CROSSING_T = [nn._TILE - 1, nn._TILE, nn._TILE + 1, 2 * nn._TILE + 1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, c_in", [(1, 1), (2, 1), (1, 24), (3, 24)])
@pytest.mark.parametrize("t", TILE_CROSSING_T)
def test_conv1d_tiles_match_padded_reference(dtype, b, c_in, t):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(b, c_in, t)).astype(dtype)
    w = rng.normal(size=(32, c_in, 3)).astype(dtype)
    dout = rng.normal(size=(b, 32, t)).astype(dtype)
    out, cache = nn.conv1d_forward(x, w)
    dx, dw = nn.conv1d_backward(dout, cache)
    ref_dx, ref_dw = conv1d_backward_reference(dout, x, w)
    ref_out = conv1d_reference(x, w)

    def positional(got, ref):
        return np.abs(got - ref).max() <= DX_GEMV_TOL_EPS * np.finfo(dtype).eps * np.abs(ref).max()
    if dtype == np.float32:
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx) if c_in > 1 else positional(dx, ref_dx)
    else:
        assert positional(out, ref_out) and positional(dx, ref_dx)
    assert np.abs(dw - ref_dw).max() <= DW_TOL_EPS * np.finfo(dtype).eps * np.abs(ref_dw).max()


@pytest.mark.parametrize("with_skip", [False, True])
@pytest.mark.parametrize("c_in", [1, 16])
@pytest.mark.parametrize("t", [5, 2 * nn._TILE + 1])
def test_folded_unit_matches_forward_bias_skip_relu(with_skip, c_in, t):
    """The eval unit, run window by window over a row, is relu(conv1d + bias + skip), and 0 past either end."""
    rng = np.random.default_rng(24)
    x = rng.normal(size=(1, c_in, t)).astype(np.float32)
    w = rng.normal(size=(16, c_in, 3)).astype(np.float32)
    b = rng.normal(size=16).astype(np.float32)
    skip = rng.normal(size=(1, 16, t)).astype(np.float32) if with_skip else None
    ref, _ = nn.conv1d_forward(x, w)
    ref += b[None, :, None]
    if with_skip:
        ref += skip
    ref, _ = nn.relu_forward(ref)
    windows = [(-2, 0)] + nn._tile_bounds(t) + [(t, t + 2)]
    got = np.concatenate([
        nn._folded_unit(nn._window_reader(x)(0, lo - 1, hi + 1), w, b, lo, hi, t,
                        None if skip is None else nn._window_reader(skip)(0, lo, hi))
        for lo, hi in windows], axis=1)
    assert not got[:, :2].any() and not got[:, -2:].any()
    assert np.array_equal(got[:, 2:-2], ref[0])


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("c_in", [1, 8])
@pytest.mark.parametrize("t", [1, 7, 63, 65, 128, 129, 200])
def test_conv_kernel_extras_per_tile(monkeypatch, lazy, c_in, t):
    """With 64-sample tiles, for an ndarray input and a `Windows` one: the forward is the padded
    reference; its moments are `_moments` of its output, within float64 rounding of one
    whole-array sum; its mask is the input's > 0 packed; and a backward given into adds dx
    into it, bit for bit dx + into."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(t)
    x = rng.normal(size=(2, c_in, t)).astype(np.float32)
    w = rng.normal(size=(16, c_in, 3)).astype(np.float32)
    scale, shift = (rng.normal(size=(c_in, 1)).astype(np.float32) for _ in range(2))
    src = nn._affine_relu_windows(x, scale, shift) if lazy else x
    full = np.asarray(src)
    moments = np.zeros((2, 16))
    mask = np.empty((2, c_in, -(-t // 8)), dtype=np.uint8)
    out, cache = nn.conv1d_forward(src, w, moments, mask)
    assert np.array_equal(out, conv1d_reference(full, w))
    assert np.array_equal(moments, nn._moments(out))
    o = out.astype(np.float64)
    assert np.allclose(moments, [o.sum(axis=(0, 2)), (o * o).sum(axis=(0, 2))], rtol=1e-13, atol=0)
    assert np.array_equal(mask, np.packbits(full > 0, axis=2))
    dout, into = rng.normal(size=(2, 16, t)).astype(np.float32), rng.normal(size=x.shape).astype(np.float32)
    dx, dw = nn.conv1d_backward(dout, cache)
    expected = dx + into
    got_dx, got_dw = nn.conv1d_backward(dout, cache, into)
    assert got_dx is into and np.array_equal(got_dx, expected) and np.array_equal(got_dw, dw)


def _rows_reversed_tile_pass(shape, body, *sums, buffers=()):
    """`_tile_pass` with its batch rows walked last to first: the same sums in another order."""
    bounds = nn._tile_bounds(shape[2])
    bufs = [np.empty((c, nn._tile_width(shape[2])), dtype) for c, dtype in buffers]
    for i in reversed(range(shape[0])):
        for s, e in bounds:
            for acc, part in zip(sums, body(i, s, e, *bufs) or ()):
                acc += part


def test_tile_sums_fold_row_by_row_then_tile_by_tile(monkeypatch, participants):
    """With 64-sample tiles and data spanning many binades, the conv forward's moments, the conv
    backward's dw and the batch-norm backward's dgamma and dbeta are bit for bit a serial fold
    of per-tile partials in (row, tile) order, on one thread and on two; with the rows walked
    in reverse none of them is.
    dgamma and dbeta are float32 casts of float64 sums, so the order shows in them only after
    a cancellation: rows 0 and 2 of the batch norm's input are equal, so their ReLU masks are,
    and the upstream gradient has +1e20 in row 0 and -1e20 in row 2 at one column."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(26)
    b, c, t = 3, 8, 200
    bounds = nn._tile_bounds(t)
    assert len(bounds) == 3

    def wide(*shape):
        return (rng.normal(size=shape) * np.exp(4 * rng.normal(size=shape))).astype(np.float32)
    x, w, dout, xb, up = wide(b, c, t), wide(c, c, 3), wide(b, c, t), wide(b, c, t), wide(b, c, t)
    xb[2] = xb[0]
    up[0, :, 70], up[2, :, 70] = 1e20, -1e20
    gamma, beta = rng.uniform(0.5, 2.0, c).astype(np.float32), rng.normal(size=c).astype(np.float32)

    def kernels_and_folds():
        moments = np.zeros((2, c))
        out, cache = nn.conv1d_forward(x, w, moments)
        _, dw = nn.conv1d_backward(dout, cache)
        y, bn_cache = nn.batchnorm_relu_forward(xb, gamma, beta, bn_state(c))
        _, dgamma, dbeta = nn.batchnorm_relu_backward(up, bn_cache)
        assert (y[0, :, 70] > 0).any()  # the +-1e20 reach dgamma and dbeta
        ref_moments, ref_dw = np.zeros((2, c)), np.zeros(w.shape, np.float32)
        ref_dbeta, sum_gx = np.zeros(c), np.zeros(c)
        for i in range(b):
            for s, e in bounds:
                f = out[i, :, s:e].astype(np.float64)
                ref_moments[0] += f.sum(axis=1)
                ref_moments[1] += np.einsum("ct,ct->c", f, f)
                for k in range(3):  # dout[t] with x[t + k - 1], both inside [0, T)
                    lo, hi = max(s, 1 - k), min(e, t + 1 - k)
                    ref_dw[:, :, k] += dout[i, :, lo:hi] @ x[i, :, lo + k - 1 : hi + k - 1].T
                g = (up[i, :, s:e] * (y[i, :, s:e] > 0)).astype(np.float64)
                ref_dbeta += g.sum(axis=1)
                sum_gx += np.einsum("ct,ct->c", g, xb[i, :, s:e])
        mean, invstd = bn_cache[1:3]
        ref_dgamma = invstd * (sum_gx - mean * ref_dbeta)
        return [(moments, ref_moments), (dw, ref_dw),
                (dgamma, ref_dgamma.astype(np.float32)), (dbeta, ref_dbeta.astype(np.float32))]

    for got, ref in kernels_and_folds():
        assert np.array_equal(got, ref)
    monkeypatch.setattr(nn, "_tile_pass", _rows_reversed_tile_pass)
    for got, ref in kernels_and_folds():
        assert not np.array_equal(got, ref)


def _blas_threads():
    """OpenBLAS's thread count, or None with any other BLAS."""
    blas = nn._openblas()
    return None if blas is None else blas[0]()


def test_tile_pass_error_on_a_pool_row_propagates(monkeypatch):
    """A body that raises on a pool thread's row: the pass raises it, OpenBLAS gets its thread
    count back, and the next pass runs every tile, with OpenBLAS at one thread inside it."""
    monkeypatch.setattr(nn, "_participants", lambda shape: min(2, shape[0]))
    caller, pool_row = threading.current_thread(), threading.Event()
    before = _blas_threads()

    def body(i, s, e):
        if threading.current_thread() is caller:
            assert pool_row.wait(timeout=30)  # the caller takes no second row before a pool thread has one
        else:
            pool_row.set()
            raise ValueError(f"row {i}")
    with pytest.raises(ValueError, match="row"):
        nn._tile_pass((4, 1, 10), body)
    assert _blas_threads() == before
    seen = []
    nn._tile_pass((4, 1, 2 * nn._TILE + 1), lambda i, s, e: seen.append((i, s, _blas_threads())))
    assert sorted(i for i, _, _ in seen) == [i for i in range(4) for _ in range(3)]
    assert all(n in (None, 1) for _, _, n in seen) and _blas_threads() == before


def test_tile_pass_inside_a_body_runs_serially(monkeypatch):
    """A pass started by a body, on the caller or a pool thread, runs on that thread and finishes."""
    monkeypatch.setattr(nn, "_participants", lambda shape: min(2, shape[0]))
    inner = []

    def body(i, s, e):
        me = threading.get_ident()
        nn._tile_pass((3, 1, 10), lambda j, s2, e2: inner.append((me, threading.get_ident())))
    outer = threading.Thread(target=nn._tile_pass, args=((4, 1, 10), body), daemon=True)
    outer.start()
    outer.join(timeout=60)
    assert not outer.is_alive(), "a tile pass inside a body did not finish"
    assert len(inner) == 4 * 3 and all(a == b for a, b in inner)


class _FoldLog:
    """An accumulator that records each partial added into it and the thread that added it."""

    def __init__(self):
        self.adds = []

    def __iadd__(self, part):
        self.adds.append((part, threading.get_ident()))
        return self


def test_tile_pass_stress_runs_each_tile_once_and_folds_in_order(monkeypatch):
    """Eight participants on a fresh pool of seven threads, over 64 rows of three tiles that sleep
    for random times, with a short switch interval: every (row, tile) runs once, and only the
    calling thread adds the partials, in (row, tile) order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(nn, "_participants", lambda shape: min(8, shape[0]))
    monkeypatch.setattr(nn, "_POOL", None)
    delays = np.random.default_rng(27).uniform(0, 2e-4, size=(64, 3))
    starts = [s for s, _ in nn._tile_bounds(2 * nn._TILE + 1)]
    bodies, log = [], _FoldLog()

    def body(i, s, e):
        bodies.append((i, s, threading.get_ident()))
        time.sleep(delays[i, starts.index(s)])
        return ((i, s),)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = threading.Thread(target=nn._tile_pass, args=((64, 1, 2 * nn._TILE + 1), body, log), daemon=True)
        run.start()
        run.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if nn._POOL is not None:
            nn._POOL.shutdown()
    assert not run.is_alive(), "the pass did not finish"
    order = [(i, s) for i in range(64) for s in starts]
    assert sorted((i, s) for i, s, _ in bodies) == order
    assert len({t for _, _, t in bodies}) > 1  # the pool took rows
    assert [part for part, _ in log.adds] == order and {t for _, t in log.adds} == {run.ident}


@pytest.mark.parametrize("rows", [1, 2, 3, 8])
def test_tile_pass_threads_are_at_most_cores_blas_threads_and_rows(monkeypatch, rows):
    """A pass runs on at most min(usable cores, OpenBLAS's threads, rows) threads, and the pool never
    holds as many threads as there are cores; with one core or one OpenBLAS thread it is serial."""
    def threads_used():
        used = set()
        nn._tile_pass((rows, 8, 3 * nn._TILE), lambda i, s, e: used.add(threading.get_ident()) or time.sleep(0.001))
        return len(used)
    cores = len(os.sched_getaffinity(0))
    assert threads_used() <= min(cores, rows)
    assert len([t for t in threading.enumerate() if t.name.startswith("rawnetlite-tiles")]) < max(2, cores)
    with nn._one_blas_thread():
        assert threads_used() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert threads_used() == 1


def test_tile_pass_without_sched_getaffinity_runs_on_at_most_cpu_count_threads(monkeypatch):
    """os.sched_getaffinity is Linux-only. Without it, a pass over four rows under an OpenBLAS at four
    threads runs, and on at most os.cpu_count() threads, a fresh pool's included."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(nn, "_openblas", lambda: (lambda: 4, lambda n: None))
    monkeypatch.setattr(nn, "_POOL", None)
    used = set()
    try:
        nn._tile_pass((4, 8, 3 * nn._TILE), lambda i, s, e: used.add(threading.get_ident()) or time.sleep(0.001))
    finally:
        if nn._POOL is not None:
            nn._POOL.shutdown()
    assert 1 <= len(used) <= os.cpu_count()


def test_tiny_pass_runs_on_the_caller(monkeypatch):
    """Under an OpenBLAS at four threads on eight cores, a pass of fewer than `_THREADED_MIN` elements
    runs on the calling thread alone; one at the threshold runs on min(cores, threads, rows)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(nn, "_openblas", lambda: (lambda: 4, lambda n: None))
    assert nn._participants((8, 4, 64)) == 1
    assert nn._participants((2, 1, nn._THREADED_MIN // 2 - 1)) == 1
    assert nn._participants((2, 1, nn._THREADED_MIN // 2)) == 2
    assert nn._participants((8, 1, nn._THREADED_MIN)) == 4
    used = set()
    nn._tile_pass((8, 4, 64), lambda i, s, e: used.add(threading.get_ident()))
    assert used == {threading.get_ident()}


@pytest.mark.parametrize("t", [0, 1, 63, nn._TILE, nn._TILE + 1, 2 * nn._TILE + 1, 48000, 10**6])
def test_conv_tiles_cover_the_axis_without_small_tiles(t):
    bounds = nn._tile_bounds(t)
    assert bounds[0][0] == 0 and bounds[-1][1] == t
    assert all(e == s2 for (_, e), (s2, _) in zip(bounds, bounds[1:]))
    assert all(s % 64 == 0 for s, _ in bounds)
    assert len(bounds) == max(1, -(-t // nn._TILE))
    assert all(e - s <= nn._TILE + 64 for s, e in bounds)
    if len(bounds) > 1:
        assert min(e - s for s, e in bounds) >= nn._TILE // 2 - 64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_matches_reference_train_and_eval(dtype):
    rng = np.random.default_rng(22)
    x = rng.normal(loc=0.7, scale=2.0, size=(3, 32, 2000)).astype(dtype)
    gamma = (rng.normal(size=32) + 1.0).astype(dtype)
    beta = rng.normal(size=32).astype(dtype)
    dout = rng.normal(size=x.shape).astype(dtype)
    st_ = bn_state(32, dtype=dtype)
    out, cache = nn.batchnorm1d_forward(x, gamma, beta, st_, "train")
    got = (out, *nn.batchnorm1d_backward(dout, cache))
    ref = batchnorm_reference(x, gamma, beta, x.mean(axis=(0, 2)), x.var(axis=(0, 2)),
                              st_.eps, dout)
    assert all(np.array_equal(g, r) and g.dtype == dtype for g, r in zip(got, ref))
    out, cache = nn.batchnorm1d_forward(x, gamma, beta, st_, "eval")
    ref_out, *_ = batchnorm_reference(x, gamma, beta, st_.running_mean, st_.running_var,
                                      st_.eps, dout)
    assert np.array_equal(out, ref_out) and out.dtype == dtype
    assert cache is None  # eval mode has no backward


# --- fused batch norm + ReLU against the reference composition ---------------------
# The fused kernel takes its statistics in one float64 pass and applies x * scale +
# shift, so it matches batchnorm1d -> + skip -> relu within a dtype tolerance, not
# bit for bit. loc=100 guards the one-pass variance against cancellation.

FUSED_TOL = {np.float32: 1e-5, np.float64: 1e-10}  # |got - ref| <= tol * max|ref|


def batchnorm_relu_reference(x, gamma, beta, state, skip, dout):
    """out, dx, dgamma, dbeta (and dskip) of relu(batchnorm1d(x) + skip)."""
    n, cache_n = nn.batchnorm1d_forward(x, gamma, beta, state, "train")
    if skip is not None:
        n += skip
    out, cache_r = nn.relu_forward(n)
    dn = nn.relu_backward(dout, cache_r)
    return (out, *nn.batchnorm1d_backward(dn, cache_n)) + ((dn,) if skip is not None else ())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("loc, scale", [(0.7, 2.0), (100.0, 2.0)])
@pytest.mark.parametrize("with_skip", [False, True])
def test_batchnorm_relu_matches_reference_composition(dtype, loc, scale, with_skip):
    rng = np.random.default_rng(27)
    x = rng.normal(loc=loc, scale=scale, size=(3, 32, 2000)).astype(dtype)
    gamma = (rng.normal(size=32) + 1.0).astype(dtype)
    beta = rng.normal(size=32).astype(dtype)
    skip = rng.normal(size=x.shape).astype(dtype) if with_skip else None
    dout = rng.normal(size=x.shape).astype(dtype)
    st_fused, st_ref = bn_state(32, dtype=dtype), bn_state(32, dtype=dtype)
    out, cache = nn.batchnorm_relu_forward(x, gamma, beta, st_fused, skip)
    got = (out, *nn.batchnorm_relu_backward(dout, cache), st_fused.running_mean, st_fused.running_var)
    ref = (*batchnorm_relu_reference(x, gamma, beta, st_ref, skip, dout),
           st_ref.running_mean, st_ref.running_var)
    assert len(got) == len(ref) == (7 if with_skip else 6)
    for g, r in zip(got, ref):
        assert g.dtype == dtype and g.shape == r.shape
        assert np.abs(g - r).max() <= FUSED_TOL[dtype] * np.abs(r).max()
    assert st_fused.initialized


@pytest.mark.parametrize("with_skip", [False, True])
def test_batchnorm_relu_caches_its_input_and_mask_bits(monkeypatch, with_skip):
    """With 64-sample tiles and an odd T, the cache holds x and the ReLU mask out > 0 packed
    along time, with zero padding bits, and not the output."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(28)
    t = 201
    x = rng.normal(size=(2, 3, t)).astype(np.float32)
    gamma, beta = rng.uniform(0.5, 2.0, 3).astype(np.float32), rng.normal(size=3).astype(np.float32)
    skip = rng.normal(size=x.shape).astype(np.float32) if with_skip else None
    out, cache = nn.batchnorm_relu_forward(x, gamma, beta, bn_state(3), skip)
    cached_x, mean, invstd, cached_gamma, (scale, shift), bits, has_skip = cache
    assert cached_x is x and cached_gamma is gamma and has_skip == with_skip
    assert not any(a is out for a in cache)
    assert mean.dtype == invstd.dtype == np.float64 and out.dtype == np.float32
    assert scale.dtype == shift.dtype == np.float32 and scale.shape == shift.shape == (3, 1)
    assert (out == 0).any() and (out > 0).any()
    assert bits.dtype == np.uint8 and bits.shape == (2, 3, -(-t // 8))
    unpacked = np.unpackbits(bits, axis=2)
    assert np.array_equal(unpacked[..., :t], out > 0) and not unpacked[..., t:].any()
    if not with_skip:  # the cached scale and shift rebuild the output, bit for bit, one window at a time
        assert np.array_equal(np.asarray(nn._affine_relu_windows(x, scale, shift)), out)


@pytest.mark.parametrize("with_skip", [False, True])
def test_batchnorm_relu_backward_returns_dx_as_rows(with_skip):
    """dx is never full-size; g is, only as dskip."""
    rng = np.random.default_rng(30)
    x = rng.normal(size=(3, 4, 50)).astype(np.float32)
    skip = rng.normal(size=x.shape).astype(np.float32) if with_skip else None
    dout = rng.normal(size=x.shape).astype(np.float32)
    out, cache = nn.batchnorm_relu_forward(x, np.ones(4, np.float32), np.zeros(4, np.float32),
                                           bn_state(4), skip)
    dx, *rest = nn.batchnorm_relu_backward(dout, cache)
    assert isinstance(dx, nn.Windows) and dx.shape == x.shape and dx.dtype == np.float32
    if with_skip:
        assert np.array_equal(rest[-1], dout * (out > 0))


def _padded_reference(full, i, lo, hi):
    """Columns lo:hi of row i of full, 0 outside [0, T)."""
    ref = np.zeros((full.shape[1], hi - lo), dtype=full.dtype)
    s, e = max(lo, 0), min(hi, full.shape[2])
    if s < e:  # else the window lies wholly outside [0, T)
        ref[:, s - lo : e - lo] = full[i, :, s:e]
    return ref


@given(t=st.integers(1, 400), dtype=st.sampled_from([np.float32, np.float64]),
       with_skip=st.booleans(), seed=st.integers(0, 2**32 - 1),
       spans=st.lists(st.tuples(st.integers(-3, 403), st.integers(0, 80)), max_size=4))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lazy_operands_read_like_their_arrays(monkeypatch, t, dtype, with_skip, seed, spans):
    """With 64-sample tiles, a `Windows` operand gives the conv kernels the bits of its np.asarray,
    and every window of a1 and of the batch-norm dx is the matching slice, 0 outside [0, T)."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(seed)
    b, c = 2, 3
    c1, dout, skip = (rng.normal(size=(b, c, t)).astype(dtype) for _ in range(3))
    gamma, beta = rng.uniform(0.5, 2.0, c).astype(dtype), rng.normal(size=c).astype(dtype)
    out, cache = nn.batchnorm_relu_forward(c1, gamma, beta, bn_state(c, dtype),
                                           skip if with_skip else None)
    a1 = nn._affine_relu_windows(c1, *cache[4])
    dx = nn.batchnorm_relu_backward(dout, cache)[0]
    if not with_skip:
        assert np.array_equal(np.asarray(a1), out)
    lazy_dout = nn.Windows(dout.shape, dout.dtype, nn._window_reader(dout))  # as the pool's gradient
    for got, ref in zip(nn.batchnorm_relu_backward(lazy_dout, cache),
                        nn.batchnorm_relu_backward(dout, cache)):
        assert np.array_equal(np.asarray(got), np.asarray(ref))
    windows = nn._tile_bounds(t) + [(-2, 1), (t - 1, t + 2), (-1, t + 1)]
    windows += [(lo, lo + n) for lo, n in spans if lo <= t]
    for lazy in (a1, dx):
        full = np.asarray(lazy)
        assert full.dtype == dtype
        for i in range(b):
            for lo, hi in windows:
                assert np.array_equal(lazy.window(i, lo, hi), _padded_reference(full, i, lo, hi))
        w = rng.normal(size=(4, c, 3)).astype(dtype)
        assert np.array_equal(nn.conv1d_forward(lazy, w)[0], nn.conv1d_forward(full, w)[0])
        d = rng.normal(size=(b, 4, t)).astype(dtype)
        for got, ref in zip(nn.conv1d_backward(d, (lazy, w)), nn.conv1d_backward(d, (full, w))):
            assert np.array_equal(got, ref)
        x, w = rng.normal(size=(b, 2, t)).astype(dtype), rng.normal(size=(c, 2, 3)).astype(dtype)
        for got, ref in zip(nn.conv1d_backward(lazy, (x, w)), nn.conv1d_backward(full, (x, w))):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("with_skip", [False, True])
def test_batchnorm_relu_gradients_match_fd(with_skip):
    rng = np.random.default_rng(29)
    x = rng.normal(size=(3, 2, 5))
    gamma = rng.normal(size=2) + 1.0
    beta = rng.normal(size=2)
    skip = rng.normal(size=x.shape) if with_skip else None
    st_ = bn_state(2, dtype=np.float64)
    fd_layer_check(lambda: nn.batchnorm_relu_forward(x, gamma, beta, st_, skip),
                   nn.batchnorm_relu_backward, [x, gamma, beta] + ([skip] if with_skip else []), rng)


def test_relu_caches_its_output():
    x = np.random.default_rng(23).normal(size=(2, 3, 10))
    out, cache = nn.relu_forward(x)
    assert cache is out
    dout = np.random.default_rng(24).normal(size=x.shape)
    assert np.array_equal(nn.relu_backward(dout, cache), dout * (x > 0))


# --- adaptive average pooling ----------------------------------------------------


def test_pool_hand_bins():
    out, _ = nn.adaptive_avg_pool1d_forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]), 2)
    assert np.array_equal(out[0, 0], [1.5, 3.5])


def test_pool_identity_when_out_equals_t():
    x = np.random.default_rng(15).normal(size=(2, 3, 6))
    out, _ = nn.adaptive_avg_pool1d_forward(x, 6)
    assert np.array_equal(out, x)


def test_pool_constant_input():
    out, _ = nn.adaptive_avg_pool1d_forward(np.full((1, 2, 10), 3.3), 4)
    assert np.allclose(out, 3.3)


@given(st.sampled_from([(12, 3), (12, 4), (20, 5), (16, 16)]))
@settings(max_examples=20, deadline=None)
def test_pool_preserves_global_mean_when_divisible(shape):
    t, out_len = shape
    x = np.random.default_rng(16).normal(size=(2, 3, t))
    out, _ = nn.adaptive_avg_pool1d_forward(x, out_len)
    assert abs(out.mean() - x.mean()) < 1e-6


def test_pool_rejects_bad_out_len():
    x = np.zeros((1, 1, 4))
    with pytest.raises(ValueError):
        nn.adaptive_avg_pool1d_forward(x, 0)
    with pytest.raises(ValueError):
        nn.adaptive_avg_pool1d_forward(x, 5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t, out_len", [(1000, 7), (1001, 7), (130, 128), (10, 4), (9, 9)])
def test_pool_gradient_windows_match_the_dense_gradient(dtype, t, out_len):
    """The lazy pool gradient is bit for bit the dense dx, built bin by bin, also where
    adjacent bins share a column, in windows past the row's edges and read out of order."""
    rng = np.random.default_rng(t)
    dout = rng.normal(size=(2, 3, out_len)).astype(dtype)
    bins = nn._pool_bins(t, out_len)
    assert any(b > a for (_, b), (a, _) in zip(bins, bins[1:])) == (t % out_len != 0)
    dense = np.zeros((2, 3, t), dtype=dtype)
    for j, (s, e) in enumerate(bins):
        dense[:, :, s:e] += dout[:, :, j : j + 1] / (e - s)
    dx = nn.adaptive_avg_pool1d_backward(dout, (t, bins))
    assert isinstance(dx, nn.Windows) and dx.shape == dense.shape and dx.dtype == dtype
    assert np.array_equal(np.asarray(dx), dense)
    spans = [(-3, 2), (t - 2, t + 3), (-1, t + 1), (t // 2, t // 2), (-5, -1), (t + 1, t + 4)]
    spans += [tuple(sorted(rng.integers(-2, t + 3, size=2))) for _ in range(8)]
    reads = [(i, lo, hi) for i in range(2) for lo, hi in spans]
    for k in rng.permutation(len(reads)):
        i, lo, hi = reads[k]
        assert np.array_equal(dx.window(i, lo, hi), _padded_reference(dense, i, lo, hi))


def test_pool_gradients_match_fd():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 3, 10))
    fd_layer_check(lambda: nn.adaptive_avg_pool1d_forward(x, 4), nn.adaptive_avg_pool1d_backward,
                   [x], rng)


# --- GRU ---------------------------------------------------------------------------


def test_gru_zero_parameters_fixed_point():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 4, 3))
    p = GRUDirParams(**{f: np.zeros((5, 3) if f.startswith("w_i") else (5, 5) if f.startswith("w_h") else 5)
                        for f in GRU_FIELDS})
    h, _ = nn.gru_forward(x, p)
    assert np.array_equal(h, np.zeros((2, 5)))


def test_bigru_single_frame_symmetry():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 3, 1))  # (B, C, T): one frame
    w = make_gru_weights(4, 3, np.random.default_rng(20))
    out, _ = nn.bigru_forward(x, *w, *w)  # shared weights both directions
    assert np.array_equal(out[:, :4], out[:, 4:])


def test_gru_gradients_match_fd():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 3, 4))
    w = make_gru_weights(5, 4, rng)
    fd_layer_check(lambda: nn.gru_forward(x, GRUDirParams(*w)), nn.gru_backward, [x, *w], rng)


def test_bigru_gradients_match_fd():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 4, 3))  # (B, C, T)
    w = make_gru_weights(5, 4, rng) + make_gru_weights(5, 4, rng)
    fd_layer_check(lambda: nn.bigru_forward(x, *w), nn.bigru_backward, [x, *w], rng)


def test_gru_shape_error():
    p = GRUDirParams(*make_gru_weights(4, 3, np.random.default_rng(23)))
    with pytest.raises(ShapeError):
        nn.gru_forward(np.zeros((2, 5, 7)), p)


# --- conv -> batch norm -> ReLU unit ---------------------------------------------------


@pytest.mark.parametrize("with_skip", [False, True])
def test_conv_bn_relu_gradients_match_fd(with_skip):
    rng = np.random.default_rng(26)
    x = rng.normal(size=(2, 3, 7))
    w = rng.normal(size=(4, 3, 3)) * 0.3
    gamma, beta = 1.0 + rng.normal(size=4) * 0.1, rng.normal(size=4) * 0.1
    skip = rng.normal(size=(2, 4, 7)) if with_skip else None
    st_ = bn_state(4, dtype=np.float64)
    fd_layer_check(lambda: nn.conv_bn_relu_forward(x, w, gamma, beta, st_, "train", skip),
                   nn.conv_bn_relu_backward, [x, w, gamma, beta] + ([skip] if with_skip else []), rng)


# --- residual block ----------------------------------------------------------------


def make_res_arrays(c, rng):
    """(w1, gamma1, beta1, w2, gamma2, beta2) of a residual block."""
    return [a for _ in range(2) for a in (
        rng.normal(size=(c, c, 3)) * 0.3, 1.0 + rng.normal(size=c) * 0.1, rng.normal(size=c) * 0.1)]


def make_res_states(c):
    return [bn_state(c, dtype=np.float64) for _ in range(2)]


def test_residual_dead_branch_reduces_to_relu():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(2, 3, 6))
    weights = make_res_arrays(3, rng)
    for a in weights:
        a[...] = 0
    out, cache = nn.residual_block_forward(x, *weights, *make_res_states(3), "train")
    assert np.allclose(out, np.maximum(x, 0.0))
    dx, *_ = nn.residual_block_backward(np.ones_like(out), cache)
    assert np.array_equal(dx, (x > 0).astype(float))


def test_residual_gradients_match_fd():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(2, 3, 6))
    weights, states = make_res_arrays(3, rng), make_res_states(3)
    fd_layer_check(lambda: nn.residual_block_forward(x, *weights, *states, "train"),
                   nn.residual_block_backward, [x, *weights], rng)


@pytest.mark.parametrize("t", [7, 9, 65, 129, 200])
def test_residual_gradients_match_fd_across_tiles(monkeypatch, t):
    """With 64-sample tiles: the packed mask bits (the last byte part-filled at odd T), the
    batch statistics summed tile by tile and unit 1's dx added into dskip tile by tile give
    the true gradients."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(t)
    x = rng.normal(size=(2, 3, t))
    weights, states = make_res_arrays(3, rng), make_res_states(3)
    fd_layer_check(lambda: nn.residual_block_forward(x, *weights, *states, "train"),
                   nn.residual_block_backward, [x, *weights], rng)


@pytest.mark.parametrize("t", TILE_CROSSING_T)
def test_residual_gradients_match_fd_at_tile_crossings(t):
    """Every gradient at full-size tiles, where each batch norm's mask bits cross tile edges.
    A weight, gamma or beta step moves every pre-ReLU value, so at these lengths a step of
    1e-5 often crosses a ReLU kink (central differences off by up to 5%); `fd_layer_check`
    then shrinks it until both masks are unchanged."""
    rng = np.random.default_rng(t)
    x = rng.normal(size=(2, 3, t))
    weights, states = make_res_arrays(3, rng), make_res_states(3)
    fd_layer_check(lambda: nn.residual_block_forward(x, *weights, *states, "train"),
                   nn.residual_block_backward, [x, *weights], rng)


# --- Adam -------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    p = ParamTensor("theta", np.array([1.0]))
    p.grad[...] = 1.0
    Adam({"theta": p}, lr=1e-4).step()
    assert p.values[0] - 1.0 == pytest.approx(-1e-4, rel=1e-6)
    assert p.grad[0] == 0.0  # grads zeroed after the step


def test_adam_zero_gradient_no_change():
    p = ParamTensor("theta", np.array([1.0, -2.0]))
    Adam({"theta": p}, lr=0.1).step()
    assert np.array_equal(p.values, [1.0, -2.0])


def test_adam_nonfinite_gradient_names_parameter():
    p = ParamTensor("bad.tensor", np.array([1.0]))
    p.grad[...] = np.nan
    with pytest.raises(TrainingError, match="bad.tensor"):
        Adam({"bad.tensor": p}, lr=0.1).step()


def test_adam_nonfinite_gradient_changes_nothing():
    a = ParamTensor("a", np.array([1.0]))
    b = ParamTensor("b", np.array([2.0]))
    a.grad[...] = 1.0
    b.grad[...] = np.nan
    opt = Adam({"a": a, "b": b}, lr=0.1)
    with pytest.raises(TrainingError, match="'b'"):
        opt.step()
    assert opt.t == 0
    assert a.values[0] == 1.0 and a.grad[0] == 1.0
    assert b.values[0] == 2.0 and np.isnan(b.grad[0])
    assert all(not np.any(s[k]) for s in (opt._m, opt._v) for k in ("a", "b"))


def test_adam_deterministic_trajectory():
    def run():
        rng = np.random.default_rng(26)
        p = ParamTensor("w", rng.normal(size=8))
        opt = Adam({"w": p}, lr=1e-2)
        for _ in range(5):
            p.grad[...] = rng.normal(size=8)
            opt.step()
        return p.values

    assert np.array_equal(run(), run())


# --- finite differences --------------------------------------------------------------


def test_fd_check_quadratic():
    theta = ParamTensor("theta", np.array([3.0]))
    theta.grad[...] = 6.0  # analytic gradient of theta^2

    def f():
        return float(theta.values[0] ** 2)

    assert finite_difference_check(f, [theta]) < 1e-9


def test_fd_check_catches_corruption():
    theta = ParamTensor("theta", np.array([3.0]))
    theta.grad[...] = 6.2  # deliberately wrong

    def f():
        return float(theta.values[0] ** 2)

    assert finite_difference_check(f, [theta]) > 1e-2
