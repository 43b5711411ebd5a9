import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rawnetlite import nn_core as nn
from rawnetlite.nn_core import (
    Adam, BatchNormState, GRUDirParams, ParamTensor, ShapeError, TrainingError,
)

from conftest import finite_difference_check

GRU_FIELDS = ["w_ir", "w_iz", "w_in", "w_hr", "w_hz", "w_hn",
              "b_ir", "b_iz", "b_in", "b_hr", "b_hz", "b_hn"]


def fd_layer_check(forward, backward, arrays_to_check, rng, n_coords=20, tol=1e-4):
    """Project the layer output to a scalar and compare grads to central FDs.

    `backward` is a kernel's own: it returns (dx, *grads), or a bare dx.
    """
    out, cache = forward()
    w = rng.normal(size=out.shape)
    grads = backward(w, cache)
    grads = grads if isinstance(grads, tuple) else (grads,)
    worst = 0.0
    for arr, g in zip(arrays_to_check, grads):
        flat, gf = arr.reshape(-1), np.asarray(g).reshape(-1)
        for i in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            orig = flat[i]
            h = 1e-5 * (abs(orig) + 1.0)
            flat[i] = orig + h
            fp = float((forward()[0] * w).sum())
            flat[i] = orig - h
            fm = float((forward()[0] * w).sum())
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


# --- batchnorm ---------------------------------------------------------------------


def test_batchnorm_constant_channel_is_zero():
    x = np.full((2, 1, 3), 7.0)
    st_ = BatchNormState.create(1, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.ones(1), np.zeros(1), st_, "train")
    assert np.allclose(out, 0.0)


def test_batchnorm_two_point_channel():
    x = np.array([[[0.0]], [[2.0]]])
    st_ = BatchNormState.create(1, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.ones(1), np.zeros(1), st_, "train")
    assert np.allclose(out.ravel(), [-0.999995, 0.999995], atol=1e-6)


def test_batchnorm_affine_rescale():
    x = np.array([[[0.0]], [[2.0]]])
    st_ = BatchNormState.create(1, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.array([2.0]), np.array([3.0]), st_, "train")
    assert np.allclose(out.ravel(), [1.00001, 4.99999], atol=1e-4)


def test_batchnorm_normalizes_batch():
    rng = np.random.default_rng(12)
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3, 50))
    st_ = BatchNormState.create(3, dtype=np.float64)
    out, _ = nn.batchnorm1d_forward(x, np.ones(3), np.zeros(3), st_, "train")
    assert np.max(np.abs(out.mean(axis=(0, 2)))) < 1e-6
    assert np.max(np.abs(out.var(axis=(0, 2)) - 1.0)) < 1e-4


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(13)
    x = rng.normal(loc=1.0, size=(4, 2, 25))
    st_ = BatchNormState.create(2, dtype=np.float64)
    nn.batchnorm1d_forward(x, np.ones(2), np.zeros(2), st_, "train")
    n = 4 * 25
    expected_mean = 0.1 * x.mean(axis=(0, 2))
    expected_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2)) * n / (n - 1)
    assert np.allclose(st_.running_mean, expected_mean)
    assert np.allclose(st_.running_var, expected_var)
    assert st_.initialized


def test_batchnorm_eval_before_train_rejected():
    st_ = BatchNormState.create(2)
    with pytest.raises(TrainingError, match="eval mode before"):
        nn.batchnorm1d_forward(np.zeros((1, 2, 4)), np.ones(2), np.zeros(2), st_, "eval")


def test_batchnorm_gradients_match_fd_train():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 5))
    gamma = rng.normal(size=2) + 1.0
    beta = rng.normal(size=2)
    st_ = BatchNormState.create(2, dtype=np.float64)
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
# the tile boundaries just before, at and just after T, and make three tiles. The
# forward and dx still match the reference bit for bit, except dx with C_in = 1:
# each of its taps is then a matrix-vector product, which the BLAS rounds by the
# column's place in the call, so it agrees within DX_GEMV_TOL_EPS instead.

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
    assert np.array_equal(out, conv1d_reference(x, w))
    if c_in > 1:
        assert np.array_equal(dx, ref_dx)
    else:
        assert np.abs(dx - ref_dx).max() <= DX_GEMV_TOL_EPS * np.finfo(dtype).eps * np.abs(ref_dx).max()
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
@pytest.mark.parametrize("c_in", [1, 24])
@pytest.mark.parametrize("t", [63, 128, 129, 200])
def test_conv_tiles_finish_each_tile_when_they_yield_it(monkeypatch, lazy, c_in, t):
    """With 64-sample tiles, output columns s:e equal the padded reference as soon as
    `_conv_tiles` yields tile [s, e), for an ndarray source and a `Windows` one."""
    monkeypatch.setattr(nn, "_TILE", 64)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, c_in, t)).astype(np.float32)
    w = rng.normal(size=(16, c_in, 3)).astype(np.float32)
    scale, shift = (rng.normal(size=(c_in, 1)).astype(np.float32) for _ in range(2))
    src = nn._affine_relu_windows(x, scale, shift) if lazy else x
    full = np.asarray(src)
    ref = conv1d_reference(full, w)
    out = np.full(ref.shape, np.nan, dtype=np.float32)
    seen = []
    for i, tile, s in nn._conv_tiles(src, nn._taps(w), out, nn._conv_product(w)):
        e = s + tile.shape[1]
        assert np.array_equal(tile, full[i, :, s:e])
        assert np.array_equal(out[i, :, s:e], ref[i, :, s:e]), (i, s, e)
        seen.append((i, s, e))
    assert seen == [(i, s, e) for i in range(2) for s, e in nn._tile_bounds(t)]


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
    st_ = BatchNormState.create(32, dtype=dtype)
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
    st_fused, st_ref = BatchNormState.create(32, dtype=dtype), BatchNormState.create(32, dtype=dtype)
    out, cache = nn.batchnorm_relu_forward(x, gamma, beta, st_fused, skip)
    got = (out, *nn.batchnorm_relu_backward(dout, cache), st_fused.running_mean, st_fused.running_var)
    ref = (*batchnorm_relu_reference(x, gamma, beta, st_ref, skip, dout),
           st_ref.running_mean, st_ref.running_var)
    assert len(got) == len(ref) == (7 if with_skip else 6)
    for g, r in zip(got, ref):
        assert g.dtype == dtype and g.shape == r.shape
        assert np.abs(g - r).max() <= FUSED_TOL[dtype] * np.abs(r).max()
    assert st_fused.initialized


def test_batchnorm_relu_caches_input_and_output():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(2, 3, 10)).astype(np.float32)
    gamma, beta = rng.uniform(0.5, 2.0, 3).astype(np.float32), rng.normal(size=3).astype(np.float32)
    st_ = BatchNormState.create(3)
    out, cache = nn.batchnorm_relu_forward(x, gamma, beta, st_)
    cached_x, mean, invstd, cached_gamma, (scale, shift), cached_out, has_skip = cache
    assert cached_x is x and cached_out is out and cached_gamma is gamma and not has_skip
    assert mean.dtype == invstd.dtype == np.float64 and out.dtype == np.float32
    assert scale.dtype == shift.dtype == np.float32 and scale.shape == shift.shape == (3, 1)
    assert (out == 0).any() and (out > 0).any()
    # the cached scale and shift rebuild the output, bit for bit, one window at a time
    assert np.array_equal(np.asarray(nn._affine_relu_windows(x, scale, shift)), out)


@pytest.mark.parametrize("with_skip", [False, True])
def test_batchnorm_relu_backward_returns_dx_as_rows(with_skip):
    """dx is never full-size; g is, only as dskip."""
    rng = np.random.default_rng(30)
    x = rng.normal(size=(3, 4, 50)).astype(np.float32)
    skip = rng.normal(size=x.shape).astype(np.float32) if with_skip else None
    dout = rng.normal(size=x.shape).astype(np.float32)
    out, cache = nn.batchnorm_relu_forward(x, np.ones(4, np.float32), np.zeros(4, np.float32),
                                           BatchNormState.create(4), skip)
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
    out, cache = nn.batchnorm_relu_forward(c1, gamma, beta, BatchNormState.create(c, dtype),
                                           skip if with_skip else None)
    a1 = nn._affine_relu_windows(c1, *cache[4])
    dx = nn.batchnorm_relu_backward(dout, cache)[0]
    if not with_skip:  # a block's unit 1 caches a1 as its output
        assert np.array_equal(np.asarray(a1), out)
        lazy_out = nn.batchnorm_relu_backward(dout, cache[:5] + (a1, False))[0]
        assert np.array_equal(np.asarray(lazy_out), np.asarray(dx))
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
    st_ = BatchNormState.create(2, dtype=np.float64)
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
    st_ = BatchNormState.create(4, dtype=np.float64)
    fd_layer_check(lambda: nn.conv_bn_relu_forward(x, w, gamma, beta, st_, "train", skip),
                   nn.conv_bn_relu_backward, [x, w, gamma, beta] + ([skip] if with_skip else []), rng)


# --- residual block ----------------------------------------------------------------


def make_res_arrays(c, rng):
    """(w1, gamma1, beta1, w2, gamma2, beta2) of a residual block."""
    return [a for _ in range(2) for a in (
        rng.normal(size=(c, c, 3)) * 0.3, 1.0 + rng.normal(size=c) * 0.1, rng.normal(size=c) * 0.1)]


def make_res_states(c):
    return [BatchNormState.create(c, dtype=np.float64) for _ in range(2)]


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
