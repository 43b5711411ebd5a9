"""Numeric layer kernels: forward passes, hand-derived gradients, Adam.

Every layer comes as a forward/backward pair. Forward returns (out, cache);
backward takes the upstream gradient plus the cache and returns input and
parameter gradients. Training runs in float32; gradient checking builds the
same graph in float64, where central finite differences are trustworthy. Convs
take no bias: each feeds a batch norm, whose beta plays that role.

Cache conventions, which bound what a training forward keeps alive: each batch
norm runs fused with the ReLU after it (and a residual block's skip add between
them) in `batchnorm_relu_forward`, which caches its input, its per-channel
float64 mean and invstd, gamma and its output, not xhat. ReLU caches its output
(out > 0 exactly where x > 0), and conv1d caches its unpadded input, so a conv
after a ReLU holds the very same array. `batchnorm1d_*` and `relu_*` are the
unfused reference the fused pair is tested against; the head runs `relu_*`. No
kernel keeps a padded or otherwise copied (B, C, T) array, and kernels write
into fresh outputs only, never into an array a cache holds.

Eval convention: an eval forward keeps nothing for a backward pass, so it does
not run batch norm at all. `fold_batchnorm` folds each batch norm into the conv
before it, from the current parameters and running statistics on every call
(nothing is cached; the optimizer updates weights in place between calls), and
`conv1d_relu` adds the folded bias and the residual skip and applies the ReLU
in place in the conv's output. `batchnorm1d_forward`'s eval branch is the
unfolded reference; it returns no cache, so there is no eval backward.

GRU convention: the reset gate multiplies the hidden-to-candidate product,
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
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
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


def conv1d_forward(x, w):
    if x.ndim != 3:
        raise ShapeError(f"conv1d: expected x (B, C_in, T), got {x.shape}")
    if w.ndim != 3 or w.shape[2] != 3:
        raise ShapeError(f"conv1d: expected w (C_out, C_in, 3), got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: x has {x.shape[1]} channels but w expects {w.shape[1]}")
    # tap k reads x[t + k - 1] (zero outside); each output sums tap 1, 0, 2 in that order
    if x.shape[1] == 1:  # the stem: each tap is a broadcast product, cheaper than a K=1 GEMM
        out = w[:, 0, 1, None] * x
        out[:, :, 1:] += w[:, 0, 0, None] * x[:, :, :-1]
        out[:, :, :-1] += w[:, 0, 2, None] * x[:, :, 1:]
        return out, (x, w)
    out = np.matmul(w[:, :, 1], x)
    tap = np.empty_like(out)
    np.matmul(w[:, :, 0], x, out=tap)
    out[:, :, 1:] += tap[:, :, :-1]
    np.matmul(w[:, :, 2], x, out=tap)
    out[:, :, :-1] += tap[:, :, 1:]
    return out, (x, w)


def conv1d_backward(dout, cache):
    x, w = cache
    xt = x.transpose(0, 2, 1)
    dw = np.empty_like(w)
    dw[:, :, 0] = np.matmul(dout[:, :, 1:], xt[:, :-1]).sum(axis=0)
    dw[:, :, 1] = np.matmul(dout, xt).sum(axis=0)
    dw[:, :, 2] = np.matmul(dout[:, :, :-1], xt[:, 1:]).sum(axis=0)
    dx = np.matmul(w[:, :, 1].T, dout)
    tap = np.empty_like(dx)
    np.matmul(w[:, :, 0].T, dout, out=tap)
    dx[:, :, :-1] += tap[:, :, 1:]
    np.matmul(w[:, :, 2].T, dout, out=tap)
    dx[:, :, 1:] += tap[:, :, :-1]
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


def batchnorm_relu_forward(x, gamma, beta, state: BatchNormState, skip=None):
    """Training only: relu(batchnorm1d(x) + skip), normalized by the batch statistics.

    The batch statistics update the running ones. The per-channel sum and sum of squares each take one float64 pass over x;
    in float64 the one-pass variance E[x^2] - mean^2 loses nothing that matters
    for float32 data. The output is one fresh array, x * scale + shift, to which
    the skip is added and the ReLU applied in place.
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
    out = np.multiply(x, scale.astype(x.dtype)[:, None])
    out += (beta - mean * scale).astype(x.dtype)[:, None]
    if skip is not None:
        out += skip
    np.maximum(out, 0, out=out)
    return out, (x, mean, invstd, gamma, out, skip is not None)


def batchnorm_relu_backward(dout, cache):
    """(dx, dgamma, dbeta), and dskip when the forward took a skip.

    With g the upstream gradient under the ReLU mask and xhat = (x - mean) * invstd,
    dx = gamma * invstd / n * (n * g - sum(g) - xhat * sum(g * xhat)), which is
    a * g + b * x + c with per-channel a, b, c. dskip is g itself.
    """
    x, mean, invstd, gamma, out, has_skip = cache
    n = x.shape[0] * x.shape[2]
    g = dout * (out > 0)  # subgradient at exactly 0 is 0
    dbeta = g.sum(axis=(0, 2), dtype=np.float64)
    dgamma = invstd * (np.einsum("bct,bct->c", g, x, dtype=np.float64) - mean * dbeta)
    a = gamma * invstd
    b = -a * invstd * dgamma / n
    c = -a * dbeta / n - b * mean
    a, b, c = (v.astype(g.dtype)[:, None] for v in (a, b, c))
    dx = np.empty_like(g)
    tmp = np.empty_like(g[0])
    for gi, xi, dxi in zip(g, x, dx):  # one sample at a time, so the b * x temporary stays small
        np.multiply(gi, a, out=dxi)
        dxi += np.multiply(xi, b, out=tmp)
        dxi += c
    grads = (dx, dgamma.astype(g.dtype), dbeta.astype(g.dtype))
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


def conv1d_relu(x, w, b, skip=None):
    """Inference only: relu(conv1d(x, w) + b + skip), computed in the conv's output; no cache."""
    out, _ = conv1d_forward(x, w)
    out += b[None, :, None]
    if skip is not None:
        out += skip
    return np.maximum(out, 0, out=out)


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
    out = np.empty(x.shape[:2] + (out_len,), dtype=x.dtype)
    for j, (s, e) in enumerate(bins):
        out[:, :, j] = x[:, :, s:e].mean(axis=2)
    return out, (t, bins)


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
    """Run one direction over (B, T, I); returns the final hidden state (B, H)."""
    if x.ndim != 3 or x.shape[2] != p.w_ir.shape[1]:
        raise ShapeError(f"gru: expected x (B, T, {p.w_ir.shape[1]}), got {x.shape}")
    b, t, _ = x.shape
    h = np.zeros((b, p.hidden), dtype=x.dtype)
    steps = []
    for i in range(t):
        xt = x[:, i, :]
        r = sigmoid(xt @ p.w_ir.T + p.b_ir + h @ p.w_hr.T + p.b_hr)
        z = sigmoid(xt @ p.w_iz.T + p.b_iz + h @ p.w_hz.T + p.b_hz)
        hn = h @ p.w_hn.T + p.b_hn
        n = np.tanh(xt @ p.w_in.T + p.b_in + r * hn)
        h_new = (1.0 - z) * n + z * h
        steps.append((xt, h, r, z, n, hn))
        h = h_new
    return h, (steps, p, x.shape)


def gru_backward(dh_final, cache):
    """Backprop-through-time; gradient arrives only at the final hidden state."""
    steps, p, x_shape = cache
    dx = np.zeros(x_shape, dtype=dh_final.dtype)
    g = {k: np.zeros_like(v) for k, v in vars(p).items()}
    dh = dh_final
    for i in range(len(steps) - 1, -1, -1):
        xt, h_prev, r, z, n, hn = steps[i]
        dn = dh * (1.0 - z)
        dz = dh * (h_prev - n)
        dh_prev = dh * z
        da_n = dn * (1.0 - n * n)
        dgh_n = da_n * r
        dr = da_n * hn
        da_r = dr * r * (1.0 - r)
        da_z = dz * z * (1.0 - z)

        dx[:, i, :] = da_r @ p.w_ir + da_z @ p.w_iz + da_n @ p.w_in
        dh_prev = dh_prev + da_r @ p.w_hr + da_z @ p.w_hz + dgh_n @ p.w_hn

        g["w_ir"] += da_r.T @ xt
        g["w_iz"] += da_z.T @ xt
        g["w_in"] += da_n.T @ xt
        g["w_hr"] += da_r.T @ h_prev
        g["w_hz"] += da_z.T @ h_prev
        g["w_hn"] += dgh_n.T @ h_prev
        g["b_ir"] += da_r.sum(axis=0)
        g["b_iz"] += da_z.sum(axis=0)
        g["b_in"] += da_n.sum(axis=0)
        g["b_hr"] += da_r.sum(axis=0)
        g["b_hz"] += da_z.sum(axis=0)
        g["b_hn"] += dgh_n.sum(axis=0)
        dh = dh_prev
    return dx, g


def bigru_forward(x, fwd: GRUDirParams, bwd: GRUDirParams):
    """Bidirectional GRU; output is the two final hidden states concatenated (B, 2H)."""
    h_f, cache_f = gru_forward(x, fwd)
    h_b, cache_b = gru_forward(x[:, ::-1, :], bwd)
    return np.concatenate([h_f, h_b], axis=1), (cache_f, cache_b, fwd.hidden)


def bigru_backward(dout, cache):
    cache_f, cache_b, hidden = cache
    dx_f, g_f = gru_backward(dout[:, :hidden], cache_f)
    dx_b, g_b = gru_backward(dout[:, hidden:], cache_b)
    return dx_f + dx_b[:, ::-1, :], g_f, g_b


# --- residual block ------------------------------------------------------------


@dataclass
class ResBlockParams:
    conv1_w: np.ndarray
    bn1_gamma: np.ndarray
    bn1_beta: np.ndarray
    bn1_state: BatchNormState
    conv2_w: np.ndarray
    bn2_gamma: np.ndarray
    bn2_beta: np.ndarray
    bn2_state: BatchNormState


def residual_block_forward(x, p: ResBlockParams, mode: str):
    """y = relu(BN2(conv2(relu(BN1(conv1(x))))) + x); channel count is preserved.

    Train mode runs each BN with its ReLU fused, the second adding the skip.
    Eval mode is the unfolded reference for `Model`'s folded eval walk and
    returns no cache.
    """
    c1, cache_c1 = conv1d_forward(x, p.conv1_w)
    if mode == "train":
        a1, cache_n1 = batchnorm_relu_forward(c1, p.bn1_gamma, p.bn1_beta, p.bn1_state)
        c2, cache_c2 = conv1d_forward(a1, p.conv2_w)
        out, cache_n2 = batchnorm_relu_forward(c2, p.bn2_gamma, p.bn2_beta, p.bn2_state, skip=x)
        return out, (cache_c1, cache_n1, cache_c2, cache_n2)
    n1, _ = batchnorm1d_forward(c1, p.bn1_gamma, p.bn1_beta, p.bn1_state, mode)
    a1, _ = relu_forward(n1)
    c2, _ = conv1d_forward(a1, p.conv2_w)
    n2, _ = batchnorm1d_forward(c2, p.bn2_gamma, p.bn2_beta, p.bn2_state, mode)
    n2 += x
    out, _ = relu_forward(n2)
    return out, None


def residual_block_backward(dout, cache):
    cache_c1, cache_n1, cache_c2, cache_n2 = cache
    dc2, dg2, dbeta2, dskip = batchnorm_relu_backward(dout, cache_n2)
    da1, dw2 = conv1d_backward(dc2, cache_c2)
    dc1, dg1, dbeta1 = batchnorm_relu_backward(da1, cache_n1)
    dx, dw1 = conv1d_backward(dc1, cache_c1)
    grads = {"conv1_w": dw1, "bn1_gamma": dg1, "bn1_beta": dbeta1,
             "conv2_w": dw2, "bn2_gamma": dg2, "bn2_beta": dbeta2}
    dx += dskip
    return dx, grads


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


# --- gradient oracle -------------------------------------------------------------


def finite_difference_check(f, params, eps: float = 1e-5,
                            max_coords_per_param: int | None = None,
                            rng: np.random.Generator | None = None,
                            scale_floor: float = 1e-5) -> float:
    """Max relative error between analytic grads and central finite differences.

    `f()` evaluates the scalar forward loss at the current parameter values;
    `params` carry analytic gradients (populated by one backward pass before
    the call). Each sampled coordinate is perturbed by eps * (|theta| + 1).
    The relative-error denominator is floored at `scale_floor` so roundoff in
    near-zero gradients does not register as disagreement.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p in params:
        flat_v = p.values.reshape(-1)
        flat_g = p.grad.reshape(-1)
        idx = np.arange(flat_v.size)
        if max_coords_per_param is not None and flat_v.size > max_coords_per_param:
            idx = rng.choice(flat_v.size, size=max_coords_per_param, replace=False)
        for i in idx:
            orig = flat_v[i]
            h = eps * (abs(orig) + 1.0)
            flat_v[i] = orig + h
            f_plus = f()
            flat_v[i] = orig - h
            f_minus = f()
            flat_v[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = flat_g[i]
            denom = max(abs(analytic), abs(numeric), scale_floor)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
