"""RawNetLite assembly: parameter registry, layer table, forward/backward, checkpoints.

Layer stack: Conv1D(1->C, k3, s1, p1) + BN + ReLU -> n residual blocks ->
AdaptiveAvgPool1D(pool_len) -> BiGRU -> Linear + ReLU -> Linear + Sigmoid.
`Model.layers` is the single source of that order: one (registry prefix,
nn_core kernel stem, constants) entry per layer. One loop runs it forward and
one backward, with no special case for any layer or mode; the only shape
handling is the (B, 1) output read as (B,) probabilities. The stem is one conv
-> batch norm -> ReLU unit, and a residual block is two. Each kernel takes, in
`nn_core`'s one calling convention, the registry values under its prefix in
registration order, the entry's constants, and its batch-norm states (if any)
with the mode; its backward returns the gradients in registration order.
Kernels are resolved on `nn_core` by name at each call, never stored, so a
function rebound there (a test's mutation, the benchmark's tracer) is the one
that runs. In eval mode the walk keeps nothing and runs depth first: the stem
and the blocks fold each batch norm into its conv inside `nn_core` and return
lazy `nn_core.Windows`, which the pool reads one batch row and one time tile at
a time, so no (B, C, T) activation is allocated. The registry owns every
trainable tensor; batch-norm running statistics are serialized alongside but
are not parameters. Checkpoints are format 2. `load` also reads format 1,
which held a bias per conv: it subtracts each from its batch norm's running
mean, which keeps the eval function and the training trajectory.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn_core
from .fileio import atomic_write
from .nn_core import BatchNormState, GRUDirParams, ParamTensor, ShapeError

_MAGIC = b"RNLCKPT1"
_FORMAT_VERSION = 2


class ConfigError(ValueError):
    pass


class CheckpointFormatError(ValueError):
    pass


class CheckpointIntegrityError(ValueError):
    pass


@dataclass(frozen=True)
class RawNetLiteConfig:
    channels: int = 64
    kernel: int = 3
    n_res_blocks: int = 3
    pool_len: int = 128
    gru_hidden: int = 128
    fc_hidden: int = 64
    input_len: int = 48000
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if type(getattr(self, f.name)) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {getattr(self, f.name)!r}")
        for name in ("channels", "pool_len", "gru_hidden", "fc_hidden", "input_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kernel != 3:
            raise ConfigError(f"only kernel size 3 is supported, got {self.kernel}")
        if self.n_res_blocks < 0:
            raise ConfigError(f"n_res_blocks must be >= 0, got {self.n_res_blocks}")
        if self.pool_len > self.input_len:
            raise ConfigError(f"pool_len {self.pool_len} exceeds input_len {self.input_len}")


_GRU_FIELDS = tuple(f.name for f in fields(GRUDirParams))
_HEADER_KEYS = ("payload_bytes", "payload_sha256", "config", "tensors", "bn_initialized")


def _layer_table(config: RawNetLiteConfig) -> list[tuple[str, str, tuple]]:
    """(registry prefix, nn_core kernel stem, constants) for every layer, in forward order."""
    return ([("stem", "conv_bn_relu", ())]
            + [(f"res{i}", "residual_block", ()) for i in range(config.n_res_blocks)]
            + [("pool", "adaptive_avg_pool1d", (config.pool_len,)), ("gru", "bigru", ()),
               ("head.fc1", "linear", ()), ("head.relu", "relu", ()), ("head.fc2", "linear", ()),
               ("out", "sigmoid", ())])


class Model:
    """Parameter registry plus the layer table that wires nn_core kernels."""

    def __init__(self, config: RawNetLiteConfig, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.layers = _layer_table(config)
        self.params: dict[str, ParamTensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        self.metadata: dict = {}

    # -- construction ---------------------------------------------------

    def _add(self, name: str, values: np.ndarray) -> None:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self.params[name] = ParamTensor(name, values.astype(self.dtype))

    def _add_bn(self, prefix: str, channels: int) -> None:
        self._add(f"{prefix}.gamma", np.ones(channels))
        self._add(f"{prefix}.beta", np.zeros(channels))
        self.bn_states[prefix] = BatchNormState.create(channels, dtype=self.dtype)

    @property
    def parameter_count(self) -> int:
        return sum(p.values.size for p in self.params.values())

    # -- forward / backward ----------------------------------------------

    def _layer_params(self, prefix: str) -> list[ParamTensor]:
        return [p for name, p in self.params.items() if name.startswith(prefix + ".")]

    def _kernel_args(self, prefix: str, constants: tuple, mode: str) -> tuple:
        """Arguments after the input for the forward kernel of the layer under `prefix`."""
        arrays = [p.values for p in self._layer_params(prefix)]
        states = [st for name, st in self.bn_states.items() if name.startswith(prefix + ".")]
        return (*arrays, *constants, *states, mode) if states else (*arrays, *constants)

    def forward(self, x: np.ndarray, mode: str = "eval") -> np.ndarray:
        return self._run(x, mode, caches=None)

    def forward_train(self, x: np.ndarray):
        caches: list = []
        return self._run(x, "train", caches), caches

    def _run(self, x: np.ndarray, mode: str, caches: list | None) -> np.ndarray:
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] != cfg.input_len:
            raise ShapeError(f"expected batch of shape (B, 1, {cfg.input_len}), got {x.shape}")
        h = x.astype(self.dtype, copy=False)
        for prefix, stem, constants in self.layers:
            h, cache = getattr(nn_core, f"{stem}_forward")(h, *self._kernel_args(prefix, constants, mode))
            if caches is not None:
                caches.append(cache)
            del cache  # without `caches`, freed before the next layer allocates
        return h[:, 0]

    def backward(self, dprobs: np.ndarray, caches: list) -> None:
        """Accumulate gradients of a scalar loss into the registry, given dL/dprob.

        `dprobs` is cast to the model dtype, so a float64 loss gradient does
        not run a float32 model's backward in float64.
        """
        d = dprobs.astype(self.dtype, copy=False)[:, None]
        for (prefix, stem, _), cache in zip(reversed(self.layers), reversed(caches), strict=True):
            out = getattr(nn_core, f"{stem}_backward")(d, cache)
            d, *grads = out if isinstance(out, tuple) else (out,)
            for p, g in zip(self._layer_params(prefix), grads, strict=True):
                p.grad += g

    # -- serialization ----------------------------------------------------

    def _state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every serialized tensor in a fixed order: parameters, then BN stats."""
        out = [(name, p.values) for name, p in self.params.items()]
        for name, st in self.bn_states.items():
            out.append((f"{name}.running_mean", st.running_mean))
            out.append((f"{name}.running_var", st.running_var))
        return out


def build(config: RawNetLiteConfig, dtype=np.float32) -> Model:
    """Construct a model with seeded initialization.

    Conv and dense weights ~ U(+-sqrt(6 / fan_in)), dense biases zero; all
    GRU tensors ~ U(+-1/sqrt(H)); BN gamma 1 and beta 0. No conv biases: each
    conv feeds a batch norm whose beta plays that role. Equal seeds give
    bit-identical parameters.
    """
    m = Model(config, dtype=dtype)
    rng = np.random.default_rng(config.seed & ((1 << 64) - 1))
    c = config.channels

    def uniform(bound, *shape):
        return rng.uniform(-bound, bound, size=shape)

    m._add("stem.conv.w", uniform(np.sqrt(6.0 / 3.0), c, 1, 3))
    m._add_bn("stem.bn", c)

    conv_bound = np.sqrt(6.0 / (c * 3))
    for i in range(config.n_res_blocks):
        m._add(f"res{i}.conv1.w", uniform(conv_bound, c, c, 3))
        m._add_bn(f"res{i}.bn1", c)
        m._add(f"res{i}.conv2.w", uniform(conv_bound, c, c, 3))
        m._add_bn(f"res{i}.bn2", c)

    h = config.gru_hidden
    gru_bound = 1.0 / np.sqrt(h)
    for direction in ("fwd", "bwd"):
        for f in _GRU_FIELDS:
            if f.startswith("w_i"):
                shape = (h, c)
            elif f.startswith("w_h"):
                shape = (h, h)
            else:
                shape = (h,)
            m._add(f"gru.{direction}.{f}", uniform(gru_bound, *shape))

    m._add("head.fc1.w", uniform(np.sqrt(6.0 / (2 * h)), config.fc_hidden, 2 * h))
    m._add("head.fc1.b", np.zeros(config.fc_hidden))
    m._add("head.fc2.w", uniform(np.sqrt(6.0 / config.fc_hidden), 1, config.fc_hidden))
    m._add("head.fc2.b", np.zeros(1))
    return m


def save(model: Model, path) -> None:
    """Write a self-describing checkpoint: JSON header + float32 payload + checksum.

    The file is replaced atomically, so an interrupted save keeps the previous one.
    """
    entries = []
    chunks = []
    offset = 0
    for name, arr in model._state_arrays():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "<f4", "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "tensors": entries,
        "bn_initialized": {k: bool(v.initialized) for k, v in model.bn_states.items()},
        "metadata": model.metadata,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(payload)


def load(path) -> Model:
    """Load a checkpoint written by `save` (format 2) or in format 1; round trips are bit-exact."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointFormatError("not a checkpoint file (bad magic)")
    header_start = len(_MAGIC) + 8
    if len(blob) < header_start:
        raise CheckpointFormatError(f"truncated checkpoint: {len(blob)} bytes, no header length")
    (header_len,) = struct.unpack_from("<Q", blob, len(_MAGIC))
    try:
        header = json.loads(blob[header_start : header_start + header_len])
    except ValueError as e:  # JSONDecodeError, or bytes that are not text
        raise CheckpointFormatError(f"unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"header is a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if type(version) is not int or version not in (1, _FORMAT_VERSION):
        raise CheckpointFormatError(f"unsupported format version {version!r}")
    missing_keys = [k for k in _HEADER_KEYS if k not in header]
    if missing_keys:
        raise CheckpointFormatError(f"header is missing {missing_keys}")

    payload = blob[header_start + header_len :]
    if len(payload) != header["payload_bytes"]:
        raise CheckpointIntegrityError(
            f"payload is {len(payload)} bytes, header says {header['payload_bytes']}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointIntegrityError("payload checksum mismatch")

    try:
        config = RawNetLiteConfig(**header["config"])
    except (TypeError, ConfigError) as e:  # not a mapping of the config's fields, or a field out of range
        raise CheckpointFormatError(f"bad config block: {e}") from e
    tensors, flags = header["tensors"], header["bn_initialized"]
    if not isinstance(tensors, list):
        raise CheckpointFormatError(f"'tensors' is a JSON {type(tensors).__name__}, not a list")
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise CheckpointFormatError("'bn_initialized' is not an object of booleans")
    model = build(config)
    expected = dict(model._state_arrays())
    conv_biases = {}
    if version == 1:  # it also holds conv biases, to be folded into the batch norms' running means
        conv_biases = {bn.replace(".bn", ".conv") + ".b": st for bn, st in model.bn_states.items()}
        expected.update((name, np.empty_like(st.running_mean)) for name, st in conv_biases.items())
    seen = set()
    for entry in tensors:
        try:
            name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
        except (KeyError, TypeError) as e:
            raise CheckpointFormatError(f"malformed tensor entry {entry!r}: {e!r}") from e
        if not isinstance(name, str) or type(start) is not int or start < 0:
            raise CheckpointFormatError(f"malformed tensor entry {entry!r}")
        if name not in expected:
            raise CheckpointFormatError(f"unknown tensor {name!r} in checkpoint")
        if name in seen:
            raise CheckpointFormatError(f"tensor {name!r} appears twice")
        seen.add(name)
        target = expected[name]
        if shape != target.shape:
            raise CheckpointFormatError(
                f"tensor {name!r}: checkpoint shape {shape} != model shape {target.shape}")
        end = start + target.size * 4
        if end > len(payload):
            raise CheckpointIntegrityError(f"tensor {name!r} overruns payload")
        target[...] = np.frombuffer(payload[start:end], dtype="<f4").reshape(target.shape)
    missing = set(expected) - seen
    if missing:
        raise CheckpointFormatError(f"checkpoint missing tensors: {sorted(missing)}")
    for name, st in conv_biases.items():
        st.running_mean -= expected[name]

    for bn_name, flag in flags.items():
        if bn_name not in model.bn_states:
            raise CheckpointFormatError(f"unknown batch-norm state {bn_name!r}")
        model.bn_states[bn_name].initialized = flag
    model.metadata = header.get("metadata", {})
    return model
