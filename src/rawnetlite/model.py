"""RawNetLite assembly: tensor table, layer table, forward/backward, checkpoints.

Layer stack: Conv1D(1->C, k3, s1, p1) + BN + ReLU -> n residual blocks ->
AdaptiveAvgPool1D(pool_len) -> BiGRU -> Linear + ReLU -> Linear + Sigmoid.
`_tensor_shapes` is the one source of every serialized tensor's name, shape and
order, derived from the config: `build` draws from it, `Model` registers from
it, and `load` checks a checkpoint's header against it before allocating.
`Model.layers` is the one source of the layer order: a (registry prefix,
nn_core kernel stem, constants) entry per layer, run by one loop forward and
one backward with no special case for any layer or mode. The stem is one conv
-> batch norm -> ReLU unit, and a residual block is two. Each kernel takes, in
`nn_core`'s one calling convention, the registry values under its prefix in
registration order, the entry's constants, and its batch-norm states (if any)
with the mode; its backward returns the gradients in that order. Kernels are
resolved on `nn_core` by name at each call, so a function rebound there (a
test's mutation, the benchmark's tracer) is the one that runs. In eval mode the
stem and the blocks fold each batch norm into their conv and return lazy
`nn_core.Windows`, which the pool reads depth first, one batch row and one time
tile at a time. Batch-norm running statistics are serialized but are not
parameters. Checkpoints are format 2; `load` also reads format 1, which held a
bias per conv, and subtracts each from its batch norm's running mean, which
keeps the eval function and the training trajectory.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import Literal

import numpy as np

from . import nn_core
from .fileio import ConfigError, atomic_write, check_fields
from .nn_core import BatchNormState, GRUDirParams, ParamTensor, ShapeError

_MAGIC = b"RNLCKPT1"
_FORMAT_VERSION = 2


class CheckpointFormatError(ValueError):
    pass


class CheckpointIntegrityError(ValueError):
    pass


@dataclass(frozen=True)
class RawNetLiteConfig:
    channels: int = 64
    kernel: Literal[3] = 3  # the only kernel size `nn_core` implements
    n_res_blocks: int = 3
    pool_len: int = 128
    gru_hidden: int = 128
    fc_hidden: int = 64
    input_len: int = 48000
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for name in ("channels", "pool_len", "gru_hidden", "fc_hidden", "input_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_res_blocks < 0:
            raise ConfigError(f"n_res_blocks must be >= 0, got {self.n_res_blocks}")
        if self.pool_len > self.input_len:
            raise ConfigError(f"pool_len {self.pool_len} exceeds input_len {self.input_len}")


_HEADER_KEYS = ("payload_bytes", "payload_sha256", "config", "tensors", "bn_initialized")


def _tensor_shapes(config: RawNetLiteConfig, version: int = _FORMAT_VERSION):
    """(name, shape) of every serialized tensor in checkpoint order: the parameters in registration
    order (format 1 held a bias after each conv's weights), then each batch norm's running mean and
    variance. Lazy, so a consumer can stop before a large `n_res_blocks` costs anything."""
    c, h = config.channels, config.gru_hidden

    def units():  # (conv prefix, batch-norm prefix, conv input channels) of each unit
        yield "stem.conv", "stem.bn", 1
        yield from ((f"res{i}.conv{j}", f"res{i}.bn{j}", c) for i in range(config.n_res_blocks) for j in (1, 2))

    for conv, bn, c_in in units():
        yield f"{conv}.w", (c, c_in, 3)
        if version == 1:
            yield f"{conv}.b", (c,)
        yield f"{bn}.gamma", (c,)
        yield f"{bn}.beta", (c,)
    for direction in ("fwd", "bwd"):
        for f in fields(GRUDirParams):
            yield f"gru.{direction}.{f.name}", {"w_i": (h, c), "w_h": (h, h)}.get(f.name[:3], (h,))
    yield "head.fc1.w", (config.fc_hidden, 2 * h)
    yield "head.fc1.b", (config.fc_hidden,)
    yield "head.fc2.w", (1, config.fc_hidden)
    yield "head.fc2.b", (1,)
    for _, bn, _ in units():
        yield f"{bn}.running_mean", (c,)
        yield f"{bn}.running_var", (c,)


def _layer_table(config: RawNetLiteConfig) -> list[tuple[str, str, tuple]]:
    """(registry prefix, nn_core kernel stem, constants) for every layer, in forward order."""
    return ([("stem", "conv_bn_relu", ())]
            + [(f"res{i}", "residual_block", ()) for i in range(config.n_res_blocks)]
            + [("pool", "adaptive_avg_pool1d", (config.pool_len,)), ("gru", "bigru", ()),
               ("head.fc1", "linear", ()), ("head.relu", "relu", ()), ("head.fc2", "linear", ()),
               ("out", "sigmoid", ())])


class Model:
    """Parameter registry plus the layer table that wires nn_core kernels; holds `arrays` cast to `dtype`."""

    def __init__(self, config: RawNetLiteConfig, arrays: dict[str, np.ndarray], dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.layers = _layer_table(config)
        self.metadata: dict = {}
        names = [name for name, _ in _tensor_shapes(config)]  # `arrays` holds one array for each
        self.params: dict[str, ParamTensor] = {
            name: ParamTensor(name, arrays[name].astype(self.dtype, copy=False))
            for name in names if ".running_" not in name}
        self.bn_states: dict[str, BatchNormState] = {
            name.removesuffix(".running_mean"): BatchNormState(
                arrays[name].astype(self.dtype, copy=False),
                arrays[name.replace("_mean", "_var")].astype(self.dtype, copy=False))
            for name in names if name.endswith(".running_mean")}

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
        not run a float32 model's backward in float64. `caches` is consumed:
        each layer's cache is popped off it as its backward runs, so a layer's
        activations are freed when that backward returns, and the list is left
        empty.
        """
        if len(caches) != len(self.layers):
            raise ValueError(f"{len(caches)} caches for {len(self.layers)} layers")
        d = dprobs.astype(self.dtype, copy=False)[:, None]
        for prefix, stem, _ in reversed(self.layers):
            out = getattr(nn_core, f"{stem}_backward")(d, caches.pop())
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
    """Construct a model with seeded initialization, drawing in `_tensor_shapes` order.

    All GRU tensors ~ U(+-1/sqrt(H)); conv and dense weights (`.w`) ~
    U(+-sqrt(6 / fan_in)), fan_in the product of all but the first dimension;
    BN gamma and running variance 1, everything else 0. No conv biases: each
    conv feeds a batch norm whose beta plays that role. Equal seeds give
    bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed & ((1 << 64) - 1))
    arrays = {}
    for name, shape in _tensor_shapes(config):
        gru = name.startswith("gru.")
        if gru or name.endswith(".w"):
            bound = 1.0 / np.sqrt(config.gru_hidden) if gru else np.sqrt(6.0 / math.prod(shape[1:]))
            arrays[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        else:
            arrays[name] = np.full(shape, float(name.endswith((".gamma", ".running_var"))), dtype=dtype)
    return Model(config, arrays, dtype=dtype)


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

    block = header["config"]  # `save` writes every field, so a field left out is an error, not its default
    if not isinstance(block, dict) or block.keys() != asdict(RawNetLiteConfig()).keys():
        raise CheckpointFormatError(f"bad config block: {block!r} does not name exactly the config's fields")
    try:
        config = RawNetLiteConfig(**block)
    except ConfigError as e:  # a field mistyped or out of range
        raise CheckpointFormatError(f"bad config block: {e}") from e
    tensors, flags = header["tensors"], header["bn_initialized"]
    if not isinstance(tensors, list):
        raise CheckpointFormatError(f"'tensors' is a JSON {type(tensors).__name__}, not a list")
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise CheckpointFormatError("'bn_initialized' is not an object of booleans")
    table, needed = {}, 0  # bounded by the payload: every tensor holds at least one float
    for name, shape in _tensor_shapes(config, version):
        table[name], needed = shape, needed + 4 * math.prod(shape)
        if needed > len(payload):
            raise CheckpointFormatError(f"config needs more than the payload's {len(payload)} bytes")
    arrays = {}  # read-only views of the payload
    for entry in tensors:
        try:
            name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
        except (KeyError, TypeError) as e:
            raise CheckpointFormatError(f"malformed tensor entry {entry!r}: {e!r}") from e
        if not isinstance(name, str) or type(start) is not int or start < 0:
            raise CheckpointFormatError(f"malformed tensor entry {entry!r}")
        if name not in table:
            raise CheckpointFormatError(f"unknown tensor {name!r} in checkpoint")
        if name in arrays:
            raise CheckpointFormatError(f"tensor {name!r} appears twice")
        if shape != table[name]:
            raise CheckpointFormatError(
                f"tensor {name!r}: checkpoint shape {shape} != model shape {table[name]}")
        count = math.prod(table[name])  # not of `shape`, which may hold floats equal to it
        if start + 4 * count > len(payload):
            raise CheckpointIntegrityError(f"tensor {name!r} overruns payload")
        arrays[name] = np.frombuffer(payload, "<f4", count, start).reshape(table[name])
    missing = set(table) - set(arrays)
    if missing:
        raise CheckpointFormatError(f"checkpoint missing tensors: {sorted(missing)}")
    for bn in flags:
        if f"{bn}.running_mean" not in table:
            raise CheckpointFormatError(f"unknown batch-norm state {bn!r}")
    if version == 1:  # fold each conv bias into its batch norm's running mean
        for name in [n for n in table if n.endswith(".running_mean")]:
            arrays[name] = arrays[name] - arrays.pop(name.replace(".bn", ".conv").replace(".running_mean", ".b"))
    model = Model(config, {name: a.copy() for name, a in arrays.items()})  # writable, off the payload
    for bn_name, flag in flags.items():
        model.bn_states[bn_name].initialized = flag
    model.metadata = header.get("metadata", {})
    return model
