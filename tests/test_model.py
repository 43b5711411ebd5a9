import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rawnetlite import losses_metrics as lm, nn_core, train_eval
from rawnetlite.data_pipeline import ManifestEntry
from rawnetlite.model import (
    CheckpointFormatError, CheckpointIntegrityError, ConfigError, RawNetLiteConfig,
    build, load, save,
)
from rawnetlite.nn_core import Adam, ShapeError, TrainingError

from conftest import finite_difference_check

SMALL = RawNetLiteConfig(channels=4, n_res_blocks=2, pool_len=8, gru_hidden=3,
                         fc_hidden=4, input_len=64, seed=9)


def small_batch(cfg=SMALL, n=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1, cfg.input_len)).astype(np.float32)


def test_default_parameter_count():
    assert build(RawNetLiteConfig()).parameter_count == 240321


def test_no_parameter_is_dead():
    """Every parameter moves the loss; a conv bias right before a batch norm would not."""
    m = build(SMALL, dtype=np.float64)
    probs, caches = m.forward_train(small_batch(n=4).astype(np.float64))
    _, dp = lm.bce_loss(probs, np.array([0.0, 1.0, 1.0, 0.0]))
    m.backward(dp, caches)
    assert [name for name, p in m.params.items() if np.abs(p.grad).max() < 1e-8] == []


def test_equal_seeds_bit_identical():
    a, b = build(RawNetLiteConfig(seed=77)), build(RawNetLiteConfig(seed=77))
    assert all(np.array_equal(a.params[k].values, b.params[k].values) for k in a.params)


def test_different_seeds_differ():
    a, b = build(SMALL), build(RawNetLiteConfig(**{**SMALL.__dict__, "seed": 10}))
    assert any(not np.array_equal(a.params[k].values, b.params[k].values) for k in a.params)


def test_no_res_blocks_still_works():
    cfg = RawNetLiteConfig(channels=4, n_res_blocks=0, pool_len=8, gru_hidden=3,
                           fc_hidden=4, input_len=64, seed=1)
    m = build(cfg)
    probs = m.forward(small_batch(cfg), mode="train")
    assert probs.shape == (3,)


def test_config_validation():
    with pytest.raises(ConfigError):
        RawNetLiteConfig(channels=0)
    with pytest.raises(ConfigError):
        RawNetLiteConfig(pool_len=100, input_len=50)
    with pytest.raises(ConfigError):
        RawNetLiteConfig(kernel=5)
    for field in ("channels", "n_res_blocks", "seed"):
        for value in (4.0, "4", True, None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                RawNetLiteConfig(**{field: value})


def test_forward_probabilities_in_open_interval():
    m = build(SMALL)
    probs = m.forward(small_batch(), mode="train")
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_forward_rejects_wrong_length():
    m = build(SMALL)
    with pytest.raises(ShapeError, match="64"):
        m.forward(np.zeros((2, 1, 65), dtype=np.float32), mode="train")


def test_eval_mode_per_sample_purity():
    m = build(SMALL)
    m.forward(small_batch(n=4), mode="train")  # populate BN stats
    x = small_batch(n=2, seed=3)
    dup = np.concatenate([x, x[:1]])
    probs = m.forward(dup, mode="eval")
    assert probs[0] == probs[2]


def test_zeroed_head_gives_half():
    m = build(SMALL)
    m.forward(small_batch(n=4), mode="train")
    m.params["head.fc2.w"].values[...] = 0.0
    m.params["head.fc2.b"].values[...] = 0.0
    assert np.all(m.forward(small_batch(seed=8), mode="eval") == 0.5)


# --- checkpoints ---------------------------------------------------------------


def trained_small(seed=0):
    m = build(SMALL)
    x = small_batch(n=4, seed=seed)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    p, caches = m.forward_train(x)
    _, dp = lm.bce_loss(p.astype(np.float64), y)
    m.backward(dp.astype(np.float32), caches)
    m.metadata = {"epoch": 1, "best_val_f1": 0.5}
    return m


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = trained_small()
    path = tmp_path / "m.ckpt"
    save(m, path)
    m2 = load(path)
    x = small_batch(seed=5)
    assert np.array_equal(m.forward(x, mode="eval"), m2.forward(x, mode="eval"))
    assert m2.metadata == {"epoch": 1, "best_val_f1": 0.5}
    for k in m.bn_states:
        assert m2.bn_states[k].initialized == m.bn_states[k].initialized
        assert np.array_equal(m2.bn_states[k].running_mean, m.bn_states[k].running_mean)


def _edit_header(path, mutate):
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new_header)) + new_header + blob[16 + hlen:])


# --- fuzz: any byte string loads or fails with a typed error -------------------------
# The payload checksum does not cover the header, so header edits reach the config,
# tensor-entry and flag checks. Single-byte edits cannot grow a config number past
# two digits, so no edit builds a large model.

CHECKPOINT_ERRORS = (CheckpointFormatError, CheckpointIntegrityError)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save(trained_small(), path)
    return path.read_bytes(), path.with_name("fuzzed.ckpt")


def _load_or_typed_error(data: bytes, path: Path) -> None:
    path.write_bytes(data)
    try:
        m = load(path)
    except CHECKPOINT_ERRORS:
        return
    assert set(m.params) == set(build(m.config).params)


@given(data=st.binary(max_size=256), magic=st.booleans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_any_bytes_gives_model_or_typed_error(checkpoint_bytes, data, magic):
    _load_or_typed_error((b"RNLCKPT1" if magic else b"") + data, checkpoint_bytes[1])


@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.one_of(
           st.integers(0, 255), st.sampled_from(b'0123456789"{}[],:.-aeflnrstu'))), min_size=1, max_size=4),
       keep=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_mutated_checkpoint_gives_model_or_typed_error(checkpoint_bytes, edits, keep):
    blob, path = checkpoint_bytes
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    data = bytearray(blob[: round(keep * len(blob))])
    for pos, byte in edits:  # most edits land in the magic, the header length or the header
        pos %= 16 + header_len if pos % 4 else len(blob)
        if pos < len(data):
            data[pos] = byte
    _load_or_typed_error(bytes(data), path)


def test_checkpoint_wrong_shape_names_tensor(tmp_path):
    m = trained_small()
    path = tmp_path / "m.ckpt"
    save(m, path)

    def mutate(header):
        for t in header["tensors"]:
            if t["name"] == "head.fc2.w":
                t["shape"] = [2, 4]

    _edit_header(path, mutate)
    with pytest.raises(CheckpointFormatError, match="head.fc2.w"):
        load(path)


def test_checkpoint_checksum_mismatch(tmp_path):
    m = trained_small()
    path = tmp_path / "m.ckpt"
    save(m, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError, match="checksum"):
        load(path)


def test_checkpoint_truncated_payload(tmp_path):
    m = trained_small()
    path = tmp_path / "m.ckpt"
    save(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(CheckpointIntegrityError):
        load(path)


def test_checkpoint_version_mismatch(tmp_path):
    m = trained_small()
    path = tmp_path / "m.ckpt"
    save(m, path)
    _edit_header(path, lambda h: h.update(format_version=99))
    with pytest.raises(CheckpointFormatError, match="version"):
        load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load(path)


@pytest.mark.parametrize("version", [0, 3, "2", 1.0, True, None])
def test_checkpoint_other_versions_rejected(tmp_path, version):
    from rawnetlite import cli

    path = tmp_path / "m.ckpt"
    save(trained_small(), path)
    _edit_header(path, lambda h: h.update(format_version=version))
    with pytest.raises(CheckpointFormatError, match="version"):
        load(path)
    assert cli.main(["infer", str(path), str(tmp_path / "x.wav")]) == cli.EXIT_DATA


# A format-1 checkpoint of SMALL with random conv biases, batch-norm affine parameters
# and running statistics, written by the format-1 code (the snippet is quoted in
# CHANGES.md), and the probabilities that code computed on FORMAT1_X: eval, then
# train (which updates the running statistics), then eval again.
FORMAT1 = Path(__file__).parent / "data" / "format1_small.ckpt"
FORMAT1_X = np.random.default_rng(7).normal(size=(3, 1, SMALL.input_len)).astype(np.float32)
FORMAT1_PROBS = {
    "eval": [0.5581146478652954, 0.5598616600036621, 0.5583440065383911],
    "train": [0.5172548294067383, 0.49778640270233154, 0.5386106371879578],
    "eval after train": [0.5514955520629883, 0.5542383790016174, 0.5516847968101501],
}


def test_format1_checkpoint_keeps_its_function(tmp_path):
    m = load(FORMAT1)
    assert m.config == SMALL
    assert not [name for name in m.params if ".conv" in name and name.endswith(".b")]
    for step, mode in zip(FORMAT1_PROBS, ["eval", "train", "eval"]):
        np.testing.assert_allclose(m.forward(FORMAT1_X, mode=mode), FORMAT1_PROBS[step],
                                   rtol=0, atol=1e-6, err_msg=step)
    save(m, tmp_path / "m.ckpt")  # written again as format 2, bit-exact
    m2 = load(tmp_path / "m.ckpt")
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(m._state_arrays(), m2._state_arrays()))


def test_format1_checkpoint_without_a_conv_bias_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(FORMAT1.read_bytes())
    _edit_header(path, lambda h: h.update(
        tensors=[t for t in h["tensors"] if t["name"] != "res1.conv2.b"]))
    with pytest.raises(CheckpointFormatError, match="res1.conv2.b"):
        load(path)


@pytest.mark.parametrize("blob", [b"RNLCKPT1", b"RNLCKPT1\x05\x00\x00\x00"])
def test_checkpoint_no_header_length(tmp_path, blob):
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load(path)


def test_checkpoint_header_not_an_object(tmp_path):
    header = json.dumps([1, 2]).encode()
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"RNLCKPT1" + struct.pack("<Q", len(header)) + header)
    with pytest.raises(CheckpointFormatError, match="not an object"):
        load(path)


@pytest.mark.parametrize("key", ["payload_bytes", "payload_sha256", "config", "tensors",
                                 "bn_initialized"])
def test_checkpoint_header_missing_key(tmp_path, key):
    path = tmp_path / "m.ckpt"
    save(build(SMALL), path)
    _edit_header(path, lambda h: h.pop(key))
    with pytest.raises(CheckpointFormatError, match=key):
        load(path)


MALFORMED_HEADERS = {
    "entry_without_offset": lambda h: h["tensors"][0].pop("offset"),
    "entry_without_name": lambda h: h["tensors"][0].pop("name"),
    "entry_not_an_object": lambda h: h["tensors"].__setitem__(0, "stem.conv.w"),
    "entry_string_offset": lambda h: h["tensors"][0].update(offset="0"),
    "entry_negative_offset": lambda h: h["tensors"][0].update(offset=-4),
    "tensors_an_object": lambda h: h.update(tensors={"stem.conv.w": 0}),
    "tensors_a_number": lambda h: h.update(tensors=3),
    "bn_initialized_a_list": lambda h: h.update(bn_initialized=[True]),
    "bn_flag_a_string": lambda h: h["bn_initialized"].update({"stem.bn": "yes"}),
    "config_float_channels": lambda h: h["config"].update(channels=4.0),
    "config_fractional_blocks": lambda h: h["config"].update(n_res_blocks=1.5),
    "config_string_seed": lambda h: h["config"].update(seed="x"),
    "config_bool_channels": lambda h: h["config"].update(channels=True),
    "config_zero_channels": lambda h: h["config"].update(channels=0),
    "config_kernel_5": lambda h: h["config"].update(kernel=5),
    "config_a_list": lambda h: h.update(config=[4, 3]),
    # neither is in a tensor shape, so a default would load without any other error
    "config_missing_pool_len": lambda h: h["config"].pop("pool_len"),
    "config_missing_input_len": lambda h: h["config"].pop("input_len"),
}


@pytest.mark.parametrize("mutate", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_checkpoint_malformed_tensor_entries_and_flags(tmp_path, mutate):
    from rawnetlite import cli

    path = tmp_path / "m.ckpt"
    save(build(SMALL), path)
    _edit_header(path, mutate)
    with pytest.raises(CheckpointFormatError):
        load(path)
    assert cli.main(["infer", str(path), str(tmp_path / "x.wav")]) == cli.EXIT_DATA


@pytest.mark.parametrize("field, value", [("channels", 10000), ("gru_hidden", 10000),
                                          ("n_res_blocks", 1000000)])
def test_checkpoint_naming_a_larger_model_is_refused_before_allocating(tmp_path, field, value):
    """A header whose config needs more tensors than its payload holds costs what the file costs.

    Built, each of these configs would take gigabytes, or the time of a million residual blocks."""
    from rawnetlite import cli

    path = tmp_path / "m.ckpt"
    save(build(SMALL), path)
    _edit_header(path, lambda h: h["config"].update({field: value}))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match="payload"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cli.main(["infer", str(path), str(tmp_path / "x.wav")]) == cli.EXIT_DATA


# --- layer table -------------------------------------------------------------------

N = SMALL.n_res_blocks
FORWARD_CALLS = {  # per Model.forward, counting calls made inside composite kernels
    "conv_bn_relu_forward": 1 + 2 * N, "conv1d_forward": 1 + 2 * N,
    "batchnorm_relu_forward": 1 + 2 * N, "batchnorm1d_forward": 0, "relu_forward": 1,
    "residual_block_forward": N, "adaptive_avg_pool1d_forward": 1, "bigru_forward": 1,
    "gru_forward": 2, "linear_forward": 2, "sigmoid_forward": 1,
}


FORWARD_KERNELS = sorted(n for n in vars(nn_core) if n.endswith("_forward"))
# in eval, each unit folds its batch norm into its conv instead of running both, a
# residual block runs its two units itself, and the pool pulls them depth first
EVAL_CALLS = {**FORWARD_CALLS, "conv_bn_relu_forward": 1, "conv1d_forward": 0,
              "batchnorm_relu_forward": 0, "fold_batchnorm": 1 + 2 * N}


def count_calls(monkeypatch, kernel):
    orig = getattr(nn_core, kernel)
    calls = []

    def counting(*args, **kwargs):
        calls.append(kernel)
        return orig(*args, **kwargs)

    monkeypatch.setattr(nn_core, kernel, counting)
    return calls


@pytest.mark.parametrize("kernel", FORWARD_KERNELS)
def test_forward_looks_up_kernels_at_call_time(kernel, monkeypatch):
    calls = count_calls(monkeypatch, kernel)
    build(SMALL).forward(small_batch(), mode="train")
    assert len(calls) == FORWARD_CALLS[kernel]


BACKWARD_CALLS = {f"{stem[:-len('_forward')]}_backward": n for stem, n in FORWARD_CALLS.items()}
BACKWARD_KERNELS = sorted(n for n in vars(nn_core) if n.endswith("_backward"))


@pytest.mark.parametrize("kernel", BACKWARD_KERNELS)
def test_backward_looks_up_kernels_at_call_time(kernel, monkeypatch):
    m = build(SMALL)
    p, caches = m.forward_train(small_batch())
    calls = count_calls(monkeypatch, kernel)
    m.backward(np.ones_like(p), caches)
    assert len(calls) == BACKWARD_CALLS[kernel]


@pytest.mark.parametrize("kernel", FORWARD_KERNELS + ["fold_batchnorm"])
def test_eval_forward_looks_up_kernels_at_call_time(kernel, monkeypatch):
    m = build(SMALL)
    m.forward(small_batch(), mode="train")  # sets the running statistics eval reads
    calls = count_calls(monkeypatch, kernel)
    m.forward(small_batch(), mode="eval")
    assert len(calls) == EVAL_CALLS[kernel]


# --- eval: batch norm folded into its conv ------------------------------------------


def unfolded_unit(x, w, gamma, beta, state, skip=None):
    """An eval conv -> BN -> ReLU unit without folding, from the reference kernels."""
    c, _ = nn_core.conv1d_forward(x, w)
    n, _ = nn_core.batchnorm1d_forward(c, gamma, beta, state, "eval")
    if skip is not None:
        n += skip
    return nn_core.relu_forward(n)[0]


def unfolded_block(x, w1, gamma1, beta1, w2, gamma2, beta2, state1, state2):
    a = unfolded_unit(x, w1, gamma1, beta1, state1)
    return unfolded_unit(a, w2, gamma2, beta2, state2, skip=x)


def unfolded_eval(m, x):
    """The eval forward without folding: every unit runs conv1d, batchnorm1d(eval) and relu."""
    h = x
    for prefix, stem, constants in m.layers:
        args = m._kernel_args(prefix, constants, "eval")
        if stem == "conv_bn_relu":
            h = unfolded_unit(h, *args[:-1])  # all but the mode
        elif stem == "residual_block":
            h = unfolded_block(h, *args[:-1])
        else:
            h, _ = getattr(nn_core, f"{stem}_forward")(h, *args)
    return h[:, 0]


def randomized_bn_model(dtype):
    m = build(SMALL, dtype=dtype)
    rng = np.random.default_rng(0)
    m.forward(small_batch(n=4).astype(dtype), mode="train")
    for bn, st in m.bn_states.items():
        c = st.running_var.size
        m.params[f"{bn}.gamma"].values[...] = rng.uniform(0.5, 2.0, c)
        m.params[f"{bn}.beta"].values[...] = rng.normal(size=c)
        st.running_mean[...] = rng.normal(size=c)
        st.running_var[...] = rng.uniform(0.25, 4.0, c)
    return m


def assert_close_to_unfolded(got, ref):
    if got.dtype == np.float64:
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    else:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)


def assert_matches_unfolded(m, x):
    assert_close_to_unfolded(m.forward(x, mode="eval"), unfolded_eval(m, x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_residual_block_folds_both_units(dtype):
    m = randomized_bn_model(dtype)
    args = m._kernel_args("res0", (), "eval")
    x = np.random.default_rng(7).normal(size=(3, SMALL.channels, SMALL.input_len)).astype(dtype)
    out, cache = nn_core.residual_block_forward(x, *args)
    assert cache is None
    assert out.dtype == dtype
    assert_close_to_unfolded(out, unfolded_block(x, *args[:-1]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_forward_folds_batch_norm_into_conv(dtype):
    m = randomized_bn_model(dtype)
    assert_matches_unfolded(m, small_batch(n=5, seed=4).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_fold_follows_a_training_step(dtype):
    m = randomized_bn_model(dtype)
    x = small_batch(n=5, seed=4).astype(dtype)
    before = m.forward(x, mode="eval")
    p, caches = m.forward_train(small_batch(n=4, seed=5).astype(dtype))
    _, dp = lm.bce_loss(p.astype(np.float64), np.array([0.0, 1.0, 1.0, 0.0]))
    m.backward(dp.astype(dtype), caches)
    Adam(m.params, lr=0.05).step()
    assert not np.array_equal(m.forward(x, mode="eval"), before)
    assert_matches_unfolded(m, x)


@st.composite
def eval_shapes(draw):
    """(input_len, pool_len) with 64-sample tiles: up to 7 tiles, or a row shorter than one."""
    t = draw(st.integers(1, 400))
    return t, draw(st.integers(1, t))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=eval_shapes(), n_res_blocks=st.integers(0, 3), seed=st.integers(0, 2**16),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_depth_first_eval_matches_unfolded_across_tiles(monkeypatch, shape, n_res_blocks, seed, dtype):
    """Tiles of 64 samples put halos past both ends of short rows and pool bins across tile edges."""
    monkeypatch.setattr(nn_core, "_TILE", 64)
    t, pool_len = shape
    cfg = RawNetLiteConfig(channels=3, n_res_blocks=n_res_blocks, pool_len=pool_len,
                           gru_hidden=3, fc_hidden=4, input_len=t, seed=seed)
    m = build(cfg, dtype=dtype)
    rng = np.random.default_rng(seed)
    for bn, state in m.bn_states.items():
        m.params[f"{bn}.gamma"].values[...] = rng.uniform(0.5, 2.0, 3)
        m.params[f"{bn}.beta"].values[...] = rng.normal(size=3)
        state.running_mean[...] = rng.normal(size=3)
        state.running_var[...] = rng.uniform(0.25, 4.0, 3)
        state.initialized = True
    assert_matches_unfolded(m, small_batch(cfg, n=2, seed=seed).astype(dtype))


def test_eval_forward_changes_no_state():
    m = randomized_bn_model(np.float32)
    state = {name: a.copy() for name, a in m._state_arrays()}
    flags = {name: st.initialized for name, st in m.bn_states.items()}
    m.forward(small_batch(seed=6), mode="eval")
    assert all(np.array_equal(a, state[name]) for name, a in m._state_arrays())
    assert {name: st.initialized for name, st in m.bn_states.items()} == flags


def test_eval_forward_before_training_raises():
    with pytest.raises(TrainingError, match="eval mode before"):
        build(SMALL).forward(small_batch(), mode="eval")


# --- memory ---------------------------------------------------------------------------
# NumPy allocations are visible to tracemalloc, so these byte counts are exact and
# repeatable. Unit: one (B, C, T) float32 activation. No batch norm caches its
# output: each caches its ReLU mask, out > 0, packed to bits (1/32 activation).
# So a training forward keeps the stem's conv output and its output (as res0's
# conv1 input), per block the conv outputs c1 and c2 and, but for the last
# block, the block output (as the next conv's input), and seven masks: 2 + 2 * 3
# + 2 + 7 / 32 activations for three blocks; 10.28 measured. No training forward
# builds a1, the output of a block's first unit, and a unit's backward hands the
# conv backward the gradient of its conv output unbuilt; the pool's gradient is
# unbuilt too. All three are `Windows`, the one lazy array type, which the
# kernels read one C x ~_TILE window at a time through `_window_reader` (a1,
# built from c1, for unit 2's conv and its dw; the batch-norm dx from its
# per-channel float64 sums; the pool's dx from its (B, C, pool_len) gradient).
# The batch statistics and those sums are taken a tile at a time, through one
# float64 tile buffer; here a tile is a whole row, so that buffer is half an
# activation. The forward peaks at 11.30 in the last block's unit-2 conv: its
# output, a1's window and the float64 buffer. Unit 2's masked gradient is kept
# whole, as dskip, and unit 1's conv backward adds its dx into it tile by
# tile. `Model.backward` pops each layer's cache, so a block's activations are
# freed when its backward returns. One step peaks at 13.00 in
# the last block's conv backwards: the held caches, dskip and da1, plus a few
# tile-sized windows and buffers; each earlier block starts about two
# activations lower than the one after it. The conv kernels allocate no
# full-size tap buffer: a float32 conv's taps run as BLAS calls straight into
# its output (`nn_core._sgemm`), and only a conv whose taps take numpy's path
# uses a scratch tile of C x ~_TILE samples (a quarter activation here); there
# a step peaks at 13.25. An eval forward keeps no caches, folds each batch norm
# into its conv and runs depth first: the pool reads the conv stack one batch
# row and one time tile at a time, so nothing it allocates grows with B or T.
# Its peak, about 1.5 MiB at any B here (0.78 activations at B = 4), is three
# C x ~_TILE windows inside a residual block's second unit: the block's input
# window (also the skip), unit 1's output and unit 2's output.

# On two threads (the `participants` fixture) each peak may grow by one more
# thread's tile set, `_tile_set`: the tile buffers `_tile_pass` gives a body and the
# windows the body builds. Measured at two: forward 11.77, one step 13.50 and
# `train()` 13.90 activations, an eval forward 1.53, a paper-config B=2 step
# 12.74 (298.6 MiB). At MEM_CFG a row is one tile, so a tile set is about a row.

MEM_CFG = RawNetLiteConfig(channels=16, n_res_blocks=3, pool_len=32, gru_hidden=8,
                           fc_hidden=8, input_len=8000, seed=1)


def _activations(nbytes, batch, cfg=MEM_CFG):
    return nbytes / (batch * cfg.channels * cfg.input_len * 4)


def _tile_set(cfg):
    """Bytes one more tile-pass thread may hold: per channel and column of a `_tile_width` tile,
    a float64 sum buffer, a float32 input window and a float32 temporary. A float32 conv whose
    taps run as BLAS calls (`nn_core._sgemm`) has no scratch tile."""
    return cfg.channels * nn_core._tile_width(cfg.input_len) * (8 + 4 + 4)


def test_memory_bound_forward_backward(participants):
    extra = (participants - 1) * _activations(_tile_set(MEM_CFG), 4)
    m = build(MEM_CFG)
    x = small_batch(MEM_CFG, n=4)
    m.forward(x, mode="train")  # warm-up, so one-time allocations stay out of the counts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p, caches = m.forward_train(x)
        held, peak_forward = (n - base for n in tracemalloc.get_traced_memory())
        m.backward(np.ones_like(p), caches)
        peak_train = tracemalloc.get_traced_memory()[1] - base
        del p, caches
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m.forward(x, mode="eval")
        peak_eval = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert _activations(held, 4) < 10.4
    assert _activations(peak_forward, 4) < 11.5 + extra
    assert _activations(peak_train, 4) < 13.6 + extra
    assert _activations(peak_eval, 4) < 1.1 + extra


def test_memory_bound_one_step_at_the_paper_config(participants):
    """One float32 step at the paper config, B = 2, peaks at 12.50 (B, C, T) activations, ~293 MiB, on one thread."""
    cfg = RawNetLiteConfig()
    m = build(cfg)
    x = small_batch(cfg, n=2)
    m.forward(x, mode="train")  # warm-up, so one-time allocations stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p, caches = m.forward_train(x)
        m.backward(np.ones_like(p), caches)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert _activations(peak, 2, cfg) < 12.8 + (participants - 1) * _activations(_tile_set(cfg), 2, cfg)


def _eval_peak(cfg, batch):
    """tracemalloc peak of one eval forward at the given batch size, above what existed before it."""
    m = build(cfg)
    m.forward(small_batch(cfg, n=2), mode="train")  # sets the running statistics eval reads
    x = small_batch(cfg, n=batch)
    m.forward(x, mode="eval")  # warm-up, so one-time allocations stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m.forward(x, mode="eval")
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_eval_memory_does_not_grow_with_the_batch(participants):
    """At B=8 an eval forward peaks like one row per thread. The base is B=1, which runs on one
    thread: at B = 2 on two threads the peak depends on how far the two rows overlap in time,
    and measured 3.46 or 3.95 MiB at MEM_CFG from run to run."""
    assert _eval_peak(MEM_CFG, 8) < 1.1 * participants * _eval_peak(MEM_CFG, 1)


def test_eval_memory_does_not_grow_with_the_clip(monkeypatch):
    monkeypatch.setattr(nn_core, "_TILE", 1024)  # several tiles per row at both lengths
    longer = RawNetLiteConfig(**{**MEM_CFG.__dict__, "input_len": 2 * MEM_CFG.input_len})
    assert _eval_peak(longer, 4) < 1.1 * _eval_peak(MEM_CFG, 4)


def test_train_frees_each_steps_caches_before_the_next_forward(monkeypatch, participants):
    """Over several steps, train() peaks like one step: about 13.15 activations on one thread, not the 20.6 of two steps' caches."""
    def synthetic_batches(entries, batch_size=16, **_):
        rng = np.random.default_rng(0)
        for k in range(0, len(entries), batch_size):
            batch = entries[k : k + batch_size]
            x = rng.normal(size=(len(batch), 1, MEM_CFG.input_len)).astype(np.float32)
            yield x, np.array([e.label for e in batch], dtype=np.float32), batch

    monkeypatch.setattr(train_eval, "make_batches", synthetic_batches)
    entries = [ManifestEntry(f"c{i}.wav", i % 2, "d") for i in range(12)]
    cfg = train_eval.TrainConfig(loss="bce", batch_size=4, max_epochs=1, eval_batch_size=4)
    tracemalloc.start()
    try:
        train_eval.train(MEM_CFG, cfg, entries, entries[:4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _activations(peak, 4) < 13.75 + (participants - 1) * _activations(_tile_set(MEM_CFG), 4)


def test_two_threads_give_the_serial_bits(monkeypatch):
    """One MEM_CFG training step and an eval forward give the same float32 bits on one thread and on two:
    the probabilities, every gradient, every running statistic and the eval probabilities."""
    runs = []
    for n in (1, 2):
        monkeypatch.setattr(nn_core, "_participants", lambda shape, n=n: min(n, shape[0]))
        m = build(MEM_CFG)
        x = small_batch(MEM_CFG, n=4)
        p, caches = m.forward_train(x)
        m.backward(np.ones_like(p), caches)
        runs.append([p, *(t.grad for t in m.params.values()),
                     *(a for st in m.bn_states.values() for a in (st.running_mean, st.running_var)),
                     m.forward(x, mode="eval")])
    assert all(a.dtype == np.float32 and np.array_equal(a, b) for a, b in zip(*runs, strict=True))


def test_paper_config_step_passes_the_blas_no_illegal_argument(capfd):
    """OpenBLAS reports an sgemm argument it rejects on the C streams and returns without writing
    its output: one paper-config B=2 training step and an eval forward print nothing, and give
    finite probabilities and gradients."""
    m = build(RawNetLiteConfig())
    x = small_batch(RawNetLiteConfig(), n=2)
    p, caches = m.forward_train(x)
    m.backward(np.ones_like(p), caches)
    probs = m.forward(x, mode="eval")
    out, err = capfd.readouterr()
    assert "illegal value" not in out + err and (out, err) == ("", "")
    assert all(np.isfinite(a).all() for a in (p, probs, *(t.grad for t in m.params.values())))


def _arrays(cache):
    if isinstance(cache, tuple):
        return [a for c in cache for a in _arrays(c)]
    return [cache] if isinstance(cache, np.ndarray) else []


def test_conv_after_relu_caches_the_relu_output(monkeypatch):
    """With 64-sample tiles and an odd T, the stem's and each unit 2's batch norm caches its
    ReLU mask out > 0 packed to bits, with zero padding bits, not its output. So the stem's
    and each block's output is held only by the next conv, as its input, and the last
    block's by no cache."""
    monkeypatch.setattr(nn_core, "_TILE", 64)
    cfg = RawNetLiteConfig(**{**SMALL.__dict__, "input_len": 1001})
    forward, outputs = nn_core.conv_bn_relu_forward, []

    def recording(*args, **kwargs):
        out, cache = forward(*args, **kwargs)
        outputs.append(out)
        return out, cache

    monkeypatch.setattr(nn_core, "conv_bn_relu_forward", recording)
    x = small_batch(cfg)
    _, caches = build(cfg).forward_train(x)
    n, full = cfg.n_res_blocks, (len(x), cfg.channels, cfg.input_len)
    blocks = caches[1 : 1 + n]
    # the stem's output and each block's, with the cache of the batch norm that made it
    eager = [(outputs[0], caches[0][1])] + [(outputs[2 + 2 * i], bn2) for i, (_, (_, bn2)) in enumerate(blocks)]
    held = [id(a) for cache in caches for a in _arrays(cache)]
    for k, (out, bn) in enumerate(eager):
        bits = bn[5]
        assert isinstance(out, np.ndarray) and out.shape == full and (out > 0).any() and (out == 0).any()
        assert bits.dtype == np.uint8 and bits.shape == full[:2] + (-(-cfg.input_len // 8),)
        unpacked = np.unpackbits(bits, axis=2)
        assert np.array_equal(unpacked[..., : cfg.input_len], out > 0)
        assert not unpacked[..., cfg.input_len :].any()
        assert held.count(id(out)) == (k < n)
    assert blocks[0][0][0][0] is outputs[0]  # res0.conv1 reads the stem's output
    for (conv1, bn1), (conv2, bn2) in blocks:
        assert isinstance(conv2[0], nn_core.Windows)  # a1, for conv2's dw
        full_arrays = {id(a) for a in _arrays(((conv1, bn1), (conv2, bn2))) if a.shape == full}
        assert full_arrays == {id(conv1[0]), id(bn1[0]), id(bn2[0])}  # the block's input, c1 and c2


def test_block_rebuilds_a1_bit_for_bit(monkeypatch):
    """With 64-sample tiles and an odd T, no full-size a1 is built in a training forward, the
    lazy a1 is bit for bit what an eager batch norm + ReLU gives, and unit 1's mask bits are a1 > 0."""
    monkeypatch.setattr(nn_core, "_TILE", 64)
    cfg = RawNetLiteConfig(**{**MEM_CFG.__dict__, "input_len": 1001})
    forward, affine_relu = nn_core.conv_bn_relu_forward, nn_core._affine_relu
    outputs, built = [], []

    def recording(*args, **kwargs):
        out, cache = forward(*args, **kwargs)
        outputs.append(out)
        return out, cache

    def recording_affine_relu(*args, **kwargs):
        out = affine_relu(*args, **kwargs)
        built.append(out.shape)
        return out

    monkeypatch.setattr(nn_core, "conv_bn_relu_forward", recording)
    monkeypatch.setattr(nn_core, "_affine_relu", recording_affine_relu)
    m = build(cfg)
    x = small_batch(cfg, n=4)
    _, caches = m.forward_train(x)
    full = (len(x), cfg.channels, cfg.input_len)
    assert built.count(full) == 1 + cfg.n_res_blocks  # the stem's output and each block's
    for i, block in enumerate(caches[1 : 1 + cfg.n_res_blocks]):
        (_, bn1), _ = block
        a1 = outputs[1 + 2 * i]  # what the block's unit 1 returned
        assert isinstance(a1, nn_core.Windows)
        c1, bits = bn1[0], bn1[5]
        gamma, beta = (m.params[f"res{i}.bn1.{k}"].values for k in ("gamma", "beta"))
        eager, _ = nn_core.batchnorm_relu_forward(c1, gamma, beta, nn_core.BatchNormState.create(cfg.channels))
        assert (eager == 0).any() and (eager > 0).any()
        assert np.array_equal(np.asarray(a1), eager)
        unpacked = np.unpackbits(bits, axis=2)
        assert np.array_equal(unpacked[..., : cfg.input_len], np.asarray(a1) > 0)
        assert not unpacked[..., cfg.input_len :].any()


# --- gradient integrity -----------------------------------------------------------


def test_backward_consumes_the_caches():
    m = build(SMALL)
    p, caches = m.forward_train(small_batch())
    m.backward(np.ones_like(p), caches)
    assert caches == []
    with pytest.raises(ValueError, match="0 caches"):
        m.backward(np.ones_like(p), caches)


def test_backward_casts_dprobs_to_the_model_dtype():
    """A float64 loss gradient must not run a float32 model's backward in float64."""
    x, y = small_batch(n=4), np.array([0.0, 1.0, 1.0, 0.0])
    grads = []
    for dp_dtype in (np.float32, np.float64):
        m = build(SMALL)
        p, caches = m.forward_train(x)
        m.backward(lm.bce_loss(p.astype(np.float64), y)[1].astype(dp_dtype), caches)
        grads.append({k: q.grad for k, q in m.params.items()})
    assert all(np.array_equal(grads[0][k], grads[1][k]) for k in grads[0])


def test_end_to_end_gradient_check_small():
    cfg = RawNetLiteConfig(channels=3, n_res_blocks=1, pool_len=4, gru_hidden=2,
                           fc_hidden=3, input_len=32, seed=2)
    m = build(cfg, dtype=np.float64)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 1, 32))
    y = np.array([0.0, 1.0])

    def f():
        return lm.bce_loss(m.forward(x, mode="train"), y)[0]

    p, caches = m.forward_train(x)
    _, dp = lm.bce_loss(p, y)
    m.backward(dp, caches)
    assert finite_difference_check(f, m.params.values()) < 1e-4
