import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rawnetlite import losses_metrics as lm, nn_core
from rawnetlite.model import (
    CheckpointFormatError, CheckpointIntegrityError, ConfigError, RawNetLiteConfig,
    build, load, save,
)
from rawnetlite.nn_core import Adam, ShapeError, TrainingError, finite_difference_check

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


# --- layer table -------------------------------------------------------------------

N = SMALL.n_res_blocks
FORWARD_CALLS = {  # per Model.forward, counting calls made inside composite kernels
    "conv1d_forward": 1 + 2 * N, "batchnorm_relu_forward": 1 + 2 * N,
    "batchnorm1d_forward": 0, "relu_forward": 1,
    "residual_block_forward": N, "adaptive_avg_pool1d_forward": 1, "bigru_forward": 1,
    "gru_forward": 2, "linear_forward": 2, "sigmoid_forward": 1,
}


@pytest.mark.parametrize("kernel", sorted(n for n in vars(nn_core) if n.endswith("_forward")))
def test_forward_looks_up_kernels_at_call_time(kernel, monkeypatch):
    orig = getattr(nn_core, kernel)
    calls = []

    def counting(*args, **kwargs):
        calls.append(kernel)
        return orig(*args, **kwargs)

    monkeypatch.setattr(nn_core, kernel, counting)
    build(SMALL).forward(small_batch(), mode="train")
    assert len(calls) == FORWARD_CALLS[kernel]


# --- eval: batch norm folded into its conv ------------------------------------------


def unfolded_eval(m, x):
    """The eval forward without folding: conv -> BN(eval) -> ReLU, residual_block_forward."""
    h = x
    for prefix, stem in m.layers:
        if stem == "batchnorm_relu":
            h, _ = nn_core.batchnorm1d_forward(h, *m._kernel_args(prefix, stem, "eval"), "eval")
            h, _ = nn_core.relu_forward(h)
            continue
        if stem == "bigru":
            h = np.ascontiguousarray(h.transpose(0, 2, 1))
        elif stem == "sigmoid":
            h = h[:, 0]
        h, _ = getattr(nn_core, f"{stem}_forward")(h, *m._kernel_args(prefix, stem, "eval"))
    return h


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


def assert_matches_unfolded(m, x):
    probs, ref = m.forward(x, mode="eval"), unfolded_eval(m, x)
    if m.dtype == np.float64:
        np.testing.assert_allclose(probs, ref, rtol=1e-12, atol=0)
    else:
        np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-6)


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
# repeatable. Unit: one (B, C, T) float32 activation. A training forward keeps the
# output of every fused batch norm + ReLU (each also the next conv's input) and
# every batch norm's input (its conv's output): 7 + 7 activations for three
# blocks. An eval forward keeps no caches and folds each batch norm into its conv;
# its peak is inside a residual block: the block's input (the skip), conv1's
# output, conv2's output and conv2's tap buffer.

MEM_CFG = RawNetLiteConfig(channels=16, n_res_blocks=3, pool_len=32, gru_hidden=8,
                           fc_hidden=8, input_len=8000, seed=1)


def _activations(nbytes, batch):
    return nbytes / (batch * MEM_CFG.channels * MEM_CFG.input_len * 4)


def test_memory_bound_forward_backward():
    m = build(MEM_CFG)
    x = small_batch(MEM_CFG, n=4)
    m.forward(x, mode="train")  # warm-up, so one-time allocations stay out of the counts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p, caches = m.forward_train(x)
        held = tracemalloc.get_traced_memory()[0] - base
        m.backward(np.ones_like(p), caches)
        peak_train = tracemalloc.get_traced_memory()[1] - base
        del p, caches
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m.forward(x, mode="eval")
        peak_eval = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert _activations(held, 4) < 14.5
    assert _activations(peak_train, 4) < 22.5
    assert _activations(peak_eval, 4) < 4.5


def test_conv_after_relu_caches_the_relu_output():
    m = build(SMALL)
    _, caches = m.forward_train(small_batch())
    stem_bn_relu, res0 = caches[1], caches[2]
    cache_c1, cache_n1, cache_c2, _ = res0
    assert cache_c1[0] is stem_bn_relu[4]  # res0.conv1 reads the stem's fused BN + ReLU output
    assert cache_c2[0] is cache_n1[4]  # conv2 reads the block's first fused BN + ReLU output


# --- gradient integrity -----------------------------------------------------------


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
