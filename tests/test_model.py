import json
import struct

import numpy as np
import pytest

from rawnetlite import losses_metrics as lm, nn_core
from rawnetlite.model import (
    CheckpointFormatError, CheckpointIntegrityError, ConfigError, RawNetLiteConfig,
    build, load, save,
)
from rawnetlite.nn_core import ShapeError, finite_difference_check

SMALL = RawNetLiteConfig(channels=4, n_res_blocks=2, pool_len=8, gru_hidden=3,
                         fc_hidden=4, input_len=64, seed=9)


def small_batch(cfg=SMALL, n=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1, cfg.input_len)).astype(np.float32)


def test_default_parameter_count():
    assert build(RawNetLiteConfig()).parameter_count == 240769


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


# --- layer table -------------------------------------------------------------------

N = SMALL.n_res_blocks
FORWARD_CALLS = {  # per Model.forward, counting calls made inside composite kernels
    "conv1d_forward": 1 + 2 * N, "batchnorm1d_forward": 1 + 2 * N, "relu_forward": 2 + 2 * N,
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
